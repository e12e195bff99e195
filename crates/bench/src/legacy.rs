//! Test oracle for the per-disk collector.
//!
//! [`LegacyCollector`] is the original, obviously-correct implementation
//! of the §3 metrics: one `Vec<Histogram>` indexed by (metric, lens), each
//! lens recorded with its own `Histogram::record` call (so the bin index
//! for a value is computed twice per event), and a linear-scan `Vec` for
//! in-flight seek tracking. It is kept as the reference the flat-slab
//! [`IoStatsCollector`](vscsi_stats::IoStatsCollector) is tested against
//! (`legacy_collector_matches_slab_collector` below) — not as a speed
//! baseline, and not for use outside tests.

use histo::{layouts, signed_distance, Histogram, Histogram2d, HistogramSeries, SeekWindow};
use vscsi::{IoCompletion, IoRequest, RequestId};
use vscsi_stats::{CollectorConfig, Lens, Metric};

const LENSES: usize = 3;

fn lens_index(lens: Lens) -> usize {
    match lens {
        Lens::All => 0,
        Lens::Reads => 1,
        Lens::Writes => 2,
    }
}

fn metric_index(metric: Metric) -> usize {
    match metric {
        Metric::IoLength => 0,
        Metric::SeekDistance => 1,
        Metric::SeekDistanceWindowed => 2,
        Metric::Interarrival => 3,
        Metric::OutstandingIos => 4,
        Metric::Latency => 5,
        Metric::Errors => 6,
    }
}

fn layout_for(metric: Metric) -> histo::BinEdges {
    match metric {
        Metric::IoLength => layouts::io_length_bytes(),
        Metric::SeekDistance | Metric::SeekDistanceWindowed => layouts::seek_distance_sectors(),
        Metric::Interarrival => layouts::interarrival_us(),
        Metric::OutstandingIos => layouts::outstanding_ios(),
        Metric::Latency => layouts::latency_us(),
        Metric::Errors => layouts::scsi_outcomes(),
    }
}

fn direction_lens(req: &IoRequest) -> Lens {
    if req.direction.is_read() {
        Lens::Reads
    } else {
        Lens::Writes
    }
}

/// The pre-slab per-disk collector, kept bit-for-bit faithful to the old
/// hot path: 21 independent [`Histogram`]s in a `Vec`, every lens recorded
/// through its own `Histogram::record` (each of which re-derives the bin
/// index by scanning the edge list), and in-flight seek tracking through a
/// linearly scanned `Vec<(RequestId, i64)>`.
///
/// The `legacy_collector_matches_slab_collector` property pins
/// [`IoStatsCollector`](vscsi_stats::IoStatsCollector) to this
/// implementation: identical histograms and counters on any shared
/// request stream.
#[derive(Debug, Clone)]
pub struct LegacyCollector {
    /// `histograms[metric * 3 + lens]`.
    histograms: Vec<Histogram>,
    window: SeekWindow,
    last_end_block: Option<u64>,
    last_end_block_by_dir: [Option<u64>; 2],
    last_arrival: Option<simkit::SimTime>,
    outstanding: u32,
    outstanding_by_dir: [u32; 2],
    issued_commands: u64,
    completed_commands: u64,
    error_commands: u64,
    clock_anomalies: u64,
    bytes_read: u64,
    bytes_written: u64,
    latency_series: Option<HistogramSeries>,
    outstanding_series: Option<HistogramSeries>,
    inflight_seeks: Vec<(RequestId, i64)>,
    seek_latency: Option<Histogram2d>,
}

impl LegacyCollector {
    /// Creates a collector with the same semantics `IoStatsCollector::new`
    /// had before the flat-slab rewrite.
    pub fn new(config: CollectorConfig) -> Self {
        let mut histograms = Vec::with_capacity(Metric::ALL.len() * LENSES);
        for metric in Metric::ALL {
            for _ in 0..LENSES {
                histograms.push(Histogram::new(layout_for(metric)));
            }
        }
        let latency_series = config
            .series_interval
            .map(|w| HistogramSeries::new(layouts::latency_us(), w));
        let outstanding_series = config
            .series_interval
            .map(|w| HistogramSeries::new(layouts::outstanding_ios(), w));
        let seek_latency = config
            .correlate_seek_latency
            .then(|| Histogram2d::new(layouts::seek_distance_sectors(), layouts::latency_us()));
        LegacyCollector {
            window: SeekWindow::new(config.window_capacity),
            histograms,
            last_end_block: None,
            last_end_block_by_dir: [None, None],
            last_arrival: None,
            outstanding: 0,
            outstanding_by_dir: [0, 0],
            issued_commands: 0,
            completed_commands: 0,
            error_commands: 0,
            clock_anomalies: 0,
            bytes_read: 0,
            bytes_written: 0,
            latency_series,
            outstanding_series,
            inflight_seeks: Vec::new(),
            seek_latency,
        }
    }

    /// Observes a command at issue time (old hot path, verbatim).
    pub fn on_issue(&mut self, req: &IoRequest) {
        let lens = direction_lens(req);
        let first = req.lba.sector();

        let len = req.len_bytes() as i64;
        self.record(Metric::IoLength, lens, len);

        if let Some(prev_end) = self.last_end_block {
            self.record_single(
                Metric::SeekDistance,
                Lens::All,
                signed_distance(prev_end, first),
            );
        }
        let dir_idx = usize::from(req.direction.is_write());
        if let Some(prev_end) = self.last_end_block_by_dir[dir_idx] {
            let lens_hist = if req.direction.is_read() {
                Lens::Reads
            } else {
                Lens::Writes
            };
            self.record_single(
                Metric::SeekDistance,
                lens_hist,
                signed_distance(prev_end, first),
            );
        }

        let windowed = self.window.observe(first, u64::from(req.num_sectors));
        if let Some(d) = windowed {
            self.record(Metric::SeekDistanceWindowed, lens, d);
        }

        if let Some(prev) = self.last_arrival {
            if req.issue_time < prev {
                self.clock_anomalies += 1;
            }
            let dt = req.issue_time.saturating_since(prev).as_micros() as i64;
            self.record(Metric::Interarrival, lens, dt);
        }

        let oio = i64::from(self.outstanding);
        self.record_single(Metric::OutstandingIos, Lens::All, oio);
        self.record_single(
            Metric::OutstandingIos,
            lens,
            i64::from(self.outstanding_by_dir[dir_idx]),
        );
        if let Some(series) = &mut self.outstanding_series {
            series.record(req.issue_time, oio);
        }

        self.last_end_block = Some(req.last_lba().sector());
        self.last_end_block_by_dir[dir_idx] = Some(req.last_lba().sector());
        self.last_arrival = Some(req.issue_time);
        self.outstanding += 1;
        self.outstanding_by_dir[dir_idx] += 1;
        self.issued_commands += 1;
        if req.direction.is_read() {
            self.bytes_read += req.len_bytes();
        } else {
            self.bytes_written += req.len_bytes();
        }
        if self.seek_latency.is_some() {
            if let Some(prev_seek) = windowed {
                self.inflight_seeks.push((req.id, prev_seek));
            }
        }
    }

    /// Observes a command at completion time (old hot path, verbatim).
    pub fn on_complete(&mut self, completion: &IoCompletion) {
        let req = &completion.request;
        let lens = direction_lens(req);
        if completion.complete_time < req.issue_time {
            self.clock_anomalies += 1;
        }
        let lat_us = completion.saturating_latency().as_micros() as i64;
        if completion.status.is_good() {
            self.record(Metric::Latency, lens, lat_us);
            if let Some(series) = &mut self.latency_series {
                series.record(completion.complete_time, lat_us);
            }
        } else {
            self.error_commands += 1;
            self.record(Metric::Errors, lens, completion.status.outcome_code());
        }
        if let Some(h2) = &mut self.seek_latency {
            if let Some(pos) = self.inflight_seeks.iter().position(|(id, _)| *id == req.id) {
                let (_, seek) = self.inflight_seeks.swap_remove(pos);
                if completion.status.is_good() {
                    h2.record(seek, lat_us);
                }
            }
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        let dir_idx = usize::from(req.direction.is_write());
        self.outstanding_by_dir[dir_idx] = self.outstanding_by_dir[dir_idx].saturating_sub(1);
        self.completed_commands += 1;
    }

    fn record(&mut self, metric: Metric, lens: Lens, value: i64) {
        self.record_single(metric, Lens::All, value);
        if lens != Lens::All {
            self.record_single(metric, lens, value);
        }
    }

    fn record_single(&mut self, metric: Metric, lens: Lens, value: i64) {
        self.histograms[metric_index(metric) * LENSES + lens_index(lens)].record(value);
    }

    /// The histogram for a metric/lens pair.
    pub fn histogram(&self, metric: Metric, lens: Lens) -> &Histogram {
        &self.histograms[metric_index(metric) * LENSES + lens_index(lens)]
    }

    /// Commands issued so far.
    pub fn issued_commands(&self) -> u64 {
        self.issued_commands
    }

    /// Commands completed so far.
    pub fn completed_commands(&self) -> u64 {
        self.completed_commands
    }

    /// Completions with a non-`GOOD` status.
    pub fn error_commands(&self) -> u64 {
        self.error_commands
    }

    /// Non-monotonic timestamp pairs observed.
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies
    }

    /// Total bytes read and written.
    pub fn bytes_io(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// The 2-D seek/latency correlation, when enabled.
    pub fn seek_latency_histogram(&self) -> Option<&Histogram2d> {
        self.seek_latency.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{decode_frame, encode_frame, HostFrame, TargetHistograms};
    use proptest::prelude::*;
    use simkit::{SimDuration, SimTime};
    use vscsi::{IoDirection, Lba, ScsiStatus, SenseKey, TargetId};
    use vscsi_stats::{IoStatsCollector, ServiceCheckpoint, StatsService};

    /// One issued command of a stream — `(write, lba, sectors, step_us)`,
    /// where a negative issue-time step runs the clock backwards — then
    /// what happens once the queue is full: `(pick, latency_us, error)`
    /// say which pending command completes, how late, and whether it
    /// fails; `orphan` also delivers a completion that was never issued.
    type Cmd = (bool, u64, u32, i64, usize, u64, bool, bool);

    fn arb_stream() -> impl Strategy<Value = (usize, Vec<Cmd>)> {
        let cmd = (
            any::<bool>(),
            0u64..2_000_000,
            1u32..=512,
            -200i64..2_000,
            0usize..64,
            0u64..60_000,
            prop::bool::weighted(0.06),
            prop::bool::weighted(0.02),
        );
        (1usize..=64, prop::collection::vec(cmd, 1..600))
    }

    /// The stream this test ran before it took generated input: queue
    /// depth 4, the second-oldest pending command completing each time.
    fn fixed_stream() -> (usize, Vec<Cmd>) {
        let cmd = |i: u64| {
            let sectors = 8 + (i % 4) as u32 * 8;
            let latency_us = 250 + (i % 5) * 90;
            (
                i.is_multiple_of(3),
                (i * 7919) % 2_000_000,
                sectors,
                37,
                1,
                latency_us,
                i.is_multiple_of(17),
                false,
            )
        };
        (4, (0..4_000).map(cmd).collect())
    }

    /// All 21 (metric, lens) histograms of `read` — 16 of them stored by
    /// the slab, 5 derived when read — equal the oracle's, which stores
    /// and records every one of them separately.
    fn assert_matches_oracle(
        legacy: &LegacyCollector,
        read: impl Fn(Metric, Lens) -> Histogram,
        path: &str,
    ) {
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                let (a, b) = (legacy.histogram(metric, lens), read(metric, lens));
                assert_eq!(a.counts(), b.counts(), "{path}: {metric}/{lens} counts");
                assert_eq!(a.total(), b.total(), "{path}: {metric}/{lens} total");
                assert_eq!(a.sum(), b.sum(), "{path}: {metric}/{lens} sum");
                assert_eq!(a.min(), b.min(), "{path}: {metric}/{lens} min");
                assert_eq!(a.max(), b.max(), "{path}: {metric}/{lens} max");
            }
        }
    }

    /// Drives both collectors with one stream at queue depth `depth` and
    /// asserts that every histogram, series and counter agrees bit-for-bit
    /// — read from the collector, from a fleet frame that carried its set,
    /// and from a service restored from a checkpoint of the same stream.
    fn assert_collectors_agree(depth: usize, stream: &[Cmd]) {
        let config = CollectorConfig {
            series_interval: Some(SimDuration::from_secs(1)),
            correlate_seek_latency: true,
            ..CollectorConfig::default()
        };
        let mut legacy = LegacyCollector::new(config.clone());
        let mut slab = IoStatsCollector::new(config.clone());
        let service = StatsService::new(config);
        service.enable_all();

        let mut pending: Vec<IoRequest> = Vec::new();
        let mut now_us = 1_000u64;
        for (i, &(write, lba, sectors, step_us, pick, latency_us, error, orphan)) in
            stream.iter().enumerate()
        {
            now_us = now_us.saturating_add_signed(step_us);
            let direction = if write {
                IoDirection::Write
            } else {
                IoDirection::Read
            };
            let request = |id: u64| {
                let at = SimTime::from_micros(now_us);
                IoRequest::new(
                    RequestId(id),
                    TargetId::default(),
                    direction,
                    Lba::new(lba),
                    sectors,
                    at,
                )
            };
            let req = request(i as u64);
            legacy.on_issue(&req);
            slab.on_issue(&req);
            service.handle_issue(&req);
            pending.push(req);

            let mut done = Vec::new();
            if orphan {
                done.push(request(u64::MAX - i as u64));
            }
            if pending.len() >= depth {
                done.push(pending.remove(pick % pending.len()));
            }
            for req in done {
                let at = SimTime::from_micros(req.issue_time.as_micros() + latency_us);
                let completion = if error {
                    let status = ScsiStatus::CheckCondition(SenseKey::MediumError);
                    IoCompletion::with_status(req, at, status)
                } else {
                    IoCompletion::new(req, at)
                };
                legacy.on_complete(&completion);
                slab.on_complete(&completion);
                service.handle_complete(&completion);
            }
        }

        assert_eq!(legacy.issued_commands(), slab.issued_commands());
        assert_eq!(legacy.completed_commands(), slab.completed_commands());
        assert_eq!(legacy.error_commands(), slab.error_commands());
        assert_eq!(legacy.clock_anomalies(), slab.clock_anomalies());
        assert_eq!(legacy.bytes_io(), (slab.bytes_read(), slab.bytes_written()));
        assert_eq!(legacy.latency_series.as_ref(), slab.latency_series());
        assert_eq!(
            legacy.outstanding_series.as_ref(),
            slab.outstanding_series()
        );
        assert_matches_oracle(&legacy, |m, l| slab.histogram(m, l), "collector");

        let frame = HostFrame {
            host_id: 0,
            captured_at_us: 0,
            epoch: 0,
            seq: 0,
            resumed: false,
            targets: vec![TargetHistograms {
                target: TargetId::default(),
                set: slab.histogram_set().clone(),
            }],
        };
        let shipped = decode_frame(&encode_frame(&frame).unwrap()).unwrap();
        let set = &shipped.targets[0].set;
        assert_matches_oracle(&legacy, |m, l| set.histogram(m, l), "frame");

        let bytes = service.checkpoint_snapshot().encode(0);
        let (_, checkpoint) = ServiceCheckpoint::decode(&bytes).unwrap();
        let restored = StatsService::from_checkpoint(&checkpoint, None)
            .collector(TargetId::default())
            .expect("the stream's one target");
        assert_matches_oracle(&legacy, |m, l| restored.histogram(m, l), "checkpoint");
        assert_eq!(
            legacy.seek_latency_histogram().unwrap(),
            slab.seek_latency_histogram().unwrap()
        );
    }

    #[test]
    fn legacy_collector_matches_slab_collector_on_the_fixed_stream() {
        let (depth, stream) = fixed_stream();
        assert_collectors_agree(depth, &stream);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat-slab collector and the oracle are two routes to the
        /// same numbers over any stream: mixed sizes and directions, queue
        /// depth 1–64, out-of-order and error completions, completions
        /// with no matching issue, and issue times that step backwards.
        #[test]
        fn legacy_collector_matches_slab_collector((depth, stream) in arb_stream()) {
            assert_collectors_agree(depth, &stream);
        }
    }
}
