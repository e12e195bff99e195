//! Superseded hot-path implementations, preserved as measurement baselines.
//!
//! Two generations live here:
//!
//! * [`GlobalLockService`] — the original `StatsService` design: one global
//!   `Mutex<BTreeMap<…>>` that every issue and completion from every
//!   (VM, vdisk) pair serializes through, with the collector configuration
//!   cloned on each issue. The `service_contention` Criterion bench and the
//!   `contention_multi_vm` driver measure what the sharded rewrite buys.
//! * [`LegacyCollector`] — the original per-disk collector: one
//!   `Vec<Histogram>` indexed by (metric, lens), each lens recorded with
//!   its own `Histogram::record` call (so the bin index for a value is
//!   computed twice per event), and a linear-scan `Vec` for in-flight
//!   seek tracking. The `table2_overhead` bench and the `vscsistats
//!   --bench-overhead` driver measure what the flat-slab index-once
//!   rewrite buys per command.
//!
//! Neither is part of the library proper and neither should be used
//! outside benchmarks.

use histo::{layouts, signed_distance, Histogram, Histogram2d, HistogramSeries, SeekWindow};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use vscsi::{IoCompletion, IoRequest, RequestId, TargetId};
use vscsi_stats::{CollectorConfig, IoStatsCollector, Lens, Metric, VscsiEvent};

struct Inner {
    enabled: bool,
    config: CollectorConfig,
    targets: BTreeMap<TargetId, IoStatsCollector>,
}

/// Global-single-lock statistics service (the seed implementation).
pub struct GlobalLockService {
    inner: Mutex<Inner>,
}

impl Default for GlobalLockService {
    fn default() -> Self {
        GlobalLockService::new(CollectorConfig::default())
    }
}

impl GlobalLockService {
    /// Creates a disabled service that builds collectors with `config`.
    pub fn new(config: CollectorConfig) -> Self {
        GlobalLockService {
            inner: Mutex::new(Inner {
                enabled: false,
                config,
                targets: BTreeMap::new(),
            }),
        }
    }

    /// Turns collection on.
    pub fn enable_all(&self) {
        self.inner.lock().enabled = true;
    }

    /// Hot-path hook: command issue. Takes the one global lock and clones
    /// the config, exactly as the seed implementation did.
    pub fn handle_issue(&self, req: &IoRequest) {
        let mut inner = self.inner.lock();
        if !inner.enabled {
            return;
        }
        let config = inner.config.clone();
        inner
            .targets
            .entry(req.target)
            .or_insert_with(|| IoStatsCollector::new(config))
            .on_issue(req);
    }

    /// Hot-path hook: command completion. Takes the one global lock.
    pub fn handle_complete(&self, completion: &IoCompletion) {
        let mut inner = self.inner.lock();
        if let Some(collector) = inner.targets.get_mut(&completion.request.target) {
            collector.on_complete(completion);
        }
    }

    /// Clones out a target's collector, blocking all ingestion meanwhile.
    pub fn collector(&self, target: TargetId) -> Option<IoStatsCollector> {
        self.inner.lock().targets.get(&target).cloned()
    }
}

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
/// The `legacy_collector_matches_slab_collector` test pins this
/// implementation to [`IoStatsCollector`]: identical histogram counts on a
/// shared request stream, so the `table2_overhead` numbers compare two
/// routes to the same answer.
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

impl Default for LegacyCollector {
    fn default() -> Self {
        LegacyCollector::new(CollectorConfig::default())
    }
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

/// A uniform ingestion front-end so drivers and benches can run the same
/// workload against either service implementation.
pub trait IngestionPath: Sync {
    /// Applies one event.
    fn ingest(&self, event: &VscsiEvent);

    /// Applies a slice of events (defaults to per-event ingestion; the
    /// sharded service routes it through `handle_batch`).
    fn ingest_batch(&self, events: &[VscsiEvent]) {
        for event in events {
            self.ingest(event);
        }
    }

    /// Total commands issued for `target`, for end-of-run verification.
    fn issued(&self, target: TargetId) -> u64;
}

impl IngestionPath for GlobalLockService {
    fn ingest(&self, event: &VscsiEvent) {
        match event {
            VscsiEvent::Issue(req) => self.handle_issue(req),
            VscsiEvent::Complete(completion) => self.handle_complete(completion),
        }
    }

    fn issued(&self, target: TargetId) -> u64 {
        self.collector(target).map_or(0, |c| c.issued_commands())
    }
}

impl IngestionPath for vscsi_stats::StatsService {
    fn ingest(&self, event: &VscsiEvent) {
        match event {
            VscsiEvent::Issue(req) => self.handle_issue(req),
            VscsiEvent::Complete(completion) => self.handle_complete(completion),
        }
    }

    fn ingest_batch(&self, events: &[VscsiEvent]) {
        self.handle_batch(events);
    }

    fn issued(&self, target: TargetId) -> u64 {
        self.collector(target).map_or(0, |c| c.issued_commands())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;
    use vscsi::{IoDirection, Lba, RequestId, VDiskId, VmId};

    #[test]
    fn legacy_matches_sharded_single_threaded() {
        let legacy = GlobalLockService::default();
        legacy.enable_all();
        let sharded = vscsi_stats::StatsService::default();
        sharded.enable_all();
        let target = TargetId::new(VmId(3), VDiskId(1));
        for i in 0..500u64 {
            let req = IoRequest::new(
                RequestId(i),
                target,
                if i % 3 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((i * 769) % 100_000),
                8,
                SimTime::from_micros(i * 12),
            );
            let events = [
                VscsiEvent::Issue(req),
                VscsiEvent::Complete(IoCompletion::new(req, SimTime::from_micros(i * 12 + 6))),
            ];
            legacy.ingest_batch(&events);
            sharded.ingest_batch(&events);
        }
        let a = legacy.collector(target).unwrap();
        let b = sharded.collector(target).unwrap();
        assert_eq!(a.issued_commands(), b.issued_commands());
        assert_eq!(a.completed_commands(), b.completed_commands());
        use vscsi_stats::{Lens, Metric};
        for metric in Metric::ALL {
            assert_eq!(
                a.histogram(metric, Lens::All).counts(),
                b.histogram(metric, Lens::All).counts(),
                "{metric}"
            );
        }
    }

    /// The flat-slab collector and the pre-slab baseline are two routes to
    /// the same numbers: drive both with one stream of mixed sizes,
    /// directions, overlapping lifetimes, and error completions, and every
    /// histogram must agree bit-for-bit.
    #[test]
    fn legacy_collector_matches_slab_collector() {
        use simkit::SimDuration;
        use vscsi::{ScsiStatus, SenseKey};

        let config = CollectorConfig {
            series_interval: Some(SimDuration::from_secs(1)),
            correlate_seek_latency: true,
            ..CollectorConfig::default()
        };
        let mut legacy = LegacyCollector::new(config.clone());
        let mut slab = IoStatsCollector::new(config);

        // Queue-depth-4 stream: issue i completes at i-3, so completions
        // interleave with later issues and out of lba order.
        let mut pending: Vec<IoRequest> = Vec::new();
        for i in 0..4_000u64 {
            let req = IoRequest::new(
                RequestId(i),
                TargetId::default(),
                if i % 3 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((i * 7919) % 2_000_000),
                8 + (i % 4) as u32 * 8,
                SimTime::from_micros(i * 37),
            );
            legacy.on_issue(&req);
            slab.on_issue(&req);
            pending.push(req);
            if pending.len() == 4 {
                let done = pending.remove(1);
                let at = SimTime::from_micros(done.issue_time.as_micros() + 250 + (i % 5) * 90);
                let completion = if i % 17 == 0 {
                    IoCompletion::with_status(
                        done,
                        at,
                        ScsiStatus::CheckCondition(SenseKey::MediumError),
                    )
                } else {
                    IoCompletion::new(done, at)
                };
                legacy.on_complete(&completion);
                slab.on_complete(&completion);
            }
        }

        assert_eq!(legacy.issued_commands(), slab.issued_commands());
        assert_eq!(legacy.completed_commands(), slab.completed_commands());
        assert_eq!(legacy.error_commands(), slab.error_commands());
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                let a = legacy.histogram(metric, lens);
                let b = slab.histogram(metric, lens);
                assert_eq!(a.counts(), b.counts(), "{metric}/{lens} counts");
                assert_eq!(a.min(), b.min(), "{metric}/{lens} min");
                assert_eq!(a.max(), b.max(), "{metric}/{lens} max");
                assert_eq!(a.mean(), b.mean(), "{metric}/{lens} mean");
            }
        }
        let (la, lb) = (
            legacy.seek_latency_histogram().unwrap(),
            slab.seek_latency_histogram().unwrap(),
        );
        assert_eq!(la.marginal_x().counts(), lb.marginal_x().counts());
        assert_eq!(la.marginal_y().counts(), lb.marginal_y().counts());
    }
}
