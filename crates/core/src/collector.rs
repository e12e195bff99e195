//! The per-virtual-disk online collector — the paper's central data
//! structure.
//!
//! One [`IoStatsCollector`] exists per (VM, virtual disk) pair while the
//! service is enabled. It is hooked into the vSCSI data path at two points:
//!
//! * [`IoStatsCollector::on_issue`] — when the guest's command arrives at
//!   the SCSI emulation layer;
//! * [`IoStatsCollector::on_complete`] — when the device reports completion.
//!
//! Each hook performs a constant number of histogram inserts plus O(N) work
//! in the (fixed, default 16) seek-window size: O(1) per command overall,
//! with no allocation on the hot path.
//!
//! # The flat counter slab
//!
//! The collector does not hold 21 `Histogram` objects: every per-bin
//! counter and exact aggregate lives in one [`HistogramSet`], whose module
//! owns the slot layout. The per-metric `FastBinner` tables are cached
//! here, and each observation is binned **exactly once** into exactly one
//! slot: its direction lens. The `All` lens of those metrics is the sum
//! of the two and is derived when read (the index-once invariant; see
//! DESIGN.md); only plain seek distance and outstanding I/Os, whose `All`
//! lens sees a different value, record it as a second observation.
//! `Histogram` values are materialized only at snapshot time via
//! [`IoStatsCollector::histogram`].

use crate::histogram_set::{Binners, HistogramSet};
use crate::inflight::InflightTable;
use crate::metrics::{Lens, Metric};
use histo::{layouts, signed_distance, Histogram, Histogram2d, HistogramSeries, SeekWindow};
use simkit::{SimDuration, SimTime};
use vscsi::{IoCompletion, IoRequest};

/// Configuration for an [`IoStatsCollector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Look-behind window size N for the windowed seek-distance histogram
    /// (§3.1). The paper's default is 16.
    pub window_capacity: usize,
    /// If set, also maintain per-interval histogram *series* of latency and
    /// outstanding I/Os (the Figure 4(d) / 6(c) surfaces) with this
    /// interval width. The paper's figures use 6-second intervals.
    pub series_interval: Option<SimDuration>,
    /// If `true`, maintain the §3.6 "future work" 2-D histogram correlating
    /// seek distance (x) with completion latency (y). Costs one extra
    /// in-flight-map entry per outstanding I/O.
    pub correlate_seek_latency: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            window_capacity: SeekWindow::DEFAULT_CAPACITY,
            series_interval: None,
            correlate_seek_latency: false,
        }
    }
}

impl CollectorConfig {
    /// The configuration used for the paper's figures: N = 16 and 6-second
    /// over-time series.
    pub fn paper_figures() -> Self {
        CollectorConfig {
            window_capacity: SeekWindow::DEFAULT_CAPACITY,
            series_interval: Some(SimDuration::from_secs(6)),
            correlate_seek_latency: false,
        }
    }
}

/// Online histogram collector for one virtual disk.
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
/// use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
/// use vscsi_stats::{IoStatsCollector, Lens, Metric};
///
/// let mut c = IoStatsCollector::new(Default::default());
/// let req = IoRequest::new(
///     RequestId(0), TargetId::default(), IoDirection::Read,
///     Lba::new(0), 8, SimTime::ZERO,
/// );
/// c.on_issue(&req);
/// c.on_complete(&IoCompletion::new(req, SimTime::from_micros(300)));
///
/// let lat = c.histogram(Metric::Latency, Lens::All);
/// assert_eq!(lat.total(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IoStatsCollector {
    config: CollectorConfig,
    /// Every (metric, lens) counter and exact aggregate.
    set: HistogramSet,
    /// Cached process-lifetime binner tables, one per metric, so the hot
    /// path never touches the `OnceLock` registry.
    binners: Binners,
    window: SeekWindow,
    /// Last block of the previous I/O (any direction), for plain seek
    /// distance. The paper stores exactly this: one u64 per virtual disk.
    last_end_block: Option<u64>,
    /// Per-direction previous-I/O end blocks, so the read-only and
    /// write-only seek histograms measure intra-stream locality (this is
    /// what makes Figure 3(c)'s "sequential writes under ZFS" signal
    /// visible even with reads interleaved).
    last_end_block_by_dir: [Option<u64>; 2],
    last_arrival: Option<SimTime>,
    outstanding: u32,
    /// Outstanding counts per direction (`[reads, writes]`): Figure 4(c)
    /// plots per-type queue depths (reads peak low while writes peak at 32,
    /// which only per-type counting can produce).
    outstanding_by_dir: [u32; 2],
    issued_commands: u64,
    completed_commands: u64,
    error_commands: u64,
    /// Non-monotonic timestamp pairs observed (interarrival or latency
    /// deltas that would have gone negative). The deltas saturate to zero;
    /// this counter is the only trace the anomaly leaves.
    clock_anomalies: u64,
    bytes_read: u64,
    bytes_written: u64,
    latency_series: Option<HistogramSeries>,
    outstanding_series: Option<HistogramSeries>,
    /// Seek-distance-at-issue for in-flight requests, only when the 2-D
    /// correlation extension is on. Fixed-capacity open addressing keyed by
    /// request id; allocation-free up to the OIO layout's 64-deep queue.
    inflight_seeks: InflightTable<i64>,
    seek_latency: Option<Histogram2d>,
}

impl Default for IoStatsCollector {
    fn default() -> Self {
        IoStatsCollector::new(CollectorConfig::default())
    }
}

impl IoStatsCollector {
    /// Creates a collector; all counter memory (the flat slab, the probe
    /// array for in-flight state, the seek window) is allocated here, up
    /// front, so the hot path never allocates (§5.2: "histogram data
    /// structures are dynamically created as needed").
    pub fn new(config: CollectorConfig) -> Self {
        let latency_series = config
            .series_interval
            .map(|w| HistogramSeries::new(layouts::latency_us(), w));
        let outstanding_series = config
            .series_interval
            .map(|w| HistogramSeries::new(layouts::outstanding_ios(), w));
        let seek_latency = config
            .correlate_seek_latency
            .then(|| Histogram2d::new(layouts::seek_distance_sectors(), layouts::latency_us()));
        IoStatsCollector {
            window: SeekWindow::new(config.window_capacity),
            config,
            set: HistogramSet::new(),
            binners: HistogramSet::binners(),
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
            inflight_seeks: InflightTable::new(),
            seek_latency,
        }
    }

    /// Observes a command at issue time.
    pub fn on_issue(&mut self, req: &IoRequest) {
        let lens = direction_lens(req);
        let first = req.lba.sector();

        // I/O length (§3.2).
        let len = req.len_bytes() as i64;
        self.record(Metric::IoLength, lens, len);

        // Plain seek distance (§3.1): current first block minus previous
        // I/O's last block, signed.
        if let Some(prev_end) = self.last_end_block {
            self.record(
                Metric::SeekDistance,
                Lens::All,
                signed_distance(prev_end, first),
            );
        }
        let dir_idx = usize::from(req.direction.is_write());
        if let Some(prev_end) = self.last_end_block_by_dir[dir_idx] {
            self.record(Metric::SeekDistance, lens, signed_distance(prev_end, first));
        }

        // Windowed min seek distance (§3.1).
        let windowed = self.window.observe(first, u64::from(req.num_sectors));
        if let Some(d) = windowed {
            self.record(Metric::SeekDistanceWindowed, lens, d);
        }

        // Interarrival time (§3.2). Observed streams can run backwards
        // (clock steps, merged traces); the delta saturates to zero and the
        // anomaly is counted rather than wrapping into a huge positive value.
        if let Some(prev) = self.last_arrival {
            if req.issue_time < prev {
                self.clock_anomalies += 1;
            }
            let dt = req.issue_time.saturating_since(prev).as_micros() as i64;
            self.record(Metric::Interarrival, lens, dt);
        }

        // Outstanding I/Os at arrival (§3.3): "how many *other* I/Os ...
        // have been issued but not yet completed", so measured before this
        // command joins the queue. The All lens counts all outstanding
        // commands; the per-direction lenses count outstanding commands of
        // the *same* direction (the Figure 4(c) semantics).
        let oio = i64::from(self.outstanding);
        self.record(Metric::OutstandingIos, Lens::All, oio);
        self.record(
            Metric::OutstandingIos,
            lens,
            i64::from(self.outstanding_by_dir[dir_idx]),
        );
        if let Some(series) = &mut self.outstanding_series {
            series.record(req.issue_time, oio);
        }

        // Bookkeeping.
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
                self.inflight_seeks.insert(req.id.0, prev_seek);
            }
        }
    }

    /// Observes a command at completion time.
    ///
    /// Only `GOOD` completions feed the device-latency histogram and series:
    /// an error completion's round-trip time measures the fault path, not
    /// the device, and would corrupt the §3.5 characterization. Error
    /// completions are instead tallied by SCSI outcome code in the
    /// [`Metric::Errors`] histogram.
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
            // The in-flight entry is retired either way so errors cannot
            // leak slots, but only good completions contribute a point.
            if let Some(seek) = self.inflight_seeks.remove(req.id.0) {
                if completion.status.is_good() {
                    h2.record(seek, lat_us);
                }
            }
        }
        // A completion can legitimately arrive without a matching issue:
        // the service was enabled between the command's issue and its
        // completion (§3's stats can be toggled at any time). Outstanding
        // tracking saturates rather than underflowing.
        self.outstanding = self.outstanding.saturating_sub(1);
        let dir_idx = usize::from(req.direction.is_write());
        self.outstanding_by_dir[dir_idx] = self.outstanding_by_dir[dir_idx].saturating_sub(1);
        self.completed_commands += 1;
    }

    #[inline(always)]
    fn record(&mut self, metric: Metric, lens: Lens, value: i64) {
        self.set.record(&self.binners, metric, lens, value);
    }

    /// A snapshot histogram for a metric/lens pair, materialized from the
    /// counter set. Call it at snapshot/report time, not per command.
    pub fn histogram(&self, metric: Metric, lens: Lens) -> Histogram {
        self.set.histogram(metric, lens)
    }

    /// Every (metric, lens) slot as plain counters — what the fleet frame
    /// and the checkpoint carry.
    pub fn histogram_set(&self) -> &HistogramSet {
        &self.set
    }

    /// Commands issued so far.
    pub fn issued_commands(&self) -> u64 {
        self.issued_commands
    }

    /// Commands completed so far (any outcome, including errors).
    pub fn completed_commands(&self) -> u64 {
        self.completed_commands
    }

    /// Completions that carried a non-`GOOD` SCSI status. These are
    /// excluded from the latency histograms and tallied in
    /// [`Metric::Errors`] instead.
    pub fn error_commands(&self) -> u64 {
        self.error_commands
    }

    /// Non-monotonic timestamp pairs seen so far (issue times running
    /// backwards, or completions stamped before their issue). The affected
    /// deltas saturated to zero.
    pub fn clock_anomalies(&self) -> u64 {
        self.clock_anomalies
    }

    /// I/Os currently in flight.
    pub fn outstanding_now(&self) -> u32 {
        self.outstanding
    }

    /// Bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Fraction of issued commands that were reads (`None` before any
    /// command) — the §3.4 read/write ratio.
    pub fn read_fraction(&self) -> Option<f64> {
        let reads = self.set.slot(Metric::IoLength, Lens::Reads).1.total;
        let all = self.set.slot(Metric::IoLength, Lens::All).1.total;
        (all > 0).then(|| reads as f64 / all as f64)
    }

    /// The per-interval latency series, when configured.
    pub fn latency_series(&self) -> Option<&HistogramSeries> {
        self.latency_series.as_ref()
    }

    /// The per-interval outstanding-I/Os series, when configured.
    pub fn outstanding_series(&self) -> Option<&HistogramSeries> {
        self.outstanding_series.as_ref()
    }

    /// The §3.6 seek-distance × latency joint histogram, when configured.
    pub fn seek_latency_histogram(&self) -> Option<&Histogram2d> {
        self.seek_latency.as_ref()
    }

    /// Clears all histograms and per-stream state; in-flight commands keep
    /// counting so outstanding-I/O tracking stays consistent.
    pub(crate) fn reset(&mut self) {
        self.set = HistogramSet::new();
        self.window.reset();
        self.last_end_block = None;
        self.last_end_block_by_dir = [None, None];
        self.last_arrival = None;
        self.issued_commands = 0;
        self.completed_commands = 0;
        self.error_commands = 0;
        self.clock_anomalies = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
        if let Some(w) = self.config.series_interval {
            self.latency_series = Some(HistogramSeries::new(layouts::latency_us(), w));
            self.outstanding_series = Some(HistogramSeries::new(layouts::outstanding_ios(), w));
        }
        if let Some(h2) = &mut self.seek_latency {
            h2.reset();
        }
        self.inflight_seeks.clear();
    }

    /// Latency percentile summary (p50/p90/p99 upper-bound bins, in
    /// microseconds) from the binned data — the quick-look numbers an
    /// administrator reads before opening the full histogram. `None`
    /// before any completion.
    pub fn latency_percentiles(&self) -> Option<LatencyPercentiles> {
        let h = self.histogram(Metric::Latency, Lens::All);
        Some(LatencyPercentiles {
            p50_us: h.quantile_upper_bound(0.50)?,
            p90_us: h.quantile_upper_bound(0.90)?,
            p99_us: h.quantile_upper_bound(0.99)?,
            mean_us: h.mean()?,
        })
    }

    /// Rough resident size of the collector's state in bytes — the paper's
    /// O(m) constant-space claim made concrete (compare with a trace's O(n)
    /// growth; see `EXPERIMENTS.md`).
    pub fn memory_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let series_bytes: usize = [&self.latency_series, &self.outstanding_series]
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| {
                s.iter()
                    .map(|(_, h)| size_of::<Histogram>() + size_of_val(h.counts()))
                    .sum::<usize>()
            })
            .sum();
        size_of::<Self>()
            + size_of_val(self.set.counters())
            + series_bytes
            + self.config.window_capacity * size_of::<u64>()
            + self.inflight_seeks.heap_footprint_bytes()
    }

    /// Exports every field that defines this collector's observable state
    /// — the histogram set, the seek window ring, the
    /// per-stream scalars, both series, the in-flight seek census, and the
    /// 2-D correlation matrix — as a plain-data [`CollectorState`].
    ///
    /// The checkpoint plane serializes this; [`IoStatsCollector::from_state`]
    /// is the exact inverse: `from_state(export_state(c))` reproduces `c`'s
    /// every histogram, counter, and future observation bit-for-bit.
    pub(crate) fn export_state(&self) -> CollectorState {
        let (ends, cursor, filled) = self.window.to_parts();
        fn series_state(s: Option<&HistogramSeries>) -> Vec<HistogramState> {
            s.map(|s| {
                s.iter()
                    .map(|(_, h)| HistogramState {
                        counts: h.counts().to_vec(),
                        sum: h.sum(),
                        min_max: h.min().zip(h.max()),
                    })
                    .collect()
            })
            .unwrap_or_default()
        }
        CollectorState {
            config: self.config.clone(),
            set: self.set.clone(),
            window_ends: ends.to_vec(),
            window_cursor: cursor as u64,
            window_filled: filled as u64,
            last_end_block: self.last_end_block,
            last_end_block_by_dir: self.last_end_block_by_dir,
            last_arrival_ns: self.last_arrival.map(|t| t.as_nanos()),
            outstanding: self.outstanding,
            outstanding_by_dir: self.outstanding_by_dir,
            issued_commands: self.issued_commands,
            completed_commands: self.completed_commands,
            error_commands: self.error_commands,
            clock_anomalies: self.clock_anomalies,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            latency_intervals: series_state(self.latency_series.as_ref()),
            outstanding_intervals: series_state(self.outstanding_series.as_ref()),
            inflight_seeks: self.inflight_seeks.entries(),
            seek_latency_counts: self.seek_latency.as_ref().map(|h| h.counts().to_vec()),
        }
    }

    /// Rebuilds a collector from a [`CollectorState`] export. The exact
    /// inverse of [`IoStatsCollector::export_state`].
    ///
    /// # Panics
    ///
    /// Panics on malformed state (window parts out of range, a missing
    /// 2-D matrix). Untrusted inputs — anything read off disk —
    /// must pass [`CollectorState::validate`] first; the checkpoint
    /// decoder does, so a corrupt checkpoint surfaces as a decode error,
    /// never a panic.
    pub(crate) fn from_state(state: CollectorState) -> IoStatsCollector {
        let mut c = IoStatsCollector::new(state.config.clone());
        c.set = state.set;
        assert_eq!(
            state.window_ends.len(),
            state.config.window_capacity,
            "seek window capacity mismatch"
        );
        c.window = SeekWindow::from_parts(
            state.window_ends,
            state.window_cursor as usize,
            state.window_filled as usize,
        );
        c.last_end_block = state.last_end_block;
        c.last_end_block_by_dir = state.last_end_block_by_dir;
        c.last_arrival = state.last_arrival_ns.map(SimTime::from_nanos);
        c.outstanding = state.outstanding;
        c.outstanding_by_dir = state.outstanding_by_dir;
        c.issued_commands = state.issued_commands;
        c.completed_commands = state.completed_commands;
        c.error_commands = state.error_commands;
        c.clock_anomalies = state.clock_anomalies;
        c.bytes_read = state.bytes_read;
        c.bytes_written = state.bytes_written;
        fn rebuild_series(
            edges: histo::BinEdges,
            width: SimDuration,
            intervals: &[HistogramState],
        ) -> HistogramSeries {
            let hists = intervals
                .iter()
                .map(|h| Histogram::from_parts(edges.clone(), h.counts.clone(), h.sum, h.min_max))
                .collect();
            HistogramSeries::from_parts(edges, width, hists)
        }
        if let Some(w) = state.config.series_interval {
            c.latency_series = Some(rebuild_series(
                layouts::latency_us(),
                w,
                &state.latency_intervals,
            ));
            c.outstanding_series = Some(rebuild_series(
                layouts::outstanding_ios(),
                w,
                &state.outstanding_intervals,
            ));
        }
        for (key, seek) in state.inflight_seeks {
            c.inflight_seeks.insert(key, seek);
        }
        if state.config.correlate_seek_latency {
            let counts = state
                .seek_latency_counts
                .expect("correlating state carries a counts matrix");
            c.seek_latency = Some(Histogram2d::from_parts(
                layouts::seek_distance_sectors(),
                layouts::latency_us(),
                counts,
            ));
        }
        c
    }
}

/// One interval histogram in exported form: counts plus the exact
/// aggregates [`Histogram::from_parts`] needs (the layout is implied by
/// which series the interval belongs to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Exact running sum.
    pub sum: i128,
    /// `Some((min, max))` when at least one value was observed.
    pub min_max: Option<(i64, i64)>,
}

/// A complete, plain-data export of one [`IoStatsCollector`] — everything
/// the checkpoint plane must persist to rebuild the collector bit-for-bit.
/// Produced by `IoStatsCollector::export_state`, consumed by
/// `IoStatsCollector::from_state`.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorState {
    /// The collector's configuration (determines layouts, window size, and
    /// which optional structures exist).
    pub config: CollectorConfig,
    /// Every (metric, lens) counter and exact aggregate.
    pub set: HistogramSet,
    /// The seek window's ring buffer, including stale slots (they
    /// participate in equality and future eviction order).
    pub window_ends: Vec<u64>,
    /// The ring cursor.
    pub window_cursor: u64,
    /// Valid entries in the ring.
    pub window_filled: u64,
    /// Last block of the previous I/O, any direction.
    pub last_end_block: Option<u64>,
    /// Per-direction previous-I/O end blocks (`[reads, writes]`).
    pub last_end_block_by_dir: [Option<u64>; 2],
    /// Previous arrival timestamp, nanoseconds.
    pub last_arrival_ns: Option<u64>,
    /// Commands in flight.
    pub outstanding: u32,
    /// In-flight counts per direction (`[reads, writes]`).
    pub outstanding_by_dir: [u32; 2],
    /// Commands issued.
    pub issued_commands: u64,
    /// Commands completed.
    pub completed_commands: u64,
    /// Completions with non-GOOD status.
    pub error_commands: u64,
    /// Non-monotonic timestamp pairs observed.
    pub clock_anomalies: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Latency series intervals (empty when the series is off).
    pub latency_intervals: Vec<HistogramState>,
    /// Outstanding-I/O series intervals (empty when the series is off).
    pub outstanding_intervals: Vec<HistogramState>,
    /// In-flight seek census, sorted by request id.
    pub inflight_seeks: Vec<(u64, i64)>,
    /// The 2-D seek×latency counts matrix, when correlation is on.
    pub seek_latency_counts: Option<Vec<u64>>,
}

impl CollectorState {
    /// Structural validation for untrusted (deserialized) state: every
    /// length and range `IoStatsCollector::from_state` would otherwise
    /// panic on. The checkpoint decoder calls this so corrupt bytes become
    /// decode errors.
    pub fn validate(&self) -> Result<(), String> {
        if self.config.window_capacity == 0 {
            return Err("window capacity is zero".into());
        }
        if self.window_ends.len() != self.config.window_capacity {
            return Err(format!(
                "window ring {} != capacity {}",
                self.window_ends.len(),
                self.config.window_capacity
            ));
        }
        if self.window_cursor as usize >= self.window_ends.len() {
            return Err("window cursor out of range".into());
        }
        if self.window_filled as usize > self.window_ends.len() {
            return Err("window filled out of range".into());
        }
        let series_on = self.config.series_interval.is_some();
        if !series_on
            && (!self.latency_intervals.is_empty() || !self.outstanding_intervals.is_empty())
        {
            return Err("series intervals present with series off".into());
        }
        let lat_bins = layouts::latency_us().bin_count();
        if self
            .latency_intervals
            .iter()
            .any(|h| h.counts.len() != lat_bins)
        {
            return Err("latency interval bin count mismatch".into());
        }
        let oio_bins = layouts::outstanding_ios().bin_count();
        if self
            .outstanding_intervals
            .iter()
            .any(|h| h.counts.len() != oio_bins)
        {
            return Err("outstanding interval bin count mismatch".into());
        }
        match (
            &self.seek_latency_counts,
            self.config.correlate_seek_latency,
        ) {
            (Some(_), false) => return Err("2-D matrix present with correlation off".into()),
            (None, true) => return Err("2-D matrix missing with correlation on".into()),
            (Some(counts), true) => {
                let cells = layouts::seek_distance_sectors().bin_count() * lat_bins;
                if counts.len() != cells {
                    return Err(format!("2-D matrix {} != {cells} cells", counts.len()));
                }
            }
            (None, false) => {}
        }
        Ok(())
    }
}

/// Binned latency percentile summary (upper bounds of the bins where the
/// cumulative fraction crosses each percentile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Median upper bound, microseconds.
    pub p50_us: i64,
    /// 90th-percentile upper bound, microseconds.
    pub p90_us: i64,
    /// 99th-percentile upper bound, microseconds.
    pub p99_us: i64,
    /// Exact mean, microseconds.
    pub mean_us: f64,
}

fn direction_lens(req: &IoRequest) -> Lens {
    if req.direction.is_read() {
        Lens::Reads
    } else {
        Lens::Writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscsi::{IoDirection, Lba, RequestId, TargetId};

    fn mk(id: u64, dir: IoDirection, lba: u64, sectors: u32, t_us: u64) -> IoRequest {
        IoRequest::new(
            RequestId(id),
            TargetId::default(),
            dir,
            Lba::new(lba),
            sectors,
            SimTime::from_micros(t_us),
        )
    }

    #[test]
    fn length_histogram_read_write_split() {
        let mut c = IoStatsCollector::default();
        c.on_issue(&mk(0, IoDirection::Read, 0, 8, 0)); // 4096 B
        c.on_issue(&mk(1, IoDirection::Write, 100, 16, 10)); // 8192 B
        let all = c.histogram(Metric::IoLength, Lens::All);
        assert_eq!(all.total(), 2);
        let reads = c.histogram(Metric::IoLength, Lens::Reads);
        let writes = c.histogram(Metric::IoLength, Lens::Writes);
        assert_eq!(reads.total(), 1);
        assert_eq!(writes.total(), 1);
        assert_eq!(reads.count(reads.edges().bin_index(4096)), 1);
        assert_eq!(writes.count(writes.edges().bin_index(8192)), 1);
    }

    #[test]
    fn lens_histograms_sum_to_all() {
        let mut c = IoStatsCollector::default();
        let mut t = 0;
        for i in 0..200u64 {
            let dir = if i % 3 == 0 {
                IoDirection::Read
            } else {
                IoDirection::Write
            };
            c.on_issue(&mk(i, dir, i * 64, 8, t));
            t += 50;
        }
        for metric in Metric::ALL {
            if metric == Metric::Latency {
                continue; // nothing completed yet
            }
            let all = c.histogram(metric, Lens::All);
            let r = c.histogram(metric, Lens::Reads);
            let w = c.histogram(metric, Lens::Writes);
            // Per-direction seek-distance histograms measure intra-stream
            // distances, so their *bin counts* need not sum to All; totals
            // still must (each command contributes once per lens).
            if metric == Metric::SeekDistance {
                assert_eq!(all.total(), 199);
                assert_eq!(
                    r.total() + w.total(),
                    199 - 1,
                    "each direction's first I/O has no predecessor"
                );
                continue;
            }
            assert_eq!(r.total() + w.total(), all.total(), "{metric}");
            // Outstanding-I/O lenses count same-direction queue depth, so
            // only the totals (not the per-bin counts) match All.
            if metric == Metric::OutstandingIos {
                continue;
            }
            for i in 0..all.counts().len() {
                assert_eq!(r.count(i) + w.count(i), all.count(i), "{metric} bin {i}");
            }
        }
    }

    #[test]
    fn sequential_stream_peaks_at_one() {
        let mut c = IoStatsCollector::default();
        for i in 0..100u64 {
            c.on_issue(&mk(i, IoDirection::Read, i * 8, 8, i * 100));
        }
        let seek = c.histogram(Metric::SeekDistance, Lens::All);
        let idx = seek.edges().bin_index(1);
        assert_eq!(seek.count(idx), 99);
        assert_eq!(seek.mode_bin(), Some(idx));
    }

    #[test]
    fn windowed_seek_unmasks_interleaved_streams() {
        let mut c = IoStatsCollector::default();
        let mut id = 0;
        let mut t = 0;
        for i in 0..50u64 {
            c.on_issue(&mk(id, IoDirection::Read, i * 8, 8, t));
            id += 1;
            t += 100;
            c.on_issue(&mk(id, IoDirection::Read, 5_000_000 + i * 8, 8, t));
            id += 1;
            t += 100;
        }
        let plain = c.histogram(Metric::SeekDistance, Lens::All);
        let windowed = c.histogram(Metric::SeekDistanceWindowed, Lens::All);
        let one = plain.edges().bin_index(1);
        // Plain histogram sees almost no distance-1 transitions...
        assert!(plain.count(one) < 5);
        // ...while the windowed histogram sees nearly all of them.
        assert!(
            windowed.count(one) > 90,
            "windowed seq count = {}",
            windowed.count(one)
        );
    }

    #[test]
    fn interarrival_recorded_in_microseconds() {
        let mut c = IoStatsCollector::default();
        c.on_issue(&mk(0, IoDirection::Read, 0, 8, 0));
        c.on_issue(&mk(1, IoDirection::Read, 8, 8, 250));
        c.on_issue(&mk(2, IoDirection::Read, 16, 8, 1250));
        let h = c.histogram(Metric::Interarrival, Lens::All);
        assert_eq!(h.total(), 2);
        assert_eq!(h.mean(), Some((250.0 + 1000.0) / 2.0));
    }

    #[test]
    fn outstanding_counts_other_ios() {
        let mut c = IoStatsCollector::default();
        let r0 = mk(0, IoDirection::Write, 0, 8, 0);
        let r1 = mk(1, IoDirection::Write, 8, 8, 10);
        let r2 = mk(2, IoDirection::Write, 16, 8, 20);
        c.on_issue(&r0); // 0 others
        c.on_issue(&r1); // 1 other
        c.on_issue(&r2); // 2 others
        assert_eq!(c.outstanding_now(), 3);
        let h = c.histogram(Metric::OutstandingIos, Lens::All);
        assert_eq!(h.mean(), Some(1.0)); // 0,1,2
        c.on_complete(&IoCompletion::new(r0, SimTime::from_micros(100)));
        assert_eq!(c.outstanding_now(), 2);
        c.on_complete(&IoCompletion::new(r1, SimTime::from_micros(110)));
        c.on_complete(&IoCompletion::new(r2, SimTime::from_micros(120)));
        assert_eq!(c.outstanding_now(), 0);
        assert_eq!(c.completed_commands(), 3);
    }

    #[test]
    fn latency_histogram_microseconds() {
        let mut c = IoStatsCollector::default();
        let r = mk(0, IoDirection::Read, 0, 8, 100);
        c.on_issue(&r);
        c.on_complete(&IoCompletion::new(r, SimTime::from_micros(5_100)));
        let h = c.histogram(Metric::Latency, Lens::All);
        assert_eq!(h.total(), 1);
        assert_eq!(h.mean(), Some(5_000.0));
        assert_eq!(c.histogram(Metric::Latency, Lens::Reads).total(), 1);
        assert_eq!(c.histogram(Metric::Latency, Lens::Writes).total(), 0);
    }

    #[test]
    fn read_fraction_and_bytes() {
        let mut c = IoStatsCollector::default();
        assert_eq!(c.read_fraction(), None);
        c.on_issue(&mk(0, IoDirection::Read, 0, 8, 0));
        c.on_issue(&mk(1, IoDirection::Read, 8, 8, 1));
        c.on_issue(&mk(2, IoDirection::Write, 16, 16, 2));
        assert_eq!(c.read_fraction(), Some(2.0 / 3.0));
        assert_eq!(c.bytes_read(), 8192);
        assert_eq!(c.bytes_written(), 8192);
    }

    #[test]
    fn series_track_time_intervals() {
        let mut c = IoStatsCollector::new(CollectorConfig::paper_figures());
        for i in 0..10u64 {
            let r = mk(i, IoDirection::Read, i * 8, 8, i * 2_000_000); // every 2 s
            c.on_issue(&r);
            c.on_complete(&IoCompletion::new(
                r,
                SimTime::from_micros(i * 2_000_000 + 300),
            ));
        }
        let lat = c.latency_series().unwrap();
        assert_eq!(lat.interval_count(), 4); // 18 s / 6 s
        assert_eq!(lat.total(), 10);
        let oio = c.outstanding_series().unwrap();
        assert_eq!(oio.total(), 10);
    }

    #[test]
    fn seek_latency_correlation_extension() {
        let cfg = CollectorConfig {
            correlate_seek_latency: true,
            ..Default::default()
        };
        let mut c = IoStatsCollector::new(cfg);
        let r0 = mk(0, IoDirection::Read, 0, 8, 0);
        c.on_issue(&r0);
        c.on_complete(&IoCompletion::new(r0, SimTime::from_micros(100)));
        // First I/O has no seek distance, so nothing recorded yet.
        assert_eq!(c.seek_latency_histogram().unwrap().total(), 0);
        let r1 = mk(1, IoDirection::Read, 8, 8, 200);
        c.on_issue(&r1);
        c.on_complete(&IoCompletion::new(r1, SimTime::from_micros(400)));
        assert_eq!(c.seek_latency_histogram().unwrap().total(), 1);
    }

    #[test]
    fn reset_clears_but_keeps_outstanding() {
        let mut c = IoStatsCollector::default();
        let r0 = mk(0, IoDirection::Read, 0, 8, 0);
        c.on_issue(&r0);
        c.on_issue(&mk(1, IoDirection::Read, 8, 8, 10));
        c.reset();
        assert_eq!(c.issued_commands(), 0);
        assert_eq!(c.histogram(Metric::IoLength, Lens::All).total(), 0);
        // In-flight commands remain in flight across a reset.
        assert_eq!(c.outstanding_now(), 2);
        c.on_complete(&IoCompletion::new(r0, SimTime::from_micros(50)));
        assert_eq!(c.outstanding_now(), 1);
        assert_eq!(c.histogram(Metric::Latency, Lens::All).total(), 1);
    }

    #[test]
    fn latency_percentiles_summary() {
        let mut c = IoStatsCollector::default();
        assert!(c.latency_percentiles().is_none());
        // 90 fast completions, 9 medium, 1 slow.
        let mut issue = |i: u64, lat_us: u64| {
            let r = mk(i, IoDirection::Read, i * 8, 8, i * 1_000);
            c.on_issue(&r);
            c.on_complete(&IoCompletion::new(
                r,
                SimTime::from_micros(i * 1_000 + lat_us),
            ));
        };
        for i in 0..90 {
            issue(i, 300);
        }
        for i in 90..99 {
            issue(i, 8_000);
        }
        issue(99, 60_000);
        let p = c.latency_percentiles().unwrap();
        // 300 us lands in the (100, 500] bin; the 90th order statistic of
        // 100 samples is still one of the 90 fast ones.
        assert_eq!(p.p50_us, 500);
        assert_eq!(p.p90_us, 500);
        assert_eq!(p.p99_us, 15_000);
        assert!(p.p50_us <= p.p90_us && p.p90_us <= p.p99_us);
        assert!((p.mean_us - (90.0 * 300.0 + 9.0 * 8_000.0 + 60_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn negative_interarrival_saturates_and_counts_anomaly() {
        let mut c = IoStatsCollector::default();
        c.on_issue(&mk(0, IoDirection::Read, 0, 8, 100));
        c.on_issue(&mk(1, IoDirection::Read, 8, 8, 40)); // clock ran backwards
        assert_eq!(c.clock_anomalies(), 1);
        {
            let h = c.histogram(Metric::Interarrival, Lens::All);
            assert_eq!(h.total(), 1);
            assert_eq!(h.mean(), Some(0.0), "delta saturates to zero");
        }
        // Forward progress afterwards is unaffected.
        c.on_issue(&mk(2, IoDirection::Read, 16, 8, 140));
        assert_eq!(c.clock_anomalies(), 1);
        assert_eq!(c.histogram(Metric::Interarrival, Lens::All).total(), 2);
    }

    #[test]
    fn negative_latency_saturates_and_counts_anomaly() {
        use vscsi::ScsiStatus;
        let mut c = IoStatsCollector::default();
        let r = mk(0, IoDirection::Write, 0, 8, 500);
        c.on_issue(&r);
        // Completion stamped before issue — an observed-stream anomaly.
        let bad = IoCompletion::observed(r, SimTime::from_micros(100), ScsiStatus::Good);
        c.on_complete(&bad);
        assert_eq!(c.clock_anomalies(), 1);
        let h = c.histogram(Metric::Latency, Lens::All);
        assert_eq!(h.total(), 1);
        assert_eq!(h.mean(), Some(0.0), "latency saturates to zero");
        assert_eq!(c.outstanding_now(), 0);
    }

    #[test]
    fn error_completions_feed_error_histogram_not_latency() {
        use vscsi::{ScsiStatus, SenseKey};
        let mut c = IoStatsCollector::default();
        let ok = mk(0, IoDirection::Read, 0, 8, 0);
        c.on_issue(&ok);
        c.on_complete(&IoCompletion::new(ok, SimTime::from_micros(200)));
        assert_eq!(c.histogram(Metric::Errors, Lens::All).total(), 0);
        assert_eq!(c.error_commands(), 0);

        let bad = mk(1, IoDirection::Read, 8, 8, 300);
        c.on_issue(&bad);
        c.on_complete(&IoCompletion::with_status(
            bad,
            SimTime::from_micros(9_000),
            ScsiStatus::CheckCondition(SenseKey::MediumError),
        ));
        // Latency histogram only saw the good completion.
        let lat = c.histogram(Metric::Latency, Lens::All);
        assert_eq!(lat.total(), 1);
        assert_eq!(lat.mean(), Some(200.0));
        // The error landed in its outcome-code bin, under both lenses.
        let errs = c.histogram(Metric::Errors, Lens::All);
        assert_eq!(errs.total(), 1);
        let code = ScsiStatus::CheckCondition(SenseKey::MediumError).outcome_code();
        assert_eq!(errs.count(errs.edges().bin_index(code)), 1);
        assert_eq!(c.histogram(Metric::Errors, Lens::Reads).total(), 1);
        assert_eq!(c.histogram(Metric::Errors, Lens::Writes).total(), 0);
        // Bookkeeping still counts the command as completed.
        assert_eq!(c.completed_commands(), 2);
        assert_eq!(c.error_commands(), 1);
        assert_eq!(c.outstanding_now(), 0);
    }

    #[test]
    fn error_completions_skip_series_and_correlation() {
        use vscsi::ScsiStatus;
        let cfg = CollectorConfig {
            series_interval: Some(SimDuration::from_secs(6)),
            correlate_seek_latency: true,
            ..Default::default()
        };
        let mut c = IoStatsCollector::new(cfg);
        let r0 = mk(0, IoDirection::Read, 0, 8, 0);
        c.on_issue(&r0);
        c.on_complete(&IoCompletion::new(r0, SimTime::from_micros(100)));
        let r1 = mk(1, IoDirection::Read, 8, 8, 200);
        c.on_issue(&r1);
        c.on_complete(&IoCompletion::with_status(
            r1,
            SimTime::from_micros(700),
            ScsiStatus::Busy,
        ));
        // Only the good completion reached the series…
        assert_eq!(c.latency_series().unwrap().total(), 1);
        // …and the 2-D correlation, whose in-flight slot was still retired.
        assert_eq!(c.seek_latency_histogram().unwrap().total(), 0);
        assert!(c.inflight_seeks.is_empty(), "error must not leak a slot");
    }

    #[test]
    fn reset_clears_error_and_anomaly_counters() {
        use vscsi::ScsiStatus;
        let mut c = IoStatsCollector::default();
        let r = mk(0, IoDirection::Read, 0, 8, 100);
        c.on_issue(&r);
        c.on_complete(&IoCompletion::observed(
            r,
            SimTime::ZERO,
            ScsiStatus::TaskAborted,
        ));
        assert_eq!(c.error_commands(), 1);
        assert_eq!(c.clock_anomalies(), 1);
        c.reset();
        assert_eq!(c.error_commands(), 0);
        assert_eq!(c.clock_anomalies(), 0);
        assert_eq!(c.histogram(Metric::Errors, Lens::All).total(), 0);
    }

    #[test]
    fn histogram_snapshots_materialize_from_slab() {
        let mut c = IoStatsCollector::default();
        let r = mk(0, IoDirection::Read, 0, 8, 0);
        c.on_issue(&r);
        c.on_complete(&IoCompletion::new(r, SimTime::from_micros(300)));
        // Two snapshots of the same state are equal but independent values.
        let a = c.histogram(Metric::Latency, Lens::All);
        let b = c.histogram(Metric::Latency, Lens::All);
        assert_eq!(a, b);
        assert_eq!(a.total(), 1);
        assert_eq!(a.min(), Some(300));
        assert_eq!(a.max(), Some(300));
        assert_eq!(a.mean(), Some(300.0));
        // The layout comes from the static registry, not a fresh Vec.
        let c2 = IoStatsCollector::default();
        assert!(std::ptr::eq(
            a.edges().edges(),
            c2.histogram(Metric::Latency, Lens::All).edges().edges()
        ));
    }

    #[test]
    fn memory_footprint_is_constant_in_command_count() {
        let mut c = IoStatsCollector::default();
        c.on_issue(&mk(0, IoDirection::Read, 0, 8, 0));
        let after_one = c.memory_footprint_bytes();
        for i in 1..10_000u64 {
            let r = mk(i, IoDirection::Read, (i * 97) % 100_000, 8, i * 10);
            c.on_issue(&r);
            c.on_complete(&IoCompletion::new(r, SimTime::from_micros(i * 10 + 5)));
        }
        assert_eq!(c.memory_footprint_bytes(), after_one);
        // And it is small: well under 64 KiB.
        assert!(after_one < 64 * 1024, "footprint = {after_one}");
    }
}
