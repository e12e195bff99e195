//! The host-wide statistics service.
//!
//! On a real ESX host this is the piece controlled by the "command line
//! utility to enable and disable these stats" (§3): a registry of
//! per-(VM, virtual disk) collectors, globally switchable, with the hot
//! path reduced to a single predictable branch while disabled (§5.2).
//!
//! # Concurrency architecture
//!
//! The paper's Table 2 claim — nanoseconds per command, invisible at full
//! I/O rate — only survives multi-tenant load if VMs do not contend with
//! each other inside the service. The registry is therefore a fixed
//! power-of-two table of *shards*, each with its own lock; a target's
//! shard is chosen by a multiplicative hash of its (VM, disk) id, so
//! different virtual disks land on different shards and their hot paths
//! never serialize against each other:
//!
//! * **Disabled path** ([`StatsService::handle_issue`] /
//!   [`StatsService::handle_complete`] while collection is off and no
//!   tracer exists): one atomic load plus one branch — no lock, no
//!   allocation. This is the always-on cost the paper's §5.2 argues the
//!   branch predictor makes free.
//! * **Enabled path**: one atomic load plus one *shard* lock shared only
//!   with targets that hash to the same shard.
//! * **Batched ingestion** ([`StatsService::handle_batch`]): a loop over
//!   the two hooks in slice order — one ingest path, not two.
//! * **Read path** ([`StatsService::summaries`],
//!   [`StatsService::collector`], [`StatsService::collectors`]): locks one
//!   shard at a time and clones collectors out, so report generation never
//!   stalls ingestion on the other shards.

use crate::checkpoint::{CheckpointHealth, ServiceCheckpoint, TargetCheckpoint};
use crate::collector::{CollectorConfig, IoStatsCollector};
use crate::histogram_set::HistogramSet;
use crate::metrics::{Lens, Metric};
use crate::sentinel::{
    Admission, HealthSnapshot, SalvageRecord, SalvagedTarget, SentinelConfig, ShardHealth,
    ShardSentinel,
};
use crate::trace::{TraceCapacity, TraceRecord, TraceSink, VscsiTracer};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};
use vscsi::{IoCompletion, IoRequest, TargetId};

/// Snapshot of a collector's headline counters, for `esxtop`-style listings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSummary {
    /// The (VM, disk) pair.
    pub target: TargetId,
    /// Commands issued.
    pub issued: u64,
    /// Commands completed.
    pub completed: u64,
    /// I/Os in flight right now.
    pub outstanding: u32,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Fraction of commands that were reads, if any commands were seen.
    pub read_fraction: Option<f64>,
    /// Mean device latency in microseconds, if any completions were seen.
    pub mean_latency_us: Option<f64>,
}

impl fmt::Display for TargetSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: issued={} completed={} oio={} readMB={:.1} writeMB={:.1}",
            self.target,
            self.issued,
            self.completed,
            self.outstanding,
            self.bytes_read as f64 / 1e6,
            self.bytes_written as f64 / 1e6,
        )?;
        if let Some(rf) = self.read_fraction {
            write!(f, " read%={:.0}", rf * 100.0)?;
        }
        if let Some(lat) = self.mean_latency_us {
            write!(f, " meanLat={lat:.0}us")?;
        }
        Ok(())
    }
}

/// One event observed at the vSCSI layer, for batched ingestion through
/// [`StatsService::handle_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VscsiEvent {
    /// A guest command arrived at the SCSI emulation layer.
    Issue(IoRequest),
    /// The device reported a command complete.
    Complete(IoCompletion),
}

impl VscsiEvent {
    /// The (VM, disk) pair this event belongs to.
    pub fn target(&self) -> TargetId {
        match self {
            VscsiEvent::Issue(req) => req.target,
            VscsiEvent::Complete(completion) => completion.request.target,
        }
    }
}

/// Every blocking lock in this module is taken through here. A hook that
/// panics under a shard lock poisons it; fencing and booking that panic is
/// the sentinel's job, not the next caller's to re-raise, so poison is
/// recovered.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct TargetState {
    collector: Option<IoStatsCollector>,
    tracer: Option<VscsiTracer>,
}

#[derive(Debug, Default)]
struct ShardState {
    targets: BTreeMap<TargetId, TargetState>,
    /// Supervision state (governor, quarantine generation, load counters).
    /// Inert — zero branches on the hot path — until
    /// [`StatsService::enable_sentinel`] installs a config.
    sentinel: ShardSentinel,
}

impl ShardState {
    fn apply_issue(&mut self, enabled: bool, config: &CollectorConfig, req: &IoRequest) {
        if enabled {
            let state = self.targets.entry(req.target).or_default();
            state
                .collector
                .get_or_insert_with(|| IoStatsCollector::new(config.clone()))
                .on_issue(req);
            if let Some(tracer) = &mut state.tracer {
                tracer.on_issue(req);
            }
        } else if let Some(state) = self.targets.get_mut(&req.target) {
            // Collection is off: only an active tracer observes the command,
            // and no collector state is created.
            if let Some(tracer) = &mut state.tracer {
                tracer.on_issue(req);
            }
        }
    }

    fn apply_complete(&mut self, completion: &IoCompletion) {
        // Completions route to existing collectors even while collection is
        // disabled: a command issued while enabled must still complete its
        // latency sample (§3's stats can be toggled at any time).
        let Some(state) = self.targets.get_mut(&completion.request.target) else {
            return;
        };
        if let Some(collector) = &mut state.collector {
            collector.on_complete(completion);
        }
        if let Some(tracer) = &mut state.tracer {
            tracer.on_complete(completion);
        }
    }
}

#[derive(Debug)]
struct Shard {
    /// Number of targets in this shard with an active tracer. Lets the
    /// disabled issue path skip the shard lock entirely when zero.
    tracers: AtomicU32,
    /// Whether any target state was ever created in this shard. Lets the
    /// completion path skip the shard lock while the shard is empty.
    occupied: AtomicBool,
    /// Watchdog heartbeat: the virtual timestamp at which the current
    /// supervised ingest entered the shard, or `u64::MAX` while idle. Only
    /// written on the supervised (sentinel-on) path. This is a heuristic
    /// heartbeat — it flags an ingest that *entered* and never left, which
    /// is exactly the wedged-writer signature the watchdog hunts.
    busy_since_ns: AtomicU64,
    state: Mutex<ShardState>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            tracers: AtomicU32::new(0),
            occupied: AtomicBool::new(false),
            busy_since_ns: AtomicU64::new(u64::MAX),
            state: Mutex::new(ShardState::default()),
        }
    }
}

/// Host-wide vSCSI statistics service.
///
/// Thread-safe and sharded: targets are spread over a fixed power-of-two
/// number of independently locked shards (see the module docs), so VMs on
/// different shards ingest concurrently without contention. When the
/// service is disabled and no tracer is active, the hot-path hooks cost
/// one atomic load and one branch — no lock is taken (on the real system
/// the branch predictor makes the disabled path free — §5.2). Collector
/// state for a target is created lazily on its first command after
/// enablement, mirroring "histogram data structures are dynamically
/// created as needed".
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
/// use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
/// use vscsi_stats::{Lens, Metric, StatsService};
///
/// let service = StatsService::new(Default::default());
/// service.enable_all();
///
/// let req = IoRequest::new(
///     RequestId(0), TargetId::default(), IoDirection::Read,
///     Lba::new(0), 8, SimTime::ZERO,
/// );
/// service.handle_issue(&req);
/// service.handle_complete(&IoCompletion::new(req, SimTime::from_micros(450)));
///
/// let summary = &service.summaries()[0];
/// assert_eq!(summary.issued, 1);
/// assert_eq!(summary.mean_latency_us, Some(450.0));
/// ```
///
/// Batched ingestion is the same two hooks, called once per event in slice
/// order:
///
/// ```
/// use simkit::SimTime;
/// use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
/// use vscsi_stats::{StatsService, VscsiEvent};
///
/// let service = StatsService::default();
/// service.enable_all();
/// let req = IoRequest::new(
///     RequestId(0), TargetId::default(), IoDirection::Write,
///     Lba::new(64), 8, SimTime::ZERO,
/// );
/// service.handle_batch(&[
///     VscsiEvent::Issue(req),
///     VscsiEvent::Complete(IoCompletion::new(req, SimTime::from_micros(200))),
/// ]);
/// assert_eq!(service.summaries()[0].completed, 1);
/// ```
#[derive(Debug)]
pub struct StatsService {
    /// Global collection switch, read lock-free on every hot-path call.
    enabled: AtomicBool,
    /// Shared collector template; never cloned on the hot path — only when
    /// a target's collector is lazily created.
    config: Arc<CollectorConfig>,
    /// Whether the sentinel supervision layer is active. While `false`
    /// (the default) every path below is exactly the unsupervised legacy
    /// pipeline — bit-for-bit.
    sentinel_on: AtomicBool,
    /// The installed sentinel config (reader patience, watchdog budget).
    /// Cold: read on snapshot paths and watchdog checks only.
    sentinel_cfg: Mutex<Option<Arc<SentinelConfig>>>,
    /// Retained quarantine salvage records, bounded by
    /// [`Self::SALVAGE_RETENTION`]; `salvages_total` keeps the true count.
    salvages: Mutex<Vec<SalvageRecord>>,
    salvages_total: AtomicU64,
    /// Watchdog trips against shards: stuck supervised ingests spotted by
    /// [`Self::watchdog_check`] plus readers that gave up on a shard lock.
    shard_watchdog_trips: AtomicU64,
    /// Restart epoch: bumped whenever the service's cumulative counters
    /// regress on purpose (a [`Self::reset_all`], or a simulated host
    /// restart installing a fresh service via [`Self::set_epoch`]). The
    /// fleet plane ships this in every `VFLHIST3` frame so collectors can
    /// re-base per-window deltas instead of mistaking the regression for
    /// corruption.
    epoch: AtomicU64,
    /// Whether the cumulative counters continue a checkpoint
    /// ([`Self::from_checkpoint`]) rather than starting from zero. Not
    /// checkpointed: it describes how this process came to its counters.
    resumed: AtomicBool,
    /// Fleet frame sequence: the per-host monotonic counter stamped into
    /// every `VFLHIST3` frame. Owned by the service (not the endpoint
    /// wrapper) so a checkpoint carries it and a restored host *continues*
    /// the sequence — downstream seq-regression guards then accept the
    /// first post-restart frame instead of mistaking it for a replay.
    frame_seq: AtomicU64,
    /// Health surface of an attached checkpoint daemon, if any: lets
    /// `command("checkpoint")` request an immediate durable snapshot and
    /// `command("health")` report checkpoint lag alongside sentinel state.
    ckpt_health: Mutex<Option<Arc<CheckpointHealth>>>,
    /// Power-of-two shard table; `shards.len() - 1` is the index mask.
    shards: Box<[Shard]>,
}

impl Default for StatsService {
    fn default() -> Self {
        StatsService::new(CollectorConfig::default())
    }
}

impl StatsService {
    /// Default number of shards. Large enough that a host's worth of busy
    /// virtual disks rarely collide, small enough that full-table scans
    /// (reports, resets) stay cheap.
    pub const DEFAULT_SHARD_COUNT: usize = 16;

    /// Creates a service (disabled) that will build collectors with
    /// `config`, using [`Self::DEFAULT_SHARD_COUNT`] shards.
    pub fn new(config: CollectorConfig) -> Self {
        StatsService::with_shards(config, Self::DEFAULT_SHARD_COUNT)
    }

    /// Creates a service (disabled) with at least `shards` shards; the
    /// count is rounded up to the next power of two (minimum 1).
    pub fn with_shards(config: CollectorConfig, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..count).map(|_| Shard::new()).collect();
        StatsService {
            enabled: AtomicBool::new(false),
            config: Arc::new(config),
            sentinel_on: AtomicBool::new(false),
            sentinel_cfg: Mutex::new(None),
            salvages: Mutex::new(Vec::new()),
            salvages_total: AtomicU64::new(0),
            shard_watchdog_trips: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            resumed: AtomicBool::new(false),
            frame_seq: AtomicU64::new(0),
            ckpt_health: Mutex::new(None),
            shards: shards.into_boxed_slice(),
        }
    }

    /// Number of shards in the table (a power of two).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a target routes to. The thread-per-core pipeline uses
    /// this to assign each target's events to the aggregator that owns the
    /// shard, so no two aggregators ever contend on one shard lock.
    pub(crate) fn shard_index_of(&self, target: TargetId) -> usize {
        self.shard_index(target)
    }

    fn shard_index(&self, target: TargetId) -> usize {
        // Fibonacci multiplicative hash of the (vm, disk) pair. The upper
        // half of the product spreads small sequential ids uniformly, so
        // vm0..vmN land on distinct shards.
        let key = (u64::from(target.vm.0) << 32) | u64::from(target.disk.0);
        let hashed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((hashed >> 32) as usize) & (self.shards.len() - 1)
    }

    fn shard(&self, target: TargetId) -> &Shard {
        &self.shards[self.shard_index(target)]
    }

    /// Turns histogram collection on for all targets.
    pub fn enable_all(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Turns histogram collection off; existing histograms are retained and
    /// can still be reported.
    pub fn disable_all(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether collection is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// The service's restart epoch. Starts at 0; every counter regression
    /// the service performs on purpose (`command("reset")`) bumps it, and
    /// a simulated host restart carries it forward via [`Self::set_epoch`].
    /// Fleet frames embed it so downstream windowed rollups re-base
    /// exactly once per restart.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Sets the restart epoch — used when a fresh service instance stands
    /// in for a restarted host and must advertise a later epoch than its
    /// predecessor.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// `true` for a service rebuilt by [`Self::from_checkpoint`], until its
    /// next `command("reset")`: its counters continue the checkpointed
    /// ones. Fleet frames carry it next to the epoch, so a collector that
    /// sees the epoch move knows whether to subtract its last snapshot (a
    /// resumed host) or to bank it (a fresh one) without guessing from the
    /// counters, which a busy fresh host can push past the old snapshot
    /// within one window.
    pub fn is_resumed(&self) -> bool {
        self.resumed.load(Ordering::Acquire)
    }

    /// The last fleet frame sequence number handed out (0 = none yet).
    pub fn frame_seq(&self) -> u64 {
        self.frame_seq.load(Ordering::Acquire)
    }

    /// Allocates the next fleet frame sequence number (first call returns
    /// 1). Monotonic across the service's life *and*, via the checkpoint
    /// plane, across restarts: [`StatsService::from_checkpoint`] resumes
    /// the counter so a recovered host never reuses a sequence number its
    /// collectors may already have seen.
    pub fn next_frame_seq(&self) -> u64 {
        self.frame_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Starts command tracing for one target with the given capacity.
    pub fn start_trace(&self, target: TargetId, capacity: TraceCapacity) {
        self.install_tracer(target, VscsiTracer::new(capacity));
    }

    /// Starts *streaming* command tracing for one target: completed records
    /// are pushed into `sink` as they happen and only in-flight commands
    /// stay in memory, so a trace of any length runs in bounded space (the
    /// `tracestore` crate provides a durable binary-segment sink). The
    /// in-flight tail is handed to the sink when tracing stops.
    pub fn start_trace_streaming(&self, target: TargetId, sink: Box<dyn TraceSink>) {
        self.install_tracer(target, VscsiTracer::streaming(sink));
    }

    /// Re-attaches a streaming trace after a restart, continuing the event
    /// sequence from a checkpointed watermark
    /// ([`TargetCheckpoint::tracer_watermark`]). Every record the resumed
    /// tracer emits carries `serial >= watermark`, so recovery can replay
    /// a durable trace tail on top of the checkpoint without double
    /// counting: records below the watermark are already inside the
    /// checkpointed collectors.
    pub fn resume_trace_streaming(
        &self,
        target: TargetId,
        sink: Box<dyn TraceSink>,
        watermark: u64,
    ) {
        let mut tracer = VscsiTracer::streaming(sink);
        tracer.resume_event_seq(watermark);
        self.install_tracer(target, tracer);
    }

    fn install_tracer(&self, target: TargetId, tracer: VscsiTracer) {
        let shard = self.shard(target);
        let mut state = lock(&shard.state);
        let entry = state.targets.entry(target).or_default();
        if entry.tracer.is_none() {
            shard.tracers.fetch_add(1, Ordering::Release);
        }
        // Replacing an active streaming tracer flushes it via its Drop.
        entry.tracer = Some(tracer);
        shard.occupied.store(true, Ordering::Release);
    }

    /// Stops tracing for a target, returning the records still held in
    /// memory: the captured trace for a capacity tracer, or an empty vector
    /// for a streaming tracer (its records — including the in-flight tail,
    /// flushed here — live in the sink).
    pub fn stop_trace(&self, target: TargetId) -> Vec<TraceRecord> {
        let shard = self.shard(target);
        let mut state = lock(&shard.state);
        let Some(tracer) = state.targets.get_mut(&target).and_then(|t| t.tracer.take()) else {
            return Vec::new();
        };
        shard.tracers.fetch_sub(1, Ordering::Release);
        tracer.into_records()
    }

    /// Hot-path hook: command issue.
    ///
    /// Disabled and untraced, this is one atomic load and one branch — no
    /// lock, no allocation.
    pub fn handle_issue(&self, req: &IoRequest) {
        let enabled = self.enabled.load(Ordering::Acquire);
        let shard = self.shard(req.target);
        if !enabled && shard.tracers.load(Ordering::Acquire) == 0 {
            return;
        }
        if self.sentinel_on.load(Ordering::Acquire) {
            return self.supervised_issue(self.shard_index(req.target), enabled, req);
        }
        let mut state = lock(&shard.state);
        state.apply_issue(enabled, &self.config, req);
        if enabled {
            shard.occupied.store(true, Ordering::Release);
        }
    }

    /// Hot-path hook: command completion.
    ///
    /// Takes no lock while the target's shard has never held any state.
    pub fn handle_complete(&self, completion: &IoCompletion) {
        let shard = self.shard(completion.request.target);
        if !shard.occupied.load(Ordering::Acquire) {
            return;
        }
        if self.sentinel_on.load(Ordering::Acquire) {
            return self
                .supervised_complete(self.shard_index(completion.request.target), completion);
        }
        lock(&shard.state).apply_complete(completion);
    }

    /// Batched ingestion: feeds every event to [`Self::handle_issue`] or
    /// [`Self::handle_complete`] in slice order. A convenience for callers
    /// that already hold a slice of events — the per-event hooks are the
    /// one ingest path, and this takes no lock and makes no decision of
    /// its own.
    pub fn handle_batch(&self, events: &[VscsiEvent]) {
        for event in events {
            match event {
                VscsiEvent::Issue(req) => self.handle_issue(req),
                VscsiEvent::Complete(completion) => self.handle_complete(completion),
            }
        }
    }

    /// How many quarantine salvage records are retained in memory;
    /// [`HealthSnapshot::salvages_total`] keeps counting past the cap.
    pub const SALVAGE_RETENTION: usize = 32;

    /// Arms the sentinel supervision layer (see [`crate::sentinel`]): the
    /// overload governor, watchdog heartbeats, and panic quarantine start
    /// covering every subsequent ingest. Until this is called the service
    /// runs the exact unsupervised pipeline — no extra branches, no
    /// behavior change.
    pub fn enable_sentinel(&self, config: SentinelConfig) {
        let config = Arc::new(config);
        *lock(&self.sentinel_cfg) = Some(Arc::clone(&config));
        for shard in self.shards.iter() {
            lock(&shard.state).sentinel.enable(Arc::clone(&config));
        }
        self.sentinel_on.store(true, Ordering::Release);
    }

    /// Whether the sentinel supervision layer is armed.
    pub(crate) fn sentinel_enabled(&self) -> bool {
        self.sentinel_on.load(Ordering::Acquire)
    }

    /// Folds per-shard ring-full drop counts from the thread-per-core
    /// pipeline into the sentinel ledger, preserving the conservation
    /// identity `ingested + sampled_out + shed == offered`: an event
    /// dropped at a full SPSC ring was offered to the stats path and shed
    /// by backpressure, just at an earlier stage than the governor. No-op
    /// for shards with a zero count or when the sentinel is disabled.
    pub fn absorb_ring_sheds(&self, sheds_by_shard: &[u64]) {
        debug_assert!(sheds_by_shard.len() <= self.shards.len());
        for (shard, &n) in self.shards.iter().zip(sheds_by_shard) {
            if n > 0 {
                lock(&shard.state).sentinel.note_ring_shed(n);
            }
        }
    }

    /// Supervised issue path: watchdog heartbeat, governor admission,
    /// panic fence, quarantine on unwind.
    fn supervised_issue(&self, idx: usize, enabled: bool, req: &IoRequest) {
        let shard = &self.shards[idx];
        let now_ns = req.issue_time.as_nanos();
        shard.busy_since_ns.store(now_ns, Ordering::Release);
        let mut state = lock(&shard.state);
        let admission = if enabled {
            state.sentinel.admit(now_ns, req.id.0)
        } else {
            // Tracer-only traffic (collection off) bypasses the governor:
            // it is not offered to the stats path, so it must not perturb
            // the conservation counters.
            Admission::Ingest
        };
        state.sentinel.note_issue(req);
        let outcome = catch_unwind(AssertUnwindSafe(|| match admission {
            Admission::Ingest => {
                state.sentinel.maybe_chaos_panic(req);
                let creates = enabled
                    && state
                        .targets
                        .get(&req.target)
                        .is_none_or(|t| t.collector.is_none());
                state.apply_issue(enabled, &self.config, req);
                if creates {
                    let bytes = state
                        .targets
                        .get(&req.target)
                        .and_then(|t| t.collector.as_ref())
                        .map_or(0, IoStatsCollector::memory_footprint_bytes);
                    state.sentinel.note_collector_created(bytes);
                }
            }
            Admission::SampleOut | Admission::CountOnly => {
                // Degraded: cheap counters only — but an active tracer
                // still sees the command (tracing is the debugging tool of
                // last resort; only Shed silences it).
                state.sentinel.note_light(req.len_bytes());
                if let Some(tracer) = state
                    .targets
                    .get_mut(&req.target)
                    .and_then(|t| t.tracer.as_mut())
                {
                    tracer.on_issue(req);
                }
            }
            Admission::Shed => {}
        }));
        if enabled {
            shard.occupied.store(true, Ordering::Release);
        }
        if outcome.is_err() {
            self.quarantine_locked(idx, shard, &mut state, now_ns);
        }
        drop(state);
        shard.busy_since_ns.store(u64::MAX, Ordering::Release);
    }

    /// Supervised completion path. The admission coin is keyed by the
    /// request id, so a command kept at issue is kept at completion and a
    /// sampled-out command stays invisible end to end.
    fn supervised_complete(&self, idx: usize, completion: &IoCompletion) {
        let shard = &self.shards[idx];
        let now_ns = completion.complete_time.as_nanos();
        shard.busy_since_ns.store(now_ns, Ordering::Release);
        let mut state = lock(&shard.state);
        let admission = state.sentinel.admit(now_ns, completion.request.id.0);
        // A late completion from a generation a quarantine rebuild tore
        // down counts as stale instead of becoming a latency sample of a
        // command whose issue was lost. A shard that cannot tell (restored
        // from a checkpoint after its rebuild) goes by the target's absence.
        let current = state
            .sentinel
            .retire(&completion.request)
            .unwrap_or_else(|| {
                state.sentinel.generation() == 0
                    || state.targets.contains_key(&completion.request.target)
            });
        let outcome = catch_unwind(AssertUnwindSafe(|| match admission {
            Admission::Ingest => {
                if current {
                    state.apply_complete(completion);
                } else {
                    state.sentinel.note_stale_completion();
                }
            }
            Admission::SampleOut | Admission::CountOnly => {
                state.sentinel.note_light(0);
                if let Some(tracer) = state
                    .targets
                    .get_mut(&completion.request.target)
                    .and_then(|t| t.tracer.as_mut())
                {
                    tracer.on_complete(completion);
                }
            }
            Admission::Shed => {}
        }));
        if outcome.is_err() {
            self.quarantine_locked(idx, shard, &mut state, now_ns);
        }
        drop(state);
        shard.busy_since_ns.store(u64::MAX, Ordering::Release);
    }

    /// Quarantines a shard whose ingest panicked: salvages headline
    /// counters from the wounded collectors into a [`SalvageRecord`],
    /// rebuilds the shard empty, and bumps its generation so late
    /// completions from the torn-down state are counted as stale.
    fn quarantine_locked(&self, idx: usize, shard: &Shard, state: &mut ShardState, now_ns: u64) {
        let generation = state.sentinel.generation();
        // The salvage read is itself fenced: a collector wounded badly
        // enough to panic mid-ingest may panic again while being read, and
        // that must not defeat the rebuild. Worst case the record is empty.
        let targets = catch_unwind(AssertUnwindSafe(|| {
            state
                .targets
                .iter()
                .map(|(target, t)| {
                    let (issued, completed, outstanding, error_outcomes) =
                        t.collector.as_ref().map_or((0, 0, 0, Vec::new()), |c| {
                            (
                                c.issued_commands(),
                                c.completed_commands(),
                                c.outstanding_now(),
                                c.histogram_set()
                                    .slot(Metric::Errors, Lens::All)
                                    .0
                                    .into_owned(),
                            )
                        });
                    SalvagedTarget {
                        target: *target,
                        issued,
                        completed,
                        outstanding,
                        error_outcomes,
                    }
                })
                .collect::<Vec<_>>()
        }))
        .unwrap_or_default();
        // Rebuild: dropping the targets flushes streaming tracers via their
        // Drop impls (bounded — sink flushes time out and demote).
        state.targets.clear();
        state.sentinel.note_quarantine();
        shard.tracers.store(0, Ordering::Release);
        self.salvages_total.fetch_add(1, Ordering::AcqRel);
        let mut salvages = lock(&self.salvages);
        if salvages.len() < Self::SALVAGE_RETENTION {
            salvages.push(SalvageRecord {
                shard: idx,
                generation,
                at_ns: now_ns,
                targets,
            });
        }
    }

    /// Shard access for snapshot/read paths: while the sentinel is armed, a
    /// reader waits at most the configured patience for a shard lock and
    /// then *skips the shard* (counting a watchdog trip) instead of wedging
    /// behind a stuck writer. It sleeps between tries, with a capped
    /// back-off, so waiting out a wedged shard does not occupy a core. With
    /// the sentinel off this is a plain blocking lock, exactly as before.
    fn read_state<'a>(&self, shard: &'a Shard) -> Option<MutexGuard<'a, ShardState>> {
        // Sleeps between tries double from 50 µs up to this.
        const NAP_CAP: Duration = Duration::from_millis(2);
        if !self.sentinel_on.load(Ordering::Acquire) {
            return Some(lock(&shard.state));
        }
        let patience = lock(&self.sentinel_cfg)
            .as_ref()
            .map_or(Duration::from_millis(500), |c| c.reader_patience);
        let deadline = Instant::now() + patience;
        let mut nap = Duration::from_micros(50);
        loop {
            match shard.state.try_lock() {
                Ok(guard) => return Some(guard),
                Err(TryLockError::Poisoned(poisoned)) => return Some(poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.shard_watchdog_trips.fetch_add(1, Ordering::AcqRel);
                return None;
            }
            std::thread::sleep(nap.min(left));
            nap = (nap * 2).min(NAP_CAP);
        }
    }

    /// Watchdog sweep: returns the indices of shards whose supervised
    /// ingest entered more than the configured budget of *virtual* time
    /// before `now_ns` and has not left, counting one trip per stuck
    /// shard. Drive this from the simulation/poll loop.
    pub fn watchdog_check(&self, now_ns: u64) -> Vec<usize> {
        let budget = lock(&self.sentinel_cfg)
            .as_ref()
            .map_or(u64::MAX, |c| c.watchdog_budget_ns);
        let mut stuck = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let busy = shard.busy_since_ns.load(Ordering::Acquire);
            if busy != u64::MAX && now_ns.saturating_sub(busy) > budget {
                stuck.push(idx);
            }
        }
        if !stuck.is_empty() {
            self.shard_watchdog_trips
                .fetch_add(stuck.len() as u64, Ordering::AcqRel);
        }
        stuck
    }

    /// Full service health: per-shard degradation level, generation, and
    /// load-conservation counters, retained salvage records, and watchdog
    /// trip totals (shard-side plus every active tracer sink's). Shards
    /// whose lock cannot be had within the reader patience are reported
    /// [`ShardHealth::unreachable`] rather than blocking the snapshot.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut sink_watchdog_trips = 0u64;
        for (idx, shard) in self.shards.iter().enumerate() {
            match self.read_state(shard) {
                Some(state) => {
                    sink_watchdog_trips += state
                        .targets
                        .values()
                        .filter_map(|t| t.tracer.as_ref())
                        .map(|tracer| tracer.sink_health().watchdog_trips)
                        .sum::<u64>();
                    shards.push(state.sentinel.shard_health(idx, state.targets.len()));
                }
                None => shards.push(ShardHealth::unreachable(idx)),
            }
        }
        HealthSnapshot {
            shards,
            salvages: lock(&self.salvages).clone(),
            salvages_total: self.salvages_total.load(Ordering::Acquire),
            shard_watchdog_trips: self.shard_watchdog_trips.load(Ordering::Acquire),
            sink_watchdog_trips,
        }
    }

    /// Captures the service's complete durable state as a
    /// [`ServiceCheckpoint`]: every collector's exact export, every shard
    /// governor's posture and admission ledger, the retained salvage
    /// records, the restart epoch, the fleet frame sequence, and each
    /// active tracer's replay watermark.
    ///
    /// Takes each shard lock in turn (blocking — a checkpoint must be a
    /// complete census, so a wedged shard stalls the checkpoint daemon
    /// rather than silently truncating the snapshot; the daemon's watchdog
    /// demotes it in that case).
    pub fn checkpoint_snapshot(&self) -> ServiceCheckpoint {
        let mut sentinels = Vec::with_capacity(self.shards.len());
        let mut targets = Vec::new();
        for shard in self.shards.iter() {
            let state = lock(&shard.state);
            sentinels.push(state.sentinel.export_state());
            for (target, t) in state.targets.iter() {
                targets.push(TargetCheckpoint {
                    target: *target,
                    collector: t.collector.as_ref().map(IoStatsCollector::export_state),
                    tracer_watermark: t.tracer.as_ref().map(VscsiTracer::next_event_seq),
                });
            }
        }
        // Shards interleave target ids; canonical order makes the
        // checkpoint bytes a pure function of service state.
        targets.sort_unstable_by_key(|t| t.target);
        ServiceCheckpoint {
            config: (*self.config).clone(),
            epoch: self.epoch(),
            frame_seq: self.frame_seq(),
            enabled: self.is_enabled(),
            sentinel_on: self.sentinel_enabled(),
            shard_count: self.shards.len() as u32,
            salvages_total: self.salvages_total.load(Ordering::Acquire),
            shard_watchdog_trips: self.shard_watchdog_trips.load(Ordering::Acquire),
            sentinels,
            salvages: lock(&self.salvages).clone(),
            targets,
        }
    }

    /// Rebuilds a service from a checkpoint: same shard table, same
    /// collector states bit-for-bit, same governor ledgers, same epoch and
    /// frame sequence. `sentinel` re-supplies the supervision *policy*
    /// (configs are operator state, not runtime state); pass the host's
    /// current config when the checkpointed service ran supervised.
    ///
    /// Active tracers are **not** recreated — their sinks are external
    /// resources. Each one's watermark is in
    /// [`ServiceCheckpoint::targets`]; re-attach with
    /// [`StatsService::resume_trace_streaming`].
    ///
    /// This reproduces the checkpointed epoch exactly (so
    /// `restore(checkpoint(s))` round-trips); a *crash recovery* then
    /// advertises `epoch + 1` via [`StatsService::set_epoch`] to tell the
    /// fleet plane the cumulative counters may have regressed by the
    /// unreplayable post-checkpoint tail.
    ///
    /// # Panics
    ///
    /// Panics on structurally invalid checkpoints (wrong sentinel count,
    /// non-power-of-two shard count, malformed collector state). Untrusted
    /// bytes are validated by the checkpoint decoder before they get here.
    pub fn from_checkpoint(ckpt: &ServiceCheckpoint, sentinel: Option<SentinelConfig>) -> Self {
        let svc = StatsService::with_shards(ckpt.config.clone(), ckpt.shard_count as usize);
        assert_eq!(
            svc.shard_count(),
            ckpt.shard_count as usize,
            "checkpoint shard count must be a power of two"
        );
        assert_eq!(
            ckpt.sentinels.len(),
            svc.shard_count(),
            "one sentinel state per shard"
        );
        if let Some(cfg) = sentinel {
            svc.enable_sentinel(cfg);
        }
        svc.enabled.store(ckpt.enabled, Ordering::Release);
        svc.epoch.store(ckpt.epoch, Ordering::Release);
        svc.resumed.store(true, Ordering::Release);
        svc.frame_seq.store(ckpt.frame_seq, Ordering::Release);
        svc.salvages_total
            .store(ckpt.salvages_total, Ordering::Release);
        svc.shard_watchdog_trips
            .store(ckpt.shard_watchdog_trips, Ordering::Release);
        *lock(&svc.salvages) = ckpt.salvages.clone();
        for (shard, state) in svc.shards.iter().zip(ckpt.sentinels.iter()) {
            lock(&shard.state).sentinel.restore_state(state);
        }
        for t in &ckpt.targets {
            let shard = svc.shard(t.target);
            let mut state = lock(&shard.state);
            let entry = state.targets.entry(t.target).or_default();
            if let Some(cs) = &t.collector {
                entry.collector = Some(IoStatsCollector::from_state(cs.clone()));
            }
            shard.occupied.store(true, Ordering::Release);
        }
        svc
    }

    /// Attaches the health surface of a checkpoint daemon, enabling the
    /// `checkpoint` command and the checkpoint row in `health` output.
    pub fn attach_checkpoint_health(&self, health: Arc<CheckpointHealth>) {
        *lock(&self.ckpt_health) = Some(health);
    }

    #[cfg(test)]
    fn debug_mark_busy(&self, idx: usize, now_ns: u64) {
        self.shards[idx]
            .busy_since_ns
            .store(now_ns, Ordering::Release);
    }

    /// Resets histograms for every target, one shard at a time. With the
    /// sentinel armed, a shard held by a stuck writer is skipped (and
    /// counted as a watchdog trip) rather than wedging the reset.
    ///
    /// A reset is a deliberate cumulative-counter regression, so it bumps
    /// the service [`epoch`](Self::epoch): fleet collectors re-base their
    /// windowed deltas instead of booking the drop as corruption. After it
    /// the counters continue nothing, so [`Self::is_resumed`] clears.
    pub(crate) fn reset_all(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.resumed.store(false, Ordering::Release);
        for shard in self.shards.iter() {
            let Some(mut state) = self.read_state(shard) else {
                continue;
            };
            for target in state.targets.values_mut() {
                if let Some(c) = &mut target.collector {
                    c.reset();
                }
            }
        }
    }

    /// Targets with any recorded state, in order.
    pub fn targets(&self) -> Vec<TargetId> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let Some(state) = self.read_state(shard) else {
                continue;
            };
            out.extend(state.targets.keys().copied());
        }
        out.sort_unstable();
        out
    }

    /// Clones the collector for a target, if one exists (collectors are
    /// small — a few KiB — so cloning out is the safe reporting interface).
    /// Locks only the target's own shard.
    pub fn collector(&self, target: TargetId) -> Option<IoStatsCollector> {
        self.read_state(self.shard(target))?
            .targets
            .get(&target)
            .and_then(|t| t.collector.clone())
    }

    /// Snapshot of every target's collector, in target order. Locks one
    /// shard at a time, so ingestion on other shards is never stalled —
    /// this is the intended interface for report and CSV export.
    pub fn collectors(&self) -> Vec<(TargetId, IoStatsCollector)> {
        self.read_collectors(|_, c| c.clone()).0
    }

    /// Every target's [`HistogramSet`], in target order, plus the number of
    /// shards the read skipped — non-zero only under an armed sentinel,
    /// when a shard lock outlasts `reader_patience`. Copies the counters
    /// alone, not the collector. A caller that ships the result must treat
    /// a non-zero count as a failed read: a partial census looks exactly
    /// like a counter regression.
    pub fn histogram_sets(&self) -> (Vec<(TargetId, HistogramSet)>, usize) {
        self.read_collectors(|_, c| c.histogram_set().clone())
    }

    /// Headline counters for every known target, in target order. Locks
    /// one shard at a time.
    pub fn summaries(&self) -> Vec<TargetSummary> {
        let rows = self.read_collectors(|target, c| TargetSummary {
            target,
            issued: c.issued_commands(),
            completed: c.completed_commands(),
            outstanding: c.outstanding_now(),
            bytes_read: c.bytes_read(),
            bytes_written: c.bytes_written(),
            read_fraction: c.read_fraction(),
            mean_latency_us: c.histogram_set().slot(Metric::Latency, Lens::All).1.mean(),
        });
        rows.0.into_iter().map(|(_, row)| row).collect()
    }

    /// `read` of every collector, in target order, plus skipped shards.
    fn read_collectors<T>(
        &self,
        read: impl Fn(TargetId, &IoStatsCollector) -> T,
    ) -> (Vec<(TargetId, T)>, usize) {
        let mut out = Vec::new();
        let mut skipped = 0;
        for shard in self.shards.iter() {
            let Some(state) = self.read_state(shard) else {
                skipped += 1;
                continue;
            };
            out.extend(
                state
                    .targets
                    .iter()
                    .filter_map(|(&t, s)| Some((t, read(t, s.collector.as_ref()?)))),
            );
        }
        out.sort_unstable_by_key(|&(target, _)| target);
        (out, skipped)
    }

    /// The `FetchAllHistograms` dump: every target's full metric × lens
    /// histogram set as text, in target order — the same surface vCenter's
    /// ServiceManager exposes as `ExecuteSimpleCommand FetchAllHistograms`.
    /// Slots with no samples are listed on one line so the dump stays an
    /// exhaustive inventory without drowning in empty tables. Locks one
    /// shard at a time (via [`StatsService::histogram_sets`]).
    pub fn fetch_all_histograms(&self) -> String {
        let (sets, _) = self.histogram_sets();
        let mut out = format!("FetchAllHistograms: {} target(s)\n", sets.len());
        for (target, set) in &sets {
            out.push_str(&format!("== {target} ==\n"));
            for metric in Metric::ALL {
                for lens in Lens::ALL {
                    let h = set.histogram(metric, lens);
                    if h.is_empty() {
                        out.push_str(&format!("Histogram: {metric} ({lens}): no samples\n"));
                    } else {
                        // `Histogram`'s Display ends on its summary line
                        // without a trailing newline; add one so the next
                        // header starts a fresh line.
                        out.push_str(&format!("Histogram: {metric} ({lens})\n{h}\n"));
                    }
                }
            }
        }
        out
    }

    /// Executes a `vscsiStats`-style textual command and returns its output.
    ///
    /// Supported commands: `start`, `stop`, `reset`, `status`, `list`,
    /// `health` (the sentinel's [`HealthSnapshot`] rendering, plus a
    /// checkpoint row when a daemon is attached), `checkpoint` (request an
    /// immediate durable snapshot from the attached daemon), and
    /// `fetchallhistograms` (every target's full histogram set, the
    /// command the fleet plane's wire format snapshots in binary form).
    ///
    /// # Errors
    ///
    /// Returns an error string for unknown commands.
    pub fn command(&self, cmd: &str) -> Result<String, String> {
        match cmd.trim() {
            "start" => {
                self.enable_all();
                Ok("vscsiStats: started collection".to_owned())
            }
            "stop" => {
                self.disable_all();
                Ok("vscsiStats: stopped collection".to_owned())
            }
            "reset" => {
                self.reset_all();
                Ok("vscsiStats: histograms reset".to_owned())
            }
            "status" => Ok(format!(
                "vscsiStats: collection {} (epoch {})",
                if self.is_enabled() { "ON" } else { "OFF" },
                self.epoch(),
            )),
            "health" => {
                let mut out = self.health_snapshot().render();
                if let Some(h) = lock(&self.ckpt_health).as_ref() {
                    out.push_str("  checkpoint: ");
                    out.push_str(&h.render());
                    out.push('\n');
                }
                Ok(out)
            }
            "checkpoint" => match lock(&self.ckpt_health).as_ref() {
                Some(h) => {
                    h.request_now();
                    Ok(format!("vscsiStats: checkpoint requested ({})", h.render()))
                }
                None => Err("no checkpoint plane attached".to_owned()),
            },
            // vCenter spells it FetchAllHistograms; accept any casing.
            c if c.eq_ignore_ascii_case("fetchallhistograms") => Ok(self.fetch_all_histograms()),
            "list" => {
                let mut out = String::new();
                for s in self.summaries() {
                    out.push_str(&s.to_string());
                    out.push('\n');
                }
                if out.is_empty() {
                    out.push_str("no targets\n");
                }
                Ok(out)
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;
    use vscsi::{IoDirection, Lba, RequestId, VDiskId, VmId};

    fn req(target: TargetId, id: u64, t_us: u64) -> IoRequest {
        IoRequest::new(
            RequestId(id),
            target,
            IoDirection::Read,
            Lba::new(id * 8),
            8,
            SimTime::from_micros(t_us),
        )
    }

    #[test]
    fn disabled_service_records_nothing() {
        let s = StatsService::default();
        s.handle_issue(&req(TargetId::default(), 0, 0));
        assert!(s.summaries().is_empty());
        assert!(s.targets().is_empty());
    }

    #[test]
    fn enable_collect_disable_keeps_data() {
        let s = StatsService::default();
        let t = TargetId::new(VmId(1), VDiskId(0));
        s.enable_all();
        s.handle_issue(&req(t, 0, 0));
        s.disable_all();
        // New commands ignored while off...
        s.handle_issue(&req(t, 1, 10));
        // ...but previous data remains readable.
        let c = s.collector(t).unwrap();
        assert_eq!(c.issued_commands(), 1);
    }

    #[test]
    fn per_target_isolation() {
        let s = StatsService::default();
        s.enable_all();
        let a = TargetId::new(VmId(1), VDiskId(0));
        let b = TargetId::new(VmId(2), VDiskId(0));
        s.handle_issue(&req(a, 0, 0));
        s.handle_issue(&req(b, 1, 5));
        s.handle_issue(&req(b, 2, 9));
        assert_eq!(s.collector(a).unwrap().issued_commands(), 1);
        assert_eq!(s.collector(b).unwrap().issued_commands(), 2);
        assert_eq!(s.targets(), vec![a, b]);
    }

    #[test]
    fn completion_routes_to_collector() {
        let s = StatsService::default();
        s.enable_all();
        let t = TargetId::default();
        let r = req(t, 0, 100);
        s.handle_issue(&r);
        s.handle_complete(&IoCompletion::new(r, SimTime::from_micros(600)));
        let summary = &s.summaries()[0];
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.mean_latency_us, Some(500.0));
        assert_eq!(summary.outstanding, 0);
    }

    #[test]
    fn completion_without_state_is_ignored() {
        let s = StatsService::default();
        let r = req(TargetId::default(), 0, 0);
        // Never issued through the service (it was disabled) — must not panic.
        s.handle_complete(&IoCompletion::new(r, SimTime::from_micros(10)));
    }

    #[test]
    fn tracing_works_while_histograms_off() {
        let s = StatsService::default();
        let t = TargetId::default();
        s.start_trace(t, TraceCapacity::Unbounded);
        let r = req(t, 0, 0);
        s.handle_issue(&r);
        s.handle_complete(&IoCompletion::new(r, SimTime::from_micros(50)));
        let records = s.stop_trace(t);
        assert_eq!(records.len(), 1);
        assert!(records[0].complete_ns.is_some());
        // Histograms were never created.
        assert!(s.collector(t).is_none());
        // A second stop returns nothing.
        assert!(s.stop_trace(t).is_empty());
    }

    #[test]
    fn streaming_trace_through_service() {
        #[derive(Debug, Default, Clone)]
        struct SharedSink(Arc<Mutex<Vec<TraceRecord>>>);
        impl TraceSink for SharedSink {
            fn append(&mut self, record: &TraceRecord) {
                lock(&self.0).push(*record);
            }
        }
        let s = StatsService::default();
        let t = TargetId::default();
        let sink = SharedSink::default();
        s.start_trace_streaming(t, Box::new(sink.clone()));
        let r0 = req(t, 0, 100);
        let r1 = req(t, 1, 200);
        s.handle_issue(&r0);
        s.handle_issue(&r1);
        s.handle_complete(&IoCompletion::new(r0, SimTime::from_micros(300)));
        // One completed record reached the sink; one is still in flight.
        assert_eq!(lock(&sink.0).len(), 1);
        // stop_trace flushes the in-flight tail into the sink and returns
        // nothing — the sink owns the trace.
        assert!(s.stop_trace(t).is_empty());
        let records = lock(&sink.0).clone();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records.iter().filter(|r| r.complete_ns.is_some()).count(),
            1
        );
    }

    #[test]
    fn tracer_on_one_target_does_not_wake_others() {
        // A disabled service with a tracer on target A must still take the
        // zero-cost path for target B — and must not create state for B,
        // even when B hashes to A's shard.
        let s = StatsService::with_shards(CollectorConfig::default(), 1);
        assert_eq!(s.shard_count(), 1);
        let a = TargetId::new(VmId(1), VDiskId(0));
        let b = TargetId::new(VmId(2), VDiskId(0));
        s.start_trace(a, TraceCapacity::Unbounded);
        s.handle_issue(&req(b, 0, 0));
        assert_eq!(s.targets(), vec![a]);
        assert!(s.stop_trace(a).is_empty());
    }

    #[test]
    fn reset_all_clears_counts() {
        let s = StatsService::default();
        s.enable_all();
        let t = TargetId::default();
        s.handle_issue(&req(t, 0, 0));
        s.reset_all();
        assert_eq!(s.collector(t).unwrap().issued_commands(), 0);
    }

    #[test]
    fn command_interface() {
        let s = StatsService::default();
        assert!(s.command("status").unwrap().contains("OFF"));
        s.command("start").unwrap();
        assert!(s.is_enabled());
        assert!(s.command("status").unwrap().contains("ON"));
        s.handle_issue(&req(TargetId::default(), 0, 0));
        assert!(s.command("list").unwrap().contains("vm0"));
        assert!(s.command("status").unwrap().contains("epoch 0"));
        s.command("reset").unwrap();
        assert!(s.command("status").unwrap().contains("epoch 1"));
        s.command("stop").unwrap();
        assert!(!s.is_enabled());
        assert!(s.command("bogus").is_err());
        assert_eq!(
            StatsService::default().command("list").unwrap(),
            "no targets\n"
        );
    }

    #[test]
    fn reset_bumps_epoch_and_set_epoch_overrides() {
        let s = StatsService::default();
        assert_eq!(s.epoch(), 0);
        s.reset_all();
        s.reset_all();
        assert_eq!(s.epoch(), 2, "every reset is one announced regression");
        s.set_epoch(9);
        assert_eq!(s.epoch(), 9);
    }

    #[test]
    fn fetch_all_histograms_dumps_every_slot() {
        let s = StatsService::default();
        s.enable_all();
        let t = TargetId::default();
        let r = req(t, 0, 0);
        s.handle_issue(&r);
        s.handle_complete(&IoCompletion::new(r, SimTime::from_micros(100)));
        let dump = s.fetch_all_histograms();
        assert!(dump.starts_with("FetchAllHistograms: 1 target(s)"));
        assert!(dump.contains(&format!("== {t} ==")));
        // Every metric × lens slot is inventoried, populated or not.
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                assert!(
                    dump.contains(&format!("Histogram: {metric} ({lens})")),
                    "missing slot {metric} ({lens})"
                );
            }
        }
        assert!(dump.contains("no samples"), "idle slots listed as empty");
        // The command surface accepts vCenter's casing and ours.
        assert_eq!(s.command("FetchAllHistograms").unwrap(), dump);
        assert_eq!(s.command("fetchallhistograms").unwrap(), dump);
        assert_eq!(
            StatsService::default()
                .command("fetchallhistograms")
                .unwrap(),
            "FetchAllHistograms: 0 target(s)\n"
        );
    }

    #[test]
    fn summary_display() {
        let s = StatsService::default();
        s.enable_all();
        let t = TargetId::default();
        let r = req(t, 0, 0);
        s.handle_issue(&r);
        s.handle_complete(&IoCompletion::new(r, SimTime::from_micros(100)));
        let line = s.summaries()[0].to_string();
        assert!(line.contains("issued=1"));
        assert!(line.contains("meanLat=100us"));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        for (requested, expect) in [(0, 1), (1, 1), (2, 2), (3, 4), (16, 16), (17, 32)] {
            let s = StatsService::with_shards(CollectorConfig::default(), requested);
            assert_eq!(s.shard_count(), expect, "requested {requested}");
        }
    }

    #[test]
    fn targets_spread_across_shards() {
        let s = StatsService::default();
        let mut used = std::collections::BTreeSet::new();
        for vm in 0..8u32 {
            used.insert(s.shard_index(TargetId::new(VmId(vm), VDiskId(0))));
        }
        // 8 sequential VM ids over 16 shards must not all collide; the
        // multiplicative hash actually gives all 8 distinct slots.
        assert!(used.len() >= 6, "shard spread = {used:?}");
    }

    #[test]
    fn batch_equals_per_event_ingestion() {
        let a = TargetId::new(VmId(1), VDiskId(0));
        let b = TargetId::new(VmId(2), VDiskId(1));
        let mut events = Vec::new();
        for i in 0..64u64 {
            let target = if i % 3 == 0 { a } else { b };
            let r = IoRequest::new(
                RequestId(i),
                target,
                if i % 2 == 0 {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                },
                Lba::new((i * 131) % 10_000),
                8,
                SimTime::from_micros(i * 10),
            );
            events.push(VscsiEvent::Issue(r));
            events.push(VscsiEvent::Complete(IoCompletion::new(
                r,
                SimTime::from_micros(i * 10 + 7),
            )));
        }

        let batched = StatsService::default();
        batched.enable_all();
        batched.handle_batch(&events);

        let serial = StatsService::default();
        serial.enable_all();
        for ev in &events {
            match ev {
                VscsiEvent::Issue(r) => serial.handle_issue(r),
                VscsiEvent::Complete(c) => serial.handle_complete(c),
            }
        }

        for target in [a, b] {
            let cb = batched.collector(target).unwrap();
            let cs = serial.collector(target).unwrap();
            assert_eq!(cb.issued_commands(), cs.issued_commands());
            assert_eq!(cb.completed_commands(), cs.completed_commands());
            for metric in Metric::ALL {
                for lens in [Lens::All, Lens::Reads, Lens::Writes] {
                    assert_eq!(
                        cb.histogram(metric, lens).counts(),
                        cs.histogram(metric, lens).counts(),
                        "{target} {metric} {lens:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_on_disabled_service_records_nothing() {
        let s = StatsService::default();
        let r = req(TargetId::default(), 0, 0);
        s.handle_batch(&[
            VscsiEvent::Issue(r),
            VscsiEvent::Complete(IoCompletion::new(r, SimTime::from_micros(5))),
        ]);
        assert!(s.targets().is_empty());
        s.handle_batch(&[]);
    }

    #[test]
    fn batch_feeds_tracers_while_disabled() {
        let s = StatsService::default();
        let t = TargetId::default();
        s.start_trace(t, TraceCapacity::Unbounded);
        let r = req(t, 0, 0);
        s.handle_batch(&[
            VscsiEvent::Issue(r),
            VscsiEvent::Complete(IoCompletion::new(r, SimTime::from_micros(9))),
        ]);
        let records = s.stop_trace(t);
        assert_eq!(records.len(), 1);
        assert!(records[0].complete_ns.is_some());
        assert!(s.collector(t).is_none());
    }

    #[test]
    fn collectors_snapshot_is_sorted_and_consistent() {
        let s = StatsService::default();
        s.enable_all();
        // More targets than shards, to exercise collisions.
        for vm in (0..40u32).rev() {
            s.handle_issue(&req(
                TargetId::new(VmId(vm), VDiskId(vm % 3)),
                u64::from(vm),
                0,
            ));
        }
        let snap = s.collectors();
        assert_eq!(snap.len(), 40);
        let targets: Vec<TargetId> = snap.iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, s.targets());
        assert!(targets.windows(2).all(|w| w[0] < w[1]));
        for (_, c) in &snap {
            assert_eq!(c.issued_commands(), 1);
        }
    }

    // ---- sentinel supervision -------------------------------------------

    use crate::sentinel::{ChaosSpec, DegradeLevel};

    /// A sentinel config with thresholds far above anything the tests
    /// offer, so only the knobs a test overrides have any effect.
    fn quiet_sentinel(seed: u64) -> SentinelConfig {
        let mut cfg = SentinelConfig::new(seed);
        cfg.full_max_rate = u64::MAX;
        cfg.sampled_max_rate = u64::MAX;
        cfg.counters_max_rate = u64::MAX;
        cfg
    }

    #[test]
    fn sentinel_governor_degrades_and_conserves() {
        let s = StatsService::default();
        s.enable_all();
        let mut cfg = SentinelConfig::new(11);
        cfg.window_ns = 1_000;
        cfg.full_max_rate = 4;
        cfg.sampled_max_rate = 8;
        cfg.counters_max_rate = 16;
        s.enable_sentinel(cfg);
        assert!(s.sentinel_enabled());

        let t = TargetId::new(VmId(1), VDiskId(0));
        // ~100 events per 1000 ns window: way past every threshold.
        for i in 0..2_000u64 {
            s.handle_issue(&IoRequest::new(
                RequestId(i),
                t,
                IoDirection::Read,
                Lba::new(i * 8),
                8,
                SimTime::from_nanos(i * 10),
            ));
        }
        let health = s.health_snapshot();
        assert!(health.conserves(), "conservation must hold under overload");
        assert_eq!(health.worst_level(), DegradeLevel::Shed);
        let totals = health.totals();
        assert_eq!(totals.offered, 2_000);
        assert!(totals.shed > 0);
        assert!(totals.ingested < 2_000);
        // The collector saw only what the governor admitted.
        assert_eq!(s.collector(t).unwrap().issued_commands(), totals.ingested);
    }

    #[test]
    fn sentinel_sampled_histograms_are_subsets() {
        let t = TargetId::new(VmId(3), VDiskId(1));
        let mut events = Vec::new();
        for i in 0..400u64 {
            let r = IoRequest::new(
                RequestId(i),
                t,
                if i % 3 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((i * 37) % 5_000),
                8 + (i % 4) as u32 * 8,
                SimTime::from_micros(i * 5),
            );
            events.push(VscsiEvent::Issue(r));
            events.push(VscsiEvent::Complete(IoCompletion::new(
                r,
                SimTime::from_micros(i * 5 + 3),
            )));
        }

        let full = StatsService::default();
        full.enable_all();
        full.handle_batch(&events);

        let sampled = StatsService::default();
        sampled.enable_all();
        let mut cfg = quiet_sentinel(77);
        cfg.initial_level = DegradeLevel::SampledSeries;
        sampled.enable_sentinel(cfg);
        sampled.handle_batch(&events);

        let cf = full.collector(t).unwrap();
        let cs = sampled.collector(t).unwrap();
        assert!(cs.issued_commands() < cf.issued_commands());
        assert!(cs.issued_commands() > 0);
        // The per-command coin keeps issue and completion together, so the
        // kept stream is an exact subset: per-bin counts can only shrink.
        for metric in [Metric::IoLength, Metric::Latency] {
            for lens in [Lens::All, Lens::Reads, Lens::Writes] {
                let hf = cf.histogram(metric, lens);
                let hs = cs.histogram(metric, lens);
                for (bin, (&a, &b)) in hs.counts().iter().zip(hf.counts()).enumerate() {
                    assert!(
                        a <= b,
                        "{metric} {lens:?} bin {bin}: sampled {a} > full {b}"
                    );
                }
            }
        }
        let health = sampled.health_snapshot();
        assert!(health.conserves());
        assert!(health.totals().sampled_out > 0);
    }

    #[test]
    fn chaos_panic_quarantines_salvages_and_counts_stale() {
        let s = StatsService::default();
        s.enable_all();
        let wounded = TargetId::new(VmId(7), VDiskId(0));
        let healthy = TargetId::new(VmId(1), VDiskId(0));
        assert_ne!(
            s.shard_index(wounded),
            s.shard_index(healthy),
            "test targets must land on different shards"
        );
        let mut cfg = quiet_sentinel(5);
        cfg.chaos = Some(ChaosSpec {
            vm: Some(7),
            lba_min: 1_000_000,
            lba_max: 1_000_100,
            max_panics: 1,
        });
        s.enable_sentinel(cfg);

        // Clean traffic on both targets; r0 stays in flight on the shard
        // that is about to be wounded.
        let r0 = req(wounded, 0, 0);
        s.handle_issue(&r0);
        s.handle_issue(&req(healthy, 1, 5));

        // The poisoned command panics inside the shard boundary; the
        // service must absorb it.
        s.handle_issue(&IoRequest::new(
            RequestId(2),
            wounded,
            IoDirection::Read,
            Lba::new(1_000_050),
            8,
            SimTime::from_micros(10),
        ));

        let health = s.health_snapshot();
        assert_eq!(health.quarantines(), 1);
        assert_eq!(health.salvages_total, 1);
        let record = &health.salvages[0];
        assert_eq!(record.shard, s.shard_index(wounded));
        assert_eq!(record.generation, 0);
        assert_eq!(record.targets.len(), 1);
        assert_eq!(record.targets[0].target, wounded);
        assert_eq!(record.targets[0].issued, 1);
        assert_eq!(record.targets[0].outstanding, 1);

        // r0's completion arrives after the rebuild: counted stale, not
        // resurrected.
        s.handle_complete(&IoCompletion::new(r0, SimTime::from_micros(50)));
        let health = s.health_snapshot();
        assert_eq!(health.stale_completions(), 1);
        assert!(s.collector(wounded).is_none());

        // The healthy shard never noticed; the wounded one rebuilds lazily.
        assert_eq!(s.collector(healthy).unwrap().issued_commands(), 1);
        s.handle_issue(&req(wounded, 3, 60));
        assert_eq!(s.collector(wounded).unwrap().issued_commands(), 1);
        assert!(s.health_snapshot().conserves());
    }

    #[test]
    fn late_completion_after_reissue_counts_stale_not_latency() {
        let s = StatsService::default();
        s.enable_all();
        let wounded = TargetId::new(VmId(7), VDiskId(0));
        let mut cfg = quiet_sentinel(5);
        cfg.chaos = Some(ChaosSpec {
            vm: Some(7),
            lba_min: 1_000_000,
            lba_max: 1_000_100,
            max_panics: 1,
        });
        s.enable_sentinel(cfg);

        // A queue-depth burst at one timestamp, as a guest issues it: r0
        // goes in flight, the next command panics the shard, and the rest
        // of the burst re-creates the target before r0 completes.
        let r0 = req(wounded, 0, 0);
        s.handle_issue(&r0);
        let poisoned = IoRequest::new(
            RequestId(1),
            wounded,
            IoDirection::Read,
            Lba::new(1_000_050),
            8,
            SimTime::ZERO,
        );
        s.handle_issue(&poisoned);
        let r2 = req(wounded, 2, 0);
        s.handle_issue(&r2);
        assert_eq!(s.collector(wounded).unwrap().issued_commands(), 1);

        // Both old-generation completions are stale; neither is binned as
        // a latency sample of the new collector.
        s.handle_complete(&IoCompletion::new(r0, SimTime::from_micros(50)));
        s.handle_complete(&IoCompletion::new(poisoned, SimTime::from_micros(60)));
        let c = s.collector(wounded).unwrap();
        assert_eq!(c.completed_commands(), 0);
        assert_eq!(c.outstanding_now(), 1);
        assert_eq!(s.health_snapshot().stale_completions(), 2);

        // The new generation's own command completes normally.
        s.handle_complete(&IoCompletion::new(r2, SimTime::from_micros(70)));
        let c = s.collector(wounded).unwrap();
        assert_eq!(c.completed_commands(), 1);
        assert_eq!(c.histogram(Metric::Latency, Lens::All).total(), 1);
        assert_eq!(s.health_snapshot().stale_completions(), 2);
        assert!(s.health_snapshot().conserves());
    }

    /// CPU time this thread has used so far, where the platform tells.
    fn thread_cpu() -> Option<Duration> {
        // Fields 14 and 15 of /proc/thread-self/stat (utime, stime), counted
        // after the parenthesised command name, in 10 ms ticks.
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
        let ticks = fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?;
        Some(Duration::from_millis(10 * ticks))
    }

    #[test]
    fn readers_skip_wedged_shard_instead_of_blocking() {
        let s = StatsService::with_shards(CollectorConfig::default(), 1);
        s.enable_all();
        let mut cfg = quiet_sentinel(1);
        let patience = Duration::from_millis(100);
        cfg.reader_patience = patience;
        s.enable_sentinel(cfg);
        s.handle_issue(&req(TargetId::default(), 0, 0));
        assert_eq!(s.summaries().len(), 1);
        let trips = || s.health_snapshot().shard_watchdog_trips;
        assert_eq!(trips(), 0);

        // Wedge the only shard, as a stuck writer would. Each read waits
        // out its patience — no less, and not much more than one nap more
        // — then gives up, booking exactly one trip.
        let guard = lock(&s.shards[0].state);
        let cpu = thread_cpu();
        let started = Instant::now();
        assert!(s.summaries().is_empty());
        let waited = started.elapsed();
        assert!(
            waited >= patience && waited < 2 * patience,
            "gave up after {waited:?}, patience {patience:?}"
        );
        assert!(s.targets().is_empty());
        let health = s.health_snapshot();
        assert!(!health.shards[0].reachable);
        assert_eq!(health.shard_watchdog_trips, 3);
        // Three patiences of wall clock cost next to no CPU: the reader
        // sleeps between tries instead of spinning on the lock.
        if let (Some(before), Some(after)) = (cpu, thread_cpu()) {
            assert!(
                after - before <= patience / 2,
                "reader burned {:?} of CPU behind a wedged shard",
                after - before
            );
        }
        drop(guard);

        // Released: everything is visible again at no further trip.
        assert_eq!(s.summaries().len(), 1);
        assert!(s.health_snapshot().shards[0].reachable);
        assert_eq!(trips(), 3);
    }

    #[test]
    fn panic_under_the_unsupervised_shard_lock_does_not_poison_it() {
        /// Fails on its first record only, so the tracer's drop can flush.
        #[derive(Debug)]
        struct FailsOnce(bool);
        impl TraceSink for FailsOnce {
            fn append(&mut self, _: &TraceRecord) {
                if !std::mem::replace(&mut self.0, true) {
                    panic!("sink failure under the shard lock");
                }
            }
        }
        let s = StatsService::with_shards(CollectorConfig::default(), 1);
        s.enable_all();
        let t = TargetId::default();
        s.start_trace_streaming(t, Box::new(FailsOnce(false)));
        let r0 = req(t, 0, 0);
        s.handle_issue(&r0);
        // No sentinel, so nothing fences the hook: the panic unwinds through
        // `handle_complete` while it holds the shard's guard.
        let done = IoCompletion::new(r0, SimTime::from_micros(40));
        assert!(catch_unwind(AssertUnwindSafe(|| s.handle_complete(&done))).is_err());

        // Readers, the checkpoint census and the next hook all get the lock.
        assert_eq!(s.summaries()[0].completed, 1);
        assert_eq!(s.checkpoint_snapshot().targets.len(), 1);
        s.handle_issue(&req(t, 1, 50));
        assert_eq!(s.summaries()[0].issued, 2);
    }

    #[test]
    fn watchdog_check_flags_stuck_shards() {
        let s = StatsService::default();
        let mut cfg = quiet_sentinel(1);
        cfg.watchdog_budget_ns = 1_000;
        s.enable_sentinel(cfg);
        assert!(s.watchdog_check(5_000).is_empty());
        s.debug_mark_busy(3, 500);
        assert_eq!(s.watchdog_check(5_000), vec![3]);
        assert_eq!(s.health_snapshot().shard_watchdog_trips, 1);
        s.debug_mark_busy(3, u64::MAX);
        assert!(s.watchdog_check(5_000).is_empty());
    }

    #[test]
    fn health_command_renders_snapshot() {
        let s = StatsService::default();
        let out = s.command("health").unwrap();
        assert!(out.contains("sentinel health"));
        s.enable_all();
        s.enable_sentinel(quiet_sentinel(2));
        s.handle_issue(&req(TargetId::default(), 0, 0));
        let out = s.command("health").unwrap();
        assert!(out.contains("conserved=true"));
    }

    #[test]
    fn sentinel_full_level_matches_unsupervised_ingestion() {
        // With the sentinel armed but calm (Full everywhere), histograms
        // must be bit-identical to the unsupervised pipeline.
        let t = TargetId::new(VmId(4), VDiskId(2));
        let mut events = Vec::new();
        for i in 0..128u64 {
            let r = req(t, i, i * 10);
            events.push(VscsiEvent::Issue(r));
            events.push(VscsiEvent::Complete(IoCompletion::new(
                r,
                SimTime::from_micros(i * 10 + 4),
            )));
        }
        let plain = StatsService::default();
        plain.enable_all();
        plain.handle_batch(&events);
        let supervised = StatsService::default();
        supervised.enable_all();
        supervised.enable_sentinel(quiet_sentinel(9));
        supervised.handle_batch(&events);
        let cp = plain.collector(t).unwrap();
        let cs = supervised.collector(t).unwrap();
        for metric in Metric::ALL {
            for lens in [Lens::All, Lens::Reads, Lens::Writes] {
                assert_eq!(
                    cp.histogram(metric, lens).counts(),
                    cs.histogram(metric, lens).counts(),
                    "{metric} {lens:?}"
                );
            }
        }
        let totals = supervised.health_snapshot().totals();
        assert_eq!(totals.offered, totals.ingested);
    }
}
