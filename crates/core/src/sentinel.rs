//! Supervision and graceful degradation for the stats service.
//!
//! The paper's always-on promise (§3, Table 2) only holds if the service
//! can never hurt the hypervisor it observes. This module supplies the
//! three defenses the sharded [`StatsService`](crate::StatsService) wires
//! in (see `DESIGN.md` §9):
//!
//! * **Overload governor** — per-shard ingest-rate and memory accounting
//!   drives the degradation ladder [`DegradeLevel`]:
//!   `Full → SampledSeries → CountersOnly → Shed`. Sampling decisions are
//!   a pure function of `(seed, request id)` via splitmix64, so a degraded
//!   run replays bit-exactly; recovery climbs one rung at a time and only
//!   after [`SentinelConfig::recover_windows`] consecutive calm windows
//!   with a hysteresis margin (70 % of the rung's threshold).
//! * **Watchdog** — virtual-clock heartbeats per shard (and real-time
//!   trip counters surfaced by trace sinks via [`SinkHealth`]) detect
//!   ingests stuck beyond [`SentinelConfig::watchdog_budget_ns`].
//! * **Self-healing bookkeeping** — quarantine generations, stale
//!   completion counts, and [`SalvageRecord`]s snapshotting what a
//!   wounded shard held before it was rebuilt.
//!
//! Every offered event is classified exactly once, so the conservation
//! identity `ingested + sampled_out + shed == offered` holds by
//! construction at every instant ([`LoadCounters::conserves`]).

use simkit::splitmix64;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use vscsi::{IoRequest, TargetId};

/// One rung of the degradation ladder, worst last. `Ord` follows severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Every event takes the full histogram path.
    #[default]
    Full = 0,
    /// Events are admitted by a deterministic per-command coin; the kept
    /// subset takes the full path, the rest are accounted `sampled_out`.
    SampledSeries = 1,
    /// Histograms stop; only cheap per-shard counters (events, bytes) are
    /// maintained. Events are accounted `sampled_out`.
    CountersOnly = 2,
    /// Nothing is recorded beyond the shed counter itself.
    Shed = 3,
}

impl DegradeLevel {
    /// All rungs, best first.
    pub const ALL: [DegradeLevel; 4] = [
        DegradeLevel::Full,
        DegradeLevel::SampledSeries,
        DegradeLevel::CountersOnly,
        DegradeLevel::Shed,
    ];

    /// The next-better rung (saturating at [`DegradeLevel::Full`]).
    pub fn step_down(self) -> DegradeLevel {
        match self {
            DegradeLevel::Full | DegradeLevel::SampledSeries => DegradeLevel::Full,
            DegradeLevel::CountersOnly => DegradeLevel::SampledSeries,
            DegradeLevel::Shed => DegradeLevel::CountersOnly,
        }
    }

    /// Rung index (0 = Full .. 3 = Shed).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`DegradeLevel::index`]; `None` for out-of-range rungs
    /// (e.g. corrupt checkpoint bytes).
    pub fn from_index(i: usize) -> Option<DegradeLevel> {
        DegradeLevel::ALL.get(i).copied()
    }
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeLevel::Full => "Full",
            DegradeLevel::SampledSeries => "SampledSeries",
            DegradeLevel::CountersOnly => "CountersOnly",
            DegradeLevel::Shed => "Shed",
        })
    }
}

/// Deterministic chaos seam: commands matching the spec panic *inside*
/// the shard ingest boundary, exercising the quarantine path. Purely a
/// test/bench facility — production configs leave
/// [`SentinelConfig::chaos`] as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Only commands from this VM id panic (`None` = any VM).
    pub vm: Option<u32>,
    /// First LBA of the poisoned band (inclusive).
    pub lba_min: u64,
    /// Last LBA of the poisoned band (inclusive).
    pub lba_max: u64,
    /// At most this many injected panics per shard.
    pub max_panics: u32,
}

impl ChaosSpec {
    /// Whether this issue falls in the poisoned band.
    pub fn matches(&self, req: &IoRequest) -> bool {
        self.vm.is_none_or(|vm| vm == req.target.vm.0)
            && (self.lba_min..=self.lba_max).contains(&req.lba.sector())
    }
}

/// Keep probability at `SampledSeries`, in 1024ths: half.
const SAMPLE_KEEP_PER_1024: u32 = 512;
/// Hysteresis margin for recovery: a window only counts as calm if the
/// observed rate, inflated by `1000 / RECOVER_PER_MILLE`, still maps below
/// the current rung (the rate must be under 70% of the rung's admission
/// threshold).
const RECOVER_PER_MILLE: u64 = 700;

/// Tuning for the sentinel. All rate thresholds are events (issues plus
/// completions) per [`SentinelConfig::window_ns`] of *virtual* time, so
/// the governor is deterministic for a deterministic event stream.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Seed for the deterministic sampling coin.
    pub seed: u64,
    /// Width of the rate-accounting window, virtual nanoseconds.
    pub window_ns: u64,
    /// Highest per-window event count at which a shard stays `Full`.
    pub full_max_rate: u64,
    /// Highest per-window event count for `SampledSeries`; above it the
    /// shard drops to `CountersOnly`.
    pub sampled_max_rate: u64,
    /// Highest per-window event count for `CountersOnly`; above it the
    /// shard sheds.
    pub counters_max_rate: u64,
    /// Consecutive calm windows required to climb one rung.
    pub recover_windows: u32,
    /// Per-shard collector memory budget in bytes; once exceeded, the
    /// shard is clamped to at least `CountersOnly` (no new collectors)
    /// until a quarantine rebuild releases the memory. 0 = unlimited.
    pub memory_budget_bytes: usize,
    /// Virtual-clock budget after which an in-flight shard ingest counts
    /// as a watchdog trip.
    pub watchdog_budget_ns: u64,
    /// Real-time budget snapshot/read paths wait on a shard lock before
    /// skipping the shard (poison recovery: a wedged writer degrades the
    /// report instead of wedging the reader).
    pub reader_patience: Duration,
    /// Ladder rung shards start at (tests force degraded levels here).
    pub initial_level: DegradeLevel,
    /// Optional deterministic panic injection (chaos testing only).
    pub chaos: Option<ChaosSpec>,
}

impl SentinelConfig {
    /// Production-shaped defaults: 1 ms windows, degrade past 4k/16k/64k
    /// events per window, keep half while sampling, recover after 3 calm
    /// windows at 70% headroom.
    pub fn new(seed: u64) -> Self {
        SentinelConfig {
            seed,
            window_ns: 1_000_000,
            full_max_rate: 4_096,
            sampled_max_rate: 16_384,
            counters_max_rate: 65_536,
            recover_windows: 3,
            memory_budget_bytes: 0,
            watchdog_budget_ns: 50_000_000,
            reader_patience: Duration::from_millis(500),
            initial_level: DegradeLevel::Full,
            chaos: None,
        }
    }
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig::new(0)
    }
}

/// How the governor classified one offered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Full histogram path.
    Ingest,
    /// Sampled away at `SampledSeries`; light counters only.
    SampleOut,
    /// Degraded to `CountersOnly`; light counters only.
    CountOnly,
    /// Dropped entirely at `Shed`.
    Shed,
}

/// Per-shard load classification counters. Every offered event lands in
/// exactly one of `ingested` / `sampled_out` / `shed`, so
/// [`LoadCounters::conserves`] holds at every instant by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadCounters {
    /// Events the governor saw (issues + completions while enabled).
    pub offered: u64,
    /// Events admitted to the full histogram path.
    pub ingested: u64,
    /// Events degraded away (sampling coin or `CountersOnly`).
    pub sampled_out: u64,
    /// Events dropped entirely at `Shed`.
    pub shed: u64,
    /// Events offered while the shard sat at each ladder rung.
    pub offered_at_level: [u64; 4],
    /// Events that still reached the cheap counters while degraded.
    pub light_events: u64,
    /// Bytes those degraded issues carried.
    pub light_bytes: u64,
    /// Completions that arrived for state lost to a quarantine rebuild.
    pub stale_completions: u64,
    /// Times this shard was quarantined and rebuilt.
    pub quarantines: u64,
}

impl LoadCounters {
    /// The conservation identity: `ingested + sampled_out + shed ==
    /// offered`.
    pub fn conserves(&self) -> bool {
        self.ingested + self.sampled_out + self.shed == self.offered
    }

    /// Accumulates `other` into `self` (aggregation across shards).
    pub fn merge(&mut self, other: &LoadCounters) {
        self.offered += other.offered;
        self.ingested += other.ingested;
        self.sampled_out += other.sampled_out;
        self.shed += other.shed;
        for (a, b) in self
            .offered_at_level
            .iter_mut()
            .zip(other.offered_at_level.iter())
        {
            *a += b;
        }
        self.light_events += other.light_events;
        self.light_bytes += other.light_bytes;
        self.stale_completions += other.stale_completions;
        self.quarantines += other.quarantines;
    }
}

/// A shard governor's complete dynamic state in plain exported form: the
/// current ladder rung, the rate-window phase, the quarantine generation,
/// and the full admission ledger. What the checkpoint plane persists so a
/// restarted service resumes with the *same* degradation posture and a
/// conserving ledger — not a fresh governor that forgot it was overloaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SentinelState {
    /// Current degradation rung.
    pub level: DegradeLevel,
    /// Start of the current rate window (`u64::MAX` = not yet anchored).
    pub window_start_ns: u64,
    /// Events counted in the current window so far.
    pub window_events: u64,
    /// Consecutive calm windows toward recovery.
    pub calm_windows: u32,
    /// Ladder moves in either direction.
    pub level_transitions: u64,
    /// Estimated resident collector bytes (memory-clamp input).
    pub memory_bytes: u64,
    /// Chaos panics already fired (so a restore doesn't re-arm them).
    pub chaos_fired: u32,
    /// Quarantine generation.
    pub generation: u64,
    /// The admission ledger (`ingested + sampled_out + shed == offered`).
    pub counters: LoadCounters,
}

/// The sampling coin: pure in `(seed, key)`, so a command's issue and
/// completion (both keyed by the request id) always agree, and the kept
/// set at `SampledSeries` is an exact subset of the `Full` stream.
#[inline]
pub(crate) fn keep_coin(seed: u64, key: u64, keep_per_1024: u32) -> bool {
    (splitmix64(seed ^ splitmix64(key)) & 1023) < u64::from(keep_per_1024)
}

/// Per-shard governor state. Lives inside the shard lock, so all methods
/// take `&mut self` without further synchronization.
#[derive(Debug, Default)]
pub(crate) struct ShardSentinel {
    config: Option<Arc<SentinelConfig>>,
    level: DegradeLevel,
    /// Start of the current rate window; `u64::MAX` until the first event
    /// anchors it.
    window_start_ns: u64,
    window_events: u64,
    calm_windows: u32,
    level_transitions: u64,
    /// Estimated collector bytes resident in this shard (for the memory
    /// clamp); zeroed on quarantine rebuild.
    memory_bytes: usize,
    chaos_fired: u32,
    generation: u64,
    /// Commands whose issue reached this shard since its last quarantine
    /// rebuild; `None` until a rebuild happens in this process (a restored
    /// checkpoint does not carry it). A completion is applied only when
    /// its issue is in here, because the wounded VM's next issue
    /// re-creates the target long before the old generation's completions
    /// drain, so "target present" cannot tell the generations apart.
    since_rebuild: Option<BTreeSet<(TargetId, u64)>>,
    counters: LoadCounters,
}

impl ShardSentinel {
    pub(crate) fn enable(&mut self, config: Arc<SentinelConfig>) {
        self.level = config.initial_level;
        self.window_start_ns = u64::MAX;
        self.window_events = 0;
        self.calm_windows = 0;
        self.config = Some(config);
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Exports the governor's dynamic state (everything except the config,
    /// which the restoring service re-supplies) for the checkpoint plane.
    pub(crate) fn export_state(&self) -> SentinelState {
        SentinelState {
            level: self.level,
            window_start_ns: self.window_start_ns,
            window_events: self.window_events,
            calm_windows: self.calm_windows,
            level_transitions: self.level_transitions,
            memory_bytes: self.memory_bytes as u64,
            chaos_fired: self.chaos_fired,
            generation: self.generation,
            counters: self.counters,
        }
    }

    /// Overwrites the governor's dynamic state from a checkpoint export.
    /// Leaves `config` untouched: callers enable (or leave disabled) the
    /// sentinel first, then restore, so a restored shard keeps the host's
    /// current supervision policy but the checkpointed posture and ledger.
    pub(crate) fn restore_state(&mut self, state: &SentinelState) {
        self.level = state.level;
        self.window_start_ns = state.window_start_ns;
        self.window_events = state.window_events;
        self.calm_windows = state.calm_windows;
        self.level_transitions = state.level_transitions;
        self.memory_bytes = state.memory_bytes as usize;
        self.chaos_fired = state.chaos_fired;
        self.generation = state.generation;
        self.counters = state.counters;
    }

    /// Classifies one offered event. Disabled sentinels ingest everything
    /// and count nothing (exact legacy behavior).
    pub(crate) fn admit(&mut self, now_ns: u64, key: u64) -> Admission {
        let Some(config) = self.config.clone() else {
            return Admission::Ingest;
        };
        self.roll_windows(now_ns, &config);
        self.window_events += 1;
        let mut level = self.level;
        if self.memory_clamped(&config) && level < DegradeLevel::CountersOnly {
            level = DegradeLevel::CountersOnly;
        }
        self.counters.offered += 1;
        self.counters.offered_at_level[level.index()] += 1;
        match level {
            DegradeLevel::Full => {
                self.counters.ingested += 1;
                Admission::Ingest
            }
            DegradeLevel::SampledSeries => {
                if keep_coin(config.seed, key, SAMPLE_KEEP_PER_1024) {
                    self.counters.ingested += 1;
                    Admission::Ingest
                } else {
                    self.counters.sampled_out += 1;
                    Admission::SampleOut
                }
            }
            DegradeLevel::CountersOnly => {
                self.counters.sampled_out += 1;
                Admission::CountOnly
            }
            DegradeLevel::Shed => {
                self.counters.shed += 1;
                Admission::Shed
            }
        }
    }

    fn memory_clamped(&self, config: &SentinelConfig) -> bool {
        config.memory_budget_bytes > 0 && self.memory_bytes > config.memory_budget_bytes
    }

    fn roll_windows(&mut self, now_ns: u64, config: &SentinelConfig) {
        let w = config.window_ns.max(1);
        if self.window_start_ns == u64::MAX {
            self.window_start_ns = now_ns;
            return;
        }
        if now_ns < self.window_start_ns.saturating_add(w) {
            return;
        }
        // Close the window that just elapsed...
        self.evaluate_window(self.window_events, config);
        self.window_events = 0;
        // ...and credit fully empty windows in the gap as calm, capped so
        // a long silence costs O(recover_windows), not O(gap).
        let advanced = (now_ns - self.window_start_ns) / w;
        let cap = u64::from(config.recover_windows.max(1)).saturating_mul(4) + 4;
        for _ in 1..advanced.min(cap) {
            self.evaluate_window(0, config);
        }
        self.window_start_ns = self.window_start_ns.saturating_add(advanced * w);
    }

    fn evaluate_window(&mut self, rate: u64, config: &SentinelConfig) {
        let target = Self::level_for_rate(rate, config);
        if target > self.level {
            // Degrade immediately: overload must not wait out hysteresis.
            self.level = target;
            self.calm_windows = 0;
            self.level_transitions += 1;
        } else if self.level > DegradeLevel::Full {
            // Recover only with headroom: the rate inflated by the margin
            // must still map below the current rung.
            let inflated = rate.saturating_mul(1000) / RECOVER_PER_MILLE;
            if Self::level_for_rate(inflated, config) < self.level {
                self.calm_windows += 1;
                if self.calm_windows >= config.recover_windows.max(1) {
                    self.level = self.level.step_down();
                    self.calm_windows = 0;
                    self.level_transitions += 1;
                }
            } else {
                self.calm_windows = 0;
            }
        }
    }

    fn level_for_rate(rate: u64, config: &SentinelConfig) -> DegradeLevel {
        if rate <= config.full_max_rate {
            DegradeLevel::Full
        } else if rate <= config.sampled_max_rate {
            DegradeLevel::SampledSeries
        } else if rate <= config.counters_max_rate {
            DegradeLevel::CountersOnly
        } else {
            DegradeLevel::Shed
        }
    }

    /// Accounts an event that was degraded but still visible to the cheap
    /// counters.
    pub(crate) fn note_light(&mut self, bytes: u64) {
        self.counters.light_events += 1;
        self.counters.light_bytes += bytes;
    }

    /// Accounts a completion whose state was lost to a quarantine rebuild.
    pub(crate) fn note_stale_completion(&mut self) {
        self.counters.stale_completions += 1;
    }

    /// Books an issue against the current generation (rebuilt shards only).
    pub(crate) fn note_issue(&mut self, req: &IoRequest) {
        if let Some(issued) = &mut self.since_rebuild {
            issued.insert((req.target, req.id.0));
        }
    }

    /// Retires a completing command: `Some(true)` when its issue belongs
    /// to the current generation, `Some(false)` when it predates the last
    /// rebuild, `None` when this shard was never rebuilt in this process.
    pub(crate) fn retire(&mut self, req: &IoRequest) -> Option<bool> {
        self.since_rebuild
            .as_mut()
            .map(|issued| issued.remove(&(req.target, req.id.0)))
    }

    /// Accounts `n` events dropped at a full ingest ring *before* they
    /// could reach this shard's governor (the thread-per-core pipeline's
    /// lossy backpressure). They were offered to the stats path and lost,
    /// so the conservation identity `ingested + sampled_out + shed ==
    /// offered` only survives if they are booked as offered-and-shed
    /// here. Attributed to the shard's current degrade level: ring
    /// overflow *is* an overload signal, observed upstream of the
    /// admission coin. No-op while the sentinel is disabled (there is no
    /// ledger to conserve).
    pub(crate) fn note_ring_shed(&mut self, n: u64) {
        if self.config.is_none() || n == 0 {
            return;
        }
        self.counters.offered += n;
        self.counters.offered_at_level[self.level.index()] += n;
        self.counters.shed += n;
    }

    /// Accounts a freshly created collector against the memory budget.
    pub(crate) fn note_collector_created(&mut self, bytes: usize) {
        self.memory_bytes = self.memory_bytes.saturating_add(bytes);
    }

    /// Marks the shard rebuilt after a quarantine: bumps the generation
    /// (so late completions count as stale) and releases the memory the
    /// dropped collectors held. Load counters survive the rebuild — the
    /// conservation identity spans generations.
    pub(crate) fn note_quarantine(&mut self) {
        self.counters.quarantines += 1;
        self.generation += 1;
        self.memory_bytes = 0;
        self.since_rebuild = Some(BTreeSet::new());
    }

    /// Fires the configured chaos panic if this issue is poisoned. The
    /// counter is advanced *before* unwinding so the cap holds even
    /// though the panic interrupts the ingest.
    pub(crate) fn maybe_chaos_panic(&mut self, req: &IoRequest) {
        let Some(chaos) = self.config.as_ref().and_then(|c| c.chaos) else {
            return;
        };
        if self.chaos_fired < chaos.max_panics && chaos.matches(req) {
            self.chaos_fired += 1;
            panic!(
                "sentinel chaos: injected poison at {} lba {}",
                req.target,
                req.lba.sector()
            );
        }
    }

    pub(crate) fn shard_health(&self, index: usize, targets: usize) -> ShardHealth {
        ShardHealth {
            index,
            reachable: true,
            level: self.level,
            generation: self.generation,
            targets,
            memory_bytes: self.memory_bytes,
            level_transitions: self.level_transitions,
            counters: self.counters,
        }
    }
}

/// One shard's health, as reported by
/// [`StatsService::health_snapshot`](crate::StatsService::health_snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub index: usize,
    /// `false` when the reader gave up waiting for the shard lock
    /// (a wedged writer); all other fields are then zero/default.
    pub reachable: bool,
    /// Current ladder rung.
    pub level: DegradeLevel,
    /// Quarantine generation (0 = never rebuilt).
    pub generation: u64,
    /// Targets with state in the shard.
    pub targets: usize,
    /// Estimated collector bytes resident (memory-clamp accounting).
    pub memory_bytes: usize,
    /// Ladder transitions so far (degradations + recoveries).
    pub level_transitions: u64,
    /// Load classification counters.
    pub counters: LoadCounters,
}

impl ShardHealth {
    /// Placeholder for a shard whose lock could not be acquired within
    /// the reader's patience.
    pub fn unreachable(index: usize) -> ShardHealth {
        ShardHealth {
            index,
            reachable: false,
            level: DegradeLevel::Shed,
            generation: 0,
            targets: 0,
            memory_bytes: 0,
            level_transitions: 0,
            counters: LoadCounters::default(),
        }
    }
}

/// What one quarantined shard held when it was rebuilt — the `Errors`-
/// histogram-style salvage of a wounded slab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageRecord {
    /// Which shard was quarantined.
    pub shard: usize,
    /// The generation that was torn down (pre-bump).
    pub generation: u64,
    /// Virtual timestamp of the panic that triggered the quarantine.
    pub at_ns: u64,
    /// Per-target headline counters salvaged from the wounded collectors.
    pub targets: Vec<SalvagedTarget>,
}

/// Headline counters salvaged from one wounded collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvagedTarget {
    /// The (VM, disk) pair.
    pub target: TargetId,
    /// Commands issued before the quarantine.
    pub issued: u64,
    /// Commands completed before the quarantine.
    pub completed: u64,
    /// Commands in flight when the shard went down.
    pub outstanding: u32,
    /// The per-outcome `Errors` histogram counts, bin by bin.
    pub error_outcomes: Vec<u64>,
}

/// Health of a trace sink's writer pipeline, surfaced through
/// [`TraceSink::health`](crate::TraceSink::health).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkHealth {
    /// Whether the sink was demoted (stuck writer → a full queue evicts
    /// its oldest chunk instead of blocking) to keep producers unblocked.
    pub demoted: bool,
    /// Watchdog trips recorded against the sink (flush timeouts, bounded
    /// block-waits that expired).
    pub watchdog_trips: u64,
}

/// Full service health: per-shard state plus service-wide supervision
/// counters. Built by
/// [`StatsService::health_snapshot`](crate::StatsService::health_snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Retained salvage records (bounded; see `salvages_total`).
    pub salvages: Vec<SalvageRecord>,
    /// Total quarantine salvages, including any beyond the retention cap.
    pub salvages_total: u64,
    /// Watchdog trips against shards (stuck ingests, reader give-ups).
    pub shard_watchdog_trips: u64,
    /// Watchdog trips reported by tracer sinks (stuck flushes).
    pub sink_watchdog_trips: u64,
}

impl HealthSnapshot {
    /// Aggregated load counters across every reachable shard.
    pub fn totals(&self) -> LoadCounters {
        let mut total = LoadCounters::default();
        for shard in self.shards.iter().filter(|s| s.reachable) {
            total.merge(&shard.counters);
        }
        total
    }

    /// Whether the conservation identity holds in aggregate.
    pub fn conserves(&self) -> bool {
        self.totals().conserves()
    }

    /// The worst ladder rung any reachable shard currently sits at.
    pub fn worst_level(&self) -> DegradeLevel {
        self.shards
            .iter()
            .filter(|s| s.reachable)
            .map(|s| s.level)
            .max()
            .unwrap_or(DegradeLevel::Full)
    }

    /// Total quarantines across shards.
    pub fn quarantines(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.quarantines).sum()
    }

    /// Total stale completions across shards.
    pub fn stale_completions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters.stale_completions)
            .sum()
    }

    /// `vscsiStats`-style multi-line rendering (the `health` command and
    /// the CLI `--health` flag print this). Quiet shards (no offered
    /// load, no quarantines, level `Full`) are elided.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "sentinel health: worst level {}", self.worst_level());
        for s in &self.shards {
            if !s.reachable {
                let _ = writeln!(out, "  shard {:>2}: UNREACHABLE (wedged writer?)", s.index);
                continue;
            }
            let quiet = s.counters.offered == 0
                && s.counters.quarantines == 0
                && s.level == DegradeLevel::Full;
            if quiet {
                continue;
            }
            let _ = writeln!(
                out,
                "  shard {:>2}: level={} gen={} targets={} offered={} ingested={} \
                 sampled_out={} shed={} stale={} quarantines={} transitions={}",
                s.index,
                s.level,
                s.generation,
                s.targets,
                s.counters.offered,
                s.counters.ingested,
                s.counters.sampled_out,
                s.counters.shed,
                s.counters.stale_completions,
                s.counters.quarantines,
                s.level_transitions,
            );
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "  totals: offered={} ingested={} sampled_out={} shed={} conserved={}",
            t.offered,
            t.ingested,
            t.sampled_out,
            t.shed,
            self.conserves(),
        );
        let _ = writeln!(
            out,
            "  watchdog: shard_trips={} sink_trips={} salvages={}",
            self.shard_watchdog_trips, self.sink_watchdog_trips, self.salvages_total,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Arc<SentinelConfig> {
        let mut c = SentinelConfig::new(7);
        c.window_ns = 1_000;
        c.full_max_rate = 10;
        c.sampled_max_rate = 20;
        c.counters_max_rate = 40;
        c.recover_windows = 2;
        Arc::new(c)
    }

    /// Feeds `n` events with `gap_ns` spacing starting at `t0`, returning
    /// the admissions and the time after the burst.
    fn burst(s: &mut ShardSentinel, t0: u64, n: u64, gap_ns: u64) -> (Vec<Admission>, u64) {
        let mut out = Vec::new();
        let mut t = t0;
        for i in 0..n {
            out.push(s.admit(t, i));
            t += gap_ns;
        }
        (out, t)
    }

    #[test]
    fn disabled_sentinel_ingests_everything_and_counts_nothing() {
        let mut s = ShardSentinel::default();
        assert!(s.config.is_none());
        for i in 0..100 {
            assert_eq!(s.admit(i * 10, i), Admission::Ingest);
        }
        assert_eq!(s.counters.offered, 0);
    }

    #[test]
    fn calm_traffic_stays_full() {
        let mut s = ShardSentinel::default();
        s.enable(config());
        // 5 events per 1000 ns window < full_max_rate of 10.
        let (adm, _) = burst(&mut s, 0, 50, 200);
        assert!(adm.iter().all(|&a| a == Admission::Ingest));
        assert_eq!(s.counters.ingested, 50);
        assert!(s.counters.conserves());
    }

    #[test]
    fn overload_walks_the_ladder_and_recovers_with_hysteresis() {
        let mut s = ShardSentinel::default();
        s.enable(config());
        // 100 events per window >> counters_max_rate of 40 → Shed after
        // the first window closes.
        let (_, t) = burst(&mut s, 0, 400, 10);
        assert_eq!(s.level, DegradeLevel::Shed);
        assert!(s.counters.shed > 0);
        // Cool down: nearly idle windows. Each 2 000 ns step closes two
        // calm windows (one observed, one gap-credited) — exactly one
        // recovery rung per step, never a jump straight to Full.
        let (_, t2) = burst(&mut s, t, 3, 2_000);
        assert!(
            s.level < DegradeLevel::Shed && s.level > DegradeLevel::Full,
            "one step at a time, got {}",
            s.level
        );
        let _ = burst(&mut s, t2, 20, 2_000);
        assert_eq!(s.level, DegradeLevel::Full);
        assert!(s.counters.conserves());
    }

    #[test]
    fn borderline_rate_does_not_recover_without_margin() {
        let mut s = ShardSentinel::default();
        let cfg = config();
        s.enable(cfg.clone());
        // Push to SampledSeries.
        let (_, t) = burst(&mut s, 0, 60, 60); // ~16 events/window
        assert_eq!(s.level, DegradeLevel::SampledSeries);
        // 9 events/window is under full_max_rate (10) but NOT under the
        // 70% margin (7), so the shard must stay degraded.
        let (_, _t) = burst(&mut s, t + 1_000, 90, 111);
        assert_eq!(s.level, DegradeLevel::SampledSeries);
    }

    #[test]
    fn sampling_coin_is_deterministic_and_command_consistent() {
        for key in 0..2_000u64 {
            let a = keep_coin(42, key, 512);
            let b = keep_coin(42, key, 512);
            assert_eq!(a, b);
        }
        let kept = (0..10_000u64).filter(|&k| keep_coin(9, k, 512)).count();
        // ~half kept, generous tolerance.
        assert!((3_500..6_500).contains(&kept), "kept {kept}");
        // Different seeds disagree somewhere.
        assert!((0..1_000u64).any(|k| keep_coin(1, k, 512) != keep_coin(2, k, 512)));
        // Degenerate probabilities.
        assert!((0..100u64).all(|k| keep_coin(5, k, 1024)));
        assert!((0..100u64).all(|k| !keep_coin(5, k, 0)));
    }

    #[test]
    fn memory_budget_clamps_to_counters_only() {
        let mut s = ShardSentinel::default();
        let mut c = SentinelConfig::new(3);
        c.memory_budget_bytes = 1_000;
        s.enable(Arc::new(c));
        assert_eq!(s.admit(0, 0), Admission::Ingest);
        s.note_collector_created(2_000);
        assert_eq!(s.admit(10, 1), Admission::CountOnly);
        // Quarantine releases the memory and lifts the clamp.
        s.note_quarantine();
        assert_eq!(s.generation(), 1);
        assert_eq!(s.admit(20, 2), Admission::Ingest);
        assert!(s.counters.conserves());
    }

    #[test]
    fn long_idle_gap_recovers_in_bounded_work() {
        let mut s = ShardSentinel::default();
        s.enable(config());
        let (_, t) = burst(&mut s, 0, 400, 10);
        assert_eq!(s.level, DegradeLevel::Shed);
        // A huge silent gap: the capped empty-window credit must bring the
        // shard all the way back without iterating the whole gap.
        assert_eq!(s.admit(t + 10_000_000_000, 9_999), Admission::Ingest);
        assert_eq!(s.level, DegradeLevel::Full);
    }

    #[test]
    fn conservation_identity_is_structural() {
        let mut s = ShardSentinel::default();
        s.enable(config());
        let mut t = 0u64;
        for i in 0..5_000u64 {
            // Deliberately bursty spacing.
            t += if i % 97 < 90 { 3 } else { 5_000 };
            let _ = s.admit(t, i);
        }
        let c = s.counters;
        assert_eq!(c.offered, 5_000);
        assert!(c.conserves());
        assert_eq!(c.offered_at_level.iter().sum::<u64>(), c.offered);
    }

    #[test]
    fn health_snapshot_aggregates_and_renders() {
        let mut a = ShardSentinel::default();
        a.enable(config());
        let _ = burst(&mut a, 0, 400, 10);
        a.note_stale_completion();
        a.note_quarantine();
        let snap = HealthSnapshot {
            shards: vec![a.shard_health(0, 3), ShardHealth::unreachable(1)],
            salvages: Vec::new(),
            salvages_total: 1,
            shard_watchdog_trips: 2,
            sink_watchdog_trips: 0,
        };
        assert!(snap.conserves());
        assert_eq!(snap.quarantines(), 1);
        assert_eq!(snap.stale_completions(), 1);
        assert_eq!(snap.worst_level(), DegradeLevel::Shed);
        let text = snap.render();
        assert!(text.contains("shard  0"));
        assert!(text.contains("UNREACHABLE"));
        assert!(text.contains("conserved=true"));
        assert!(text.contains("salvages=1"));
    }

    #[test]
    fn chaos_spec_matches_band_and_vm() {
        use simkit::SimTime;
        use vscsi::{IoDirection, Lba, RequestId, VDiskId, VmId};
        let spec = ChaosSpec {
            vm: Some(3),
            lba_min: 100,
            lba_max: 200,
            max_panics: 1,
        };
        let req = |vm: u32, lba: u64| {
            IoRequest::new(
                RequestId(0),
                TargetId::new(VmId(vm), VDiskId(0)),
                IoDirection::Read,
                Lba::new(lba),
                8,
                SimTime::ZERO,
            )
        };
        assert!(spec.matches(&req(3, 150)));
        assert!(!spec.matches(&req(3, 99)));
        assert!(!spec.matches(&req(4, 150)));
    }

    #[test]
    fn degrade_level_order_and_display() {
        assert!(DegradeLevel::Full < DegradeLevel::Shed);
        assert_eq!(DegradeLevel::Shed.step_down(), DegradeLevel::CountersOnly);
        assert_eq!(DegradeLevel::Full.step_down(), DegradeLevel::Full);
        let names: Vec<String> = DegradeLevel::ALL.iter().map(|l| l.to_string()).collect();
        assert_eq!(names, ["Full", "SampledSeries", "CountersOnly", "Shed"]);
    }
}
