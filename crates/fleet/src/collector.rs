//! The collector tier: virtual-clock host polling with staleness and
//! failure accounting.
//!
//! A [`FleetCollector`] owns a set of [`HostEndpoint`]s and polls each on
//! a fixed [`PollConfig::interval`], time-aligning snapshots to poll
//! *windows* (window `k` covers virtual time `[k·interval, (k+1)·interval)`).
//! Every fetch ends in exactly one of three ledger buckets:
//!
//! * **ok** — the frame decoded and merged; it replaces the host's
//!   snapshot (host counters are cumulative, so replacement — not
//!   addition — is the lossless operation).
//! * **fetch failure** — the host was unreachable; the previous snapshot
//!   stays current and ages toward staleness.
//! * **decode failure** — the host answered with a corrupt, truncated, or
//!   layout-incompatible frame; ditto.
//!
//! A host that misses [`PollConfig::stale_after`] consecutive windows is
//! *stale*: still listed in every [`FleetView`], but excluded from tenant
//! and fleet sums so the root stays an exact sum of trusted leaves. This
//! is the graceful-degradation contract: one wedged host (or one flaky
//! wire) costs the fleet view that host's slice, never the rollup's
//! integrity and never a panic.
//!
//! A round ([`FleetCollector::poll_due`]) polls its due hosts concurrently.
//! Everything one host's poll reads or writes — its endpoint, its
//! [`HostStatus`], its slot in the schedule — is lent to one per-host cell,
//! and the due cells are claimed one at a time by `min(cores, due)` scoped
//! workers, the calling thread among them; one due host never leaves the
//! caller. No cell can reach another's state, so what a round books does
//! not depend on how many workers ran it or in which order they claimed.
//!
//! On top of that sits the hardened fetch discipline:
//!
//! * **retry/backoff** ([`RetryPolicy`]) — each window gets a bounded
//!   attempt budget with exponential backoff and deterministic
//!   splitmix64 jitter, pure in `(seed, host, window, attempt)`; backoff
//!   never crosses the window edge.
//! * **quarantine** ([`BreakerPolicy`]) — after N consecutive failed
//!   windows a host's breaker opens: its windows are *suppressed* (no
//!   fetch) except for periodic half-open probes. Entries, exits, probe
//!   outcomes, and suppressed windows are ledgered exactly; dead hosts
//!   past [`PollConfig::evict_after`] are evicted from the live view
//!   with the eviction booked in [`FleetView::evicted`].
//! * **restart-safe windowed rollup** — every good frame yields a
//!   per-window *delta* against the previous snapshot. A wire-epoch
//!   change ([`crate::wire::HostFrame::epoch`]) or a bin-count
//!   regression re-bases the chain: the dead epoch's last snapshot is
//!   banked, unrecoverable windows are booked `lost_windows`, and the
//!   running total ([`HostStatus::windowed_total`]) stays exact across
//!   restarts — no double-counting, no silent regression. Per-window
//!   delta views ([`FleetCollector::window_view`]) and the running-total
//!   view ([`FleetCollector::windowed_total_view`]) sit alongside the
//!   cumulative tree.

use crate::rollup::{AggSet, FleetView, HostId, HostView, TenantId};
use crate::wire::{decode_frame, encode_frame, HostFrame, WireError};
use simkit::{splitmix64, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use vscsi_stats::workers::run_workers;
use vscsi_stats::StatsService;

/// A fetch-side failure: the host could not be reached at all.
///
/// Endpoints raise it without a window (`FetchError::new`); the
/// collector stamps the poll window it observed the failure in
/// (`at_window`), so `last_error` diagnostics in bench/CLI output are
/// greppable by window index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchError {
    /// Why the fetch failed.
    pub msg: &'static str,
    /// The poll window the collector observed the failure in, if known.
    pub window: Option<u64>,
}

impl FetchError {
    /// An unstamped failure, as endpoints raise them.
    pub fn new(msg: &'static str) -> Self {
        FetchError { msg, window: None }
    }

    /// The same failure stamped with the poll window it landed in.
    pub(crate) fn at_window(self, window: u64) -> Self {
        FetchError {
            msg: self.msg,
            window: Some(window),
        }
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.window {
            Some(w) => write!(f, "fleet fetch [window {w}]: {}", self.msg),
            None => write!(f, "fleet fetch: {}", self.msg),
        }
    }
}

impl std::error::Error for FetchError {}

/// One pollable host: an address (host + tenant) and a way to fetch its
/// `FetchAllHistograms` frame at a virtual instant.
///
/// `Send`, because a round polls its due hosts on several workers and an
/// endpoint goes to whichever worker claims its host.
pub trait HostEndpoint: Send {
    /// The host's fleet-wide id.
    fn host_id(&self) -> HostId;
    /// The tenant the host belongs to.
    fn tenant_id(&self) -> TenantId;
    /// Fetches one encoded frame at virtual time `now`.
    ///
    /// The collector calls this from any of a round's workers,
    /// concurrently with *other* hosts' fetches and never with this
    /// host's own: `&mut self` is exclusive for the call. Whatever
    /// decides the answer must therefore belong to this endpoint alone —
    /// two endpoints drawing on one shared counter or one shared
    /// [`StatsService`] would make their answers depend on which worker
    /// ran first.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError`] when the host is unreachable.
    fn fetch(&mut self, now: SimTime) -> Result<Vec<u8>, FetchError>;
}

impl<E: HostEndpoint + ?Sized> HostEndpoint for Box<E> {
    fn host_id(&self) -> HostId {
        (**self).host_id()
    }

    fn tenant_id(&self) -> TenantId {
        (**self).tenant_id()
    }

    fn fetch(&mut self, now: SimTime) -> Result<Vec<u8>, FetchError> {
        (**self).fetch(now)
    }
}

/// The in-simulation endpoint: snapshots a live [`StatsService`] and
/// encodes the frame, exactly what a real host would ship.
#[derive(Debug, Clone)]
pub struct ServiceEndpoint {
    host: HostId,
    tenant: TenantId,
    service: Arc<StatsService>,
}

impl ServiceEndpoint {
    /// Wraps a host's stats service. Frames it emits are sequenced from
    /// 1 (0 on the wire means "unsequenced"); the counter lives in the
    /// service itself, so a host restored from a durable checkpoint
    /// continues its sequence instead of replaying old numbers.
    pub fn new(host: HostId, tenant: TenantId, service: Arc<StatsService>) -> Self {
        ServiceEndpoint {
            host,
            tenant,
            service,
        }
    }

    /// Swaps in a replacement service — a host restart. A fresh service
    /// re-sequences from 1, exactly as a rebooted emitter would; a
    /// checkpoint-recovered one picks up where the checkpoint left off.
    pub fn restart_with(&mut self, service: Arc<StatsService>) {
        self.service = service;
    }
}

impl HostEndpoint for ServiceEndpoint {
    fn host_id(&self) -> HostId {
        self.host
    }

    fn tenant_id(&self) -> TenantId {
        self.tenant
    }

    fn fetch(&mut self, now: SimTime) -> Result<Vec<u8>, FetchError> {
        let seq = self.service.next_frame_seq();
        let (frame, skipped) =
            HostFrame::snapshot_with_skips(self.host, now.as_micros(), seq, &self.service);
        // A frame missing a wedged shard's targets would read as a restart
        // that never happened; fail the window, the next frame bridges it.
        if skipped > 0 {
            return Err(FetchError::new("shard unreachable"));
        }
        encode_frame(&frame).map_err(|_| FetchError::new("snapshot failed to encode"))
    }
}

/// A scripted endpoint for tests: hands out a fixed sequence of responses
/// and becomes unreachable when the script runs dry.
#[derive(Debug, Clone)]
pub struct FrameEndpoint {
    host: HostId,
    tenant: TenantId,
    script: VecDeque<Result<Vec<u8>, FetchError>>,
}

impl FrameEndpoint {
    /// Builds a scripted endpoint.
    pub fn new(
        host: HostId,
        tenant: TenantId,
        script: impl IntoIterator<Item = Result<Vec<u8>, FetchError>>,
    ) -> Self {
        FrameEndpoint {
            host,
            tenant,
            script: script.into_iter().collect(),
        }
    }
}

impl HostEndpoint for FrameEndpoint {
    fn host_id(&self) -> HostId {
        self.host
    }

    fn tenant_id(&self) -> TenantId {
        self.tenant
    }

    fn fetch(&mut self, _now: SimTime) -> Result<Vec<u8>, FetchError> {
        self.script
            .pop_front()
            .unwrap_or(Err(FetchError::new("script exhausted")))
    }
}

/// Exact ledger of what a [`ChaosEndpoint`] injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosLedger {
    /// Polls answered with a fetch error.
    pub unreachable: u64,
    /// Polls answered with a bit-flipped frame.
    pub corrupted: u64,
    /// Polls answered with a truncated frame.
    pub truncated: u64,
}

impl ChaosLedger {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.unreachable + self.corrupted + self.truncated
    }
}

impl std::fmt::Display for ChaosLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos ledger: {} fault(s) ({} unreachable, {} corrupted, {} truncated)",
            self.total(),
            self.unreachable,
            self.corrupted,
            self.truncated,
        )
    }
}

/// Wraps any endpoint with deterministic, seeded fault injection:
/// per poll it either passes the inner frame through, drops the fetch,
/// flips one payload bit, or truncates the frame. Decisions are pure in
/// `(seed, host id, poll index)`, so same-seed runs inject identically —
/// and the ledger lets tests demand *exact* failure accounting.
#[derive(Debug, Clone)]
pub struct ChaosEndpoint<E> {
    inner: E,
    seed: u64,
    polls: u64,
    unreachable_pct: u64,
    corrupt_pct: u64,
    truncate_pct: u64,
    ledger: ChaosLedger,
}

impl<E: HostEndpoint> ChaosEndpoint<E> {
    /// Wraps `inner`; the three percentages (each 0–100, summing to at
    /// most 100) set the per-poll fault mix.
    pub fn new(
        inner: E,
        seed: u64,
        unreachable_pct: u64,
        corrupt_pct: u64,
        truncate_pct: u64,
    ) -> Self {
        assert!(
            unreachable_pct + corrupt_pct + truncate_pct <= 100,
            "fault percentages exceed 100"
        );
        ChaosEndpoint {
            inner,
            seed,
            polls: 0,
            unreachable_pct,
            corrupt_pct,
            truncate_pct,
            ledger: ChaosLedger::default(),
        }
    }

    /// What was injected so far.
    pub fn ledger(&self) -> ChaosLedger {
        self.ledger
    }
}

impl<E: HostEndpoint> HostEndpoint for ChaosEndpoint<E> {
    fn host_id(&self) -> HostId {
        self.inner.host_id()
    }

    fn tenant_id(&self) -> TenantId {
        self.inner.tenant_id()
    }

    fn fetch(&mut self, now: SimTime) -> Result<Vec<u8>, FetchError> {
        let roll = splitmix64(
            self.seed ^ self.inner.host_id().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.polls,
        );
        self.polls += 1;
        let pick = roll % 100;
        if pick < self.unreachable_pct {
            self.ledger.unreachable += 1;
            return Err(FetchError::new("injected: host unreachable"));
        }
        let mut bytes = self.inner.fetch(now)?;
        if pick < self.unreachable_pct + self.corrupt_pct {
            self.ledger.corrupted += 1;
            if !bytes.is_empty() {
                let at = (splitmix64(roll) as usize) % bytes.len();
                bytes[at] ^= 1 << (roll % 8);
            }
        } else if pick < self.unreachable_pct + self.corrupt_pct + self.truncate_pct {
            self.ledger.truncated += 1;
            let keep = (splitmix64(roll) as usize) % bytes.len().max(1);
            bytes.truncate(keep);
        }
        Ok(bytes)
    }
}

/// Per-window fetch retry discipline: bounded attempts with exponential
/// backoff and deterministic splitmix64 jitter, pure in
/// `(seed, host, window, attempt)` — same-seed runs back off identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fetch attempts allowed per window (≥ 1; 1 disables retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff_base: SimDuration,
    /// Backoff ceiling (before jitter).
    pub backoff_max: SimDuration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 250 ms base doubling to a 2 s cap — comfortably
    /// inside a 6 s poll window.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff_base: SimDuration::from_millis(250),
            backoff_max: SimDuration::from_secs(2),
            seed: 0x000F_1EE7,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `attempt` (1-based) of `window` against
    /// `host`: `min(base · 2^(attempt−1), max)` plus a deterministic
    /// jitter in `[0, capped/4]`.
    pub(crate) fn backoff(&self, host: HostId, window: u64, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        let base_ns = self.backoff_base.as_nanos().saturating_mul(1u64 << exp);
        let capped = base_ns.min(self.backoff_max.as_nanos());
        let key = splitmix64(
            self.seed
                ^ host.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ window.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ u64::from(attempt).wrapping_mul(0x1656_67B1_9E37_79F9),
        );
        let jitter = if capped == 0 {
            0
        } else {
            key % (capped / 4 + 1)
        };
        SimDuration::from_nanos(capped.saturating_add(jitter))
    }
}

/// Circuit-breaker policy: quarantine a host after consecutive failed
/// windows, then probe it on a fixed cadence until it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive *failed windows* (not attempts) before the breaker
    /// opens; 0 disables the breaker entirely.
    pub open_after: u64,
    /// Open-state windows between half-open probes (≥ 1).
    pub probe_every: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            open_after: 3,
            probe_every: 2,
        }
    }
}

/// Where a host's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal polling.
    #[default]
    Closed,
    /// Quarantined: windows are suppressed (no fetch at all) until
    /// `next_probe`, when a single half-open probe attempt runs. A probe
    /// success closes the breaker; a failure re-arms the cadence.
    Open {
        /// First window a half-open probe will run in.
        next_probe: u64,
    },
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open { next_probe } => write!(f, "open(next probe w{next_probe})"),
        }
    }
}

/// Polling schedule, staleness, retry, quarantine, and eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollConfig {
    /// Poll every host once per this interval (one *window*).
    pub interval: SimDuration,
    /// Consecutive windows without a good frame before the host's
    /// snapshot is considered stale and leaves the rollup.
    pub stale_after: u64,
    /// Windows without a good frame before the host is *evicted*: its
    /// leaf leaves the live view entirely (booked in
    /// [`FleetView::evicted`]) and polling stops. 0 = never evict.
    pub evict_after: u64,
    /// Per-window fetch retry discipline.
    pub retry: RetryPolicy,
    /// Quarantine policy.
    pub breaker: BreakerPolicy,
}

impl Default for PollConfig {
    /// 6-second windows (the paper's esxtop cadence), stale after 2
    /// missed windows, hardened fetch discipline, no eviction.
    fn default() -> Self {
        PollConfig {
            interval: SimDuration::from_secs(6),
            stale_after: 2,
            evict_after: 0,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
        }
    }
}

impl PollConfig {
    /// The poll-window index containing virtual time `t`.
    pub(crate) fn window_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.interval.as_nanos()
    }

    /// The minimal discipline: exactly one fetch attempt per window, no
    /// breaker, no eviction — every scheduled window maps 1:1 to one
    /// endpoint fetch, which is what script-driven tests and exact
    /// chaos-ledger accounting want.
    pub fn basic() -> Self {
        PollConfig {
            retry: RetryPolicy {
                attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy {
                open_after: 0,
                ..BreakerPolicy::default()
            },
            ..PollConfig::default()
        }
    }
}

/// Per-host poll accounting: the attempt-level three-bucket ledger, the
/// window-level outcome ledger, breaker and epoch state, and the latest
/// good snapshot plus its windowed-delta companions.
///
/// Two conservation laws hold at all times and are what bench/test
/// accounting leans on:
///
/// * attempts: `polls() == frames_ok + fetch_failures + decode_failures`;
/// * windows: `windows_scheduled == ok_windows + failed_windows +
///   suppressed_windows`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStatus {
    /// The host.
    pub host: HostId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Frames fetched, decoded, and merged.
    pub frames_ok: u64,
    /// Fetches that failed outright (unreachable host).
    pub fetch_failures: u64,
    /// Frames that arrived but failed to decode, merge, or sequence.
    pub decode_failures: u64,
    /// Extra attempts beyond each window's first (retry discipline).
    pub retries: u64,
    /// Windows rescued by a retry after a failed first attempt.
    pub retry_successes: u64,
    /// Windows the scheduler fired for this host.
    pub windows_scheduled: u64,
    /// Windows that ended with a good frame.
    pub ok_windows: u64,
    /// Windows where every allowed attempt failed.
    pub failed_windows: u64,
    /// Windows suppressed by an open breaker (no fetch at all).
    pub suppressed_windows: u64,
    /// Closed→Open transitions.
    pub quarantine_entries: u64,
    /// Open→Closed transitions (successful probes).
    pub quarantine_exits: u64,
    /// Half-open probe windows run.
    pub probe_attempts: u64,
    /// Probes that answered with a good frame.
    pub probe_successes: u64,
    /// Probes that failed and re-armed the quarantine.
    pub probe_failures: u64,
    /// The host's current epoch label: the wire epoch of the latest
    /// frame, or a local bump past it when a restart was detected by
    /// counter regression alone (unsequenced emitters).
    pub epoch: u64,
    /// Epoch carried by the last accepted frame.
    pub wire_epoch: u64,
    /// Sequence number of the last accepted frame (0 = unsequenced).
    pub last_seq: u64,
    /// Rebases performed (explicit wire-epoch changes + implicit
    /// counter-regression detections).
    pub epoch_bumps: u64,
    /// Explicit epoch changes whose counters continued cleanly — a host
    /// restored from a durable checkpoint. No banking, nothing lost.
    pub resumed_epochs: u64,
    /// Rebases detected by counter regression alone.
    pub regressions: u64,
    /// Frames rejected as replays (sequence not advancing in-epoch).
    pub seq_rejects: u64,
    /// Windows whose delta was unrecoverable because a restart landed
    /// between good frames: on each rebase, every window since the last
    /// good one is booked lost.
    pub lost_windows: u64,
    /// Failed windows later recovered by a cumulative frame (a gap with
    /// no restart: the next delta covers them, nothing is lost).
    pub bridged_windows: u64,
    /// Attempt-level failures since the last good frame.
    pub consecutive_failures: u64,
    /// Consecutive failed windows (feeds the breaker; suppressed windows
    /// don't count — nothing was observed).
    pub failed_window_streak: u64,
    /// When the last good frame arrived.
    pub last_success: Option<SimTime>,
    /// Window of the last good frame.
    pub last_good_window: Option<u64>,
    /// The most recent failure, stamped with its window.
    pub last_error: Option<FetchError>,
    /// `true` once the host was evicted: its leaf left the live view and
    /// polling stopped.
    pub evicted: bool,
    /// Targets in the latest good snapshot.
    pub targets: usize,
    /// Capture timestamp of the latest good snapshot, microseconds.
    pub captured_at_us: u64,
    breaker: BreakerState,
    agg: AggSet,
    epoch_base: AggSet,
    delta: AggSet,
    delta_window: Option<u64>,
    delta_sum: AggSet,
}

impl HostStatus {
    fn new(host: HostId, tenant: TenantId) -> Self {
        HostStatus {
            host,
            tenant,
            frames_ok: 0,
            fetch_failures: 0,
            decode_failures: 0,
            retries: 0,
            retry_successes: 0,
            windows_scheduled: 0,
            ok_windows: 0,
            failed_windows: 0,
            suppressed_windows: 0,
            quarantine_entries: 0,
            quarantine_exits: 0,
            probe_attempts: 0,
            probe_successes: 0,
            probe_failures: 0,
            epoch: 0,
            wire_epoch: 0,
            last_seq: 0,
            epoch_bumps: 0,
            resumed_epochs: 0,
            regressions: 0,
            seq_rejects: 0,
            lost_windows: 0,
            bridged_windows: 0,
            consecutive_failures: 0,
            failed_window_streak: 0,
            last_success: None,
            last_good_window: None,
            last_error: None,
            evicted: false,
            targets: 0,
            captured_at_us: 0,
            breaker: BreakerState::Closed,
            agg: AggSet::new(),
            epoch_base: AggSet::new(),
            delta: AggSet::new(),
            delta_window: None,
            delta_sum: AggSet::new(),
        }
    }

    /// The latest good cumulative snapshot (empty until the first good
    /// frame; covers only the current epoch).
    pub fn agg(&self) -> &AggSet {
        &self.agg
    }

    /// Closed epochs banked at rebase time: the last good snapshot of
    /// every epoch before the current one, merged.
    pub fn epoch_base(&self) -> &AggSet {
        &self.epoch_base
    }

    /// The restart-safe running total: every windowed delta ever
    /// absorbed, merged. Bit-for-bit equal to
    /// `epoch_base + agg` — that identity is the no-double-counting
    /// proof across restarts.
    pub fn windowed_total(&self) -> &AggSet {
        &self.delta_sum
    }

    /// Where this host's circuit breaker stands.
    pub fn breaker(&self) -> BreakerState {
        self.breaker
    }

    /// Total fetch attempts against this host (including retries and
    /// probes; excluding suppressed windows, which never fetch).
    pub fn polls(&self) -> u64 {
        self.frames_ok + self.fetch_failures + self.decode_failures
    }
}

/// The collector: polls every endpoint on the shared schedule, keeps the
/// per-host ledgers, and assembles [`FleetView`]s on demand.
#[derive(Debug)]
pub struct FleetCollector<E> {
    config: PollConfig,
    endpoints: Vec<E>,
    next_poll: Vec<SimTime>,
    status: Vec<HostStatus>,
    /// Workers a round may use: the machine's cores, read once.
    workers: usize,
}

/// One host's slice of the collector for the length of a round: the shared
/// policy, and that host's endpoint, ledger and schedule slot — nothing
/// any other host's cell can reach, which is what lets a round poll its
/// due cells on several workers and still book what one worker would.
struct HostCell<'a, E> {
    config: &'a PollConfig,
    endpoint: &'a mut E,
    status: &'a mut HostStatus,
    next_poll: &'a mut SimTime,
}

impl<E: HostEndpoint> HostCell<'_, E> {
    /// A host is due when it is still enrolled and its time has come.
    fn is_due(&self, now: SimTime) -> bool {
        !self.status.evicted && *self.next_poll <= now
    }

    /// One scheduled window for this host, then eviction bookkeeping and
    /// the next poll one interval on.
    fn poll(&mut self, now: SimTime) {
        let w = self.config.window_of(now);
        self.poll_window(now, w);
        self.maybe_evict(w);
        *self.next_poll = self.next_poll.saturating_add(self.config.interval);
    }

    /// Window `w`: breaker gate, then the bounded retry loop, then the
    /// window's outcome in the ledger and the breaker.
    fn poll_window(&mut self, now: SimTime, w: u64) {
        let host = self.status.host;
        self.status.windows_scheduled += 1;

        let mut probe = false;
        match self.status.breaker {
            BreakerState::Open { next_probe } if w < next_probe => {
                self.status.suppressed_windows += 1;
                return;
            }
            BreakerState::Open { .. } => probe = true,
            BreakerState::Closed => {}
        }
        if probe {
            self.status.probe_attempts += 1;
        }

        // A probe is a single attempt; a normal window gets the retry
        // budget, truncated where backoff would cross the window edge.
        let budget = if probe {
            1
        } else {
            self.config.retry.attempts.max(1)
        };
        let mut attempt: u32 = 0;
        let mut t = now;
        let mut good = None;
        while attempt < budget {
            if attempt > 0 {
                let wait = self.config.retry.backoff(host, w, attempt);
                let shifted = t.saturating_add(wait);
                if self.config.window_of(shifted) != w {
                    break;
                }
                t = shifted;
                self.status.retries += 1;
            }
            match self.attempt_fetch(t, w) {
                Some(hit) => {
                    if attempt > 0 {
                        self.status.retry_successes += 1;
                    }
                    good = Some(hit);
                    break;
                }
                None => attempt += 1,
            }
        }

        match good {
            Some(frame) => {
                self.absorb_good(frame, t, w);
                let s = &mut *self.status;
                s.ok_windows += 1;
                s.failed_window_streak = 0;
                if probe {
                    s.probe_successes += 1;
                    s.quarantine_exits += 1;
                    s.breaker = BreakerState::Closed;
                }
            }
            None => {
                let open_after = self.config.breaker.open_after;
                let probe_every = self.config.breaker.probe_every.max(1);
                let s = &mut *self.status;
                s.failed_windows += 1;
                s.failed_window_streak += 1;
                if probe {
                    s.probe_failures += 1;
                    s.breaker = BreakerState::Open {
                        next_probe: w + probe_every,
                    };
                } else if open_after > 0
                    && s.breaker == BreakerState::Closed
                    && s.failed_window_streak >= open_after
                {
                    s.quarantine_entries += 1;
                    s.breaker = BreakerState::Open {
                        next_probe: w + probe_every,
                    };
                }
            }
        }
    }

    /// One fetch attempt at `t`: books failures into the attempt-level
    /// ledger; returns the decoded, host-checked, sequence-checked frame
    /// on success (booking happens in `absorb_good`).
    fn attempt_fetch(&mut self, t: SimTime, window: u64) -> Option<HostFrame> {
        let fetched = self.endpoint.fetch(t);
        let s = &mut *self.status;
        match fetched {
            Err(e) => {
                s.fetch_failures += 1;
                s.consecutive_failures += 1;
                s.last_error = Some(e.at_window(window));
                None
            }
            Ok(bytes) => {
                let outcome = decode_frame(&bytes).and_then(|frame| {
                    if frame.host_id != s.host {
                        return Err(WireError {
                            msg: "frame names a different host",
                        });
                    }
                    Ok(frame)
                });
                match outcome {
                    Err(e) => {
                        s.decode_failures += 1;
                        s.consecutive_failures += 1;
                        s.last_error = Some(FetchError::new(e.msg).at_window(window));
                        None
                    }
                    Ok(frame) => {
                        // Replay rejection: a sequenced frame must advance
                        // within its epoch. seq 0 (unsequenced) is exempt.
                        if frame.seq != 0
                            && frame.epoch == s.wire_epoch
                            && s.last_seq != 0
                            && frame.seq <= s.last_seq
                        {
                            s.decode_failures += 1;
                            s.seq_rejects += 1;
                            s.consecutive_failures += 1;
                            s.last_error =
                                Some(FetchError::new("stale frame sequence").at_window(window));
                            None
                        } else {
                            Some(frame)
                        }
                    }
                }
            }
        }
    }

    /// Absorbs a good frame into window `w`: detects restarts (explicit
    /// wire-epoch change — fresh or resumed, as the frame says — or
    /// implicit counter regression), rebases the delta chain, and keeps
    /// the windowed running total exact.
    fn absorb_good(&mut self, frame: HostFrame, t: SimTime, w: u64) {
        let mut agg = AggSet::new();
        for target in &frame.targets {
            agg.0.merge(&target.set);
        }
        let s = &mut *self.status;
        let delta = match s.last_good_window {
            None => {
                // First frame ever: the whole snapshot is the delta.
                s.epoch = frame.epoch;
                agg.clone()
            }
            Some(prev_w) => {
                let explicit = frame.epoch != s.wire_epoch;
                // Under a new epoch label the frame says which restart it
                // was. A host restored from a durable checkpoint continues
                // its counters, so its first frame deltas cleanly against
                // our last snapshot — a resumed restart, absorbed with
                // zero double-count and zero banking; if the checkpoint
                // was older than that snapshot the delta fails and the
                // restart is banked like any other. A fresh service
                // starts from zero and is never subtracted from: one busy
                // window can carry its counters past the old snapshot in
                // every bin, and the difference would book the dead
                // epoch's events as never having happened.
                let stepwise = if explicit && !frame.resumed {
                    None
                } else {
                    agg.try_delta(&s.agg)
                };
                match stepwise {
                    Some(d) => {
                        // Plain window (possibly after a failure gap — the
                        // cumulative frame recovers those windows), or a
                        // resumed restart: the epoch label moves, the
                        // delta chain does not.
                        if explicit {
                            s.resumed_epochs += 1;
                            s.epoch = frame.epoch;
                        }
                        // A second good frame in the window of the
                        // last one (a lagging schedule) bridges nothing.
                        s.bridged_windows += w.saturating_sub(prev_w + 1);
                        d
                    }
                    None => {
                        // Restart: bank the dead epoch's last snapshot,
                        // book the unrecoverable windows, re-base on the
                        // fresh snapshot.
                        s.epoch_bumps += 1;
                        s.lost_windows += w.saturating_sub(prev_w);
                        s.epoch_base.merge(&s.agg);
                        s.epoch = if explicit {
                            frame.epoch
                        } else {
                            s.regressions += 1;
                            s.epoch + 1
                        };
                        agg.clone()
                    }
                }
            }
        };
        s.wire_epoch = frame.epoch;
        s.last_seq = frame.seq;
        s.delta_sum.merge(&delta);
        s.delta = delta;
        s.delta_window = Some(w);
        s.agg = agg;
        s.targets = frame.targets.len();
        s.captured_at_us = frame.captured_at_us;
        s.frames_ok += 1;
        s.consecutive_failures = 0;
        s.last_success = Some(t);
        s.last_good_window = Some(w);
        s.last_error = None;
    }

    /// Evicts the host if it has gone `evict_after` windows without a
    /// good frame: polling stops and its leaf leaves the live view.
    fn maybe_evict(&mut self, w: u64) {
        if self.config.evict_after == 0 {
            return;
        }
        let missed = match self.status.last_good_window {
            Some(g) => w.saturating_sub(g),
            None => w + 1,
        };
        if missed >= self.config.evict_after {
            self.status.evicted = true;
        }
    }
}

impl<E: HostEndpoint> FleetCollector<E> {
    /// Builds a collector; every host's first poll is due at time zero.
    pub fn new(config: PollConfig, endpoints: Vec<E>) -> Self {
        assert!(!config.interval.is_zero(), "poll interval must be positive");
        let status = endpoints
            .iter()
            .map(|e| HostStatus::new(e.host_id(), e.tenant_id()))
            .collect();
        let next_poll = vec![SimTime::ZERO; endpoints.len()];
        FleetCollector {
            config,
            endpoints,
            next_poll,
            status,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Every host's cell, in endpoint order.
    fn cells(&mut self) -> impl Iterator<Item = HostCell<'_, E>> {
        let config = &self.config;
        self.endpoints
            .iter_mut()
            .zip(&mut self.status)
            .zip(&mut self.next_poll)
            .map(move |((endpoint, status), next_poll)| HostCell {
                config,
                endpoint,
                status,
                next_poll,
            })
    }

    /// Polls every live endpoint whose next poll is due at or before
    /// `now`, then reschedules it one interval later. Returns how many
    /// polls ran.
    ///
    /// The due hosts are polled concurrently: their cells are claimed one
    /// at a time (hosts differ in size) by `min(cores, due)` workers, the
    /// calling thread among them, so a round with one due host spawns
    /// nothing. A cell holds everything its poll reads and writes, so the
    /// ledgers, views and chaos rolls that come out are the same for any
    /// worker count and any claim order.
    ///
    /// The schedule advances one interval per call, not to `now`: a caller
    /// whose clock jumps several intervals leaves it lagging, and later
    /// calls poll a host again in a window it was already polled in until
    /// the schedule catches up. Each such poll is its own scheduled window
    /// in the ledger and its frame is absorbed like any other; it bridges
    /// and loses no windows. [`Self::run_until`] never lags.
    ///
    /// # Panics
    ///
    /// Re-raises a panic out of an endpoint's `fetch`, with its message.
    pub fn poll_due(&mut self, now: SimTime) -> usize {
        let workers = self.workers;
        let due: Vec<_> = self.cells().filter(|cell| cell.is_due(now)).collect();
        let ran = due.len();
        let queue = Mutex::new(due.into_iter());
        run_workers(workers.min(ran), || loop {
            // The guard drops with this statement: a cell is polled with
            // the queue unlocked, so a poll that panics poisons nothing.
            let claimed = queue.lock().expect("no poll holds the queue").next();
            match claimed {
                Some(mut cell) => cell.poll(now),
                None => break,
            }
        });
        ran
    }

    /// Advances the poll schedule through every instant up to and
    /// including `until`, firing due polls in time order. Returns at once
    /// when every host has been evicted.
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            let live = self.status.iter().zip(&self.next_poll);
            let next = live.filter(|(s, _)| !s.evicted).map(|(_, &t)| t).min();
            match next {
                Some(next) if next <= until => {
                    self.poll_due(next);
                }
                _ => return,
            }
        }
    }

    /// Per-host ledgers, in endpoint order.
    pub fn status(&self) -> &[HostStatus] {
        &self.status
    }

    /// The endpoints (e.g. to read a [`ChaosEndpoint`] ledger back).
    pub fn endpoints(&self) -> &[E] {
        &self.endpoints
    }

    /// Mutable endpoint access — e.g. to restart a
    /// [`ServiceEndpoint`]'s backing service mid-run, simulating a host
    /// reboot.
    pub fn endpoints_mut(&mut self) -> &mut [E] {
        &mut self.endpoints
    }

    /// Whether `status` counts as stale at `now`: no good frame yet, or
    /// the last one is at least [`PollConfig::stale_after`] windows old.
    /// A `now` earlier than the last good frame is not stale.
    pub(crate) fn is_stale(&self, status: &HostStatus, now: SimTime) -> bool {
        match status.last_success {
            None => true,
            Some(t) => {
                self.config
                    .window_of(now)
                    .saturating_sub(self.config.window_of(t))
                    >= self.config.stale_after
            }
        }
    }

    /// Hosts evicted so far.
    pub fn evicted_hosts(&self) -> usize {
        self.status.iter().filter(|s| s.evicted).count()
    }

    /// Assembles the rollup tree from every live host's latest good
    /// cumulative snapshot, marking (and excluding) stale hosts; evicted
    /// hosts have no leaf and are booked in [`FleetView::evicted`].
    pub fn view(&self, now: SimTime) -> FleetView {
        let hosts = self
            .status
            .iter()
            .filter(|s| !s.evicted)
            .map(|s| HostView {
                host: s.host,
                tenant: s.tenant,
                stale: self.is_stale(s, now),
                targets: s.targets,
                agg: s.agg.clone(),
                captured_at_us: s.captured_at_us,
            })
            .collect();
        FleetView::assemble(self.config.window_of(now), hosts, self.evicted_hosts())
    }

    /// The per-window delta view at `now`: each live host contributes
    /// only what its good frame in *this* window added. Hosts with no
    /// good frame this window are carried stale (excluded from sums).
    pub fn window_view(&self, now: SimTime) -> FleetView {
        let w = self.config.window_of(now);
        let hosts = self
            .status
            .iter()
            .filter(|s| !s.evicted)
            .map(|s| {
                let fresh = s.delta_window == Some(w);
                HostView {
                    host: s.host,
                    tenant: s.tenant,
                    stale: !fresh,
                    targets: if fresh { s.targets } else { 0 },
                    agg: if fresh {
                        s.delta.clone()
                    } else {
                        AggSet::new()
                    },
                    captured_at_us: s.captured_at_us,
                }
            })
            .collect();
        FleetView::assemble(w, hosts, self.evicted_hosts())
    }

    /// The restart-safe running total view at `now`: each live host
    /// contributes every windowed delta it ever produced, merged across
    /// epochs — immune to counter regression, no double-counting.
    pub fn windowed_total_view(&self, now: SimTime) -> FleetView {
        let hosts = self
            .status
            .iter()
            .filter(|s| !s.evicted)
            .map(|s| HostView {
                host: s.host,
                tenant: s.tenant,
                stale: self.is_stale(s, now),
                targets: s.targets,
                agg: s.delta_sum.clone(),
                captured_at_us: s.captured_at_us,
            })
            .collect();
        FleetView::assemble(self.config.window_of(now), hosts, self.evicted_hosts())
    }

    /// The fleet status pane: fleet-wide discipline counters plus one
    /// line per unhealthy (quarantined, evicted, or stale) host — the
    /// `command("health")`-style surface for the collector tier.
    pub fn render_status(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let w = self.config.window_of(now);
        let mut quarantined = 0usize;
        let mut stale = 0usize;
        let (mut retries, mut rescued, mut suppressed) = (0u64, 0u64, 0u64);
        let (mut probes, mut probe_ok, mut probe_fail) = (0u64, 0u64, 0u64);
        let (mut bumps, mut regress, mut lost, mut rejects) = (0u64, 0u64, 0u64, 0u64);
        let mut resumed = 0u64;
        for s in &self.status {
            if !s.evicted && matches!(s.breaker, BreakerState::Open { .. }) {
                quarantined += 1;
            }
            if !s.evicted && self.is_stale(s, now) {
                stale += 1;
            }
            retries += s.retries;
            rescued += s.retry_successes;
            suppressed += s.suppressed_windows;
            probes += s.probe_attempts;
            probe_ok += s.probe_successes;
            probe_fail += s.probe_failures;
            bumps += s.epoch_bumps;
            resumed += s.resumed_epochs;
            regress += s.regressions;
            lost += s.lost_windows;
            rejects += s.seq_rejects;
        }
        let evicted = self.evicted_hosts();
        let live = self.status.len() - evicted;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet status (window {w}): {live} host(s) live, {quarantined} quarantined, {stale} stale, {evicted} evicted",
        );
        let _ = writeln!(
            out,
            "  retries {retries} (rescued {rescued}), suppressed windows {suppressed}, probes {probes} (ok {probe_ok} / fail {probe_fail})",
        );
        let _ = writeln!(
            out,
            "  epoch bumps {bumps} ({regress} by regression), resumed epochs {resumed}, lost windows {lost}, seq rejects {rejects}",
        );
        for s in &self.status {
            let unhealthy = s.evicted
                || matches!(s.breaker, BreakerState::Open { .. })
                || self.is_stale(s, now);
            if !unhealthy {
                continue;
            }
            let state = if s.evicted {
                "EVICTED".to_string()
            } else {
                s.breaker.to_string()
            };
            let _ = write!(
                out,
                "  host {} [tenant {}] {state} epoch {} ok {}/{} window(s)",
                s.host, s.tenant, s.epoch, s.ok_windows, s.windows_scheduled,
            );
            match s.last_error {
                Some(e) => {
                    let _ = writeln!(out, ", last error: {e}");
                }
                None => {
                    let _ = writeln!(out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{uniform_target, UNIFORM_SLOTS};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    fn encoded(host: HostId, records: &[i64], epoch: u64, seq: u64, resumed: bool) -> Vec<u8> {
        encode_frame(&HostFrame {
            host_id: host,
            captured_at_us: 1,
            epoch,
            seq,
            resumed,
            targets: vec![uniform_target(records)],
        })
        .unwrap()
    }

    /// The frame of a host that started from zero.
    fn frame_bytes_with(host: HostId, records: &[i64], epoch: u64, seq: u64) -> Vec<u8> {
        encoded(host, records, epoch, seq, false)
    }

    /// The frame of a host restored from a checkpoint.
    fn resumed_frame_bytes(host: HostId, records: &[i64], epoch: u64, seq: u64) -> Vec<u8> {
        encoded(host, records, epoch, seq, true)
    }

    fn frame_bytes(host: HostId, records: &[i64]) -> Vec<u8> {
        frame_bytes_with(host, records, 0, 0)
    }

    fn cfg() -> PollConfig {
        PollConfig {
            interval: SimDuration::from_secs(1),
            ..PollConfig::basic()
        }
    }

    #[test]
    fn polls_on_schedule_and_rolls_up() {
        let eps = vec![
            FrameEndpoint::new(
                0,
                0,
                vec![Ok(frame_bytes(0, &[5])), Ok(frame_bytes(0, &[5, 6]))],
            ),
            FrameEndpoint::new(
                1,
                1,
                vec![Ok(frame_bytes(1, &[7])), Ok(frame_bytes(1, &[7, 8]))],
            ),
        ];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::ZERO);
        let v0 = c.view(SimTime::ZERO);
        assert_eq!(v0.fleet.hosts, 2);
        assert_eq!(v0.fleet.agg.total_events(), 2 * UNIFORM_SLOTS);
        assert!(v0.conserves());
        // Second window: cumulative snapshots replace, never double-count.
        c.run_until(SimTime::from_secs(1));
        let v1 = c.view(SimTime::from_secs(1));
        assert_eq!(v1.fleet.agg.total_events(), 4 * UNIFORM_SLOTS);
        assert!(v1.conserves());
        assert_eq!(c.status()[0].frames_ok, 2);
        assert_eq!(c.status()[0].polls(), 2);
    }

    #[test]
    fn failures_age_into_staleness_and_recover() {
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes(0, &[5])),
                Err(FetchError::new("down")),
                Err(FetchError::new("down")),
                Ok(frame_bytes(0, &[5, 6, 7])),
            ],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::ZERO);
        assert!(!c.is_stale(&c.status()[0], SimTime::ZERO));
        // Two failed windows age the window-0 snapshot to stale.
        c.run_until(SimTime::from_secs(2));
        let s = &c.status()[0];
        assert_eq!(s.fetch_failures, 2);
        assert_eq!(s.consecutive_failures, 2);
        assert_eq!(s.last_error, Some(FetchError::new("down").at_window(2)));
        assert_eq!(
            s.last_error.unwrap().to_string(),
            "fleet fetch [window 2]: down"
        );
        assert!(c.is_stale(s, SimTime::from_secs(2)));
        let v = c.view(SimTime::from_secs(2));
        assert_eq!(v.fleet.hosts, 0);
        assert_eq!(v.stale_hosts(), 1);
        assert!(v.conserves());
        // A good frame brings the host straight back.
        c.run_until(SimTime::from_secs(3));
        assert!(!c.is_stale(&c.status()[0], SimTime::from_secs(3)));
        let v = c.view(SimTime::from_secs(3));
        assert_eq!(v.fleet.hosts, 1);
        assert_eq!(v.fleet.agg.total_events(), 3 * UNIFORM_SLOTS);
    }

    #[test]
    fn corrupt_frames_count_as_decode_failures() {
        let mut bad = frame_bytes(0, &[5]);
        let flip = bad.len() / 2;
        bad[flip] ^= 0xff;
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![Ok(bad), Ok(frame_bytes(99, &[5])), Ok(frame_bytes(0, &[5]))],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::from_secs(2));
        let s = &c.status()[0];
        assert_eq!(s.decode_failures, 2, "corrupt + misaddressed");
        assert_eq!(s.frames_ok, 1);
        assert_eq!(s.fetch_failures, 0);
    }

    #[test]
    fn chaos_endpoint_is_deterministic_and_accounted() {
        let mk = || {
            ChaosEndpoint::new(
                FrameEndpoint::new(3, 0, (0..50).map(|i| Ok(frame_bytes(3, &[i])))),
                99,
                20,
                20,
                20,
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for i in 0..50 {
            outcomes_a.push(a.fetch(SimTime::from_secs(i)));
            outcomes_b.push(b.fetch(SimTime::from_secs(i)));
        }
        assert_eq!(outcomes_a, outcomes_b, "same seed, same chaos");
        assert_eq!(a.ledger(), b.ledger());
        assert!(a.ledger().total() > 0);
        // Every injected fault surfaces as a collector failure, exactly.
        let mut c = FleetCollector::new(cfg(), vec![mk()]);
        c.run_until(SimTime::from_secs(49));
        let s = &c.status()[0];
        let ledger = c.endpoints()[0].ledger();
        assert_eq!(s.fetch_failures, ledger.unreachable);
        assert_eq!(s.decode_failures, ledger.corrupted + ledger.truncated);
        assert_eq!(s.frames_ok, 50 - ledger.total());
    }

    fn retry_cfg(attempts: u32) -> PollConfig {
        PollConfig {
            interval: SimDuration::from_secs(1),
            retry: RetryPolicy {
                attempts,
                backoff_base: SimDuration::from_millis(10),
                backoff_max: SimDuration::from_millis(50),
                seed: 7,
            },
            ..PollConfig::basic()
        }
    }

    #[test]
    fn retry_rescues_a_window_and_books_it() {
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![Err(FetchError::new("down")), Ok(frame_bytes(0, &[5]))],
        )];
        let mut c = FleetCollector::new(retry_cfg(3), eps);
        c.run_until(SimTime::ZERO);
        let s = &c.status()[0];
        assert_eq!((s.frames_ok, s.fetch_failures), (1, 1));
        assert_eq!((s.retries, s.retry_successes), (1, 1));
        assert_eq!(
            (s.windows_scheduled, s.ok_windows, s.failed_windows),
            (1, 1, 0)
        );
        assert_eq!(s.polls(), 2);
        assert!(
            s.last_success.unwrap() > SimTime::ZERO,
            "retry ran after backoff"
        );
        assert!(c.view(SimTime::ZERO).conserves());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            attempts: 4,
            backoff_base: SimDuration::from_millis(100),
            backoff_max: SimDuration::from_millis(400),
            seed: 42,
        };
        assert_eq!(p.backoff(1, 2, 1), p.backoff(1, 2, 1), "pure in its key");
        assert_ne!(p.backoff(1, 2, 1), p.backoff(1, 2, 2));
        assert_ne!(p.backoff(1, 2, 1), p.backoff(1, 3, 1));
        assert_ne!(p.backoff(1, 2, 1), p.backoff(9, 2, 1));
        for attempt in 1..=6 {
            let capped = (100u64 << (attempt - 1)).min(400) * 1_000_000;
            let b = p.backoff(9, 3, attempt).as_nanos();
            assert!(
                b >= capped && b <= capped + capped / 4,
                "attempt {attempt}: {b}"
            );
        }
    }

    #[test]
    fn breaker_opens_probes_and_recovers() {
        let config = PollConfig {
            interval: SimDuration::from_secs(1),
            breaker: BreakerPolicy {
                open_after: 2,
                probe_every: 2,
            },
            ..PollConfig::basic()
        };
        // w0 fail, w1 fail -> open(next probe w3); w2 suppressed;
        // w3 probe fails -> re-armed to w5; w4 suppressed; w5 probe ok.
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Err(FetchError::new("down")),
                Err(FetchError::new("down")),
                Err(FetchError::new("down")),
                Ok(frame_bytes(0, &[5])),
            ],
        )];
        let mut c = FleetCollector::new(config, eps);
        c.run_until(SimTime::from_secs(1));
        assert_eq!(
            c.status()[0].breaker(),
            BreakerState::Open { next_probe: 3 }
        );
        c.run_until(SimTime::from_secs(5));
        let s = &c.status()[0];
        assert_eq!(s.windows_scheduled, 6);
        assert_eq!(
            (s.ok_windows, s.failed_windows, s.suppressed_windows),
            (1, 3, 2)
        );
        assert_eq!((s.quarantine_entries, s.quarantine_exits), (1, 1));
        assert_eq!(
            (s.probe_attempts, s.probe_successes, s.probe_failures),
            (2, 1, 1)
        );
        assert_eq!(s.breaker(), BreakerState::Closed);
        assert_eq!(s.polls(), 4, "suppressed windows never fetched");
        let pane = c.render_status(SimTime::from_secs(5));
        assert!(pane.contains("suppressed windows 2"), "{pane}");
    }

    #[test]
    fn dead_host_is_evicted_and_booked() {
        let config = PollConfig {
            interval: SimDuration::from_secs(1),
            evict_after: 3,
            ..PollConfig::basic()
        };
        let eps = vec![
            FrameEndpoint::new(0, 0, (0..20).map(|_| Err(FetchError::new("down")))),
            FrameEndpoint::new(1, 0, (0..20).map(|i| Ok(frame_bytes(1, &[i])))),
        ];
        let mut c = FleetCollector::new(config, eps);
        c.run_until(SimTime::from_secs(10));
        let s = &c.status()[0];
        assert!(s.evicted);
        assert_eq!(s.windows_scheduled, 3, "polling stopped at eviction");
        assert_eq!(c.evicted_hosts(), 1);
        let v = c.view(SimTime::from_secs(10));
        assert_eq!(v.evicted, 1);
        assert_eq!(v.hosts.len(), 1, "evicted host has no leaf");
        assert_eq!(v.fleet.hosts, 1);
        assert!(v.conserves());
        assert!(c.render_status(SimTime::from_secs(10)).contains("EVICTED"));
    }

    /// Runs `f` on a thread of its own and gives it ten seconds: a round
    /// that waits for a fetch which never comes, or a schedule that never
    /// ends, fails here instead of hanging the suite. A panic in `f` is
    /// re-raised as it was.
    fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("still running after 10 s"),
            Err(RecvTimeoutError::Disconnected) => match runner.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(()) => unreachable!("the runner sends before it returns"),
            },
        }
    }

    fn evicting_cfg() -> PollConfig {
        PollConfig {
            evict_after: 2,
            ..cfg()
        }
    }

    #[test]
    fn evicted_host_is_never_due_again() {
        let mut c = FleetCollector::new(evicting_cfg(), vec![FrameEndpoint::new(0, 0, vec![])]);
        c.run_until(SimTime::from_secs(5));
        assert!(c.status()[0].evicted);
        let ledger = c.status()[0].clone();
        assert_eq!(ledger.windows_scheduled, 2);
        assert_eq!(c.poll_due(SimTime::MAX), 0, "the end of time included");
        assert_eq!(c.status()[0], ledger);
    }

    #[test]
    fn run_until_the_end_of_time_returns_once_every_host_is_evicted() {
        let windows = finishes(|| {
            let eps = vec![FrameEndpoint::new(0, 0, vec![])];
            let mut c = FleetCollector::new(evicting_cfg(), eps);
            c.run_until(SimTime::MAX);
            c.status()[0].windows_scheduled
        });
        assert_eq!(windows, 2);
    }

    /// Answers every fetch with the same good frame and remembers which
    /// thread asked; with a barrier, only once that many fetches are in
    /// flight at the same time.
    struct Witness {
        host: HostId,
        meet: Option<Arc<Barrier>>,
        panic_off: Option<ThreadId>,
        asked_on: Vec<ThreadId>,
    }

    impl Witness {
        fn new(host: HostId, meet: Option<&Arc<Barrier>>) -> Self {
            Witness {
                host,
                meet: meet.cloned(),
                panic_off: None,
                asked_on: Vec::new(),
            }
        }
    }

    impl HostEndpoint for Witness {
        fn host_id(&self) -> HostId {
            self.host
        }

        fn tenant_id(&self) -> TenantId {
            0
        }

        fn fetch(&mut self, _now: SimTime) -> Result<Vec<u8>, FetchError> {
            if let Some(meet) = &self.meet {
                meet.wait();
            }
            let here = thread::current().id();
            self.asked_on.push(here);
            if self.panic_off.is_some_and(|caller| caller != here) {
                panic!("host {} fell over in fetch", self.host);
            }
            Ok(frame_bytes(self.host, &[5]))
        }
    }

    #[test]
    fn due_hosts_are_fetched_at_the_same_time() {
        let c = finishes(|| {
            // Neither fetch answers before the other has begun: one worker
            // polling the two in turn would wait at the barrier for ever.
            let meet = Arc::new(Barrier::new(2));
            let eps = vec![Witness::new(0, Some(&meet)), Witness::new(1, Some(&meet))];
            let mut c = FleetCollector::new(cfg(), eps);
            c.workers = 2;
            assert_eq!(c.poll_due(SimTime::ZERO), 2);
            c
        });
        let asked: Vec<_> = c.endpoints().iter().map(|e| e.asked_on.clone()).collect();
        assert_eq!((asked[0].len(), asked[1].len()), (1, 1));
        assert_ne!(asked[0], asked[1], "one thread each");
        assert!(c.status().iter().all(|s| s.frames_ok == 1));
        assert_eq!(c.view(SimTime::ZERO).fleet.hosts, 2);
    }

    #[test]
    fn one_due_host_is_polled_on_the_calling_thread() {
        let eps = (0..3).map(|h| Witness::new(h, None)).collect();
        let mut c = FleetCollector::new(cfg(), eps);
        c.workers = 3;
        c.next_poll[0] = SimTime::from_secs(9);
        c.next_poll[2] = SimTime::from_secs(9);
        assert_eq!(c.poll_due(SimTime::ZERO), 1);
        let asked: Vec<_> = c.endpoints().iter().map(|e| e.asked_on.clone()).collect();
        assert_eq!(asked, [vec![], vec![thread::current().id()], vec![]]);
    }

    #[test]
    #[should_panic(expected = "fell over in fetch")]
    fn a_workers_panic_reaches_the_caller_with_its_own_message() {
        finishes(|| {
            // The barrier puts the two fetches on two threads; the one that
            // is not the caller's panics.
            let meet = Arc::new(Barrier::new(2));
            let mut eps = vec![Witness::new(0, Some(&meet)), Witness::new(1, Some(&meet))];
            for e in &mut eps {
                e.panic_off = Some(thread::current().id());
            }
            let mut c = FleetCollector::new(cfg(), eps);
            c.workers = 2;
            c.poll_due(SimTime::ZERO);
        });
    }

    #[test]
    fn counter_regression_rebases_and_books_lost_windows() {
        // w0: 3 records/slot; w1: a *smaller* snapshot — an implicit
        // restart under legacy (epoch-less) frames.
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![Ok(frame_bytes(0, &[1, 2, 3])), Ok(frame_bytes(0, &[5]))],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!((s.epoch_bumps, s.regressions, s.lost_windows), (1, 1, 1));
        assert_eq!(s.epoch, 1, "local epoch bump");
        let slots = UNIFORM_SLOTS;
        assert_eq!(s.agg().total_events(), slots, "cumulative = fresh epoch");
        assert_eq!(
            s.windowed_total().total_events(),
            4 * slots,
            "running total keeps the dead epoch's events"
        );
        let mut rebuilt = s.epoch_base().clone();
        rebuilt.merge(s.agg());
        assert!(
            rebuilt.same_counters(s.windowed_total()),
            "windowed_total == epoch_base + agg, bit for bit"
        );
        assert!(c.windowed_total_view(SimTime::from_secs(1)).conserves());
    }

    #[test]
    fn explicit_epoch_change_rebases_without_regression() {
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes_with(0, &[1, 2], 1, 1)),
                Ok(frame_bytes_with(0, &[9], 2, 1)),
            ],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!((s.epoch_bumps, s.regressions, s.lost_windows), (1, 0, 1));
        assert_eq!((s.epoch, s.wire_epoch), (2, 2));
        assert_eq!(s.seq_rejects, 0, "seq restarts with the epoch");
        assert_eq!(s.windowed_total().total_events(), 3 * UNIFORM_SLOTS);
    }

    #[test]
    fn checkpoint_resume_bumps_epoch_without_banking() {
        let slots = UNIFORM_SLOTS;
        // Epoch 1 seq 3, then a restored-from-checkpoint restart: epoch 2
        // with *continued* counters and sequence. The delta chain never
        // breaks, so nothing is banked and nothing is lost.
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes_with(0, &[1, 2], 1, 3)),
                Ok(resumed_frame_bytes(0, &[1, 2, 9], 2, 4)),
            ],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!(
            (s.epoch_bumps, s.resumed_epochs, s.lost_windows),
            (0, 1, 0),
            "resume is not a rebase"
        );
        assert_eq!((s.epoch, s.wire_epoch, s.last_seq), (2, 2, 4));
        assert_eq!(s.seq_rejects, 0);
        assert_eq!(s.epoch_base().total_events(), 0, "nothing banked");
        assert_eq!(s.windowed_total().total_events(), 3 * slots);
        assert!(
            s.windowed_total().same_counters(s.agg()),
            "resumed restart keeps running total == cumulative, bit for bit"
        );
    }

    #[test]
    fn fresh_restart_is_banked_even_when_its_counters_dominate() {
        // The same two snapshots as the resume above, but the second host
        // says it started from zero: it really did see 1, 2 and 9 again.
        let script = |second: Vec<u8>| {
            let first = Ok(frame_bytes_with(0, &[1, 2], 1, 3));
            vec![FrameEndpoint::new(0, 0, vec![first, Ok(second)])]
        };
        let mut c = FleetCollector::new(cfg(), script(frame_bytes_with(0, &[1, 2, 9], 2, 1)));
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!(
            (
                s.epoch_bumps,
                s.resumed_epochs,
                s.regressions,
                s.lost_windows
            ),
            (1, 0, 0, 1)
        );
        assert_eq!(s.epoch_base().total_events(), 2 * UNIFORM_SLOTS);
        assert_eq!(s.windowed_total().total_events(), 5 * UNIFORM_SLOTS);
        // A resumed host whose checkpoint predates our snapshot cannot be
        // subtracted from either, and is banked the same way.
        let mut c = FleetCollector::new(cfg(), script(resumed_frame_bytes(0, &[1], 2, 4)));
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!((s.epoch_bumps, s.resumed_epochs, s.lost_windows), (1, 0, 1));
        assert_eq!(s.windowed_total().total_events(), 3 * UNIFORM_SLOTS);
    }

    #[test]
    fn replayed_frames_are_rejected_by_sequence() {
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes_with(0, &[1], 1, 2)),
                Ok(frame_bytes_with(0, &[1, 2], 1, 1)),
            ],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::from_secs(1));
        let s = &c.status()[0];
        assert_eq!((s.frames_ok, s.decode_failures, s.seq_rejects), (1, 1, 1));
        assert_eq!(s.last_error.unwrap().msg, "stale frame sequence");
        assert_eq!(s.agg().total_events(), UNIFORM_SLOTS);
    }

    #[test]
    fn window_deltas_resum_to_cumulative_across_gaps() {
        let slots = UNIFORM_SLOTS;
        // w0 ok, w1 down, w2 ok (bridges w1), w3 ok.
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes(0, &[5])),
                Err(FetchError::new("down")),
                Ok(frame_bytes(0, &[5, 6, 7])),
                Ok(frame_bytes(0, &[5, 6, 7, 8])),
            ],
        )];
        let mut c = FleetCollector::new(cfg(), eps);
        for (t, want_delta) in [(0u64, slots), (2, 2 * slots), (3, slots)] {
            c.run_until(SimTime::from_secs(t));
            let wv = c.window_view(SimTime::from_secs(t));
            assert_eq!(wv.fleet.agg.total_events(), want_delta, "window {t}");
            assert!(wv.conserves());
        }
        // A window with no good frame contributes nothing.
        let s = &c.status()[0];
        assert_eq!(s.bridged_windows, 1, "the w1 gap was recovered at w2");
        assert_eq!(s.lost_windows, 0);
        assert!(
            s.windowed_total().same_counters(s.agg()),
            "no restart: running total == cumulative, bit for bit"
        );
        let tv = c.windowed_total_view(SimTime::from_secs(3));
        let cv = c.view(SimTime::from_secs(3));
        assert_eq!(tv.fleet.agg, cv.fleet.agg);
    }

    #[test]
    fn second_good_frame_in_one_window_bridges_nothing() {
        let eps = vec![FrameEndpoint::new(
            0,
            0,
            vec![
                Ok(frame_bytes(0, &[5])),
                Ok(frame_bytes(0, &[5, 6])),
                Ok(frame_bytes(0, &[5, 6, 7])),
            ],
        )];
        // The default 6 s interval: the caller's clock jumps to w3 while
        // the schedule lags at 12 s, so 21 s polls w3 a second time.
        let mut c = FleetCollector::new(PollConfig::basic(), eps);
        for t in [0, 20, 21] {
            assert_eq!(c.poll_due(SimTime::from_secs(t)), 1, "t = {t} s");
        }
        let s = &c.status()[0];
        assert_eq!(s.bridged_windows, 2, "w1 and w2, once, at the first w3");
        assert_eq!(s.lost_windows, 0);
        assert_eq!((s.windows_scheduled, s.ok_windows), (3, 3));
        assert_eq!(
            s.windows_scheduled,
            s.ok_windows + s.failed_windows + s.suppressed_windows
        );
        let mut rebuilt = s.epoch_base().clone();
        rebuilt.merge(s.agg());
        assert!(rebuilt.same_counters(s.windowed_total()));
        assert_eq!(s.agg().total_events(), 3 * UNIFORM_SLOTS);
    }

    #[test]
    fn view_before_the_last_success_is_not_stale() {
        let eps = vec![FrameEndpoint::new(0, 0, vec![Ok(frame_bytes(0, &[5]))])];
        let mut c = FleetCollector::new(cfg(), eps);
        assert_eq!(c.poll_due(SimTime::from_secs(10)), 1);
        // A reader whose clock is behind the collector's last good frame.
        let early = SimTime::from_secs(3);
        assert!(!c.is_stale(&c.status()[0], early));
        let v = c.view(early);
        assert_eq!((v.fleet.hosts, v.stale_hosts()), (1, 0));
        assert_eq!(v.fleet.agg.total_events(), UNIFORM_SLOTS);
    }

    #[test]
    fn boxed_endpoints_poll_like_concrete_ones() {
        let eps: Vec<Box<dyn HostEndpoint>> = vec![
            Box::new(FrameEndpoint::new(0, 0, vec![Ok(frame_bytes(0, &[5]))])),
            Box::new(ChaosEndpoint::new(
                FrameEndpoint::new(1, 1, vec![Ok(frame_bytes(1, &[6]))]),
                3,
                0,
                0,
                0,
            )),
        ];
        let mut c = FleetCollector::new(cfg(), eps);
        c.run_until(SimTime::ZERO);
        assert_eq!(c.view(SimTime::ZERO).fleet.hosts, 2);
    }

    #[test]
    fn ledger_and_error_displays_are_greppable() {
        let ledger = ChaosLedger {
            unreachable: 2,
            corrupted: 1,
            truncated: 0,
        };
        assert_eq!(
            ledger.to_string(),
            "chaos ledger: 3 fault(s) (2 unreachable, 1 corrupted, 0 truncated)"
        );
        assert_eq!(FetchError::new("down").to_string(), "fleet fetch: down");
        assert_eq!(
            FetchError::new("down").at_window(7).to_string(),
            "fleet fetch [window 7]: down"
        );
    }
}
