//! Fault plans: the specs, the per-command decision procedure, and its
//! deterministic randomness.

use simkit::{splitmix64, SimTime};
use vscsi::{IoDirection, Lba};

/// One injected fault. Build several into a [`FaultPlan`] to compose
/// failure scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Blocks in `[lba_start, lba_end]` (inclusive) are unreadable /
    /// unwritable; commands overlapping the range fail with
    /// `MEDIUM ERROR`. `direction: None` hits reads and writes alike.
    MediaError {
        /// First bad block.
        lba_start: Lba,
        /// Last bad block (inclusive).
        lba_end: Lba,
        /// Restrict to one direction, or `None` for both.
        direction: Option<IoDirection>,
    },
    /// During `[from, until)`, refuse each command with `BUSY` with
    /// probability `probability`.
    TransientBusy {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Per-command refusal probability in `[0, 1]`.
        probability: f64,
    },
    /// During `[from, until)`, multiply service latency by `multiplier`.
    LatencySpike {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Latency multiplier (≥ 1.0 for degradation).
        multiplier: f64,
    },
    /// The path to the target is down during `[from, until)`: every
    /// command fails `BUSY`; the first command at or after `until`
    /// receives a one-shot `UNIT ATTENTION` announcing the recovery.
    PathFlap {
        /// Outage start (inclusive).
        from: SimTime,
        /// Outage end (exclusive).
        until: SimTime,
    },
    /// During `[from, until)`, swallow each command with probability
    /// `probability`: no completion ever arrives (firmware hang); the
    /// initiator must time out and abort.
    Hang {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Per-command swallow probability in `[0, 1]`.
        probability: f64,
    },
}

/// What the plan decided for one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No fault: serve normally (possibly with a latency multiplier).
    None,
    /// Fail with `CHECK CONDITION (MEDIUM ERROR)`.
    MediumError,
    /// Fail with `CHECK CONDITION (UNIT ATTENTION)` (post-flap notice).
    UnitAttention,
    /// Refuse with `BUSY`.
    Busy,
    /// Swallow the command; no completion will arrive.
    Hang,
}

/// The full decision for one command: outcome plus latency scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    /// How the command ends (or doesn't).
    pub outcome: FaultOutcome,
    /// Multiplier for normal service latency; 1.0 when no spike window
    /// is active. Only meaningful when `outcome` is `None`.
    pub latency_multiplier: f64,
}

impl FaultDecision {
    /// A healthy decision: serve normally at full speed.
    pub fn healthy() -> Self {
        FaultDecision {
            outcome: FaultOutcome::None,
            latency_multiplier: 1.0,
        }
    }
}

/// Running counts of what the plan has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Commands the plan was consulted for.
    pub consults: u64,
    /// `MEDIUM ERROR` decisions.
    pub media_errors: u64,
    /// `BUSY` decisions (transient or path-flap).
    pub busys: u64,
    /// `UNIT ATTENTION` decisions (post-flap recovery notices).
    pub unit_attentions: u64,
    /// Swallowed commands.
    pub hangs: u64,
    /// Commands served with a latency multiplier ≠ 1.0.
    pub latency_spiked: u64,
}

/// A seeded, stateful fault plan.
///
/// Decisions depend only on the seed, the order of consultation, and the
/// command itself — never on wall-clock time or global state — so two
/// simulations that consult an identically built plan in the same order
/// see identical faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Per-spec flag for `PathFlap`: has the one-shot recovery
    /// `UNIT ATTENTION` been delivered yet?
    recovery_reported: Vec<bool>,
    consults: u64,
    stats: FaultStats,
}

/// Builds a [`FaultPlan`] from composable specs.
///
/// # Examples
///
/// ```
/// use faultkit::FaultPlanBuilder;
/// use simkit::SimTime;
///
/// let plan = FaultPlanBuilder::new(42)
///     .transient_busy(SimTime::ZERO, SimTime::from_millis(100), 0.3)
///     .latency_spike(SimTime::from_millis(50), SimTime::from_millis(80), 4.0)
///     .build();
/// assert_eq!(plan.stats().consults, 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlanBuilder {
    /// Starts an empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlanBuilder {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds any spec.
    pub fn spec(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a permanent media error over `[lba_start, lba_end]`.
    pub fn media_error(self, lba_start: Lba, lba_end: Lba, direction: Option<IoDirection>) -> Self {
        self.spec(FaultSpec::MediaError {
            lba_start,
            lba_end,
            direction,
        })
    }

    /// Adds a transient-BUSY window.
    pub fn transient_busy(self, from: SimTime, until: SimTime, probability: f64) -> Self {
        self.spec(FaultSpec::TransientBusy {
            from,
            until,
            probability,
        })
    }

    /// Adds a latency-spike window.
    pub fn latency_spike(self, from: SimTime, until: SimTime, multiplier: f64) -> Self {
        self.spec(FaultSpec::LatencySpike {
            from,
            until,
            multiplier,
        })
    }

    /// Adds a path-flap outage window.
    pub fn path_flap(self, from: SimTime, until: SimTime) -> Self {
        self.spec(FaultSpec::PathFlap { from, until })
    }

    /// Adds a firmware-hang window.
    pub fn hang(self, from: SimTime, until: SimTime, probability: f64) -> Self {
        self.spec(FaultSpec::Hang {
            from,
            until,
            probability,
        })
    }

    /// Finalizes the plan.
    pub fn build(self) -> FaultPlan {
        let flags = vec![false; self.specs.len()];
        FaultPlan {
            seed: self.seed,
            specs: self.specs,
            recovery_reported: flags,
            consults: 0,
            stats: FaultStats::default(),
        }
    }
}

impl FaultPlan {
    /// Injection counts so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// One deterministic uniform draw in `[0, 1)` for consult `n`,
    /// decorrelated per spec index.
    fn draw(&self, n: u64, spec_idx: usize) -> f64 {
        let x = splitmix64(
            self.seed
                .wrapping_add(splitmix64(n))
                .wrapping_add((spec_idx as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        );
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of one command about to be serviced.
    ///
    /// Precedence when several specs match: hang (most severe — the
    /// command vanishes), then media error (permanent), then any BUSY
    /// source, then a pending post-flap `UNIT ATTENTION`. Latency
    /// multipliers from every active spike window compound and only
    /// apply to commands that are actually served.
    pub fn decide(
        &mut self,
        direction: IoDirection,
        lba: Lba,
        sectors: u32,
        now: SimTime,
    ) -> FaultDecision {
        let n = self.consults;
        self.consults += 1;
        self.stats.consults += 1;

        let first = lba.sector();
        let last = first.saturating_add(u64::from(sectors.max(1)) - 1);

        let mut outcome = FaultOutcome::None;
        let mut multiplier = 1.0f64;
        let mut recovery_due: Option<usize> = None;

        for (idx, spec) in self.specs.iter().enumerate() {
            match *spec {
                FaultSpec::Hang {
                    from,
                    until,
                    probability,
                } => {
                    if now >= from && now < until && self.draw(n, idx) < probability {
                        outcome = FaultOutcome::Hang;
                        // Nothing outranks a hang.
                        break;
                    }
                }
                FaultSpec::MediaError {
                    lba_start,
                    lba_end,
                    direction: dir,
                } => {
                    let dir_match = dir.is_none_or(|d| d == direction);
                    if dir_match && first <= lba_end.sector() && last >= lba_start.sector() {
                        outcome = pick_worse(outcome, FaultOutcome::MediumError);
                    }
                }
                FaultSpec::TransientBusy {
                    from,
                    until,
                    probability,
                } => {
                    if now >= from && now < until && self.draw(n, idx) < probability {
                        outcome = pick_worse(outcome, FaultOutcome::Busy);
                    }
                }
                FaultSpec::PathFlap { from, until } => {
                    if now >= from && now < until {
                        outcome = pick_worse(outcome, FaultOutcome::Busy);
                    } else if now >= until && !self.recovery_reported[idx] {
                        recovery_due = Some(idx);
                    }
                }
                FaultSpec::LatencySpike {
                    from,
                    until,
                    multiplier: m,
                } => {
                    if now >= from && now < until {
                        multiplier *= m;
                    }
                }
            }
        }

        // The recovery notice fires only if nothing stronger claimed the
        // command, and is consumed exactly once per flap.
        if outcome == FaultOutcome::None {
            if let Some(idx) = recovery_due {
                self.recovery_reported[idx] = true;
                outcome = FaultOutcome::UnitAttention;
            }
        }

        match outcome {
            FaultOutcome::None => {
                if multiplier != 1.0 {
                    self.stats.latency_spiked += 1;
                }
            }
            FaultOutcome::MediumError => self.stats.media_errors += 1,
            FaultOutcome::UnitAttention => self.stats.unit_attentions += 1,
            FaultOutcome::Busy => self.stats.busys += 1,
            FaultOutcome::Hang => self.stats.hangs += 1,
        }

        FaultDecision {
            outcome,
            latency_multiplier: if outcome == FaultOutcome::None {
                multiplier
            } else {
                1.0
            },
        }
    }
}

/// Severity order for composing matched specs:
/// hang > media error > busy > unit attention > none.
fn pick_worse(a: FaultOutcome, b: FaultOutcome) -> FaultOutcome {
    fn rank(o: FaultOutcome) -> u8 {
        match o {
            FaultOutcome::Hang => 4,
            FaultOutcome::MediumError => 3,
            FaultOutcome::Busy => 2,
            FaultOutcome::UnitAttention => 1,
            FaultOutcome::None => 0,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn empty_plan_is_healthy() {
        let mut plan = FaultPlanBuilder::new(1).build();
        for i in 0..100 {
            let d = plan.decide(IoDirection::Read, Lba::new(i * 8), 8, t(i));
            assert_eq!(d, FaultDecision::healthy());
        }
        assert_eq!(plan.stats().consults, 100);
        assert_eq!(plan.stats().media_errors, 0);
    }

    #[test]
    fn media_error_hits_overlapping_commands_only() {
        let mut plan = FaultPlanBuilder::new(1)
            .media_error(Lba::new(100), Lba::new(199), None)
            .build();
        // Fully before, overlapping start, inside, overlapping end, after.
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(0), 8, t(0)).outcome,
            FaultOutcome::None
        );
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(96), 8, t(0))
                .outcome,
            FaultOutcome::MediumError
        );
        assert_eq!(
            plan.decide(IoDirection::Write, Lba::new(150), 8, t(0))
                .outcome,
            FaultOutcome::MediumError
        );
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(199), 1, t(0))
                .outcome,
            FaultOutcome::MediumError
        );
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(200), 8, t(0))
                .outcome,
            FaultOutcome::None
        );
        assert_eq!(plan.stats().media_errors, 3);
    }

    #[test]
    fn media_error_respects_direction_filter() {
        let mut plan = FaultPlanBuilder::new(1)
            .media_error(Lba::new(0), Lba::new(99), Some(IoDirection::Write))
            .build();
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(10), 8, t(0))
                .outcome,
            FaultOutcome::None
        );
        assert_eq!(
            plan.decide(IoDirection::Write, Lba::new(10), 8, t(0))
                .outcome,
            FaultOutcome::MediumError
        );
    }

    #[test]
    fn transient_busy_respects_window_and_probability() {
        let mut plan = FaultPlanBuilder::new(9)
            .transient_busy(t(100), t(200), 0.5)
            .build();
        // Outside the window: never busy.
        for i in 0..50 {
            let d = plan.decide(IoDirection::Read, Lba::new(0), 8, t(i));
            assert_eq!(d.outcome, FaultOutcome::None);
        }
        // Inside: roughly half busy (deterministic for this seed).
        let mut busy = 0;
        for i in 100..200 {
            if plan.decide(IoDirection::Read, Lba::new(0), 8, t(i)).outcome == FaultOutcome::Busy {
                busy += 1;
            }
        }
        assert!((20..=80).contains(&busy), "busy count {busy} implausible");
        assert_eq!(plan.stats().busys, busy);
    }

    #[test]
    fn probability_bounds_are_respected() {
        let mut never = FaultPlanBuilder::new(3)
            .transient_busy(t(0), t(1000), 0.0)
            .build();
        let mut always = FaultPlanBuilder::new(3)
            .transient_busy(t(0), t(1000), 1.0)
            .build();
        for i in 0..200 {
            assert_eq!(
                never
                    .decide(IoDirection::Read, Lba::new(0), 8, t(i))
                    .outcome,
                FaultOutcome::None
            );
            assert_eq!(
                always
                    .decide(IoDirection::Read, Lba::new(0), 8, t(i))
                    .outcome,
                FaultOutcome::Busy
            );
        }
    }

    #[test]
    fn latency_spike_multiplies_only_in_window() {
        let mut plan = FaultPlanBuilder::new(1)
            .latency_spike(t(100), t(200), 3.0)
            .latency_spike(t(150), t(200), 2.0)
            .build();
        let before = plan.decide(IoDirection::Read, Lba::new(0), 8, t(50));
        assert_eq!(before.latency_multiplier, 1.0);
        let single = plan.decide(IoDirection::Read, Lba::new(0), 8, t(120));
        assert_eq!(single.latency_multiplier, 3.0);
        let compound = plan.decide(IoDirection::Read, Lba::new(0), 8, t(160));
        assert_eq!(compound.latency_multiplier, 6.0);
        let after = plan.decide(IoDirection::Read, Lba::new(0), 8, t(250));
        assert_eq!(after.latency_multiplier, 1.0);
        assert_eq!(plan.stats().latency_spiked, 2);
    }

    #[test]
    fn path_flap_busy_then_one_unit_attention() {
        let mut plan = FaultPlanBuilder::new(1).path_flap(t(100), t(200)).build();
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(0), 8, t(50))
                .outcome,
            FaultOutcome::None
        );
        for i in (100..200).step_by(10) {
            assert_eq!(
                plan.decide(IoDirection::Read, Lba::new(0), 8, t(i)).outcome,
                FaultOutcome::Busy
            );
        }
        // First command after recovery: one-shot UNIT ATTENTION.
        assert_eq!(
            plan.decide(IoDirection::Read, Lba::new(0), 8, t(200))
                .outcome,
            FaultOutcome::UnitAttention
        );
        // Subsequent commands are healthy.
        for i in 201..210 {
            assert_eq!(
                plan.decide(IoDirection::Read, Lba::new(0), 8, t(i)).outcome,
                FaultOutcome::None
            );
        }
        assert_eq!(plan.stats().unit_attentions, 1);
    }

    #[test]
    fn hang_outranks_everything() {
        let mut plan = FaultPlanBuilder::new(1)
            .hang(t(0), t(1000), 1.0)
            .media_error(Lba::new(0), Lba::new(u64::MAX - 1), None)
            .build();
        let d = plan.decide(IoDirection::Read, Lba::new(5), 8, t(10));
        assert_eq!(d.outcome, FaultOutcome::Hang);
        assert_eq!(plan.stats().hangs, 1);
        assert_eq!(plan.stats().media_errors, 0);
    }

    #[test]
    fn media_error_outranks_busy() {
        let mut plan = FaultPlanBuilder::new(1)
            .transient_busy(t(0), t(1000), 1.0)
            .media_error(Lba::new(0), Lba::new(999), None)
            .build();
        let d = plan.decide(IoDirection::Read, Lba::new(5), 8, t(10));
        assert_eq!(d.outcome, FaultOutcome::MediumError);
    }

    #[test]
    fn identical_plans_decide_identically() {
        let build = || {
            FaultPlanBuilder::new(0xFEED)
                .media_error(Lba::new(5_000), Lba::new(5_999), None)
                .transient_busy(t(0), t(10_000), 0.25)
                .latency_spike(t(2_000), t(4_000), 5.0)
                .path_flap(t(6_000), t(7_000))
                .hang(t(8_000), t(9_000), 0.1)
                .build()
        };
        let mut a = build();
        let mut b = build();
        for i in 0..2_000u64 {
            let lba = Lba::new((i * 37) % 10_000);
            let da = a.decide(IoDirection::Read, lba, 8, t(i * 5));
            let db = b.decide(IoDirection::Read, lba, 8, t(i * 5));
            assert_eq!(da, db, "divergence at consult {i}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_decide_differently() {
        let build = |seed| {
            FaultPlanBuilder::new(seed)
                .transient_busy(t(0), t(100_000), 0.5)
                .build()
        };
        let mut a = build(1);
        let mut b = build(2);
        let mut diverged = false;
        for i in 0..200u64 {
            let da = a.decide(IoDirection::Read, Lba::new(0), 8, t(i));
            let db = b.decide(IoDirection::Read, Lba::new(0), 8, t(i));
            if da != db {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "seeds 1 and 2 produced identical BUSY patterns");
    }
}
