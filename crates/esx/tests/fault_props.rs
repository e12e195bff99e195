//! Property tests for the fault path: under *any* composition of fault
//! specs, command accounting conserves and the simulation always reaches
//! its end time — BUSY storms, bad-media bands, path flaps, and firmware
//! hangs may degrade service, but they must never wedge the hypervisor
//! or lose a command from the books.

use esx::{RobustnessParams, Simulation, VmBuilder};
use faultkit::{FaultPlan, FaultPlanBuilder, FaultSpec};
use guests::{AccessSpec, IometerWorkload};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use std::sync::Arc;
use storage::presets;
use vscsi::{IoDirection, Lba};
use vscsi_stats::StatsService;

/// Horizon for each simulated run. Short enough for many proptest cases,
/// long enough for timeouts (20 ms below) to fire and quarantine to engage.
const HORIZON_MS: u64 = 400;

fn ordered_window(a: u64, b: u64) -> (SimTime, SimTime) {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (SimTime::from_millis(lo), SimTime::from_millis(hi + 1))
}

fn arb_direction() -> impl Strategy<Value = Option<IoDirection>> {
    prop_oneof![
        Just(None),
        Just(Some(IoDirection::Read)),
        Just(Some(IoDirection::Write)),
    ]
}

fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    let ms = 0u64..HORIZON_MS;
    prop_oneof![
        (0u64..4_000_000, 0u64..4_000_000, arb_direction()).prop_map(|(a, b, direction)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            FaultSpec::MediaError {
                lba_start: Lba::new(lo),
                lba_end: Lba::new(hi),
                direction,
            }
        }),
        (ms.clone(), ms.clone(), 0.0f64..=1.0).prop_map(|(a, b, probability)| {
            let (from, until) = ordered_window(a, b);
            FaultSpec::TransientBusy {
                from,
                until,
                probability,
            }
        }),
        (ms.clone(), ms.clone(), 1.0f64..8.0).prop_map(|(a, b, multiplier)| {
            let (from, until) = ordered_window(a, b);
            FaultSpec::LatencySpike {
                from,
                until,
                multiplier,
            }
        }),
        (ms.clone(), ms.clone()).prop_map(|(a, b)| {
            let (from, until) = ordered_window(a, b);
            FaultSpec::PathFlap { from, until }
        }),
        (ms.clone(), ms, 0.0f64..=1.0).prop_map(|(a, b, probability)| {
            let (from, until) = ordered_window(a, b);
            FaultSpec::Hang {
                from,
                until,
                probability,
            }
        }),
    ]
}

fn arb_plan() -> impl Strategy<Value = (u64, Vec<FaultSpec>)> {
    (any::<u64>(), proptest::collection::vec(arb_spec(), 0..5))
}

fn build_plan(seed: u64, specs: &[FaultSpec]) -> FaultPlan {
    specs
        .iter()
        .fold(FaultPlanBuilder::new(seed), |b, &s| b.spec(s))
        .build()
}

/// Runs a closed-loop reader against the plan and returns the simulation
/// for inspection. Returning at all is the liveness half of the property:
/// a wedged event loop would hang the test (and trip proptest's timeout),
/// because `run_until` only returns once simulated time reaches the end.
fn run_faulted(seed: u64, specs: &[FaultSpec]) -> Simulation {
    let service = Arc::new(StatsService::default());
    let mut sim = Simulation::new(presets::clariion_cx3(), service, seed);
    sim.set_robustness(RobustnessParams {
        // Tight enough that hangs resolve many times within the horizon.
        command_timeout: SimDuration::from_millis(20),
        retry_backoff_base: SimDuration::from_micros(500),
    });
    sim.attach_fault_plan(build_plan(seed, specs));
    sim.add_vm(VmBuilder::new(0).with_disk(2 * 1024 * 1024 * 1024).attach(
        sim.rng().fork("prop"),
        |rng| {
            Box::new(IometerWorkload::new(
                "prop",
                AccessSpec::random_read_8k(8, 2 * 1024 * 1024 * 1024),
                rng,
            ))
        },
    ));
    sim.run_until(SimTime::from_millis(HORIZON_MS));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every issued command is exactly one of: completed, failed
    /// terminally, aborted, or still in flight — no fault composition may
    /// leak or double-count a command.
    #[test]
    fn accounting_conserves_commands((seed, specs) in arb_plan()) {
        let sim = run_faulted(seed, &specs);
        let s = sim.attachment_stats(0);
        prop_assert!(s.issued > 0, "workload must start");
        prop_assert_eq!(
            s.completed + s.failed + s.aborted + u64::try_from(sim.in_flight(0)).unwrap(),
            s.issued,
            "completed={} failed={} aborted={} in_flight={} issued={} (specs: {:?})",
            s.completed, s.failed, s.aborted, sim.in_flight(0), s.issued, specs
        );
    }

    /// The simulation always reaches its end time: quarantine drains
    /// rather than wedges, timeouts break hangs, and bounded retries
    /// cannot spin forever.
    #[test]
    fn quarantine_never_deadlocks((seed, specs) in arb_plan()) {
        let sim = run_faulted(seed, &specs);
        // The closed loop keeps >= 1 command in flight, and any in-flight
        // command produces an event within one command timeout (20 ms), so
        // a live simulation's clock lands within a timeout of the horizon.
        prop_assert!(
            sim.now() >= SimTime::from_millis(HORIZON_MS - 25),
            "clock stalled at {} (specs: {:?})",
            sim.now(),
            specs
        );
        // Quarantined or not, in-flight work is bounded by the workload's
        // OIO plus the drain in progress — not growing without bound.
        prop_assert!(sim.in_flight(0) <= 64, "in_flight={}", sim.in_flight(0));
    }

    /// Plan-level accounting: every consult lands in exactly one outcome
    /// bucket (healthy consults are the remainder).
    #[test]
    fn plan_stats_partition_consults((seed, specs) in arb_plan()) {
        let mut plan = build_plan(seed, &specs);
        for i in 0..500u64 {
            let dir = if i % 3 == 0 { IoDirection::Write } else { IoDirection::Read };
            plan.decide(dir, Lba::new((i * 131) % 5_000_000), 8, SimTime::from_micros(i * 700));
        }
        let st = plan.stats();
        prop_assert_eq!(st.consults, 500);
        let faulted = st.media_errors + st.busys + st.unit_attentions + st.hangs;
        prop_assert!(faulted <= st.consults);
        prop_assert!(st.latency_spiked <= st.consults - faulted);
    }
}
