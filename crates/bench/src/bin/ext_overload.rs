//! Extension experiment: the sentinel under deliberate abuse.
//!
//! Three phases, all deterministic in the seed (run the binary twice with
//! the same seed and stdout is byte-identical —
//! `crates/bench/tests/suites.rs` does exactly that):
//!
//! * **Phase A (governor)** — a single-shard service faces an open-loop
//!   ingest storm whose rate walks up through every degradation rung and
//!   back down. The admission ledger must conserve exactly
//!   (`ingested + sampled_out + shed == offered`), the flood segment must
//!   end at `Shed`, and the calm tail must climb all the way back to
//!   `Full` through hysteresis.
//! * **Phase B (watchdog)** — a trace store's writer thread hangs on a
//!   stalled backend. The flush must time out and demote the ring to
//!   evicting its oldest chunk, after which a 2 000-record flood must
//!   drain without blocking the producer: capture degrades to a lossy
//!   flight recorder instead of wedging the workload. Only booleans are
//!   reported — the watchdog runs on real time, so raw counts are not
//!   replay-stable.
//! * **Phase C (quarantine)** — the two-VM interference scenario runs
//!   with a one-shot chaos panic wired to VM 0. The panicking shard must
//!   quarantine and salvage (not wedge), every command that was in flight
//!   must complete as stale although VM 0's next issue re-creates the
//!   target first, and VM 1 — on a different shard — must produce
//!   bit-identical histograms to a chaos-free same-seed run.
//!
//! Usage: `ext_overload [seed]` (seed defaults to 37).

use simkit::SimTime;
use std::fmt::Write as _;
use vscsi_stats::{DegradeLevel, Lens, Metric};
use vscsistats_bench::overload::{
    prepare_chaos_interference, run_slow_sink, run_storm, storm_segments, StormResult,
};
use vscsistats_bench::reporting::{seed_arg, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::RunResult;

fn storm_table(result: &StormResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "segment", "cmd/ms", "offered", "ingested", "sampled_out", "shed", "end level"
    );
    for seg in &result.segments {
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>10} {:>10} {:>12} {:>10} {:>14}",
            seg.label,
            seg.commands_per_ms,
            seg.offered,
            seg.ingested,
            seg.sampled_out,
            seg.shed,
            seg.end_level.to_string(),
        );
    }
    out
}

fn histograms_identical(a: &RunResult, b: &RunResult, attachment: usize) -> bool {
    Metric::ALL.iter().all(|&metric| {
        Lens::ALL.iter().all(|&lens| {
            a.collectors[attachment].histogram(metric, lens).counts()
                == b.collectors[attachment].histogram(metric, lens).counts()
        })
    })
}

/// Runs the wounded interference scenario with the default panic hook
/// silenced: the injected panic is caught at the shard boundary, and its
/// default stderr banner would only look like a real failure.
fn run_wounded(duration: SimTime, seed: u64) -> (RunResult, vscsi_stats::HealthSnapshot) {
    let prepared = prepare_chaos_interference(duration, seed, true);
    let service = std::sync::Arc::clone(prepared.service());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = prepared.run();
    std::panic::set_hook(hook);
    (result, service.health_snapshot())
}

fn main() {
    let seed = seed_arg(37);
    println!("=== Extension: sentinel overload / watchdog / quarantine (seed {seed}) ===\n");

    // Phase A: open-loop governor storm.
    let storm = run_storm(seed, &storm_segments());
    let storm_again = run_storm(seed, &storm_segments());
    println!("--- phase A: governor storm (single shard, virtual clock) ---");
    print!("{}", storm_table(&storm));
    println!();
    let totals = storm.health.totals();
    let flood_shed = storm.segments[3].end_level == DegradeLevel::Shed;
    let recovered = storm
        .segments
        .last()
        .is_some_and(|seg| seg.end_level == DegradeLevel::Full);
    let ladder_complete = (0..4).all(|i| totals.offered_at_level[i] > 0);
    let storm_deterministic = storm.health.render() == storm_again.health.render()
        && storm_table(&storm) == storm_table(&storm_again);

    // Phase B: stuck trace-store writer.
    let dir = std::env::temp_dir().join(format!("ext_overload-{}", std::process::id()));
    let (slow, slow_report) = run_slow_sink(&dir);
    println!("--- phase B: stuck trace-store writer ---");
    println!(
        "demoted={} tripped={} dropped={} producer_live={} report_demoted={} report_tripped={}",
        slow.demoted,
        slow.tripped,
        slow.dropped,
        slow.producer_live,
        slow.report_demoted,
        slow.report_tripped,
    );
    println!(
        "records_lost_nonzero={}",
        slow_report.drops.dropped_records() > 0
    );
    println!();

    // Phase C: chaos panic in the two-VM interference scenario.
    let dur = SimTime::from_secs(2);
    let clean_prepared = prepare_chaos_interference(dur, seed, false);
    let clean_service = std::sync::Arc::clone(clean_prepared.service());
    let clean = clean_prepared.run();
    let clean_health = clean_service.health_snapshot();
    let (wounded, wounded_health) = run_wounded(dur, seed);
    let (wounded_again, wounded_health_again) = run_wounded(dur, seed);

    println!("--- phase C: chaos panic, two-VM interference ---");
    println!(
        "clean:   quarantines={} stale={} worst={}",
        clean_health.quarantines(),
        clean_health.stale_completions(),
        clean_health.worst_level(),
    );
    println!(
        "wounded: quarantines={} stale={} salvaged_targets={} worst={}",
        wounded_health.quarantines(),
        wounded_health.stale_completions(),
        wounded_health
            .salvages
            .iter()
            .map(|s| s.targets.len())
            .sum::<usize>(),
        wounded_health.worst_level(),
    );
    println!();

    let quarantined_once = wounded_health.quarantines() == 1
        && wounded_health.salvages.len() == 1
        && wounded_health
            .salvages
            .iter()
            .all(|s| s.targets.iter().all(|t| t.issued > 0));
    // Every command the torn-down generation still owed a completion, even
    // though VM 0's next issue re-creates the target before they arrive.
    let in_flight_at_panic: u64 = wounded_health
        .salvages
        .iter()
        .flat_map(|s| &s.targets)
        .map(|t| u64::from(t.outstanding))
        .sum();
    let healthy_vm_identical = histograms_identical(&clean, &wounded, 1);
    let wounded_vm_lost_history = wounded.collectors[0]
        .histogram(Metric::IoLength, Lens::All)
        .total()
        < clean.collectors[0]
            .histogram(Metric::IoLength, Lens::All)
            .total();
    let wounded_deterministic = histograms_identical(&wounded, &wounded_again, 0)
        && histograms_identical(&wounded, &wounded_again, 1)
        && wounded_health.render() == wounded_health_again.render();

    let checks = vec![
        ShapeCheck::new(
            "admission ledger conserves exactly under the storm",
            format!(
                "ingested {} + sampled_out {} + shed {} == offered {}: {}",
                totals.ingested,
                totals.sampled_out,
                totals.shed,
                totals.offered,
                storm.health.conserves()
            ),
            storm.health.conserves() && totals.offered == storm.commands * 2,
        ),
        ShapeCheck::new(
            "flood drives the shard to Shed; every rung sees traffic",
            format!(
                "flood end level = {}, per-level offered = {:?}",
                storm.segments[3].end_level, totals.offered_at_level
            ),
            flood_shed && ladder_complete,
        ),
        ShapeCheck::new(
            "calm tail recovers to Full through hysteresis",
            format!(
                "final level = {}",
                storm
                    .segments
                    .last()
                    .map(|seg| seg.end_level)
                    .unwrap_or(DegradeLevel::Shed)
            ),
            recovered,
        ),
        ShapeCheck::new(
            "same seed reproduces the storm exactly",
            format!("table and health render equal: {storm_deterministic}"),
            storm_deterministic,
        ),
        ShapeCheck::new(
            "stuck writer demotes the ring instead of wedging producers",
            format!(
                "demoted={} tripped={} report carries both: {}",
                slow.demoted,
                slow.tripped,
                slow.report_demoted && slow.report_tripped
            ),
            slow.demoted && slow.tripped && slow.report_demoted && slow.report_tripped,
        ),
        ShapeCheck::new(
            "demoted capture stays live and lossy, never blocking",
            format!(
                "producer_live={} dropped={}",
                slow.producer_live, slow.dropped
            ),
            slow.producer_live && slow.dropped,
        ),
        ShapeCheck::new(
            "chaos panic quarantines and salvages exactly one shard",
            format!(
                "quarantines={} salvage records={} all salvaged targets saw traffic: {}",
                wounded_health.quarantines(),
                wounded_health.salvages.len(),
                quarantined_once
            ),
            quarantined_once,
        ),
        ShapeCheck::new(
            "late completions of the quarantined shard count as stale",
            format!(
                "stale={} == {in_flight_at_panic} salvaged in flight + the poisoned command",
                wounded_health.stale_completions()
            ),
            wounded_health.stale_completions() == in_flight_at_panic + 1,
        ),
        ShapeCheck::new(
            "undamaged VM's histograms are bit-identical to the chaos-free run",
            format!("all metrics x lenses equal: {healthy_vm_identical}"),
            healthy_vm_identical,
        ),
        ShapeCheck::new(
            "wounded VM restarts empty (salvage took its history)",
            format!(
                "wounded issued {} < clean issued {}",
                wounded.collectors[0]
                    .histogram(Metric::IoLength, Lens::All)
                    .total(),
                clean.collectors[0]
                    .histogram(Metric::IoLength, Lens::All)
                    .total()
            ),
            wounded_vm_lost_history,
        ),
        ShapeCheck::new(
            "same seed reproduces the wounded run exactly",
            format!("histograms and health render equal: {wounded_deterministic}"),
            wounded_deterministic,
        ),
        ShapeCheck::new(
            "clean run never degrades or quarantines",
            format!(
                "worst={} quarantines={}",
                clean_health.worst_level(),
                clean_health.quarantines()
            ),
            clean_health.worst_level() == DegradeLevel::Full && clean_health.quarantines() == 0,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");

    if !ok {
        std::process::exit(1);
    }
}
