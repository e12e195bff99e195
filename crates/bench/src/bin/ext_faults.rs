//! Extension experiment: deterministic fault injection end-to-end.
//!
//! Two phases, both seeded and fully deterministic (run the binary twice
//! with the same seed and the output is byte-identical — CI does exactly
//! that):
//!
//! * **Phase A (bit-stability)** — an open-loop replayed schedule runs
//!   twice, once clean and once with a fault plan (bad-media band, BUSY
//!   window, latency spike, path flap). The device-independent histograms
//!   (I/O length, outstanding I/Os, seek distance) must be bit-identical
//!   across the two runs — the §3.7 environment-independence claim
//!   extended to a *faulty* environment — while the latency and error
//!   histograms shift.
//! * **Phase B (robustness)** — a closed-loop random reader faces a hang
//!   storm. The timeout/abort path must keep the simulation live, the
//!   target must quarantine instead of wedging, and command accounting
//!   must conserve.
//!
//! Usage: `ext_faults [seed]` (seed defaults to 250).

use simkit::SimTime;
use vscsi::ScsiStatus;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel2, seed_arg, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::{prepare_fault_replay, prepare_fault_storm, RunResult};

/// The device-independent metrics phase A requires to be bit-stable.
const STABLE_METRICS: [Metric; 4] = [
    Metric::IoLength,
    Metric::OutstandingIos,
    Metric::SeekDistance,
    Metric::SeekDistanceWindowed,
];

fn histograms_identical(a: &RunResult, b: &RunResult, metric: Metric) -> bool {
    Lens::ALL.iter().all(|&lens| {
        a.collectors[0].histogram(metric, lens).counts()
            == b.collectors[0].histogram(metric, lens).counts()
    })
}

fn outcome_summary(r: &RunResult) -> String {
    format!(
        "issued={} completed={} failed={} aborted={} retries={} in_flight={} quarantined={}",
        r.issued[0],
        r.completed[0],
        r.failed[0],
        r.aborted[0],
        r.retries[0],
        r.in_flight[0],
        r.quarantined[0],
    )
}

fn main() {
    let seed = seed_arg(250);
    println!("=== Extension: deterministic fault injection (seed {seed}) ===\n");

    // Phase A: open-loop bit-stability.
    let dur = SimTime::from_secs(10);
    let clean = prepare_fault_replay(dur, seed, false).run();
    let faulted = prepare_fault_replay(dur, seed, true).run();
    let faulted_again = prepare_fault_replay(dur, seed, true).run();

    println!("--- phase A: open-loop replay, clean vs faulted ---");
    println!("clean:   {}", outcome_summary(&clean));
    println!("faulted: {}", outcome_summary(&faulted));
    for metric in STABLE_METRICS {
        println!(
            "{metric}: {}",
            if histograms_identical(&clean, &faulted, metric) {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
    }
    println!();
    print!(
        "{}",
        panel2(
            "I/O Latency Histogram (GOOD completions only) [microseconds]",
            "clean",
            &clean.collectors[0].histogram(Metric::Latency, Lens::All),
            "faulted",
            &faulted.collectors[0].histogram(Metric::Latency, Lens::All),
        )
    );
    println!("--- I/O Errors by Outcome (faulted run) ---");
    let errs = faulted.collectors[0].histogram(Metric::Errors, Lens::All);
    for status in ScsiStatus::ALL {
        let count = errs.count(errs.edges().bin_index(status.outcome_code()));
        println!("{status:>28}: {count}");
    }
    println!();

    // Phase B: closed-loop hang storm.
    let storm_dur = SimTime::from_secs(2);
    let storm = prepare_fault_storm(storm_dur, seed).run();
    let storm_again = prepare_fault_storm(storm_dur, seed).run();
    println!("--- phase B: closed-loop hang storm ---");
    println!("storm:   {}", outcome_summary(&storm));
    println!();

    let stable = STABLE_METRICS
        .iter()
        .all(|&m| histograms_identical(&clean, &faulted, m));
    let latency_shifted = clean.collectors[0]
        .histogram(Metric::Latency, Lens::All)
        .counts()
        != faulted.collectors[0]
            .histogram(Metric::Latency, Lens::All)
            .counts();
    let clean_errors = clean.collectors[0]
        .histogram(Metric::Errors, Lens::All)
        .total();
    let faulted_errors = faulted.collectors[0]
        .histogram(Metric::Errors, Lens::All)
        .total();
    let deterministic_a = Metric::ALL.iter().all(|&m| {
        Lens::ALL.iter().all(|&lens| {
            faulted.collectors[0].histogram(m, lens).counts()
                == faulted_again.collectors[0].histogram(m, lens).counts()
        })
    }) && outcome_summary(&faulted) == outcome_summary(&faulted_again);
    let conserved = storm.completed[0] + storm.failed[0] + storm.aborted[0] + storm.in_flight[0]
        == storm.issued[0];

    let checks = vec![
        ShapeCheck::new(
            "device-independent histograms are bit-stable under faults",
            format!("length/OIO/seek counts identical across clean vs faulted: {stable}"),
            stable,
        ),
        ShapeCheck::new(
            "latency histogram shifts under faults (environment-dependent)",
            format!("counts differ: {latency_shifted}"),
            latency_shifted,
        ),
        ShapeCheck::new(
            "error histogram is empty when clean, populated under faults",
            format!("clean={clean_errors} faulted={faulted_errors}"),
            clean_errors == 0 && faulted_errors > 0,
        ),
        ShapeCheck::new(
            "BUSY window is ridden out by retries",
            format!("retries={}", faulted.retries[0]),
            faulted.retries[0] > 0,
        ),
        ShapeCheck::new(
            "same seed reproduces the faulted run exactly",
            format!("all histograms and counters equal: {deterministic_a}"),
            deterministic_a,
        ),
        ShapeCheck::new(
            "hang storm quarantines the target instead of wedging",
            format!(
                "quarantined={} aborted={} horizon reached at {}",
                storm.quarantined[0], storm.aborted[0], storm.horizon
            ),
            storm.quarantined[0] && storm.aborted[0] > 0,
        ),
        ShapeCheck::new(
            "storm accounting conserves commands",
            format!(
                "completed+failed+aborted+in_flight = {} == issued {}",
                storm.completed[0] + storm.failed[0] + storm.aborted[0] + storm.in_flight[0],
                storm.issued[0]
            ),
            conserved,
        ),
        ShapeCheck::new(
            "same seed reproduces the storm exactly",
            format!(
                "'{}' == '{}'",
                outcome_summary(&storm),
                outcome_summary(&storm_again)
            ),
            outcome_summary(&storm) == outcome_summary(&storm_again),
        ),
        ShapeCheck::new(
            "fault handling never corrupts timestamp math",
            format!(
                "clock anomalies: clean={} faulted={} storm={}",
                clean.collectors[0].clock_anomalies(),
                faulted.collectors[0].clock_anomalies(),
                storm.collectors[0].clock_anomalies()
            ),
            clean.collectors[0].clock_anomalies() == 0
                && faulted.collectors[0].clock_anomalies() == 0
                && storm.collectors[0].clock_anomalies() == 0,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
