//! The two renderings of a run: the table a person reads and the JSON
//! document `compare` reads.

use crate::json::Json;
use crate::metrics::{lookup, END_TO_END, PER_LAYER};
use crate::run::RunReport;
use std::fmt::Write as _;

/// The label a run is filed under: its focus workload, or `all`.
pub fn run_label(report: &RunReport) -> &'static str {
    report.plan.focus.unwrap_or("all")
}

/// Every metric by name with its unit and sample count, the operation
/// ledger, and each workload's digests and counts.
pub fn render(report: &RunReport) -> String {
    let mut out = String::new();
    let p = &report.provenance;
    let _ = writeln!(
        out,
        "=== ext_e2e: workload {} seed {} {}{}===",
        run_label(report),
        report.plan.seed,
        if report.plan.smoke { "smoke " } else { "" },
        if report.plan.traced { "traced " } else { "" },
    );
    let _ = writeln!(
        out,
        "provenance: build={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={} workdir_fs={}",
        p.build, p.nproc, p.cpu_model, p.rustc, p.commit, p.workdir_fs
    );
    let _ = writeln!(
        out,
        "spine: {:.2} s measured, closed loop, at most {} threads",
        report.spine_s, p.nproc
    );
    let _ = writeln!(
        out,
        "machine: reference kernel {:.0} us (median of {}), nominal {:.0} us -> end-to-end timings \
         scaled by {:.4} to reference speed, [as timed] beside each; kernel on all cores at once \
         x{:.2}",
        report.speed.kernel_us(),
        report.speed.samples(),
        crate::calib::NOMINAL_US,
        report.speed.factor(),
        report.speed.parallel_slowdown()
    );
    for outcome in &report.outcomes {
        let _ = writeln!(
            out,
            "\n--- {} ({:.2} s timed) ---",
            outcome.workload, outcome.timed_s
        );
        let _ = writeln!(
            out,
            "input_digest={:016x} output_digest={:016x}",
            outcome.input_digest, outcome.output_digest
        );
        let counts: Vec<String> = outcome
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "{}", counts.join(" "));
        let _ = writeln!(
            out,
            "ops_attempted={} ops_failed={}",
            outcome.ops.attempted, outcome.ops.failed
        );
        for def in END_TO_END.iter().filter(|d| d.workload == outcome.workload) {
            metric_line(&mut out, report, def.name);
        }
        // The end-to-end metrics that are reported but not bounded.
        for def in PER_LAYER
            .iter()
            .filter(|d| d.workload == outcome.workload && d.is_unbounded_end_to_end())
        {
            metric_line(&mut out, report, def.name);
        }
    }
    let _ = writeln!(out, "\n--- every workload ---");
    metric_line(&mut out, report, "setup_s");
    if report.plan.traced {
        let _ = writeln!(out, "\n--- per layer (traced) ---");
        for def in PER_LAYER.iter().filter(|d| !d.is_unbounded_end_to_end()) {
            metric_line(&mut out, report, def.name);
        }
    }
    for failure in &report.ops.failures {
        let _ = writeln!(out, "CHECK FAILED: {failure}");
    }
    let _ = writeln!(
        out,
        "\nops_attempted={} ops_failed={} -> {}",
        report.ops.attempted,
        report.ops.failed,
        if report.correct() { "PASS" } else { "FAIL" }
    );
    out
}

fn metric_line(out: &mut String, report: &RunReport, name: &str) {
    let (Some(def), Some(m)) = (lookup(name), report.metrics.get(name)) else {
        return;
    };
    let as_timed = report
        .raw
        .get(name)
        .filter(|raw| raw.value != m.value)
        .map_or(String::new(), |raw| format!(" [as timed {:.4}]", raw.value));
    let _ = writeln!(
        out,
        "{:<44} {:>16.4} {:<10} (n={}{}){as_timed}",
        def.name,
        m.value,
        def.unit,
        m.samples,
        if def.exact { ", exact" } else { "" }
    );
}

/// One run as a JSON object (an element of the document's `runs`).
pub fn run_json(report: &RunReport) -> Json {
    let metrics = Json::obj(report.metrics.iter().filter_map(|(name, m)| {
        let def = lookup(name)?;
        Some((
            name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(def.unit)),
                ("samples", Json::uint(m.samples as u64)),
                (
                    "as_timed",
                    Json::Num(report.raw.get(name).map_or(m.value, |raw| raw.value)),
                ),
            ]),
        ))
    }));
    let workloads = Json::obj(report.outcomes.iter().map(|o| {
        let mut fields = vec![
            ("ops_attempted".to_string(), Json::uint(o.ops.attempted)),
            ("ops_failed".to_string(), Json::uint(o.ops.failed)),
            ("timed_s".to_string(), Json::Num(o.timed_s)),
        ];
        if let Json::Obj(exact) = o.exact_json(&report.metrics) {
            fields.extend(exact);
        }
        (o.workload, Json::Obj(fields))
    }));
    Json::obj([
        ("workload", Json::str(run_label(report))),
        ("seed", Json::uint(report.plan.seed)),
        ("seconds", Json::Num(report.plan.seconds)),
        ("smoke", Json::Bool(report.plan.smoke)),
        ("traced", Json::Bool(report.plan.traced)),
        ("correct", Json::Bool(report.correct())),
        ("ops_attempted", Json::uint(report.ops.attempted)),
        ("ops_failed", Json::uint(report.ops.failed)),
        ("spine_s", Json::Num(report.spine_s)),
        ("metrics", metrics),
        ("workloads", workloads),
    ])
}

/// The whole document: provenance once, then every run.
pub fn document(reports: &[RunReport]) -> Json {
    let provenance = reports
        .first()
        .map_or(Json::Null, |r| r.provenance.to_json());
    Json::obj([
        ("bench", Json::str("ext_e2e")),
        ("provenance", provenance),
        ("runs", Json::Arr(reports.iter().map(run_json).collect())),
    ])
}

/// The deterministic part of a run, for the same-seed comparison: digests,
/// counts, exact metrics and ledgers, but no timing.
pub fn exact_json(report: &RunReport) -> Json {
    Json::obj([
        ("ops_attempted", Json::uint(report.ops.attempted)),
        ("ops_failed", Json::uint(report.ops.failed)),
        (
            "workloads",
            Json::obj(
                report
                    .outcomes
                    .iter()
                    .map(|o| (o.workload, o.exact_json(&report.metrics))),
            ),
        ),
    ])
}
