//! `ext_e2e compare A.json B.json`: per workload and metric, both medians,
//! the delta, and the bound it is held to.

use crate::json::{object_map, parse, Json};
use crate::metrics::{lookup, Better, END_TO_END};
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `metric name -> bound`, from `BENCHMARK.json` when it parses, else the
/// registry (a test keeps the two equal).
pub fn bounds(benchmark_json: Option<&str>) -> (BTreeMap<String, f64>, &'static str) {
    let from_file = benchmark_json
        .and_then(|text| parse(text).ok())
        .and_then(|doc| {
            doc.get("end_to_end")?
                .as_arr()?
                .iter()
                .map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect::<Option<BTreeMap<String, f64>>>()
        });
    match from_file {
        Some(bounds) => (bounds, "BENCHMARK.json"),
        None => (
            END_TO_END
                .iter()
                .filter_map(|d| Some((d.name.to_string(), d.bound?)))
                .collect(),
            "the built-in registry (no BENCHMARK.json here)",
        ),
    }
}

/// `(run label, metric) -> values`, one per run in the document.
type Values = BTreeMap<(String, String), Vec<f64>>;
/// `(run label, workload) -> the workload's exact JSON`, from the first run.
type Inputs = BTreeMap<(String, String), (String, String)>;

struct Doc {
    build: String,
    nproc: f64,
    values: Values,
    inputs: Inputs,
    failed: f64,
}

fn load(text: &str) -> Result<Doc, String> {
    let doc = parse(text)?;
    let provenance = doc.get("provenance").ok_or("no provenance")?;
    let build = provenance
        .get("build")
        .and_then(Json::as_str)
        .ok_or("no provenance.build")?
        .to_string();
    let nproc = provenance
        .get("nproc")
        .and_then(Json::as_f64)
        .ok_or("no provenance.nproc")?;
    let mut values = Values::new();
    let mut inputs = Inputs::new();
    let mut failed = 0.0;
    for run in doc.get("runs").and_then(Json::as_arr).ok_or("no runs")? {
        let label = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no workload")?;
        failed += run.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, m) in object_map(run.get("metrics").unwrap_or(&Json::Null)) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((label.to_string(), name.to_string()))
                    .or_default()
                    .push(v);
            }
        }
        for (workload, w) in object_map(run.get("workloads").unwrap_or(&Json::Null)) {
            let digest = w
                .get("input_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let counts = w.get("counts").map(Json::to_line).unwrap_or_default();
            inputs
                .entry((label.to_string(), workload.to_string()))
                .or_insert((digest, counts));
        }
    }
    Ok(Doc {
        build,
        nproc,
        values,
        inputs,
        failed,
    })
}

/// The comparison table and whether anything breached. `Err` is a refusal
/// to compare at all.
pub fn compare(a: &str, b: &str, benchmark_json: Option<&str>) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    if a.build != b.build || a.nproc != b.nproc {
        return Err(format!(
            "refusing to compare: A is build={} nproc={}, B is build={} nproc={} \
             (the stub parking_lot is not the real lock, and core counts change every \
             threaded number)",
            a.build, a.nproc, b.build, b.nproc
        ));
    }
    let (bounds, bounds_from) = bounds(benchmark_json);
    let mut out = String::new();
    let mut breached = false;
    let _ = writeln!(
        out,
        "build={} nproc={}; bounds from {bounds_from}",
        a.build, a.nproc
    );

    for (key, (digest_a, counts_a)) in &a.inputs {
        if let Some((digest_b, counts_b)) = b.inputs.get(key) {
            if digest_a != digest_b || counts_a != counts_b {
                breached = true;
                let _ = writeln!(
                    out,
                    "inputs_differ: run {} workload {}: input_digest {digest_a} vs {digest_b}, \
                     counts {counts_a} vs {counts_b}",
                    key.0, key.1
                );
            }
        }
    }
    if a.failed + b.failed > 0.0 {
        breached = true;
        let _ = writeln!(out, "ops_failed: A {} B {}", a.failed, b.failed);
    }

    let _ = writeln!(
        out,
        "{:<13} {:<44} {:>14} {:>14} {:>9} {:>7}  verdict",
        "run", "metric", "A median", "B median", "delta", "bound"
    );
    for ((label, name), values_a) in &a.values {
        let Some(values_b) = b.values.get(&(label.clone(), name.clone())) else {
            continue;
        };
        let Some(def) = lookup(name) else { continue };
        let (ma, mb) = (median(values_a), median(values_b));
        // Positive = B is worse than A, as a share of A.
        let worse = match def.better {
            Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
            Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
        };
        let bound = bounds.get(name).copied();
        let verdict = if def.exact && ma != mb {
            breached |= bound.is_some();
            "EXACT COUNT DIFFERS"
        } else if bound.is_some_and(|bound| worse > bound) {
            breached = true;
            "BREACH"
        } else if bound.is_some() {
            "ok"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<13} {:<44} {:>14.4} {:>14.4} {:>+8.2}% {:>7}  {verdict}",
            label,
            name,
            ma,
            mb,
            worse * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
        );
    }
    let _ = writeln!(
        out,
        "(delta: share of A's median by which B is worse; negative is better)\n{}",
        if breached { "FAIL" } else { "PASS" }
    );
    Ok((out, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(build: &str, hook_ns: f64, bytes: f64, digest: &str) -> String {
        format!(
            r#"{{"bench":"ext_e2e","provenance":{{"build":"{build}","nproc":2}},"runs":[
            {{"workload":"hook_hot","ops_failed":0,
              "metrics":{{"hook_ns_per_cmd_p50":{{"value":{hook_ns},"unit":"ns/cmd"}},
                         "frame_bytes_per_target":{{"value":{bytes},"unit":"B/target"}},
                         "core.collector.ns_per_cmd":{{"value":80,"unit":"ns/cmd"}}}},
              "workloads":{{"hook_hot":{{"input_digest":"{digest}","counts":{{"commands":4}}}}}}}}]}}"#
        )
    }

    #[test]
    fn passes_within_bound_and_flags_each_kind_of_breach() {
        let base = doc("cargo", 100.0, 50.0, "aa");
        let (table, breached) = compare(&base, &doc("cargo", 120.0, 50.0, "aa"), None).unwrap();
        assert!(!breached, "{table}");
        let (table, breached) = compare(&base, &doc("cargo", 130.0, 50.0, "aa"), None).unwrap();
        assert!(breached && table.contains("BREACH"), "{table}");
        // Better is never a breach.
        assert!(
            !compare(&base, &doc("cargo", 60.0, 50.0, "aa"), None)
                .unwrap()
                .1
        );
        let (table, breached) = compare(&base, &doc("cargo", 100.0, 50.5, "aa"), None).unwrap();
        assert!(breached && table.contains("EXACT COUNT DIFFERS"), "{table}");
        let (table, breached) = compare(&base, &doc("cargo", 100.0, 50.0, "bb"), None).unwrap();
        assert!(breached && table.contains("inputs_differ"), "{table}");
        assert!(compare(&base, &doc("offline-stubs", 100.0, 50.0, "aa"), None).is_err());
        assert!(compare(&base, "{", None).is_err());
        // A bound read from BENCHMARK.json overrides the registry's.
        let tight = r#"{"end_to_end":[{"name":"hook_ns_per_cmd_p50","bound":0.1}]}"#;
        assert!(
            compare(&base, &doc("cargo", 120.0, 50.0, "aa"), Some(tight))
                .unwrap()
                .1
        );
    }
}
