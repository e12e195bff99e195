//! The benchmark's own gate: `--smoke` is deterministic, complete and
//! correct, and `BENCHMARK.json` names exactly what the registry measures.

use std::path::PathBuf;
use vscsistats_e2e::json::{parse, Json};
use vscsistats_e2e::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use vscsistats_e2e::report::{document, exact_json, render};
use vscsistats_e2e::run::{run, Plan, RunReport};

fn smoke(seed: u64, traced: bool, tag: &str) -> RunReport {
    run(Plan {
        seed,
        seconds: 0.0,
        focus: None,
        traced,
        smoke: true,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-smoke-{tag}")),
    })
}

#[test]
fn smoke_twice_is_complete_correct_and_byte_identical() {
    let a = smoke(11, true, "a");
    let b = smoke(11, true, "b");
    for report in [&a, &b] {
        assert_eq!(report.ops.failed, 0, "{}", render(report));
        assert!(report.ops.attempted > 0);
        // Every metric of the issue, once, with its unit.
        let text = render(report);
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let m = report
                .metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{} not emitted", def.name));
            assert!(m.value.is_finite(), "{} = {}", def.name, m.value);
            assert!(!def.unit.is_empty());
            assert_eq!(
                text.lines()
                    .filter(|l| l.split_whitespace().next() == Some(def.name))
                    .count(),
                1,
                "{} printed once",
                def.name
            );
        }
        // End-to-end metrics are never zero (a bound is a share of them).
        for def in END_TO_END.iter() {
            assert!(report.metrics.value(def.name) > 0.0, "{}", def.name);
        }
        assert!(!report.tracer.spans().is_empty());
    }
    // Exact counts, digests and ledgers repeat byte for byte.
    assert_eq!(exact_json(&a).to_line(), exact_json(&b).to_line());

    // The contract's result line and the compare document both parse.
    let line = parse(&a.contract_line()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let names: Vec<&str> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, PER_LAYER.map(|d| d.name));
    assert!(parse(&document(&[a, b]).to_pretty()).is_ok());
}

#[test]
fn a_second_seed_passes_with_other_inputs() {
    let a = smoke(11, false, "c");
    let b = smoke(12, false, "d");
    assert_eq!(b.ops.failed, 0, "{}", render(&b));
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_ne!(x.input_digest, y.input_digest, "{}", x.workload);
    }
    let names: Vec<String> = parse(&b.contract_line())
        .ok()
        .and_then(|line| {
            Some(
                line.get("metrics")?
                    .as_obj()?
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect(),
            )
        })
        .expect("metrics");
    assert_eq!(names, END_TO_END.map(|d| d.name));
}

#[test]
fn benchmark_json_names_what_the_registry_measures() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses");
    let str_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .filter_map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|(name, _)| name));
    for (w, (_, why)) in list("workloads").iter().zip(WORKLOADS) {
        assert_eq!(str_of(w, "why").as_deref(), Some(why));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, def) in listed.iter().zip(defs) {
            assert_eq!(str_of(m, "name").as_deref(), Some(def.name));
            assert_eq!(str_of(m, "unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                str_of(m, "better").as_deref(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}
