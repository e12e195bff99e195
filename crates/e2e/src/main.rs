//! `ext_e2e`: the repo's benchmark binary. `run.sh` beside this crate
//! builds and runs it; `README.md` explains what it measures.

use std::path::PathBuf;
use std::process::ExitCode;
use vscsistats_e2e::compare::compare;
use vscsistats_e2e::metrics::WORKLOADS;
use vscsistats_e2e::report::{document, render};
use vscsistats_e2e::run::{run, Plan};

const USAGE: &str = "\
usage: ext_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
               [--smoke] [--repeat N] [--json OUT]
       ext_e2e compare A.json B.json

  --workload NAME  measure NAME at length (0.4 of the run) and the other four
                   workloads beside it (0.15 each); without it all five share the run alike
  --seed N         input seed (default 11)
  --seconds S      measured seconds (default 20 with --workload, else 45)
  --trace 1        record spans and print the per-layer metrics
  --smoke          every workload once at ~1/50 size
  --repeat N       run N times into one document
  --json OUT       write the document `compare` reads
A run works in $CARGO_TARGET_DIR/e2e-work/<pid> (target/ by default), removed
when it ends; a traced run leaves e2e-work/spans.json.
workloads: hook_hot hook_contend full_host trace_query fleet_rollup";

fn fail(message: &str) -> ExitCode {
    eprintln!("ext_e2e: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut focus = None;
    let mut seed = 11u64;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut repeat = 1usize;
    let mut json_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--repeat" | "--json") => {
                let Some(v) = it.next() else {
                    return fail(&format!("{flag} needs a value"));
                };
                let accepted = match flag {
                    "--workload" => WORKLOADS
                        .iter()
                        .find(|(w, _)| w == v)
                        .map(|(w, _)| focus = Some(*w))
                        .is_some(),
                    "--seed" => v.parse().map(|n| seed = n).is_ok(),
                    "--seconds" => v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (0.0..=3600.0).contains(s))
                        .map(|s| seconds = Some(s))
                        .is_some(),
                    "--trace" => {
                        matches!(v.as_str(), "0" | "1") && {
                            traced = v == "1";
                            true
                        }
                    }
                    "--repeat" => v
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=100).contains(n))
                        .map(|n| repeat = n)
                        .is_some(),
                    _ => {
                        json_out = Some(PathBuf::from(v));
                        true
                    }
                };
                if !accepted {
                    return fail(&format!("{flag} does not take {v}"));
                }
            }
            other => return fail(&format!("unknown argument {other}")),
        }
    }
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    // Per-process, so two runs side by side never share files.
    let workdir = base.join(format!("e2e-work/{}", std::process::id()));
    let seconds = seconds.unwrap_or(if focus.is_some() { 20.0 } else { 45.0 });

    let mut reports = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let report = run(Plan {
            seed,
            seconds,
            focus,
            traced,
            smoke,
            workdir: workdir.clone(),
        });
        print!("{}", render(&report));
        if traced {
            let path = workdir.with_file_name("spans.json");
            match std::fs::write(&path, report.tracer.to_json().to_line()) {
                Ok(()) => println!(
                    "wrote {} spans to {}",
                    report.tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("ext_e2e: cannot write {}: {e}", path.display()),
            }
        }
        reports.push(report);
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, document(&reports).to_pretty()) {
            eprintln!("ext_e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    // The benchmark contract's result line is the last thing on stdout.
    let last = reports.last().expect("repeat >= 1");
    println!("{}", last.contract_line());
    if reports.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return fail("compare takes exactly two documents");
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let benchmark = std::fs::read_to_string("BENCHMARK.json").ok();
    match compare(&a, &b, benchmark.as_deref()) {
        Ok((table, breached)) => {
            print!("{table}");
            if breached {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(refusal) => {
            eprintln!("ext_e2e compare: {refusal}");
            ExitCode::from(2)
        }
    }
}
