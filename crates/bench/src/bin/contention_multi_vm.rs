//! Multi-VM ingestion contention experiment: the thread-per-core SPSC
//! pipeline vs the sharded `StatsService` vs the pre-sharding global-lock
//! baseline under parallel load.
//!
//! Spawns 1→8 worker threads, each replaying its share of 8 VMs'
//! pre-generated issue/completion streams, and reports aggregate
//! ingestion throughput for four paths: global-lock per-event, sharded
//! per-event, sharded batched (64-event batches), and thread-per-core
//! (lock-free SPSC lanes feeding aggregator workers that own disjoint
//! shard sets). Emits the results as machine-readable
//! `BENCH_contention.json` next to the table.
//!
//! Shape criteria (exit non-zero on mismatch) scale with the host's core
//! count — contention only exists where there is parallelism to
//! serialize, so a 1-core CI container is held to sanity floors while an
//! 8-core host is held to the trajectory targets (thread-per-core ≥ 10×
//! the global lock at 8 threads):
//! * thread-per-core and sharded throughput vs the global lock at max
//!   threads, thresholds by core count;
//! * the best production single-thread path (sharded, batched, or
//!   thread-per-core) must not regress vs the global-lock seed
//!   (`single_thread_regression_pct <= 0`).
//!
//! Flags: `--quick` / `--smoke` shrink the workload (`--smoke` also
//! skips the JSON and relaxes the shape checks to liveness, for CI),
//! `--mode global|sharded|threadpercore|all` restricts which paths run,
//! `--commands N`, `--json PATH`, `--no-json`.

use std::fmt::Write as _;
use std::sync::Arc;
use vscsi_stats::{PipelineConfig, StatsService};
use vscsistats_bench::contention::{events_per_second, make_workload, run_pipeline, run_threads};
use vscsistats_bench::legacy::GlobalLockService;
use vscsistats_bench::reporting::{shape_report, ShapeCheck};

const TARGETS: u32 = 8;
const BATCH: usize = 64;
const REPS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Global,
    Sharded,
    ThreadPerCore,
    All,
}

impl Mode {
    fn runs_global(self) -> bool {
        matches!(self, Mode::Global | Mode::All)
    }
    fn runs_sharded(self) -> bool {
        matches!(self, Mode::Sharded | Mode::All)
    }
    fn runs_tpc(self) -> bool {
        matches!(self, Mode::ThreadPerCore | Mode::All)
    }
}

struct Row {
    threads: usize,
    global_lock: f64,
    sharded: f64,
    sharded_batch: f64,
    threadpercore: f64,
    /// Median over reps of the *paired* per-rep ratio between the best
    /// production path and the global lock (only computed when both ran).
    /// Pairing within a rep cancels noise that hits the whole rep —
    /// neighbors, frequency ramps — which point estimates can't.
    best_vs_global_median: Option<f64>,
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        aggregators: cores().clamp(1, 4),
        ring_capacity: 1024,
        drain_batch: 16,
        ..PipelineConfig::default()
    }
}

fn run_global(workload: &[Vec<vscsi_stats::VscsiEvent>]) -> f64 {
    let service = GlobalLockService::default();
    service.enable_all();
    events_per_second(workload, run_threads(&service, workload, 1))
}

fn run_sharded(workload: &[Vec<vscsi_stats::VscsiEvent>], batch: usize) -> f64 {
    let service = StatsService::default();
    service.enable_all();
    events_per_second(workload, run_threads(&service, workload, batch))
}

fn run_tpc(workload: &[Vec<vscsi_stats::VscsiEvent>]) -> f64 {
    let service = Arc::new(StatsService::default());
    service.enable_all();
    events_per_second(
        workload,
        run_pipeline(&service, workload, pipeline_config(), BATCH),
    )
}

/// Best-of-`reps` for every path, with the paths interleaved inside each
/// rep (rather than one block per path) so ambient noise — neighbors,
/// frequency ramps — is sampled by all paths alike, and a discarded
/// warmup rep so the first timed rep doesn't pay cold caches.
fn measure(threads: usize, commands_per_target: u64, reps: usize, mode: Mode) -> Row {
    let workload = make_workload(threads, TARGETS, commands_per_target, 0xC047);
    let mut row = Row {
        threads,
        global_lock: 0.0,
        sharded: 0.0,
        sharded_batch: 0.0,
        threadpercore: 0.0,
        best_vs_global_median: None,
    };
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let warmup = rep == 0;
        let global = if mode.runs_global() {
            let v = run_global(&workload);
            if !warmup {
                row.global_lock = row.global_lock.max(v);
            }
            v
        } else {
            0.0
        };
        let mut best_production = 0.0f64;
        if mode.runs_sharded() {
            let per_event = run_sharded(&workload, 1);
            let batched = run_sharded(&workload, BATCH);
            if !warmup {
                row.sharded = row.sharded.max(per_event);
                row.sharded_batch = row.sharded_batch.max(batched);
            }
            best_production = best_production.max(per_event).max(batched);
        }
        if mode.runs_tpc() {
            let v = run_tpc(&workload);
            if !warmup {
                row.threadpercore = row.threadpercore.max(v);
            }
            best_production = best_production.max(v);
        }
        if !warmup && global > 0.0 && best_production > 0.0 {
            ratios.push(best_production / global);
        }
    }
    ratios.sort_by(f64::total_cmp);
    if !ratios.is_empty() {
        row.best_vs_global_median = Some(ratios[ratios.len() / 2]);
    }
    row
}

/// Core-count-scaled pass thresholds: `(tpc_floor, sharded_floor,
/// batch_floor)` — required speedups over the global lock (first two)
/// and over per-event sharded ingestion (batch) at max threads. On a
/// single core there is no lock contention to remove, so only sanity
/// floors apply (the pipeline pays its thread hand-offs out of one
/// timeslice). The batch floor is a sanity floor at every core count:
/// `handle_batch` is the per-event hooks fed from a slice.
fn thresholds(cores: usize) -> (f64, f64, f64) {
    match cores {
        0 | 1 => (0.25, 0.8, 0.75),
        2 | 3 => (0.8, 1.1, 0.8),
        4..=7 => (3.0, 2.0, 0.9),
        _ => (10.0, 3.0, 0.9),
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    rows: &[Row],
    commands_per_target: u64,
    cores: usize,
    speedup: f64,
    tpc_speedup: f64,
    regression_pct: f64,
    best_path: &str,
    pass: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"service_contention\",");
    let _ = writeln!(out, "  \"targets\": {TARGETS},");
    let _ = writeln!(out, "  \"commands_per_target\": {commands_per_target},");
    let _ = writeln!(out, "  \"batch_size\": {BATCH},");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"threads\": {}, \"global_lock_events_per_sec\": {:.0}, \
             \"sharded_events_per_sec\": {:.0}, \"sharded_batch_events_per_sec\": {:.0}, \
             \"threadpercore_events_per_sec\": {:.0}, \"speedup_vs_global_lock\": {:.2}, \
             \"tpc_speedup_vs_global_lock\": {:.2}}}{comma}",
            r.threads,
            r.global_lock,
            r.sharded,
            r.sharded_batch,
            r.threadpercore,
            r.sharded / r.global_lock.max(1.0),
            r.threadpercore / r.global_lock.max(1.0),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedup_at_max_threads\": {speedup:.2},");
    let _ = writeln!(out, "  \"tpc_speedup_at_max_threads\": {tpc_speedup:.2},");
    let _ = writeln!(
        out,
        "  \"single_thread_regression_pct\": {regression_pct:.1},"
    );
    let _ = writeln!(out, "  \"single_thread_best_path\": \"{best_path}\",");
    let _ = writeln!(
        out,
        "  \"notes\": \"measured on {cores} core(s); pass thresholds scale with core count \
         (contention needs parallelism to manifest); regression compares the best production \
         single-thread path against the global-lock seed\","
    );
    let _ = writeln!(out, "  \"pass\": {pass}");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let mut commands_per_target: u64 = 20_000;
    let mut json_path = Some(String::from("BENCH_contention.json"));
    let mut reps = REPS;
    let mut smoke = false;
    let mut mode = Mode::All;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => commands_per_target = 2_000,
            "--smoke" => {
                smoke = true;
                commands_per_target = 500;
                reps = 1;
                json_path = None;
            }
            "--mode" => {
                mode = match it.next().as_deref() {
                    Some("global") => Mode::Global,
                    Some("sharded") => Mode::Sharded,
                    Some("threadpercore") => Mode::ThreadPerCore,
                    Some("all") => Mode::All,
                    other => {
                        eprintln!("--mode needs global|sharded|threadpercore|all, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--commands" => {
                commands_per_target = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--commands needs a number");
            }
            "--json" => json_path = it.next(),
            "--no-json" => json_path = None,
            other => {
                eprintln!(
                    "unknown argument {other:?} (flags: --quick --smoke \
                     --mode global|sharded|threadpercore|all --commands N --json PATH --no-json)"
                );
                std::process::exit(2);
            }
        }
    }

    let cores = cores();
    println!(
        "=== Ingestion contention: {TARGETS} VMs, {commands_per_target} commands each, \
         {cores} core(s) ===\n"
    );
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    // The single-thread row decides the regression check, so give it
    // extra reps — it is also the cheapest row to repeat.
    let rows: Vec<Row> = thread_counts
        .iter()
        .map(|&threads| {
            let reps = if threads == 1 { reps * 2 } else { reps };
            measure(threads, commands_per_target, reps, mode)
        })
        .collect();

    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>16} {:>9}",
        "threads", "global (ev/s)", "sharded (ev/s)", "batched (ev/s)", "tpc (ev/s)", "speedup"
    );
    for r in &rows {
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>16.0} {:>16.0} {:>8.2}x",
            r.threads,
            r.global_lock,
            r.sharded,
            r.sharded_batch,
            r.threadpercore,
            r.threadpercore.max(r.sharded) / r.global_lock.max(1.0),
        );
    }
    println!();

    if smoke || mode != Mode::All {
        // Partial runs can't compute cross-path ratios; hold them to
        // liveness instead: every path that ran must have moved events.
        let mut checks = Vec::new();
        for r in &rows {
            if mode.runs_global() {
                checks.push(ShapeCheck::new(
                    format!("global-lock path live at {} thread(s)", r.threads),
                    format!("{:.0} events/s", r.global_lock),
                    r.global_lock > 0.0,
                ));
            }
            if mode.runs_sharded() {
                checks.push(ShapeCheck::new(
                    format!("sharded paths live at {} thread(s)", r.threads),
                    format!("{:.0} / {:.0} events/s", r.sharded, r.sharded_batch),
                    r.sharded > 0.0 && r.sharded_batch > 0.0,
                ));
            }
            if mode.runs_tpc() {
                checks.push(ShapeCheck::new(
                    format!("thread-per-core path live at {} thread(s)", r.threads),
                    format!("{:.0} events/s", r.threadpercore),
                    r.threadpercore > 0.0,
                ));
            }
        }
        let (report, ok) = shape_report(&checks);
        println!("{report}");
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let single = &rows[0];
    let max = rows.last().expect("rows nonempty");
    let speedup = max.sharded / max.global_lock.max(1.0);
    let tpc_speedup = max.threadpercore / max.global_lock.max(1.0);
    // The production single-thread story: the best ingest path we'd
    // actually deploy must at least match the global-lock seed
    // (positive = regression vs the seed).
    let candidates = [
        ("sharded", single.sharded),
        ("sharded_batch", single.sharded_batch),
        ("threadpercore", single.threadpercore),
    ];
    let (best_path, best_single) =
        candidates
            .iter()
            .copied()
            .fold(("none", 0.0f64), |acc, c| if c.1 > acc.1 { c } else { acc });
    let regression_pct = match single.best_vs_global_median {
        Some(ratio) => (1.0 - ratio) * 100.0,
        None => (1.0 - best_single / single.global_lock.max(1.0)) * 100.0,
    };

    let (tpc_floor, sharded_floor, batch_floor) = thresholds(cores);
    let checks = [
        ShapeCheck::new(
            format!(
                "thread-per-core ingestion ≥ {tpc_floor}× the global lock at {} threads \
                 ({cores} cores)",
                max.threads
            ),
            format!("{tpc_speedup:.2}×"),
            tpc_speedup >= tpc_floor,
        ),
        ShapeCheck::new(
            format!(
                "sharded ingestion ≥ {sharded_floor}× the global lock at {} threads \
                 ({cores} cores)",
                max.threads
            ),
            format!("{speedup:.2}×"),
            speedup >= sharded_floor,
        ),
        ShapeCheck::new(
            "best production single-thread path does not regress vs the global lock",
            format!(
                "{regression_pct:+.1}% via {best_path} \
                 (median of paired reps; negative = faster than seed)"
            ),
            regression_pct <= 0.0,
        ),
        ShapeCheck::new(
            format!(
                "batched ingestion ≥ {batch_floor}× per-event ingestion at max threads \
                 ({cores} cores)"
            ),
            format!("{:.0} vs {:.0} events/s", max.sharded_batch, max.sharded),
            max.sharded_batch >= max.sharded * batch_floor,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");

    if let Some(path) = json_path {
        let json = to_json(
            &rows,
            commands_per_target,
            cores,
            speedup,
            tpc_speedup,
            regression_pct,
            best_path,
            ok,
        );
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
