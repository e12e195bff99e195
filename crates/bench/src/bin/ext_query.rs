//! Extension experiment: the trace-analytics engine's performance story.
//!
//! Captures a multi-segment synthetic archive through a real
//! [`TraceStore`] (so writer-emitted VSTRIDX1 sidecars are in play), then
//! answers the same questions three ways and times them:
//!
//! * **naive** — one thread, no index: decode every block, filter every
//!   record. This is the baseline any grep-shaped tool would pay.
//! * **indexed(1)** — one thread with predicate pushdown against the
//!   sidecar zone maps: selective predicates skip whole blocks before a
//!   single byte is CRC'd or decoded.
//! * **indexed(N)** — the same pushdown fanned across the work-stealing
//!   scan pool, one worker per core.
//!
//! Three phases:
//!
//! * **Full scan** (`Predicate::True`) — nothing can be skipped, so this
//!   isolates the parallel speedup. Every mode's per-target digests must
//!   equal the histograms an *online* collector produced from the very
//!   same record stream (capture → query ≡ capture → replay, bit for
//!   bit).
//! * **Selective scan** (a narrow time window over a time-ordered
//!   archive) — isolates the pushdown win: the block-skip ratio and the
//!   indexed-vs-naive speedup are the headline numbers.
//! * **Corruption** — two segments get a mid-payload byte flip; every
//!   mode must agree with the serial reference on the damaged archive,
//!   count the skipped blocks in `skipped_by_corruption`, and close the
//!   block conservation ledger exactly.
//!
//! Everything on **stdout** and every non-`wall_` JSON field is
//! deterministic in the seed — CI runs the binary twice and diffs both.
//! Wall-clock timings and speedup ratios go to stderr and to
//! `wall_`-prefixed JSON keys only.
//!
//! Usage: `ext_query [seed] [--smoke] [--quick] [--records N]
//! [--json PATH | --no-json]` (seed defaults to 11, JSON to
//! `BENCH_query.json`; `--smoke` shrinks the archive and relaxes the
//! timing gates to liveness for CI).

use simkit::splitmix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracestore::{
    reference_scan, Predicate, QueryConfig, QueryEngine, QueryOutcome, TraceStore, TraceStoreConfig,
};
use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
use vscsi_stats::{replay, CollectorConfig, TraceRecord, TraceSink};
use vscsistats_bench::reporting::{shape_report, ShapeCheck};

const VMS: u32 = 4;
const DISKS: u32 = 2;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Deterministic synthetic stream: `n` records in global issue order
/// across [`VMS`]×[`DISKS`] targets, mixing sequential and random LBAs,
/// power-of-two sizes, and mostly-completed commands, so every histogram
/// the collectors build has occupied bins.
fn generate(seed: u64, n: u64) -> Vec<TraceRecord> {
    let mut records = Vec::with_capacity(n as usize);
    let mut heads = vec![0u64; (VMS * DISKS) as usize];
    for i in 0..n {
        let mix = splitmix64(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
        let vm = (mix % u64::from(VMS)) as u32;
        let disk = ((mix >> 8) % u64::from(DISKS)) as u32;
        let slot = (vm * DISKS + disk) as usize;
        let sectors = 8u32 << ((mix >> 16) % 6);
        // Even-numbered targets stream sequentially, odd ones seek.
        let lba = if slot.is_multiple_of(2) {
            let at = heads[slot];
            heads[slot] += u64::from(sectors);
            at
        } else {
            (mix >> 20) % (1 << 28)
        };
        let issue_ns = i * 1_800 + mix % 1_500;
        let latency = ((mix >> 32) % 3_000_000).max(40_000);
        let completed = !mix.is_multiple_of(32); // ~3% still in flight
        records.push(TraceRecord {
            serial: i,
            target: TargetId::new(VmId(vm), VDiskId(disk)),
            direction: if mix % 5 < 2 {
                IoDirection::Write
            } else {
                IoDirection::Read
            },
            lba: Lba::new(lba),
            num_sectors: sectors,
            issue_ns,
            complete_ns: completed.then(|| issue_ns + latency),
            complete_seq: completed.then_some(i),
        });
    }
    records
}

/// Captures the stream through a real store, sized so the archive spans
/// several segments and hundreds of blocks.
fn capture(dir: &Path, records: &[TraceRecord]) -> tracestore::StoreReport {
    let mut config = TraceStoreConfig::new(dir);
    config.chunk_bytes = 16 << 10;
    config.segment_max_bytes = 1 << 20;
    let store = TraceStore::create(config).expect("create store");
    let mut sink = store.handle();
    for r in records {
        TraceSink::append(&mut sink, r);
    }
    drop(sink);
    store.finish()
}

/// Per-target `(vm, disk, records, digest)` rows, already sorted by
/// target (the engine sorts its output).
type DigestRow = (u32, u32, u64, u64);

fn digest_rows(rows: &[tracestore::TargetQueryResult]) -> Vec<DigestRow> {
    rows.iter()
        .map(|r| (r.target.vm.0, r.target.disk.0, r.records, r.digest()))
        .collect()
}

struct Mode {
    name: &'static str,
    threads: usize,
    use_index: bool,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "naive",
        threads: 1,
        use_index: false,
    },
    Mode {
        name: "indexed1",
        threads: 1,
        use_index: true,
    },
    Mode {
        name: "indexedN",
        threads: 0,
        use_index: true,
    },
];

/// Runs one mode `reps` times and keeps the fastest wall time (the
/// outcome is identical across reps — that is asserted elsewhere).
fn timed_run(dir: &Path, predicate: &Predicate, mode: &Mode, reps: u32) -> (QueryOutcome, f64) {
    let engine = QueryEngine::new(QueryConfig {
        threads: mode.threads,
        use_index: mode.use_index,
        ..QueryConfig::default()
    });
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let o = engine.run(dir, predicate).expect("query");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        outcome = Some(o);
    }
    (outcome.unwrap(), best)
}

struct PhaseResult {
    outcomes: Vec<(String, QueryOutcome)>,
    wall_ms: Vec<(String, f64)>,
}

fn run_phase(dir: &Path, predicate: &Predicate, reps: u32) -> PhaseResult {
    let mut outcomes = Vec::new();
    let mut wall_ms = Vec::new();
    for mode in &MODES {
        let (outcome, ms) = timed_run(dir, predicate, mode, reps);
        wall_ms.push((mode.name.to_string(), ms));
        outcomes.push((mode.name.to_string(), outcome));
    }
    PhaseResult { outcomes, wall_ms }
}

fn fmt_digests(rows: &[DigestRow]) -> String {
    let mut out = String::new();
    for (vm, disk, records, digest) in rows {
        let _ = writeln!(
            out,
            "  vm{vm}/disk{disk}: {records} records, digest {digest:016x}"
        );
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    seed: u64,
    records: u64,
    store: &tracestore::StoreReport,
    ncores: usize,
    full: &PhaseResult,
    selective: &PhaseResult,
    corrupt_full: &QueryOutcome,
    corrupt_selective: &QueryOutcome,
    digests: &[DigestRow],
    wall_speedups: &[(&str, f64)],
    pass: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"ext_query\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"records\": {records},");
    let _ = writeln!(out, "  \"cores\": {ncores},");
    let _ = writeln!(
        out,
        "  \"segments\": {}, \"blocks\": {}, \"trace_bytes\": {}, \"index_bytes\": {},",
        store.segments, store.blocks, store.bytes_written, store.index_bytes
    );
    for (label, phase) in [("full", full), ("selective", selective)] {
        // The indexed single-thread outcome: the one whose skip ledger
        // describes what pushdown actually did.
        let report = &phase.outcomes[1].1.report;
        let _ = writeln!(
            out,
            "  \"{label}\": {{ \"total_blocks\": {}, \"scanned_blocks\": {}, \
             \"skipped_by_index\": {}, \"records_matched\": {}, \"skip_ratio\": {:.4} }},",
            report.total_blocks,
            report.scanned_blocks,
            report.skipped_by_index,
            report.records_matched,
            report.skip_ratio()
        );
    }
    for (label, outcome) in [
        ("corrupt_full", corrupt_full),
        ("corrupt_selective", corrupt_selective),
    ] {
        let report = &outcome.report;
        let _ = writeln!(
            out,
            "  \"{label}\": {{ \"total_blocks\": {}, \"scanned_blocks\": {}, \
             \"skipped_by_index\": {}, \"skipped_by_corruption\": {}, \"records_lost\": {}, \
             \"records_matched\": {}, \"conserves\": {} }},",
            report.total_blocks,
            report.scanned_blocks,
            report.skipped_by_index,
            report.skipped_by_corruption,
            report.records_lost,
            report.records_matched,
            report.conserves()
        );
    }
    let _ = writeln!(out, "  \"digests\": [");
    for (i, (vm, disk, matched, digest)) in digests.iter().enumerate() {
        let comma = if i + 1 == digests.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"vm\": {vm}, \"disk\": {disk}, \"records\": {matched}, \
             \"digest\": \"{digest:016x}\" }}{comma}"
        );
    }
    let _ = writeln!(out, "  ],");
    for (phase, label) in [(full, "full"), (selective, "selective")] {
        for (mode, ms) in &phase.wall_ms {
            let _ = writeln!(out, "  \"wall_{label}_{mode}_ms\": {ms:.3},");
        }
    }
    for (name, ratio) in wall_speedups {
        let _ = writeln!(out, "  \"wall_speedup_{name}\": {ratio:.3},");
    }
    let _ = writeln!(out, "  \"pass\": {pass}");
    let _ = writeln!(out, "}}");
    out
}

fn main() {
    let mut seed = 11u64;
    let mut records = 240_000u64;
    let mut reps = 3u32;
    let mut smoke = false;
    let mut json_path: Option<String> = Some("BENCH_query.json".to_string());
    let mut seed_set = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = it.next().cloned(),
            "--no-json" => json_path = None,
            "--smoke" => {
                smoke = true;
                records = 16_000;
                reps = 1;
            }
            "--quick" => {
                records = 80_000;
                reps = 2;
            }
            "--records" => {
                records = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--records needs a number");
            }
            other => {
                if !seed_set {
                    if let Ok(v) = other.parse() {
                        seed = v;
                        seed_set = true;
                        continue;
                    }
                }
                eprintln!(
                    "unknown argument {other:?} (usage: ext_query [seed] [--smoke] [--quick] \
                     [--records N] [--json PATH | --no-json])"
                );
                std::process::exit(2);
            }
        }
    }

    let ncores = cores();
    let dir = std::env::temp_dir().join(format!("ext-query-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");

    println!("=== ext_query: indexed parallel scan vs naive full decode ===");
    println!(
        "seed {seed}, {records} records across {} targets",
        VMS * DISKS
    );

    // Capture, losslessly: the store blocks producers on a full ring until
    // demoted, and nothing here stalls the writer, so every generated
    // record reaches disk, so the on-disk archive and the in-memory
    // stream describe the same workload.
    let stream = generate(seed, records);
    let store = capture(&dir, &stream);
    assert_eq!(store.records, records, "lossless capture");
    assert_eq!(store.drops.dropped_records(), 0, "no backpressure drops");
    println!(
        "captured {} records into {} segments / {} blocks ({} trace bytes, {} index bytes)",
        store.records, store.segments, store.blocks, store.bytes_written, store.index_bytes
    );

    // Online ground truth: per-target collectors fed the same stream the
    // store persisted. `capture → query` must reproduce these bit for bit.
    let mut buckets: BTreeMap<TargetId, Vec<TraceRecord>> = BTreeMap::new();
    for r in &stream {
        buckets.entry(r.target).or_default().push(*r);
    }
    let online: Vec<DigestRow> = buckets
        .iter()
        .map(|(target, records)| {
            let result = tracestore::TargetQueryResult {
                target: *target,
                records: records.len() as u64,
                collector: replay(records, CollectorConfig::paper_figures()),
            };
            (target.vm.0, target.disk.0, result.records, result.digest())
        })
        .collect();

    let mut checks: Vec<ShapeCheck> = Vec::new();

    // Phase 1: full scan. Nothing skippable; isolates parallelism and
    // pins the online-equivalence contract.
    let full = run_phase(&dir, &Predicate::True, reps);
    for (mode, outcome) in &full.outcomes {
        assert!(outcome.report.conserves(), "{mode} full-scan ledger");
    }
    let full_digests = digest_rows(&full.outcomes[0].1.targets);
    checks.push(ShapeCheck::new(
        "full-scan query reproduces online histograms bit-for-bit",
        if full_digests == online {
            "every target digest equal".to_string()
        } else {
            "digest mismatch vs online collectors".to_string()
        },
        full_digests == online,
    ));
    let modes_agree_full = full
        .outcomes
        .iter()
        .all(|(_, o)| digest_rows(&o.targets) == full_digests);
    checks.push(ShapeCheck::new(
        "all modes agree on the full scan",
        if modes_agree_full {
            "naive == indexed1 == indexedN".to_string()
        } else {
            "mode digests diverge".to_string()
        },
        modes_agree_full,
    ));
    println!("full scan: {}", full.outcomes[0].1.report);
    print!("{}", fmt_digests(&full_digests));

    // Phase 2: selective scan. A 5% time window over a time-ordered
    // archive; the sidecar zone maps should discard ~95% of blocks
    // before any CRC or decode work.
    let span_ns = records * 1_800;
    let window = Predicate::TimeNs {
        from_ns: span_ns * 47 / 100,
        to_ns: span_ns * 52 / 100,
    };
    let selective = run_phase(&dir, &window, reps);
    for (mode, outcome) in &selective.outcomes {
        assert!(outcome.report.conserves(), "{mode} selective ledger");
    }
    let sel_digests = digest_rows(&selective.outcomes[0].1.targets);
    let modes_agree_sel = selective
        .outcomes
        .iter()
        .all(|(_, o)| digest_rows(&o.targets) == sel_digests);
    checks.push(ShapeCheck::new(
        "all modes agree on the selective scan",
        if modes_agree_sel {
            "naive == indexed1 == indexedN".to_string()
        } else {
            "mode digests diverge".to_string()
        },
        modes_agree_sel,
    ));
    let sel_report = &selective.outcomes[1].1.report;
    let skip_ratio = sel_report.skip_ratio();
    checks.push(ShapeCheck::new(
        "pushdown skips most blocks on a 5% time window",
        format!(
            "skip ratio {:.3} ({} of {} blocks untouched)",
            skip_ratio, sel_report.skipped_by_index, sel_report.total_blocks
        ),
        skip_ratio >= 0.5,
    ));
    println!(
        "selective scan: {} matched of {} ({} of {} blocks index-skipped)",
        sel_report.records_matched, records, sel_report.skipped_by_index, sel_report.total_blocks
    );

    // Timing gates. Smoke runs keep them at liveness so CI stays green
    // on noisy shared runners; real runs demand the paper-shaped wins.
    let wall = |phase: &PhaseResult, mode: &str| {
        phase
            .wall_ms
            .iter()
            .find(|(m, _)| m == mode)
            .map(|(_, ms)| *ms)
            .unwrap()
    };
    let speedup_pushdown = wall(&selective, "naive") / wall(&selective, "indexed1");
    let speedup_parallel = wall(&full, "indexed1") / wall(&full, "indexedN");
    let speedup_combined = wall(&selective, "naive") / wall(&selective, "indexedN");
    let pushdown_floor: f64 = if smoke { 0.0 } else { 1.5 };
    let parallel_floor = if smoke {
        0.0
    } else if ncores >= 4 {
        1.6
    } else if ncores >= 2 {
        1.15
    } else {
        0.4
    };
    eprintln!(
        "wall: full naive {:.1} ms, indexed1 {:.1} ms, indexedN {:.1} ms ({ncores} cores)",
        wall(&full, "naive"),
        wall(&full, "indexed1"),
        wall(&full, "indexedN")
    );
    eprintln!(
        "wall: selective naive {:.2} ms, indexed1 {:.2} ms, indexedN {:.2} ms",
        wall(&selective, "naive"),
        wall(&selective, "indexed1"),
        wall(&selective, "indexedN")
    );
    eprintln!(
        "speedup: pushdown x{speedup_pushdown:.1}, parallel x{speedup_parallel:.2}, \
         combined x{speedup_combined:.1}"
    );
    checks.push(ShapeCheck::new(
        "indexed beats naive full-decode on the selective predicate",
        format!(
            "{} (ratio in wall_speedup_pushdown)",
            if speedup_pushdown >= pushdown_floor.max(1.0) {
                "faster"
            } else {
                "within threshold"
            }
        ),
        speedup_pushdown >= pushdown_floor,
    ));
    checks.push(ShapeCheck::new(
        "scan pool scales the full scan across cores",
        format!(
            "{} (ratio in wall_speedup_parallel, floor scaled to cores)",
            if speedup_parallel >= 1.0 {
                "faster"
            } else {
                "within threshold"
            }
        ),
        speedup_parallel >= parallel_floor,
    ));

    // Phase 3: corruption. Flip one mid-payload byte in two segments;
    // sizes are unchanged so the (now stale-but-valid) sidecars stay in
    // play and the scan has to *discover* the rot block by block.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(tracestore::SEGMENT_EXTENSION))
        .collect();
    segments.sort();
    // Dedup: a small smoke archive may be a single segment, and flipping
    // the same byte twice would cancel out.
    let mut victims = vec![0, segments.len() / 2];
    victims.dedup();
    for &v in &victims {
        let path = &segments[v];
        let mut data = fs::read(path).expect("read segment");
        let at = data.len() / 3;
        data[at] ^= 0x41;
        fs::write(path, data).expect("rewrite segment");
    }
    let (corrupt_full, _) = timed_run(&dir, &Predicate::True, &MODES[2], 1);
    let (corrupt_selective, _) = timed_run(&dir, &window, &MODES[2], 1);
    let (corrupt_naive, _) = timed_run(&dir, &Predicate::True, &MODES[0], 1);
    let (reference, _) = reference_scan(&dir, &Predicate::True, &CollectorConfig::paper_figures())
        .expect("reference scan");
    let corrupt_digests = digest_rows(&corrupt_full.targets);
    let corrupt_ok = corrupt_full.report.conserves()
        && corrupt_selective.report.conserves()
        && corrupt_full.report.skipped_by_corruption >= 1
        && corrupt_digests == digest_rows(&corrupt_naive.targets)
        && corrupt_digests == digest_rows(&reference);
    checks.push(ShapeCheck::new(
        "corrupted blocks are skipped, counted, and conserved identically in every mode",
        format!(
            "{} corrupt block(s), {} record(s) lost, ledger {}",
            corrupt_full.report.skipped_by_corruption,
            corrupt_full.report.records_lost,
            if corrupt_full.report.conserves() {
                "closed"
            } else {
                "OPEN"
            }
        ),
        corrupt_ok,
    ));
    println!(
        "after damage: {} corrupt block(s), {} record(s) lost, {} matched",
        corrupt_full.report.skipped_by_corruption,
        corrupt_full.report.records_lost,
        corrupt_full.report.records_matched
    );

    let (report, pass) = shape_report(&checks);
    print!("{report}");

    let wall_speedups = [
        ("pushdown", speedup_pushdown),
        ("parallel", speedup_parallel),
        ("combined", speedup_combined),
    ];
    if let Some(path) = json_path {
        let json = to_json(
            seed,
            records,
            &store,
            ncores,
            &full,
            &selective,
            &corrupt_full,
            &corrupt_selective,
            &full_digests,
            &wall_speedups,
            pass,
        );
        fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }

    let _ = fs::remove_dir_all(&dir);
    if !pass {
        std::process::exit(1);
    }
}
