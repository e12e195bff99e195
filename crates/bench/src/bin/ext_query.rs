//! Extension experiment: the trace-analytics engine answers the same
//! question the same way however it is run.
//!
//! Captures a multi-segment synthetic archive through a real
//! [`TraceStore`] (so writer-emitted VSTRIDX1 sidecars are in play), then
//! answers the same questions three ways and compares the answers:
//!
//! * **naive** — one thread, no index: decode every block, filter every
//!   record.
//! * **indexed(1)** — one thread with predicate pushdown against the
//!   sidecar zone maps: selective predicates skip whole blocks before a
//!   single byte is CRC'd or decoded.
//! * **indexed(N)** — the same pushdown fanned across the scan pool, one
//!   worker per core.
//!
//! Three phases:
//!
//! * **Full scan** (`Predicate::True`) — nothing can be skipped. Every
//!   mode's per-target digests must equal the histograms an *online*
//!   collector produced from the very same record stream (capture → query
//!   ≡ capture → replay, bit for bit).
//! * **Selective scan** (a narrow time window over a time-ordered
//!   archive) — the block-skip ratio is the headline number, and the modes
//!   must still agree.
//! * **Corruption** — two segments get a mid-payload byte flip; every
//!   mode must agree with the serial reference on the damaged archive,
//!   count the skipped blocks in `skipped_by_corruption`, and close the
//!   block conservation ledger exactly.
//!
//! Stdout is a function of the seed and nothing else, and the exit status
//! is "every check passed" — `crates/bench/tests/suites.rs` runs the binary
//! twice and compares. How fast each mode is belongs to `ext_e2e`'s
//! `trace_query` workload (`query_selective_ms_p50`,
//! `query_full_records_per_s` against
//! `tracestore.query.{serial,noindex}_records_per_s`).
//!
//! Usage: `ext_query [seed]` (seed defaults to 11).

use simkit::splitmix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use tracestore::{
    reference_scan, Predicate, QueryConfig, QueryEngine, QueryOutcome, TraceStore, TraceStoreConfig,
};
use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
use vscsi_stats::{replay, CollectorConfig, TraceRecord, TraceSink};
use vscsistats_bench::reporting::{seed_arg, shape_report, ShapeCheck};

const VMS: u32 = 4;
const DISKS: u32 = 2;
const RECORDS: u64 = 240_000;

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

fn run(dir: &Path, predicate: &Predicate, mode: &Mode) -> QueryOutcome {
    QueryEngine::new(QueryConfig {
        threads: mode.threads,
        use_index: mode.use_index,
        ..QueryConfig::default()
    })
    .run(dir, predicate)
    .expect("query")
}

/// One outcome per entry of [`MODES`], each with a closed block ledger.
fn run_phase(dir: &Path, predicate: &Predicate, phase: &str) -> Vec<QueryOutcome> {
    MODES
        .iter()
        .map(|mode| {
            let outcome = run(dir, predicate, mode);
            assert!(outcome.report.conserves(), "{} {phase} ledger", mode.name);
            outcome
        })
        .collect()
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

fn main() {
    let seed = seed_arg(11);
    let dir = std::env::temp_dir().join(format!("ext-query-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");

    println!("=== ext_query: indexed parallel scan vs naive full decode ===");
    println!(
        "seed {seed}, {RECORDS} records across {} targets",
        VMS * DISKS
    );

    // Capture, losslessly: the store blocks producers on a full ring until
    // demoted, and nothing here stalls the writer, so every generated
    // record reaches disk, so the on-disk archive and the in-memory
    // stream describe the same workload.
    let stream = generate(seed, RECORDS);
    let store = capture(&dir, &stream);
    assert_eq!(store.records, RECORDS, "lossless capture");
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

    // Phase 1: full scan. Nothing skippable; pins the online-equivalence
    // contract.
    let full = run_phase(&dir, &Predicate::True, "full-scan");
    let full_digests = digest_rows(&full[0].targets);
    checks.push(ShapeCheck::new(
        "full-scan query reproduces online histograms bit-for-bit",
        if full_digests == online {
            "every target digest equal".to_string()
        } else {
            "digest mismatch vs online collectors".to_string()
        },
        full_digests == online,
    ));
    let modes_agree_full = full.iter().all(|o| digest_rows(&o.targets) == full_digests);
    checks.push(ShapeCheck::new(
        "all modes agree on the full scan",
        if modes_agree_full {
            "naive == indexed1 == indexedN".to_string()
        } else {
            "mode digests diverge".to_string()
        },
        modes_agree_full,
    ));
    println!("full scan: {}", full[0].report);
    print!("{}", fmt_digests(&full_digests));

    // Phase 2: selective scan. A 5% time window over a time-ordered
    // archive; the sidecar zone maps should discard ~95% of blocks
    // before any CRC or decode work.
    let span_ns = RECORDS * 1_800;
    let window = Predicate::TimeNs {
        from_ns: span_ns * 47 / 100,
        to_ns: span_ns * 52 / 100,
    };
    let selective = run_phase(&dir, &window, "selective");
    let sel_digests = digest_rows(&selective[0].targets);
    let modes_agree_sel = selective
        .iter()
        .all(|o| digest_rows(&o.targets) == sel_digests);
    checks.push(ShapeCheck::new(
        "all modes agree on the selective scan",
        if modes_agree_sel {
            "naive == indexed1 == indexedN".to_string()
        } else {
            "mode digests diverge".to_string()
        },
        modes_agree_sel,
    ));
    // The indexed single-thread outcome: the one whose skip ledger
    // describes what pushdown actually did.
    let sel_report = &selective[1].report;
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
        sel_report.records_matched, RECORDS, sel_report.skipped_by_index, sel_report.total_blocks
    );

    // Phase 3: corruption. Flip one mid-payload byte in two segments;
    // sizes are unchanged so the (now stale-but-valid) sidecars stay in
    // play and the scan has to *discover* the rot block by block.
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(tracestore::SEGMENT_EXTENSION))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "the archive spans several segments");
    for v in [0, segments.len() / 2] {
        let path = &segments[v];
        let mut data = fs::read(path).expect("read segment");
        let at = data.len() / 3;
        data[at] ^= 0x41;
        fs::write(path, data).expect("rewrite segment");
    }
    let corrupt_full = run(&dir, &Predicate::True, &MODES[2]);
    let corrupt_selective = run(&dir, &window, &MODES[2]);
    let corrupt_naive = run(&dir, &Predicate::True, &MODES[0]);
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

    let _ = fs::remove_dir_all(&dir);
    if !pass {
        std::process::exit(1);
    }
}
