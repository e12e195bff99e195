//! Property tests for the parallel query engine: over arbitrary record
//! streams, arbitrary predicate ASTs, and injected damage (byte flips,
//! truncated tails, deleted sidecars), the indexed parallel scan is
//! bit-identical to the serial full-decode reference — same targets, same
//! record counts, same histogram digests — at every thread count, with
//! and without the index, and the block conservation ledger always
//! closes exactly.

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use tracestore::{
    index_path, load_or_build_file, reference_scan, CommandKind, IndexSource, Predicate,
    QueryConfig, QueryEngine, TargetQueryResult, TraceStore, TraceStoreConfig, SEGMENT_EXTENSION,
};
use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, TraceRecord, TraceSink};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let path = std::env::temp_dir().join(format!("queryprops-{tag}-{}-{n}", std::process::id()));
    fs::create_dir_all(&path).unwrap();
    path
}

/// Records drawn from a deliberately small domain so predicates have
/// real selectivity: a few targets, clustered timestamps and LBAs.
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        0u32..3,
        0u32..2,
        any::<bool>(),
        0u64..8_000,
        1u32..=128,
        0u64..2_000_000,
        proptest::option::of(0u64..1_000_000),
    )
        .prop_map(
            |(serial, vm, disk, write, lba, num_sectors, issue_ns, latency)| TraceRecord {
                serial,
                target: TargetId::new(VmId(vm), VDiskId(disk)),
                direction: if write {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                lba: Lba::new(lba),
                num_sectors,
                issue_ns,
                complete_ns: latency.map(|l| issue_ns.saturating_add(l)),
                complete_seq: latency.map(|_| serial),
            },
        )
}

/// One predicate leaf, decoded from a small integer selector plus raw
/// parameters (the offline proptest stub has no `prop_oneof`, so the
/// strategy stays selector-shaped).
fn leaf(sel: u8, a: u64, b: u64, vm: u32, disk: u32) -> Predicate {
    match sel % 5 {
        0 => Predicate::True,
        1 => {
            let from_ns = a % 2_000_000;
            Predicate::TimeNs {
                from_ns,
                to_ns: from_ns.saturating_add(b % 500_000),
            }
        }
        2 => {
            let min = a % 8_000;
            Predicate::LbaBand {
                min,
                max: min.saturating_add(b % 2_000),
            }
        }
        3 => {
            let kinds = [
                CommandKind::Read,
                CommandKind::Write,
                CommandKind::Completed,
                CommandKind::Inflight,
            ];
            Predicate::Kind(kinds[(a % 4) as usize])
        }
        _ => Predicate::Target(TargetId::new(VmId(vm % 4), VDiskId(disk % 2))),
    }
}

/// Arbitrary predicate ASTs: 1–3 leaves under an And, an Or, or bare.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    (
        proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), 0u32..4, 0u32..2),
            1..4,
        ),
        any::<u8>(),
    )
        .prop_map(|(leaves, combine)| {
            let ps: Vec<Predicate> = leaves
                .into_iter()
                .map(|(sel, a, b, vm, disk)| leaf(sel, a, b, vm, disk))
                .collect();
            match combine % 3 {
                0 => ps.into_iter().next().unwrap(),
                1 => Predicate::And(ps),
                _ => Predicate::Or(ps),
            }
        })
}

/// Captures `records` through a real store with tiny chunk/segment sizes
/// so even short streams span several blocks and segments (and get
/// writer-emitted sidecars).
fn capture(dir: &Path, records: &[TraceRecord]) {
    let mut config = TraceStoreConfig::new(dir);
    config.chunk_bytes = 192;
    config.segment_max_bytes = 2048;
    let store = TraceStore::create(config).unwrap();
    let mut sink = store.handle();
    for r in records {
        TraceSink::append(&mut sink, r);
    }
    drop(sink);
    store.finish();
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION))
        .collect();
    files.sort();
    files
}

fn digests(rows: &[TargetQueryResult]) -> Vec<(TargetId, u64, u64)> {
    rows.iter()
        .map(|r| (r.target, r.records, r.digest()))
        .collect()
}

/// What a scan of the clean, indexed archive in `dir` may fetch for
/// `predicate`: the blocks whose zone maps do not rule it out, and their
/// bytes on disk (16-byte header + payload).
fn zone_survivors(dir: &Path, predicate: &Predicate) -> (u64, u64) {
    const BLOCK_HEADER_BYTES: u64 = 16;
    let mut kept = (0, 0);
    for segment in segment_files(dir) {
        let (index, source) = load_or_build_file(&segment).unwrap();
        assert_eq!(source, IndexSource::Sidecar, "the writer left a sidecar");
        for entry in &index.entries {
            if entry.stats.is_none_or(|stats| predicate.may_match(&stats)) {
                kept.0 += 1;
                kept.1 += BLOCK_HEADER_BYTES + u64::from(entry.payload_len);
            }
        }
    }
    kept
}

/// Runs `predicate` at 1, 2 and 64 threads over the clean archive in
/// `dir`: every run fetches exactly the zone survivors, agrees with the
/// reference, and reports what the one-thread run reports.
fn assert_pays_for_what_it_keeps(dir: &Path, predicate: &Predicate) -> (u64, u64) {
    let (blocks, bytes) = zone_survivors(dir, predicate);
    let (reference, _) = reference_scan(dir, predicate, &CollectorConfig::paper_figures()).unwrap();
    let mut serial = None;
    for threads in [1, 2, 64] {
        let engine = QueryEngine::new(QueryConfig {
            threads,
            span_blocks: 2,
            ..QueryConfig::default()
        });
        let outcome = engine.run(dir, predicate).unwrap();
        let report = outcome.report;
        assert!(report.conserves(), "threads={threads}: {report}");
        assert_eq!(report.scanned_blocks, blocks, "threads={threads}");
        assert_eq!(report.skipped_by_corruption, 0, "threads={threads}");
        assert_eq!(report.bytes_read, bytes, "threads={threads}");
        assert_eq!(
            digests(&outcome.targets),
            digests(&reference),
            "threads={threads}"
        );
        assert_eq!(serial.get_or_insert(report.clone()), &report);
    }
    (blocks, bytes)
}

/// Answers that are smaller than the pool: a time-ordered capture, so a
/// window's width picks how many blocks survive the zone maps.
#[test]
fn answers_of_zero_one_and_a_few_blocks_cost_their_blocks_at_any_thread_count() {
    let dir = temp_dir("narrow");
    let records: Vec<TraceRecord> = (0..1_500u64)
        .map(|i| TraceRecord {
            serial: i,
            target: TargetId::new(VmId((i % 3) as u32), VDiskId(0)),
            direction: IoDirection::Read,
            lba: Lba::new(i * 8),
            num_sectors: 8,
            issue_ns: i * 1_000,
            complete_ns: Some(i * 1_000 + 400),
            complete_seq: Some(i),
        })
        .collect();
    capture(&dir, &records);
    let window = |from_ns, to_ns| Predicate::TimeNs { from_ns, to_ns };

    let (all, all_bytes) = assert_pays_for_what_it_keeps(&dir, &Predicate::True);
    assert!(all > 64, "more blocks than the widest pool: {all}");
    assert_eq!(
        assert_pays_for_what_it_keeps(&dir, &window(1_600_000, 1_700_000)),
        (0, 0)
    );
    let (one, one_bytes) = assert_pays_for_what_it_keeps(&dir, &window(300_000, 300_000));
    assert_eq!(one, 1);
    assert!(one_bytes < all_bytes / 32);
    let (few, _) = assert_pays_for_what_it_keeps(&dir, &window(100_000, 140_000));
    assert!((2..64).contains(&few), "fewer blocks than workers: {few}");

    fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full equivalence property, damage included. Byte flips land
    /// anywhere past the segment header — block headers and payloads
    /// alike — so this also pins that the engine loses *exactly* the
    /// blocks the serial reader loses, never more, never fewer.
    #[test]
    fn parallel_indexed_query_is_bit_identical_to_serial_reference(
        records in proptest::collection::vec(arb_record(), 1..250),
        predicate in arb_predicate(),
        flips in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u8>()),
            0..3,
        ),
        truncate in proptest::option::of((any::<prop::sample::Index>(), any::<prop::sample::Index>())),
        drop_sidecar in proptest::option::of(any::<prop::sample::Index>()),
    ) {
        let dir = temp_dir("equiv");
        capture(&dir, &records);
        let files = segment_files(&dir);
        prop_assert!(!files.is_empty());
        assert_pays_for_what_it_keeps(&dir, &predicate);

        // Injected damage. Flips keep file sizes, so stale-but-valid
        // sidecars stay in play and the scan must *discover* the rot;
        // truncation changes the size, so the engine must rebuild.
        const SEGMENT_HEADER_BYTES: usize = 16;
        for (file_idx, offset_idx, xor) in &flips {
            let path = &files[file_idx.index(files.len())];
            let mut data = fs::read(path).unwrap();
            if data.len() > SEGMENT_HEADER_BYTES {
                let at = SEGMENT_HEADER_BYTES
                    + offset_idx.index(data.len() - SEGMENT_HEADER_BYTES);
                data[at] ^= xor | 1; // never a zero flip
                fs::write(path, data).unwrap();
            }
        }
        if let Some((file_idx, len_idx)) = &truncate {
            let path = &files[file_idx.index(files.len())];
            let data = fs::read(path).unwrap();
            if data.len() > SEGMENT_HEADER_BYTES {
                let keep = SEGMENT_HEADER_BYTES
                    + len_idx.index(data.len() - SEGMENT_HEADER_BYTES);
                fs::write(path, &data[..keep]).unwrap();
            }
        }
        if let Some(file_idx) = &drop_sidecar {
            let _ = fs::remove_file(index_path(&files[file_idx.index(files.len())]));
        }

        let collector = CollectorConfig::paper_figures();
        let (reference, _) = reference_scan(&dir, &predicate, &collector).unwrap();
        let expected = digests(&reference);
        let expected_matched: u64 = reference.iter().map(|r| r.records).sum();

        for (threads, use_index) in [(1, true), (3, true), (8, true), (1, false), (2, false)] {
            let engine = QueryEngine::new(QueryConfig {
                threads,
                use_index,
                span_blocks: 2,
                ..QueryConfig::default()
            });
            let outcome = engine.run(&dir, &predicate).unwrap();
            prop_assert!(
                outcome.report.conserves(),
                "ledger must close (threads={threads} index={use_index}): {}",
                outcome.report
            );
            prop_assert_eq!(
                digests(&outcome.targets),
                expected.clone(),
                "threads={} use_index={}",
                threads,
                use_index
            );
            prop_assert_eq!(outcome.report.records_matched, expected_matched);
            if !use_index {
                prop_assert_eq!(outcome.report.skipped_by_index, 0);
            }
        }

        // A predicate matching nothing leaves the replay phase no target
        // to claim: zero rows, and the ledger still closes.
        let engine = QueryEngine::new(QueryConfig {
            threads: 8,
            span_blocks: 2,
            ..QueryConfig::default()
        });
        let nothing = engine.run(&dir, &Predicate::Or(vec![])).unwrap();
        prop_assert!(nothing.targets.is_empty());
        prop_assert_eq!(nothing.report.records_matched, 0);
        prop_assert!(nothing.report.conserves(), "{}", nothing.report);

        fs::remove_dir_all(&dir).ok();
    }
}
