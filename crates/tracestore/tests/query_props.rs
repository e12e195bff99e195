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
    index_path, reference_scan, CommandKind, Predicate, QueryConfig, QueryEngine,
    TargetQueryResult, TraceStore, TraceStoreConfig, SEGMENT_EXTENSION,
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
