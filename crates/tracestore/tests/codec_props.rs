//! Property tests for the trace codec and segment format:
//!
//! * the text export (`Display`/`FromStr`), the binary codec, and the
//!   original record slice are all interchangeable;
//! * a segment image cut at *any* byte parses without panicking and
//!   yields exactly the fully-written blocks;
//! * the store's resident footprint never exceeds its configured bound,
//!   and every appended record is either persisted or accounted dropped.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tracestore::{
    decode_block, encode_block, parse_segment, read_trace, TraceStore, TraceStoreConfig,
};
use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
use vscsi_stats::{TraceRecord, TraceSink};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        any::<u64>(),
        0u32..64,
        0u32..4,
        any::<bool>(),
        any::<u64>(),
        1u32..=1_000_000,
        any::<u64>(),
        proptest::option::of((0u64..1_000_000_000, any::<u64>())),
    )
        .prop_map(
            |(serial, vm, disk, write, lba, num_sectors, issue_ns, completion)| TraceRecord {
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
                // The text format requires completion >= issue; the binary
                // codec does not care (wrapping deltas).
                complete_ns: completion.map(|(latency, _)| issue_ns.saturating_add(latency)),
                complete_seq: completion.map(|(_, seq)| seq),
            },
        )
}

proptest! {
    /// Text round-trip, binary round-trip, and the original all agree —
    /// including for in-flight records (`complete_ns: None`).
    #[test]
    fn text_binary_and_original_are_interchangeable(
        records in proptest::collection::vec(arb_record(), 0..200),
    ) {
        let text: Vec<String> = records.iter().map(|r| r.to_string()).collect();
        let from_text: Vec<TraceRecord> = text
            .iter()
            .map(|line| line.parse().expect("exported line must parse"))
            .collect();
        prop_assert_eq!(&from_text, &records);

        let (payload, count) = encode_block(&records);
        let from_binary = decode_block(&payload, count).expect("clean payload must decode");
        prop_assert_eq!(&from_binary, &records);
    }

    /// A segment cut at any byte never panics, and parses to exactly the
    /// records of the blocks that were fully written before the cut.
    #[test]
    fn segment_cut_anywhere_yields_full_blocks_prefix(
        blocks in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..32),
            1..6,
        ),
        cut_seed in any::<prop::sample::Index>(),
    ) {
        use tracestore::segment::{
            write_block, write_segment_header, SEGMENT_HEADER_BYTES,
        };
        let mut image = Vec::new();
        write_segment_header(&mut image).unwrap();
        // Byte offset where each block ends, and the records so far.
        let mut boundaries = vec![SEGMENT_HEADER_BYTES];
        let mut all_records: Vec<Vec<TraceRecord>> = Vec::new();
        for block in &blocks {
            let (payload, count) = encode_block(block);
            write_block(&mut image, &payload, count).unwrap();
            boundaries.push(image.len());
            all_records.push(block.clone());
        }

        let cut = cut_seed.index(image.len() + 1);
        let data = &image[..cut];
        if cut < SEGMENT_HEADER_BYTES {
            prop_assert!(parse_segment(data).is_err(), "headerless data is not a segment");
            return Ok(());
        }
        let (records, integrity) = parse_segment(data).expect("segment header intact");
        let complete_blocks = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let expected: Vec<TraceRecord> = all_records[..complete_blocks]
            .iter()
            .flatten()
            .copied()
            .collect();
        prop_assert_eq!(records, expected);
        if boundaries.contains(&cut) {
            prop_assert!(integrity.is_clean(), "cut on a block boundary is clean");
        } else {
            prop_assert!(integrity.truncated_tail, "mid-block cut must be flagged");
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let path =
        std::env::temp_dir().join(format!("tracestore-prop-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&path).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The capture pipeline's resident memory never exceeds the
    /// configured bound, and records are conserved: everything appended
    /// is either persisted to disk or accounted as dropped — both while
    /// the ring blocks (lossless) and once a zero block budget has
    /// demoted it to evicting its oldest chunk.
    #[test]
    fn footprint_bounded_and_records_conserved(
        records in proptest::collection::vec(arb_record(), 1..1500),
        chunk_bytes in 128usize..1024,
        max_chunks in 1usize..8,
        lossless in any::<bool>(),
    ) {
        let dir = temp_dir("bound");
        let mut config = TraceStoreConfig::new(&dir);
        config.chunk_bytes = chunk_bytes;
        config.max_chunks = max_chunks;
        if !lossless {
            config.block_budget = std::time::Duration::ZERO;
        }
        let bound = config.memory_bound_bytes();
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for r in &records {
            sink.append(r);
            let footprint = sink.memory_footprint_bytes();
            prop_assert!(footprint <= bound, "footprint {footprint} > bound {bound}");
        }
        sink.flush();
        prop_assert!(sink.memory_footprint_bytes() <= bound);
        drop(sink);
        let report = store.finish();
        prop_assert_eq!(report.io_errors, 0);
        prop_assert_eq!(
            report.records + report.drops.dropped_records(),
            records.len() as u64,
            "no record may vanish unaccounted"
        );
        if lossless {
            prop_assert_eq!(report.drops.dropped_records(), 0);
            let (read_back, integrity) = read_trace(&dir).unwrap();
            prop_assert!(integrity.is_clean());
            prop_assert_eq!(read_back, records);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
