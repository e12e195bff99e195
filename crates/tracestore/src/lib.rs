//! # tracestore — durable, bounded-memory binary trace capture & replay
//!
//! The paper's central argument is that full I/O tracing is too expensive
//! to leave enabled, which is why vscsiStats aggregates online histograms
//! instead. This crate quantifies — and shrinks — the "too expensive"
//! side of that trade: when a trace *is* wanted (for replay, offline
//! analysis, or validating the online histograms), it should cost bounded
//! memory and ~16 bytes per command on disk, not 80 bytes resident per
//! command forever.
//!
//! Three layers:
//!
//! * [`codec`] — varint + delta record encoding; blocks decode
//!   independently of each other. Its integer primitives (LEB128
//!   varints, zigzag, wrapping deltas) are public via
//!   [`codec::encode_u64`] and friends for other wire formats to reuse.
//! * [`segment`] — the versioned on-disk format: CRC32-checksummed blocks
//!   behind a magic-tagged header, with a reader that skips corrupt
//!   blocks and recovers a truncated tail instead of panicking.
//! * [`store`] — the capture pipeline: a bounded chunk ring (lossless
//!   until a stuck writer demotes it, every drop accounted in
//!   [`DropStats`]) feeding a background writer thread that seals and
//!   rolls segment files.
//!
//! Plus the offline analytics plane on top: [`index`] emits compact
//! `VSTRIDX1` zone-map sidecars at segment-roll time (and backfills them
//! for legacy captures), and [`query`] runs a parallel, predicate-pushdown
//! [`QueryEngine`] over an archive — skipping whole blocks the zone maps
//! prove irrelevant and conserving an exact scanned/skipped block ledger
//! even through corruption.
//!
//! A [`TraceStoreHandle`] implements the core crate's
//! [`TraceSink`](vscsi_stats::TraceSink), so it plugs straight into a
//! streaming [`VscsiTracer`](vscsi_stats::VscsiTracer) or
//! [`StatsService::start_trace_streaming`](vscsi_stats::StatsService::start_trace_streaming);
//! the in-memory tracer stays the default. Reading back with
//! [`read_trace`] and feeding [`replay`](vscsi_stats::replay) reproduces
//! the online histograms bit-exactly.
//!
//! ```no_run
//! use tracestore::{read_trace, TraceStore, TraceStoreConfig};
//!
//! let store = TraceStore::create(TraceStoreConfig::new("/tmp/trace"))?;
//! let sink = store.handle();
//! // ... plug `Box::new(sink)` into StatsService::start_trace_streaming,
//! // run the workload, stop the trace ...
//! let report = store.finish();
//! println!("wrote {} records, {:?} bytes/record", report.records,
//!          report.bytes_per_record());
//! let (records, integrity) = read_trace(std::path::Path::new("/tmp/trace"))?;
//! assert!(integrity.is_clean());
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod index;
pub mod query;
pub mod reader;
pub mod ring;
pub mod segment;
pub mod store;
#[cfg(test)]
mod testutil;

pub use codec::{
    decode_block, decode_block_into, encode_block, BlockBuilder, CodecError, MAX_RECORD_BYTES,
};
pub use index::{
    build_index, decode_index, encode_index, index_path, load_or_build, load_or_build_file,
    tmp_index_path, BlockEntry, IndexSource, SegmentIndex, ZoneStats, INDEX_EXTENSION,
    INDEX_VERSION,
};
pub use query::{
    reference_scan, CommandKind, Predicate, QueryConfig, QueryEngine, QueryOutcome, QueryReport,
    SegmentScan, TargetQueryResult,
};
pub use reader::{read_trace, IntegrityReport};
pub use ring::DropStats;
pub use segment::{
    parse_segment, read_segment, SegmentError, SegmentIntegrity, SEGMENT_EXTENSION, SEGMENT_VERSION,
};
pub use store::{
    read_meta, StoreReport, TraceStore, TraceStoreConfig, TraceStoreHandle, META_FILE,
};
