//! The trace store: bounded-memory capture front-end plus a background
//! writer thread that seals and flushes segments to disk.
//!
//! Data flow:
//!
//! ```text
//! VscsiTracer --append--> TraceStoreHandle (BlockBuilder, one chunk)
//!                              | sealed chunk
//!                              v
//!                         ChunkRing (bounded, backpressure policy)
//!                              | pop
//!                              v
//!                         writer thread --> trace-00000.vseg, ...
//! ```
//!
//! The producer side touches only one chunk buffer at a time; everything
//! queued lives in the ring, whose capacity is fixed. The resident-memory
//! ceiling is therefore known before capture starts
//! ([`TraceStoreConfig::memory_bound_bytes`]) — tracing cannot balloon the
//! host the way unbounded in-memory capture can.
//!
//! The writer thread never panics on I/O failure: errors are recorded in
//! the [`StoreReport`] and capture degrades to dropping data, which is
//! always accounted.

use crate::codec::BlockBuilder;
use crate::index::{encode_index, index_path, tmp_index_path, BlockEntry, SegmentIndex, ZoneStats};
use crate::ring::{lock, ChunkRing, DropStats, Msg};
use crate::segment::{write_block_with_crc, write_segment_header, SEGMENT_EXTENSION};
use std::fmt::Write as _;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use vscsi_stats::crc32::crc32;
use vscsi_stats::{
    publish_atomic, FsMedium, Medium, MediumFile, SinkHealth, TraceRecord, TraceSink,
};

/// Name of the sidecar capture-summary file a finished store writes next
/// to its segments. `key=value` lines; read back with [`read_meta`]. The
/// replay side uses it to surface capture-time accounting — notably the
/// per-cause drop counts — that the segments themselves cannot carry.
pub const META_FILE: &str = "trace-meta.txt";

/// Configuration for a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Directory segment files are written into (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment file once the current one reaches this size.
    pub segment_max_bytes: usize,
    /// Seal the in-progress block once its payload reaches this size.
    pub chunk_bytes: usize,
    /// Seal the in-progress block once it holds this many records, even
    /// if small (bounds worst-case loss per corrupt block).
    pub block_max_records: u32,
    /// Ring capacity in sealed chunks awaiting the writer.
    pub max_chunks: usize,
    /// Whether [`TraceSink::flush`] also issues `fsync`.
    pub sync_on_flush: bool,
    /// How long a flush waits for the writer's acknowledgement. A flush
    /// that times out is treated as a stuck-writer watchdog trip: the
    /// ring is demoted to evicting its oldest chunk so producers can
    /// never be wedged behind the dead flush.
    pub flush_timeout: Duration,
    /// Watchdog budget for a producer blocked on a full ring: once
    /// exceeded, the ring demotes itself to evicting its oldest chunk
    /// (accounted, surfaced in the report) rather than keep the producer
    /// hostage. Until then capture is lossless.
    pub block_budget: Duration,
}

impl TraceStoreConfig {
    /// Defaults: 64 MiB segments, 64 KiB chunks, ≤4096 records/block,
    /// 64-chunk ring (lossless until demoted), no fsync, 2 s stuck-writer
    /// watchdog budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStoreConfig {
            dir: dir.into(),
            segment_max_bytes: 64 << 20,
            chunk_bytes: 64 << 10,
            block_max_records: 4096,
            max_chunks: 64,
            sync_on_flush: false,
            flush_timeout: Duration::from_secs(5),
            block_budget: Duration::from_secs(2),
        }
    }

    /// Upper bound on resident trace memory for a store with one attached
    /// producer handle: the handle's chunk under construction, plus a full
    /// ring, plus the chunk the writer is persisting. Each chunk buffer
    /// reserves `chunk_bytes` + one worst-case record.
    pub fn memory_bound_bytes(&self) -> usize {
        let chunk_cap = self.chunk_bytes + crate::codec::MAX_RECORD_BYTES;
        (self.max_chunks + 2) * chunk_cap
    }
}

/// What a finished [`TraceStore`] did: volume written, drops, errors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Segment files created.
    pub segments: u64,
    /// Blocks written across all segments.
    pub blocks: u64,
    /// Records persisted.
    pub records: u64,
    /// Total segment file bytes written (headers included).
    pub bytes_written: u64,
    /// Index sidecars written next to sealed segments.
    pub indexes: u64,
    /// Bytes of those sidecars (kept out of `bytes_written`, which
    /// measures the trace itself; the index is derivable overhead).
    pub index_bytes: u64,
    /// Backpressure accounting from the ring.
    pub drops: DropStats,
    /// I/O failures the writer absorbed (each drops one chunk).
    pub io_errors: u64,
    /// Records inside the chunks those failures dropped; together with
    /// [`DropStats::dropped_records`] this makes capture accounting
    /// conserve: persisted + dropped + lost-to-I/O = appended.
    pub io_error_records: u64,
    /// The first I/O error message, if any.
    pub first_error: Option<String>,
    /// Whether the stuck-writer watchdog demoted the ring from blocking
    /// to evicting its oldest chunk (expired block wait or flush
    /// timeout). The trace is then lossy, with every drop accounted.
    pub demoted: bool,
    /// Watchdog trips recorded against the writer pipeline.
    pub watchdog_trips: u64,
}

impl StoreReport {
    /// Mean on-disk bytes per persisted record (`None` if nothing was
    /// written).
    pub fn bytes_per_record(&self) -> Option<f64> {
        if self.records == 0 {
            None
        } else {
            Some(self.bytes_written as f64 / self.records as f64)
        }
    }
}

fn render_meta(report: &StoreReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "records={}", report.records);
    let _ = writeln!(s, "blocks={}", report.blocks);
    let _ = writeln!(s, "segments={}", report.segments);
    let _ = writeln!(s, "bytes_written={}", report.bytes_written);
    let _ = writeln!(s, "indexes={}", report.indexes);
    let _ = writeln!(s, "index_bytes={}", report.index_bytes);
    let _ = writeln!(s, "dropped_oldest_records={}", report.drops.oldest_records);
    let _ = writeln!(s, "dropped_closed_records={}", report.drops.closed_records);
    let _ = writeln!(s, "block_waits={}", report.drops.block_waits);
    let _ = writeln!(s, "io_errors={}", report.io_errors);
    let _ = writeln!(s, "io_error_records={}", report.io_error_records);
    let _ = writeln!(s, "demoted={}", report.demoted);
    let _ = writeln!(s, "watchdog_trips={}", report.watchdog_trips);
    s
}

/// Reads the [`META_FILE`] capture summary from a store directory, if
/// present: `(key, value)` pairs in file order. `None` when the sidecar
/// is missing or unreadable (e.g. a trace captured by an older writer).
pub fn read_meta(dir: &Path) -> Option<Vec<(String, String)>> {
    let text = fs::read_to_string(dir.join(META_FILE)).ok()?;
    Some(
        text.lines()
            .filter_map(|line| {
                line.split_once('=')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect(),
    )
}

#[derive(Debug, Default)]
struct WriterStats {
    segments: u64,
    blocks: u64,
    records: u64,
    bytes_written: u64,
    indexes: u64,
    index_bytes: u64,
    io_errors: u64,
    io_error_records: u64,
    first_error: Option<String>,
}

#[derive(Debug)]
struct Shared {
    ring: ChunkRing,
    stats: Mutex<WriterStats>,
    /// Capacity of the chunk the writer currently holds (0 when idle), so
    /// footprint probes see bytes in flight between ring and disk.
    writer_bytes: AtomicUsize,
}

/// Closes the ring when the writer exits for *any* reason, so producers
/// blocked on a full ring can never deadlock against a dead writer.
struct CloseGuard<'a>(&'a ChunkRing);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

fn record_error(stats: &Mutex<WriterStats>, err: &std::io::Error, lost_records: u64) {
    let mut stats = lock(stats);
    stats.io_errors += 1;
    stats.io_error_records += lost_records;
    if stats.first_error.is_none() {
        stats.first_error = Some(err.to_string());
    }
}

struct OpenSegment {
    file: Box<dyn MediumFile>,
    bytes: usize,
    path: PathBuf,
    /// One zone-map entry per block written, for the index sidecar
    /// emitted when the segment closes.
    entries: Vec<BlockEntry>,
}

/// Flushes a finished segment and drops its `VSTRIDX1` sidecar next to
/// it, through the same medium (so injected-failure tests cover the
/// index path too). Sidecar failure is absorbed like any other I/O error
/// — the segment itself is already durable, and queries rebuild missing
/// sidecars on first scan.
fn close_segment(shared: &Shared, medium: &mut dyn Medium, mut seg: OpenSegment) {
    if let Err(e) = seg.file.flush() {
        record_error(&shared.stats, &e, 0);
    }
    drop(seg.file);
    let index = SegmentIndex {
        segment_bytes: seg.bytes as u64,
        truncated_tail: false,
        entries: seg.entries,
    };
    let bytes = encode_index(&index);
    // A crash mid-publish can leave a `.tmp` orphan but never a
    // half-written `.vidx` — a reader that finds a sidecar can trust its
    // length, and one that finds none rebuilds from the (already durable)
    // segment.
    let final_path = index_path(&seg.path);
    match publish_atomic(medium, &tmp_index_path(&final_path), &final_path, &bytes) {
        Ok(_) => {
            let mut stats = lock(&shared.stats);
            stats.indexes += 1;
            stats.index_bytes += bytes.len() as u64;
        }
        Err(e) => record_error(&shared.stats, &e, 0),
    }
}

fn writer_loop(shared: &Shared, config: &TraceStoreConfig, medium: &mut dyn Medium) {
    let _guard = CloseGuard(&shared.ring);
    let mut current: Option<OpenSegment> = None;
    let mut next_index = 0u64;
    while let Some(msg) = shared.ring.pop() {
        match msg {
            Msg::Chunk {
                payload,
                records,
                stats: zone,
            } => {
                shared
                    .writer_bytes
                    .store(payload.capacity(), Ordering::Relaxed);
                let result = (|| {
                    let seg = match current.as_mut() {
                        Some(seg) => seg,
                        None => {
                            let path = config
                                .dir
                                .join(format!("trace-{next_index:05}.{SEGMENT_EXTENSION}"));
                            next_index += 1;
                            let mut file = medium.create(&path)?;
                            let header = write_segment_header(&mut file)?;
                            let mut stats = lock(&shared.stats);
                            stats.segments += 1;
                            stats.bytes_written += header as u64;
                            drop(stats);
                            current.insert(OpenSegment {
                                file,
                                bytes: header,
                                path,
                                entries: Vec::new(),
                            })
                        }
                    };
                    let crc = crc32(&payload);
                    let offset = seg.bytes as u64;
                    let written = write_block_with_crc(&mut seg.file, &payload, records, crc)?;
                    seg.entries.push(BlockEntry {
                        offset,
                        payload_len: payload.len() as u32,
                        record_count: records,
                        crc32: crc,
                        stats: (records > 0).then_some(zone),
                    });
                    seg.bytes += written;
                    let mut stats = lock(&shared.stats);
                    stats.blocks += 1;
                    stats.records += u64::from(records);
                    stats.bytes_written += written as u64;
                    Ok::<bool, std::io::Error>(seg.bytes >= config.segment_max_bytes)
                })();
                match result {
                    Ok(roll) => {
                        if roll {
                            if let Some(seg) = current.take() {
                                close_segment(shared, medium, seg);
                            }
                        }
                    }
                    Err(e) => {
                        // Drop the chunk and the half-written segment
                        // (no sidecar — a scan backfills one from the
                        // bytes that made it to disk); the next chunk
                        // starts a fresh file.
                        record_error(&shared.stats, &e, u64::from(records));
                        current = None;
                    }
                }
                shared.writer_bytes.store(0, Ordering::Relaxed);
            }
            Msg::Flush(ack) => {
                if let Some(seg) = current.as_mut() {
                    let result = if config.sync_on_flush {
                        seg.file.sync_all()
                    } else {
                        seg.file.flush()
                    };
                    if let Err(e) = result {
                        record_error(&shared.stats, &e, 0);
                    }
                }
                let _ = ack.send(());
            }
            Msg::Shutdown => break,
        }
    }
    if let Some(seg) = current.take() {
        close_segment(shared, medium, seg);
    }
}

/// A durable trace store: owns the writer thread and the shared ring.
///
/// Create handles with [`TraceStore::handle`] and plug them into
/// [`VscsiTracer::streaming`](vscsi_stats::VscsiTracer::streaming) or
/// [`StatsService::start_trace_streaming`](vscsi_stats::StatsService::start_trace_streaming);
/// call [`TraceStore::finish`] once capture is done (after the tracers
/// have been stopped, so their handles have sealed their last chunks).
#[derive(Debug)]
pub struct TraceStore {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    config: TraceStoreConfig,
}

impl TraceStore {
    /// Creates the segment directory and starts the writer thread against
    /// the real filesystem ([`FsMedium`]).
    ///
    /// # Errors
    ///
    /// If the directory cannot be created or the thread cannot spawn.
    pub fn create(config: TraceStoreConfig) -> std::io::Result<TraceStore> {
        TraceStore::create_with_medium(config, FsMedium)
    }

    /// Like [`TraceStore::create`], but with an explicit [`Medium`] — the
    /// seam tests use to inject failing media and prove the writer
    /// absorbs I/O errors without ever blocking producers.
    ///
    /// # Errors
    ///
    /// If the directory cannot be created or the thread cannot spawn.
    pub fn create_with_medium(
        config: TraceStoreConfig,
        medium: impl Medium + 'static,
    ) -> std::io::Result<TraceStore> {
        fs::create_dir_all(&config.dir)?;
        let shared = Arc::new(Shared {
            ring: ChunkRing::new(config.max_chunks, config.block_budget),
            stats: Mutex::new(WriterStats::default()),
            writer_bytes: AtomicUsize::new(0),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            let mut medium = medium;
            std::thread::Builder::new()
                .name("tracestore-writer".into())
                .spawn(move || writer_loop(&shared, &config, &mut medium))?
        };
        Ok(TraceStore {
            shared,
            thread: Some(thread),
            config,
        })
    }

    /// A new producer handle, pluggable as a [`TraceSink`].
    pub fn handle(&self) -> TraceStoreHandle {
        TraceStoreHandle {
            shared: Arc::clone(&self.shared),
            builder: BlockBuilder::with_chunk_capacity(self.config.chunk_bytes),
            zone: ZoneStats::empty(),
            chunk_bytes: self.config.chunk_bytes,
            block_max_records: self.config.block_max_records,
            flush_timeout: self.config.flush_timeout,
        }
    }

    /// Snapshot of the accounting so far (capture may still be running).
    pub(crate) fn report(&self) -> StoreReport {
        let stats = lock(&self.shared.stats);
        StoreReport {
            segments: stats.segments,
            blocks: stats.blocks,
            records: stats.records,
            bytes_written: stats.bytes_written,
            indexes: stats.indexes,
            index_bytes: stats.index_bytes,
            drops: self.shared.ring.drops(),
            io_errors: stats.io_errors,
            io_error_records: stats.io_error_records,
            first_error: stats.first_error.clone(),
            demoted: self.shared.ring.is_demoted(),
            watchdog_trips: self.shared.ring.watchdog_trips(),
        }
    }

    /// Drains the ring, stops the writer, writes the [`META_FILE`]
    /// sidecar, and returns the final report. Handles still alive
    /// afterwards drop their chunks (accounted as `closed` drops).
    pub fn finish(mut self) -> StoreReport {
        self.shutdown();
        let report = self.report();
        // Best-effort: replay works without the sidecar, it just cannot
        // show capture-time accounting.
        let _ = fs::write(self.config.dir.join(META_FILE), render_meta(&report));
        report
    }

    fn shutdown(&mut self) {
        // If the ring is already closed the writer is gone; join anyway.
        let _ = self.shared.ring.push_control(Msg::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TraceStore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Producer-side handle: encodes records into chunks and feeds the ring.
///
/// Implements [`TraceSink`], so it plugs directly into a streaming
/// [`VscsiTracer`](vscsi_stats::VscsiTracer). Dropping the handle seals
/// whatever is buffered (without waiting for durability; use
/// [`TraceSink::flush`] for that).
#[derive(Debug)]
pub struct TraceStoreHandle {
    shared: Arc<Shared>,
    builder: BlockBuilder,
    /// Zone map of the chunk under construction, accumulated here on the
    /// producer side so the writer thread indexes blocks without ever
    /// decoding them.
    zone: ZoneStats,
    chunk_bytes: usize,
    block_max_records: u32,
    flush_timeout: Duration,
}

impl TraceStoreHandle {
    fn seal(&mut self) {
        if self.builder.is_empty() {
            return;
        }
        let (payload, records) = self.builder.take();
        let zone = std::mem::take(&mut self.zone);
        self.shared.ring.push_chunk(payload, records, zone);
    }
}

impl TraceSink for TraceStoreHandle {
    fn append(&mut self, record: &TraceRecord) {
        self.zone.observe(record);
        self.builder.push(record);
        if self.builder.len_bytes() >= self.chunk_bytes
            || self.builder.record_count() >= self.block_max_records
        {
            self.seal();
        }
    }

    fn flush(&mut self) {
        self.seal();
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.shared.ring.push_control(Msg::Flush(ack_tx))
            && ack_rx.recv_timeout(self.flush_timeout).is_err()
        {
            // The writer failed to ack within its budget: presume it is
            // stuck (dead disk, hung fsync). Demote the ring so producers
            // stop queueing behind it — capture degrades to a lossy
            // flight recorder instead of wedging the workload.
            self.shared.ring.demote_to_drop_oldest();
        }
    }

    fn memory_footprint_bytes(&self) -> usize {
        self.builder.capacity_bytes()
            + self.shared.ring.queued_bytes()
            + self.shared.writer_bytes.load(Ordering::Relaxed)
    }

    fn dropped_records(&self) -> u64 {
        self.shared.ring.drops().dropped_records()
    }

    fn health(&self) -> SinkHealth {
        SinkHealth {
            demoted: self.shared.ring.is_demoted(),
            watchdog_trips: self.shared.ring.watchdog_trips(),
        }
    }
}

impl Drop for TraceStoreHandle {
    fn drop(&mut self) {
        self.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_trace;
    use crate::testutil::{rec, TempDir};
    use std::io;
    use std::sync::Condvar;
    use vscsi::TargetId;

    #[test]
    fn capture_flush_read_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256; // force many blocks
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        let records: Vec<TraceRecord> = (0..1_000).map(rec).collect();
        for r in &records {
            sink.append(r);
        }
        sink.flush();
        drop(sink);
        let report = store.finish();
        assert_eq!(report.records, 1_000);
        assert_eq!(report.drops.dropped_records(), 0);
        assert_eq!(report.io_errors, 0);
        assert!(report.blocks > 1, "256-byte chunks must seal many blocks");
        assert!(report.bytes_per_record().unwrap() < 16.0);

        let (read_back, integrity) = read_trace(&dir.0).unwrap();
        assert_eq!(read_back, records);
        assert!(integrity.aggregate().is_clean());
    }

    #[test]
    fn segments_roll_at_configured_size() {
        let dir = TempDir::new("roll");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 128;
        config.segment_max_bytes = 512;
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        let records: Vec<TraceRecord> = (0..2_000).map(rec).collect();
        for r in &records {
            sink.append(r);
        }
        drop(sink);
        let report = store.finish();
        assert!(report.segments > 1, "512-byte cap must roll: {report:?}");

        // Multi-file read stitches segments back together in order.
        let (read_back, integrity) = read_trace(&dir.0).unwrap();
        assert_eq!(read_back, records);
        assert_eq!(integrity.files.len() as u64, report.segments);
        assert!(integrity.aggregate().is_clean());
    }

    #[test]
    fn block_max_records_seals_small_blocks() {
        let dir = TempDir::new("maxrec");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.block_max_records = 10;
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for i in 0..100 {
            sink.append(&rec(i));
        }
        drop(sink);
        let report = store.finish();
        assert_eq!(report.records, 100);
        assert_eq!(report.blocks, 10);
    }

    #[test]
    fn footprint_stays_under_configured_bound() {
        let dir = TempDir::new("bound");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256;
        config.max_chunks = 4;
        let bound = config.memory_bound_bytes();
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for i in 0..5_000 {
            sink.append(&rec(i));
            let footprint = sink.memory_footprint_bytes();
            assert!(footprint <= bound, "{footprint} > {bound} at record {i}");
        }
        drop(sink);
        store.finish();
    }

    #[test]
    fn appends_after_finish_are_accounted_not_lost_silently() {
        let dir = TempDir::new("late");
        let config = TraceStoreConfig::new(&dir.0);
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        sink.append(&rec(0));
        let report = store.finish();
        assert_eq!(report.records, 0, "chunk was never sealed before finish");
        // The handle outlived the store: sealing now hits a closed ring.
        sink.flush();
        assert_eq!(sink.dropped_records(), 1);
    }

    /// Medium whose segments report failure on every write.
    struct FailingBackend;

    struct FailingSegment;

    impl Write for FailingSegment {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("injected disk failure"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MediumFile for FailingSegment {
        fn sync_all(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Medium for FailingBackend {
        fn create(&mut self, _: &Path) -> io::Result<Box<dyn MediumFile>> {
            Ok(Box::new(FailingSegment))
        }
    }

    /// Medium whose segments share a byte budget; once spent, every
    /// write fails — a disk filling up mid-capture.
    struct BudgetBackend(Arc<AtomicUsize>);

    struct BudgetSegment(Arc<AtomicUsize>);

    impl Write for BudgetSegment {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0.load(Ordering::SeqCst) >= buf.len() {
                self.0.fetch_sub(buf.len(), Ordering::SeqCst);
                Ok(buf.len())
            } else {
                Err(io::Error::other("disk full (injected)"))
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MediumFile for BudgetSegment {
        fn sync_all(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Medium for BudgetBackend {
        fn create(&mut self, _: &Path) -> io::Result<Box<dyn MediumFile>> {
            Ok(Box::new(BudgetSegment(Arc::clone(&self.0))))
        }
    }

    /// Medium whose segments block every write until the shared gate
    /// opens — a hung disk / dead iSCSI session.
    struct StuckBackend(Arc<(Mutex<bool>, Condvar)>);

    struct StuckSegment(Arc<(Mutex<bool>, Condvar)>);

    impl Write for StuckSegment {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let (gate, cvar) = &*self.0;
            let mut open = lock(gate);
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl MediumFile for StuckSegment {
        fn sync_all(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Medium for StuckBackend {
        fn create(&mut self, _: &Path) -> io::Result<Box<dyn MediumFile>> {
            Ok(Box::new(StuckSegment(Arc::clone(&self.0))))
        }
    }

    #[test]
    fn stuck_writer_demotes_instead_of_wedging_producers() {
        let dir = TempDir::new("stuck");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 128;
        config.max_chunks = 2;
        config.flush_timeout = Duration::from_millis(50);
        config.block_budget = Duration::from_millis(50);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let store =
            TraceStore::create_with_medium(config, StuckBackend(Arc::clone(&gate))).unwrap();
        let mut sink = store.handle();
        // The writer picks up the first sealed chunk and hangs inside
        // write(); the ring fills behind it. No append or flush below may
        // wedge for longer than the configured budgets.
        for i in 0..64 {
            sink.append(&rec(i));
        }
        sink.flush();
        let health = sink.health();
        assert!(health.demoted, "stuck writer must demote the ring");
        assert!(health.watchdog_trips >= 1);
        // Demoted: a flood far past ring capacity completes
        // immediately, paying with accounted drops instead of stalls.
        for i in 64..2_064 {
            sink.append(&rec(i));
        }
        assert!(sink.dropped_records() > 0);
        // Open the gate so the writer drains and the store can finish.
        *lock(&gate.0) = true;
        gate.1.notify_all();
        drop(sink);
        let report = store.finish();
        assert!(report.demoted);
        assert!(report.watchdog_trips >= 1);
    }

    #[test]
    fn writer_absorbs_io_errors_without_blocking_producers() {
        let dir = TempDir::new("ioerr");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256; // many chunks, many failed writes
        let store = TraceStore::create_with_medium(config, FailingBackend).unwrap();
        let mut sink = store.handle();
        let appended = 2_000u64;
        for i in 0..appended {
            sink.append(&rec(i));
        }
        sink.flush();
        drop(sink);
        let report = store.finish();
        // Nothing persisted, but nothing vanished unaccounted either.
        assert_eq!(report.records, 0);
        assert!(report.io_errors > 0);
        assert_eq!(
            report.records + report.drops.dropped_records() + report.io_error_records,
            appended,
            "conservation: persisted + dropped + lost-to-I/O == appended ({report:?})"
        );
    }

    #[test]
    fn partial_disk_failure_conserves_accounting() {
        let dir = TempDir::new("budget");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256;
        let store =
            TraceStore::create_with_medium(config, BudgetBackend(Arc::new(AtomicUsize::new(4096))))
                .unwrap();
        let mut sink = store.handle();
        let appended = 5_000u64;
        for i in 0..appended {
            sink.append(&rec(i));
        }
        sink.flush();
        drop(sink);
        let report = store.finish();
        assert!(report.records > 0, "the budget allows some persistence");
        assert!(report.io_error_records > 0, "the budget must run out");
        assert_eq!(
            report.records + report.drops.dropped_records() + report.io_error_records,
            appended,
            "{report:?}"
        );
    }

    #[test]
    fn finish_writes_readable_meta_sidecar() {
        let dir = TempDir::new("meta");
        let store = TraceStore::create(TraceStoreConfig::new(&dir.0)).unwrap();
        let mut sink = store.handle();
        for i in 0..100 {
            sink.append(&rec(i));
        }
        drop(sink);
        let report = store.finish();
        let meta = read_meta(&dir.0).expect("sidecar written at finish");
        let get = |key: &str| {
            meta.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(get("records"), report.records.to_string());
        assert_eq!(get("dropped_oldest_records"), "0");
        assert_eq!(get("io_error_records"), "0");
        assert_eq!(get("demoted"), "false");
        assert_eq!(get("watchdog_trips"), "0");
        // The sidecar must not confuse the segment reader.
        let (records, integrity) = read_trace(&dir.0).unwrap();
        assert_eq!(records.len(), 100);
        assert!(integrity.aggregate().is_clean());
        // Absent sidecar (older captures) reads as None, not an error.
        assert!(read_meta(&dir.0.join("nope")).is_none());
    }

    #[test]
    fn writer_sidecars_match_backfill_byte_for_byte() {
        use crate::index::{build_index, decode_index, index_path};

        let dir = TempDir::new("sidecar");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256;
        config.segment_max_bytes = 2048; // several segments
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for i in 0..1_000 {
            let mut r = rec(i);
            r.target = TargetId::new(vscsi::VmId((i % 4) as u32), vscsi::VDiskId(0));
            sink.append(&r);
        }
        drop(sink);
        let report = store.finish();
        assert!(report.segments > 1);
        assert_eq!(report.indexes, report.segments, "one sidecar per segment");
        assert!(report.index_bytes > 0);

        let mut segments: Vec<PathBuf> = fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION))
            .collect();
        segments.sort();
        assert_eq!(segments.len() as u64, report.segments);
        let mut sidecar_bytes = 0u64;
        for seg in &segments {
            let sidecar = fs::read(index_path(seg)).expect("writer emitted a sidecar");
            sidecar_bytes += sidecar.len() as u64;
            // The writer's producer-side zone maps must equal what a
            // full decode of the segment derives — byte for byte.
            let rebuilt = build_index(&fs::read(seg).unwrap()).unwrap();
            assert_eq!(sidecar, encode_index(&rebuilt), "{}", seg.display());
            let decoded = decode_index(&sidecar).unwrap();
            assert_eq!(decoded, rebuilt);
            assert!(decoded.entries.iter().all(|e| e.stats.is_some()));
        }
        assert_eq!(sidecar_bytes, report.index_bytes);
        // Sidecars never confuse the segment reader.
        let (records, integrity) = read_trace(&dir.0).unwrap();
        assert_eq!(records.len(), 1_000);
        assert!(integrity.is_clean());
        // Meta records the index accounting.
        let meta = read_meta(&dir.0).unwrap();
        assert!(meta
            .iter()
            .any(|(k, v)| k == "indexes" && *v == report.indexes.to_string()));
    }

    #[test]
    fn report_is_observable_mid_capture() {
        let dir = TempDir::new("mid");
        let store = TraceStore::create(TraceStoreConfig::new(&dir.0)).unwrap();
        let mut sink = store.handle();
        for i in 0..50 {
            sink.append(&rec(i));
        }
        sink.flush();
        let report = store.report();
        assert_eq!(report.records, 50);
        assert_eq!(report.segments, 1);
        store.finish();
    }
}
