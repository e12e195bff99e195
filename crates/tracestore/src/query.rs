//! Parallel trace analytics: indexed segment scan with predicate
//! pushdown.
//!
//! The paper's position is that *online* histograms make full tracing
//! unnecessary for routine monitoring; the flip side is that when a
//! trace has been captured, offline questions should not cost a
//! single-threaded full decode of every varint block. This module is the
//! offline half of that bargain:
//!
//! ```text
//!       segment lengths + VSTRIDX1 sidecars (index.rs)
//!                     |
//!        load      ---+-- a sidecar that names the segment's length is
//!         |               the index; only a missing, stale or malformed
//!         |               one has the segment read whole, to rebuild it
//!        prune     --- on the calling thread: every zone map is checked
//!         |             once; the surviving (segment, block) pairs, in
//!         |             file order, are cut into spans
//!   phase 1: scan   --- T workers claim spans from a shared cursor; each
//!         |             block is fetched by one positioned read into a
//!         |             reused buffer, verified, decoded into a reused
//!         |             scratch; matches are grouped per target per span
//!   spans by index  --- a target's groups, concatenated in span order,
//!         |             are its matched records in file order
//!   phase 2: replay --- the same T workers claim targets from a second
//!         |             cursor and replay each into a histogram set
//!      QueryOutcome --- per-target collectors + conservation ledger
//! ```
//!
//! The T workers are T−1 scoped threads plus the calling thread, so a
//! one-thread run — or an answer of one span — spawns nothing. A span is
//! `min(span_blocks, ⌈survivors ÷ T⌉)` blocks, so an answer smaller than
//! the pool is still shared out. No segment is ever resident: a scanner
//! holds one open file and one block, which bounds a query's memory by
//! workers × block plus what matched, whatever the archive's size, and
//! [`QueryReport::bytes_read`] says what the answer cost in segment I/O.
//! With the index off (`use_index: false`) every segment is read whole
//! once, to frame it, and dropped before the scan. Positioned reads are
//! `std::os::unix::fs::FileExt::read_exact_at`; the crate targets Unix.
//!
//! Three properties are load-bearing and tested:
//!
//! * **Pushdown is only ever a skip.** A zone map can prove a block
//!   irrelevant; it can never fabricate a match. Blocks without stats
//!   (corrupt at index time, or hand-built empties) are always scanned.
//!   A skipped block costs no I/O at all: not opened, not read, not
//!   CRC'd.
//! * **Parallelism is invisible in the result.** Spans are numbered in
//!   file order and a worker scans the span it claimed front to back, so
//!   laying the spans' per-target groups end to end by span number *is*
//!   file order — no coordinates to carry, nothing to sort. Which worker
//!   scanned which span never reaches the histograms: they are
//!   bit-identical to a serial scan at any thread count.
//! * **The ledger closes.** For every file and in total:
//!   `scanned + skipped_by_index + skipped_by_corruption == total
//!   blocks`, with damaged blocks accounted (never silently dropped),
//!   exactly as the capture side conserves appended records. A block the
//!   file no longer holds (the segment shrank after its index was
//!   accepted) is a damaged block, not an error.

use crate::codec::decode_block_into;
use crate::index::{invalid_data, load_or_build_file};
use crate::index::{BlockEntry, IndexSource, SegmentIndex, ZoneStats};
use crate::index::{KIND_COMPLETED, KIND_INFLIGHT, KIND_READ, KIND_WRITE};
use crate::reader::{list_segments, IntegrityReport};
use crate::segment::{walk_frames, FrameEvent, SegmentError, BLOCK_HEADER_BYTES, BLOCK_MAGIC};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use vscsi::{IoDirection, TargetId};
use vscsi_stats::crc32::crc32;
use vscsi_stats::workers::run_workers;
use vscsi_stats::{replay, CollectorConfig, IoStatsCollector, Lens, Metric, TraceRecord};

/// A command-kind predicate leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Reads only.
    Read,
    /// Writes only.
    Write,
    /// Commands that completed within the capture.
    Completed,
    /// Commands still in flight when capture stopped.
    Inflight,
}

/// The typed predicate AST. Every variant has two evaluations: against a
/// decoded record ([`Predicate::matches`]) and against a block's zone
/// map ([`Predicate::may_match`]), where it must be *conservative* —
/// `matches(r)` for any record in a block implies `may_match(stats)` for
/// that block's stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Matches everything (the full-scan query).
    True,
    /// Issue timestamp within `[from_ns, to_ns]`, inclusive.
    TimeNs {
        /// Window start, inclusive.
        from_ns: u64,
        /// Window end, inclusive.
        to_ns: u64,
    },
    /// First-sector LBA within `[min, max]`, inclusive.
    LbaBand {
        /// Band start sector, inclusive.
        min: u64,
        /// Band end sector, inclusive.
        max: u64,
    },
    /// Command kind.
    Kind(CommandKind),
    /// Exact (VM, virtual disk) target.
    Target(TargetId),
    /// All sub-predicates hold (empty = `True`).
    And(Vec<Predicate>),
    /// Any sub-predicate holds (empty = matches nothing).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Whether a decoded record satisfies the predicate.
    pub fn matches(&self, r: &TraceRecord) -> bool {
        match self {
            Predicate::True => true,
            Predicate::TimeNs { from_ns, to_ns } => (*from_ns..=*to_ns).contains(&r.issue_ns),
            Predicate::LbaBand { min, max } => (*min..=*max).contains(&r.lba.sector()),
            Predicate::Kind(kind) => match kind {
                CommandKind::Read => r.direction == IoDirection::Read,
                CommandKind::Write => r.direction == IoDirection::Write,
                CommandKind::Completed => r.complete_ns.is_some(),
                CommandKind::Inflight => r.complete_ns.is_none(),
            },
            Predicate::Target(target) => r.target == *target,
            Predicate::And(ps) => ps.iter().all(|p| p.matches(r)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(r)),
        }
    }

    /// Whether a block with these zone stats *may* contain a match.
    /// `false` is a proof of absence; `true` promises nothing.
    pub fn may_match(&self, stats: &ZoneStats) -> bool {
        match self {
            Predicate::True => true,
            Predicate::TimeNs { from_ns, to_ns } => {
                stats.min_issue_ns <= *to_ns && *from_ns <= stats.max_issue_ns
            }
            Predicate::LbaBand { min, max } => stats.min_lba <= *max && *min <= stats.max_lba,
            Predicate::Kind(kind) => {
                let bit = match kind {
                    CommandKind::Read => KIND_READ,
                    CommandKind::Write => KIND_WRITE,
                    CommandKind::Completed => KIND_COMPLETED,
                    CommandKind::Inflight => KIND_INFLIGHT,
                };
                stats.kinds & bit != 0
            }
            Predicate::Target(target) => stats.may_contain_target(*target),
            Predicate::And(ps) => ps.iter().all(|p| p.may_match(stats)),
            Predicate::Or(ps) => ps.iter().any(|p| p.may_match(stats)),
        }
    }

    /// Pushdown decision for a block: blocks without stats must be
    /// scanned (the index could not vouch for their contents).
    fn zone_check(&self, stats: Option<&ZoneStats>) -> bool {
        stats.is_none_or(|s| self.may_match(s))
    }
}

/// Tuning for a [`QueryEngine`] run.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Worker threads (the calling thread is one of them); `0` means one
    /// per available core.
    pub threads: usize,
    /// Load/backfill `VSTRIDX1` sidecars and push predicates down to
    /// zone maps. `false` is the naive baseline: every block decoded,
    /// predicate applied record-by-record only.
    pub use_index: bool,
    /// Blocks per work item claimed from the shared cursor; small enough
    /// to balance, large enough to amortize the claim.
    pub span_blocks: u32,
    /// Histogram configuration for the per-target collectors.
    pub collector: CollectorConfig,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            threads: 0,
            use_index: true,
            span_blocks: 64,
            collector: CollectorConfig::paper_figures(),
        }
    }
}

/// Per-segment-file scan ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentScan {
    /// The segment file.
    pub path: PathBuf,
    /// Framed blocks the index describes.
    pub total_blocks: u64,
    /// Blocks decoded and predicate-filtered.
    pub scanned_blocks: u64,
    /// Blocks skipped because their zone map proved no match — never
    /// read.
    pub skipped_by_index: u64,
    /// Blocks attempted but failing CRC/decode.
    pub skipped_by_corruption: u64,
    /// Records decoded from scanned blocks.
    pub records_scanned: u64,
    /// Records satisfying the predicate.
    pub records_matched: u64,
    /// Declared records inside corrupt blocks.
    pub records_lost: u64,
    /// Declared records inside index-skipped blocks.
    pub records_skipped_by_index: u64,
    /// Segment bytes the scan fetched: header + payload of every block it
    /// attempted and the file still held. Sidecars, and a segment read
    /// whole to (re)build its index, are not counted.
    pub bytes_read: u64,
    /// Whether the segment ends mid-block.
    pub truncated_tail: bool,
    /// Whether the sidecar was missing/stale and rebuilt from segment
    /// bytes.
    pub index_rebuilt: bool,
}

impl SegmentScan {
    /// Whether this file's block accounting closes exactly.
    pub(crate) fn conserves(&self) -> bool {
        self.scanned_blocks + self.skipped_by_index + self.skipped_by_corruption
            == self.total_blocks
    }
}

/// The whole run's ledger: per-file entries plus their totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryReport {
    /// One entry per segment file, in scan (name) order.
    pub files: Vec<SegmentScan>,
    /// Sum of per-file `total_blocks`.
    pub total_blocks: u64,
    /// Sum of per-file `scanned_blocks`.
    pub scanned_blocks: u64,
    /// Sum of per-file `skipped_by_index`.
    pub skipped_by_index: u64,
    /// Sum of per-file `skipped_by_corruption`.
    pub skipped_by_corruption: u64,
    /// Sum of per-file `records_scanned`.
    pub records_scanned: u64,
    /// Sum of per-file `records_matched`.
    pub records_matched: u64,
    /// Sum of per-file `records_lost`.
    pub records_lost: u64,
    /// Sum of per-file `records_skipped_by_index`.
    pub records_skipped_by_index: u64,
    /// Sum of per-file `bytes_read`: what the answer cost in segment
    /// I/O, index (re)build reads not counted.
    pub bytes_read: u64,
    /// Sidecars that had to be rebuilt (missing, stale, or malformed).
    pub indexes_rebuilt: u64,
    /// Segments ending mid-block.
    pub truncated_tails: u64,
}

impl QueryReport {
    /// Whether block accounting closes exactly, in total and per file:
    /// `scanned + skipped_by_index + skipped_by_corruption == total`.
    pub fn conserves(&self) -> bool {
        self.scanned_blocks + self.skipped_by_index + self.skipped_by_corruption
            == self.total_blocks
            && self.files.iter().all(SegmentScan::conserves)
    }

    /// Fraction of blocks the index pruned (0 when there were none).
    pub fn skip_ratio(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.skipped_by_index as f64 / self.total_blocks as f64
        }
    }

    fn absorb(&mut self, scan: SegmentScan) {
        self.total_blocks += scan.total_blocks;
        self.scanned_blocks += scan.scanned_blocks;
        self.skipped_by_index += scan.skipped_by_index;
        self.skipped_by_corruption += scan.skipped_by_corruption;
        self.records_scanned += scan.records_scanned;
        self.records_matched += scan.records_matched;
        self.records_lost += scan.records_lost;
        self.records_skipped_by_index += scan.records_skipped_by_index;
        self.bytes_read += scan.bytes_read;
        self.indexes_rebuilt += u64::from(scan.index_rebuilt);
        self.truncated_tails += u64::from(scan.truncated_tail);
        self.files.push(scan);
    }
}

impl fmt::Display for QueryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} files, {} blocks ({} scanned, {} index-skipped, {} corrupt), \
             {} records scanned, {} matched, {} lost",
            self.files.len(),
            self.total_blocks,
            self.scanned_blocks,
            self.skipped_by_index,
            self.skipped_by_corruption,
            self.records_scanned,
            self.records_matched,
            self.records_lost
        )?;
        if self.indexes_rebuilt > 0 {
            write!(f, ", {} sidecars rebuilt", self.indexes_rebuilt)?;
        }
        if self.truncated_tails > 0 {
            write!(f, ", {} truncated tails", self.truncated_tails)?;
        }
        Ok(())
    }
}

/// One target's answer: how many records matched and the full histogram
/// set replayed from them, identical to what online collection over the
/// same (filtered) stream would have produced.
#[derive(Debug)]
pub struct TargetQueryResult {
    /// The (VM, disk) this row describes.
    pub target: TargetId,
    /// Matched records for this target.
    pub records: u64,
    /// Collector replayed from the matched records in file order.
    pub collector: IoStatsCollector,
}

impl TargetQueryResult {
    /// Order-insensitive 64-bit digest of every histogram cell and
    /// counter — the "bit-for-bit" comparison primitive used by tests
    /// and benches (FNV-1a over all 21 metric×lens histograms plus the
    /// command counters).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(u64::from(self.target.vm.0));
        fold(u64::from(self.target.disk.0));
        fold(self.records);
        fold(self.collector.issued_commands());
        fold(self.collector.completed_commands());
        fold(self.collector.error_commands());
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                let histogram = self.collector.histogram(metric, lens);
                fold(histogram.total());
                for &count in histogram.counts() {
                    fold(count);
                }
            }
        }
        h
    }
}

/// A finished query: per-target results (sorted by target id) plus the
/// conservation ledger.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Per-target histogram sets, ascending by target id.
    pub targets: Vec<TargetQueryResult>,
    /// The block/record ledger.
    pub report: QueryReport,
}

struct LoadedSegment {
    path: PathBuf,
    index: SegmentIndex,
    rebuilt: bool,
}

/// Per-(scanner, segment) counters, merged into [`SegmentScan`]s at
/// join time so scanners share nothing while running.
#[derive(Debug, Clone, Copy, Default)]
struct LocalScan {
    scanned_blocks: u64,
    skipped_by_corruption: u64,
    records_scanned: u64,
    records_matched: u64,
    records_lost: u64,
    bytes_read: u64,
}

/// Index-shaped framing of a segment *without* zone stats, for the
/// naive (`use_index: false`) path: same block census as
/// [`crate::index::build_index`], no pruning information.
fn frame_entries(data: &[u8]) -> Result<SegmentIndex, SegmentError> {
    let mut index = SegmentIndex {
        segment_bytes: data.len() as u64,
        truncated_tail: false,
        entries: Vec::new(),
    };
    walk_frames(data, |event| match event {
        FrameEvent::Block {
            offset,
            record_count,
            crc,
            payload,
        } => index.entries.push(BlockEntry {
            offset: offset as u64,
            payload_len: payload.len() as u32,
            record_count,
            crc32: crc,
            stats: None,
        }),
        FrameEvent::Corrupt { .. } => {}
        FrameEvent::Truncated { .. } => index.truncated_tail = true,
    })?;
    Ok(index)
}

/// One span's matched records, grouped per target; each group is in file
/// order because the span was scanned front to back.
type SpanMatches = BTreeMap<TargetId, Vec<TraceRecord>>;

/// What one scanner brings back: its per-segment counters and, keyed by
/// span number, the matches of every span it scanned.
type WorkerScan = (Vec<LocalScan>, Vec<(usize, SpanMatches)>);

/// Fetches one block — header and payload in a single positioned read
/// into `buf` — and decodes it into `scratch`. `Ok(false)` is a block
/// the serial reader would lose too: the file ends before the block does,
/// the header no longer says what the index entry says, the CRC fails or
/// the payload does not decode.
fn fetch_block(
    file: &File,
    entry: &BlockEntry,
    buf: &mut Vec<u8>,
    scratch: &mut Vec<TraceRecord>,
    bytes_read: &mut u64,
) -> io::Result<bool> {
    buf.resize(BLOCK_HEADER_BYTES + entry.payload_len as usize, 0);
    match file.read_exact_at(buf, entry.offset) {
        Ok(()) => *bytes_read += buf.len() as u64,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let (header, payload) = buf.split_at(BLOCK_HEADER_BYTES);
    // A flip inside the 16 header bytes leaves the payload CRC intact,
    // but the serial reader would refuse to re-frame the block — and the
    // engine must lose exactly what the reader loses, or "bit-identical
    // to the reference" breaks.
    let header_ok = header[..4] == BLOCK_MAGIC.to_le_bytes()
        && header[4..8] == entry.payload_len.to_le_bytes()
        && header[8..12] == entry.record_count.to_le_bytes()
        && header[12..16] == entry.crc32.to_le_bytes();
    scratch.clear();
    Ok(header_ok
        && crc32(payload) == entry.crc32
        && decode_block_into(payload, entry.record_count, scratch).is_ok())
}

/// Phase 1: claims spans — runs of `span_len` zone-surviving
/// `(segment, block)` pairs — until the cursor runs out. Resident bytes
/// are one block: the segment being scanned is open, never loaded.
fn scan_worker(
    segments: &[LoadedSegment],
    survivors: &[(u32, u32)],
    span_len: usize,
    cursor: &AtomicUsize,
    predicate: &Predicate,
) -> io::Result<WorkerScan> {
    let mut stats = vec![LocalScan::default(); segments.len()];
    let mut found = Vec::new();
    let mut open: Option<(u32, File)> = None;
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch: Vec<TraceRecord> = Vec::new();
    loop {
        let item = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(span) = survivors.chunks(span_len).nth(item) else {
            break;
        };
        let mut matches = SpanMatches::new();
        for &(seg, block) in span {
            let segment = &segments[seg as usize];
            let (_, file) = match open.take().filter(|(at, _)| *at == seg) {
                Some(kept) => open.insert(kept),
                None => open.insert((seg, File::open(&segment.path)?)),
            };
            let entry = &segment.index.entries[block as usize];
            let local = &mut stats[seg as usize];
            if !fetch_block(file, entry, &mut buf, &mut scratch, &mut local.bytes_read)? {
                local.skipped_by_corruption += 1;
                local.records_lost += u64::from(entry.record_count);
                continue;
            }
            local.scanned_blocks += 1;
            local.records_scanned += scratch.len() as u64;
            for rec in scratch.iter().filter(|rec| predicate.matches(rec)) {
                local.records_matched += 1;
                matches.entry(rec.target).or_default().push(*rec);
            }
        }
        found.push((item, matches));
    }
    Ok((stats, found))
}

/// Phase 2: claims targets until the cursor runs out and replays each
/// one's matched records, laid end to end in span order.
fn replay_worker(
    targets: &[(TargetId, Vec<Vec<TraceRecord>>)],
    cursor: &AtomicUsize,
    collector: &CollectorConfig,
) -> Vec<TargetQueryResult> {
    let mut rows = Vec::new();
    while let Some((target, groups)) = targets.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        let records = groups.concat();
        rows.push(TargetQueryResult {
            target: *target,
            records: records.len() as u64,
            collector: replay(&records, collector.clone()),
        });
    }
    rows
}

/// The indexed, parallel scan engine. Construct once, run queries
/// against archives (store directories or single segment files).
#[derive(Debug, Clone)]
pub struct QueryEngine {
    config: QueryConfig,
    /// `config.threads` with `0` resolved, once: asking the OS re-reads
    /// the cgroup files every time.
    threads: usize,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new(QueryConfig::default())
    }
}

impl QueryEngine {
    /// An engine with the given tuning.
    pub fn new(config: QueryConfig) -> Self {
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        QueryEngine { config, threads }
    }

    /// The tuning this engine runs with.
    pub fn config(&self) -> &QueryConfig {
        &self.config
    }

    /// Every segment's block census, in name order: its sidecar when
    /// that is current, an index built from the segment's bytes otherwise
    /// (or always, without zone maps, when the index is off). Bytes read
    /// to build an index are dropped here; the scan fetches the blocks it
    /// wants.
    fn load(&self, path: &Path) -> io::Result<Vec<LoadedSegment>> {
        let paths = if path.is_dir() {
            list_segments(path)?
        } else {
            vec![path.to_path_buf()]
        };
        let mut segments = Vec::with_capacity(paths.len());
        for path in paths {
            let (index, rebuilt) = if self.config.use_index {
                let (index, source) = load_or_build_file(&path)?;
                (index, source == IndexSource::Rebuilt)
            } else {
                let data = fs::read(&path)?;
                let index = frame_entries(&data).map_err(|e| invalid_data(&path, e))?;
                (index, false)
            };
            segments.push(LoadedSegment {
                path,
                index,
                rebuilt,
            });
        }
        Ok(segments)
    }

    /// Runs `predicate` over the archive at `path` (a store directory or
    /// one `.vseg` file).
    ///
    /// Corruption inside segments is not an error — damaged blocks are
    /// skipped and accounted in the report, mirroring
    /// [`read_trace`](crate::read_trace). So is a segment that shrinks
    /// under the scan: the blocks no longer there are
    /// `skipped_by_corruption`.
    ///
    /// # Errors
    ///
    /// I/O failures, a directory with no segments, or a file that was
    /// never a tracestore segment.
    ///
    /// # Panics
    ///
    /// Re-raises a worker thread's panic with its own message (none are
    /// expected).
    pub fn run(&self, path: &Path, predicate: &Predicate) -> io::Result<QueryOutcome> {
        self.scan(&self.load(path)?, predicate)
    }

    /// Prune on this thread, scan what survives, replay what matched.
    fn scan(&self, segments: &[LoadedSegment], predicate: &Predicate) -> io::Result<QueryOutcome> {
        // Prune here, once: the zone maps are a few hundred entries, and
        // work is then cut over what is left to do, not over what exists.
        let mut scans: Vec<SegmentScan> = Vec::with_capacity(segments.len());
        let mut survivors: Vec<(u32, u32)> = Vec::new();
        for (seg_idx, seg) in segments.iter().enumerate() {
            let mut scan = SegmentScan {
                path: seg.path.clone(),
                total_blocks: seg.index.entries.len() as u64,
                truncated_tail: seg.index.truncated_tail,
                index_rebuilt: seg.rebuilt,
                ..SegmentScan::default()
            };
            for (block, entry) in seg.index.entries.iter().enumerate() {
                if predicate.zone_check(entry.stats.as_ref()) {
                    survivors.push((seg_idx as u32, block as u32));
                } else {
                    scan.skipped_by_index += 1;
                    scan.records_skipped_by_index += u64::from(entry.record_count);
                }
            }
            scans.push(scan);
        }
        // Enough spans that every worker gets one, none longer than the
        // configured claim.
        let span_len = (self.config.span_blocks as usize)
            .min(survivors.len().div_ceil(self.threads))
            .max(1);
        let spans = survivors.len().div_ceil(span_len);

        let cursor = AtomicUsize::new(0);
        let mut scan_stats = Vec::new();
        let mut found = Vec::new();
        for worker in run_workers(self.threads.min(spans), || {
            scan_worker(segments, &survivors, span_len, &cursor, predicate)
        }) {
            let (stats, matches) = worker?;
            scan_stats.push(stats);
            found.extend(matches);
        }

        // Whoever scanned it, a span's matches go to the slot with its
        // number; walking the slots in order then hands every target its
        // groups in file order.
        let mut by_span = vec![SpanMatches::new(); spans];
        for (item, matches) in found {
            by_span[item] = matches;
        }
        let mut by_target: BTreeMap<TargetId, Vec<Vec<TraceRecord>>> = BTreeMap::new();
        for (target, group) in by_span.into_iter().flatten() {
            by_target.entry(target).or_default().push(group);
        }
        let by_target: Vec<_> = by_target.into_iter().collect();

        let cursor = AtomicUsize::new(0);
        let mut target_rows: Vec<TargetQueryResult> =
            run_workers(self.threads.min(by_target.len()), || {
                replay_worker(&by_target, &cursor, &self.config.collector)
            })
            .into_iter()
            .flatten()
            .collect();
        // Targets were claimed in id order but finish in any; sort for a
        // deterministic, id-ordered answer.
        target_rows.sort_by_key(|row| row.target);

        let mut report = QueryReport::default();
        for (seg_idx, mut scan) in scans.into_iter().enumerate() {
            for per_scanner in &scan_stats {
                let local = &per_scanner[seg_idx];
                scan.scanned_blocks += local.scanned_blocks;
                scan.skipped_by_corruption += local.skipped_by_corruption;
                scan.records_scanned += local.records_scanned;
                scan.records_matched += local.records_matched;
                scan.records_lost += local.records_lost;
                scan.bytes_read += local.bytes_read;
            }
            report.absorb(scan);
        }
        debug_assert!(report.conserves(), "ledger must close: {report:?}");
        Ok(QueryOutcome {
            targets: target_rows,
            report,
        })
    }
}

/// Independent oracle for the engine: full decode through the ordinary
/// reader (resync machinery and all), filter in file order, replay per
/// target. Slow by design — this is what the engine must agree with and
/// what the bench calls "naive".
///
/// # Errors
///
/// Same conditions as [`read_trace`](crate::read_trace).
pub fn reference_scan(
    path: &Path,
    predicate: &Predicate,
    collector: &CollectorConfig,
) -> io::Result<(Vec<TargetQueryResult>, IntegrityReport)> {
    let (records, integrity) = crate::read_trace(path)?;
    let mut buckets: BTreeMap<TargetId, Vec<TraceRecord>> = BTreeMap::new();
    for record in records {
        if predicate.matches(&record) {
            buckets.entry(record.target).or_default().push(record);
        }
    }
    let results = buckets
        .into_iter()
        .map(|(target, records)| TargetQueryResult {
            target,
            records: records.len() as u64,
            collector: replay(&records, collector.clone()),
        })
        .collect();
    Ok((results, integrity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{TraceStore, TraceStoreConfig};
    use crate::testutil::TempDir;
    use vscsi::{Lba, VDiskId, VmId};

    /// The fixture stream on a coarser clock (one issue per µs, so the
    /// time windows below read in records) with LBAs cycling over seven
    /// bands, which is what makes an LBA predicate selective.
    fn rec(serial: u64) -> TraceRecord {
        TraceRecord {
            lba: Lba::new((serial % 7) * 1_000),
            issue_ns: serial * 1_000,
            complete_ns: Some(serial * 1_000 + 300),
            ..crate::testutil::rec(serial)
        }
    }

    /// Captures `n` records through a real store (small chunks → many
    /// blocks, small segments → several files) and returns the dir.
    fn capture(tag: &str, n: u64) -> TempDir {
        let dir = TempDir::new(tag);
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256;
        config.segment_max_bytes = 4096;
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for i in 0..n {
            vscsi_stats::TraceSink::append(&mut sink, &rec(i));
        }
        drop(sink);
        store.finish();
        dir
    }

    fn engine(threads: usize, use_index: bool) -> QueryEngine {
        QueryEngine::new(QueryConfig {
            threads,
            use_index,
            span_blocks: 4,
            ..QueryConfig::default()
        })
    }

    fn digests(rows: &[TargetQueryResult]) -> Vec<(TargetId, u64)> {
        rows.iter().map(|r| (r.target, r.digest())).collect()
    }

    #[test]
    fn selective_time_window_prunes_blocks_and_matches_reference() {
        let dir = capture("window", 2_000);
        // Records are appended in issue order, so blocks are
        // time-contiguous and a narrow window must prune most of them.
        let predicate = Predicate::TimeNs {
            from_ns: 100_000,
            to_ns: 150_000,
        };
        let outcome = engine(3, true).run(&dir.0, &predicate).unwrap();
        assert!(outcome.report.conserves(), "{:?}", outcome.report);
        assert!(
            outcome.report.skipped_by_index > outcome.report.scanned_blocks,
            "narrow window must skip most blocks: {}",
            outcome.report
        );
        assert_eq!(outcome.report.records_matched, 51);
        let (reference, _) =
            reference_scan(&dir.0, &predicate, &CollectorConfig::paper_figures()).unwrap();
        assert_eq!(digests(&outcome.targets), digests(&reference));
    }

    #[test]
    fn full_scan_is_bit_identical_across_modes_and_thread_counts() {
        let dir = capture("fullscan", 1_200);
        let (reference, integrity) =
            reference_scan(&dir.0, &Predicate::True, &CollectorConfig::paper_figures()).unwrap();
        assert!(integrity.is_clean());
        let expected = digests(&reference);
        // 64 asks for more workers than there are spans (1,200 records in
        // 256-byte chunks, 4 blocks a span) and far more than the 3
        // targets: each phase must settle for one worker per item.
        for (threads, use_index) in [(1, true), (4, true), (64, true), (1, false), (4, false)] {
            let outcome = engine(threads, use_index)
                .run(&dir.0, &Predicate::True)
                .unwrap();
            assert_eq!(
                digests(&outcome.targets),
                expected,
                "threads={threads} use_index={use_index}"
            );
            assert!(outcome.report.conserves());
            assert_eq!(outcome.report.records_matched, 1_200);
            assert_eq!(outcome.report.skipped_by_index, 0);
        }
    }

    #[test]
    fn compound_predicates_agree_with_reference() {
        let dir = capture("compound", 1_500);
        let predicate = Predicate::And(vec![
            Predicate::Kind(CommandKind::Write),
            Predicate::Or(vec![
                Predicate::Target(TargetId::new(VmId(1), VDiskId(0))),
                Predicate::LbaBand { min: 0, max: 1_500 },
            ]),
        ]);
        let outcome = engine(2, true).run(&dir.0, &predicate).unwrap();
        let (reference, _) =
            reference_scan(&dir.0, &predicate, &CollectorConfig::paper_figures()).unwrap();
        assert_eq!(digests(&outcome.targets), digests(&reference));
        assert!(outcome.report.conserves());
        // Matching nothing is well-formed too.
        let nothing = engine(2, true).run(&dir.0, &Predicate::Or(vec![])).unwrap();
        assert!(nothing.targets.is_empty());
        assert_eq!(nothing.report.records_matched, 0);
        assert!(nothing.report.conserves());
    }

    #[test]
    fn payload_corruption_is_skipped_and_accounted() {
        let dir = capture("corrupt", 1_000);
        // Flip one payload byte in the first segment: framing intact,
        // CRC broken. The sidecar (written clean) still frames the
        // block, so the scan attempts it, fails, and accounts it.
        let seg = dir.0.join("trace-00000.vseg");
        let mut bytes = fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[crate::segment::SEGMENT_HEADER_BYTES + BLOCK_HEADER_BYTES + 3] ^= 0xFF;
        assert_eq!(bytes.len(), n);
        fs::write(&seg, &bytes).unwrap();

        let outcome = engine(3, true).run(&dir.0, &Predicate::True).unwrap();
        assert_eq!(outcome.report.skipped_by_corruption, 1);
        assert!(outcome.report.records_lost > 0);
        assert!(outcome.report.conserves(), "{:?}", outcome.report);
        // The reader loses the same block, so results still agree.
        let (reference, integrity) =
            reference_scan(&dir.0, &Predicate::True, &CollectorConfig::paper_figures()).unwrap();
        assert!(!integrity.is_clean());
        assert_eq!(digests(&outcome.targets), digests(&reference));
        assert_eq!(
            outcome.report.records_matched + outcome.report.records_lost,
            1_000
        );
    }

    #[test]
    fn truncated_tail_triggers_rebuild_and_still_agrees() {
        let dir = capture("trunc", 1_000);
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("vseg"))
            .collect();
        segs.sort();
        let last = segs.last().unwrap();
        let bytes = fs::read(last).unwrap();
        fs::write(last, &bytes[..bytes.len() - 7]).unwrap();
        // Also delete another segment's sidecar entirely: the backfill
        // path must cover both missing and stale sidecars in one run.
        fs::remove_file(crate::index::index_path(&segs[0])).unwrap();

        let outcome = engine(2, true).run(&dir.0, &Predicate::True).unwrap();
        assert!(outcome.report.indexes_rebuilt >= 2, "{:?}", outcome.report);
        assert_eq!(outcome.report.truncated_tails, 1);
        assert!(outcome.report.conserves());
        let (reference, integrity) =
            reference_scan(&dir.0, &Predicate::True, &CollectorConfig::paper_figures()).unwrap();
        assert!(integrity.aggregate().truncated_tail);
        assert_eq!(digests(&outcome.targets), digests(&reference));
        // The rebuilds persisted: a second run loads sidecars silently.
        let again = engine(2, true).run(&dir.0, &Predicate::True).unwrap();
        assert_eq!(again.report.indexes_rebuilt, 0);
        assert_eq!(digests(&again.targets), digests(&outcome.targets));
    }

    #[test]
    fn single_segment_file_path_works() {
        let dir = capture("single", 300);
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("vseg"))
            .collect();
        segs.sort();
        let outcome = engine(2, true).run(&segs[0], &Predicate::True).unwrap();
        assert_eq!(outcome.report.files.len(), 1);
        assert!(outcome.report.conserves());
        let (reference, _) = reference_scan(
            &segs[0],
            &Predicate::True,
            &CollectorConfig::paper_figures(),
        )
        .unwrap();
        assert_eq!(digests(&outcome.targets), digests(&reference));
    }

    #[test]
    fn a_store_still_appending_answers_from_the_prefix_on_disk() {
        let dir = TempDir::new("live");
        let mut config = TraceStoreConfig::new(&dir.0);
        config.chunk_bytes = 256;
        config.segment_max_bytes = 4096;
        let store = TraceStore::create(config).unwrap();
        let mut sink = store.handle();
        for i in 0..700 {
            vscsi_stats::TraceSink::append(&mut sink, &rec(i));
        }
        // Acknowledged by the writer: the prefix is on disk, the active
        // segment has no sidecar, and nothing moves until the next append.
        vscsi_stats::TraceSink::flush(&mut sink);
        let predicate = Predicate::TimeNs {
            from_ns: 500_000,
            to_ns: 699_000,
        };
        for threads in [1, 2] {
            let outcome = engine(threads, true).run(&dir.0, &predicate).unwrap();
            assert!(outcome.report.conserves(), "{:?}", outcome.report);
            assert!(outcome.report.skipped_by_index > 0);
            assert_eq!(outcome.report.records_matched, 200);
            // The first run indexes the active segment from its prefix.
            assert_eq!(outcome.report.indexes_rebuilt, u64::from(threads == 1));
            let (reference, _) =
                reference_scan(&dir.0, &predicate, &CollectorConfig::paper_figures()).unwrap();
            assert_eq!(digests(&outcome.targets), digests(&reference));
        }
        // The prefix's sidecar goes stale as the segment grows; the store
        // and later queries are none the worse for it.
        for i in 700..1_000 {
            vscsi_stats::TraceSink::append(&mut sink, &rec(i));
        }
        drop(sink);
        assert_eq!(store.finish().records, 1_000);
        let all = engine(2, true).run(&dir.0, &Predicate::True).unwrap();
        assert_eq!(all.report.records_matched, 1_000);
        assert_eq!(all.report.indexes_rebuilt, 0);
    }

    #[test]
    fn a_segment_that_shrinks_under_the_scan_is_booked_as_corruption() {
        let dir = capture("shrink", 1_000);
        for threads in [1, 3] {
            let engine = engine(threads, true);
            let segments = engine.load(&dir.0).unwrap();
            let clean = engine.scan(&segments, &Predicate::True).unwrap().report;
            assert_eq!(clean.skipped_by_corruption, 0);

            // Cut the first segment inside its third block, after the
            // index was accepted on the full length.
            let first = &segments[0];
            let cut = first.index.entries[2].offset + BLOCK_HEADER_BYTES as u64 + 1;
            let bytes = fs::read(&first.path).unwrap();
            fs::write(&first.path, &bytes[..cut as usize]).unwrap();
            let outcome = engine.scan(&segments, &Predicate::True).unwrap();
            fs::write(&first.path, &bytes).unwrap();

            let report = &outcome.report;
            assert!(report.conserves(), "{report:?}");
            let gone = first.index.entries.len() as u64 - 2;
            assert_eq!(report.skipped_by_corruption, gone);
            assert_eq!(report.files[0].skipped_by_corruption, gone);
            assert_eq!(report.scanned_blocks, clean.scanned_blocks - gone);
            assert_eq!(report.records_matched + report.records_lost, 1_000);
            // A block the file no longer holds was not fetched.
            let lost_bytes: u64 = first.index.entries[2..]
                .iter()
                .map(|e| BLOCK_HEADER_BYTES as u64 + u64::from(e.payload_len))
                .sum();
            assert_eq!(report.bytes_read, clean.bytes_read - lost_bytes);
        }
    }
}
