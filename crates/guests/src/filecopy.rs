//! Large-file-copy workload (§4.3, Figure 5).
//!
//! The paper compares the same user action — copying a large file on NTFS —
//! between Windows XP Professional and Windows Vista Enterprise: "the copy
//! application in Microsoft Windows XP Pro is issuing I/Os of size 64K
//! whereas in Microsoft Vista Enterprise, I/Os are primarily 1MB in size.
//! Larger I/Os means less seeking … Latencies … are correspondingly longer
//! for the larger sized I/Os in Vista."
//!
//! The model: a pipelined copy engine that reads source chunks and writes
//! them to the destination region, keeping a small number of chunks in
//! flight, looping over a sequence of files for as long as it is driven.

use crate::workload::{BlockIo, Poll, Workload};
use simkit::SimTime;
use vscsi::{Lba, SECTOR_SIZE};

/// Copy-engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCopyParams {
    /// Bytes per copy chunk — 64 KiB on XP, 1 MiB on Vista.
    pub chunk_bytes: u64,
    /// Bytes per file.
    pub file_bytes: u64,
    /// First sector of the source file region.
    pub src_base: Lba,
    /// First sector of the destination region.
    pub dst_base: Lba,
    /// Chunks kept in flight (the copy engine's pipelining).
    pub pipeline: u32,
}

impl FileCopyParams {
    /// Windows XP Pro copy engine: 64 KiB chunks.
    pub fn xp(file_bytes: u64) -> Self {
        FileCopyParams {
            chunk_bytes: 64 * 1024,
            file_bytes,
            src_base: Lba::ZERO,
            dst_base: Lba::from_byte_offset(file_bytes.next_multiple_of(1024 * 1024) * 2),
            pipeline: 2,
        }
    }

    /// Windows Vista Enterprise copy engine: 1 MiB chunks.
    pub fn vista(file_bytes: u64) -> Self {
        FileCopyParams {
            chunk_bytes: 1024 * 1024,
            ..FileCopyParams::xp(file_bytes)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Reading(u64),
    Writing(u64),
}

/// A pipelined large-file copy.
///
/// # Examples
///
/// ```
/// use guests::{FileCopyParams, FileCopyWorkload, Workload};
/// use simkit::SimTime;
///
/// let mut copy = FileCopyWorkload::new("xp-copy", FileCopyParams::xp(16 * 1024 * 1024));
/// let poll = copy.start(SimTime::ZERO);
/// assert!(poll.issue.iter().all(|io| io.direction.is_read())); // reads first
/// ```
#[derive(Debug, Clone)]
pub struct FileCopyWorkload {
    name: String,
    params: FileCopyParams,
    /// Per-slot pipeline state.
    slots: Vec<SlotState>,
    /// Next chunk index to read.
    next_chunk: u64,
    chunks_per_file: u64,
    files_copied: u64,
    chunks_written: u64,
}

impl FileCopyWorkload {
    /// Creates a copy engine.
    ///
    /// # Panics
    ///
    /// Panics if the chunk size is zero/unaligned, larger than the file, or
    /// the pipeline is empty.
    pub fn new(name: &str, params: FileCopyParams) -> Self {
        assert!(params.chunk_bytes > 0 && params.chunk_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(params.file_bytes >= params.chunk_bytes);
        assert!(params.pipeline > 0);
        let chunks_per_file = params.file_bytes / params.chunk_bytes;
        FileCopyWorkload {
            name: name.to_owned(),
            params,
            slots: Vec::new(),
            next_chunk: 0,
            chunks_per_file,
            files_copied: 0,
            chunks_written: 0,
        }
    }

    /// Completed whole-file copies.
    pub fn files_copied(&self) -> u64 {
        self.files_copied
    }

    /// Chunks fully copied (read + written).
    pub fn chunks_written(&self) -> u64 {
        self.chunks_written
    }

    /// The parameters.
    pub fn params(&self) -> &FileCopyParams {
        &self.params
    }

    fn chunk_sectors(&self) -> u32 {
        (self.params.chunk_bytes / SECTOR_SIZE) as u32
    }

    fn read_io(&self, chunk: u64, slot: usize) -> BlockIo {
        let within = chunk % self.chunks_per_file;
        let lba = self
            .params
            .src_base
            .advance(within * u64::from(self.chunk_sectors()));
        BlockIo::read(lba, self.chunk_sectors(), slot as u64)
    }

    fn write_io(&self, chunk: u64, slot: usize) -> BlockIo {
        let within = chunk % self.chunks_per_file;
        let lba = self
            .params
            .dst_base
            .advance(within * u64::from(self.chunk_sectors()));
        BlockIo::write(lba, self.chunk_sectors(), slot as u64)
    }
}

impl Workload for FileCopyWorkload {
    fn start(&mut self, _now: SimTime) -> Poll {
        let mut ios = Vec::new();
        for slot in 0..self.params.pipeline as usize {
            let chunk = self.next_chunk;
            self.next_chunk += 1;
            self.slots.push(SlotState::Reading(chunk));
            ios.push(self.read_io(chunk, slot));
        }
        Poll::issue(ios)
    }

    fn on_complete(&mut self, _now: SimTime, tag: u64) -> Poll {
        let slot = tag as usize;
        let io = match self.slots[slot] {
            SlotState::Reading(chunk) => {
                // Read done: write the chunk to the destination.
                self.slots[slot] = SlotState::Writing(chunk);
                self.write_io(chunk, slot)
            }
            SlotState::Writing(chunk) => {
                // Chunk copied; account file completion, read the next one.
                self.chunks_written += 1;
                if (chunk + 1) % self.chunks_per_file == 0 {
                    self.files_copied += 1;
                }
                let next = self.next_chunk;
                self.next_chunk += 1;
                self.slots[slot] = SlotState::Reading(next);
                self.read_io(next, slot)
            }
        };
        Poll::issue(vec![io])
    }

    fn on_timer(&mut self, _now: SimTime) -> Poll {
        Poll::idle()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscsi::IoDirection;

    fn copy(chunk_kb: u64) -> FileCopyWorkload {
        FileCopyWorkload::new(
            "copy",
            FileCopyParams {
                chunk_bytes: chunk_kb * 1024,
                file_bytes: 1024 * 1024,
                src_base: Lba::ZERO,
                dst_base: Lba::new(1_000_000),
                pipeline: 2,
            },
        )
    }

    #[test]
    fn reads_then_writes_alternate_per_slot() {
        let mut c = copy(64);
        let p = c.start(SimTime::ZERO);
        assert_eq!(p.issue.len(), 2);
        assert!(p.issue.iter().all(|io| io.direction.is_read()));
        let w = c.on_complete(SimTime::ZERO, 0).issue[0];
        assert_eq!(w.direction, IoDirection::Write);
        assert!(w.lba >= Lba::new(1_000_000));
        let r2 = c.on_complete(SimTime::ZERO, 0).issue[0];
        assert_eq!(r2.direction, IoDirection::Read);
        assert_eq!(c.chunks_written(), 1);
    }

    #[test]
    fn chunk_sizes_match_presets() {
        let mut xp = FileCopyWorkload::new("xp", FileCopyParams::xp(16 * 1024 * 1024));
        let vista = FileCopyWorkload::new("vista", FileCopyParams::vista(16 * 1024 * 1024));
        assert_eq!(
            u64::from(xp.start(SimTime::ZERO).issue[0].sectors) * 512,
            64 * 1024
        );
        let mut v = vista;
        assert_eq!(
            u64::from(v.start(SimTime::ZERO).issue[0].sectors) * 512,
            1024 * 1024
        );
        // Same copy, 16x fewer commands per file for Vista.
        assert_eq!(
            FileCopyParams::xp(16 * 1024 * 1024).chunk_bytes * 16,
            FileCopyParams::vista(16 * 1024 * 1024).chunk_bytes
        );
    }

    #[test]
    fn source_reads_are_sequential() {
        let mut c = copy(64);
        c.start(SimTime::ZERO);
        let mut last_read: Option<BlockIo> = None;
        for _ in 0..20 {
            // Drive slot 0 through read->write->read...
            let io = c.on_complete(SimTime::ZERO, 0).issue[0];
            if io.direction.is_read() {
                if let Some(prev) = last_read {
                    // Slot 0's reads advance by pipeline*chunk each round.
                    assert!(io.lba > prev.lba || io.lba == Lba::ZERO);
                }
                last_read = Some(io);
            }
        }
    }

    #[test]
    fn file_completion_counted_and_wraps() {
        let mut c = FileCopyWorkload::new(
            "c",
            FileCopyParams {
                chunk_bytes: 64 * 1024,
                file_bytes: 128 * 1024, // 2 chunks per file
                src_base: Lba::ZERO,
                dst_base: Lba::new(10_000),
                pipeline: 1,
            },
        );
        c.start(SimTime::ZERO);
        for _ in 0..8 {
            c.on_complete(SimTime::ZERO, 0);
        }
        // 8 completions = 4 chunks copied = 2 files.
        assert_eq!(c.chunks_written(), 4);
        assert_eq!(c.files_copied(), 2);
    }

    #[test]
    fn dst_region_does_not_overlap_src() {
        let p = FileCopyParams::xp(10 * 1024 * 1024);
        assert!(p.dst_base.as_bytes() >= p.file_bytes);
    }

    #[test]
    #[should_panic(expected = "pipeline")]
    fn zero_pipeline_rejected() {
        let _ = FileCopyWorkload::new(
            "c",
            FileCopyParams {
                pipeline: 0,
                ..FileCopyParams::xp(1024 * 1024)
            },
        );
    }
}
