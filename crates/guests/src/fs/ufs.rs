//! UFS behaviour model.
//!
//! The paper's baseline filesystem (Figure 2): UFS translates the OLTP
//! workload almost verbatim — "UFS is issuing I/Os of sizes 4KB and 8KB
//! which is closer to the original data stream", and its reads *and*
//! writes remain random. The model: in-place allocation with files laid
//! out in fixed-size contiguous chunks scattered over the disk (cylinder-
//! group-style), 4 KiB fragments for reads, whole 8 KiB blocks for writes.

use super::{Extent, FileId, Filesystem};
use simkit::SimRng;
use vscsi::{IoDirection, Lba};

/// UFS model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UfsParams {
    /// Filesystem block size (default 8 KiB, the UFS default).
    pub block_bytes: u64,
    /// Fragment size (default 4 KiB); reads are issued at fragment
    /// granularity.
    pub frag_bytes: u64,
    /// Contiguous allocation run per file (cylinder-group locality),
    /// default 1 MiB.
    pub chunk_bytes: u64,
    /// Disk area the filesystem manages, in bytes.
    pub capacity_bytes: u64,
    /// Placement seed (layout is deterministic given this).
    pub layout_seed: u64,
}

impl Default for UfsParams {
    fn default() -> Self {
        UfsParams {
            block_bytes: 8_192,
            frag_bytes: 4_096,
            chunk_bytes: 1024 * 1024,
            capacity_bytes: 32 * 1024 * 1024 * 1024,
            layout_seed: 0x0F5_0F5_0F5,
        }
    }
}

/// In-place-update filesystem with chunked pseudo-random file layout.
#[derive(Debug, Clone)]
pub struct Ufs {
    params: UfsParams,
}

impl Ufs {
    /// Creates a UFS model.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not sector multiples or the chunk is smaller
    /// than a block.
    pub fn new(params: UfsParams) -> Self {
        assert!(params.frag_bytes.is_multiple_of(vscsi::SECTOR_SIZE));
        assert!(params.block_bytes.is_multiple_of(params.frag_bytes));
        assert!(params.chunk_bytes >= params.block_bytes);
        assert!(params.capacity_bytes >= params.chunk_bytes * 4);
        Ufs { params }
    }

    /// The parameters.
    pub fn params(&self) -> &UfsParams {
        &self.params
    }

    /// Where byte `offset` of `file` lives on disk.
    pub(crate) fn locate(&self, file: FileId, offset: u64) -> Lba {
        let chunk_idx = offset / self.params.chunk_bytes;
        let within = offset % self.params.chunk_bytes;
        let chunks_on_disk = self.params.capacity_bytes / self.params.chunk_bytes;
        let slot = layout_hash(self.params.layout_seed, file, chunk_idx) % chunks_on_disk;
        Lba::from_byte_offset(slot * self.params.chunk_bytes + round_down_sector(within))
    }
}

fn round_down_sector(bytes: u64) -> u64 {
    bytes - bytes % vscsi::SECTOR_SIZE
}

/// Deterministic placement hash (SplitMix64 over (seed, file, chunk)).
pub(crate) fn layout_hash(seed: u64, file: FileId, chunk: u64) -> u64 {
    let mut x = seed ^ (u64::from(file.0) << 32) ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Filesystem for Ufs {
    fn read(&mut self, file: FileId, offset: u64, len: u64, _rng: &mut SimRng) -> Vec<Extent> {
        let frag = self.params.frag_bytes;
        let start = offset / frag * frag;
        let end = (offset + len.max(1)).div_ceil(frag) * frag;
        let mut out = Vec::new();
        let mut pos = start;
        while pos < end {
            // Clip to the containing chunk so extents never straddle a
            // layout discontinuity.
            let chunk_end = (pos / self.params.chunk_bytes + 1) * self.params.chunk_bytes;
            let run = (end - pos).min(chunk_end - pos);
            out.push(Extent::new(
                IoDirection::Read,
                self.locate(file, pos),
                (run / vscsi::SECTOR_SIZE) as u32,
            ));
            pos += run;
        }
        merge_contiguous(out)
    }

    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        _sync: bool,
        _rng: &mut SimRng,
    ) -> Vec<Extent> {
        // UFS writes whole blocks in place (read-modify-write of the block
        // happens in the page cache; only the block write reaches the disk).
        let block = self.params.block_bytes;
        let start = offset / block * block;
        let end = (offset + len.max(1)).div_ceil(block) * block;
        let mut out = Vec::new();
        let mut pos = start;
        while pos < end {
            let chunk_end = (pos / self.params.chunk_bytes + 1) * self.params.chunk_bytes;
            let run = (end - pos).min(chunk_end - pos);
            out.push(Extent::new(
                IoDirection::Write,
                self.locate(file, pos),
                (run / vscsi::SECTOR_SIZE) as u32,
            ));
            pos += run;
        }
        merge_contiguous(out)
    }

    fn flush(&mut self, _rng: &mut SimRng) -> Vec<Extent> {
        Vec::new() // synchronous model: nothing buffered
    }

    fn name(&self) -> &'static str {
        "ufs"
    }
}

/// Merges physically adjacent same-direction extents.
pub(crate) fn merge_contiguous(mut extents: Vec<Extent>) -> Vec<Extent> {
    if extents.len() < 2 {
        return extents;
    }
    let mut out: Vec<Extent> = Vec::with_capacity(extents.len());
    for e in extents.drain(..) {
        match out.last_mut() {
            Some(last)
                if last.direction == e.direction
                    && last.lba.advance(u64::from(last.sectors)) == e.lba =>
            {
                last.sectors += e.sectors;
            }
            _ => out.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ufs() -> Ufs {
        Ufs::new(UfsParams::default())
    }

    #[test]
    fn aligned_4k_read_is_one_4k_extent() {
        let mut fs = ufs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.read(FileId(0), 4096, 4096, &mut rng);
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].sectors, 8); // 4 KiB
        assert!(ext[0].direction.is_read());
    }

    #[test]
    fn unaligned_read_rounds_to_fragments() {
        let mut fs = ufs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.read(FileId(0), 100, 4096, &mut rng);
        // Spans two 4 KiB fragments -> 8 KiB.
        let total: u32 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn writes_are_whole_blocks() {
        let mut fs = ufs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.write(FileId(0), 4096, 4096, false, &mut rng);
        // 4 KiB write inside an 8 KiB block -> whole 8 KiB block.
        let total: u32 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 16);
        assert!(ext.iter().all(|e| e.direction.is_write()));
    }

    #[test]
    fn sequential_within_chunk_is_contiguous() {
        let mut fs = ufs();
        let mut rng = SimRng::seed_from(1);
        let a = fs.read(FileId(0), 0, 4096, &mut rng)[0];
        let b = fs.read(FileId(0), 4096, 4096, &mut rng)[0];
        assert_eq!(a.lba.advance(8), b.lba);
    }

    #[test]
    fn different_chunks_are_scattered() {
        let fs = ufs();
        let a = fs.locate(FileId(0), 0);
        let b = fs.locate(FileId(0), fs.params().chunk_bytes);
        assert_ne!(a.advance(fs.params().chunk_bytes / 512), b);
    }

    #[test]
    fn layout_is_deterministic() {
        let fs1 = ufs();
        let fs2 = ufs();
        for off in [0u64, 12_345_678, 999_999_999] {
            assert_eq!(fs1.locate(FileId(3), off), fs2.locate(FileId(3), off));
        }
    }

    #[test]
    fn different_files_do_not_alias_layout() {
        let fs = ufs();
        assert_ne!(fs.locate(FileId(0), 0), fs.locate(FileId(1), 0));
    }

    #[test]
    fn large_read_splits_at_chunk_boundary() {
        let mut fs = ufs();
        let mut rng = SimRng::seed_from(1);
        let chunk = fs.params().chunk_bytes;
        let ext = fs.read(FileId(0), chunk - 8192, 16_384, &mut rng);
        assert!(ext.len() >= 2, "must split across the chunk boundary");
        let total: u32 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(u64::from(total) * 512, 16_384);
    }

    #[test]
    fn merge_contiguous_merges() {
        let e1 = Extent::new(IoDirection::Read, Lba::new(0), 8);
        let e2 = Extent::new(IoDirection::Read, Lba::new(8), 8);
        let e3 = Extent::new(IoDirection::Read, Lba::new(100), 8);
        let merged = merge_contiguous(vec![e1, e2, e3]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].sectors, 16);
        // Different direction never merges.
        let w = Extent::new(IoDirection::Write, Lba::new(16), 8);
        let kept = merge_contiguous(vec![e1, Extent::new(IoDirection::Read, Lba::new(8), 8), w]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn flush_is_empty() {
        let mut fs = ufs();
        assert!(fs.flush(&mut SimRng::seed_from(1)).is_empty());
        assert_eq!(fs.flush_interval(), None);
        assert_eq!(fs.name(), "ufs");
    }
}
