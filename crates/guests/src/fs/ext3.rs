//! ext3 behaviour model (data=ordered journalling).
//!
//! The DBT-2 experiment (§4.2) places PostgreSQL "on a single ext3
//! filesystem formatted with default options". ext3's default `data=
//! ordered` mode journals metadata only: data blocks are written in place,
//! with small sequential commit records appended to the journal region at
//! commit time. The model captures exactly that split: in-place 4 KiB
//! block I/O for data plus a wrapping sequential journal stream.

use super::ufs::{layout_hash, merge_contiguous};
use super::{Extent, FileId, Filesystem};
use simkit::{SimDuration, SimRng};
use std::collections::BTreeSet;
use vscsi::{IoDirection, Lba, SECTOR_SIZE};

/// ext3 model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ext3Params {
    /// Filesystem block size (4 KiB default).
    pub block_bytes: u64,
    /// Contiguous allocation run per file (block-group locality), 1 MiB.
    pub chunk_bytes: u64,
    /// Journal region size (128 MiB default-ish).
    pub journal_bytes: u64,
    /// Journal commit cadence (the kjournald 5-second timer).
    pub commit_interval: SimDuration,
    /// Disk area managed, in bytes.
    pub capacity_bytes: u64,
    /// Layout seed.
    pub layout_seed: u64,
}

impl Default for Ext3Params {
    fn default() -> Self {
        Ext3Params {
            block_bytes: 4_096,
            chunk_bytes: 1024 * 1024,
            journal_bytes: 128 * 1024 * 1024,
            commit_interval: SimDuration::from_secs(5),
            capacity_bytes: 64 * 1024 * 1024 * 1024,
            layout_seed: 0xE3_E3_E3,
        }
    }
}

/// Journalling in-place filesystem model.
#[derive(Debug, Clone)]
pub struct Ext3 {
    params: Ext3Params,
    /// Journal append head, in sectors from the journal base.
    journal_head: u64,
    journal_base: u64,
    journal_len: u64,
    /// Dirty (file, block) pairs awaiting writeback.
    dirty: BTreeSet<(FileId, u64)>,
    /// Metadata blocks dirtied since the last commit.
    dirty_metadata: u64,
}

impl Ext3 {
    /// Creates an ext3 model.
    ///
    /// # Panics
    ///
    /// Panics on non-sector-multiple sizes or a journal exceeding capacity.
    pub fn new(params: Ext3Params) -> Self {
        assert!(params.block_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(params.journal_bytes < params.capacity_bytes);
        // Journal lives at the front of the device region.
        let journal_base = 0;
        let journal_len = params.journal_bytes / SECTOR_SIZE;
        Ext3 {
            params,
            journal_head: 0,
            journal_base,
            journal_len,
            dirty: BTreeSet::new(),
            dirty_metadata: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &Ext3Params {
        &self.params
    }

    fn locate(&self, file: FileId, offset: u64) -> Lba {
        let chunk_idx = offset / self.params.chunk_bytes;
        let within = offset % self.params.chunk_bytes;
        // Data region sits after the journal.
        let data_base = self.params.journal_bytes;
        let chunks = (self.params.capacity_bytes - data_base) / self.params.chunk_bytes;
        let slot = layout_hash(self.params.layout_seed, file, chunk_idx) % chunks.max(1);
        Lba::from_byte_offset(
            data_base + slot * self.params.chunk_bytes + within / SECTOR_SIZE * SECTOR_SIZE,
        )
    }

    fn journal_append(&mut self, sectors: u64) -> Lba {
        if self.journal_head + sectors > self.journal_len {
            self.journal_head = 0;
        }
        let at = self.journal_base + self.journal_head;
        self.journal_head += sectors;
        Lba::new(at)
    }
}

impl Filesystem for Ext3 {
    fn read(&mut self, file: FileId, offset: u64, len: u64, _rng: &mut SimRng) -> Vec<Extent> {
        let block = self.params.block_bytes;
        let start = offset / block * block;
        let end = (offset + len.max(1)).div_ceil(block) * block;
        let mut out = Vec::new();
        let mut pos = start;
        while pos < end {
            let chunk_end = (pos / self.params.chunk_bytes + 1) * self.params.chunk_bytes;
            let run = (end - pos).min(chunk_end - pos);
            out.push(Extent::new(
                IoDirection::Read,
                self.locate(file, pos),
                (run / SECTOR_SIZE) as u32,
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
        sync: bool,
        _rng: &mut SimRng,
    ) -> Vec<Extent> {
        let block = self.params.block_bytes;
        let first = offset / block;
        let last = (offset + len.max(1) - 1) / block;
        for b in first..=last {
            self.dirty.insert((file, b));
        }
        self.dirty_metadata += 1;
        if sync {
            // fsync semantics in data=ordered: data goes in place now,
            // then the commit record is appended to the journal.
            let mut out = Vec::new();
            for b in first..=last {
                if self.dirty.remove(&(file, b)) {
                    out.push(Extent::new(
                        IoDirection::Write,
                        self.locate(file, b * block),
                        (block / SECTOR_SIZE) as u32,
                    ));
                }
            }
            let commit_sectors = (block / SECTOR_SIZE).max(8);
            let meta = self.dirty_metadata.clamp(1, 4);
            self.dirty_metadata = 0;
            out.push(Extent::new(
                IoDirection::Write,
                self.journal_append(commit_sectors * meta),
                (commit_sectors * meta) as u32,
            ));
            merge_contiguous(out)
        } else {
            Vec::new()
        }
    }

    fn flush(&mut self, _rng: &mut SimRng) -> Vec<Extent> {
        if self.dirty.is_empty() && self.dirty_metadata == 0 {
            return Vec::new();
        }
        let block = self.params.block_bytes;
        let mut out = Vec::new();
        // Writeback in (file, block) order — ascending on-disk-ish order
        // within each file, which produces the short-distance write bursts
        // the paper observes for DBT-2 (§4.2).
        let dirty: Vec<(FileId, u64)> = self.dirty.iter().copied().collect();
        self.dirty.clear();
        for (file, b) in dirty {
            out.push(Extent::new(
                IoDirection::Write,
                self.locate(file, b * block),
                (block / SECTOR_SIZE) as u32,
            ));
        }
        // One commit record for the batch.
        if self.dirty_metadata > 0 {
            let commit_sectors = (block / SECTOR_SIZE).max(8);
            self.dirty_metadata = 0;
            out.push(Extent::new(
                IoDirection::Write,
                self.journal_append(commit_sectors),
                commit_sectors as u32,
            ));
        }
        merge_contiguous(out)
    }

    fn flush_interval(&self) -> Option<SimDuration> {
        Some(self.params.commit_interval)
    }

    fn name(&self) -> &'static str {
        "ext3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext3() -> Ext3 {
        Ext3::new(Ext3Params::default())
    }

    #[test]
    fn reads_are_block_granular_in_place() {
        let mut fs = ext3();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.read(FileId(0), 0, 4096, &mut rng);
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].sectors, 8);
        // Repeatable.
        assert_eq!(fs.read(FileId(0), 0, 4096, &mut rng), ext);
    }

    #[test]
    fn async_writes_buffer_until_flush() {
        let mut fs = ext3();
        let mut rng = SimRng::seed_from(1);
        assert!(fs.write(FileId(0), 0, 4096, false, &mut rng).is_empty());
        assert_eq!(fs.dirty.len(), 1);
        let out = fs.flush(&mut rng);
        assert!(!out.is_empty());
        assert_eq!(fs.dirty.len(), 0);
    }

    #[test]
    fn sync_write_is_data_plus_journal_commit() {
        let mut fs = ext3();
        let mut rng = SimRng::seed_from(1);
        let out = fs.write(FileId(0), 8192, 4096, true, &mut rng);
        assert!(out.len() >= 2, "need data write + commit record: {out:?}");
        // Last extent is the journal commit, inside the journal region.
        let commit = out.last().unwrap();
        assert!(commit.lba.as_bytes() < fs.params().journal_bytes);
        // Data extent is outside the journal region.
        assert!(out[0].lba.as_bytes() >= fs.params().journal_bytes);
    }

    #[test]
    fn journal_appends_are_sequential_and_wrap() {
        let mut fs = Ext3::new(Ext3Params {
            journal_bytes: 64 * 1024,
            ..Default::default()
        });
        let mut rng = SimRng::seed_from(1);
        let mut last: Option<Lba> = None;
        let mut wrapped = false;
        for i in 0..20u64 {
            let out = fs.write(FileId(0), i * 4096, 4096, true, &mut rng);
            let commit = *out.last().unwrap();
            if let Some(prev) = last {
                if commit.lba <= prev {
                    wrapped = true;
                } else {
                    assert_eq!(prev.advance(8), commit.lba, "journal must be sequential");
                }
            }
            last = Some(commit.lba);
        }
        assert!(wrapped, "journal never wrapped in a 64 KiB region");
    }

    #[test]
    fn flush_writes_back_in_sorted_order() {
        let mut fs = ext3();
        let mut rng = SimRng::seed_from(2);
        // Dirty blocks in descending order.
        for i in (0..10u64).rev() {
            fs.write(FileId(0), i * 4096, 4096, false, &mut rng);
        }
        let out = fs.flush(&mut rng);
        // First extent is the writeback of block 0 (sorted ascending), and
        // blocks 0..10 are in one chunk so they merge contiguously.
        assert!(out[0].direction.is_write());
        assert!(out[0].sectors >= 8);
        let data_sectors: u32 = out[..out.len() - 1].iter().map(|e| e.sectors).sum();
        assert_eq!(data_sectors, 80); // 10 blocks x 8 sectors
    }

    #[test]
    fn interval_and_name() {
        let fs = ext3();
        assert_eq!(fs.flush_interval(), Some(SimDuration::from_secs(5)));
        assert_eq!(fs.name(), "ext3");
    }
}
