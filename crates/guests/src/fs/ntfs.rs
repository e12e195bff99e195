//! NTFS behaviour model.
//!
//! The paper's §4.3 workload runs on NTFS. For the file-copy experiment the
//! interesting behaviour lives in the *copy engines* (64 KiB vs 1 MiB
//! requests), but a filesystem model rounds out the guest inventory: NTFS
//! keeps file data in contiguous *runs* (extents) allocated from a bitmap,
//! journals metadata into `$LogFile`, and stores small files resident in
//! the MFT. The model captures the block-level consequences:
//!
//! * data I/O at cluster (4 KiB) granularity within large contiguous runs
//!   (NTFS allocates aggressively contiguous runs, so streams stay
//!   sequential — Figure 5(c));
//! * every metadata-changing operation appends a small record to the
//!   `$LogFile` region before data is written (write-ahead journal);
//! * periodic lazy-writer flushes of buffered data, in sorted order.

use super::ufs::{layout_hash, merge_contiguous};
use super::{Extent, FileId, Filesystem};
use simkit::{SimDuration, SimRng};
use std::collections::BTreeSet;
use vscsi::{IoDirection, Lba, SECTOR_SIZE};

/// NTFS model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtfsParams {
    /// Cluster size (4 KiB default).
    pub cluster_bytes: u64,
    /// Contiguous run size per file (NTFS's aggressive contiguity), 4 MiB.
    pub run_bytes: u64,
    /// `$LogFile` size (64 MiB default).
    pub logfile_bytes: u64,
    /// MFT zone size reserved at the front of the volume (12.5% classic).
    pub mft_zone_bytes: u64,
    /// Lazy-writer cadence (~1 s).
    pub lazy_writer_interval: SimDuration,
    /// Volume size in bytes.
    pub capacity_bytes: u64,
    /// Layout seed.
    pub layout_seed: u64,
}

impl Default for NtfsParams {
    fn default() -> Self {
        NtfsParams {
            cluster_bytes: 4_096,
            run_bytes: 4 * 1024 * 1024,
            logfile_bytes: 64 * 1024 * 1024,
            mft_zone_bytes: 1024 * 1024 * 1024,
            lazy_writer_interval: SimDuration::from_secs(1),
            capacity_bytes: 64 * 1024 * 1024 * 1024,
            layout_seed: 0x47F5,
        }
    }
}

/// Journalling run-based filesystem model.
#[derive(Debug, Clone)]
pub struct Ntfs {
    params: NtfsParams,
    /// `$LogFile` append head, sectors from the log base.
    log_head: u64,
    /// Dirty (file, cluster) pairs awaiting the lazy writer.
    dirty: BTreeSet<(FileId, u64)>,
    metadata_dirty: bool,
}

impl Ntfs {
    /// Creates an NTFS model.
    ///
    /// # Panics
    ///
    /// Panics on non-sector-multiple sizes or regions exceeding capacity.
    pub fn new(params: NtfsParams) -> Self {
        assert!(params.cluster_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(params.run_bytes >= params.cluster_bytes);
        assert!(
            params.mft_zone_bytes + params.logfile_bytes < params.capacity_bytes,
            "metadata regions exceed the volume"
        );
        Ntfs {
            params,
            log_head: 0,
            dirty: BTreeSet::new(),
            metadata_dirty: false,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &NtfsParams {
        &self.params
    }

    /// Data region layout: file bytes live in `run_bytes` contiguous runs
    /// placed pseudo-randomly after the MFT zone + `$LogFile`.
    fn locate(&self, file: FileId, offset: u64) -> Lba {
        let run_idx = offset / self.params.run_bytes;
        let within = offset % self.params.run_bytes;
        let data_base = self.params.mft_zone_bytes + self.params.logfile_bytes;
        let runs = (self.params.capacity_bytes - data_base) / self.params.run_bytes;
        let slot = layout_hash(self.params.layout_seed, file, run_idx) % runs.max(1);
        Lba::from_byte_offset(
            data_base + slot * self.params.run_bytes + within / SECTOR_SIZE * SECTOR_SIZE,
        )
    }

    /// Appends a `$LogFile` record (sequential within the log, wrapping).
    fn log_append(&mut self, sectors: u64) -> Extent {
        let log_base = self.params.mft_zone_bytes / SECTOR_SIZE;
        let log_len = self.params.logfile_bytes / SECTOR_SIZE;
        if self.log_head + sectors > log_len {
            self.log_head = 0;
        }
        let at = log_base + self.log_head;
        self.log_head += sectors;
        Extent::new(IoDirection::Write, Lba::new(at), sectors as u32)
    }

    fn clusters(&self, offset: u64, len: u64) -> (u64, u64) {
        let c = self.params.cluster_bytes;
        (offset / c, (offset + len.max(1) - 1) / c)
    }
}

impl Filesystem for Ntfs {
    fn read(&mut self, file: FileId, offset: u64, len: u64, _rng: &mut SimRng) -> Vec<Extent> {
        let c = self.params.cluster_bytes;
        let start = offset / c * c;
        let end = (offset + len.max(1)).div_ceil(c) * c;
        let mut out = Vec::new();
        let mut pos = start;
        while pos < end {
            let run_end = (pos / self.params.run_bytes + 1) * self.params.run_bytes;
            let run = (end - pos).min(run_end - pos);
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
        let (first, last) = self.clusters(offset, len);
        for cl in first..=last {
            self.dirty.insert((file, cl));
        }
        self.metadata_dirty = true;
        if sync {
            // Flush-on-sync: journal record first, then the data clusters.
            let mut out = vec![self.log_append(8)];
            for cl in first..=last {
                if self.dirty.remove(&(file, cl)) {
                    out.push(Extent::new(
                        IoDirection::Write,
                        self.locate(file, cl * self.params.cluster_bytes),
                        (self.params.cluster_bytes / SECTOR_SIZE) as u32,
                    ));
                }
            }
            self.metadata_dirty = false;
            merge_contiguous(out)
        } else {
            Vec::new()
        }
    }

    fn flush(&mut self, _rng: &mut SimRng) -> Vec<Extent> {
        if self.dirty.is_empty() && !self.metadata_dirty {
            return Vec::new();
        }
        let mut out = Vec::new();
        if self.metadata_dirty {
            out.push(self.log_append(8));
            self.metadata_dirty = false;
        }
        let dirty: Vec<(FileId, u64)> = self.dirty.iter().copied().collect();
        self.dirty.clear();
        for (file, cl) in dirty {
            out.push(Extent::new(
                IoDirection::Write,
                self.locate(file, cl * self.params.cluster_bytes),
                (self.params.cluster_bytes / SECTOR_SIZE) as u32,
            ));
        }
        merge_contiguous(out)
    }

    fn flush_interval(&self) -> Option<SimDuration> {
        Some(self.params.lazy_writer_interval)
    }

    fn name(&self) -> &'static str {
        "ntfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ntfs() -> Ntfs {
        Ntfs::new(NtfsParams::default())
    }

    #[test]
    fn reads_are_cluster_granular() {
        let mut fs = ntfs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.read(FileId(0), 100, 4096, &mut rng);
        let total: u32 = ext.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 16); // spans two 4 KiB clusters
    }

    #[test]
    fn data_stays_out_of_metadata_regions() {
        let mut fs = ntfs();
        let mut rng = SimRng::seed_from(2);
        let meta_end = fs.params().mft_zone_bytes + fs.params().logfile_bytes;
        for off in [0u64, 123_456_789, 9_999_999_999] {
            for e in fs.read(FileId(3), off, 8192, &mut rng) {
                assert!(e.lba.as_bytes() >= meta_end);
            }
        }
    }

    #[test]
    fn large_runs_keep_streams_sequential() {
        let mut fs = ntfs();
        let mut rng = SimRng::seed_from(3);
        // 1 MiB of sequential 64 KiB reads inside one 4 MiB run: extents
        // must be contiguous.
        let mut last_end: Option<Lba> = None;
        for i in 0..16u64 {
            let ext = fs.read(FileId(0), i * 65_536, 65_536, &mut rng);
            assert_eq!(ext.len(), 1);
            if let Some(prev) = last_end {
                assert_eq!(prev, ext[0].lba);
            }
            last_end = Some(ext[0].lba.advance(u64::from(ext[0].sectors)));
        }
    }

    #[test]
    fn sync_write_journals_first() {
        let mut fs = ntfs();
        let mut rng = SimRng::seed_from(4);
        let out = fs.write(FileId(0), 4096, 4096, true, &mut rng);
        assert!(out.len() >= 2);
        // First extent is the $LogFile record, inside the log region.
        let log_base = fs.params().mft_zone_bytes;
        let log_end = log_base + fs.params().logfile_bytes;
        assert!(out[0].lba.as_bytes() >= log_base && out[0].lba.as_bytes() < log_end);
        // Data extent outside.
        assert!(out[1].lba.as_bytes() >= log_end);
        assert_eq!(fs.dirty.len(), 0);
    }

    #[test]
    fn lazy_writer_drains_buffered_writes() {
        let mut fs = ntfs();
        let mut rng = SimRng::seed_from(5);
        for i in 0..10u64 {
            assert!(fs
                .write(FileId(0), i * 4096, 4096, false, &mut rng)
                .is_empty());
        }
        assert_eq!(fs.dirty.len(), 10);
        let out = fs.flush(&mut rng);
        assert!(!out.is_empty());
        assert_eq!(fs.dirty.len(), 0);
        // One journal record precedes the data writeback.
        assert!(out[0].lba.as_bytes() >= fs.params().mft_zone_bytes);
        assert!(fs.flush(&mut rng).is_empty());
        assert_eq!(fs.flush_interval(), Some(SimDuration::from_secs(1)));
        assert_eq!(fs.name(), "ntfs");
    }

    #[test]
    fn log_wraps() {
        let mut fs = Ntfs::new(NtfsParams {
            logfile_bytes: 16 * 1024, // 32 sectors; 8-sector records
            ..Default::default()
        });
        let mut rng = SimRng::seed_from(6);
        let mut heads = Vec::new();
        for i in 0..6u64 {
            let out = fs.write(FileId(0), i * 4096, 4096, true, &mut rng);
            heads.push(out[0].lba);
        }
        assert_eq!(heads[0], heads[4], "log must wrap after 4 records");
    }

    #[test]
    #[should_panic(expected = "metadata regions exceed the volume")]
    fn tiny_volume_rejected() {
        let _ = Ntfs::new(NtfsParams {
            capacity_bytes: 1024 * 1024,
            ..Default::default()
        });
    }
}
