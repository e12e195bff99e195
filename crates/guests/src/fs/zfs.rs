//! ZFS behaviour model: copy-on-write allocation with I/O aggregation.
//!
//! The paper's headline filesystem finding (Figure 3, §4.1): under the
//! same OLTP workload ZFS issues I/Os "of sizes between 80KB and 128KB"
//! and turns the application's *random writes into sequential disk
//! writes*, because "blocks on disk containing data are never modified in
//! place. Rather, the changes ... are written to alternate locations"
//! \[17\]\[18\] — the log-structured technique of \[19\].
//!
//! The model: writes are buffered into an open transaction group (txg);
//! at flush, dirty records are coalesced into extents up to 128 KiB and
//! allocated *contiguously at a moving frontier*. Reads consult the block-
//! pointer table (COW relocations) and are inflated by vdev-level
//! aggregation to large chunks.

use super::ufs::{layout_hash, merge_contiguous};
use super::{Extent, FileId, Filesystem};
use simkit::{SimDuration, SimRng};
use std::collections::{BTreeMap, HashMap};
use vscsi::{IoDirection, Lba, SECTOR_SIZE};

/// ZFS model parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZfsParams {
    /// Record size (dataset block size); 8 KiB suits a database workload.
    pub record_bytes: u64,
    /// Maximum aggregated device I/O (vdev aggregation limit), 128 KiB.
    pub aggregate_bytes: u64,
    /// Device-level read inflation: reads fetch this much around the
    /// target record (vdev cache / intelligent prefetch), 96 KiB gives the
    /// paper's 80–128 KiB band together with `aggregate_bytes` clipping.
    pub read_inflate_bytes: u64,
    /// Transaction-group flush cadence (OpenSolaris default was 5 s).
    pub txg_interval: SimDuration,
    /// Pool region managed by the allocator, in bytes.
    pub capacity_bytes: u64,
    /// Where the COW allocation frontier starts, in bytes.
    pub frontier_start: u64,
    /// Layout seed for never-written ("initial") block placement.
    pub layout_seed: u64,
}

impl Default for ZfsParams {
    fn default() -> Self {
        ZfsParams {
            record_bytes: 8_192,
            aggregate_bytes: 128 * 1024,
            read_inflate_bytes: 96 * 1024,
            txg_interval: SimDuration::from_secs(5),
            capacity_bytes: 32 * 1024 * 1024 * 1024,
            frontier_start: 20 * 1024 * 1024 * 1024,
            layout_seed: 0x2F5_2F5,
        }
    }
}

/// Copy-on-write filesystem model.
#[derive(Debug, Clone)]
pub struct Zfs {
    params: ZfsParams,
    /// (file, record index) -> current on-disk sector, for records that
    /// have been rewritten since layout time.
    block_pointers: HashMap<(FileId, u64), u64>,
    /// Dirty records of the open txg, keyed for coalescing.
    dirty: BTreeMap<(FileId, u64), ()>,
    /// Next free sector at the allocation frontier.
    frontier_sector: u64,
    /// ZIL (intent log) append position, for sync writes.
    zil_sector: u64,
    zil_start_sector: u64,
    zil_len_sectors: u64,
}

impl Zfs {
    /// Creates a ZFS model.
    ///
    /// # Panics
    ///
    /// Panics on non-sector-multiple sizes or a frontier outside capacity.
    pub fn new(params: ZfsParams) -> Self {
        assert!(params.record_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(params.aggregate_bytes >= params.record_bytes);
        assert!(params.frontier_start < params.capacity_bytes);
        let frontier_sector = params.frontier_start / SECTOR_SIZE;
        // Reserve a 64 MiB ZIL strip at the very start of the frontier region.
        let zil_len_sectors = 64 * 1024 * 1024 / SECTOR_SIZE;
        Zfs {
            frontier_sector: frontier_sector + zil_len_sectors,
            zil_sector: frontier_sector,
            zil_start_sector: frontier_sector,
            zil_len_sectors,
            params,
            block_pointers: HashMap::new(),
            dirty: BTreeMap::new(),
        }
    }

    /// The parameters.
    pub fn params(&self) -> &ZfsParams {
        &self.params
    }

    fn record_index(&self, offset: u64) -> u64 {
        offset / self.params.record_bytes
    }

    /// Current disk location of a record.
    fn locate_record(&self, file: FileId, record: u64) -> u64 {
        if let Some(&sector) = self.block_pointers.get(&(file, record)) {
            return sector;
        }
        // Initial layout: records grouped in 1 MiB chunks like UFS.
        let chunk_bytes = 1024 * 1024u64;
        let offset = record * self.params.record_bytes;
        let chunk_idx = offset / chunk_bytes;
        let within = offset % chunk_bytes;
        // Initial data lives below the frontier region.
        let data_region = self.params.frontier_start;
        let chunks = data_region / chunk_bytes;
        let slot = layout_hash(self.params.layout_seed, file, chunk_idx) % chunks.max(1);
        (slot * chunk_bytes + within) / SECTOR_SIZE
    }

    fn allocate(&mut self, sectors: u64) -> u64 {
        let cap_sectors = self.params.capacity_bytes / SECTOR_SIZE;
        if self.frontier_sector + sectors > cap_sectors {
            // Wrap the frontier (free space reclaimed behind us).
            self.frontier_sector = self.params.frontier_start / SECTOR_SIZE + self.zil_len_sectors;
        }
        let at = self.frontier_sector;
        self.frontier_sector += sectors;
        at
    }

    fn zil_append(&mut self, sectors: u64) -> u64 {
        if self.zil_sector + sectors > self.zil_start_sector + self.zil_len_sectors {
            self.zil_sector = self.zil_start_sector;
        }
        let at = self.zil_sector;
        self.zil_sector += sectors;
        at
    }
}

impl Filesystem for Zfs {
    fn read(&mut self, file: FileId, offset: u64, len: u64, _rng: &mut SimRng) -> Vec<Extent> {
        // Fetch every touched record, inflated by vdev-level aggregation:
        // the device sees one large I/O per physically-contiguous run.
        let rec_bytes = self.params.record_bytes;
        let first = self.record_index(offset);
        let last = self.record_index(offset + len.max(1) - 1);
        let mut extents = Vec::new();
        for record in first..=last {
            let sector = self.locate_record(file, record);
            // Inflate around the record up to the aggregation limit.
            let inflate = self.params.read_inflate_bytes.max(rec_bytes);
            let window = inflate.min(self.params.aggregate_bytes);
            let window_sectors = window / SECTOR_SIZE;
            // Align the window to itself so repeated nearby reads coalesce.
            let start = sector - sector % window_sectors;
            extents.push(Extent::new(
                IoDirection::Read,
                Lba::new(start),
                window_sectors as u32,
            ));
        }
        extents.dedup();
        merge_contiguous(extents)
    }

    fn write(
        &mut self,
        file: FileId,
        offset: u64,
        len: u64,
        sync: bool,
        _rng: &mut SimRng,
    ) -> Vec<Extent> {
        let first = self.record_index(offset);
        let last = self.record_index(offset + len.max(1) - 1);
        for record in first..=last {
            self.dirty.insert((file, record), ());
        }
        if sync {
            // Sync semantics: log the write intent to the ZIL now (a small
            // sequential append); data still lands with the next txg.
            let sectors = ((last - first + 1) * self.params.record_bytes / SECTOR_SIZE).max(1);
            let at = self.zil_append(sectors);
            vec![Extent::new(
                IoDirection::Write,
                Lba::new(at),
                sectors as u32,
            )]
        } else {
            Vec::new()
        }
    }

    fn flush(&mut self, _rng: &mut SimRng) -> Vec<Extent> {
        if self.dirty.is_empty() {
            return Vec::new();
        }
        let rec_sectors = self.params.record_bytes / SECTOR_SIZE;
        let max_records = (self.params.aggregate_bytes / self.params.record_bytes).max(1);
        let dirty: Vec<(FileId, u64)> = self.dirty.keys().copied().collect();
        self.dirty.clear();
        let mut out = Vec::new();
        // Coalesce logically-ordered dirty records into frontier extents of
        // up to the aggregation limit — this is what makes random writes
        // sequential on disk.
        for group in dirty.chunks(max_records as usize) {
            let sectors = rec_sectors * group.len() as u64;
            let base = self.allocate(sectors);
            for (i, &(file, record)) in group.iter().enumerate() {
                self.block_pointers
                    .insert((file, record), base + i as u64 * rec_sectors);
            }
            out.push(Extent::new(
                IoDirection::Write,
                Lba::new(base),
                sectors as u32,
            ));
        }
        // Deliberately NOT merged: the vdev aggregation limit caps each
        // device I/O at `aggregate_bytes`, which is exactly the paper's
        // observed 80-128 KiB write sizes.
        out
    }

    fn flush_interval(&self) -> Option<SimDuration> {
        Some(self.params.txg_interval)
    }

    fn name(&self) -> &'static str {
        "zfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zfs() -> Zfs {
        Zfs::new(ZfsParams::default())
    }

    #[test]
    fn reads_are_large_aggregated() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.read(FileId(0), 8192, 8192, &mut rng);
        assert_eq!(ext.len(), 1);
        let bytes = u64::from(ext[0].sectors) * SECTOR_SIZE;
        assert!(
            (80 * 1024..=128 * 1024).contains(&bytes),
            "read size {bytes} outside the paper's 80-128K band"
        );
    }

    #[test]
    fn async_writes_are_buffered_not_issued() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(1);
        let ext = fs.write(FileId(0), 0, 8192, false, &mut rng);
        assert!(ext.is_empty());
        assert_eq!(fs.dirty.len(), 1);
    }

    #[test]
    fn sync_writes_hit_the_zil_sequentially() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(1);
        let a = fs.write(FileId(0), 0, 8192, true, &mut rng)[0];
        let b = fs.write(FileId(0), 12_345_678, 8192, true, &mut rng)[0];
        // Random logical offsets, adjacent log positions.
        assert_eq!(a.lba.advance(u64::from(a.sectors)), b.lba);
        assert!(a.direction.is_write());
    }

    #[test]
    fn flush_turns_random_writes_into_sequential_extents() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(2);
        // 64 random 8 KiB writes scattered over 10 GiB.
        for i in 0..64u64 {
            let offset = (i * 1_234_567_891) % (10 * 1024 * 1024 * 1024);
            fs.write(FileId(0), offset, 8192, false, &mut rng);
        }
        let ext = fs.flush(&mut rng);
        assert!(!ext.is_empty());
        // All extents are writes, each up to 128 KiB, and *physically
        // consecutive* (frontier allocation).
        for w in ext.windows(2) {
            assert_eq!(
                w[0].lba.advance(u64::from(w[0].sectors)),
                w[1].lba,
                "flush extents must be frontier-sequential"
            );
        }
        let max = ext
            .iter()
            .map(|e| u64::from(e.sectors) * SECTOR_SIZE)
            .max()
            .unwrap();
        assert!(max <= 128 * 1024);
        // Dirty set drained.
        assert_eq!(fs.dirty.len(), 0);
        assert!(fs.flush(&mut rng).is_empty());
    }

    #[test]
    fn reads_after_rewrite_follow_the_block_pointer() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(3);
        let before = fs.read(FileId(0), 0, 8192, &mut rng)[0].lba;
        fs.write(FileId(0), 0, 8192, false, &mut rng);
        let _ = fs.flush(&mut rng);
        let after = fs.read(FileId(0), 0, 8192, &mut rng)[0].lba;
        assert_ne!(before, after, "COW must relocate the record");
        // The new location is in the frontier region.
        assert!(after.sector() >= fs.params().frontier_start / SECTOR_SIZE);
    }

    #[test]
    fn frontier_wraps_at_capacity() {
        let mut fs = Zfs::new(ZfsParams {
            capacity_bytes: 512 * 1024 * 1024,
            frontier_start: 256 * 1024 * 1024,
            ..Default::default()
        });
        let mut rng = SimRng::seed_from(4);
        let mut last_frontier = fs.frontier_sector;
        let mut wrapped = false;
        for round in 0..2_000u64 {
            for i in 0..16u64 {
                fs.write(FileId(0), (round * 16 + i) * 8192, 8192, false, &mut rng);
            }
            fs.flush(&mut rng);
            let f = fs.frontier_sector;
            if f < last_frontier {
                wrapped = true;
                break;
            }
            last_frontier = f;
        }
        assert!(wrapped, "frontier never wrapped");
    }

    #[test]
    fn txg_interval_advertised() {
        let fs = zfs();
        assert_eq!(fs.flush_interval(), Some(SimDuration::from_secs(5)));
        assert_eq!(fs.name(), "zfs");
    }

    #[test]
    fn repeated_read_of_same_region_is_stable() {
        let mut fs = zfs();
        let mut rng = SimRng::seed_from(5);
        let a = fs.read(FileId(1), 64 * 1024, 8192, &mut rng);
        let b = fs.read(FileId(1), 64 * 1024, 8192, &mut rng);
        assert_eq!(a, b);
    }
}
