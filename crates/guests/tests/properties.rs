//! Property tests for the filesystem and workload models.

use guests::fs::{Ext3, Ext3Params, FileId, Filesystem, Ufs, UfsParams, Zfs, ZfsParams};
use guests::{AccessSpec, IometerWorkload, Workload};
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::{SimRng, SimTime};
use vscsi::{Lba, SECTOR_SIZE};

const UFS_CAP: u64 = 32 * 1024 * 1024 * 1024;

proptest! {
    /// UFS reads cover exactly the requested range rounded to fragments,
    /// and all extents stay within the managed capacity.
    #[test]
    fn ufs_read_extent_conservation(
        offset in 0u64..8_000_000_000,
        len in 1u64..1_000_000,
    ) {
        let mut fs = Ufs::new(UfsParams::default());
        let mut rng = SimRng::seed_from(1);
        let extents = fs.read(FileId(0), offset, len, &mut rng);
        let frag = fs.params().frag_bytes;
        let expected = (offset + len).div_ceil(frag) * frag - offset / frag * frag;
        let total: u64 = extents.iter().map(|e| u64::from(e.sectors) * SECTOR_SIZE).sum();
        prop_assert_eq!(total, expected);
        for e in &extents {
            prop_assert!(e.direction.is_read());
            prop_assert!(e.lba.as_bytes() + u64::from(e.sectors) * SECTOR_SIZE <= UFS_CAP);
        }
    }

    /// UFS writes cover whole blocks containing the range.
    #[test]
    fn ufs_write_block_rounding(
        offset in 0u64..8_000_000_000,
        len in 1u64..1_000_000,
    ) {
        let mut fs = Ufs::new(UfsParams::default());
        let mut rng = SimRng::seed_from(2);
        let extents = fs.write(FileId(1), offset, len, true, &mut rng);
        let block = fs.params().block_bytes;
        let expected = (offset + len).div_ceil(block) * block - offset / block * block;
        let total: u64 = extents.iter().map(|e| u64::from(e.sectors) * SECTOR_SIZE).sum();
        prop_assert_eq!(total, expected);
    }

    /// UFS layout is a pure function of (file, offset).
    #[test]
    fn ufs_layout_deterministic(
        file in 0u32..16,
        offsets in vec(0u64..8_000_000_000, 1..20),
    ) {
        let mut a = Ufs::new(UfsParams::default());
        let mut b = Ufs::new(UfsParams::default());
        let mut rng_a = SimRng::seed_from(3);
        let mut rng_b = SimRng::seed_from(99); // rng must not matter
        for &off in &offsets {
            prop_assert_eq!(
                a.read(FileId(file), off, 4096, &mut rng_a),
                b.read(FileId(file), off, 4096, &mut rng_b)
            );
        }
    }

    /// ZFS: every buffered record reappears in the flush exactly once
    /// (extent sectors == dirty records × record sectors), extents are
    /// frontier-consecutive, and each is at most the aggregation limit.
    #[test]
    fn zfs_flush_conservation(
        offsets in vec(0u64..10_000_000_000u64, 1..200),
    ) {
        let mut fs = Zfs::new(ZfsParams::default());
        let mut rng = SimRng::seed_from(4);
        let rec = fs.params().record_bytes;
        for &off in &offsets {
            fs.write(FileId(0), off, rec, false, &mut rng);
        }
        // An unaligned write of one record length spans two records.
        let distinct_records: std::collections::HashSet<u64> = offsets
            .iter()
            .flat_map(|o| (o / rec)..=o.div_ceil(rec))
            .collect();
        let extents = fs.flush(&mut rng);
        let total: u64 = extents.iter().map(|e| u64::from(e.sectors) * SECTOR_SIZE).sum();
        prop_assert_eq!(total, distinct_records.len() as u64 * rec);
        for e in &extents {
            prop_assert!(u64::from(e.sectors) * SECTOR_SIZE <= fs.params().aggregate_bytes);
            prop_assert!(e.direction.is_write());
        }
        for w in extents.windows(2) {
            prop_assert_eq!(w[0].lba.advance(u64::from(w[0].sectors)), w[1].lba);
        }
        // Second flush with nothing dirty is empty.
        prop_assert!(fs.flush(&mut rng).is_empty());
    }

    /// ZFS reads always return at least the requested bytes and stay in
    /// bounds, before and after rewrites.
    #[test]
    fn zfs_reads_cover_and_bound(
        offset in 0u64..10_000_000_000u64,
        rewrite in any::<bool>(),
    ) {
        let mut fs = Zfs::new(ZfsParams::default());
        let mut rng = SimRng::seed_from(5);
        let rec = fs.params().record_bytes;
        if rewrite {
            fs.write(FileId(0), offset, rec, false, &mut rng);
            let _ = fs.flush(&mut rng);
        }
        let extents = fs.read(FileId(0), offset, rec, &mut rng);
        let total: u64 = extents.iter().map(|e| u64::from(e.sectors) * SECTOR_SIZE).sum();
        prop_assert!(total >= rec);
        let cap = fs.params().capacity_bytes;
        for e in &extents {
            prop_assert!(e.lba.as_bytes() + u64::from(e.sectors) * SECTOR_SIZE <= cap,
                "extent {:?} beyond capacity {}", e, cap);
        }
    }

    /// ext3: journal commits stay inside the journal region; data writes
    /// stay outside it; flush drains all dirty blocks.
    #[test]
    fn ext3_journal_and_data_partition(
        ops in vec((0u64..40_000_000_000u64, 1u64..65_536, any::<bool>()), 1..60),
    ) {
        let mut fs = Ext3::new(Ext3Params::default());
        let mut rng = SimRng::seed_from(6);
        let journal = fs.params().journal_bytes;
        for &(off, len, sync) in &ops {
            let extents = fs.write(FileId(0), off, len, sync, &mut rng);
            if sync {
                prop_assert!(!extents.is_empty());
                // Exactly one extent (the last) is the journal commit.
                let commit = extents.last().unwrap();
                prop_assert!(commit.lba.as_bytes() < journal);
                for e in &extents[..extents.len() - 1] {
                    prop_assert!(e.lba.as_bytes() >= journal, "data in journal: {e:?}");
                }
            } else {
                prop_assert!(extents.is_empty());
            }
        }
        // After a final flush, a second one emits nothing.
        fs.flush(&mut rng);
        prop_assert!(fs.flush(&mut rng).is_empty());
    }

    /// Iometer never exceeds its region, always uses its block size, and
    /// keeps exactly `outstanding` tags in rotation.
    #[test]
    fn iometer_stays_in_region(
        block_pow in 9u32..17, // 512 B .. 64 KiB
        outstanding in 1u32..32,
        read_frac in 0.0f64..=1.0,
        rand_frac in 0.0f64..=1.0,
    ) {
        let block = 1u64 << block_pow;
        let region = 1024 * 1024 * 1024;
        let spec = AccessSpec {
            block_bytes: block,
            read_fraction: read_frac,
            random_fraction: rand_frac,
            outstanding,
            region_bytes: region,
            region_base: Lba::new(4096),
        };
        let mut w = IometerWorkload::new("p", spec, SimRng::seed_from(7));
        let start = w.start(SimTime::ZERO);
        prop_assert_eq!(start.issue.len(), outstanding as usize);
        let mut ios = start.issue;
        for k in 0..200u64 {
            let tag = ios[(k as usize) % ios.len()].tag;
            let next = w.on_complete(SimTime::from_micros(k), tag).issue;
            prop_assert_eq!(next.len(), 1);
            ios.extend(next);
        }
        for io in &ios {
            prop_assert_eq!(u64::from(io.sectors) * SECTOR_SIZE, block);
            prop_assert!(io.lba >= Lba::new(4096));
            prop_assert!(
                io.lba.as_bytes() + block <= 4096 * SECTOR_SIZE + region,
                "io beyond region: {io:?}"
            );
            prop_assert!(io.tag < u64::from(outstanding));
        }
    }
}
