//! Property tests for the array simulator.

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::{SimRng, SimTime};
use storage::{presets, CacheParams, RaidConfig, RaidLevel, StorageArray};
use vscsi::{IoDirection, Lba};

fn arb_raid() -> impl Strategy<Value = RaidConfig> {
    (3usize..16, 1u64..512, any::<bool>()).prop_map(|(disks, stripe, five)| {
        RaidConfig::new(
            if five {
                RaidLevel::Raid5
            } else {
                RaidLevel::Raid0
            },
            disks,
            stripe,
        )
    })
}

proptest! {
    /// RAID mapping conserves sectors, respects disk bounds, and never
    /// returns empty extents.
    #[test]
    fn raid_map_conserves(
        raid in arb_raid(),
        lba in 0u64..100_000_000,
        sectors in 1u64..65_536,
    ) {
        let extents = raid.map(Lba::new(lba), sectors);
        let total: u64 = extents.iter().map(|e| e.sectors).sum();
        prop_assert_eq!(total, sectors);
        for e in &extents {
            prop_assert!(e.disk < raid.disks);
            prop_assert!(e.sectors > 0);
            prop_assert!(e.sectors <= raid.stripe_sectors);
        }
    }

    /// Completion never precedes submission, and per workload the array is
    /// deterministic for a fixed seed.
    #[test]
    fn completions_causal_and_deterministic(
        ops in vec((any::<bool>(), 0u64..50_000_000, 1u64..1024, 0u64..5_000), 1..80),
    ) {
        let run = || {
            let mut array = StorageArray::new(presets::clariion_cx3(), SimRng::seed_from(11));
            let mut now = SimTime::ZERO;
            let mut out = Vec::new();
            for &(is_read, lba, sectors, gap_us) in &ops {
                now += simkit::SimDuration::from_micros(gap_us);
                let dir = if is_read { IoDirection::Read } else { IoDirection::Write };
                let done = array.submit(dir, Lba::new(lba), sectors, now);
                out.push(done);
            }
            out
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        let mut now = SimTime::ZERO;
        for (i, &(_, _, _, gap_us)) in ops.iter().enumerate() {
            now += simkit::SimDuration::from_micros(gap_us);
            prop_assert!(a[i] > now, "completion {} not after submission {}", a[i], now);
        }
    }

    /// Disabling the read cache never *reduces* a read's latency compared
    /// to running the same single read cold — and repeated reads of the
    /// same block are never slower with the cache on.
    #[test]
    fn cache_monotonicity(lba in 0u64..10_000_000, sectors in 1u64..256) {
        let mut with = StorageArray::new(presets::clariion_cx3(), SimRng::seed_from(5));
        let mut without = StorageArray::new(
            {
                let mut p = presets::clariion_cx3();
                p.cache = CacheParams::read_cache_off();
                p
            },
            SimRng::seed_from(5),
        );
        let t = SimTime::ZERO;
        let w1 = with.submit(IoDirection::Read, Lba::new(lba), sectors, t);
        let w2 = with.submit(IoDirection::Read, Lba::new(lba), sectors, w1);
        let n1 = without.submit(IoDirection::Read, Lba::new(lba), sectors, t);
        let n2 = without.submit(IoDirection::Read, Lba::new(lba), sectors, n1);
        // Second read with cache is a hit: strictly faster than its cold read.
        prop_assert!(w2 - w1 <= w1 - t);
        // Without cache, repeat reads are not hits (same block => contiguous
        // head position, so they may still be fast, but stats show no hits).
        prop_assert_eq!(without.stats().read_full_hits, 0);
        prop_assert!(n1 > t && n2 > n1);
    }
}
