//! Cross-commit pin of simulated *timing* under array-cache pressure.
//!
//! Three VMs share a CLARiiON CX3 whose read cache is cut to 256 pages, so
//! every few commands evict. Which page is the victim decides which later
//! read hits, and a hit completes ~50x sooner than a miss — so the
//! per-attachment latency sums below move if the cache's recency order
//! moves by one page. The constants were recorded at the commit before
//! `storage::ArrayCache` changed its residency structure; a change to that
//! structure that keeps them is a refactor, one that does not is a model
//! change.

use esx::{Simulation, VmBuilder};
use guests::{AccessSpec, IometerWorkload};
use simkit::SimTime;
use std::sync::Arc;
use storage::{presets, ArrayStats, PAGE_SECTORS};
use vscsi::SECTOR_SIZE;
use vscsi_stats::StatsService;

const MIB: u64 = 1024 * 1024;

fn random_write_8k(outstanding: u32, region_bytes: u64) -> AccessSpec {
    AccessSpec {
        read_fraction: 0.0,
        ..AccessSpec::random_read_8k(outstanding, region_bytes)
    }
}

#[test]
fn three_vms_on_a_256_page_cache_keep_their_timing() {
    let mut array = presets::clariion_cx3();
    array.cache.read_capacity_bytes = 256 * PAGE_SECTORS * SECTOR_SIZE;
    let mut sim = Simulation::new(array, Arc::new(StatsService::default()), 41);
    // Working sets of 128 + 192 + 64 pages (plus 16 of read-ahead) against
    // 256 pages of cache: the random reader hits about one time in four,
    // so victims matter.
    let specs = [
        ("seq4k", AccessSpec::seq_read_4k(8, 2 * MIB)),
        ("rand8k", AccessSpec::random_read_8k(8, 3 * MIB)),
        ("write8k", random_write_8k(8, MIB)),
    ];
    for (vm, (name, spec)) in specs.into_iter().enumerate() {
        sim.add_vm(
            VmBuilder::new(vm as u32)
                .with_disk(1024 * MIB)
                .attach(sim.rng().fork(name), move |rng| {
                    Box::new(IometerWorkload::new(name, spec, rng))
                }),
        );
    }
    sim.run_until(SimTime::from_millis(500));

    let per_attachment: Vec<(u64, u64, u64)> = (0..sim.attachment_count())
        .map(|i| {
            let s = sim.attachment_stats(i);
            (s.completed, s.bytes, s.latency_sum_us)
        })
        .collect();
    assert_eq!(
        per_attachment,
        [
            (15_179, 62_173_184, 3_991_027),
            (737, 6_037_504, 3_945_966),
            (16_079, 131_719_168, 3_990_673),
        ]
    );
    assert_eq!(
        sim.array().stats(),
        ArrayStats {
            reads: 15_932,
            writes: 16_087,
            read_sectors: 133_416,
            write_sectors: 257_392,
            read_full_hits: 15_357,
            ..ArrayStats::default()
        }
    );
    let cache = sim.array().cache();
    assert_eq!(
        (cache.hits(), cache.misses(), cache.resident_pages()),
        (15_357, 575, 256)
    );
}
