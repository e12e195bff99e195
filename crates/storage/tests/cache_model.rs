//! Model-based property tests: the array cache against a reference LRU.

use proptest::collection::vec;
use proptest::prelude::*;
use storage::{ArrayCache, CacheParams, PAGE_SECTORS};
use vscsi::{Lba, SECTOR_SIZE};

/// Reference LRU over pages: a Vec ordered most-recent-first.
#[derive(Debug, Default)]
struct ModelLru {
    pages: Vec<u64>,
    capacity: usize,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            pages: Vec::new(),
            capacity,
        }
    }

    /// Returns `true` if resident; refreshes recency either way (inserting
    /// when absent) and evicts the least-recent page beyond capacity.
    fn touch(&mut self, page: u64) -> bool {
        let hit = if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            true
        } else {
            false
        };
        self.pages.insert(0, page);
        while self.pages.len() > self.capacity {
            self.pages.pop();
        }
        hit
    }
}

/// One step of the driven history. Sector addresses are unaligned on
/// purpose; spans cover 1-6 pages.
#[derive(Debug, Clone)]
enum Op {
    /// Read `sectors` at an arbitrary sector.
    Read { start: u64, sectors: u64 },
    /// Read `sectors` where the previous read ended (what builds a stream
    /// and so turns read-ahead on).
    ReadNext { sectors: u64 },
    /// Write-allocate `sectors` at an arbitrary sector.
    Write { start: u64, sectors: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let start = 0u64..64 * PAGE_SECTORS;
    let sectors = 1u64..=5 * PAGE_SECTORS + 1;
    prop_oneof![
        8 => (start.clone(), sectors.clone()).prop_map(|(start, sectors)| Op::Read { start, sectors }),
        8 => sectors.clone().prop_map(|sectors| Op::ReadNext { sectors }),
        4 => (start, sectors).prop_map(|(start, sectors)| Op::Write { start, sectors }),
    ]
}

/// Single page-aligned reads, for the two simpler properties below.
fn arb_pages() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..64, 1..400)
}

/// The cache under test next to the reference, stepped together.
struct Pair {
    cache: ArrayCache,
    model: ModelLru,
}

impl Pair {
    /// First page and page count of the span `[start, start + sectors)`.
    fn span(start: u64, sectors: u64) -> (u64, u64) {
        let first = start / PAGE_SECTORS;
        let last = (start + sectors - 1) / PAGE_SECTORS;
        (first, last - first + 1)
    }

    /// Reads through both and checks everything a read reports or moves
    /// (plain asserts: proptest catches the panic and shrinks as usual).
    /// The model does not detect streams: it inserts as many pages past
    /// the span as the cache says it prefetched.
    fn read(&mut self, start: u64, sectors: u64) {
        let (first, count) = Self::span(start, sectors);
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let outcome = self.cache.read(Lba::new(start), sectors);
        let model_hits = (first..first + count)
            .filter(|&page| self.model.touch(page))
            .count() as u64;
        let model_misses = count - model_hits;
        assert_eq!(
            self.cache.hits() - hits,
            model_hits,
            "read {}+{}",
            start,
            sectors
        );
        assert_eq!(self.cache.misses() - misses, model_misses);
        let miss_sectors = sectors * model_misses / count;
        assert_eq!(outcome.miss_sectors, miss_sectors);
        assert_eq!(outcome.hit_sectors, sectors - miss_sectors);
        assert_eq!(outcome.readahead_sectors % PAGE_SECTORS, 0);
        for page in 0..outcome.readahead_sectors / PAGE_SECTORS {
            self.model.touch(first + count + page);
        }
        self.same_residency();
    }

    fn same_residency(&self) {
        assert_eq!(self.cache.resident_pages(), self.model.pages.len() as u64);
    }
}

proptest! {
    /// Multi-page reads, writes and read-ahead at capacities down
    /// to one page (so a span, or a span plus its read-ahead, can exceed
    /// the cache): every hit/miss count, sector attribution and residency
    /// count must match the reference LRU after every step, and at the end
    /// the cache must hold exactly the pages the reference holds.
    #[test]
    fn cache_matches_reference_lru(
        ops in vec(arb_op(), 1..300),
        capacity in 1usize..=32,
        readahead_pages in 0u64..=8,
    ) {
        let mut pair = Pair {
            cache: ArrayCache::new(CacheParams {
                read_capacity_bytes: capacity as u64 * PAGE_SECTORS * SECTOR_SIZE,
                readahead_pages,
                ..CacheParams::default()
            }),
            model: ModelLru::new(capacity),
        };
        let mut cursor = 0u64;
        for op in ops {
            match op {
                Op::Read { start, sectors } => {
                    pair.read(start, sectors);
                    cursor = start + sectors;
                }
                Op::ReadNext { sectors } => {
                    pair.read(cursor, sectors);
                    cursor += sectors;
                }
                Op::Write { start, sectors } => {
                    let (hits, misses) = (pair.cache.hits(), pair.cache.misses());
                    prop_assert!(pair.cache.write(Lba::new(start), sectors));
                    let (first, count) = Pair::span(start, sectors);
                    for page in first..first + count {
                        pair.model.touch(page);
                    }
                    // Writes allocate but are not lookups.
                    prop_assert_eq!((pair.cache.hits(), pair.cache.misses()), (hits, misses));
                    pair.same_residency();
                }
            }
        }
        // Probe the reference's resident set from its LRU end: a probe that
        // hits only refreshes, so equal sets answer "hit" to every probe
        // (one that trips read-ahead is stepped through the model like any
        // other read, and may cost a later probe its page in both).
        let lru_to_mru: Vec<u64> = pair.model.pages.iter().rev().copied().collect();
        for page in lru_to_mru {
            pair.read(page * PAGE_SECTORS, PAGE_SECTORS);
        }
    }

    /// Hit + miss counters always sum to the number of page touches.
    #[test]
    fn counters_consistent(pages in arb_pages()) {
        let mut cache = ArrayCache::new(CacheParams {
            read_capacity_bytes: 16 * PAGE_SECTORS * SECTOR_SIZE,
            readahead_pages: 0,
            ..CacheParams::default()
        });
        for &page in &pages {
            cache.read(Lba::new(page * PAGE_SECTORS), PAGE_SECTORS);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), pages.len() as u64);
    }

    /// Writes admit pages (write-allocate): a write followed by a read of
    /// the same page always hits, regardless of history.
    #[test]
    fn read_after_write_hits(pages in arb_pages(), probe in 0u64..64) {
        let mut cache = ArrayCache::new(CacheParams {
            read_capacity_bytes: 128 * PAGE_SECTORS * SECTOR_SIZE,
            readahead_pages: 0,
            ..CacheParams::default()
        });
        for &page in &pages {
            cache.read(Lba::new(page * PAGE_SECTORS), PAGE_SECTORS);
        }
        cache.write(Lba::new(probe * PAGE_SECTORS), PAGE_SECTORS);
        let outcome = cache.read(Lba::new(probe * PAGE_SECTORS), PAGE_SECTORS);
        prop_assert!(outcome.is_full_hit());
    }
}
