//! Array read cache with sequential read-ahead, plus a write-back cache
//! admission model.
//!
//! The multi-VM experiments hinge on cache behaviour: the Symmetrix's
//! "very large cache" hides interference, the CLARiiON CX3's 2.5 GiB read
//! cache softens it, and with the read cache off "all I/Os hit the disk"
//! (§5.3). The model is a page-granular exact-LRU cache plus a small table
//! of detected sequential streams that triggers read-ahead.

use std::collections::{BTreeMap, HashMap};
use vscsi::{Lba, SECTOR_SIZE};

/// Cache page size: 16 KiB (32 sectors), a common array track-buffer unit.
pub const PAGE_SECTORS: u64 = 32;

/// Configuration of the array cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheParams {
    /// Read cache capacity in bytes; 0 disables read caching entirely.
    pub read_capacity_bytes: u64,
    /// Pages of read-ahead issued when a sequential stream is recognized.
    pub readahead_pages: u64,
    /// How many concurrent sequential streams the prefetcher can track.
    pub max_streams: usize,
    /// Maximum gap (sectors) between the end of a detected stream and the
    /// next access for the stream to continue.
    pub stream_gap_sectors: u64,
    /// `true` if writes are acknowledged from mirrored cache (write-back);
    /// `false` forces write-through to the spindles.
    pub write_back: bool,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            read_capacity_bytes: 2_500 * 1024 * 1024, // the CX3's 2.5 GiB
            readahead_pages: 16,
            max_streams: 32,
            stream_gap_sectors: 2 * PAGE_SECTORS,
            write_back: true,
        }
    }
}

impl CacheParams {
    /// A disabled read cache ("turn off the CX3 read cache forcing all I/Os
    /// to hit the disk", §5.3). Write-back stays on; the experiments that
    /// need write-through set it explicitly.
    pub fn read_cache_off() -> Self {
        CacheParams {
            read_capacity_bytes: 0,
            readahead_pages: 0,
            ..Default::default()
        }
    }
}

/// Result of a read lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Sectors served from cache.
    pub hit_sectors: u64,
    /// Sectors that must be fetched from the spindles.
    pub miss_sectors: u64,
    /// Additional sectors the prefetcher wants fetched beyond the request.
    pub readahead_sectors: u64,
}

impl ReadOutcome {
    /// `true` when the entire request was served from cache.
    pub fn is_full_hit(&self) -> bool {
        self.miss_sectors == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Sector just past the last access of this stream.
    next: u64,
    /// Accesses observed on this stream.
    length: u64,
    /// LRU stamp.
    last_used: u64,
}

/// Page-granular exact-LRU read cache with stream-based read-ahead.
///
/// # Examples
///
/// ```
/// use storage::{ArrayCache, CacheParams};
/// use vscsi::Lba;
///
/// let mut cache = ArrayCache::new(CacheParams::default());
/// // Cold read misses...
/// let first = cache.read(Lba::new(0), 16);
/// assert!(!first.is_full_hit());
/// // ...but the fetched range is now resident.
/// let again = cache.read(Lba::new(0), 16);
/// assert!(again.is_full_hit());
/// ```
#[derive(Debug, Clone)]
pub struct ArrayCache {
    params: CacheParams,
    capacity_pages: u64,
    /// page -> LRU stamp.
    resident: HashMap<u64, u64>,
    /// LRU stamp -> page (inverse index for O(log n) eviction).
    lru: BTreeMap<u64, u64>,
    tick: u64,
    streams: Vec<Stream>,
    hits: u64,
    misses: u64,
    prefetched_pages: u64,
}

impl ArrayCache {
    /// Creates a cache.
    pub fn new(params: CacheParams) -> Self {
        let capacity_pages = params.read_capacity_bytes / (PAGE_SECTORS * SECTOR_SIZE);
        ArrayCache {
            params,
            capacity_pages,
            resident: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            streams: Vec::new(),
            hits: 0,
            misses: 0,
            prefetched_pages: 0,
        }
    }

    /// The cache parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Page-hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Page-misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Pages brought in by read-ahead so far.
    pub fn prefetched_pages(&self) -> u64 {
        self.prefetched_pages
    }

    /// Hit rate over pages (`None` before any lookup).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Looks up a read, updates residency/stream state, and reports what
    /// must be fetched. The missing pages and any read-ahead pages are
    /// inserted as resident (the caller charges the spindle time).
    pub fn read(&mut self, lba: Lba, sectors: u64) -> ReadOutcome {
        if self.capacity_pages == 0 {
            // Read cache disabled: everything hits the disk; no read-ahead.
            return ReadOutcome {
                hit_sectors: 0,
                miss_sectors: sectors,
                readahead_sectors: 0,
            };
        }
        let first_page = lba.sector() / PAGE_SECTORS;
        let last_page = (lba.sector() + sectors.max(1) - 1) / PAGE_SECTORS;
        let mut hit_pages = 0u64;
        let mut miss_pages = 0u64;
        for page in first_page..=last_page {
            if self.touch(page) {
                hit_pages += 1;
            } else {
                miss_pages += 1;
                self.insert(page);
            }
        }
        self.hits += hit_pages;
        self.misses += miss_pages;

        let readahead_pages = self.update_streams(lba.sector(), sectors);
        for i in 0..readahead_pages {
            self.insert(last_page + 1 + i);
        }
        self.prefetched_pages += readahead_pages;

        // Attribute sectors proportionally to page hits/misses; exact at
        // page granularity, approximate at the request edges.
        let total_pages = hit_pages + miss_pages;
        let miss_sectors = sectors * miss_pages / total_pages.max(1);
        ReadOutcome {
            hit_sectors: sectors - miss_sectors,
            miss_sectors,
            readahead_sectors: readahead_pages * PAGE_SECTORS,
        }
    }

    /// Admits written data. Returns `true` if the write is absorbed by the
    /// write-back cache (fast ack), `false` if it must go straight to disk.
    pub fn write(&mut self, lba: Lba, sectors: u64) -> bool {
        if self.capacity_pages > 0 {
            // Write-allocate into the read cache so read-after-write hits.
            let first_page = lba.sector() / PAGE_SECTORS;
            let last_page = (lba.sector() + sectors.max(1) - 1) / PAGE_SECTORS;
            for page in first_page..=last_page {
                if !self.touch(page) {
                    self.insert(page);
                }
            }
        }
        self.params.write_back
    }

    /// Drops all resident pages and stream state (cache flush).
    pub fn invalidate_all(&mut self) {
        self.resident.clear();
        self.lru.clear();
        self.streams.clear();
    }

    /// Touches `page`, refreshing its LRU stamp; `true` if it was resident.
    fn touch(&mut self, page: u64) -> bool {
        self.tick += 1;
        match self.resident.get_mut(&page) {
            Some(stamp) => {
                self.lru.remove(stamp);
                *stamp = self.tick;
                self.lru.insert(self.tick, page);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, page: u64) {
        if self.capacity_pages == 0 {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.resident.insert(page, self.tick) {
            self.lru.remove(&old);
        }
        self.lru.insert(self.tick, page);
        while self.resident.len() as u64 > self.capacity_pages {
            let (&stamp, &victim) = self.lru.iter().next().expect("lru nonempty");
            self.lru.remove(&stamp);
            self.resident.remove(&victim);
        }
    }

    /// Advances stream detection; returns pages of read-ahead to fetch.
    fn update_streams(&mut self, start: u64, sectors: u64) -> u64 {
        if self.params.readahead_pages == 0 {
            return 0;
        }
        self.tick += 1;
        let end = start + sectors;
        if let Some(s) = self.streams.iter_mut().find(|s| {
            start >= s.next.saturating_sub(1) && start <= s.next + self.params.stream_gap_sectors
        }) {
            s.next = end;
            s.length += 1;
            s.last_used = self.tick;
            // Read-ahead once the stream is established (3+ accesses).
            if s.length >= 3 {
                return self.params.readahead_pages;
            }
            return 0;
        }
        // New candidate stream; evict the stalest if the table is full.
        if self.streams.len() >= self.params.max_streams {
            if let Some(idx) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
            {
                self.streams.swap_remove(idx);
            }
        }
        self.streams.push(Stream {
            next: end,
            length: 1,
            last_used: self.tick,
        });
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(pages: u64) -> ArrayCache {
        ArrayCache::new(CacheParams {
            read_capacity_bytes: pages * PAGE_SECTORS * SECTOR_SIZE,
            ..Default::default()
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(64);
        let first = c.read(Lba::new(0), PAGE_SECTORS);
        assert_eq!(first.miss_sectors, PAGE_SECTORS);
        let second = c.read(Lba::new(0), PAGE_SECTORS);
        assert!(second.is_full_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), Some(0.5));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = ArrayCache::new(CacheParams::read_cache_off());
        for _ in 0..3 {
            let r = c.read(Lba::new(0), 8);
            assert_eq!(r.miss_sectors, 8);
            assert_eq!(r.readahead_sectors, 0);
        }
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache(2);
        c.read(Lba::new(0), PAGE_SECTORS); // page 0
        c.read(Lba::new(PAGE_SECTORS * 10), PAGE_SECTORS); // page 10
                                                           // Touch page 0 so page 10 is LRU.
        c.read(Lba::new(0), PAGE_SECTORS);
        // Bring in page 20, evicting page 10.
        c.read(Lba::new(PAGE_SECTORS * 20), PAGE_SECTORS);
        assert!(c.read(Lba::new(0), PAGE_SECTORS).is_full_hit());
        assert!(!c
            .read(Lba::new(PAGE_SECTORS * 10), PAGE_SECTORS)
            .is_full_hit());
    }

    #[test]
    fn sequential_stream_triggers_readahead() {
        let mut c = small_cache(1024);
        let mut ra = 0;
        for i in 0..6u64 {
            let r = c.read(Lba::new(i * PAGE_SECTORS), PAGE_SECTORS);
            ra += r.readahead_sectors;
        }
        assert!(ra > 0, "no read-ahead on a pure sequential stream");
        // After read-ahead kicks in, subsequent sequential reads are hits.
        let r = c.read(Lba::new(6 * PAGE_SECTORS), PAGE_SECTORS);
        assert!(r.is_full_hit());
    }

    #[test]
    fn random_access_never_triggers_readahead() {
        let mut c = small_cache(1024);
        let mut ra = 0;
        for i in 0..50u64 {
            let lba = (i * 7_777_777) % 50_000_000;
            ra += c.read(Lba::new(lba), 16).readahead_sectors;
        }
        assert_eq!(ra, 0);
    }

    #[test]
    fn interleaved_streams_both_get_readahead() {
        let mut c = small_cache(4096);
        let mut ra_a = 0;
        let mut ra_b = 0;
        for i in 0..8u64 {
            ra_a += c
                .read(Lba::new(i * PAGE_SECTORS), PAGE_SECTORS)
                .readahead_sectors;
            ra_b += c
                .read(Lba::new(40_000_000 + i * PAGE_SECTORS), PAGE_SECTORS)
                .readahead_sectors;
        }
        assert!(ra_a > 0 && ra_b > 0);
    }

    #[test]
    fn write_back_policy() {
        let mut c = small_cache(16);
        assert!(c.write(Lba::new(0), 8));
        // Read-after-write hits.
        assert!(c.read(Lba::new(0), 8).is_full_hit());
        let mut wt = ArrayCache::new(CacheParams {
            write_back: false,
            ..Default::default()
        });
        assert!(!wt.write(Lba::new(0), 8));
    }

    #[test]
    fn invalidate_clears() {
        let mut c = small_cache(16);
        c.read(Lba::new(0), 8);
        c.invalidate_all();
        assert_eq!(c.resident_pages(), 0);
        assert!(!c.read(Lba::new(0), 8).is_full_hit());
    }

    #[test]
    fn partial_hit_attribution() {
        let mut c = small_cache(64);
        c.read(Lba::new(0), PAGE_SECTORS); // page 0 resident
                                           // Read spanning resident page 0 and cold page 1.
        let r = c.read(Lba::new(0), PAGE_SECTORS * 2);
        assert_eq!(r.hit_sectors, PAGE_SECTORS);
        assert_eq!(r.miss_sectors, PAGE_SECTORS);
    }

    #[test]
    fn stream_table_bounded() {
        let mut c = ArrayCache::new(CacheParams {
            read_capacity_bytes: 1024 * PAGE_SECTORS * SECTOR_SIZE,
            max_streams: 4,
            ..Default::default()
        });
        // 100 distinct streams: table must stay bounded at 4.
        for s in 0..100u64 {
            c.read(Lba::new(s * 10_000_000), 8);
        }
        assert!(c.streams.len() <= 4);
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = small_cache(8);
        for i in 0..100u64 {
            c.read(Lba::new(i * PAGE_SECTORS), PAGE_SECTORS);
        }
        assert!(c.resident_pages() <= 8);
    }
}
