//! Array read cache with sequential read-ahead, plus a write-back cache
//! admission model.
//!
//! The multi-VM experiments hinge on cache behaviour: the Symmetrix's
//! "very large cache" hides interference, the CLARiiON CX3's 2.5 GiB read
//! cache softens it, and with the read cache off "all I/Os hit the disk"
//! (§5.3). The model is a page-granular exact-LRU cache plus a small table
//! of detected sequential streams that triggers read-ahead.
//!
//! Residency is one structure: a doubly linked recency ring of resident
//! pages held in a `Vec` and linked by `u32` positions, found through a
//! page index made of lazily allocated chunks of consecutive pages. Touch,
//! insert and evict are O(1), and a run of consecutive pages (a command's
//! span, then its read-ahead window) costs one hash lookup per chunk
//! rather than one per page. Positions rather than pointers because the
//! cache must stay `Clone` (experiments fork a warm `StorageArray`) and
//! the crate has no `unsafe`. How residency is stored is not part of the
//! model: the recency order, and so every victim, hit and simulated
//! completion time, is that of a textbook LRU (`tests/cache_model.rs`
//! steps the two side by side).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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
    /// The recency ring, one node per resident page. `nodes[0]` is a
    /// sentinel that closes it: its `next` is the LRU page (the next
    /// victim), its `prev` the MRU. A full cache recycles the victim's node
    /// for the incoming page, so the `Vec` never outgrows the capacity.
    nodes: Vec<Node>,
    /// page -> position in `nodes`.
    index: PageIndex,
    /// Stamp source for `Stream::last_used`.
    tick: u64,
    streams: Vec<Stream>,
    hits: u64,
    misses: u64,
    prefetched_pages: u64,
}

/// One resident page in the recency ring.
#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
}

/// Position of the ring's sentinel in `ArrayCache::nodes`.
const SENTINEL: u32 = 0;

/// The sentinel of an empty ring: linked to itself.
const EMPTY_RING: Node = Node {
    page: 0,
    prev: SENTINEL,
    next: SENTINEL,
};

/// Pages per [`Chunk`]. A command touches a run of consecutive pages (its
/// span, then `readahead_pages` more), so one directory lookup serves up
/// to this many of them.
const CHUNK_PAGES: u64 = 64;

/// The index entries of `CHUNK_PAGES` consecutive, aligned pages.
#[derive(Debug, Clone)]
struct Chunk {
    /// Position in `ArrayCache::nodes` of each page; `SENTINEL` = absent.
    slots: [u32; CHUNK_PAGES as usize],
    /// Resident pages among them; a chunk left with none is given back.
    live: u32,
}

/// page -> node, as a directory of lazily allocated chunks: memory follows
/// the resident set (at worst one chunk per resident page), not the LBA
/// space, and consecutive pages cost no hashing after the first.
#[derive(Debug, Clone, Default)]
struct PageIndex {
    /// chunk number (`page / CHUNK_PAGES`) -> position in `chunks`.
    directory: HashMap<u64, u32, BuildHasherDefault<ChunkHasher>>,
    chunks: Vec<Chunk>,
    /// Positions in `chunks` whose chunk was given back.
    spare: Vec<u32>,
}

impl PageIndex {
    /// Position in `chunks` of the chunk covering `page`, allocated with
    /// every page absent if the directory has none.
    fn chunk_for(&mut self, page: u64) -> usize {
        let PageIndex {
            directory,
            chunks,
            spare,
        } = self;
        *directory.entry(page / CHUNK_PAGES).or_insert_with(|| {
            spare.pop().unwrap_or_else(|| {
                chunks.push(Chunk {
                    slots: [SENTINEL; CHUNK_PAGES as usize],
                    live: 0,
                });
                (chunks.len() - 1) as u32
            })
        }) as usize
    }

    /// Forgets resident `page`.
    fn remove(&mut self, page: u64) {
        let number = page / CHUNK_PAGES;
        let at = self.directory[&number];
        let chunk = &mut self.chunks[at as usize];
        chunk.slots[(page % CHUNK_PAGES) as usize] = SENTINEL;
        chunk.live -= 1;
        if chunk.live == 0 {
            self.directory.remove(&number);
            self.spare.push(at);
        }
    }
}

/// One multiply. Chunk numbers come from this program's own generators, so
/// nothing is lost by dropping SipHash's resistance to crafted keys.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkHasher(u64);

impl Hasher for ChunkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a chunk number hashes through write_u64");
    }

    fn write_u64(&mut self, number: u64) {
        // The table takes its bucket from the low bits and guest disks
        // start at large powers of two: rotate the well-mixed high half of
        // the product down.
        self.0 = number.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }
}

impl ArrayCache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is 2^32 - 1 pages (64 TiB) or more: the
    /// recency ring links pages by `u32` position.
    pub fn new(params: CacheParams) -> Self {
        let capacity_pages = params.read_capacity_bytes / (PAGE_SECTORS * SECTOR_SIZE);
        assert!(
            capacity_pages < u64::from(u32::MAX),
            "array cache of {capacity_pages} pages: the recency ring links pages by u32 position"
        );
        ArrayCache {
            params,
            capacity_pages,
            nodes: vec![EMPTY_RING],
            index: PageIndex::default(),
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

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.nodes.len() as u64 - 1
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
        let (first_page, total_pages) = page_span(lba, sectors);
        let hit_pages = self.touch_run(first_page, total_pages);
        let miss_pages = total_pages - hit_pages;
        self.hits += hit_pages;
        self.misses += miss_pages;

        let readahead_pages = self.update_streams(lba.sector(), sectors);
        let already_resident = self.touch_run(first_page + total_pages, readahead_pages);
        self.prefetched_pages += readahead_pages - already_resident;

        // Attribute sectors proportionally to page hits/misses; exact at
        // page granularity, approximate at the request edges.
        let miss_sectors = sectors * miss_pages / total_pages;
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
            let (first_page, total_pages) = page_span(lba, sectors);
            self.touch_run(first_page, total_pages);
        }
        self.params.write_back
    }

    /// Touches `count` consecutive pages from `first` upwards, one at a
    /// time: a resident page moves to the MRU end, an absent one enters
    /// there and, in a full cache, takes the LRU page's place. Returns how
    /// many were resident. A span longer than the cache evicts its own
    /// head, and can evict a page further along it before that page's
    /// turn (which then counts as absent).
    ///
    /// Resident pages that already follow one another in the ring (the
    /// read-ahead window of an established stream, touched in this order by
    /// the stream's previous command) are moved as one piece: the ring ends
    /// up exactly as if each had been moved in turn.
    fn touch_run(&mut self, first: u64, count: u64) -> u64 {
        let end = first + count;
        let mut resident = 0;
        // Resident nodes met so far that are neighbours in ring order and
        // have not been moved yet: (first, last).
        let mut piece: Option<(u32, u32)> = None;
        let mut page = first;
        while page < end {
            let chunk = self.index.chunk_for(page);
            let chunk_end = end.min((page / CHUNK_PAGES + 1) * CHUNK_PAGES);
            for page in page..chunk_end {
                let slot = (page % CHUNK_PAGES) as usize;
                let node = self.index.chunks[chunk].slots[slot];
                if node != SENTINEL {
                    resident += 1;
                    piece = Some(match piece {
                        Some((head, tail)) if self.nodes[tail as usize].next == node => {
                            (head, node)
                        }
                        Some((head, tail)) => {
                            self.move_to_mru(head, tail);
                            (node, node)
                        }
                        None => (node, node),
                    });
                } else {
                    // The victim is chosen from the ring as it stands.
                    if let Some((head, tail)) = piece.take() {
                        self.move_to_mru(head, tail);
                    }
                    // Counted in before the victim leaves, so that a victim
                    // from this chunk cannot give the chunk back.
                    self.index.chunks[chunk].live += 1;
                    let node = self.admit(page);
                    self.index.chunks[chunk].slots[slot] = node;
                    self.link_mru(node, node);
                }
            }
            page = chunk_end;
        }
        if let Some((head, tail)) = piece {
            self.move_to_mru(head, tail);
        }
        resident
    }

    /// Finds an unlinked node for `page`, which is not resident: a new one
    /// while the cache is filling, the victim's once it is full.
    fn admit(&mut self, page: u64) -> u32 {
        if self.resident_pages() < self.capacity_pages {
            self.nodes.push(Node {
                page,
                prev: SENTINEL,
                next: SENTINEL,
            });
            (self.nodes.len() - 1) as u32
        } else {
            let victim = self.nodes[SENTINEL as usize].next;
            self.unlink(victim, victim);
            self.index.remove(self.nodes[victim as usize].page);
            self.nodes[victim as usize].page = page;
            victim
        }
    }

    /// Moves the piece of ring `head ..= tail` to the MRU end.
    fn move_to_mru(&mut self, head: u32, tail: u32) {
        self.unlink(head, tail);
        self.link_mru(head, tail);
    }

    /// Takes the piece of ring `head ..= tail` out.
    fn unlink(&mut self, head: u32, tail: u32) {
        let before = self.nodes[head as usize].prev;
        let after = self.nodes[tail as usize].next;
        self.nodes[before as usize].next = after;
        self.nodes[after as usize].prev = before;
    }

    /// Appends the unlinked chain `head ..= tail` at the MRU end.
    fn link_mru(&mut self, head: u32, tail: u32) {
        let mru = self.nodes[SENTINEL as usize].prev;
        self.nodes[head as usize].prev = mru;
        self.nodes[tail as usize].next = SENTINEL;
        self.nodes[mru as usize].next = head;
        self.nodes[SENTINEL as usize].prev = tail;
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

/// First page and page count of `[lba, lba + sectors)`; a zero-length
/// access still looks at the page it points into.
fn page_span(lba: Lba, sectors: u64) -> (u64, u64) {
    let first_page = lba.sector() / PAGE_SECTORS;
    let last_page = (lba.sector() + sectors.max(1) - 1) / PAGE_SECTORS;
    (first_page, last_page - first_page + 1)
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

    /// `pages` of capacity and no prefetcher, for tests that count nodes.
    fn plain_cache(pages: u64) -> ArrayCache {
        ArrayCache::new(CacheParams {
            read_capacity_bytes: pages * PAGE_SECTORS * SECTOR_SIZE,
            readahead_pages: 0,
            ..Default::default()
        })
    }

    fn read_page(c: &mut ArrayCache, page: u64) -> bool {
        c.read(Lba::new(page * PAGE_SECTORS), PAGE_SECTORS)
            .is_full_hit()
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

    #[test]
    fn prefetched_pages_counts_pages_brought_in() {
        let mut c = ArrayCache::new(CacheParams {
            read_capacity_bytes: 1024 * PAGE_SECTORS * SECTOR_SIZE,
            readahead_pages: 16,
            ..Default::default()
        });
        let mut requested = 0;
        for page in 0..64 {
            requested += c
                .read(Lba::new(page * PAGE_SECTORS), PAGE_SECTORS)
                .readahead_sectors
                / PAGE_SECTORS;
        }
        // Every command of the established stream asks for its 16-page
        // window, but all of a window except its last page came in with
        // the previous one.
        assert_eq!(requested, 16 * 62);
        assert!(
            c.prefetched_pages() <= 64 + 16,
            "{} pages prefetched by 64 one-page reads",
            c.prefetched_pages()
        );
        assert_eq!(c.prefetched_pages() + c.misses(), c.resident_pages());
    }

    #[test]
    fn full_cache_recycles_nodes_and_chunks() {
        let mut c = plain_cache(8);
        // Far-apart pages: one chunk each, the worst case for the index.
        for i in 0..500u64 {
            assert!(!read_page(&mut c, i * 1_000));
            assert!(c.nodes.len() <= 1 + 8, "one node per resident page");
            assert_eq!(c.index.directory.len() as u64, c.resident_pages());
            // The incoming page's chunk is taken before the victim's is
            // given back: one more than the live ones, never more.
            assert!(c.index.chunks.len() <= 8 + 1);
        }
        assert_eq!(c.resident_pages(), 8);
        // The last eight are the resident ones, oldest first.
        for i in 492..500u64 {
            assert!(read_page(&mut c, i * 1_000));
        }
    }

    #[test]
    fn far_addresses_allocate_per_page_not_per_address() {
        let mut c = plain_cache(64);
        let far = Lba::new(u64::MAX / 2);
        assert!(!c.read(far, 1).is_full_hit());
        assert!(c.read(far, 1).is_full_hit());
        assert_eq!((c.nodes.len(), c.index.chunks.len()), (2, 1));
        // A page number that does not fit the ring's u32 links.
        let wide = (1u64 << 32) + 5;
        assert!(!read_page(&mut c, wide));
        assert!(read_page(&mut c, wide));
        assert_eq!((c.nodes.len(), c.index.chunks.len()), (3, 2));
    }

    #[test]
    #[should_panic(expected = "the recency ring links pages by u32 position")]
    fn capacity_beyond_u32_links_is_refused() {
        let _ = ArrayCache::new(CacheParams {
            read_capacity_bytes: (1u64 << 32) * PAGE_SECTORS * SECTOR_SIZE,
            ..Default::default()
        });
    }

    #[test]
    fn clone_of_a_warm_cache_evicts_in_the_same_order() {
        let mut rng = simkit::SimRng::seed_from(7);
        // One random read or write, applied to every cache given.
        let mut step = |caches: &mut [ArrayCache]| -> Vec<Option<ReadOutcome>> {
            let lba = Lba::new(rng.range_inclusive(0, 96 * PAGE_SECTORS));
            let sectors = rng.range_inclusive(1, 3 * PAGE_SECTORS);
            let write = rng.chance(0.25);
            caches
                .iter_mut()
                .map(|c| {
                    if write {
                        c.write(lba, sectors);
                        None
                    } else {
                        Some(c.read(lba, sectors))
                    }
                })
                .collect()
        };
        let mut caches = vec![small_cache(32)];
        for _ in 0..500 {
            step(&mut caches);
        }
        caches.push(caches[0].clone());
        for op in 0..1000 {
            let outcomes = step(&mut caches);
            assert_eq!(outcomes[0], outcomes[1], "op {op}");
            assert_eq!(caches[0].resident_pages(), caches[1].resident_pages());
        }
        let counters = |c: &ArrayCache| (c.hits(), c.misses(), c.prefetched_pages());
        assert_eq!(counters(&caches[0]), counters(&caches[1]));
    }
}
