//! Asserts the allocation shape of the `FetchAllHistograms` hop with a
//! counting global allocator: an endpoint's fetch (snapshot + encode), the
//! collector's decode and its merge for a 40-target host cost O(targets)
//! heap allocations — one counter slab per target on the hops that build
//! sets, plus a few growing vectors — never one per (metric, lens) slot.
//! This is what holding the slots as a `HistogramSet` buys the fleet
//! round; 21 `Histogram`s per target on the host and 21 more on the
//! collector is what it replaced.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide; mixing it into a binary with unrelated concurrent tests
//! would make the counts racy.

use fleet::{decode_frame, AggSet, HostEndpoint, ServiceEndpoint};
use simkit::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, StatsService};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the test thread's allocations count — libtest's harness
    /// threads allocate at unpredictable times. Const-initialized so
    /// reading it inside the allocator itself cannot allocate.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const TARGETS: u32 = 40;

#[test]
fn fetch_hop_allocates_per_target_not_per_slot() {
    let service = StatsService::with_shards(CollectorConfig::default(), 4);
    service.enable_all();
    for t in 0..TARGETS {
        for r in 0..20u64 {
            let req = IoRequest::new(
                RequestId(r),
                TargetId::new(VmId(t / 4), VDiskId(t % 4)),
                if r % 3 == 0 {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                },
                Lba::new((r * 7919) % 4096),
                8,
                SimTime::from_micros(r * 500),
            );
            service.handle_issue(&req);
            service.handle_complete(&IoCompletion::new(req, SimTime::from_micros(r * 500 + 250)));
        }
    }

    let mut endpoint = ServiceEndpoint::new(1, 0, Arc::new(service));
    let (bytes, fetch) = counted(|| endpoint.fetch(SimTime::ZERO).unwrap());
    let (decoded, decode) = counted(|| decode_frame(&bytes).unwrap());
    let (agg, merge) = counted(|| {
        let mut agg = AggSet::new();
        for target in &decoded.targets {
            agg.merge_target(target).unwrap();
        }
        agg
    });
    assert_eq!(decoded.targets.len(), TARGETS as usize);
    assert_eq!(agg.total_events(), decoded.total_events());

    // Two per target leaves room for one slab each plus vector growth; a
    // `Histogram` per slot would be 21 per target before anything else.
    let bound = 2 * u64::from(TARGETS);
    for (hop, allocations) in [("fetch", fetch), ("decode", decode), ("merge", merge)] {
        assert!(
            allocations <= bound,
            "{hop}: {allocations} allocations for {TARGETS} targets (bound {bound})"
        );
    }
}
