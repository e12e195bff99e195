//! Asserts the hot-path zero-allocation invariant with a counting global
//! allocator: once a collector is constructed, `on_issue`/`on_complete`
//! never touch the heap. This is the paper's §4 always-on argument made
//! machine-checked — per-command cost is bin arithmetic and counter bumps,
//! not allocator traffic.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide; mixing it into a binary with unrelated concurrent tests
//! would make the counts racy.

use simkit::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, IoStatsCollector, StatsService, VscsiEvent};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn mk(id: u64, dir: IoDirection, lba: u64, sectors: u32, t_us: u64) -> IoRequest {
    IoRequest::new(
        RequestId(id),
        TargetId::default(),
        dir,
        Lba::new(lba),
        sectors,
        SimTime::from_micros(t_us),
    )
}

/// Drives `count` issue+complete pairs with a mixed read/write pattern and
/// returns the number of heap allocations the hot path performed.
fn allocations_during_ingest(config: CollectorConfig, count: u64) -> u64 {
    let mut collector = IoStatsCollector::new(config);
    // Warm the static layout registry (first access initializes OnceLocks)
    // and pre-build the request/completion stream outside the window.
    let pairs: Vec<(IoRequest, IoCompletion)> = (0..count)
        .map(|i| {
            let dir = if i % 3 == 0 {
                IoDirection::Write
            } else {
                IoDirection::Read
            };
            let req = mk(i, dir, (i * 97) % 5_000_000, 8 + (i % 3) as u32 * 8, i * 40);
            let completion = IoCompletion::new(req, SimTime::from_micros(i * 40 + 300));
            (req, completion)
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for (req, completion) in &pairs {
        collector.on_issue(req);
        collector.on_complete(completion);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    // Keep the collector state observable so the loop cannot be optimized
    // away wholesale.
    assert_eq!(collector.completed_commands(), count);
    after - before
}

/// A 256-event batch interleaving 8 targets (128 issue+complete pairs),
/// command ids and clocks starting at `round * 128`.
fn mixed_batch(round: u64) -> Vec<VscsiEvent> {
    (round * 128..(round + 1) * 128)
        .flat_map(|i| {
            let mut req = mk(i, IoDirection::Read, (i * 97) % 5_000_000, 8, i * 40);
            req.target = TargetId::new(VmId((i % 8) as u32), VDiskId(0));
            [
                VscsiEvent::Issue(req),
                VscsiEvent::Complete(IoCompletion::new(req, SimTime::from_micros(i * 40 + 300))),
            ]
        })
        .collect()
}

/// Heap allocations `StatsService::handle_batch` performs on a mixed-target
/// batch once every target's collector exists.
fn allocations_during_service_batch() -> u64 {
    let service = StatsService::default();
    service.enable_all();
    service.handle_batch(&mixed_batch(0));
    let batch = mixed_batch(1);
    assert_eq!(batch.len(), 256);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    service.handle_batch(&batch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let completed: u64 = service.summaries().iter().map(|s| s.completed).sum();
    assert_eq!(completed, 256);
    after - before
}

/// One test function (not several) so no concurrently running sibling test
/// can pollute the global allocation counter.
#[test]
fn hot_path_performs_zero_heap_allocations() {
    // Default configuration: histograms only.
    let allocs = allocations_during_ingest(CollectorConfig::default(), 20_000);
    assert_eq!(allocs, 0, "default hot path allocated {allocs} times");

    // With the 2-D seek/latency correlation on, in-flight tracking runs
    // through the fixed-capacity open-addressing table: still no heap
    // traffic while outstanding I/Os stay within its 64-entry fast region
    // (this workload completes each command before issuing the next).
    let correlate = CollectorConfig {
        correlate_seek_latency: true,
        ..CollectorConfig::default()
    };
    let allocs = allocations_during_ingest(correlate, 20_000);
    assert_eq!(allocs, 0, "correlating hot path allocated {allocs} times");

    // The service front-end adds a shard lookup and a lock per event, and
    // nothing else: a slice of events for many targets goes through the
    // same two hooks without staging or sorting it anywhere.
    let allocs = allocations_during_service_batch();
    assert_eq!(
        allocs, 0,
        "mixed-target handle_batch allocated {allocs} times"
    );
}
