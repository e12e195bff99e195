//! Bounded lock-free single-producer/single-consumer rings.
//!
//! The thread-per-core ingest pipeline ([`crate::pipeline`]) moves
//! fixed-size [`crate::VscsiEvent`] records from producer threads to
//! aggregator workers without ever taking a lock on the hot path. Each
//! lane of the pipeline is one of these rings: exactly one producer
//! handle and one consumer handle, a power-of-two slot array, and the
//! classic Lamport protocol —
//!
//! * the producer owns `tail` (it alone stores it, with `Release`);
//! * the consumer owns `head` (it alone stores it, with `Release`);
//! * each side keeps a *cached* copy of the other's index and re-reads
//!   the atomic (`Acquire`) only when the cache says the ring looks full
//!   (producer) or empty (consumer), so steady-state transfers touch the
//!   shared cache lines once per batch, not once per event;
//! * `head`/`tail` live on their own cache lines (`#[repr(align(64))]`)
//!   so the producer's publishes never invalidate the consumer's index
//!   line and vice versa (no false sharing);
//! * batch publish: [`Producer::push_batch`] writes N slots and makes
//!   them all visible with a *single* `Release` store, which is what
//!   lets the aggregator drain in batches of 8–16 and amortize the
//!   synchronization to a fraction of an atomic per event.
//!
//! Indices are monotonically increasing `u64` sequence numbers (slot =
//! `seq & mask`), so full/empty is `tail - head == capacity` / `tail ==
//! head` with no reserved slot and no ABA concern.
//!
//! The element type must be `Copy`: slots are `MaybeUninit` and are
//! never dropped, which keeps both sides trivially panic-safe (a slot
//! that was written but not yet published is just bytes).
//!
//! Closure is cooperative and flows one way: dropping the [`Producer`]
//! marks the ring closed (the consumer drains the backlog and then sees
//! [`Consumer::is_closed`]). The `spsc_interleave` integration test
//! drives the protocol through a seeded model checker (random
//! interleavings against a `VecDeque` oracle) plus a two-thread FIFO
//! stress run.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One cache line. Aligning the head and tail atomics to this keeps the
/// producer's and consumer's index lines from false-sharing.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    /// Next sequence number the consumer will pop. Written only by the
    /// consumer (`Release`), read by the producer (`Acquire`).
    head: CachePadded<AtomicU64>,
    /// Next sequence number the producer will push. Written only by the
    /// producer (`Release`), read by the consumer (`Acquire`).
    tail: CachePadded<AtomicU64>,
    producer_closed: AtomicBool,
    mask: u64,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// The protocol guarantees a slot is accessed by at most one side at a
// time: the producer touches slots in `[tail, head + capacity)`, the
// consumer in `[head, tail)`, and the ranges are disjoint by
// construction.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    #[inline]
    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn slot(&self, seq: u64) -> *mut MaybeUninit<T> {
        self.slots[(seq & self.mask) as usize].get()
    }
}

/// Creates a ring with at least `capacity` slots (rounded up to a power
/// of two, minimum 2), returning the two endpoint handles.
///
/// # Panics
///
/// Panics if `capacity` exceeds `2^32` — a pipeline lane never needs
/// that, and the bound keeps `seq - head` arithmetic comfortably away
/// from wrap.
pub fn ring<T: Copy>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(
        capacity <= (1 << 32),
        "spsc ring capacity {capacity} is unreasonably large"
    );
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        producer_closed: AtomicBool::new(false),
        mask: cap as u64 - 1,
        slots,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            ring,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// The write end of a ring. `Send` but not `Sync`: exactly one thread
/// may hold it at a time.
#[derive(Debug)]
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of the published tail (only this side advances it).
    tail: u64,
    /// Last head value observed; refreshed only when the ring looks full.
    cached_head: u64,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .finish_non_exhaustive()
    }
}

impl<T: Copy> Producer<T> {
    /// Slot capacity of the ring.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.capacity() as usize
    }

    /// Events currently enqueued (from this side's view; exact for the
    /// producer since only the consumer can shrink it concurrently).
    #[inline]
    pub fn len(&self) -> usize {
        (self.tail - self.ring.head.0.load(Ordering::Acquire)) as usize
    }

    /// Whether the ring is empty from this side's view.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots available. The cached head is refreshed (one `Acquire`
    /// load) only when the cached view cannot satisfy `want` slots, so a
    /// steady-state batch push touches the consumer's index line at most
    /// once per batch.
    #[inline]
    fn free(&mut self, want: u64) -> u64 {
        let mut free = self.ring.capacity() - (self.tail - self.cached_head);
        if free < want {
            self.cached_head = self.ring.head.0.load(Ordering::Acquire);
            free = self.ring.capacity() - (self.tail - self.cached_head);
        }
        free
    }

    /// Attempts to enqueue one value. Returns `false` if the ring is
    /// full (the caller decides whether that means shed, spin, or park).
    #[inline]
    pub fn try_push(&mut self, value: T) -> bool {
        if self.free(1) == 0 {
            return false;
        }
        unsafe { (*self.ring.slot(self.tail)).write(value) };
        self.tail += 1;
        self.ring.tail.0.store(self.tail, Ordering::Release);
        true
    }

    /// Enqueues as many leading elements of `values` as fit and makes
    /// them visible with a **single** release store (batch publish).
    /// Returns how many were enqueued.
    pub fn push_batch(&mut self, values: &[T]) -> usize {
        let n = (self.free(values.len() as u64) as usize).min(values.len());
        if n == 0 {
            return 0;
        }
        for (i, v) in values[..n].iter().enumerate() {
            unsafe { (*self.ring.slot(self.tail + i as u64)).write(*v) };
        }
        self.tail += n as u64;
        self.ring.tail.0.store(self.tail, Ordering::Release);
        n
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.producer_closed.store(true, Ordering::Release);
    }
}

/// The read end of a ring. `Send` but not `Sync`.
#[derive(Debug)]
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Local copy of the published head (only this side advances it).
    head: u64,
    /// Last tail value observed; refreshed only when the ring looks
    /// empty.
    cached_tail: u64,
}

impl<T: Copy> Consumer<T> {
    /// Events currently enqueued. Refreshes the cached tail from the
    /// shared index: one `Acquire` load, paid once per batch drain (or
    /// occupancy probe), not once per event.
    #[inline]
    pub fn backlog(&mut self) -> usize {
        self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
        (self.cached_tail - self.head) as usize
    }

    /// Whether the producer endpoint has been dropped. A closed ring can
    /// still hold a backlog: drain until [`Self::pop_chunk`] returns 0,
    /// *then* check this.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.ring.producer_closed.load(Ordering::Acquire)
    }

    /// Pops one value, if any. Re-reads the shared tail only when the
    /// cached copy says the ring is empty.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        if self.cached_tail == self.head && self.backlog() == 0 {
            return None;
        }
        let v = unsafe { (*self.ring.slot(self.head)).assume_init_read() };
        self.head += 1;
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(v)
    }

    /// Drains up to `max` values into `out` (appending), consuming them
    /// with a **single** release store. Returns how many were moved.
    pub fn pop_chunk(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.backlog().min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n as u64 {
            out.push(unsafe { (*self.ring.slot(self.head + i)).assume_init_read() });
        }
        self.head += n as u64;
        self.ring.head.0.store(self.head, Ordering::Release);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = ring::<u64>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = ring::<u64>(0);
        assert_eq!(p.capacity(), 2);
        let (p, _c) = ring::<u64>(16);
        assert_eq!(p.capacity(), 16);
    }

    #[test]
    fn fifo_single_thread() {
        let (mut p, mut c) = ring::<u64>(8);
        for i in 0..8 {
            assert!(p.try_push(i));
        }
        assert!(!p.try_push(99), "ring is full");
        for i in 0..8 {
            assert_eq!(c.try_pop(), Some(i));
        }
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn batch_publish_and_chunk_drain() {
        let (mut p, mut c) = ring::<u32>(8);
        let vals: Vec<u32> = (0..12).collect();
        // Only 8 fit.
        assert_eq!(p.push_batch(&vals), 8);
        let mut out = Vec::new();
        assert_eq!(c.pop_chunk(&mut out, 5), 5);
        assert_eq!(out, [0, 1, 2, 3, 4]);
        // Space freed: the remainder fits now.
        assert_eq!(p.push_batch(&vals[8..]), 4);
        assert_eq!(c.pop_chunk(&mut out, 64), 7);
        assert_eq!(out, (0..12).collect::<Vec<u32>>());
        assert_eq!(c.pop_chunk(&mut out, 64), 0);
    }

    #[test]
    fn close_is_visible_after_drain() {
        let (mut p, mut c) = ring::<u8>(4);
        assert!(p.try_push(7));
        assert!(!c.is_closed());
        drop(p);
        assert!(c.is_closed());
        // Backlog survives the close.
        assert_eq!(c.try_pop(), Some(7));
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn wraps_many_times() {
        let (mut p, mut c) = ring::<u64>(4);
        let mut next_out = 0u64;
        for i in 0..10_000u64 {
            assert!(p.try_push(i));
            if i % 3 == 0 {
                let mut out = Vec::new();
                c.pop_chunk(&mut out, 4);
                for v in out {
                    assert_eq!(v, next_out);
                    next_out += 1;
                }
            }
        }
    }
}
