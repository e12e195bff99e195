//! The bounded-memory chunk ring between trace producers and the
//! background writer thread.
//!
//! Producers seal encoded blocks into chunks and push them here; one
//! writer thread pops and persists them. The ring holds at most
//! `max_chunks` chunks, so total queued memory is bounded no matter how
//! far the disk falls behind. A full ring is lossless until demoted:
//!
//! * While the writer keeps up, a producer that finds the ring full
//!   blocks until a slot frees (observation may now perturb the workload
//!   — the trade the paper's histograms exist to avoid) and nothing is
//!   lost.
//! * Once a producer has waited out the block budget, or a flush has
//!   timed out, the writer is presumed stuck and the ring is demoted, one
//!   way, to flight-recorder semantics: a full ring evicts its oldest
//!   queued chunk and the newest data survives.
//!
//! Every drop is accounted by cause in [`DropStats`]; silent loss is a
//! bug class this module is designed out of.

use crate::index::ZoneStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The crate's locks are taken through here. Ring and writer state are
/// counters and a queue, valid after every statement, so a producer or the
/// writer that panicked must not take the other side down through poison.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Backpressure accounting, split by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Chunks a demoted ring evicted, oldest first, to make room.
    pub oldest_chunks: u64,
    /// Records inside those evicted chunks.
    pub oldest_records: u64,
    /// Chunks discarded because the ring had already shut down.
    pub closed_chunks: u64,
    /// Records inside those discarded chunks.
    pub closed_records: u64,
    /// Producer wait episodes on a full, not yet demoted ring.
    pub block_waits: u64,
}

impl DropStats {
    /// Total records lost to backpressure (any cause).
    pub fn dropped_records(&self) -> u64 {
        self.oldest_records + self.closed_records
    }
}

/// A message through the ring: data chunk or control marker.
pub(crate) enum Msg {
    /// One sealed block payload plus its record count and the zone map
    /// accumulated producer-side (the writer never decodes its own
    /// chunks; the index sidecar gets its stats from here).
    Chunk {
        payload: Vec<u8>,
        records: u32,
        stats: ZoneStats,
    },
    /// Flush request; the writer acks on the sender once durable.
    Flush(Sender<()>),
    /// Orderly shutdown; the writer finalizes and exits.
    Shutdown,
}

struct RingState {
    queue: VecDeque<Msg>,
    /// Chunks currently queued (control messages are not counted against
    /// the capacity bound).
    chunks: usize,
    closed: bool,
    drops: DropStats,
}

/// Bounded multi-producer single-consumer chunk queue (see module docs).
pub(crate) struct ChunkRing {
    state: Mutex<RingState>,
    not_full: Condvar,
    not_empty: Condvar,
    max_chunks: usize,
    /// Longest a producer will wait for the writer before the watchdog
    /// demotes the ring (see [`Self::demote_to_drop_oldest`]).
    block_budget: Duration,
    /// Whether the watchdog demoted the ring from blocking to evicting
    /// its oldest chunk (one-way; surfaced in reports so demotion is
    /// never silent).
    demoted: AtomicBool,
    /// Watchdog trips: expired block waits plus demotions requested by the
    /// store's flush watchdog.
    watchdog_trips: AtomicU64,
    /// Allocated bytes of queued chunks, maintained outside the lock so
    /// footprint probes never contend with the writer.
    queued_bytes: AtomicUsize,
}

impl std::fmt::Debug for ChunkRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkRing")
            .field("max_chunks", &self.max_chunks)
            .field("demoted", &self.demoted.load(Ordering::Relaxed))
            .field("queued_bytes", &self.queued_bytes.load(Ordering::Relaxed))
            .finish()
    }
}

impl ChunkRing {
    pub(crate) fn new(max_chunks: usize, block_budget: Duration) -> Self {
        ChunkRing {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                chunks: 0,
                closed: false,
                drops: DropStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            max_chunks: max_chunks.max(1),
            block_budget,
            demoted: AtomicBool::new(false),
            watchdog_trips: AtomicU64::new(0),
            queued_bytes: AtomicUsize::new(0),
        }
    }

    /// Whether the watchdog demoted the ring to evicting its oldest chunk.
    pub(crate) fn is_demoted(&self) -> bool {
        self.demoted.load(Ordering::Acquire)
    }

    /// Watchdog trips recorded against this ring.
    pub(crate) fn watchdog_trips(&self) -> u64 {
        self.watchdog_trips.load(Ordering::Acquire)
    }

    /// Demotes the ring and counts a watchdog trip: the stuck-writer
    /// escape hatch. Producers stop waiting and start paying with the
    /// *oldest* queued data — flight-recorder semantics — which keeps the
    /// traced workload live at the price of explicit, accounted drops.
    /// One-way: a writer that later recovers leaves the ring demoted (the
    /// trace is already lossy; un-demoting would only hide that).
    pub(crate) fn demote_to_drop_oldest(&self) {
        self.watchdog_trips.fetch_add(1, Ordering::AcqRel);
        self.demoted.store(true, Ordering::Release);
        // Wake any producer parked in a block wait so it re-evaluates.
        self.not_full.notify_all();
    }

    /// Evicts queued chunks, oldest first, until a slot is free. Caller
    /// holds the state lock.
    fn evict_oldest_locked(&self, state: &mut RingState) {
        while state.chunks >= self.max_chunks {
            let Some(idx) = state
                .queue
                .iter()
                .position(|m| matches!(m, Msg::Chunk { .. }))
            else {
                break;
            };
            let Some(Msg::Chunk {
                payload, records, ..
            }) = state.queue.remove(idx)
            else {
                unreachable!("position() found a chunk at idx");
            };
            state.chunks -= 1;
            state.drops.oldest_chunks += 1;
            state.drops.oldest_records += u64::from(records);
            self.queued_bytes
                .fetch_sub(payload.capacity(), Ordering::Relaxed);
        }
    }

    /// Offers a sealed chunk: when the ring is full, waits for the writer
    /// (up to the block budget) unless demoted, then evicts the oldest.
    pub(crate) fn push_chunk(&self, payload: Vec<u8>, records: u32, stats: ZoneStats) {
        let mut state = lock(&self.state);
        if state.closed {
            state.drops.closed_chunks += 1;
            state.drops.closed_records += u64::from(records);
            return;
        }
        if state.chunks >= self.max_chunks {
            if !self.is_demoted() {
                state.drops.block_waits += 1;
                // Bounded wait: a producer is never on the hook for more
                // than the block budget. If the writer has not freed a
                // slot by then it is presumed stuck and the watchdog
                // demotes the ring.
                let deadline = Instant::now() + self.block_budget;
                let mut expired = false;
                while state.chunks >= self.max_chunks && !state.closed && !self.is_demoted() {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let (guard, wait) = self
                        .not_full
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = guard;
                    if wait.timed_out() {
                        expired = true;
                        break;
                    }
                }
                if state.closed {
                    state.drops.closed_chunks += 1;
                    state.drops.closed_records += u64::from(records);
                    return;
                }
                if expired && state.chunks >= self.max_chunks {
                    self.demote_to_drop_oldest();
                }
            }
            // Demoted (by this wait, concurrently, or earlier): make room
            // by evicting the oldest.
            self.evict_oldest_locked(&mut state);
        }
        self.queued_bytes
            .fetch_add(payload.capacity(), Ordering::Relaxed);
        state.chunks += 1;
        state.queue.push_back(Msg::Chunk {
            payload,
            records,
            stats,
        });
        drop(state);
        self.not_empty.notify_one();
    }

    /// Enqueues a control message (never counted against capacity).
    /// Returns `false` if the ring has already shut down.
    pub(crate) fn push_control(&self, msg: Msg) -> bool {
        let mut state = lock(&self.state);
        if state.closed {
            return false;
        }
        state.queue.push_back(msg);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Blocks for the next message; `None` once the ring is closed and
    /// drained.
    pub(crate) fn pop(&self) -> Option<Msg> {
        let mut state = lock(&self.state);
        loop {
            if let Some(msg) = state.queue.pop_front() {
                if let Msg::Chunk { payload, .. } = &msg {
                    state.chunks -= 1;
                    self.queued_bytes
                        .fetch_sub(payload.capacity(), Ordering::Relaxed);
                    self.not_full.notify_all();
                }
                return Some(msg);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks the ring closed: subsequent chunk pushes are dropped (and
    /// accounted), blocked producers wake, and `pop` drains then ends.
    pub(crate) fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Snapshot of the drop accounting.
    pub(crate) fn drops(&self) -> DropStats {
        lock(&self.state).drops
    }

    /// Allocated bytes of the chunks currently queued.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A block budget no test is expected to exhaust: the ring stays
    /// lossless unless the test demotes it.
    const LONG: Duration = Duration::from_secs(60);

    fn chunk(n: u8) -> Vec<u8> {
        vec![n; 8]
    }

    #[test]
    fn expired_block_wait_demotes_to_drop_oldest() {
        // No consumer at all: the worst writer stall. A producer must be
        // on the hook for at most the budget, then the watchdog demotes
        // the ring and the push lands by evicting the oldest chunk.
        let ring = ChunkRing::new(1, Duration::from_millis(20));
        ring.push_chunk(chunk(0), 3, ZoneStats::empty());
        assert!(!ring.is_demoted());
        // Fills → blocks → budget expires → demotion + eviction.
        ring.push_chunk(chunk(1), 3, ZoneStats::empty());
        assert!(ring.is_demoted());
        assert!(ring.watchdog_trips() >= 1);
        // Subsequent pushes never wait again.
        ring.push_chunk(chunk(2), 3, ZoneStats::empty());
        let drops = ring.drops();
        assert_eq!(drops.block_waits, 1);
        assert_eq!(drops.oldest_chunks, 2);
        assert_eq!(drops.oldest_records, 6);
        // The newest chunk is the one queued.
        let Some(Msg::Chunk { payload, .. }) = ring.pop() else {
            panic!("expected queued chunk");
        };
        assert_eq!(payload[0], 2);
    }

    #[test]
    fn explicit_demotion_wakes_blocked_producer() {
        let ring = Arc::new(ChunkRing::new(1, LONG));
        ring.push_chunk(chunk(0), 1, ZoneStats::empty());
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_chunk(chunk(1), 1, ZoneStats::empty()))
        };
        // Let the producer park, then demote (as the store's flush
        // watchdog would); the producer must complete via eviction.
        std::thread::sleep(Duration::from_millis(20));
        ring.demote_to_drop_oldest();
        producer.join().unwrap();
        assert!(ring.is_demoted());
        assert_eq!(ring.drops().oldest_chunks, 1);
    }

    #[test]
    fn drop_oldest_keeps_newest() {
        let ring = ChunkRing::new(2, LONG);
        ring.demote_to_drop_oldest();
        for i in 0..5u8 {
            ring.push_chunk(chunk(i), 10, ZoneStats::empty());
        }
        let drops = ring.drops();
        assert_eq!(drops.oldest_chunks, 3);
        assert_eq!(drops.oldest_records, 30);
        // The two newest chunks survive, in order.
        let kept: Vec<u8> = std::iter::from_fn(|| match ring.pop() {
            Some(Msg::Chunk { payload, .. }) => Some(payload[0]),
            _ => None,
        })
        .take(2)
        .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn block_policy_waits_for_consumer_and_loses_nothing() {
        let ring = Arc::new(ChunkRing::new(2, LONG));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..20u8 {
                    ring.push_chunk(chunk(i), 1, ZoneStats::empty());
                }
            })
        };
        // Drain only once the producer has filled both slots and stalled
        // on the third chunk, so the stall is certain rather than likely.
        while ring.drops().block_waits == 0 {
            std::thread::yield_now();
        }
        let mut seen = Vec::new();
        while seen.len() < 20 {
            if let Some(Msg::Chunk { payload, .. }) = ring.pop() {
                seen.push(payload[0]);
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..20u8).collect::<Vec<u8>>());
        assert_eq!(ring.drops().dropped_records(), 0);
        assert!(
            ring.drops().block_waits > 0,
            "2-slot ring must have stalled"
        );
    }

    #[test]
    fn close_unblocks_producer_and_accounts_drops() {
        let ring = Arc::new(ChunkRing::new(1, LONG));
        ring.push_chunk(chunk(0), 5, ZoneStats::empty());
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push_chunk(chunk(1), 5, ZoneStats::empty()))
        };
        // Give the producer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.close();
        producer.join().unwrap();
        assert_eq!(ring.drops().closed_records, 5);
        // The queued chunk still drains.
        assert!(matches!(ring.pop(), Some(Msg::Chunk { .. })));
        assert!(ring.pop().is_none(), "closed and drained");
        assert!(!ring.push_control(Msg::Shutdown));
    }

    #[test]
    fn queued_bytes_tracks_capacity() {
        let ring = ChunkRing::new(4, LONG);
        assert_eq!(ring.queued_bytes(), 0);
        let payload = Vec::with_capacity(128);
        ring.push_chunk(payload, 0, ZoneStats::empty());
        assert_eq!(ring.queued_bytes(), 128);
        let _ = ring.pop();
        assert_eq!(ring.queued_bytes(), 0);
    }
}
