//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a min-heap of `(SimTime, sequence, E)` entries. Ties in
//! time are broken by insertion order, which makes simulations fully
//! deterministic for a fixed seed and schedule.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a particular instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number used to break ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Internal heap entry; ordering is *reversed* so `BinaryHeap` (a max-heap)
/// pops the earliest event first.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest (smallest) time first, then smallest sequence.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list for discrete-event simulation.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in time order; equal-time events pop in insertion order.
///
/// # Examples
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "late");
/// q.schedule(SimTime::from_micros(10), "early");
/// q.schedule(SimTime::from_micros(10), "early-2");
///
/// let a = q.pop().unwrap();
/// assert_eq!((a.at, a.event), (SimTime::from_micros(10), "early"));
/// let b = q.pop().unwrap();
/// assert_eq!(b.event, "early-2");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `at`, returning its sequence number.
    ///
    /// Scheduling in the past is allowed (the event fires "immediately", i.e.
    /// before anything with a later timestamp) but usually indicates a model
    /// bug; [`EventQueue::pop`] never moves the clock backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        seq
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp (the clock never moves backwards).
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        if entry.at > self.now {
            self.now = entry.at;
        }
        Some(Scheduled {
            at: entry.at,
            seq: entry.seq,
            event: entry.event,
        })
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &us in &[50u64, 10, 40, 20, 30] {
            q.schedule(SimTime::from_micros(us), us);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.schedule(SimTime::from_micros(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
        // Scheduling in the past does not rewind the clock.
        q.schedule(SimTime::from_micros(1), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(10));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(7), ());
        q.schedule(SimTime::from_micros(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
    }
}
