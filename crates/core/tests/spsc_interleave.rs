//! Seeded-interleaving model check for the SPSC ring's publish/drain
//! protocol, plus real two-thread stress.
//!
//! The container has no `loom`, so the protocol is exercised two ways:
//!
//! * **Model check**: a seeded scheduler interleaves producer and
//!   consumer *steps* (push, batch-push, pop, chunk-pop, length probes)
//!   in one thread against a `VecDeque` oracle. Every observable —
//!   values, order, occupancy bounds, full/empty outcomes — must match
//!   the oracle at every step. The schedule is derived from a SplitMix64
//!   stream, so a failure reproduces from its seed. CI sweeps more seeds
//!   via `SPSC_INTERLEAVE_SEEDS`.
//! * **Stress**: real producer/consumer threads move a monotone sequence
//!   through a small ring with randomized batch sizes; the consumer
//!   asserts it sees exactly `0..n` in order (FIFO + no loss + no
//!   duplication through actual data races, if any existed).

use std::collections::VecDeque;
use vscsi_stats::spsc;

/// Next draw of the SplitMix64 stream at `state`.
fn draw(state: &mut u64) -> u64 {
    let out = simkit::splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    out
}

/// How many schedules to run: 16 locally, more in CI (the dedicated
/// interleaving job sets `SPSC_INTERLEAVE_SEEDS`).
fn seed_count() -> u64 {
    std::env::var("SPSC_INTERLEAVE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn run_schedule(seed: u64) {
    let mut rng = seed;
    let cap_pow = 1 + (draw(&mut rng) % 5); // capacity 2..=32
    let capacity = 1usize << cap_pow;
    let (mut prod, mut cons) = spsc::ring::<u64>(capacity);
    assert_eq!(prod.capacity(), capacity);

    let mut oracle: VecDeque<u64> = VecDeque::new();
    let mut next_in: u64 = 0;
    let mut scratch: Vec<u64> = Vec::new();

    for step in 0..4_000 {
        match draw(&mut rng) % 6 {
            // try_push: succeeds iff the oracle has space.
            0 | 1 => {
                let pushed = prod.try_push(next_in);
                assert_eq!(
                    pushed,
                    oracle.len() < capacity,
                    "seed {seed} step {step}: push outcome diverged from oracle"
                );
                if pushed {
                    oracle.push_back(next_in);
                    next_in += 1;
                }
            }
            // push_batch: moves exactly the free space, no more.
            2 => {
                let want = (draw(&mut rng) % (2 * capacity as u64) + 1) as usize;
                let vals: Vec<u64> = (next_in..next_in + want as u64).collect();
                let n = prod.push_batch(&vals);
                assert_eq!(
                    n,
                    want.min(capacity - oracle.len()),
                    "seed {seed} step {step}: batch push size diverged"
                );
                for v in &vals[..n] {
                    oracle.push_back(*v);
                }
                next_in += n as u64;
            }
            // try_pop: agrees with the oracle's front.
            3 => {
                assert_eq!(
                    cons.try_pop(),
                    oracle.pop_front(),
                    "seed {seed} step {step}: pop diverged"
                );
            }
            // pop_chunk: drains min(max, occupancy) in order.
            4 => {
                let max = (draw(&mut rng) % (capacity as u64 + 2)) as usize;
                scratch.clear();
                let n = cons.pop_chunk(&mut scratch, max);
                assert_eq!(
                    n,
                    max.min(oracle.len()),
                    "seed {seed} step {step}: chunk size diverged"
                );
                for got in &scratch {
                    assert_eq!(
                        Some(*got),
                        oracle.pop_front(),
                        "seed {seed} step {step}: chunk order diverged"
                    );
                }
            }
            // Occupancy probes stay consistent with the oracle.
            _ => {
                assert_eq!(prod.len(), oracle.len(), "seed {seed} step {step}: len");
                assert_eq!(prod.is_empty(), oracle.is_empty());
                assert!(!cons.is_closed());
            }
        }
    }

    // Drain the tail; the ring must end exactly where the oracle does.
    drop(prod);
    scratch.clear();
    while cons.pop_chunk(&mut scratch, 8) > 0 {}
    for got in &scratch {
        assert_eq!(Some(*got), oracle.pop_front(), "seed {seed}: final drain");
    }
    assert!(
        oracle.is_empty(),
        "seed {seed}: oracle has undrained events"
    );
    assert!(cons.is_closed(), "seed {seed}: close not visible");
}

#[test]
fn seeded_interleavings_match_oracle() {
    for seed in 0..seed_count() {
        run_schedule(0xC0FF_EE00 ^ (seed.wrapping_mul(0x9E37_79B9)));
    }
}

#[test]
fn two_thread_fifo_stress() {
    const TOTAL: u64 = 200_000;
    for (capacity, batch) in [(4usize, 1usize), (64, 7), (1024, 16)] {
        let (mut prod, mut cons) = spsc::ring::<u64>(capacity);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut rng = 0x5EEDu64 ^ capacity as u64;
            while next < TOTAL {
                let want = 1 + (draw(&mut rng) % batch as u64);
                let hi = (next + want).min(TOTAL);
                let vals: Vec<u64> = (next..hi).collect();
                let mut sent = 0;
                while sent < vals.len() {
                    let n = prod.push_batch(&vals[sent..]);
                    sent += n;
                    if n == 0 {
                        // One CPU is a real possibility in CI containers:
                        // yield the timeslice instead of spinning it out.
                        std::thread::yield_now();
                    }
                }
                next = hi;
            }
            // Dropping the producer closes the ring.
        });
        let mut seen = 0u64;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let n = cons.pop_chunk(&mut buf, batch.max(3));
            for v in &buf {
                assert_eq!(*v, seen, "capacity {capacity}: FIFO violated");
                seen += 1;
            }
            if n == 0 {
                if cons.is_closed() && cons.backlog() == 0 {
                    break;
                }
                std::thread::yield_now();
            }
        }
        assert_eq!(
            seen, TOTAL,
            "capacity {capacity}: lost or duplicated events"
        );
        producer.join().unwrap();
    }
}

#[test]
fn stress_with_yields_under_one_core() {
    // The container may have a single CPU: make sure the protocol also
    // completes when the two sides only ever run alternately (pure
    // time-slicing, worst-case cache behavior for the cached indices).
    const TOTAL: u64 = 20_000;
    let (mut prod, mut cons) = spsc::ring::<u64>(8);
    let producer = std::thread::spawn(move || {
        for i in 0..TOTAL {
            while !prod.try_push(i) {
                std::thread::yield_now();
            }
        }
    });
    let mut seen = 0u64;
    while seen < TOTAL {
        match cons.try_pop() {
            Some(v) => {
                assert_eq!(v, seen);
                seen += 1;
            }
            None => std::thread::yield_now(),
        }
    }
    producer.join().unwrap();
    assert_eq!(cons.try_pop(), None);
}
