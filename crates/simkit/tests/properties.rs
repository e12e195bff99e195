//! Property tests for the simulation substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::{quantile, Dist, EventQueue, IntervalCounter, SimDuration, SimRng, SimTime};

proptest! {
    /// Events pop in non-decreasing time order; equal times pop FIFO.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            popped += 1;
            if let Some((lt, lidx)) = last {
                prop_assert!(ev.at >= lt);
                if ev.at == lt {
                    // FIFO on ties: insertion index increases.
                    prop_assert!(ev.event > lidx);
                }
            }
            prop_assert!(q.now() >= ev.at);
            last = Some((ev.at, ev.event));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Interval counters conserve totals and bucket correctly.
    #[test]
    fn interval_counter_conserves(times in vec(0u64..100_000, 0..300), width in 1u64..5_000) {
        let mut c = IntervalCounter::new(SimDuration::from_micros(width));
        for &t in &times {
            c.record(SimTime::from_micros(t));
        }
        prop_assert_eq!(c.total(), times.len() as u64);
        for (idx, &count) in c.counts().iter().enumerate() {
            if count > 0 {
                let lo = idx as u64 * width;
                let hi = (idx as u64 + 1) * width;
                let in_bucket = times.iter().filter(|&&t| t >= lo && t < hi).count() as u64;
                prop_assert_eq!(count, in_bucket);
            }
        }
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_monotone(xs in vec(-1e9f64..1e9, 1..200)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.50).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(min <= q25 && q75 <= max);
    }

    /// Every distribution produces finite, non-negative samples, and
    /// forked RNG streams are reproducible.
    #[test]
    fn distributions_total_and_deterministic(seed in any::<u64>(), mean in 0.0f64..1e6) {
        let dists = [
            Dist::constant(mean),
            Dist::exponential(mean),
            Dist::normal(mean, mean / 2.0 + 1.0),
            Dist::uniform(0.0, mean + 1.0),
            Dist::zipf(100, 1.3),
        ];
        let mut a = SimRng::seed_from(seed).fork("x");
        let mut b = SimRng::seed_from(seed).fork("x");
        for d in &dists {
            for _ in 0..16 {
                let va = d.sample(&mut a);
                let vb = d.sample(&mut b);
                prop_assert!(va.is_finite() && va >= 0.0);
                prop_assert_eq!(va, vb);
            }
        }
    }
}
