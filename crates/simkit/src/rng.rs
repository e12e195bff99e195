//! Deterministic random number generation for simulations.
//!
//! [`SimRng`] wraps a fixed, seedable generator so that every experiment in
//! this repository is reproducible from a single `u64` seed. Independent
//! sub-streams (one per VM, per workload thread, …) are derived with
//! [`SimRng::fork`] using a SplitMix64 step, so adding a consumer never
//! perturbs the draws seen by existing consumers.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele et al., 2014) as a pure mixer: the output of the
/// generator whose state is `x`. The workspace's one seeded-decision
/// primitive — keyed coins, jitter, and synthetic streams are all
/// `splitmix64(seed ^ key)`, so a decision depends on nothing but its key.
///
/// # Examples
///
/// ```
/// assert_eq!(simkit::splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateful form, the de-facto standard seed expander: returns the
/// stream's next output and advances `state`.
#[inline]
fn expand(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

/// A deterministic RNG with cheap independent sub-stream derivation.
///
/// # Examples
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.unit(), b.unit());
///
/// // Forked streams are independent of the parent's subsequent draws.
/// let mut child = a.fork("vm0");
/// let _ = child.unit();
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&expand(&mut state).to_le_bytes());
        }
        SimRng {
            inner: StdRng::from_seed(bytes),
            seed,
        }
    }

    /// The seed this generator was created from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// The child's seed depends only on this generator's *seed* and the
    /// label, never on how many values the parent has drawn, so consumer
    /// streams are stable as the simulation grows.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut state = self.seed ^ 0xA076_1D64_78BD_642F;
        for b in label.as_bytes() {
            state = expand(&mut state) ^ u64::from(*b);
        }
        SimRng::seed_from(expand(&mut state))
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo {lo} > hi {hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        let i = self.range_inclusive(0, items.len() as u64 - 1) as usize;
        &items[i]
    }

    /// Picks an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "pick_weighted needs positive total weight"
        );
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_stable_under_parent_draws() {
        let mut parent1 = SimRng::seed_from(99);
        let parent2 = SimRng::seed_from(99);
        // Drain some values from parent1 only.
        for _ in 0..10 {
            parent1.next_u64();
        }
        let mut c1 = parent1.fork("disk0");
        let mut c2 = parent2.fork("disk0");
        for _ in 0..16 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn fork_labels_are_independent() {
        let parent = SimRng::seed_from(5);
        let mut a = parent.fork("a");
        let mut b = parent.fork("b");
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn unit_in_range() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_inclusive_hits_bounds() {
        let mut rng = SimRng::seed_from(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            match rng.range_inclusive(0, 3) {
                0 => seen_lo = true,
                3 => seen_hi = true,
                1 | 2 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        // Out-of-range p is clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn pick_weighted_respects_zero_weight() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..200 {
            let i = rng.pick_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn pick_weighted_rough_proportions() {
        let mut rng = SimRng::seed_from(8);
        let mut counts = [0u32; 2];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&[1.0, 3.0])] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "frac = {frac}");
    }
}
