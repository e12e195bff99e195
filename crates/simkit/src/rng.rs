//! Deterministic random number generation for simulations.
//!
//! [`SimRng`] is a fixed, seedable generator (xoshiro256++, Blackman and
//! Vigna, 2019) that lives in this file, so every experiment in this
//! repository is reproducible from a single `u64` seed on any build of any
//! later commit. Independent sub-streams (one per VM, per workload thread,
//! …) are derived with [`SimRng::fork`] using a SplitMix64 step, so adding a
//! consumer never perturbs the draws seen by existing consumers.

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
    /// xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut state = seed;
        // SplitMix64 is a bijection, so at most one of the four words is
        // zero: the state is never xoshiro's all-zero fixed point.
        let s = std::array::from_fn(|_| expand(&mut state));
        SimRng { s, seed }
    }

    /// The next 64 bits of the stream (xoshiro256++).
    ///
    /// # Examples
    ///
    /// ```
    /// // The state is four SplitMix64 outputs of the seed, the seeding
    /// // xoshiro's authors recommend.
    /// assert_eq!(simkit::SimRng::seed_from(0).next_u64(), 0x5317_5D61_490B_23DF);
    /// ```
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
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

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Integer in `[lo, hi]` (inclusive), one draw reduced modulo the span
    /// (the bias, at most span / 2⁶⁴, is far below what any histogram here
    /// resolves).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo {lo} > hi {hi}");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.next_u64() % span,
            None => self.next_u64(),
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream is part of every seeded suite's output: these constants
    /// were recorded from the commit before the generator moved in-tree
    /// (PR 19), and a change that moves one of them changes every digest.
    #[test]
    fn generator_is_frozen() {
        // The reference implementation's vector: rotl(1 + 4, 23) + 1.
        let mut reference = SimRng {
            s: [1, 2, 3, 4],
            seed: 0,
        };
        assert_eq!(reference.next_u64(), 41_943_041);

        let mut zero = SimRng::seed_from(0);
        assert_eq!(
            std::array::from_fn(|_| zero.next_u64()),
            [
                0x5317_5D61_490B_23DF,
                0x61DA_6F3D_C380_D507,
                0x5C0F_DF91_EC9A_7BFC,
                0x02EE_BF8C_3BBE_5E1A,
            ]
        );

        let mut vm0 = SimRng::seed_from(11).fork("vm0");
        assert_eq!(vm0.seed(), 0x3DDE_9769_C5F7_8209);
        assert_eq!(
            std::array::from_fn(|_| vm0.next_u64()),
            [
                0x4B44_DEE5_509C_100C,
                0x29B2_28A8_0EE4_8B27,
                0xCD04_DAF1_6B7D_A2F5,
                0x2107_0163_DAA7_93BF,
            ]
        );
        assert_eq!(vm0.unit().to_bits(), 0x3FD1_EF21_B705_17DE);
        assert_eq!(vm0.range_inclusive(0, 9), 5);
        // The full span is one raw draw; a one-value span never overflows.
        assert_eq!(vm0.range_inclusive(0, u64::MAX), 0x372A_38BD_10EC_30BF);
        assert_eq!(vm0.range_inclusive(7, 7), 7);
        assert_eq!(vm0.range_inclusive(u64::MAX, u64::MAX), u64::MAX);
    }

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
