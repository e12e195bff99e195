//! Sampling distributions used by workload and device models.
//!
//! [`Dist`] is a small, serializable algebra of distributions over
//! non-negative `f64` values. Workload configuration files (think-time,
//! request-size, transaction-mix parameters) use it so experiments can vary
//! shape without code changes.

use crate::rng::SimRng;

/// A distribution over non-negative `f64` values.
///
/// All samples are clamped to be `>= 0` and finite, which is the only domain
/// the simulators need (times, sizes, counts).
///
/// # Examples
///
/// ```
/// use simkit::{Dist, SimRng};
///
/// let mut rng = SimRng::seed_from(1);
/// let d = Dist::uniform(10.0, 20.0);
/// let x = d.sample(&mut rng);
/// assert!((10.0..20.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean (rate = 1/mean); mean 0 degenerates
    /// to constant 0.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Normal clamped at zero.
    Normal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        std_dev: f64,
    },
    /// Log-normal parameterized by the *underlying* normal's `mu`/`sigma`.
    LogNormal {
        /// Mean of the underlying normal (of the logarithm).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto (heavy-tailed) with scale `x_min > 0` and shape `alpha > 0`.
    Pareto {
        /// Minimum value (scale).
        x_min: f64,
        /// Tail index (shape); smaller is heavier-tailed.
        alpha: f64,
    },
    /// A finite mixture: pick a value from `values` with matching `weights`.
    Choice {
        /// Candidate values.
        values: Vec<f64>,
        /// Non-negative weights, same length as `values`.
        weights: Vec<f64>,
    },
    /// Zipf over ranks `1..=n` with exponent `s > 0`: rank `k` has
    /// probability proportional to `1 / k^s`. Classic model for skewed
    /// access popularity (hot database rows, popular files).
    Zipf {
        /// Number of ranks.
        n: u64,
        /// Skew exponent; larger is more skewed.
        s: f64,
    },
}

impl Dist {
    /// A distribution that always yields `v`.
    pub fn constant(v: f64) -> Dist {
        Dist::Constant(v)
    }

    /// Uniform over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds"
        );
        Dist::Uniform { lo, hi }
    }

    /// Exponential with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn exponential(mean: f64) -> Dist {
        assert!(mean.is_finite() && mean >= 0.0, "bad exponential mean");
        Dist::Exponential { mean }
    }

    /// Normal clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn normal(mean: f64, std_dev: f64) -> Dist {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "bad normal parameters"
        );
        Dist::Normal { mean, std_dev }
    }

    /// Weighted choice among fixed values.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, the slice is empty, or total weight is zero.
    pub fn choice(values: Vec<f64>, weights: Vec<f64>) -> Dist {
        assert_eq!(values.len(), weights.len(), "choice arity mismatch");
        assert!(!values.is_empty(), "empty choice");
        assert!(weights.iter().sum::<f64>() > 0.0, "zero total weight");
        Dist::Choice { values, weights }
    }

    /// Zipf over ranks `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not positive and finite.
    pub fn zipf(n: u64, s: f64) -> Dist {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "bad zipf exponent");
        Dist::Zipf { n, s }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let raw = match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => lo + rng.unit() * (hi - lo),
            Dist::Exponential { mean } => {
                if *mean == 0.0 {
                    0.0
                } else {
                    // Inverse CDF; 1-u avoids ln(0).
                    -mean * (1.0 - rng.unit()).ln()
                }
            }
            Dist::Normal { mean, std_dev } => mean + std_dev * gaussian(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * gaussian(rng)).exp(),
            Dist::Pareto { x_min, alpha } => {
                let u = 1.0 - rng.unit();
                x_min / u.powf(1.0 / alpha)
            }
            Dist::Choice { values, weights } => values[rng.pick_weighted(weights)],
            Dist::Zipf { n, s } => zipf_sample(rng, *n, *s) as f64,
        };
        if raw.is_finite() {
            raw.max(0.0)
        } else {
            0.0
        }
    }

    /// The distribution's theoretical mean where it has one (Pareto with
    /// `alpha <= 1` returns `None`).
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(v) => Some(*v),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Exponential { mean } => Some(*mean),
            Dist::Normal { mean, .. } => Some(*mean),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Pareto { x_min, alpha } => (*alpha > 1.0).then(|| alpha * x_min / (alpha - 1.0)),
            Dist::Choice { values, weights } => {
                let total: f64 = weights.iter().sum();
                Some(values.iter().zip(weights).map(|(v, w)| v * w / total).sum())
            }
            Dist::Zipf { n, s } => {
                // Exact finite sums; n is bounded in practice.
                let h_s: f64 = (1..=*n).map(|k| 1.0 / (k as f64).powf(*s)).sum();
                let h_s1: f64 = (1..=*n).map(|k| 1.0 / (k as f64).powf(*s - 1.0)).sum();
                Some(h_s1 / h_s)
            }
        }
    }
}

/// Zipf sampling via the rejection-inversion method of Hörmann & Derflinger
/// (1996) — O(1) per sample, no precomputed tables.
fn zipf_sample(rng: &mut SimRng, n: u64, s: f64) -> u64 {
    if n == 1 {
        return 1;
    }
    // Helper: the integral H(x) of the density 1/x^s, and its inverse.
    let h = |x: f64| -> f64 {
        if (s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    };
    let h_inv = |u: f64| -> f64 {
        if (s - 1.0).abs() < 1e-12 {
            u.exp()
        } else {
            (1.0 + u * (1.0 - s)).powf(1.0 / (1.0 - s))
        }
    };
    let h_x1 = h(1.5) - 1.0;
    let h_n = h(n as f64 + 0.5);
    loop {
        let u = h_x1 + rng.unit() * (h_n - h_x1);
        let x = h_inv(u);
        let k = (x + 0.5).floor().clamp(1.0, n as f64);
        // Acceptance test.
        if u >= h(k + 0.5) - (1.0 / k.powf(s)) {
            return k as u64;
        }
    }
}

/// Standard normal draw via Box–Muller.
fn gaussian(rng: &mut SimRng) -> f64 {
    let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut rng = SimRng::seed_from(0xD15B);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::constant(3.5);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::uniform(5.0, 9.0);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((5.0..9.0).contains(&x));
        }
        assert!((sample_mean(&d, 20_000) - 7.0).abs() < 0.1);
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Dist::exponential(40.0);
        let m = sample_mean(&d, 50_000);
        assert!((m - 40.0).abs() < 1.5, "mean = {m}");
        assert_eq!(
            Dist::exponential(0.0).sample(&mut SimRng::seed_from(1)),
            0.0
        );
    }

    #[test]
    fn normal_clamped_nonnegative() {
        let d = Dist::normal(1.0, 10.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_positive_and_mean() {
        let d = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        let mut rng = SimRng::seed_from(4);
        for _ in 0..100 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let want = d.mean().unwrap();
        let got = sample_mean(&d, 50_000);
        assert!((got - want).abs() / want < 0.05, "got {got} want {want}");
    }

    #[test]
    fn pareto_exceeds_scale() {
        let d = Dist::Pareto {
            x_min: 8.0,
            alpha: 2.0,
        };
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 8.0);
        }
        assert_eq!(d.mean(), Some(16.0));
        assert_eq!(
            Dist::Pareto {
                x_min: 1.0,
                alpha: 0.5
            }
            .mean(),
            None
        );
    }

    #[test]
    fn choice_mixture() {
        let d = Dist::choice(vec![4096.0, 8192.0], vec![3.0, 1.0]);
        let mut rng = SimRng::seed_from(6);
        let mut small = 0u32;
        for _ in 0..10_000 {
            if d.sample(&mut rng) == 4096.0 {
                small += 1;
            }
        }
        let frac = f64::from(small) / 10_000.0;
        assert!((0.70..0.80).contains(&frac), "frac = {frac}");
        assert_eq!(d.mean(), Some(4096.0 * 0.75 + 8192.0 * 0.25));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Dist::zipf(1000, 1.2);
        let mut rng = SimRng::seed_from(10);
        let mut rank1 = 0u32;
        let n = 20_000;
        for _ in 0..n {
            let v = d.sample(&mut rng);
            assert!((1.0..=1000.0).contains(&v), "v = {v}");
            assert_eq!(v.fract(), 0.0, "zipf yields integer ranks");
            if v == 1.0 {
                rank1 += 1;
            }
        }
        // Theoretical P(1) for n=1000, s=1.2 is ~0.18; allow slack.
        let frac = f64::from(rank1) / f64::from(n);
        assert!((0.12..0.25).contains(&frac), "P(rank 1) = {frac}");
    }

    #[test]
    fn zipf_mean_matches_theory() {
        let d = Dist::zipf(100, 1.5);
        let want = d.mean().unwrap();
        let got = sample_mean(&d, 50_000);
        assert!((got - want).abs() / want < 0.05, "got {got} want {want}");
        // Degenerate single-rank case.
        assert_eq!(Dist::zipf(1, 2.0).sample(&mut SimRng::seed_from(1)), 1.0);
        // s = 1 exercises the logarithmic branch.
        let d1 = Dist::zipf(50, 1.0);
        let got1 = sample_mean(&d1, 50_000);
        let want1 = d1.mean().unwrap();
        assert!(
            (got1 - want1).abs() / want1 < 0.05,
            "got {got1} want {want1}"
        );
    }

    #[test]
    #[should_panic(expected = "bad zipf exponent")]
    fn zipf_validates() {
        let _ = Dist::zipf(10, 0.0);
    }

    #[test]
    #[should_panic(expected = "bad uniform bounds")]
    fn uniform_validates() {
        let _ = Dist::uniform(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "choice arity mismatch")]
    fn choice_validates() {
        let _ = Dist::choice(vec![1.0], vec![]);
    }
}
