//! Streaming summary statistics.
//!
//! The paper reports means and standard deviations, and rates over fixed
//! intervals (Table 2, Figure 4(d)). [`OnlineStats`] is a Welford
//! accumulator; [`IntervalCounter`] buckets event counts into fixed-width
//! time intervals for "over time" analyses.

use crate::time::{SimDuration, SimTime};

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use simkit::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance with Bessel's correction (0 with < 2 observations).
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard deviation as a percentage of the mean (the form Table 2 of
    /// the paper reports); 0 when the mean is 0.
    pub fn std_dev_pct_of_mean(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.sample_std_dev() / m * 100.0
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Buckets event counts into fixed-width wall-clock intervals.
///
/// Used for the paper's "over time" surfaces (Figures 4(d), 6(c) use
/// 6-second intervals) and its observation that DBT-2's I/O rate varies by
/// ~15 % across a 2-minute window.
///
/// # Examples
///
/// ```
/// use simkit::{IntervalCounter, SimDuration, SimTime};
///
/// let mut c = IntervalCounter::new(SimDuration::from_secs(6));
/// c.record(SimTime::from_secs(1));
/// c.record(SimTime::from_secs(5));
/// c.record(SimTime::from_secs(7));
/// assert_eq!(c.counts(), &[2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalCounter {
    width: SimDuration,
    counts: Vec<u64>,
}

impl IntervalCounter {
    /// Creates a counter with the given interval width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "interval width must be positive");
        IntervalCounter {
            width,
            counts: Vec::new(),
        }
    }

    /// Records one event at time `t`.
    pub fn record(&mut self, t: SimTime) {
        let idx = (t.as_nanos() / self.width.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Per-interval event counts, from the first interval onward.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of a sample by sorting a copy;
/// linear interpolation between order statistics. Returns `None` when empty.
///
/// # Examples
///
/// ```
/// use simkit::quantile;
///
/// let xs = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [3.1, 0.2, 9.9, 4.4, 4.4, 1.0, 7.7];
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(0.2));
        assert_eq!(s.max(), Some(9.9));
    }

    #[test]
    fn std_dev_pct() {
        let mut s = OnlineStats::new();
        for x in [9.0, 10.0, 11.0] {
            s.push(x);
        }
        assert!((s.std_dev_pct_of_mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn interval_counter_buckets() {
        let mut c = IntervalCounter::new(SimDuration::from_micros(10));
        for us in [0u64, 9, 10, 25, 26, 27] {
            c.record(SimTime::from_micros(us));
        }
        assert_eq!(c.counts(), &[2, 1, 3]);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        let xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        assert_eq!(quantile(&xs, -1.0), Some(1.0));
        assert_eq!(quantile(&xs, 2.0), Some(4.0));
    }
}
