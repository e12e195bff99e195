//! Streaming summary statistics.
//!
//! The paper reports means, standard deviations, and rate variation over
//! fixed intervals (Table 2, Figure 4(d)). [`OnlineStats`] is a Welford
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
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
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
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
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

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

    /// The configured interval width.
    #[inline]
    pub fn width(&self) -> SimDuration {
        self.width
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

    /// Relative variation of the per-interval rate: `(max - min) / max` over
    /// complete intervals, ignoring the (possibly partial) last one. Returns
    /// `None` with fewer than 2 complete intervals or an all-zero series.
    pub fn rate_variation(&self) -> Option<f64> {
        if self.counts.len() < 3 {
            return None;
        }
        let complete = &self.counts[..self.counts.len() - 1];
        let max = *complete.iter().max()?;
        let min = *complete.iter().min()?;
        if max == 0 {
            None
        } else {
            Some((max - min) as f64 / max as f64)
        }
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
    fn merge_equals_sequential() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        let mut a = OnlineStats::new();
        xs.iter().for_each(|&x| a.push(x));
        let mut b = OnlineStats::new();
        ys.iter().for_each(|&y| b.push(y));
        let mut both = OnlineStats::new();
        xs.iter().chain(&ys).for_each(|&v| both.push(v));
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert!((a.mean() - both.mean()).abs() < 1e-12);
        assert!((a.population_variance() - both.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(5.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
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
    fn rate_variation_detects_spread() {
        let mut c = IntervalCounter::new(SimDuration::from_secs(1));
        // Intervals: 10, 8, (partial) 1
        for _ in 0..10 {
            c.record(SimTime::from_millis(500));
        }
        for _ in 0..8 {
            c.record(SimTime::from_millis(1500));
        }
        c.record(SimTime::from_millis(2500));
        let v = c.rate_variation().unwrap();
        assert!((v - 0.2).abs() < 1e-12, "v = {v}");
    }

    #[test]
    fn rate_variation_needs_enough_intervals() {
        let mut c = IntervalCounter::new(SimDuration::from_secs(1));
        c.record(SimTime::from_millis(100));
        assert_eq!(c.rate_variation(), None);
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
