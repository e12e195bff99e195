//! The online histogram itself.
//!
//! Following §3 of the paper: inserting a command's metric value is a single
//! bin lookup + counter increment — O(1) CPU and O(m) space where m is the
//! (small, fixed) number of bins, versus O(n) space for a trace.

use crate::bins::{BinEdges, BinEdgesError};
use std::fmt;

/// Error returned by operations combining two histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The two histograms use different bin layouts.
    LayoutMismatch,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::LayoutMismatch => write!(f, "histogram bin layouts differ"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A constant-space online histogram over signed 64-bit values.
///
/// In addition to the per-bin counts the histogram tracks exact running
/// `min`, `max`, count and sum, so exact means are available alongside the
/// binned distribution (this mirrors what `vscsiStats` exports).
///
/// # Examples
///
/// ```
/// use histo::Histogram;
///
/// let mut h = Histogram::with_edges(vec![0, 10, 100])?;
/// for v in [-5, 0, 3, 50, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.counts(), &[2, 1, 1, 1]); // <=0, (0,10], (10,100], >100
/// assert_eq!(h.min(), Some(-5));
/// assert_eq!(h.max(), Some(1000));
/// # Ok::<(), histo::BinEdgesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    edges: BinEdges,
    counts: Vec<u64>,
    total: u64,
    sum: i128,
    min: i64,
    max: i64,
}

impl Histogram {
    /// Creates an empty histogram over the given layout.
    pub fn new(edges: BinEdges) -> Self {
        let bins = edges.bin_count();
        Histogram {
            edges,
            counts: vec![0; bins],
            total: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Creates an empty histogram from raw inclusive upper bounds.
    ///
    /// # Errors
    ///
    /// Returns an error if the edges are empty or not strictly increasing.
    pub fn with_edges(edges: Vec<i64>) -> Result<Self, BinEdgesError> {
        Ok(Histogram::new(BinEdges::new(edges)?))
    }

    /// Reassembles a histogram from externally maintained state: a layout,
    /// per-bin counts, the exact running sum, and `Some((min, max))` when at
    /// least one value was observed. The total is derived from `counts`.
    ///
    /// This is how the stats collector materializes `Histogram` views from
    /// its flat counter slab at snapshot time — the hot path only bumps slab
    /// counters and never holds `Histogram`s.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != edges.bin_count()`.
    pub fn from_parts(
        edges: BinEdges,
        counts: Vec<u64>,
        sum: i128,
        min_max: Option<(i64, i64)>,
    ) -> Self {
        assert_eq!(
            counts.len(),
            edges.bin_count(),
            "count vector does not match bin layout"
        );
        let total = counts.iter().sum();
        let (min, max) = min_max.unwrap_or((i64::MAX, i64::MIN));
        Histogram {
            edges,
            counts,
            total,
            sum,
            min,
            max,
        }
    }

    /// The bin layout.
    #[inline]
    pub fn edges(&self) -> &BinEdges {
        &self.edges
    }

    /// Records one observation. O(m) in the (constant) bin count.
    #[inline]
    pub fn record(&mut self, value: i64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations.
    pub(crate) fn record_n(&mut self, value: i64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.edges.bin_index(value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += i128::from(value) * i128::from(n);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Per-bin counts (including the final overflow bin).
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count in a single bin.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Total observations recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact running sum of all recorded values. This is the numerator of
    /// [`Histogram::mean`], exposed exactly so external serializers (the
    /// fleet wire format) and [`Histogram::from_parts`] can round-trip a
    /// histogram bit-for-bit.
    #[inline]
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Exact mean of all recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<i64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<i64> {
        (self.total > 0).then_some(self.max)
    }

    /// Adds all of `other`'s counts into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::LayoutMismatch`] if the layouts differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.edges != other.edges {
            return Err(MergeError::LayoutMismatch);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Fraction (0–1) of observations in bins whose covered range lies
    /// entirely within `(lo, hi]`. Useful for statements like the paper's
    /// "91 % of I/Os had latency in (15 ms, 30 ms]". Returns 0 when empty.
    pub fn fraction_in(&self, lo: i64, hi: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut n = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let (blo, bhi) = self.edges.bin_range(i);
            let lo_ok = blo.is_some_and(|b| b >= lo);
            let hi_ok = bhi.is_some_and(|b| b <= hi);
            if lo_ok && hi_ok {
                n += c;
            }
        }
        n as f64 / self.total as f64
    }

    /// Fraction (0–1) of observations in bins whose upper bound is ≤ `hi`,
    /// including the unbounded first bin (whose upper bound is the first
    /// edge). Complements [`Histogram::fraction_in`], which requires both
    /// bounds and therefore never counts the first bin. Returns 0 when
    /// empty.
    pub fn fraction_at_most(&self, hi: i64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut n = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if let (_, Some(bhi)) = self.edges.bin_range(i) {
                if bhi <= hi {
                    n += c;
                }
            }
        }
        n as f64 / self.total as f64
    }

    /// Index of the most populated bin (`None` when empty). Ties resolve to
    /// the lowest index.
    pub fn mode_bin(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        Some(idx)
    }

    /// Approximate `q`-quantile from the binned data: returns the upper edge
    /// of the first bin at which the cumulative fraction reaches `q` (the
    /// lower edge + 1 for the overflow bin). `None` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<i64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(match self.edges.bin_range(i) {
                    (_, Some(hi)) => hi,
                    (Some(lo), None) => lo + 1,
                    (None, None) => unreachable!(),
                });
            }
        }
        // q == 1.0 lands here only via floating error; return the top.
        Some(self.edges.edges()[self.edges.edges().len() - 1] + 1)
    }

    /// Iterates `(label, count)` pairs for every bin, in order.
    pub fn iter_labeled(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.edges.bin_label(i), c))
    }
}

impl fmt::Display for Histogram {
    /// Renders the histogram as a two-column table with an ASCII bar chart,
    /// one row per bin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let label_w = (0..self.edges.bin_count())
            .map(|i| self.edges.bin_label(i).len())
            .max()
            .unwrap_or(1);
        for (i, &c) in self.counts.iter().enumerate() {
            let bar_len = ((c as f64 / peak as f64) * 40.0).round() as usize;
            writeln!(
                f,
                "{:>label_w$} | {:>8} {}",
                self.edges.bin_label(i),
                c,
                "#".repeat(bar_len),
            )?;
        }
        write!(f, "total={} ", self.total)?;
        match self.mean() {
            Some(m) => write!(f, "mean={m:.1}"),
            None => write!(f, "mean=n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h3() -> Histogram {
        Histogram::with_edges(vec![0, 10, 100]).unwrap()
    }

    #[test]
    fn record_routes_to_bins() {
        let mut h = h3();
        h.record(-1); // bin 0
        h.record(0); // bin 0
        h.record(1); // bin 1
        h.record(10); // bin 1
        h.record(11); // bin 2
        h.record(100); // bin 2
        h.record(101); // bin 3
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn record_n_and_stats() {
        let mut h = h3();
        h.record_n(5, 4);
        h.record_n(50, 0); // no-op
        assert_eq!(h.total(), 4);
        assert_eq!(h.mean(), Some(5.0));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(5));
    }

    #[test]
    fn empty_histogram_state() {
        let h = h3();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mode_bin(), None);
        assert_eq!(h.quantile_upper_bound(0.5), None);
        assert_eq!(h.fraction_in(0, 100), 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = h3();
        let mut b = h3();
        a.record(5);
        a.record(-3);
        b.record(200);
        b.record(5);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 4);
        assert_eq!(a.counts(), &[1, 2, 0, 1]);
        assert_eq!(a.min(), Some(-3));
        assert_eq!(a.max(), Some(200));
        assert_eq!(a.mean(), Some((5 - 3 + 200 + 5) as f64 / 4.0));
    }

    #[test]
    fn merge_rejects_mismatched_layouts() {
        let mut a = h3();
        let b = Histogram::with_edges(vec![0, 10]).unwrap();
        assert_eq!(a.merge(&b), Err(MergeError::LayoutMismatch));
    }

    #[test]
    fn merge_with_empty_keeps_min_max() {
        let mut a = h3();
        a.record(7);
        let b = h3();
        a.merge(&b).unwrap();
        assert_eq!(a.min(), Some(7));
        assert_eq!(a.max(), Some(7));
    }

    #[test]
    fn fraction_in_covers_exact_bins() {
        let mut h = Histogram::with_edges(vec![100, 500, 1000, 5000, 15000, 30000]).unwrap();
        for _ in 0..91 {
            h.record(20_000); // (15000, 30000]
        }
        for _ in 0..9 {
            h.record(50); // (<=100)
        }
        let f = h.fraction_in(15_000, 30_000);
        assert!((f - 0.91).abs() < 1e-12, "f = {f}");
        // Wider window includes more bins.
        assert!(h.fraction_in(100, 30_000) >= f);
    }

    #[test]
    fn fraction_at_most_includes_first_bin() {
        let mut h = h3(); // edges 0, 10, 100
        h.record(-5); // first bin (<= 0)
        h.record(5); // (0, 10]
        h.record(50); // (10, 100]
        h.record(5000); // overflow
        assert!((h.fraction_at_most(0) - 0.25).abs() < 1e-12);
        assert!((h.fraction_at_most(10) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_most(100) - 0.75).abs() < 1e-12);
        // The overflow bin has no upper bound: never included.
        assert!((h.fraction_at_most(i64::MAX) - 0.75).abs() < 1e-12);
        assert_eq!(
            Histogram::with_edges(vec![0]).unwrap().fraction_at_most(0),
            0.0
        );
    }

    #[test]
    fn mode_bin_prefers_lowest_on_tie() {
        let mut h = h3();
        h.record(-1);
        h.record(5);
        assert_eq!(h.mode_bin(), Some(0));
        h.record(5);
        assert_eq!(h.mode_bin(), Some(1));
    }

    #[test]
    fn quantiles_from_bins() {
        let mut h = h3();
        for _ in 0..50 {
            h.record(5);
        }
        for _ in 0..50 {
            h.record(50);
        }
        assert_eq!(h.quantile_upper_bound(0.25), Some(10));
        assert_eq!(h.quantile_upper_bound(0.75), Some(100));
        assert_eq!(h.quantile_upper_bound(1.0), Some(100));
        h.record(5000);
        assert_eq!(h.quantile_upper_bound(1.0), Some(101)); // overflow bin
    }

    #[test]
    fn display_contains_labels_and_total() {
        let mut h = h3();
        h.record(5);
        let s = h.to_string();
        assert!(s.contains(">100"));
        assert!(s.contains("total=1"));
        assert!(s.contains('#'));
    }

    #[test]
    fn iter_labeled_order() {
        let h = h3();
        let labels: Vec<String> = h.iter_labeled().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["0", "10", "100", ">100"]);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = h3();
        h.record(i64::MAX);
        h.record(i64::MIN);
        assert_eq!(h.total(), 2);
        assert_eq!(h.mean(), Some(-0.5));
    }
}
