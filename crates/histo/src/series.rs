//! Histograms bucketed over wall-clock intervals.
//!
//! Figures 4(d) and 6(c) of the paper plot a full histogram per 6-second
//! interval, producing a surface that shows workload *phases* (e.g. the
//! latency histogram shifting right when a second VM starts hammering the
//! same device). [`HistogramSeries`] maintains one [`Histogram`] per
//! fixed-width interval.

use crate::bins::BinEdges;
use crate::histogram::Histogram;
use simkit::{SimDuration, SimTime};
use std::fmt;

/// A sequence of equal-width-interval histograms sharing one bin layout.
///
/// # Examples
///
/// ```
/// use histo::{BinEdges, HistogramSeries};
/// use simkit::{SimDuration, SimTime};
///
/// let edges = BinEdges::new(vec![10, 100])?;
/// let mut s = HistogramSeries::new(edges, SimDuration::from_secs(6));
/// s.record(SimTime::from_secs(1), 5);
/// s.record(SimTime::from_secs(7), 50);
/// assert_eq!(s.interval_count(), 2);
/// assert_eq!(s.interval(0).unwrap().total(), 1);
/// # Ok::<(), histo::BinEdgesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSeries {
    edges: BinEdges,
    width: SimDuration,
    intervals: Vec<Histogram>,
}

impl HistogramSeries {
    /// Creates an empty series with the given layout and interval width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(edges: BinEdges, width: SimDuration) -> Self {
        assert!(!width.is_zero(), "interval width must be positive");
        HistogramSeries {
            edges,
            width,
            intervals: Vec::new(),
        }
    }

    /// Rebuilds a series from externally maintained state: the shared
    /// layout, interval width, and the materialized interval histograms in
    /// order. The inverse of walking [`HistogramSeries::iter`] — external
    /// serializers (the checkpoint plane) round-trip a series bit-exactly
    /// through this.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or any interval's layout differs from
    /// `edges` (untrusted inputs must be validated before this call).
    pub fn from_parts(edges: BinEdges, width: SimDuration, intervals: Vec<Histogram>) -> Self {
        assert!(!width.is_zero(), "interval width must be positive");
        assert!(
            intervals.iter().all(|h| *h.edges() == edges),
            "interval layout differs from series layout"
        );
        HistogramSeries {
            edges,
            width,
            intervals,
        }
    }

    /// Records `value` in the interval containing time `t`, creating empty
    /// intervening intervals as needed.
    pub fn record(&mut self, t: SimTime, value: i64) {
        let idx = (t.as_nanos() / self.width.as_nanos()) as usize;
        while self.intervals.len() <= idx {
            self.intervals.push(Histogram::new(self.edges.clone()));
        }
        self.intervals[idx].record(value);
    }

    /// Number of intervals materialized so far.
    #[inline]
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// The histogram for interval `idx`, if materialized.
    pub fn interval(&self, idx: usize) -> Option<&Histogram> {
        self.intervals.get(idx)
    }

    /// Iterates over `(interval_index, histogram)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Histogram)> {
        self.intervals.iter().enumerate()
    }

    /// Index of the most populated bin per interval — the "ridge line" of
    /// the paper's 3-D surface plots; `None` entries are empty intervals.
    pub fn mode_ridge(&self) -> Vec<Option<usize>> {
        self.intervals.iter().map(Histogram::mode_bin).collect()
    }

    /// Total observations across all intervals.
    pub fn total(&self) -> u64 {
        self.intervals.iter().map(Histogram::total).sum()
    }
}

impl fmt::Display for HistogramSeries {
    /// Renders the surface as rows = intervals, columns = bins, with counts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>6}", "intvl")?;
        for i in 0..self.edges.bin_count() {
            write!(f, " {:>9}", self.edges.bin_label(i))?;
        }
        writeln!(f)?;
        for (i, h) in self.iter() {
            write!(f, "S{:<5}", i + 1)?;
            for &c in h.counts() {
                write!(f, " {c:>9}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> HistogramSeries {
        HistogramSeries::new(
            BinEdges::new(vec![10, 100]).unwrap(),
            SimDuration::from_secs(6),
        )
    }

    #[test]
    fn records_into_correct_interval() {
        let mut s = series();
        s.record(SimTime::from_secs(0), 5);
        s.record(SimTime::from_secs(5), 5);
        s.record(SimTime::from_secs(6), 50);
        s.record(SimTime::from_secs(17), 500);
        assert_eq!(s.interval_count(), 3);
        assert_eq!(s.interval(0).unwrap().total(), 2);
        assert_eq!(s.interval(1).unwrap().total(), 1);
        assert_eq!(s.interval(2).unwrap().total(), 1);
    }

    #[test]
    fn gaps_materialize_empty_intervals() {
        let mut s = series();
        s.record(SimTime::from_secs(20), 1);
        assert_eq!(s.interval_count(), 4);
        assert_eq!(s.interval(0).unwrap().total(), 0);
        assert_eq!(s.interval(3).unwrap().total(), 1);
    }

    #[test]
    fn mode_ridge_tracks_phase_shift() {
        let mut s = series();
        // Phase 1: small values; phase 2: large values (like Fig. 6(c)).
        for i in 0..10 {
            s.record(SimTime::from_millis(i * 100), 5);
        }
        for i in 0..10 {
            s.record(
                SimTime::from_secs(6) + SimDuration::from_millis(i * 100),
                500,
            );
        }
        assert_eq!(s.mode_ridge(), vec![Some(0), Some(2)]);
    }

    #[test]
    fn display_has_header_and_rows() {
        let mut s = series();
        s.record(SimTime::from_secs(1), 5);
        let out = s.to_string();
        assert!(out.contains(">100"));
        assert!(out.contains("S1"));
    }
}
