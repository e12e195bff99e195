//! Two-dimensional histograms.
//!
//! §3.6 of the paper notes that correlating metrics (e.g. seek distance with
//! latency) "is possible using online techniques including with the use of
//! 2d histograms" but leaves it as future work — the published system only
//! ships 1-D histograms. We implement the extension: a [`Histogram2d`] is a
//! counts matrix over two independent [`BinEdges`] layouts, still O(1) per
//! insert and constant space.

use crate::bins::BinEdges;
use std::fmt;

/// A joint histogram over two metrics.
///
/// # Examples
///
/// Correlating seek distance (x) with latency (y):
///
/// ```
/// use histo::{layouts, Histogram2d};
///
/// let mut h = Histogram2d::new(layouts::seek_distance_sectors(), layouts::latency_us());
/// h.record(1, 200);        // sequential, fast
/// h.record(400_000, 9000); // long seek, slow
/// assert_eq!(h.total(), 2);
/// // Average latency per seek-distance bin: only the two hit bins answer.
/// assert_eq!(h.conditional_mean_y().iter().flatten().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram2d {
    x_edges: BinEdges,
    y_edges: BinEdges,
    /// Row-major: `counts[y * x_bins + x]`.
    counts: Vec<u64>,
    total: u64,
}

impl Histogram2d {
    /// Creates an empty 2-D histogram with the given axis layouts.
    pub fn new(x_edges: BinEdges, y_edges: BinEdges) -> Self {
        let n = x_edges.bin_count() * y_edges.bin_count();
        Histogram2d {
            x_edges,
            y_edges,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// X-axis layout.
    #[inline]
    pub fn x_edges(&self) -> &BinEdges {
        &self.x_edges
    }

    /// Records one `(x, y)` observation.
    #[inline]
    pub fn record(&mut self, x: i64, y: i64) {
        let xi = self.x_edges.bin_index(x);
        let yi = self.y_edges.bin_index(y);
        self.counts[yi * self.x_edges.bin_count() + xi] += 1;
        self.total += 1;
    }

    /// Count in cell `(xi, yi)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, xi: usize, yi: usize) -> u64 {
        assert!(xi < self.x_edges.bin_count(), "x bin out of range");
        assert!(yi < self.y_edges.bin_count(), "y bin out of range");
        self.counts[yi * self.x_edges.bin_count() + xi]
    }

    /// Total observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The raw row-major counts matrix (`counts[y * x_bins + x]`), for
    /// external serializers that need a bit-exact export.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuilds a 2-D histogram from its axis layouts and a row-major
    /// counts matrix; the total is derived from `counts`.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != x_bins * y_bins`.
    pub fn from_parts(x_edges: BinEdges, y_edges: BinEdges, counts: Vec<u64>) -> Self {
        assert_eq!(
            counts.len(),
            x_edges.bin_count() * y_edges.bin_count(),
            "counts matrix does not match axis layouts"
        );
        let total = counts.iter().sum();
        Histogram2d {
            x_edges,
            y_edges,
            counts,
            total,
        }
    }

    /// For each x bin, the mean y value estimated from y-bin midpoints —
    /// e.g. "average latency as a function of seek distance". Empty x bins
    /// yield `None`.
    pub fn conditional_mean_y(&self) -> Vec<Option<f64>> {
        (0..self.x_edges.bin_count())
            .map(|xi| {
                let mut n = 0u64;
                let mut s = 0.0f64;
                for yi in 0..self.y_edges.bin_count() {
                    let c = self.count(xi, yi);
                    n += c;
                    s += self.y_edges.bin_midpoint(yi) * c as f64;
                }
                (n > 0).then(|| s / n as f64)
            })
            .collect()
    }

    /// Resets all counts.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

impl fmt::Display for Histogram2d {
    /// Renders a compact matrix: rows = y bins, columns = x bins.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10}", "y\\x")?;
        for xi in 0..self.x_edges.bin_count() {
            write!(f, " {:>8}", self.x_edges.bin_label(xi))?;
        }
        writeln!(f)?;
        for yi in 0..self.y_edges.bin_count() {
            write!(f, "{:>10}", self.y_edges.bin_label(yi))?;
            for xi in 0..self.x_edges.bin_count() {
                write!(f, " {:>8}", self.count(xi, yi))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Histogram2d {
        Histogram2d::new(
            BinEdges::new(vec![0, 10]).unwrap(),
            BinEdges::new(vec![100]).unwrap(),
        )
    }

    #[test]
    fn record_and_count() {
        let mut h = small();
        h.record(-5, 50); // x bin 0, y bin 0
        h.record(5, 500); // x bin 1, y bin 1
        h.record(50, 500); // x bin 2, y bin 1
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0, 0), 1);
        assert_eq!(h.count(1, 1), 1);
        assert_eq!(h.count(2, 1), 1);
        assert_eq!(h.count(0, 1), 0);
    }

    #[test]
    fn conditional_mean_reflects_correlation() {
        // y grows with x: small x -> y=10, large x -> y=1000.
        let mut h = Histogram2d::new(
            BinEdges::new(vec![10, 1000]).unwrap(),
            BinEdges::new(vec![100, 10_000]).unwrap(),
        );
        for _ in 0..10 {
            h.record(5, 10);
            h.record(5000, 1000);
        }
        let means = h.conditional_mean_y();
        assert!(means[0].unwrap() < means[2].unwrap());
        assert_eq!(means[1], None);
    }

    #[test]
    fn reset_zeroes() {
        let mut h = small();
        h.record(1, 1);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.count(1, 0), 0);
    }

    #[test]
    fn display_matrix_shape() {
        let mut h = small();
        h.record(5, 5);
        let s = h.to_string();
        assert!(s.contains("y\\x"));
        assert!(s.contains(">10"));
        assert!(s.contains(">100"));
    }
}
