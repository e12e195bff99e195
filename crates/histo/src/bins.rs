//! Irregular bin layouts.
//!
//! The paper deliberately chooses *irregular* bin boundaries (§4): "certain
//! block sizes are really special since the underlying storage subsystems may
//! optimize for them. We want to single those out right from the start
//! because once inserted into the histogram, we'll lose that precise
//! information." A [`BinEdges`] is a strictly increasing list of signed
//! upper bounds; values map to bins in O(m) (or O(log m)) time where m is
//! tiny and constant, giving the paper's O(1)-per-command cost.

use std::fmt;
use std::sync::Arc;

/// Error returned when a bin-edge list is not usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinEdgesError {
    /// The edge list was empty.
    Empty,
    /// Two consecutive edges were equal or decreasing; payload is the index
    /// of the offending (second) edge.
    NotStrictlyIncreasing(usize),
}

impl fmt::Display for BinEdgesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinEdgesError::Empty => write!(f, "bin edge list is empty"),
            BinEdgesError::NotStrictlyIncreasing(i) => {
                write!(f, "bin edges not strictly increasing at index {i}")
            }
        }
    }
}

impl std::error::Error for BinEdgesError {}

/// A strictly increasing list of inclusive upper bounds defining a histogram
/// bin layout.
///
/// For edges `e_0 < e_1 < … < e_{k-1}` there are `k + 1` bins:
///
/// * bin `0` holds values `v <= e_0`,
/// * bin `i` (for `1 <= i <= k-1`) holds values `e_{i-1} < v <= e_i`,
/// * bin `k` (the *overflow* bin, labelled `> e_{k-1}`) holds `v > e_{k-1}`.
///
/// This matches the axis labels in the paper's figures: the "4096" bucket of
/// the I/O length histogram holds exactly-4096-byte commands because the
/// preceding edge is 4095.
///
/// # Examples
///
/// ```
/// use histo::BinEdges;
///
/// let edges = BinEdges::new(vec![-2, 0, 2])?;
/// assert_eq!(edges.bin_count(), 4);
/// assert_eq!(edges.bin_index(-5), 0); // <= -2
/// assert_eq!(edges.bin_index(-2), 0);
/// assert_eq!(edges.bin_index(-1), 1); // (-2, 0]
/// assert_eq!(edges.bin_index(1), 2);  // (0, 2]
/// assert_eq!(edges.bin_index(99), 3); // > 2
/// # Ok::<(), histo::BinEdgesError>(())
/// ```
///
/// The edge list is stored behind an [`Arc`], so cloning a layout — which
/// the hot path's histogram-materialization and the static layout registry
/// in [`crate::layouts`] both rely on — is a reference-count bump, never a
/// heap allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinEdges {
    edges: Arc<[i64]>,
}

impl BinEdges {
    /// Creates a layout from inclusive upper bounds.
    ///
    /// # Errors
    ///
    /// Returns [`BinEdgesError::Empty`] for an empty list and
    /// [`BinEdgesError::NotStrictlyIncreasing`] if the list is not strictly
    /// increasing.
    pub fn new(edges: Vec<i64>) -> Result<Self, BinEdgesError> {
        if edges.is_empty() {
            return Err(BinEdgesError::Empty);
        }
        for i in 1..edges.len() {
            if edges[i] <= edges[i - 1] {
                return Err(BinEdgesError::NotStrictlyIncreasing(i));
            }
        }
        Ok(BinEdges {
            edges: edges.into(),
        })
    }

    /// The inclusive upper bounds (excludes the implicit overflow bin).
    #[inline]
    pub fn edges(&self) -> &[i64] {
        &self.edges
    }

    /// Total number of bins, including the overflow bin.
    #[inline]
    pub fn bin_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Maps a value to its bin index using a linear scan.
    ///
    /// For the paper's bin counts (m ≈ 12–20) a branch-predictable linear
    /// scan beats binary search; see the `bins_ablation` bench.
    #[inline]
    pub fn bin_index(&self, value: i64) -> usize {
        let mut idx = 0usize;
        for &e in self.edges.iter() {
            // Branch-free accumulate: counts how many edges are below `value`.
            idx += usize::from(value > e);
        }
        idx
    }

    /// Maps a value to its bin index using binary search (`partition_point`).
    ///
    /// Exposed for the layout ablation benchmark; always agrees with
    /// [`BinEdges::bin_index`].
    #[inline]
    pub fn bin_index_binary(&self, value: i64) -> usize {
        // Bin index == number of edges strictly below `value`.
        self.edges.partition_point(|&e| e < value)
    }

    /// The half-open (well, half-*closed*) range `(lo, hi]` covered by bin
    /// `index`, as `(Option<lo>, Option<hi>)` where `None` means unbounded.
    ///
    /// # Panics
    ///
    /// Panics if `index >= bin_count()`.
    pub fn bin_range(&self, index: usize) -> (Option<i64>, Option<i64>) {
        assert!(index < self.bin_count(), "bin index out of range");
        let lo = if index == 0 {
            None
        } else {
            Some(self.edges[index - 1])
        };
        let hi = self.edges.get(index).copied();
        (lo, hi)
    }

    /// Human-readable label for bin `index`, matching the paper's axis
    /// labels: the upper bound for bounded bins, `">e"` for the overflow bin.
    ///
    /// # Panics
    ///
    /// Panics if `index >= bin_count()`.
    pub fn bin_label(&self, index: usize) -> String {
        assert!(index < self.bin_count(), "bin index out of range");
        match self.edges.get(index) {
            Some(e) => e.to_string(),
            None => format!(">{}", self.edges[self.edges.len() - 1]),
        }
    }

    /// A representative point inside bin `index` (used for estimating means
    /// from binned data): the upper bound for bounded bins, midpoints where
    /// both bounds exist, and the lower edge + 1 for the overflow bin.
    pub(crate) fn bin_midpoint(&self, index: usize) -> f64 {
        let (lo, hi) = self.bin_range(index);
        match (lo, hi) {
            (Some(lo), Some(hi)) => (lo as f64 + hi as f64) / 2.0,
            (None, Some(hi)) => hi as f64,
            (Some(lo), None) => lo as f64 + 1.0,
            (None, None) => unreachable!("edges are never empty"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_edges() {
        assert_eq!(BinEdges::new(vec![]), Err(BinEdgesError::Empty));
        assert_eq!(
            BinEdges::new(vec![1, 1]),
            Err(BinEdgesError::NotStrictlyIncreasing(1))
        );
        assert_eq!(
            BinEdges::new(vec![5, 3]),
            Err(BinEdgesError::NotStrictlyIncreasing(1))
        );
    }

    #[test]
    fn single_edge_layout() {
        let e = BinEdges::new(vec![0]).unwrap();
        assert_eq!(e.bin_count(), 2);
        assert_eq!(e.bin_index(-1), 0);
        assert_eq!(e.bin_index(0), 0);
        assert_eq!(e.bin_index(1), 1);
        assert_eq!(e.bin_label(0), "0");
        assert_eq!(e.bin_label(1), ">0");
    }

    #[test]
    fn paper_length_semantics() {
        // 4095 / 4096 adjacency singles out exactly-4096-byte commands.
        let e = BinEdges::new(vec![2048, 4095, 4096, 8191, 8192]).unwrap();
        assert_eq!(e.bin_label(e.bin_index(4096)), "4096");
        assert_eq!(e.bin_label(e.bin_index(4095)), "4095");
        assert_eq!(e.bin_label(e.bin_index(3000)), "4095");
        assert_eq!(e.bin_label(e.bin_index(5000)), "8191");
        assert_eq!(e.bin_label(e.bin_index(8192)), "8192");
        assert_eq!(e.bin_label(e.bin_index(9000)), ">8192");
    }

    #[test]
    fn linear_and_binary_agree() {
        let e = BinEdges::new(vec![-500, -64, -16, -6, -2, 0, 2, 6, 16, 64, 500]).unwrap();
        for v in -600..600 {
            assert_eq!(e.bin_index(v), e.bin_index_binary(v), "v = {v}");
        }
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(e.bin_index(v), e.bin_index_binary(v), "v = {v}");
        }
    }

    #[test]
    fn bin_ranges() {
        let e = BinEdges::new(vec![0, 10]).unwrap();
        assert_eq!(e.bin_range(0), (None, Some(0)));
        assert_eq!(e.bin_range(1), (Some(0), Some(10)));
        assert_eq!(e.bin_range(2), (Some(10), None));
    }

    #[test]
    fn midpoints() {
        let e = BinEdges::new(vec![0, 10]).unwrap();
        assert_eq!(e.bin_midpoint(0), 0.0);
        assert_eq!(e.bin_midpoint(1), 5.0);
        assert_eq!(e.bin_midpoint(2), 11.0);
    }

    #[test]
    fn clone_shares_edge_storage() {
        let a = BinEdges::new(vec![1, 2, 3]).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        // Arc-backed: a clone points at the very same edge slice.
        assert!(std::ptr::eq(a.edges(), b.edges()));
    }

    #[test]
    #[should_panic(expected = "bin index out of range")]
    fn bin_range_bounds_checked() {
        let e = BinEdges::new(vec![0]).unwrap();
        let _ = e.bin_range(2);
    }
}
