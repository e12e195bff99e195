//! Property-based tests for the histogram core.

use histo::{layouts, BinEdges, Histogram, LayoutId, SeekWindow};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary strictly increasing edge lists.
fn arb_edges() -> impl Strategy<Value = Vec<i64>> {
    vec(-1_000_000i64..1_000_000, 1..24).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    /// Every value lands in exactly one bin, and that bin's range contains it.
    #[test]
    fn bin_index_is_consistent_with_range(edges in arb_edges(), value in any::<i64>()) {
        let e = BinEdges::new(edges).unwrap();
        let idx = e.bin_index(value);
        prop_assert!(idx < e.bin_count());
        let (lo, hi) = e.bin_range(idx);
        if let Some(lo) = lo {
            prop_assert!(value > lo, "value {value} <= lo {lo}");
        }
        if let Some(hi) = hi {
            prop_assert!(value <= hi, "value {value} > hi {hi}");
        }
    }

    /// Linear scan and binary search always agree.
    #[test]
    fn linear_equals_binary(edges in arb_edges(), values in vec(any::<i64>(), 1..100)) {
        let e = BinEdges::new(edges).unwrap();
        for v in values {
            prop_assert_eq!(e.bin_index(v), e.bin_index_binary(v));
        }
    }

    /// Total count equals number of inserts; per-bin counts sum to total.
    #[test]
    fn totals_conserved(values in vec(-600_000i64..600_000, 0..500)) {
        let mut h = Histogram::new(layouts::seek_distance_sectors());
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), h.total());
        if !values.is_empty() {
            prop_assert_eq!(h.min(), values.iter().min().copied());
            prop_assert_eq!(h.max(), values.iter().max().copied());
            let exact: f64 = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            prop_assert!((h.mean().unwrap() - exact).abs() < 1e-6);
        }
    }

    /// merge(a, b) is equivalent to inserting both value sets into one histogram.
    #[test]
    fn merge_equals_union(
        xs in vec(-1_000_000i64..1_000_000, 0..200),
        ys in vec(-1_000_000i64..1_000_000, 0..200),
    ) {
        let edges = layouts::seek_distance_sectors();
        let mut a = Histogram::new(edges.clone());
        let mut b = Histogram::new(edges.clone());
        let mut u = Histogram::new(edges);
        for &x in &xs { a.record(x); u.record(x); }
        for &y in &ys { b.record(y); u.record(y); }
        a.merge(&b).unwrap();
        prop_assert_eq!(a.counts(), u.counts());
        prop_assert_eq!(a.total(), u.total());
        prop_assert_eq!(a.min(), u.min());
        prop_assert_eq!(a.max(), u.max());
    }

    /// Quantile upper bounds are monotone in q and bracket the data.
    #[test]
    fn quantiles_monotone(values in vec(0i64..1_000_000, 1..300)) {
        let mut h = Histogram::new(layouts::io_length_bytes());
        for &v in &values { h.record(v); }
        let q25 = h.quantile_upper_bound(0.25).unwrap();
        let q50 = h.quantile_upper_bound(0.50).unwrap();
        let q99 = h.quantile_upper_bound(0.99).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q99);
        // The max value must be <= the q=1.0 bin's upper representative
        // unless it fell in the overflow bin.
        let q100 = h.quantile_upper_bound(1.0).unwrap();
        let top_edge = *h.edges().edges().last().unwrap();
        if h.max().unwrap() <= top_edge {
            prop_assert!(h.max().unwrap() <= q100);
        }
    }

    /// A window of capacity 1 reproduces plain last-I/O seek distance.
    #[test]
    fn window1_equals_plain_distance(ios in vec((0u64..1_000_000, 1u64..256), 2..100)) {
        let mut w = SeekWindow::new(1);
        let mut last_end: Option<u64> = None;
        for &(first, len) in &ios {
            let got = w.observe(first, len);
            let want = last_end.map(|e| histo::signed_distance(e, first));
            prop_assert_eq!(got, want);
            last_end = Some(first + len - 1);
        }
    }

    /// The windowed distance is never larger in magnitude than the plain
    /// last-I/O distance (the window can only find something closer).
    #[test]
    fn window_min_never_worse(ios in vec((0u64..1_000_000, 1u64..256), 2..100)) {
        let mut w16 = SeekWindow::new(16);
        let mut w1 = SeekWindow::new(1);
        for &(first, len) in &ios {
            let d16 = w16.observe(first, len);
            let d1 = w1.observe(first, len);
            if let (Some(a), Some(b)) = (d16, d1) {
                prop_assert!(a.unsigned_abs() <= b.unsigned_abs());
            }
        }
    }

    /// fraction_at_most is monotone in its bound and, at every edge, equals
    /// the running sum of the counts up to that edge's bin over the total.
    #[test]
    fn fraction_at_most_follows_running_counts(values in vec(-600_000i64..600_000, 0..300)) {
        let mut h = Histogram::new(layouts::seek_distance_sectors());
        for &v in &values { h.record(v); }
        let mut last = -1.0f64;
        for &hi in h.edges().edges() {
            let f = h.fraction_at_most(hi);
            prop_assert!(f >= last - 1e-12, "not monotone at {hi}");
            last = f;
            if h.total() > 0 {
                let upto: u64 = h.counts()[..=h.edges().bin_index(hi)].iter().sum();
                prop_assert!((f - upto as f64 / h.total() as f64).abs() < 1e-12);
            }
        }
    }

    /// For every registered layout and arbitrary values, the branchless
    /// fast path agrees with both scan strategies.
    #[test]
    fn fast_binner_matches_both_scans(values in vec(any::<i64>(), 1..200)) {
        for id in LayoutId::ALL {
            let edges = id.edges();
            let fast = id.binner();
            for &v in &values {
                let linear = edges.bin_index(v);
                prop_assert_eq!(fast.bin_index(v), linear, "{:?} v={}", id, v);
                prop_assert_eq!(edges.bin_index_binary(v), linear, "{:?} v={}", id, v);
            }
        }
    }
}

/// Deterministic companion to `fast_binner_matches_both_scans`: the domain
/// extremes and every exact edge (± 1) of every registered layout, which
/// random sampling of `i64` would essentially never hit.
#[test]
fn fast_binner_matches_on_extremes_and_exact_edges() {
    for id in LayoutId::ALL {
        let edges = id.edges();
        let fast = id.binner();
        let mut probes = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &e in edges.edges() {
            probes.push(e.saturating_sub(1));
            probes.push(e);
            probes.push(e.saturating_add(1));
        }
        for v in probes {
            let linear = edges.bin_index(v);
            assert_eq!(fast.bin_index(v), linear, "{id:?} v={v}");
            assert_eq!(edges.bin_index_binary(v), linear, "{id:?} v={v}");
        }
    }
}

proptest! {
    /// Batched binning is the scalar binner, elementwise — over arbitrary
    /// layouts the binner accepts and arbitrary values, covering both the
    /// full 8-lane blocks and the ragged tail of `bin_slice`.
    #[test]
    fn bin_batch_equals_scalar(edges in arb_edges(), values in vec(any::<i64>(), 1..64)) {
        let e = BinEdges::new(edges).unwrap();
        let Some(fast) = histo::FastBinner::try_new(&e) else {
            // Layout too dense for the class tables — no batch path either.
            return Ok(());
        };
        let mut out = vec![0u16; values.len()];
        fast.bin_slice(&values, &mut out);
        for (v, got) in values.iter().zip(&out) {
            prop_assert_eq!(usize::from(*got), fast.bin_index(*v));
            prop_assert_eq!(usize::from(*got), e.bin_index(*v));
        }
        // The fixed-size form agrees wherever a full block exists.
        if values.len() >= 8 {
            let block: &[i64; 8] = values[..8].try_into().unwrap();
            prop_assert_eq!(&fast.bin_batch(block)[..], &out[..8]);
        }
    }

    /// The explicit SSE2 lane is bit-identical to the scalar lane over
    /// arbitrary layouts and arbitrary `i64` values — including values far
    /// outside the `i32` range the SIMD kernel saturates into. On targets
    /// without the SSE2 lane both binners coerce to scalar and the check
    /// is trivially true, so the test stays portable.
    #[test]
    fn sse2_lane_equals_scalar_lane(edges in arb_edges(), values in vec(any::<i64>(), 1..96)) {
        let e = BinEdges::new(edges).unwrap();
        let Some(fast) = histo::FastBinner::try_new(&e) else {
            return Ok(());
        };
        if cfg!(target_arch = "x86_64") {
            // arb_edges stays within ±1e6, so narrowing always succeeds.
            prop_assert_eq!(fast.lane(), histo::BinLane::Sse2);
        }
        let scalar = fast.clone().with_lane(histo::BinLane::Scalar);
        let simd = fast.clone().with_lane(histo::BinLane::Sse2);
        let mut out_scalar = vec![0u16; values.len()];
        let mut out_simd = vec![0u16; values.len()];
        scalar.bin_slice(&values, &mut out_scalar);
        simd.bin_slice(&values, &mut out_simd);
        prop_assert_eq!(out_scalar, out_simd);
    }
}

/// Arbitrary registered layout.
fn arb_layout() -> impl Strategy<Value = LayoutId> {
    prop::sample::select(&LayoutId::ALL[..])
}

/// Arbitrary histogram over `id`'s layout, built from raw parts exactly the
/// way an external deserializer (the fleet wire format) reassembles one:
/// counts, exact sum, and a min/max pair present iff any count is nonzero.
fn arb_histogram(id: LayoutId) -> impl Strategy<Value = Histogram> {
    let edges = id.edges();
    let bins = edges.bin_count();
    (
        vec(0u64..1_000_000u64, bins),
        any::<i64>(),
        any::<i64>(),
        any::<i64>(),
    )
        .prop_map(move |(counts, sum, m1, m2)| {
            let occupied = counts.iter().any(|&c| c > 0);
            let min_max = occupied.then(|| (m1.min(m2), m1.max(m2)));
            let sum = if occupied { i128::from(sum) } else { 0 };
            Histogram::from_parts(id.edges(), counts, sum, min_max)
        })
}

proptest! {
    /// Merge is commutative: a ⊕ b == b ⊕ a, for the *whole* state —
    /// counts, total, exact sum, and min/max — not just the counters.
    #[test]
    fn merge_commutes(
        (a, b) in arb_layout().prop_flat_map(|id| (arb_histogram(id), arb_histogram(id))),
    ) {
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_associates(
        (a, b, c) in arb_layout().prop_flat_map(|id| {
            (arb_histogram(id), arb_histogram(id), arb_histogram(id))
        }),
    ) {
        let mut left = a.clone();
        left.merge(&b).unwrap();
        left.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut right = a.clone();
        right.merge(&bc).unwrap();
        prop_assert_eq!(left, right);
    }

    /// The empty histogram is a two-sided identity, and in particular never
    /// clobbers the other side's min/max or sum.
    #[test]
    fn empty_is_merge_identity(a in arb_layout().prop_flat_map(arb_histogram)) {
        let empty = Histogram::new(a.edges().clone());
        let mut l = a.clone();
        l.merge(&empty).unwrap();
        prop_assert_eq!(&l, &a);
        let mut r = empty.clone();
        r.merge(&a).unwrap();
        prop_assert_eq!(&r, &a);
    }

    /// Merging separately ingested parts equals ingesting the union — for
    /// any number of parts, including empty ones, and for the exact sum,
    /// min, and max, not only the counters. This is the invariant the
    /// fleet rollup tree (host → tenant → fleet) rests on.
    #[test]
    fn merge_of_parts_equals_ingest_of_union(
        parts in vec(vec(-1_000_000i64..1_000_000, 0..80), 1..6),
    ) {
        let edges = layouts::seek_distance_sectors();
        let mut union = Histogram::new(edges.clone());
        let mut merged = Histogram::new(edges.clone());
        for part in &parts {
            let mut h = Histogram::new(edges.clone());
            for &v in part {
                h.record(v);
                union.record(v);
            }
            merged.merge(&h).unwrap();
        }
        prop_assert_eq!(&merged, &union);
        prop_assert_eq!(merged.sum(), union.sum());
        prop_assert_eq!(merged.min(), union.min());
        prop_assert_eq!(merged.max(), union.max());
    }

    /// Merging across different layouts is always rejected and leaves the
    /// receiver untouched.
    #[test]
    fn merge_layout_mismatch_rejected(
        (a_id, b_id) in (arb_layout(), arb_layout()),
        values in vec(0i64..100_000, 0..40),
    ) {
        prop_assume!(a_id.edges() != b_id.edges());
        let mut a = Histogram::new(a_id.edges());
        for &v in &values { a.record(v); }
        let before = a.clone();
        let b = Histogram::new(b_id.edges());
        prop_assert_eq!(a.merge(&b), Err(histo::MergeError::LayoutMismatch));
        prop_assert_eq!(a, before);
    }
}

/// Deterministic batch-binning companion: every registered layout, probing
/// each exact edge and its neighbours *through the batched path*, so the
/// bin-boundary compares are pinned lane-for-lane against the scalar
/// binner (the ISSUE-6 cross-check).
#[test]
fn bin_batch_matches_scalar_on_registered_layouts() {
    for id in LayoutId::ALL {
        let edges = id.edges();
        let fast = id.binner();
        let mut probes = vec![i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &e in edges.edges() {
            probes.extend([e.saturating_sub(1), e, e.saturating_add(1)]);
        }
        let mut out = vec![0u16; probes.len()];
        fast.bin_slice(&probes, &mut out);
        for (v, got) in probes.iter().zip(&out) {
            assert_eq!(usize::from(*got), edges.bin_index(*v), "{id:?} v={v}");
        }
    }
}
