//! Branchless bin lookup for the registered layouts.
//!
//! The linear scan in [`BinEdges::bin_index`] is already cheap for the
//! paper's bin counts (m ≈ 12–20 compares), but the hot path pays it for
//! every metric of every command. A [`FastBinner`] precomputes, per
//! *bit-width class* of the value, how many edges lie entirely below the
//! class and which (at most [`CLASS_SLOTS`]) edges fall inside it. A lookup
//! is then: one `leading_zeros` (a single machine instruction), one table
//! row, and [`CLASS_SLOTS`] branch-free compares — independent of the
//! layout's total edge count.
//!
//! Negative values are handled by a sign-split: for `v <= 0` the bin index
//! equals `neg_count - |{negative edges e : e >= v}|`, and the magnitude
//! comparison runs through a mirrored class table over `|e|`. This covers
//! the full `i64` domain including `i64::MIN` (whose magnitude does not fit
//! in `i64` — the tables store magnitudes as `u64`).
//!
//! Construction falls back (returns `None`) when a layout packs more than
//! [`CLASS_SLOTS`] edges into one power-of-two span; callers keep the
//! linear scan for such layouts. All six paper layouts fit (the densest is
//! the outstanding-I/O layout with `{16, 20, 24, 28}` in `[16, 31]`), and
//! the `fastbin_props` proptest pins agreement with both scan strategies
//! over arbitrary `i64` input.
//!
//! ## Batched lanes
//!
//! [`FastBinner::bin_slice`] dispatches between two batch implementations
//! chosen at construction time (see [`BinLane`]):
//!
//! * **Scalar** — the autovectorizer-shaped [`FastBinner::bin_batch`]
//!   loop over 8-lane blocks. Always available, on every architecture.
//! * **Sse2** — explicit `core::arch::x86_64` intrinsics. The kernel uses
//!   the identity `bin_index(v) == |{edges e : e < v}|` (which holds over
//!   the whole `i64` domain — it is [`BinEdges::bin_index`]'s definition):
//!   when every edge fits strictly below `i32::MAX`, values can be
//!   *saturated* into `i32` without changing any edge comparison, and the
//!   count runs four lanes at a time on native `_mm_cmpgt_epi32` — SSE2
//!   has no 64-bit signed compare, so narrowing is what makes the lane
//!   profitable. Layouts with an edge outside that range (none of the
//!   paper's) simply keep the scalar lane.
//!
//! SSE2 is part of the `x86_64` baseline, so dispatch is `cfg`-static —
//! no runtime feature probe is needed. The two lanes are bit-identical;
//! the `sse2_lane_equals_scalar_lane` proptest pins it over arbitrary
//! `i64` input including values far outside the `i32` range.

use crate::bins::BinEdges;

/// Which batch implementation [`FastBinner::bin_slice`] runs; see the
/// module docs. Selected automatically at construction, overridable with
/// [`FastBinner::with_lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinLane {
    /// Portable scalar blocks shaped for the autovectorizer.
    Scalar,
    /// Explicit SSE2 intrinsics over `i32`-narrowed edges (`x86_64` only,
    /// and only when the layout's edges permit narrowing).
    Sse2,
}

/// Maximum number of edges sharing one power-of-two class. Chosen to cover
/// the densest registered layout; see the module docs.
pub const CLASS_SLOTS: usize = 4;

/// Number of bit-width classes: widths 0 (value 0) through 64
/// (magnitude `2^63`, i.e. `i64::MIN`), inclusive.
const CLASSES: usize = 65;

/// Precomputed branchless bin-lookup tables for one [`BinEdges`] layout.
#[derive(Debug, Clone)]
pub struct FastBinner {
    /// `pos_base[w]` = number of edges `< 2^(w-1)` — every edge strictly
    /// below the positive class `w` span `[2^(w-1), 2^w - 1]`.
    pos_base: [u16; CLASSES],
    /// Edges inside positive class `w`, padded with `i64::MAX` (a pad never
    /// satisfies `v > pad`, so it contributes nothing).
    pos_class: [[i64; CLASS_SLOTS]; CLASSES],
    /// `neg_base[w]` = number of negative-edge magnitudes `< 2^(w-1)`.
    neg_base: [u16; CLASSES],
    /// Negative-edge magnitudes inside class `w`, padded with `u64::MAX`
    /// (unreachable: magnitudes are at most `2^63`).
    neg_class: [[u64; CLASS_SLOTS]; CLASSES],
    /// Total number of strictly negative edges.
    neg_count: u16,
    /// Every edge narrowed to `i32`, in layout order, for the SSE2 lane.
    /// Empty when some edge is `>= i32::MAX` or `< i32::MIN` — saturating
    /// values into `i32` is only comparison-preserving when all edges lie
    /// strictly below the saturation ceiling (`i32::MIN` itself is fine:
    /// nothing can sit strictly below a floor edge).
    narrow_edges: Vec<i32>,
    /// Which batch lane [`FastBinner::bin_slice`] dispatches to.
    lane: BinLane,
}

/// Bit-width class of a non-negative magnitude: 0 for 0, otherwise
/// `floor(log2(m)) + 1`.
#[inline]
fn width(m: u64) -> usize {
    (u64::BITS - m.leading_zeros()) as usize
}

impl FastBinner {
    /// Builds the lookup tables for `edges`, or `None` if any power-of-two
    /// span holds more than [`CLASS_SLOTS`] edges (keep the linear scan for
    /// such layouts).
    pub fn try_new(edges: &BinEdges) -> Option<FastBinner> {
        Self::try_from_edges(edges.edges())
    }

    /// [`FastBinner::try_new`] over a raw (strictly increasing, non-empty)
    /// edge slice.
    pub fn try_from_edges(edges: &[i64]) -> Option<FastBinner> {
        if edges.is_empty() || edges.len() > usize::from(u16::MAX) {
            return None;
        }
        let mut pos_base = [0u16; CLASSES];
        let mut pos_class = [[i64::MAX; CLASS_SLOTS]; CLASSES];
        let mut pos_fill = [0usize; CLASSES];
        let mut neg_base = [0u16; CLASSES];
        let mut neg_class = [[u64::MAX; CLASS_SLOTS]; CLASSES];
        let mut neg_fill = [0usize; CLASSES];
        let mut neg_count = 0u16;

        for &e in edges {
            if e > 0 {
                let w = width(e as u64);
                let slot = pos_fill[w];
                if slot >= CLASS_SLOTS {
                    return None;
                }
                pos_class[w][slot] = e;
                pos_fill[w] = slot + 1;
            } else if e < 0 {
                neg_count += 1;
                let w = width(e.unsigned_abs());
                let slot = neg_fill[w];
                if slot >= CLASS_SLOTS {
                    return None;
                }
                neg_class[w][slot] = e.unsigned_abs();
                neg_fill[w] = slot + 1;
            }
            // e == 0 needs no slot: it is below every positive class span
            // (counted by pos_base) and outside every `v <= 0` lookup
            // (no edge `0` is ever `< v` for `v <= 0`).
        }

        // pos_base[w] counts edges of any sign strictly below 2^(w-1);
        // neg_base[w] counts negative-edge magnitudes strictly below the
        // same threshold. Class 0 is only reachable for v == 0 / u == 0 and
        // has an empty span, so its base stays 0 (neg) / unused (pos).
        for w in 1..CLASSES {
            let lo = 1u64 << (w - 1);
            pos_base[w] = edges.iter().filter(|&&e| e < 0 || (e as u64) < lo).count() as u16;
            neg_base[w] = edges
                .iter()
                .filter(|&&e| e < 0 && e.unsigned_abs() < lo)
                .count() as u16;
        }

        // Narrowing gate for the SSE2 lane: saturating a value into i32
        // preserves every `e < v` comparison iff no edge equals i32::MAX
        // (a value above the ceiling must still count *all* edges below
        // it) and every edge fits in i32 at all.
        let narrow_edges: Vec<i32> = edges
            .iter()
            .map(|&e| i32::try_from(e).ok().filter(|&x| x < i32::MAX))
            .collect::<Option<Vec<i32>>>()
            .unwrap_or_default();
        let lane = if cfg!(target_arch = "x86_64") && !narrow_edges.is_empty() {
            BinLane::Sse2
        } else {
            BinLane::Scalar
        };

        Some(FastBinner {
            pos_base,
            pos_class,
            neg_base,
            neg_class,
            neg_count,
            narrow_edges,
            lane,
        })
    }

    /// The batch lane [`FastBinner::bin_slice`] currently dispatches to.
    pub fn lane(&self) -> BinLane {
        self.lane
    }

    /// Requests a specific batch lane, returning the binner. The request
    /// is coerced to [`BinLane::Scalar`] when the SSE2 lane is unavailable
    /// (non-`x86_64`, or a layout whose edges do not narrow to `i32`);
    /// check [`FastBinner::lane`] for the lane actually in effect. Both
    /// lanes produce bit-identical indices — this exists for benchmarks
    /// and the lane-equivalence tests.
    pub fn with_lane(mut self, lane: BinLane) -> FastBinner {
        self.lane = if lane == BinLane::Sse2
            && cfg!(target_arch = "x86_64")
            && !self.narrow_edges.is_empty()
        {
            BinLane::Sse2
        } else {
            BinLane::Scalar
        };
        self
    }

    /// Maps a small fixed-size array of values to bin indices in one
    /// sweep. Semantically identical to calling [`FastBinner::bin_index`]
    /// elementwise (the `fastbin_props` proptest pins the equivalence);
    /// the point is the *shape*: a counted loop over a stack array of
    /// branch-free lane computations, which the compiler can unroll and
    /// autovectorize, where the one-at-a-time call sites cannot.
    ///
    /// Indices are returned as `u16` (layouts never exceed `u16::MAX`
    /// edges by construction), which quarters the result footprint and
    /// helps the vectorizer pack lanes.
    #[inline]
    pub fn bin_batch<const N: usize>(&self, values: &[i64; N]) -> [u16; N] {
        let mut out = [0u16; N];
        for (o, v) in out.iter_mut().zip(values) {
            *o = self.bin_index(*v) as u16;
        }
        out
    }

    /// [`FastBinner::bin_batch`] over runtime-sized slices: bins
    /// `values[i]` into `out[i]`, processing full 8-lane blocks through
    /// the active [`BinLane`] and the tail elementwise. The lanes are
    /// bit-identical; see the module docs for how each works.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `values`.
    pub fn bin_slice(&self, values: &[i64], out: &mut [u16]) {
        assert!(
            out.len() >= values.len(),
            "bin_slice: output buffer too short"
        );
        #[cfg(target_arch = "x86_64")]
        if self.lane == BinLane::Sse2 {
            return self.bin_slice_sse2(values, out);
        }
        self.bin_slice_scalar(values, out);
    }

    /// The autovectorizer-shaped scalar lane: full 8-lane blocks through
    /// [`FastBinner::bin_batch`], ragged tail elementwise.
    fn bin_slice_scalar(&self, values: &[i64], out: &mut [u16]) {
        const LANES: usize = 8;
        let mut i = 0;
        while i + LANES <= values.len() {
            let block: &[i64; LANES] = values[i..i + LANES].try_into().expect("exact block");
            out[i..i + LANES].copy_from_slice(&self.bin_batch(block));
            i += LANES;
        }
        for (o, v) in out[i..values.len()].iter_mut().zip(&values[i..]) {
            *o = self.bin_index(*v) as u16;
        }
    }

    /// The explicit SSE2 lane: 8 values per block, each saturated into
    /// `i32` (comparison-preserving given the narrowing gate in
    /// [`FastBinner::try_from_edges`]) and compared against every edge
    /// four lanes at a time. Per-lane counts accumulate by subtracting
    /// the all-ones compare masks, exactly the branch-free idiom of the
    /// scalar path — just four bins wide.
    #[cfg(target_arch = "x86_64")]
    fn bin_slice_sse2(&self, values: &[i64], out: &mut [u16]) {
        debug_assert!(!self.narrow_edges.is_empty());
        const LANES: usize = 8;
        let mut i = 0;
        while i + LANES <= values.len() {
            let block: &[i64; LANES] = values[i..i + LANES].try_into().expect("exact block");
            // SAFETY: SSE2 is part of the x86_64 baseline target, so the
            // required feature is unconditionally available here.
            unsafe { sse2_bin_block8(&self.narrow_edges, block, &mut out[i..i + LANES]) };
            i += LANES;
        }
        for (o, v) in out[i..values.len()].iter_mut().zip(&values[i..]) {
            *o = self.bin_index(*v) as u16;
        }
    }

    /// Maps a value to its bin index. Always agrees with
    /// [`BinEdges::bin_index`] and [`BinEdges::bin_index_binary`] for the
    /// layout the binner was built from.
    #[inline]
    pub fn bin_index(&self, v: i64) -> usize {
        if v > 0 {
            // idx = |{edges e : e < v}| = pos_base[w] + in-class compares.
            let w = width(v as u64);
            let class = &self.pos_class[w];
            let mut idx = usize::from(self.pos_base[w]);
            for &e in class {
                idx += usize::from(v > e);
            }
            idx
        } else {
            // For v <= 0 only negative edges can lie below v:
            // idx = neg_count - |{negative e : |e| <= |v|}|.
            let u = v.unsigned_abs();
            let w = width(u);
            let class = &self.neg_class[w];
            let mut le = usize::from(self.neg_base[w]);
            for &m in class {
                le += usize::from(u >= m);
            }
            usize::from(self.neg_count) - le
        }
    }
}

/// SSE2 kernel for one 8-value block: `out[j] = |{edges e : e < values[j]}|`.
///
/// Values are clamped into `i32` first; the caller guarantees every edge
/// is `>= i32::MIN` and `< i32::MAX`, which makes the clamp invisible to
/// the comparisons (a value at or above the ceiling still beats every
/// edge, a value at the floor still beats none). Counts never exceed the
/// edge count (`<= u16::MAX` by construction), so the `i32` accumulator
/// lanes narrow losslessly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn sse2_bin_block8(edges: &[i32], values: &[i64; 8], out: &mut [u16]) {
    use std::arch::x86_64::{
        __m128i, _mm_cmpgt_epi32, _mm_set1_epi32, _mm_set_epi32, _mm_setzero_si128, _mm_sub_epi32,
    };

    #[inline]
    fn clamp32(v: i64) -> i32 {
        v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }

    let lo = _mm_set_epi32(
        clamp32(values[3]),
        clamp32(values[2]),
        clamp32(values[1]),
        clamp32(values[0]),
    );
    let hi = _mm_set_epi32(
        clamp32(values[7]),
        clamp32(values[6]),
        clamp32(values[5]),
        clamp32(values[4]),
    );
    let mut acc_lo = _mm_setzero_si128();
    let mut acc_hi = _mm_setzero_si128();
    for &e in edges {
        let ev = _mm_set1_epi32(e);
        // cmpgt yields -1 per lane where v > e, i.e. where edge e < v;
        // subtracting the mask increments that lane's count.
        acc_lo = _mm_sub_epi32(acc_lo, _mm_cmpgt_epi32(lo, ev));
        acc_hi = _mm_sub_epi32(acc_hi, _mm_cmpgt_epi32(hi, ev));
    }
    // SAFETY: __m128i and [i32; 4] are both 16 plain bytes.
    let a: [i32; 4] = unsafe { core::mem::transmute::<__m128i, [i32; 4]>(acc_lo) };
    let b: [i32; 4] = unsafe { core::mem::transmute::<__m128i, [i32; 4]>(acc_hi) };
    for j in 0..4 {
        out[j] = a[j] as u16;
        out[j + 4] = b[j] as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(edges: Vec<i64>, probes: &[i64]) {
        let be = BinEdges::new(edges).unwrap();
        let fast = FastBinner::try_new(&be).expect("layout fits");
        for &v in probes {
            assert_eq!(fast.bin_index(v), be.bin_index(v), "v = {v}");
            assert_eq!(fast.bin_index(v), be.bin_index_binary(v), "v = {v}");
        }
    }

    fn probes_for(edges: &[i64]) -> Vec<i64> {
        let mut p = vec![0, 1, -1, i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1];
        for &e in edges {
            for d in [-2i64, -1, 0, 1, 2] {
                p.push(e.saturating_add(d));
            }
        }
        p
    }

    #[test]
    fn agrees_on_paper_layouts() {
        use crate::layouts;
        for be in [
            layouts::io_length_bytes(),
            layouts::seek_distance_sectors(),
            layouts::latency_us(),
            layouts::interarrival_us(),
            layouts::outstanding_ios(),
            layouts::scsi_outcomes(),
        ] {
            let edges = be.edges().to_vec();
            check_all(edges.clone(), &probes_for(&edges));
        }
    }

    #[test]
    fn seek_layout_spot_values() {
        let be = crate::layouts::seek_distance_sectors();
        let fast = FastBinner::try_new(&be).unwrap();
        // Hand-derived anchors (9 negative edges, then 0, then 9 positive).
        assert_eq!(fast.bin_index(i64::MIN), 0);
        assert_eq!(fast.bin_index(-2), 7);
        assert_eq!(fast.bin_index(-1), 8);
        assert_eq!(fast.bin_index(0), 9);
        assert_eq!(fast.bin_index(1), 10);
        assert_eq!(fast.bin_index(i64::MAX), 19);
    }

    #[test]
    fn extreme_edges_are_handled() {
        check_all(
            vec![i64::MIN, -7, 0, 7, i64::MAX],
            &probes_for(&[i64::MIN, -7, 0, 7, i64::MAX]),
        );
        check_all(vec![i64::MIN], &probes_for(&[i64::MIN]));
        check_all(vec![i64::MAX], &probes_for(&[i64::MAX]));
        check_all(vec![0], &probes_for(&[0]));
    }

    #[test]
    fn overfull_class_falls_back() {
        // Five edges in one power-of-two span exceed CLASS_SLOTS.
        let be = BinEdges::new(vec![16, 17, 18, 19, 20]).unwrap();
        assert!(FastBinner::try_new(&be).is_none());
        // Negative side too.
        let be = BinEdges::new(vec![-20, -19, -18, -17, -16]).unwrap();
        assert!(FastBinner::try_new(&be).is_none());
    }

    #[test]
    fn dense_class_at_capacity_works() {
        // Exactly CLASS_SLOTS edges in [16, 31] — the outstanding-I/O shape.
        let edges = vec![16, 20, 24, 28];
        check_all(edges.clone(), &probes_for(&edges));
    }

    /// Runs both lanes over `values` and asserts they agree with each
    /// other and with elementwise `bin_index`.
    fn check_lanes(fast: &FastBinner, values: &[i64]) {
        let scalar = fast.clone().with_lane(BinLane::Scalar);
        let simd = fast.clone().with_lane(BinLane::Sse2);
        let mut out_scalar = vec![0u16; values.len()];
        let mut out_simd = vec![0u16; values.len()];
        scalar.bin_slice(values, &mut out_scalar);
        simd.bin_slice(values, &mut out_simd);
        assert_eq!(out_scalar, out_simd);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(usize::from(out_scalar[i]), fast.bin_index(v), "v = {v}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_lane_is_default_and_bit_identical_on_paper_layouts() {
        use crate::layouts;
        for be in [
            layouts::io_length_bytes(),
            layouts::seek_distance_sectors(),
            layouts::latency_us(),
            layouts::interarrival_us(),
            layouts::outstanding_ios(),
            layouts::scsi_outcomes(),
        ] {
            let fast = FastBinner::try_new(&be).unwrap();
            assert_eq!(fast.lane(), BinLane::Sse2, "paper layouts narrow to i32");
            let mut probes = probes_for(be.edges());
            // Odd length exercises the ragged tail of both lanes.
            probes.push(42);
            check_lanes(&fast, &probes);
        }
    }

    #[test]
    fn wide_edges_coerce_sse2_request_to_scalar() {
        // i32::MAX itself and anything beyond defeats the i32 narrowing,
        // so the SSE2 lane must refuse and stay correct via scalar.
        for edges in [
            vec![0, i64::from(i32::MAX)],
            vec![0, i64::from(i32::MAX) + 1],
            vec![i64::from(i32::MIN) - 1, 0],
            vec![i64::MIN, 0, i64::MAX],
        ] {
            let fast = FastBinner::try_from_edges(&edges).unwrap();
            assert_eq!(fast.lane(), BinLane::Scalar, "edges {edges:?}");
            assert_eq!(
                fast.clone().with_lane(BinLane::Sse2).lane(),
                BinLane::Scalar
            );
            check_all(edges.clone(), &probes_for(&edges));
        }
        // i32::MIN as an edge is fine: no value sits strictly below the
        // saturation floor, so narrowing stays comparison-preserving.
        let edges = vec![i64::from(i32::MIN), 0, 7];
        let fast = FastBinner::try_from_edges(&edges).unwrap();
        if cfg!(target_arch = "x86_64") {
            assert_eq!(fast.lane(), BinLane::Sse2);
        }
        check_lanes(&fast, &probes_for(&edges));
    }

    #[test]
    fn lanes_agree_across_clamp_boundaries() {
        let edges = vec![-500_000, -64, -1, 0, 1, 64, 500_000];
        let fast = FastBinner::try_from_edges(&edges).unwrap();
        let mut probes = probes_for(&edges);
        probes.extend([
            i64::from(i32::MIN) - 1,
            i64::from(i32::MIN),
            i64::from(i32::MIN) + 1,
            i64::from(i32::MAX) - 1,
            i64::from(i32::MAX),
            i64::from(i32::MAX) + 1,
        ]);
        check_lanes(&fast, &probes);
    }
}
