//! [`HistogramSet`] — the one (metric × lens) counter bundle, and the only
//! module that knows its layout; the collector, its checkpoint export, a
//! fleet frame's per-target section and a rollup node all hold this type.
//!
//! A set does not hold 21 `Histogram` objects. All per-bin counters live
//! in one contiguous 300-slot `u64` slab (2400 bytes — a few cache lines):
//!
//! ```text
//! counts[SLAB_BASE[m] + lens * SLAB_BINS[m] + bin]
//! ```
//!
//! with the three lenses of one metric adjacent, so an event's All + Reads
//! (or All + Writes) bumps touch neighbouring cache lines. Exact totals,
//! sums and min/max sit beside the slab, one [`SlotAgg`] per slot in
//! metric-major order ([`Metric::ALL`] × [`Lens::ALL`]) — the order the
//! `VFLHIST2` slot codec and the checkpoint's aggregate list walk.
//!
//! Every slot keeps `total == Σ counts` and an empty slot is exactly
//! [`SlotAgg::EMPTY`], whichever way the set was built; that is what makes
//! derived equality the bit-for-bit comparison the fleet plane relies on.

use crate::metrics::{Lens, Metric};
use crate::varint::{
    apply_delta, decode_u64, delta, encode_u64, unzigzag, unzigzag128, zigzag, zigzag128,
};
use histo::{FastBinner, Histogram, LayoutId};
use std::ops::Range;

const LENSES: usize = Lens::ALL.len();
const METRICS: usize = Metric::ALL.len();

/// Bin count of each metric's layout, in [`metric_index`] order. Pinned as
/// constants so slab offsets are compile-time; a test asserts they match
/// the registered layouts.
const SLAB_BINS: [usize; METRICS] = [18, 20, 20, 12, 13, 11, 6];

/// Slab offset of each metric's first (All-lens) counter:
/// `SLAB_BASE[m] = 3 * (SLAB_BINS[0] + … + SLAB_BINS[m-1])`.
const SLAB_BASE: [usize; METRICS] = [0, 54, 114, 174, 210, 249, 282];

/// Total slab slots: all metrics × all lenses × all bins.
const SLAB_LEN: usize = 300;

const fn lens_index(lens: Lens) -> usize {
    match lens {
        Lens::All => 0,
        Lens::Reads => 1,
        Lens::Writes => 2,
    }
}

const fn metric_index(metric: Metric) -> usize {
    match metric {
        Metric::IoLength => 0,
        Metric::SeekDistance => 1,
        Metric::SeekDistanceWindowed => 2,
        Metric::Interarrival => 3,
        Metric::OutstandingIos => 4,
        Metric::Latency => 5,
        Metric::Errors => 6,
    }
}

fn layout_id(metric: Metric) -> LayoutId {
    match metric {
        Metric::IoLength => LayoutId::IoLengthBytes,
        Metric::SeekDistance | Metric::SeekDistanceWindowed => LayoutId::SeekDistanceSectors,
        Metric::Interarrival => LayoutId::InterarrivalUs,
        Metric::OutstandingIos => LayoutId::OutstandingIos,
        Metric::Latency => LayoutId::LatencyUs,
        Metric::Errors => LayoutId::ScsiOutcomes,
    }
}

/// The slab range of the `slot`-th slot's counters.
const fn slot_range(slot: usize) -> Range<usize> {
    let (m, l) = (slot / LENSES, slot % LENSES);
    let start = SLAB_BASE[m] + l * SLAB_BINS[m];
    start..start + SLAB_BINS[m]
}

/// The process-lifetime binner of each metric, in the order
/// [`HistogramSet::record`] indexes them. A holder on a hot path fetches
/// this once and keeps it, so recording never touches the layout registry.
pub type Binners = [&'static FastBinner; METRICS];

/// Exact running aggregates of one (metric, lens) slot, maintained beside
/// the binned counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotAgg {
    /// Observations recorded; equals the sum of the slot's bin counts.
    pub total: u64,
    /// Exact running sum.
    pub sum: i128,
    /// Smallest value observed (`i64::MAX` while the slot is empty).
    pub min: i64,
    /// Largest value observed (`i64::MIN` while the slot is empty).
    pub max: i64,
}

impl SlotAgg {
    /// The aggregates of a slot that has seen nothing.
    pub const EMPTY: SlotAgg = SlotAgg {
        total: 0,
        sum: 0,
        min: i64::MAX,
        max: i64::MIN,
    };

    /// Exact mean of the observed values (`None` while empty).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    #[inline]
    fn observe(&mut self, value: i64) {
        self.total += 1;
        self.sum += i128::from(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }
}

/// Every (metric, lens) histogram of one virtual disk — or of any sum of
/// virtual disks — as plain counters: one 300-counter slab plus a
/// [`SlotAgg`] per slot, slots in [`Metric::ALL`] × [`Lens::ALL`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSet {
    counts: Box<[u64; SLAB_LEN]>,
    aggs: [SlotAgg; HistogramSet::SLOTS],
}

impl Default for HistogramSet {
    fn default() -> Self {
        HistogramSet::new()
    }
}

impl HistogramSet {
    /// Slots per set: every metric × lens pair.
    pub const SLOTS: usize = METRICS * LENSES;

    /// An empty set.
    pub fn new() -> Self {
        HistogramSet {
            counts: Box::new([0; SLAB_LEN]),
            aggs: [SlotAgg::EMPTY; Self::SLOTS],
        }
    }

    /// The binner table [`record`](Self::record) and
    /// [`record_single`](Self::record_single) take.
    pub fn binners() -> Binners {
        Metric::ALL.map(|metric| layout_id(metric).binner())
    }

    /// Records under All *and* (when distinct) the given lens, computing
    /// the bin index exactly once — the index-once invariant.
    #[inline]
    pub fn record(&mut self, binners: &Binners, metric: Metric, lens: Lens, value: i64) {
        let m = metric_index(metric);
        let bin = binners[m].bin_index(value);
        let base = SLAB_BASE[m];
        self.counts[base + bin] += 1;
        self.aggs[m * LENSES].observe(value);
        let l = lens_index(lens);
        if l != 0 {
            self.counts[base + l * SLAB_BINS[m] + bin] += 1;
            self.aggs[m * LENSES + l].observe(value);
        }
    }

    /// Records under exactly one lens (used where All and the direction
    /// lens observe *different* values, e.g. per-direction seek streams).
    #[inline]
    pub fn record_single(&mut self, binners: &Binners, metric: Metric, lens: Lens, value: i64) {
        let (m, l) = (metric_index(metric), lens_index(lens));
        let bin = binners[m].bin_index(value);
        self.counts[SLAB_BASE[m] + l * SLAB_BINS[m] + bin] += 1;
        self.aggs[m * LENSES + l].observe(value);
    }

    /// One slot, borrowed: its bin counts and its exact aggregates. Reads
    /// that need a count or a mean take this and never build a
    /// [`Histogram`].
    pub fn slot(&self, metric: Metric, lens: Lens) -> (&[u64], &SlotAgg) {
        let slot = metric_index(metric) * LENSES + lens_index(lens);
        (&self.counts[slot_range(slot)], &self.aggs[slot])
    }

    /// One slot materialized as a full [`Histogram`]: cached static layout,
    /// copied counts, exact aggregates. For snapshot and report time, not
    /// per command.
    pub fn histogram(&self, metric: Metric, lens: Lens) -> Histogram {
        let (counts, agg) = self.slot(metric, lens);
        let min_max = (agg.total > 0).then_some((agg.min, agg.max));
        Histogram::from_parts(layout_id(metric).edges(), counts.to_vec(), agg.sum, min_max)
    }

    /// Total observations across every slot.
    pub fn total_events(&self) -> u64 {
        self.aggs.iter().map(|a| a.total).sum()
    }

    /// Adds all of `other` into `self`, slot by slot — exactly
    /// [`Histogram::merge`] on each materialized pair.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.aggs.iter_mut().zip(&other.aggs) {
            mine.total += theirs.total;
            mine.sum += theirs.sum;
            mine.min = mine.min.min(theirs.min);
            mine.max = mine.max.max(theirs.max);
        }
    }

    /// The cumulative difference `self − prev`, slot by slot, or `None`
    /// when any bin count regressed — the signature of a host restart
    /// (counters are monotone within one service lifetime; sums are not,
    /// because seek distances go negative, so regression detection uses
    /// counts alone). Identical counts under a moved sum are a restart
    /// that landed on the same bin pattern: still a regression.
    ///
    /// Each delta slot that gained events carries the *cumulative*
    /// min/max at capture time, not the window's own extrema. Cumulative
    /// min is non-increasing and max non-decreasing, and both move only
    /// in windows where the slot gained events, so merging every
    /// windowed delta of an epoch reproduces the cumulative snapshot
    /// bit for bit — counts, totals, sums, and min/max.
    pub fn try_delta(&self, prev: &HistogramSet) -> Option<HistogramSet> {
        let mut out = HistogramSet::new();
        for (slot, gained) in out.aggs.iter_mut().enumerate() {
            let mut total = 0u64;
            for i in slot_range(slot) {
                let d = self.counts[i].checked_sub(prev.counts[i])?;
                out.counts[i] = d;
                total += d;
            }
            let (cur, old) = (&self.aggs[slot], &prev.aggs[slot]);
            if total > 0 {
                *gained = SlotAgg {
                    total,
                    sum: cur.sum - old.sum,
                    min: cur.min,
                    max: cur.max,
                };
            } else if cur.sum != old.sum {
                return None;
            }
        }
        Some(out)
    }

    /// Appends the `VFLHIST2` per-target slot section: for every slot in
    /// order, `bins:varint`, the counts delta-chained from 0 and
    /// zigzag-wrapped, then — only for an occupied slot —
    /// `sum:zz128 (lo, hi)  min:zz  max:zz`.
    pub fn encode_slots(&self, out: &mut Vec<u8>) {
        for (slot, agg) in self.aggs.iter().enumerate() {
            let counts = &self.counts[slot_range(slot)];
            encode_u64(counts.len() as u64, out);
            let mut prev = 0u64;
            for &c in counts {
                encode_u64(delta(prev, c), out);
                prev = c;
            }
            if agg.total > 0 {
                let z = zigzag128(agg.sum);
                encode_u64(z as u64, out);
                encode_u64((z >> 64) as u64, out);
                encode_u64(zigzag(agg.min), out);
                encode_u64(zigzag(agg.max), out);
            }
        }
    }

    /// Decodes one [`encode_slots`](Self::encode_slots) section starting at
    /// `*pos`, advancing `*pos` past it. Total: untrusted bytes yield an
    /// error naming the first malformed field, never a panic.
    ///
    /// # Errors
    ///
    /// A truncation anywhere, a bin count that disagrees with the slot's
    /// layout, a slot whose counters overflow `u64` when summed, or
    /// `min > max`.
    pub fn decode_slots(payload: &[u8], pos: &mut usize) -> Result<HistogramSet, &'static str> {
        let mut set = HistogramSet::new();
        for (slot, agg) in set.aggs.iter_mut().enumerate() {
            let counts = &mut set.counts[slot_range(slot)];
            let bins = decode_u64(payload, pos).ok_or("truncated bin count")?;
            if bins != counts.len() as u64 {
                return Err("bin count disagrees with the registered layout");
            }
            let mut prev = 0u64;
            let mut total = 0u64;
            for c in counts {
                let d = decode_u64(payload, pos).ok_or("truncated counter")?;
                prev = apply_delta(prev, d);
                total = total.checked_add(prev).ok_or("counter total overflows")?;
                *c = prev;
            }
            if total > 0 {
                let lo = decode_u64(payload, pos).ok_or("truncated sum")?;
                let hi = decode_u64(payload, pos).ok_or("truncated sum")?;
                let sum = unzigzag128(u128::from(lo) | (u128::from(hi) << 64));
                let min = unzigzag(decode_u64(payload, pos).ok_or("truncated min")?);
                let max = unzigzag(decode_u64(payload, pos).ok_or("truncated max")?);
                if min > max {
                    return Err("min exceeds max");
                }
                *agg = SlotAgg {
                    total,
                    sum,
                    min,
                    max,
                };
            }
        }
        Ok(set)
    }

    /// The whole counter slab, for serializers that store it verbatim.
    pub fn counters(&self) -> &[u64] {
        &self.counts[..]
    }

    /// Every slot's aggregates, in slot order.
    pub fn aggregates(&self) -> &[SlotAgg] {
        &self.aggs
    }

    /// Rebuilds a set from [`counters`](Self::counters) and
    /// [`aggregates`](Self::aggregates) read back from storage.
    ///
    /// # Errors
    ///
    /// Rejects a wrong slab or aggregate count, a slot whose `total` is not
    /// the sum of its counters, an empty slot that is not
    /// [`SlotAgg::EMPTY`], and an occupied slot with `min > max`.
    pub fn from_parts(counters: &[u64], aggregates: &[SlotAgg]) -> Result<HistogramSet, String> {
        if counters.len() != SLAB_LEN || aggregates.len() != Self::SLOTS {
            let (c, a) = (counters.len(), aggregates.len());
            return Err(format!("histogram set of {c} counters, {a} aggregates"));
        }
        let mut set = HistogramSet::new();
        set.counts.copy_from_slice(counters);
        set.aggs.copy_from_slice(aggregates);
        for (slot, agg) in set.aggs.iter().enumerate() {
            let total = set.counts[slot_range(slot)]
                .iter()
                .try_fold(0u64, |acc, &c| acc.checked_add(c));
            let consistent = if agg.total == 0 {
                *agg == SlotAgg::EMPTY
            } else {
                agg.min <= agg.max
            };
            if total != Some(agg.total) || !consistent {
                return Err(format!("slot {slot} disagrees with its counters"));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_constants_match_registered_layouts() {
        let mut expected_base = 0usize;
        for metric in Metric::ALL {
            let m = metric_index(metric);
            assert_eq!(
                SLAB_BINS[m],
                layout_id(metric).edges().bin_count(),
                "{metric}: SLAB_BINS out of sync with layout"
            );
            assert_eq!(SLAB_BASE[m], expected_base, "{metric}: SLAB_BASE");
            expected_base += LENSES * SLAB_BINS[m];
        }
        assert_eq!(SLAB_LEN, expected_base);
        // `binners()` maps over `Metric::ALL`; `record` indexes by
        // `metric_index`. The two orders must be one order.
        for (i, metric) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(metric_index(metric), i);
        }
        for (i, lens) in Lens::ALL.into_iter().enumerate() {
            assert_eq!(lens_index(lens), i);
        }
    }

    fn sample() -> HistogramSet {
        let binners = HistogramSet::binners();
        let mut set = HistogramSet::new();
        for metric in Metric::ALL {
            set.record(&binners, metric, Lens::Reads, 4096);
            set.record_single(&binners, metric, Lens::Writes, -7);
        }
        set
    }

    #[test]
    fn record_fills_all_and_the_direction_lens() {
        let set = sample();
        assert_eq!(set.total_events(), 3 * METRICS as u64);
        let (counts, agg) = set.slot(Metric::Latency, Lens::All);
        assert_eq!(counts.iter().sum::<u64>(), 1);
        assert_eq!((agg.min, agg.max), (4096, 4096));
        assert_eq!(agg.mean(), Some(4096.0));
        let h = set.histogram(Metric::SeekDistance, Lens::Writes);
        assert_eq!((h.total(), h.min(), h.sum()), (1, Some(-7), -7));
        assert_eq!(h.count(h.edges().bin_index(-7)), 1);
    }

    #[test]
    fn slot_codec_roundtrips_and_rejects_each_malformation() {
        let set = sample();
        let mut bytes = Vec::new();
        set.encode_slots(&mut bytes);
        let mut pos = 0;
        assert_eq!(HistogramSet::decode_slots(&bytes, &mut pos), Ok(set));
        assert_eq!(pos, bytes.len());
        for cut in 0..bytes.len() {
            let err = HistogramSet::decode_slots(&bytes[..cut], &mut 0).unwrap_err();
            assert!(err.starts_with("truncated"), "cut at {cut}: {err}");
        }
        let decode = |bytes: &[u8]| HistogramSet::decode_slots(bytes, &mut 0).unwrap_err();
        let mut wrong_bins = bytes.clone();
        wrong_bins[0] += 1;
        assert_eq!(
            decode(&wrong_bins),
            "bin count disagrees with the registered layout"
        );
        // First slot: 18 bins; two counters of u64::MAX overflow the total.
        let mut overflow = vec![18];
        encode_u64(delta(0, u64::MAX), &mut overflow);
        encode_u64(delta(u64::MAX, u64::MAX), &mut overflow);
        assert_eq!(decode(&overflow), "counter total overflows");
        // First slot: one event in bin 0, sum 0, min 1 > max 0.
        let mut inverted = vec![18, delta(0, 1) as u8, delta(1, 0) as u8];
        inverted.extend([0; 16]);
        inverted.extend([0, 0, zigzag(1) as u8, zigzag(0) as u8]);
        assert_eq!(decode(&inverted), "min exceeds max");
    }

    #[test]
    fn from_parts_inverts_the_accessors_and_validates() {
        let set = sample();
        let rebuilt = HistogramSet::from_parts(set.counters(), set.aggregates());
        assert_eq!(rebuilt, Ok(set.clone()));
        assert!(HistogramSet::from_parts(&set.counters()[1..], set.aggregates()).is_err());
        assert!(HistogramSet::from_parts(set.counters(), &set.aggregates()[1..]).is_err());
        let mut counters = set.counters().to_vec();
        counters[0] += 1;
        assert!(HistogramSet::from_parts(&counters, set.aggregates()).is_err());
        let mut aggs = set.aggregates().to_vec();
        aggs[0].min = aggs[0].max + 1;
        assert!(HistogramSet::from_parts(set.counters(), &aggs).is_err());
    }
}
