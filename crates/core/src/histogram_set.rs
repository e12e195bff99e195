//! [`HistogramSet`] — the one (metric × lens) counter bundle, and the only
//! module that knows its layout; the collector, its checkpoint export, a
//! fleet frame's per-target section and a rollup node all hold this type.
//!
//! A set answers for 21 (metric, lens) histograms and stores 16. The five
//! metrics the collector observes once per command with one value — I/O
//! length, windowed seek, interarrival, latency, errors — keep a `Reads`
//! and a `Writes` slot, and their `All` lens *is* the two added bin for
//! bin, so it is derived when read ([`HistogramSet::slot`]) and never
//! stored, shipped or checkpointed. Plain seek distance and outstanding
//! I/Os observe a different value per lens (the previous I/O of any
//! direction against the previous I/O of the same direction), so all three
//! of their lenses are stored.
//!
//! All per-bin counters live in one contiguous 233-slot `u64` slab
//! (1864 bytes), stored slots back to back in [`HistogramSet::stored_slots`]
//! order:
//!
//! ```text
//! metric         bins  stored lenses        slots   counters
//! IoLength        18   Reads Writes          0..2     0..36
//! SeekDistance    20   All Reads Writes      2..5    36..96
//! SeekWindowed    20   Reads Writes          5..7    96..136
//! Interarrival    12   Reads Writes          7..9   136..160
//! OutstandingIos  13   All Reads Writes      9..12  160..199
//! Latency         11   Reads Writes         12..14  199..221
//! Errors           6   Reads Writes         14..16  221..233
//!
//! counts[SLAB_BASE[m] + stored_lens * SLAB_BINS[m] + bin]
//! ```
//!
//! Exact totals, sums and min/max sit beside the slab, one [`SlotAgg`] per
//! stored slot in the same order — the order the `VFLHIST3` slot codec and
//! the checkpoint's counter and aggregate lists walk. A derived slot's
//! aggregates re-derive exactly: totals and `i128` sums add, `min` is the
//! smaller of the two minima, `max` the larger of the two maxima, and
//! [`SlotAgg::EMPTY`] is the identity of all four.
//!
//! Every stored slot keeps `total == Σ counts` and an empty slot is exactly
//! [`SlotAgg::EMPTY`], whichever way the set was built; that is what makes
//! derived equality the bit-for-bit comparison the fleet plane relies on.

use crate::metrics::{Lens, Metric};
use crate::varint::{
    apply_delta, decode_u64, delta, encode_u64, unzigzag, unzigzag128, zigzag, zigzag128,
};
use histo::{FastBinner, Histogram, LayoutId};
use std::borrow::Cow;
use std::ops::Range;

const LENSES: usize = Lens::ALL.len();
const METRICS: usize = Metric::ALL.len();

/// Bin count of each metric's layout, in [`metric_index`] order. Pinned as
/// constants so slab offsets are compile-time; a test asserts they match
/// the registered layouts.
const SLAB_BINS: [usize; METRICS] = [18, 20, 20, 12, 13, 11, 6];

/// Whether a metric's `All` lens is derived from its `Reads` and `Writes`
/// slots instead of stored: every metric but plain seek distance and
/// outstanding I/Os.
const DERIVED_ALL: [bool; METRICS] = [true, false, true, true, false, true, true];

/// Index of each metric's first stored slot: two stored lenses per derived
/// metric, three per other.
const SLOT_BASE: [usize; METRICS] = [0, 2, 5, 7, 9, 12, 14];

/// Slab offset of each metric's first stored counter:
/// `SLAB_BASE[m] = Σ stored lenses × SLAB_BINS` over the metrics before `m`.
const SLAB_BASE: [usize; METRICS] = [0, 36, 96, 136, 160, 199, 221];

/// Stored slots: 5 derived metrics × 2 lenses + 2 others × 3.
const STORED: usize = 16;

/// Total slab counters: the bins of every stored slot.
const SLAB_LEN: usize = 233;

/// Counters of a `VSCKPT1` slab, which stored every metric × lens pair.
const V1_SLAB_LEN: usize = 300;

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

/// Position of lens `l` among the lenses metric `m` stores. A derived
/// metric stores `Reads` and `Writes` only; asking for its `All` lens
/// underflows.
#[inline]
const fn stored_lens(m: usize, l: usize) -> usize {
    l - DERIVED_ALL[m] as usize
}

/// The slab range of the `slot`-th stored slot's counters.
const fn slot_range(slot: usize) -> Range<usize> {
    let mut m = METRICS - 1;
    while SLOT_BASE[m] > slot {
        m -= 1;
    }
    let start = SLAB_BASE[m] + (slot - SLOT_BASE[m]) * SLAB_BINS[m];
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

    /// Adds the observations behind `other`; [`SlotAgg::EMPTY`] is the
    /// identity.
    fn merge(&mut self, other: &SlotAgg) {
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// What a decoder may accept for a slot holding `counts`: `total` is
    /// their sum, an empty slot is [`SlotAgg::EMPTY`], an occupied one has
    /// `min <= max`.
    fn describes(&self, counts: &[u64]) -> bool {
        let total = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c));
        let consistent = if self.total == 0 {
            *self == SlotAgg::EMPTY
        } else {
            self.min <= self.max
        };
        total == Some(self.total) && consistent
    }
}

/// Every (metric, lens) histogram of one virtual disk — or of any sum of
/// virtual disks — as plain counters: one 233-counter slab plus a
/// [`SlotAgg`] per stored slot, in [`HistogramSet::stored_slots`] order.
/// The `All` lens of a metric that stores only `Reads` and `Writes` is
/// their sum, computed by [`slot`](Self::slot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSet {
    counts: Box<[u64; SLAB_LEN]>,
    aggs: [SlotAgg; STORED],
}

impl Default for HistogramSet {
    fn default() -> Self {
        HistogramSet::new()
    }
}

impl HistogramSet {
    /// Logical slots per set: every metric × lens pair, stored or derived.
    pub const SLOTS: usize = METRICS * LENSES;

    /// The fewest bytes [`encode_slots`](Self::encode_slots) writes: one
    /// `bins` varint per stored slot and one byte per counter. A decoder
    /// bounds a claimed target count with it before allocating.
    pub const MIN_ENCODED_BYTES: usize = STORED + SLAB_LEN;

    /// An empty set.
    pub fn new() -> Self {
        HistogramSet {
            counts: Box::new([0; SLAB_LEN]),
            aggs: [SlotAgg::EMPTY; STORED],
        }
    }

    /// The binner table [`record`](Self::record) takes.
    pub fn binners() -> Binners {
        Metric::ALL.map(|metric| layout_id(metric).binner())
    }

    /// The (metric, lens) pairs a set stores, in the order of
    /// [`counters`](Self::counters), [`aggregates`](Self::aggregates) and
    /// the slot codec. Every other pair is an `All` lens that
    /// [`slot`](Self::slot) derives; [`record`](Self::record) takes these
    /// pairs only.
    pub fn stored_slots() -> impl Iterator<Item = (Metric, Lens)> {
        Metric::ALL.into_iter().flat_map(|metric| {
            let skip = usize::from(DERIVED_ALL[metric_index(metric)]);
            Lens::ALL
                .into_iter()
                .skip(skip)
                .map(move |lens| (metric, lens))
        })
    }

    /// Records `value` under one stored slot: one bin lookup, one
    /// increment, one aggregate update. The `All` lens of a metric that
    /// derives it is not a slot — record the command's direction lens and
    /// `All` follows.
    ///
    /// Both hooks pass `metric` and `lens` as literals or as one of two
    /// direction lenses, and the inlining is forced so that each call site
    /// folds the table lookups below into a constant slab offset: a
    /// `record` in `on_issue` is an add to a known address, not a call.
    #[inline(always)]
    pub fn record(&mut self, binners: &Binners, metric: Metric, lens: Lens, value: i64) {
        let (m, l) = (metric_index(metric), lens_index(lens));
        debug_assert!(
            l > 0 || !DERIVED_ALL[m],
            "{metric}: the All lens is derived"
        );
        let stored = stored_lens(m, l);
        let bin = binners[m].bin_index(value);
        self.counts[SLAB_BASE[m] + stored * SLAB_BINS[m] + bin] += 1;
        self.aggs[SLOT_BASE[m] + stored].observe(value);
    }

    /// One slot's bin counts and exact aggregates: borrowed counters for a
    /// stored slot, `Reads + Writes` for a derived `All` lens. Reads that
    /// need a count or a mean take this and never build a [`Histogram`];
    /// nothing per command calls it.
    pub fn slot(&self, metric: Metric, lens: Lens) -> (Cow<'_, [u64]>, SlotAgg) {
        let (m, l) = (metric_index(metric), lens_index(lens));
        if l > 0 || !DERIVED_ALL[m] {
            let slot = SLOT_BASE[m] + stored_lens(m, l);
            return (
                Cow::Borrowed(&self.counts[slot_range(slot)]),
                self.aggs[slot],
            );
        }
        let (reads, writes) = (SLOT_BASE[m], SLOT_BASE[m] + 1);
        let counts = self.counts[slot_range(reads)]
            .iter()
            .zip(&self.counts[slot_range(writes)])
            .map(|(r, w)| r + w)
            .collect();
        let mut agg = self.aggs[reads];
        agg.merge(&self.aggs[writes]);
        (Cow::Owned(counts), agg)
    }

    /// One slot materialized as a full [`Histogram`]: cached static layout,
    /// copied counts, exact aggregates. For snapshot and report time, not
    /// per command.
    pub fn histogram(&self, metric: Metric, lens: Lens) -> Histogram {
        let (counts, agg) = self.slot(metric, lens);
        let min_max = (agg.total > 0).then_some((agg.min, agg.max));
        let edges = layout_id(metric).edges();
        Histogram::from_parts(edges, counts.into_owned(), agg.sum, min_max)
    }

    /// Total observations across all 21 logical slots: a derived `All`
    /// lens counts its `Reads` and `Writes` once more.
    pub fn total_events(&self) -> u64 {
        let per_metric = (0..METRICS).map(|m| {
            let stored = LENSES - usize::from(DERIVED_ALL[m]);
            let slots = &self.aggs[SLOT_BASE[m]..SLOT_BASE[m] + stored];
            slots.iter().map(|a| a.total).sum::<u64>() * (1 + u64::from(DERIVED_ALL[m]))
        });
        per_metric.sum()
    }

    /// Adds all of `other` into `self`, slot by slot — exactly
    /// [`Histogram::merge`] on each materialized pair, derived ones
    /// included.
    pub fn merge(&mut self, other: &HistogramSet) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.aggs.iter_mut().zip(&other.aggs) {
            mine.merge(theirs);
        }
    }

    /// The cumulative difference `self − prev`, slot by slot, or `None`
    /// when any bin count regressed — the signature of a host restart
    /// (counters are monotone within one service lifetime; sums are not,
    /// because seek distances go negative, so regression detection uses
    /// counts alone). Identical counts under a moved sum are a restart
    /// that landed on the same bin pattern: still a regression.
    ///
    /// Each stored delta slot that gained events carries the *cumulative*
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

    /// Appends the `VFLHIST3` per-target slot section: for every stored
    /// slot in order, `bins:varint`, the counts delta-chained from 0 and
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

    /// Every stored slot's aggregates, in slot order.
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
        if counters.len() != SLAB_LEN || aggregates.len() != STORED {
            let (c, a) = (counters.len(), aggregates.len());
            return Err(format!("histogram set of {c} counters, {a} aggregates"));
        }
        let mut set = HistogramSet::new();
        set.counts.copy_from_slice(counters);
        set.aggs.copy_from_slice(aggregates);
        for (slot, agg) in set.aggs.iter().enumerate() {
            if !agg.describes(&set.counts[slot_range(slot)]) {
                return Err(format!("slot {slot} disagrees with its counters"));
            }
        }
        Ok(set)
    }

    /// Rebuilds a set from the parts a `VSCKPT1` checkpoint holds: 300
    /// counters and 21 aggregates, every metric × lens pair stored in
    /// [`Metric::ALL`] × [`Lens::ALL`] order. The stored slots are kept;
    /// an `All` slot this layout derives is checked against its halves and
    /// dropped.
    ///
    /// # Errors
    ///
    /// Everything [`from_parts`](Self::from_parts) rejects, on all 21
    /// slots, and an `All` slot that is not its `Reads` and `Writes` slots
    /// added.
    pub fn from_v1_parts(counters: &[u64], aggregates: &[SlotAgg]) -> Result<HistogramSet, String> {
        if counters.len() != V1_SLAB_LEN || aggregates.len() != Self::SLOTS {
            let (c, a) = (counters.len(), aggregates.len());
            return Err(format!("v1 histogram set of {c} counters, {a} aggregates"));
        }
        let mut set = HistogramSet::new();
        let mut rest = counters;
        for (v1_slot, agg) in aggregates.iter().enumerate() {
            let (m, l) = (v1_slot / LENSES, v1_slot % LENSES);
            let (counts, tail) = rest.split_at(SLAB_BINS[m]);
            rest = tail;
            if !agg.describes(counts) {
                return Err(format!("v1 slot {v1_slot} disagrees with its counters"));
            }
            if l > 0 || !DERIVED_ALL[m] {
                let slot = SLOT_BASE[m] + stored_lens(m, l);
                set.counts[slot_range(slot)].copy_from_slice(counts);
                set.aggs[slot] = *agg;
                continue;
            }
            // The halves follow their `All` slot, still in `rest`.
            let (reads, writes) = rest[..2 * SLAB_BINS[m]].split_at(SLAB_BINS[m]);
            let (r, w) = (&aggregates[v1_slot + 1], &aggregates[v1_slot + 2]);
            let mut bins = counts.iter().zip(reads).zip(writes);
            let adds_up = bins.all(|((&c, r), w)| r.checked_add(*w) == Some(c))
                && r.sum.checked_add(w.sum) == Some(agg.sum)
                && (agg.min, agg.max) == (r.min.min(w.min), r.max.max(w.max));
            if !adds_up {
                let metric = Metric::ALL[m];
                return Err(format!("v1 {metric} All slot is not Reads + Writes"));
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
        let (mut slot, mut counter) = (0usize, 0usize);
        for metric in Metric::ALL {
            let m = metric_index(metric);
            assert_eq!(
                SLAB_BINS[m],
                layout_id(metric).edges().bin_count(),
                "{metric}: SLAB_BINS out of sync with layout"
            );
            assert_eq!(SLOT_BASE[m], slot, "{metric}: SLOT_BASE");
            assert_eq!(SLAB_BASE[m], counter, "{metric}: SLAB_BASE");
            let stored = LENSES - usize::from(DERIVED_ALL[m]);
            slot += stored;
            counter += stored * SLAB_BINS[m];
        }
        assert_eq!((STORED, SLAB_LEN), (slot, counter));
        assert_eq!(V1_SLAB_LEN, LENSES * SLAB_BINS.iter().sum::<usize>());
        // `binners()` maps over `Metric::ALL`; `record` indexes by
        // `metric_index`. The two orders must be one order.
        for (i, metric) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(metric_index(metric), i);
        }
        for (i, lens) in Lens::ALL.into_iter().enumerate() {
            assert_eq!(lens_index(lens), i);
        }
        // `stored_slots()` names the slots in slab order, back to back.
        let mut end = 0;
        for (slot, (metric, lens)) in HistogramSet::stored_slots().enumerate() {
            let (m, l) = (metric_index(metric), lens_index(lens));
            assert_eq!(SLOT_BASE[m] + stored_lens(m, l), slot);
            assert_eq!(slot_range(slot).start, end, "slot {slot}");
            end = slot_range(slot).end;
        }
        assert_eq!(end, SLAB_LEN);
        assert_eq!(HistogramSet::stored_slots().count(), STORED);
    }

    /// A read of 4096 and a write of -7 in every metric, and a 9 in the
    /// two stored `All` slots.
    fn sample() -> HistogramSet {
        let binners = HistogramSet::binners();
        let mut set = HistogramSet::new();
        for (metric, lens) in HistogramSet::stored_slots() {
            let value = [9, 4096, -7][lens_index(lens)];
            set.record(&binners, metric, lens, value);
        }
        set
    }

    #[test]
    fn record_fills_one_slot_and_all_follows() {
        let set = sample();
        // 5 derived metrics answer for 2 + 2 observations, 2 others for 3.
        assert_eq!(set.total_events(), 5 * 4 + 2 * 3);
        let (counts, agg) = set.slot(Metric::Latency, Lens::All);
        assert_eq!(counts.iter().sum::<u64>(), 2);
        assert_eq!((agg.total, agg.sum, agg.min, agg.max), (2, 4089, -7, 4096));
        assert_eq!(agg.mean(), Some(2044.5));
        let all = set.histogram(Metric::Latency, Lens::All);
        let mut halves = set.histogram(Metric::Latency, Lens::Reads);
        halves
            .merge(&set.histogram(Metric::Latency, Lens::Writes))
            .unwrap();
        assert_eq!(all, halves);
        // A stored `All` slot is its own: the seek it saw is not a sum.
        let (counts, agg) = set.slot(Metric::SeekDistance, Lens::All);
        assert_eq!((counts.iter().sum::<u64>(), agg.min, agg.max), (1, 9, 9));
        let h = set.histogram(Metric::SeekDistance, Lens::Writes);
        assert_eq!((h.total(), h.min(), h.sum()), (1, Some(-7), -7));
        assert_eq!(h.count(h.edges().bin_index(-7)), 1);
        // An empty derived slot is an empty slot.
        let empty = HistogramSet::new();
        let (counts, agg) = empty.slot(Metric::Errors, Lens::All);
        assert!(counts.iter().all(|&c| c == 0));
        assert_eq!(agg, SlotAgg::EMPTY);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the All lens is derived")]
    fn recording_a_derived_lens_is_refused() {
        let binners = HistogramSet::binners();
        HistogramSet::new().record(&binners, Metric::Latency, Lens::All, 1);
    }

    #[test]
    fn slot_codec_roundtrips_and_rejects_each_malformation() {
        let set = sample();
        let mut bytes = Vec::new();
        set.encode_slots(&mut bytes);
        assert!(bytes.len() >= HistogramSet::MIN_ENCODED_BYTES);
        let mut empty = Vec::new();
        HistogramSet::new().encode_slots(&mut empty);
        assert_eq!(empty.len(), HistogramSet::MIN_ENCODED_BYTES);
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

    /// What `VSCKPT1` stored for `set`: all 21 slots, `All` first.
    fn v1_parts(set: &HistogramSet) -> (Vec<u64>, Vec<SlotAgg>) {
        let (mut counters, mut aggs) = (Vec::new(), Vec::new());
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                let (counts, agg) = set.slot(metric, lens);
                counters.extend_from_slice(&counts);
                aggs.push(agg);
            }
        }
        (counters, aggs)
    }

    #[test]
    fn v1_parts_keep_the_stored_slots_and_must_add_up() {
        let set = sample();
        let (counters, aggs) = v1_parts(&set);
        assert_eq!((counters.len(), aggs.len()), (V1_SLAB_LEN, 21));
        assert_eq!(
            HistogramSet::from_v1_parts(&counters, &aggs),
            Ok(set.clone())
        );
        let empty = HistogramSet::new();
        let (c, a) = v1_parts(&empty);
        assert_eq!(HistogramSet::from_v1_parts(&c, &a), Ok(empty));
        // The current parts are not v1 parts, and the reverse.
        assert!(HistogramSet::from_v1_parts(set.counters(), set.aggregates()).is_err());
        assert!(HistogramSet::from_parts(&counters, &aggs).is_err());

        let refused = |counters: &[u64], aggs: &[SlotAgg]| {
            HistogramSet::from_v1_parts(counters, aggs).unwrap_err()
        };
        // Slot 0 is IoLength/All: move one event to a bin its halves do
        // not have (the slot's own total still matches).
        let occupied = counters[..18].iter().position(|&c| c > 0).unwrap();
        let vacant = counters[..18].iter().position(|&c| c == 0).unwrap();
        let mut moved = counters.clone();
        moved[occupied] -= 1;
        moved[vacant] += 1;
        assert_eq!(
            refused(&moved, &aggs),
            "v1 I/O Length All slot is not Reads + Writes"
        );
        for spoil in [
            |a: &mut SlotAgg| a.sum += 1,
            |a: &mut SlotAgg| a.min += 1,
            |a: &mut SlotAgg| a.max -= 1,
        ] {
            let mut bad = aggs.clone();
            spoil(&mut bad[0]);
            assert_eq!(
                refused(&counters, &bad),
                "v1 I/O Length All slot is not Reads + Writes"
            );
        }
        // A stored `All` slot (SeekDistance, v1 slot 3) is taken as read.
        let mut seek = aggs.clone();
        seek[3].sum += 1;
        let kept = HistogramSet::from_v1_parts(&counters, &seek).unwrap();
        assert_eq!(kept.slot(Metric::SeekDistance, Lens::All).1.sum, 10);
        // Every slot, derived or not, still has to describe its counters.
        let mut total = aggs.clone();
        total[0].total += 1;
        assert_eq!(
            refused(&counters, &total),
            "v1 slot 0 disagrees with its counters"
        );
    }
}
