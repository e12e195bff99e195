//! The `FetchAllHistograms` wire format.
//!
//! A host answers a fetch with one **frame**: every (VM, disk) target's
//! full histogram set — all [`Metric`] × [`Lens`] slots, in a fixed order
//! both sides derive from [`slots`] — serialized as delta-encoded varint
//! counter vectors. The integer primitives are [`vscsi_stats::varint`]'s
//! LEB128/zigzag API, so this format, the trace segment format and the
//! checkpoint format share one bit-level vocabulary; the envelope is
//! [`vscsi_stats::frame`]'s, shared with the checkpoint format.
//!
//! ```text
//! magic[8] = "VFLHIST2"   payload_len:u32le   crc32(magic ‖ payload):u32le
//! payload:
//!   host_id:varint  captured_at_us:varint
//!   epoch:varint  seq:varint
//!   target_count:varint
//!   per target:
//!     vm:varint  disk:varint
//!     per slot (Metric::ALL × Lens::ALL, fixed order):
//!       bins:varint            -- must equal the slot layout's bin count
//!       count[0..bins]:Δvarint -- delta-chained from 0, zigzag-wrapped
//!       if any count > 0:
//!         sum:zz128 (lo:varint hi:varint)  min:zz  max:zz
//! ```
//!
//! The header carries the two fields the restart-safe windowed rollup
//! needs: the host's **epoch** (bumped by every deliberate counter
//! regression — a stats reset or a host restart) and a **frame sequence
//! number** (monotone per epoch, so a collector can reject replayed or
//! reordered frames). The CRC covers the magic as well as the payload.
//! `VFLHIST2` is the only format: its predecessor `VFLHIST1` (no epoch or
//! seq, CRC over the payload alone) has had no producer since the fields
//! were added, and a frame carrying that magic is rejected like any other
//! unknown magic.
//!
//! Counts across consecutive bins of a real histogram are close in
//! magnitude (the distributions are peaky), so the zigzagged wrapping
//! delta keeps most bins at one byte; an idle slot is `bins` bytes of
//! zeros plus the header varint. The layouts themselves never travel:
//! they are process-lifetime statics ([`LayoutId`]) on both ends, and the
//! per-slot `bins` field plus the CRC catch any disagreement.
//!
//! Decoding is total: corrupt, truncated, or oversized input yields a
//! [`WireError`], never a panic — the collector tier counts these per
//! host and carries on.

use histo::{Histogram, LayoutId};
use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::frame as envelope;
use vscsi_stats::varint::{
    apply_delta, decode_u64, delta, encode_u64, unzigzag, unzigzag128, zigzag, zigzag128,
};
use vscsi_stats::{Lens, Metric, StatsService};

/// Frame magic: format name + version. The only one [`encode_frame`]
/// emits and [`decode_frame`] accepts.
pub const FRAME_MAGIC: [u8; 8] = *b"VFLHIST2";

/// Bytes of framing around the payload: magic + length + CRC.
pub const FRAME_HEADER_BYTES: usize = envelope::HEADER_BYTES;

/// Number of histogram slots per target (every metric × lens pair).
pub const SLOTS_PER_TARGET: usize = Metric::ALL.len() * Lens::ALL.len();

/// Error decoding (or encoding) a frame. Carries a static description so
/// the collector tier can account failures without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the bytes.
    pub msg: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet wire: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

const fn err(msg: &'static str) -> WireError {
    WireError { msg }
}

/// The fixed slot order: metrics in [`Metric::ALL`] order, each split into
/// lenses in [`Lens::ALL`] order. Both encoder and decoder iterate this.
pub fn slots() -> impl Iterator<Item = (Metric, Lens)> {
    Metric::ALL
        .into_iter()
        .flat_map(|m| Lens::ALL.into_iter().map(move |l| (m, l)))
}

/// Index of a (metric, lens) pair in the fixed slot order.
pub fn slot_index(metric: Metric, lens: Lens) -> usize {
    let m = Metric::ALL
        .iter()
        .position(|&x| x == metric)
        .expect("metric is registered");
    let l = Lens::ALL
        .iter()
        .position(|&x| x == lens)
        .expect("lens is registered");
    m * Lens::ALL.len() + l
}

/// The registered layout each metric's histograms use. Mirrors the stats
/// collector's binning; the encoder cross-checks it against the actual
/// histogram edges so drift fails loudly instead of corrupting frames.
pub fn layout_of(metric: Metric) -> LayoutId {
    match metric {
        Metric::IoLength => LayoutId::IoLengthBytes,
        Metric::SeekDistance | Metric::SeekDistanceWindowed => LayoutId::SeekDistanceSectors,
        Metric::Interarrival => LayoutId::InterarrivalUs,
        Metric::OutstandingIos => LayoutId::OutstandingIos,
        Metric::Latency => LayoutId::LatencyUs,
        Metric::Errors => LayoutId::ScsiOutcomes,
    }
}

/// One target's full histogram set, in [`slots`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetHistograms {
    /// The (VM, disk) pair the histograms describe.
    pub target: TargetId,
    /// Exactly [`SLOTS_PER_TARGET`] histograms, in [`slots`] order.
    pub histograms: Vec<Histogram>,
}

/// One host's answer to `FetchAllHistograms`: a capture timestamp plus
/// every target's histogram set, in target order.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFrame {
    /// The responding host.
    pub host_id: u64,
    /// Virtual-clock capture time, microseconds.
    pub captured_at_us: u64,
    /// The host's restart epoch ([`StatsService::epoch`]): bumped by every
    /// deliberate counter regression, so collectors re-base deltas instead
    /// of booking the drop as corruption.
    pub epoch: u64,
    /// Frame sequence number, monotone within an epoch. 0 means
    /// *unsequenced*; sequenced emitters start at 1.
    pub seq: u64,
    /// Per-target histogram sets, sorted by target.
    pub targets: Vec<TargetHistograms>,
}

impl HostFrame {
    /// Snapshots every collector of `service` into a frame, stamping the
    /// service's current [`epoch`](StatsService::epoch) and the caller's
    /// sequence number. Locks one service shard at a time (via
    /// [`StatsService::collectors`]), so a fetch never stalls ingestion
    /// fleet-wide.
    pub fn snapshot(
        host_id: u64,
        captured_at_us: u64,
        seq: u64,
        service: &StatsService,
    ) -> HostFrame {
        let targets = service
            .collectors()
            .into_iter()
            .map(|(target, collector)| TargetHistograms {
                target,
                histograms: slots()
                    .map(|(metric, lens)| collector.histogram(metric, lens))
                    .collect(),
            })
            .collect();
        HostFrame {
            host_id,
            captured_at_us,
            epoch: service.epoch(),
            seq,
            targets,
        }
    }

    /// Total observations across every target and slot — the conservation
    /// numerator fleet rollups are checked against.
    pub fn total_events(&self) -> u64 {
        self.targets
            .iter()
            .flat_map(|t| t.histograms.iter())
            .map(Histogram::total)
            .sum()
    }
}

fn encode_histogram(h: &Histogram, expect: LayoutId, out: &mut Vec<u8>) -> Result<(), WireError> {
    if h.edges() != &expect.edges() {
        return Err(err(
            "histogram layout drifted from the registered slot layout",
        ));
    }
    encode_u64(h.counts().len() as u64, out);
    let mut prev = 0u64;
    for &c in h.counts() {
        encode_u64(delta(prev, c), out);
        prev = c;
    }
    if h.total() > 0 {
        let z = zigzag128(h.sum());
        encode_u64(z as u64, out);
        encode_u64((z >> 64) as u64, out);
        encode_u64(zigzag(h.min().expect("non-empty")), out);
        encode_u64(zigzag(h.max().expect("non-empty")), out);
    }
    Ok(())
}

fn decode_histogram(
    payload: &[u8],
    pos: &mut usize,
    layout: LayoutId,
) -> Result<Histogram, WireError> {
    let edges = layout.edges();
    let bins = decode_u64(payload, pos).ok_or(err("truncated bin count"))? as usize;
    if bins != edges.bin_count() {
        return Err(err("bin count disagrees with the registered layout"));
    }
    let mut counts = Vec::with_capacity(bins);
    let mut prev = 0u64;
    let mut total = 0u64;
    for _ in 0..bins {
        let d = decode_u64(payload, pos).ok_or(err("truncated counter"))?;
        let c = apply_delta(prev, d);
        total = total.checked_add(c).ok_or(err("counter total overflows"))?;
        counts.push(c);
        prev = c;
    }
    let (sum, min_max) = if total > 0 {
        let lo = decode_u64(payload, pos).ok_or(err("truncated sum"))?;
        let hi = decode_u64(payload, pos).ok_or(err("truncated sum"))?;
        let sum = unzigzag128(u128::from(lo) | (u128::from(hi) << 64));
        let min = unzigzag(decode_u64(payload, pos).ok_or(err("truncated min"))?);
        let max = unzigzag(decode_u64(payload, pos).ok_or(err("truncated max"))?);
        if min > max {
            return Err(err("min exceeds max"));
        }
        (sum, Some((min, max)))
    } else {
        (0, None)
    };
    Ok(Histogram::from_parts(edges, counts, sum, min_max))
}

fn encode_targets(frame: &HostFrame, payload: &mut Vec<u8>) -> Result<(), WireError> {
    encode_u64(frame.targets.len() as u64, payload);
    for t in &frame.targets {
        if t.histograms.len() != SLOTS_PER_TARGET {
            return Err(err("target does not carry every metric × lens slot"));
        }
        encode_u64(u64::from(t.target.vm.0), payload);
        encode_u64(u64::from(t.target.disk.0), payload);
        for ((metric, _), h) in slots().zip(&t.histograms) {
            encode_histogram(h, layout_of(metric), payload)?;
        }
    }
    Ok(())
}

/// Encodes a frame: a `VFLHIST2` CRC-framed envelope around a
/// delta-varint payload. The CRC covers the magic too, so flipping the
/// version byte of a sealed frame can never produce another valid frame.
///
/// # Errors
///
/// Fails if any histogram's layout disagrees with its slot's registered
/// layout, if a target carries the wrong number of slots, or if the
/// payload exceeds the `u32` length field.
pub fn encode_frame(frame: &HostFrame) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::with_capacity(64 + frame.targets.len() * 512);
    encode_u64(frame.host_id, &mut payload);
    encode_u64(frame.captured_at_us, &mut payload);
    encode_u64(frame.epoch, &mut payload);
    encode_u64(frame.seq, &mut payload);
    encode_targets(frame, &mut payload)?;
    envelope::seal(&FRAME_MAGIC, &payload).map_err(err)
}

/// Decodes one `VFLHIST2` frame after verifying magic, length, CRC, and
/// every field.
///
/// Total: any malformed input — truncation anywhere, a flipped bit, an
/// overlong varint, trailing garbage — returns a [`WireError`]. A decoded
/// frame is bit-exact: re-encoding it reproduces the input bytes.
///
/// # Errors
///
/// Returns a [`WireError`] naming the first malformed field.
pub fn decode_frame(buf: &[u8]) -> Result<HostFrame, WireError> {
    let payload = envelope::open(&FRAME_MAGIC, buf).map_err(err)?;
    let mut pos = 0usize;
    let host_id = decode_u64(payload, &mut pos).ok_or(err("truncated host id"))?;
    let captured_at_us = decode_u64(payload, &mut pos).ok_or(err("truncated capture time"))?;
    let epoch = decode_u64(payload, &mut pos).ok_or(err("truncated epoch"))?;
    let seq = decode_u64(payload, &mut pos).ok_or(err("truncated frame seq"))?;
    let target_count = decode_u64(payload, &mut pos).ok_or(err("truncated target count"))?;
    // Each target needs at least 2 id bytes + one byte per slot, so this
    // bound rejects absurd counts before any allocation.
    if target_count > (payload.len() as u64) / (2 + SLOTS_PER_TARGET as u64) + 1 {
        return Err(err("target count exceeds payload size"));
    }
    let mut targets = Vec::with_capacity(target_count as usize);
    for _ in 0..target_count {
        let vm = decode_u64(payload, &mut pos).ok_or(err("truncated vm id"))?;
        let disk = decode_u64(payload, &mut pos).ok_or(err("truncated disk id"))?;
        let vm = u32::try_from(vm).map_err(|_| err("vm id exceeds 32 bits"))?;
        let disk = u32::try_from(disk).map_err(|_| err("disk id exceeds 32 bits"))?;
        let mut histograms = Vec::with_capacity(SLOTS_PER_TARGET);
        for (metric, _) in slots() {
            histograms.push(decode_histogram(payload, &mut pos, layout_of(metric))?);
        }
        targets.push(TargetHistograms {
            target: TargetId::new(VmId(vm), VDiskId(disk)),
            histograms,
        });
    }
    if pos != payload.len() {
        return Err(err("trailing bytes inside payload"));
    }
    Ok(HostFrame {
        host_id,
        captured_at_us,
        epoch,
        seq,
        targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> HostFrame {
        let mut targets = Vec::new();
        for vm in 0..3u32 {
            let mut histograms = Vec::new();
            for (metric, lens) in slots() {
                let mut h = Histogram::new(layout_of(metric).edges());
                if lens != Lens::Writes {
                    h.record(i64::from(vm) * 7 + 1);
                    h.record(4096);
                }
                histograms.push(h);
            }
            targets.push(TargetHistograms {
                target: TargetId::new(VmId(vm), VDiskId(0)),
                histograms,
            });
        }
        HostFrame {
            host_id: 42,
            captured_at_us: 6_000_000,
            epoch: 3,
            seq: 17,
            targets,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let frame = sample_frame();
        let bytes = encode_frame(&frame).unwrap();
        let back = decode_frame(&bytes).unwrap();
        assert_eq!(back, frame);
        // And re-encoding the decoded frame reproduces the bytes.
        assert_eq!(encode_frame(&back).unwrap(), bytes);
    }

    #[test]
    fn empty_frame_roundtrips() {
        let frame = HostFrame {
            host_id: 0,
            captured_at_us: 0,
            epoch: 0,
            seq: 0,
            targets: Vec::new(),
        };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn legacy_v1_magic_is_rejected() {
        // "VFLHIST1" is one bit away from the current magic and was once a
        // decodable format; it is now just another unknown magic.
        let mut bytes = encode_frame(&sample_frame()).unwrap();
        bytes[..8].copy_from_slice(b"VFLHIST1");
        assert_eq!(decode_frame(&bytes).unwrap_err().msg, "bad frame magic");
    }

    #[test]
    fn every_truncation_errors() {
        let bytes = encode_frame(&sample_frame()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_flip_errors_or_roundtrips_consistently() {
        // A flip in the payload must be caught by the CRC; a flip in the
        // header by magic/length/CRC checks. No flip may panic, and none
        // may silently decode to a *different* frame.
        let frame = sample_frame();
        let bytes = encode_frame(&frame).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_frame(&bad) {
                Err(_) => {}
                Ok(got) => panic!(
                    "flip at byte {i} decoded silently ({})",
                    if got == frame {
                        "same frame"
                    } else {
                        "different frame"
                    }
                ),
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_frame(&sample_frame()).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_frame(&bytes).unwrap_err().msg,
            "trailing bytes after frame"
        );
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = encode_frame(&sample_frame()).unwrap();
        bytes[0] = b'X';
        assert_eq!(decode_frame(&bytes).unwrap_err().msg, "bad frame magic");
    }

    #[test]
    fn layout_drift_rejected_at_encode_time() {
        let mut frame = sample_frame();
        frame.targets[0].histograms[0] = Histogram::with_edges(vec![1, 2, 3]).unwrap();
        assert!(encode_frame(&frame).is_err());
    }

    #[test]
    fn slot_order_is_stable_and_complete() {
        let all: Vec<_> = slots().collect();
        assert_eq!(all.len(), SLOTS_PER_TARGET);
        for (i, &(m, l)) in all.iter().enumerate() {
            assert_eq!(slot_index(m, l), i);
        }
    }

    #[test]
    fn zigzag128_roundtrips_extremes() {
        for v in [0i128, 1, -1, i128::MAX, i128::MIN, 1 << 64, -(1 << 64)] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
    }

    #[test]
    fn wire_is_compact_for_sparse_histograms() {
        let frame = sample_frame();
        let bytes = encode_frame(&frame).unwrap();
        // 3 targets × 21 slots: mostly-empty histograms should cost around
        // one byte per bin, far below the 8 bytes/counter resident form.
        let resident: usize = frame
            .targets
            .iter()
            .flat_map(|t| t.histograms.iter())
            .map(|h| h.counts().len() * 8)
            .sum();
        assert!(
            bytes.len() * 3 < resident,
            "wire {} vs resident {resident}",
            bytes.len()
        );
    }
}
