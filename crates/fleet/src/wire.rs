//! The `FetchAllHistograms` wire format.
//!
//! A host answers a fetch with one **frame**: every (VM, disk) target's
//! [`HistogramSet`] as delta-encoded varint counter vectors. This module
//! frames the header and the target list; the per-target slot section is
//! [`HistogramSet::encode_slots`] / [`HistogramSet::decode_slots`], which
//! own the slot order. The integer primitives are [`vscsi_stats::varint`]'s
//! LEB128/zigzag API, so this format, the trace segment format and the
//! checkpoint format share one bit-level vocabulary; the envelope is
//! [`vscsi_stats::frame`]'s, shared with the checkpoint format.
//!
//! ```text
//! magic[8] = "VFLHIST3"   payload_len:u32le   crc32(magic ‖ payload):u32le
//! payload:
//!   host_id:varint  captured_at_us:varint
//!   epoch:varint  seq:varint
//!   flags:varint               -- bit 0: the counters continue a checkpoint
//!   target_count:varint
//!   per target:
//!     vm:varint  disk:varint
//!     per stored slot (HistogramSet::stored_slots, fixed order, 16):
//!       bins:varint            -- must equal the slot layout's bin count
//!       count[0..bins]:Δvarint -- delta-chained from 0, zigzag-wrapped
//!       if any count > 0:
//!         sum:zz128 (lo:varint hi:varint)  min:zz  max:zz
//! ```
//!
//! The header carries the three fields the restart-safe windowed rollup
//! needs: the host's **epoch** (bumped by every deliberate counter
//! regression — a stats reset or a host restart), a **frame sequence
//! number** (monotone per epoch, so a collector can reject replayed or
//! reordered frames) and the **resumed** flag (whether the counters under
//! a new epoch continue the ones before it, which the counters themselves
//! cannot say). The CRC covers the magic as well as the payload.
//!
//! A target's `All` lens of the five metrics that record one value per
//! command does not travel: the receiver adds `Reads` and `Writes`
//! ([`HistogramSet::slot`]). `VFLHIST3` is the only format. A frame lives
//! for one poll and both ends are built from one checkout, so unlike a
//! checkpoint (`VSCKPT1` still decodes) its predecessors have no reader:
//! `VFLHIST2` (21 slots per target, no flags) and `VFLHIST1` (no epoch or
//! seq either) are rejected like any other unknown magic.
//!
//! Counts across consecutive bins of a real histogram are close in
//! magnitude (the distributions are peaky), so the zigzagged wrapping
//! delta keeps most bins at one byte; an idle slot is `bins` bytes of
//! zeros plus the header varint. The layouts themselves never travel:
//! they are process-lifetime statics (`histo::LayoutId`) on both ends, and
//! the per-slot `bins` field plus the CRC catch any disagreement.
//!
//! Decoding is total: corrupt, truncated, or oversized input yields a
//! [`WireError`], never a panic — the collector tier counts these per
//! host and carries on.

use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::frame as envelope;
use vscsi_stats::varint::{decode_u64, encode_u64};
use vscsi_stats::{HistogramSet, StatsService};

/// Frame magic: format name + version. The only one [`encode_frame`]
/// emits and [`decode_frame`] accepts.
pub const FRAME_MAGIC: [u8; 8] = *b"VFLHIST3";

/// `flags` bit 0: [`HostFrame::resumed`].
const FLAG_RESUMED: u64 = 1;

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

/// The fewest payload bytes one target takes: `vm`, `disk`, and a slot
/// section of empty slots (251).
const MIN_TARGET_BYTES: usize = 2 + HistogramSet::MIN_ENCODED_BYTES;

/// One target's full histogram set.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetHistograms {
    /// The (VM, disk) pair the histograms describe.
    pub target: TargetId,
    /// Every (metric, lens) slot of that target.
    pub set: HistogramSet,
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
    /// Whether the host's counters continue a checkpoint
    /// ([`StatsService::is_resumed`]). Read when the epoch moved: a resumed
    /// host's frame is subtracted from the last snapshot, a fresh host's
    /// is not, however large its counters already are.
    pub resumed: bool,
    /// Per-target histogram sets, sorted by target.
    pub targets: Vec<TargetHistograms>,
}

impl HostFrame {
    /// Snapshots every collector of `service` into a frame, stamping the
    /// service's current [`epoch`](StatsService::epoch) and the caller's
    /// sequence number. Still reads through [`StatsService::collectors`]
    /// (EXPERIMENTS.md, "One histogram set", says why), which cannot say
    /// whether a wedged shard was left out: whoever ships a frame uses
    /// [`Self::snapshot_with_skips`].
    pub fn snapshot(
        host_id: u64,
        captured_at_us: u64,
        seq: u64,
        service: &StatsService,
    ) -> HostFrame {
        let sets = service.collectors().into_iter();
        let sets = sets.map(|(target, c)| (target, c.histogram_set().clone()));
        HostFrame::stamp(host_id, captured_at_us, seq, service, sets)
    }

    /// [`HostFrame::snapshot`] through [`StatsService::histogram_sets`]:
    /// the counters alone, plus how many shards the read had to skip. A
    /// frame with a non-zero count is a partial census and must not ship.
    pub fn snapshot_with_skips(
        host_id: u64,
        captured_at_us: u64,
        seq: u64,
        service: &StatsService,
    ) -> (HostFrame, usize) {
        let (sets, skipped) = service.histogram_sets();
        let frame = HostFrame::stamp(host_id, captured_at_us, seq, service, sets.into_iter());
        (frame, skipped)
    }

    fn stamp(
        host_id: u64,
        captured_at_us: u64,
        seq: u64,
        service: &StatsService,
        sets: impl Iterator<Item = (TargetId, HistogramSet)>,
    ) -> HostFrame {
        let targets = sets.map(|(target, set)| TargetHistograms { target, set });
        HostFrame {
            host_id,
            captured_at_us,
            epoch: service.epoch(),
            seq,
            resumed: service.is_resumed(),
            targets: targets.collect(),
        }
    }

    /// Total observations across every target and slot — the conservation
    /// numerator fleet rollups are checked against.
    pub fn total_events(&self) -> u64 {
        self.targets.iter().map(|t| t.set.total_events()).sum()
    }
}

/// Encodes a frame: a `VFLHIST3` CRC-framed envelope around a
/// delta-varint payload. The CRC covers the magic too, so flipping the
/// version byte of a sealed frame can never produce another valid frame.
///
/// # Errors
///
/// Fails if the payload exceeds the `u32` length field.
pub fn encode_frame(frame: &HostFrame) -> Result<Vec<u8>, WireError> {
    let mut payload = Vec::with_capacity(64 + frame.targets.len() * 512);
    encode_u64(frame.host_id, &mut payload);
    encode_u64(frame.captured_at_us, &mut payload);
    encode_u64(frame.epoch, &mut payload);
    encode_u64(frame.seq, &mut payload);
    encode_u64(u64::from(frame.resumed) * FLAG_RESUMED, &mut payload);
    encode_u64(frame.targets.len() as u64, &mut payload);
    for t in &frame.targets {
        encode_u64(u64::from(t.target.vm.0), &mut payload);
        encode_u64(u64::from(t.target.disk.0), &mut payload);
        t.set.encode_slots(&mut payload);
    }
    envelope::seal(&FRAME_MAGIC, &payload).map_err(err)
}

/// Decodes one `VFLHIST3` frame after verifying magic, length, CRC, and
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
    let flags = decode_u64(payload, &mut pos).ok_or(err("truncated flags"))?;
    if flags & !FLAG_RESUMED != 0 {
        return Err(err("unknown frame flags"));
    }
    let target_count = decode_u64(payload, &mut pos).ok_or(err("truncated target count"))?;
    // A target is never shorter than its two id bytes plus an empty slot
    // section, so this bound rejects absurd counts before any allocation.
    if target_count > (payload.len() / MIN_TARGET_BYTES) as u64 {
        return Err(err("target count exceeds payload size"));
    }
    let mut targets = Vec::with_capacity(target_count as usize);
    for _ in 0..target_count {
        let vm = decode_u64(payload, &mut pos).ok_or(err("truncated vm id"))?;
        let disk = decode_u64(payload, &mut pos).ok_or(err("truncated disk id"))?;
        let vm = u32::try_from(vm).map_err(|_| err("vm id exceeds 32 bits"))?;
        let disk = u32::try_from(disk).map_err(|_| err("disk id exceeds 32 bits"))?;
        targets.push(TargetHistograms {
            target: TargetId::new(VmId(vm), VDiskId(disk)),
            set: HistogramSet::decode_slots(payload, &mut pos).map_err(err)?,
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
        resumed: flags & FLAG_RESUMED != 0,
        targets,
    })
}

#[cfg(test)]
/// Test fixture shared by this crate's unit tests: target (0, 0) holding
/// `records` in every stored slot.
pub(crate) fn uniform_target(records: &[i64]) -> TargetHistograms {
    let binners = HistogramSet::binners();
    let mut set = HistogramSet::new();
    for (metric, lens) in HistogramSet::stored_slots() {
        for &v in records {
            set.record(&binners, metric, lens, v);
        }
    }
    TargetHistograms {
        target: TargetId::new(VmId(0), VDiskId(0)),
        set,
    }
}

#[cfg(test)]
/// Logical slots that count one record of [`uniform_target`]: the 16
/// stored ones, and each of the 5 derived `All` lenses twice (its `Reads`
/// and its `Writes` both hold the record).
pub(crate) const UNIFORM_SLOTS: u64 = 16 + 5 * 2;

#[cfg(test)]
mod tests {
    use super::*;
    use vscsi_stats::varint::{unzigzag128, zigzag128};
    use vscsi_stats::{Lens, Metric};

    fn sample_frame() -> HostFrame {
        let binners = HistogramSet::binners();
        let mut targets = Vec::new();
        for vm in 0..3u32 {
            let mut set = HistogramSet::new();
            for metric in Metric::ALL {
                set.record(&binners, metric, Lens::Reads, i64::from(vm) * 7 + 1);
                set.record(&binners, metric, Lens::Writes, 4096);
            }
            targets.push(TargetHistograms {
                target: TargetId::new(VmId(vm), VDiskId(0)),
                set,
            });
        }
        HostFrame {
            host_id: 42,
            captured_at_us: 6_000_000,
            epoch: 3,
            seq: 17,
            resumed: true,
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
            resumed: false,
            targets: Vec::new(),
        };
        let bytes = encode_frame(&frame).unwrap();
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn earlier_magics_are_rejected() {
        // "VFLHIST2" and "VFLHIST1" were once decodable formats; each is
        // now just another unknown magic.
        for magic in [b"VFLHIST2", b"VFLHIST1"] {
            let mut bytes = encode_frame(&sample_frame()).unwrap();
            bytes[..8].copy_from_slice(magic);
            assert_eq!(decode_frame(&bytes).unwrap_err().msg, "bad frame magic");
        }
    }

    /// Seals a header with the given flags and target count over `body`.
    fn sealed(flags: u64, target_count: u64, body: &[u8]) -> Vec<u8> {
        let mut payload = vec![0, 0, 0, 0];
        encode_u64(flags, &mut payload);
        encode_u64(target_count, &mut payload);
        payload.extend_from_slice(body);
        envelope::seal(&FRAME_MAGIC, &payload).unwrap()
    }

    #[test]
    fn target_count_is_bounded_by_the_smallest_target() {
        // One empty target is exactly MIN_TARGET_BYTES; the six header
        // bytes around it are not enough to claim a second one.
        let mut empty = vec![0, 0];
        HistogramSet::new().encode_slots(&mut empty);
        assert_eq!(empty.len(), MIN_TARGET_BYTES);
        assert_eq!(
            decode_frame(&sealed(0, 1, &empty)).unwrap().targets.len(),
            1
        );
        // 12 was inside the previous bound, which allowed a target one
        // byte per slot: 257 / (2 + 21) + 1.
        for claimed in [2, 12, u64::MAX] {
            let err = decode_frame(&sealed(0, claimed, &empty)).unwrap_err();
            assert_eq!(err.msg, "target count exceeds payload size");
        }
    }

    #[test]
    fn resumed_is_flag_bit_0_and_unknown_bits_are_rejected() {
        // (Both values round-trip in the two tests above.)
        assert!(!decode_frame(&sealed(0, 0, &[])).unwrap().resumed);
        assert!(decode_frame(&sealed(FLAG_RESUMED, 0, &[])).unwrap().resumed);
        let err = decode_frame(&sealed(2, 0, &[])).unwrap_err();
        assert_eq!(err.msg, "unknown frame flags");
    }

    #[test]
    fn uniform_fixture_counts_each_record_in_26_logical_slots() {
        assert_eq!(uniform_target(&[7]).set.total_events(), UNIFORM_SLOTS);
        assert_eq!(
            uniform_target(&[7, 8, 9]).set.total_events(),
            3 * UNIFORM_SLOTS
        );
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
    fn zigzag128_roundtrips_extremes() {
        for v in [0i128, 1, -1, i128::MAX, i128::MIN, 1 << 64, -(1 << 64)] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
    }

    #[test]
    fn wire_is_compact_for_sparse_histograms() {
        let frame = sample_frame();
        let bytes = encode_frame(&frame).unwrap();
        // 3 targets × 16 stored slots: mostly-empty histograms should cost around
        // one byte per bin, far below the 8 bytes/counter resident form.
        let resident: usize = frame
            .targets
            .iter()
            .map(|t| size_of_val(t.set.counters()))
            .sum();
        assert!(
            bytes.len() * 3 < resident,
            "wire {} vs resident {resident}",
            bytes.len()
        );
    }
}
