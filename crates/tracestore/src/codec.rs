//! The binary trace record codec: varint + delta encoding.
//!
//! A [`TraceRecord`] costs ~80 bytes resident in memory and ~50 bytes as a
//! text line; on the wire it targets **≤ 16 bytes** for realistic streams.
//! That works because consecutive records are similar: serials step by 1
//! or 2, LBAs move by small (often constant) strides, timestamps advance
//! by microseconds, and the target rarely changes. Each record is encoded
//! relative to its predecessor *within the same block*:
//!
//! ```text
//! flags:u8  [vm:varint disk:varint]  Δserial:zz  Δlba:zz  sectors:varint
//!           Δissue_ns:zz  [latency_ns:zz  Δcomplete_seq:zz]
//! ```
//!
//! * `flags` bit 0: write (vs read); bit 1: record carries a completion;
//!   bit 2: target differs from the previous record (then `vm`/`disk`
//!   follow).
//! * `zz` fields are zigzagged wrapping deltas ([`delta`]):
//!   serial and LBA against the previous record, issue time against the
//!   previous issue time, latency against the record's own issue time,
//!   completion sequence against the record's own serial.
//!
//! Delta state resets to a fixed baseline (all zeros, default target) at
//! every block boundary, so each block decodes independently — a corrupt
//! block never poisons its neighbours.
//!
//! One normalization: a completion is encoded iff `complete_ns` is set;
//! `complete_seq: None` alongside `complete_ns: Some` (a state the rest of
//! the crate never produces — import/replay enforce both-or-neither)
//! decodes as `complete_seq: Some(serial)`.

use std::fmt;

use vscsi::{IoDirection, Lba, TargetId, VDiskId, VmId};
/// The codec's integer primitives, re-exported as a public, stable API.
///
/// These are the building blocks of every multi-byte field in the trace
/// format — LEB128 varints ([`encode_u64`]/[`decode_u64`], which reject
/// truncated and non-canonical overlong encodings), the zigzag mapping
/// ([`zigzag`]/[`unzigzag`]) that keeps small negative values small on the
/// wire, and wrapping zigzagged deltas ([`delta`]/[`apply_delta`]) that
/// round-trip *any* `u64` pair. They live in [`vscsi_stats::varint`], which
/// the checkpoint and fleet wire formats share.
pub use vscsi_stats::varint::{apply_delta, decode_u64, delta, encode_u64, unzigzag, zigzag};
use vscsi_stats::TraceRecord;

/// Flag bit: the command is a write.
pub const FLAG_WRITE: u8 = 0x01;
/// Flag bit: the record carries completion time + sequence.
pub const FLAG_COMPLETED: u8 = 0x02;
/// Flag bit: the record's target differs from its predecessor's.
pub const FLAG_TARGET: u8 = 0x04;
const KNOWN_FLAGS: u8 = FLAG_WRITE | FLAG_COMPLETED | FLAG_TARGET;

/// Worst-case encoded size of one record (all varints at their 10-byte
/// maximum): 1 + 5 + 5 + 10 + 10 + 5 + 10 + 10 + 10 = 66, rounded up.
/// Sizing chunk buffers with this much slack guarantees a sealed block
/// never reallocates past its reserved capacity.
pub const MAX_RECORD_BYTES: usize = 72;

/// Smallest encoded record: the flags byte and four one-byte varints
/// (Δserial, Δlba, sectors, Δissue_ns). A block header's record count is
/// outside the payload CRC, so the decoder bounds it by the payload with
/// this before it allocates.
const MIN_RECORD_BYTES: usize = 5;

/// Per-block delta baseline. Every block starts from this fixed state so
/// blocks decode independently of each other.
#[derive(Debug, Clone, Copy, Default)]
struct DeltaState {
    serial: u64,
    lba: u64,
    issue_ns: u64,
    target: TargetId,
}

fn encode_record(out: &mut Vec<u8>, state: &mut DeltaState, r: &TraceRecord) {
    let mut flags = 0u8;
    if r.direction == IoDirection::Write {
        flags |= FLAG_WRITE;
    }
    if r.complete_ns.is_some() {
        flags |= FLAG_COMPLETED;
    }
    let target_changed = r.target != state.target;
    if target_changed {
        flags |= FLAG_TARGET;
    }
    out.push(flags);
    if target_changed {
        encode_u64(u64::from(r.target.vm.0), out);
        encode_u64(u64::from(r.target.disk.0), out);
    }
    encode_u64(delta(state.serial, r.serial), out);
    encode_u64(delta(state.lba, r.lba.sector()), out);
    encode_u64(u64::from(r.num_sectors), out);
    encode_u64(delta(state.issue_ns, r.issue_ns), out);
    if let Some(complete_ns) = r.complete_ns {
        encode_u64(delta(r.issue_ns, complete_ns), out);
        encode_u64(delta(r.serial, r.complete_seq.unwrap_or(r.serial)), out);
    }
    state.serial = r.serial;
    state.lba = r.lba.sector();
    state.issue_ns = r.issue_ns;
    state.target = r.target;
}

fn decode_record(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
) -> Result<TraceRecord, CodecError> {
    let truncated = || CodecError::new("record truncated");
    let flags = *buf.get(*pos).ok_or_else(truncated)?;
    *pos += 1;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(CodecError::new("unknown flag bits"));
    }
    let target = if flags & FLAG_TARGET != 0 {
        let vm = decode_u64(buf, pos).ok_or_else(truncated)?;
        let disk = decode_u64(buf, pos).ok_or_else(truncated)?;
        let vm = u32::try_from(vm).map_err(|_| CodecError::new("vm id out of range"))?;
        let disk = u32::try_from(disk).map_err(|_| CodecError::new("disk id out of range"))?;
        TargetId::new(VmId(vm), VDiskId(disk))
    } else {
        state.target
    };
    let serial = apply_delta(state.serial, decode_u64(buf, pos).ok_or_else(truncated)?);
    let lba = apply_delta(state.lba, decode_u64(buf, pos).ok_or_else(truncated)?);
    let sectors = decode_u64(buf, pos).ok_or_else(truncated)?;
    let num_sectors =
        u32::try_from(sectors).map_err(|_| CodecError::new("sector count out of range"))?;
    let issue_ns = apply_delta(state.issue_ns, decode_u64(buf, pos).ok_or_else(truncated)?);
    let (complete_ns, complete_seq) = if flags & FLAG_COMPLETED != 0 {
        let complete = apply_delta(issue_ns, decode_u64(buf, pos).ok_or_else(truncated)?);
        let seq = apply_delta(serial, decode_u64(buf, pos).ok_or_else(truncated)?);
        (Some(complete), Some(seq))
    } else {
        (None, None)
    };
    state.serial = serial;
    state.lba = lba;
    state.issue_ns = issue_ns;
    state.target = target;
    Ok(TraceRecord {
        serial,
        target,
        direction: if flags & FLAG_WRITE != 0 {
            IoDirection::Write
        } else {
            IoDirection::Read
        },
        lba: Lba::new(lba),
        num_sectors,
        issue_ns,
        complete_ns,
        complete_seq,
    })
}

/// Error decoding a block payload. Reaching this through a CRC-valid block
/// indicates an encoder bug or version skew; the segment reader treats it
/// as a corrupt block either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    msg: &'static str,
}

impl CodecError {
    fn new(msg: &'static str) -> Self {
        CodecError { msg }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace codec: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

/// Accumulates encoded records into one block payload.
///
/// The payload vector is reserved up front (`chunk_bytes` plus
/// [`MAX_RECORD_BYTES`] slack), so as long as the owner seals once the
/// payload reaches `chunk_bytes`, pushing never reallocates — the
/// builder's resident size is a compile-time-predictable constant.
#[derive(Debug)]
pub struct BlockBuilder {
    payload: Vec<u8>,
    reserve: usize,
    count: u32,
    state: DeltaState,
}

impl BlockBuilder {
    /// Creates a builder whose payload can absorb `chunk_bytes` plus one
    /// worst-case record without reallocating.
    pub fn with_chunk_capacity(chunk_bytes: usize) -> Self {
        let reserve = chunk_bytes + MAX_RECORD_BYTES;
        BlockBuilder {
            payload: Vec::with_capacity(reserve),
            reserve,
            count: 0,
            state: DeltaState::default(),
        }
    }

    /// Appends one record to the block.
    pub fn push(&mut self, record: &TraceRecord) {
        encode_record(&mut self.payload, &mut self.state, record);
        self.count += 1;
    }

    /// Encoded payload bytes so far.
    pub fn len_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Records encoded so far.
    pub fn record_count(&self) -> u32 {
        self.count
    }

    /// Whether no records have been encoded since the last [`Self::take`].
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Allocated payload capacity (for memory accounting).
    pub fn capacity_bytes(&self) -> usize {
        self.payload.capacity()
    }

    /// Seals the block: returns `(payload, record_count)` and resets the
    /// builder (fresh delta baseline, fresh buffer of the same capacity).
    pub fn take(&mut self) -> (Vec<u8>, u32) {
        let payload = std::mem::replace(&mut self.payload, Vec::with_capacity(self.reserve));
        let count = self.count;
        self.count = 0;
        self.state = DeltaState::default();
        (payload, count)
    }
}

/// Decodes a block payload holding exactly `count` records.
///
/// # Errors
///
/// Fails on truncation, malformed varints, out-of-range ids, a count the
/// payload is too short to hold, or leftover bytes after the last record.
pub fn decode_block(payload: &[u8], count: u32) -> Result<Vec<TraceRecord>, CodecError> {
    let mut out = Vec::new();
    decode_block_into(payload, count, &mut out)?;
    Ok(out)
}

/// [`decode_block`] into a caller-owned buffer: appends the decoded
/// records to `out`, so a scan loop that clears and reuses one `Vec`
/// across blocks never allocates past its high-water capacity. This is
/// the segment reader's and the query scanner's steady-state decode path
/// (`decode_alloc` pins the zero-allocation property).
///
/// On error `out` is truncated back to its original length — a corrupt
/// block never leaves half-decoded records behind.
///
/// # Errors
///
/// Same conditions as [`decode_block`].
pub fn decode_block_into(
    payload: &[u8],
    count: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), CodecError> {
    if count as usize > payload.len() / MIN_RECORD_BYTES {
        return Err(CodecError::new("record count exceeds payload"));
    }
    let start = out.len();
    out.reserve(count as usize);
    let mut state = DeltaState::default();
    let mut pos = 0usize;
    for _ in 0..count {
        match decode_record(payload, &mut pos, &mut state) {
            Ok(record) => out.push(record),
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    if pos != payload.len() {
        out.truncate(start);
        return Err(CodecError::new("trailing bytes after last record"));
    }
    Ok(())
}

/// Encodes a record slice as one standalone block payload (convenience for
/// tests and benches; the store seals blocks incrementally instead).
pub fn encode_block(records: &[TraceRecord]) -> (Vec<u8>, u32) {
    let mut builder = BlockBuilder::with_chunk_capacity(records.len() * MAX_RECORD_BYTES);
    for r in records {
        builder.push(r);
    }
    builder.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(serial: u64, lba: u64, issue: u64, done: Option<(u64, u64)>) -> TraceRecord {
        TraceRecord {
            serial,
            target: TargetId::new(VmId(1), VDiskId(0)),
            direction: if serial.is_multiple_of(2) {
                IoDirection::Read
            } else {
                IoDirection::Write
            },
            lba: Lba::new(lba),
            num_sectors: 8,
            issue_ns: issue,
            complete_ns: done.map(|(ns, _)| ns),
            complete_seq: done.map(|(_, seq)| seq),
        }
    }

    #[test]
    fn block_roundtrip() {
        let records = vec![
            rec(0, 64, 1_000, Some((5_000, 2))),
            rec(1, 72, 2_000, Some((7_500, 3))),
            rec(4, 1_000_000, 3_000, None),
            rec(5, 0, 4_000, Some((4_001, 6))),
        ];
        let (payload, count) = encode_block(&records);
        assert_eq!(count, 4);
        assert_eq!(decode_block(&payload, count).unwrap(), records);
    }

    #[test]
    fn sequential_stream_stays_under_16_bytes_per_record() {
        // A realistic stream: serial +2, LBA stride 8, 50 µs interarrival,
        // ~300 µs latency, one target throughout.
        let records: Vec<TraceRecord> = (0..4096u64)
            .map(|i| {
                rec(
                    i * 2,
                    64 + i * 8,
                    i * 50_000,
                    Some((i * 50_000 + 300_000, i * 2 + 1)),
                )
            })
            .collect();
        let (payload, count) = encode_block(&records);
        let per_record = payload.len() as f64 / f64::from(count);
        assert!(per_record <= 16.0, "bytes/record = {per_record:.2}");
        assert_eq!(decode_block(&payload, count).unwrap(), records);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let records = vec![
            TraceRecord {
                serial: u64::MAX,
                target: TargetId::new(VmId(u32::MAX), VDiskId(u32::MAX)),
                direction: IoDirection::Write,
                lba: Lba::new(u64::MAX),
                num_sectors: u32::MAX,
                issue_ns: u64::MAX,
                complete_ns: Some(0),
                complete_seq: Some(0),
            },
            rec(0, 0, 0, None),
        ];
        let (payload, count) = encode_block(&records);
        assert_eq!(decode_block(&payload, count).unwrap(), records);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let records = vec![rec(0, 64, 1_000, Some((5_000, 1)))];
        let (payload, count) = encode_block(&records);
        // Truncated payload.
        assert!(decode_block(&payload[..payload.len() - 1], count).is_err());
        // Wrong count: too many expected…
        assert!(decode_block(&payload, count + 1).is_err());
        // …or more than the payload could hold at five bytes a record,
        // refused before anything is reserved for them.
        let mut out = Vec::new();
        let err = decode_block_into(&payload, u32::MAX, &mut out).unwrap_err();
        assert_eq!(err.to_string(), "trace codec: record count exceeds payload");
        assert_eq!(out.capacity(), 0);
        // The smallest record there is decodes at that bound.
        assert_eq!(decode_block(&[0, 0, 0, 1, 0], 1).unwrap().len(), 1);
        // …or trailing garbage.
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_block(&extended, count).is_err());
        // Unknown flag bits.
        assert!(decode_block(&[0xFF, 0, 0, 0, 0], 1).is_err());
    }

    #[test]
    fn decode_into_appends_and_rolls_back_on_error() {
        let a = vec![rec(0, 64, 1_000, None), rec(1, 72, 2_000, None)];
        let b = vec![rec(9, 640, 9_000, Some((9_500, 10)))];
        let (pa, ca) = encode_block(&a);
        let (pb, cb) = encode_block(&b);
        let mut out = Vec::new();
        decode_block_into(&pa, ca, &mut out).unwrap();
        decode_block_into(&pb, cb, &mut out).unwrap();
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        assert_eq!(out, expected);
        // A failing decode must leave previously decoded records intact.
        assert!(decode_block_into(&pa[..pa.len() - 1], ca, &mut out).is_err());
        assert_eq!(out, expected, "rollback to pre-call length");
        // Reuse without reallocation once capacity is established.
        out.clear();
        let cap = out.capacity();
        decode_block_into(&pa, ca, &mut out).unwrap();
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn builder_take_resets_delta_state() {
        let mut builder = BlockBuilder::with_chunk_capacity(1024);
        let a = rec(7, 4096, 9_000, None);
        builder.push(&a);
        let (p1, c1) = builder.take();
        assert!(builder.is_empty());
        builder.push(&a);
        let (p2, c2) = builder.take();
        // Same record after a reset encodes identically: the baseline is
        // fixed, not carried across blocks.
        assert_eq!((p1.clone(), c1), (p2, c2));
        assert_eq!(decode_block(&p1, c1).unwrap(), vec![a]);
    }

    #[test]
    fn capacity_is_reserved_and_stable() {
        let mut builder = BlockBuilder::with_chunk_capacity(512);
        let cap = builder.capacity_bytes();
        assert!(cap >= 512 + MAX_RECORD_BYTES);
        let mut i = 0u64;
        while builder.len_bytes() < 512 {
            builder.push(&rec(i, i * 8, i * 1_000, Some((i * 1_000 + 500, i + 1))));
            i += 1;
        }
        assert_eq!(builder.capacity_bytes(), cap, "no reallocation before seal");
        let _ = builder.take();
        assert_eq!(builder.capacity_bytes(), cap);
    }
}
