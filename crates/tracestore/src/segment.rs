//! The versioned on-disk segment format.
//!
//! A segment file is a 16-byte header followed by checksummed blocks:
//!
//! ```text
//! header:  magic "VSTRSEG1" (8)  version:u32le  flags:u32le
//! block:   magic "VSBK":u32le  payload_len:u32le  record_count:u32le
//!          crc32(payload):u32le  payload[payload_len]
//! ```
//!
//! Blocks are independently decodable (the codec's delta state resets per
//! block), so the reader degrades gracefully instead of panicking:
//!
//! * a block whose CRC or payload fails to verify is *skipped* and counted
//!   in [`SegmentIntegrity::blocks_corrupt`];
//! * a damaged block header triggers a byte-wise scan for the next block
//!   magic (`resyncs`), recovering everything after a corrupt region;
//! * a file that ends mid-header or mid-payload — the shape a crash or
//!   `kill -9` leaves behind — sets [`SegmentIntegrity::truncated_tail`]
//!   and yields every record up to the cut.

use crate::codec::decode_block_into;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use vscsi_stats::crc32::crc32;
use vscsi_stats::TraceRecord;

/// Leading bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"VSTRSEG1";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Segment header size in bytes.
pub const SEGMENT_HEADER_BYTES: usize = 16;
/// Leading bytes of every block (`b"VSBK"` little-endian).
pub const BLOCK_MAGIC: u32 = u32::from_le_bytes(*b"VSBK");
/// Block header size in bytes.
pub const BLOCK_HEADER_BYTES: usize = 16;
/// Upper bound on a block payload; a declared length beyond this is
/// treated as header corruption rather than followed blindly.
pub const MAX_BLOCK_BYTES: usize = 16 << 20;

/// File extension used for segment files.
pub const SEGMENT_EXTENSION: &str = "vseg";

/// Writes the segment file header.
pub fn write_segment_header(w: &mut impl Write) -> io::Result<usize> {
    w.write_all(&SEGMENT_MAGIC)?;
    w.write_all(&SEGMENT_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    Ok(SEGMENT_HEADER_BYTES)
}

/// Writes one checksummed block; returns the bytes written.
pub fn write_block(w: &mut impl Write, payload: &[u8], record_count: u32) -> io::Result<usize> {
    write_block_with_crc(w, payload, record_count, crc32(payload))
}

/// [`write_block`] with a caller-computed checksum, so a writer that also
/// feeds the checksum into an index sidecar hashes the payload once.
pub(crate) fn write_block_with_crc(
    w: &mut impl Write,
    payload: &[u8],
    record_count: u32,
    crc: u32,
) -> io::Result<usize> {
    debug_assert!(payload.len() <= MAX_BLOCK_BYTES);
    debug_assert_eq!(crc, crc32(payload));
    w.write_all(&BLOCK_MAGIC.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&record_count.to_le_bytes())?;
    w.write_all(&crc.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(BLOCK_HEADER_BYTES + payload.len())
}

/// Per-file integrity accounting produced by the reader. `Display` prints
/// a one-line summary suitable for CLI output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentIntegrity {
    /// Blocks whose checksum and payload verified.
    pub blocks_ok: u64,
    /// Blocks skipped for CRC mismatch, decode failure, or a damaged
    /// header.
    pub blocks_corrupt: u64,
    /// Records decoded successfully.
    pub records_recovered: u64,
    /// Declared record count of corrupt-but-framed blocks (a lower bound
    /// on what was lost; headerless corruption cannot be counted).
    pub records_lost: u64,
    /// The file ended mid-header or mid-payload (crash/truncation shape).
    pub truncated_tail: bool,
    /// Times the reader scanned forward for a block magic after header
    /// damage.
    pub resyncs: u64,
    /// Bytes not attributable to any decodable block.
    pub stray_bytes: u64,
}

impl SegmentIntegrity {
    /// Whether the file read back fully intact.
    pub fn is_clean(&self) -> bool {
        self.blocks_corrupt == 0 && !self.truncated_tail && self.stray_bytes == 0
    }

    /// Folds another file's integrity stats into this one.
    pub fn merge(&mut self, other: &SegmentIntegrity) {
        self.blocks_ok += other.blocks_ok;
        self.blocks_corrupt += other.blocks_corrupt;
        self.records_recovered += other.records_recovered;
        self.records_lost += other.records_lost;
        self.truncated_tail |= other.truncated_tail;
        self.resyncs += other.resyncs;
        self.stray_bytes += other.stray_bytes;
    }
}

impl fmt::Display for SegmentIntegrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records in {} blocks",
            self.records_recovered, self.blocks_ok
        )?;
        if self.blocks_corrupt > 0 {
            write!(
                f,
                "; {} corrupt block(s), >= {} record(s) lost",
                self.blocks_corrupt, self.records_lost
            )?;
        }
        if self.truncated_tail {
            write!(f, "; truncated tail")?;
        }
        if self.stray_bytes > 0 {
            write!(f, "; {} stray byte(s)", self.stray_bytes)?;
        }
        if self.is_clean() {
            write!(f, "; clean")?;
        }
        Ok(())
    }
}

/// Error for data that is not a tracestore segment at all (as opposed to a
/// damaged one, which [`parse_segment`] recovers from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// Missing or wrong file magic.
    NotASegment,
    /// Unknown format version.
    UnsupportedVersion(u32),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::NotASegment => write!(f, "not a tracestore segment (bad magic)"),
            SegmentError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported segment version {v} (expected {SEGMENT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for SegmentError {}

fn find_block_magic(data: &[u8], from: usize) -> Option<usize> {
    let needle = BLOCK_MAGIC.to_le_bytes();
    let mut i = from;
    while i + needle.len() <= data.len() {
        if data[i..i + needle.len()] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn read_u32(data: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"))
}

/// One event from the structural framing walk over a segment image.
/// Shared by [`parse_segment`] and the index builder so both discover the
/// *same* block set on the same bytes.
#[derive(Debug)]
pub(crate) enum FrameEvent<'a> {
    /// A framed block: the header parsed sanely and the payload is in
    /// bounds. The CRC is reported, **not verified** — consumers decide
    /// whether to pay for verification.
    Block {
        /// Byte offset of the block header within the file.
        offset: usize,
        /// Declared record count from the header.
        record_count: u32,
        /// Declared CRC32 of the payload from the header.
        crc: u32,
        /// The payload bytes.
        payload: &'a [u8],
    },
    /// Header damage at the walk position; the walk resynced to the next
    /// block magic (or the end), skipping `skipped` unattributable bytes.
    Corrupt { skipped: u64 },
    /// The file ends mid-header or mid-payload (crash/truncation shape);
    /// `stray` bytes remain past the last whole block.
    Truncated { stray: u64 },
}

/// Walks the block framing of a segment image, emitting one event per
/// framed block / corrupt region / truncated tail. Never panics on
/// hostile input.
///
/// # Errors
///
/// Only for data that was never a segment: wrong magic or an unsupported
/// version.
pub(crate) fn walk_frames<'a>(
    data: &'a [u8],
    mut on_event: impl FnMut(FrameEvent<'a>),
) -> Result<(), SegmentError> {
    if data.len() < SEGMENT_HEADER_BYTES || data[..8] != SEGMENT_MAGIC {
        return Err(SegmentError::NotASegment);
    }
    let version = read_u32(data, 8);
    if version != SEGMENT_VERSION {
        return Err(SegmentError::UnsupportedVersion(version));
    }
    let mut pos = SEGMENT_HEADER_BYTES;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < BLOCK_HEADER_BYTES {
            on_event(FrameEvent::Truncated {
                stray: remaining as u64,
            });
            break;
        }
        let magic = read_u32(data, pos);
        let payload_len = read_u32(data, pos + 4) as usize;
        if magic != BLOCK_MAGIC || payload_len > MAX_BLOCK_BYTES {
            // Header damage: scan forward for the next block and count the
            // skipped span as one corrupt region.
            match find_block_magic(data, pos + 1) {
                Some(next) => {
                    on_event(FrameEvent::Corrupt {
                        skipped: (next - pos) as u64,
                    });
                    pos = next;
                    continue;
                }
                None => {
                    on_event(FrameEvent::Corrupt {
                        skipped: remaining as u64,
                    });
                    break;
                }
            }
        }
        let record_count = read_u32(data, pos + 8);
        let crc = read_u32(data, pos + 12);
        let payload_start = pos + BLOCK_HEADER_BYTES;
        if data.len() - payload_start < payload_len {
            // The crash shape: a block was being appended when the file
            // was cut. Everything before it has already been recovered.
            on_event(FrameEvent::Truncated {
                stray: remaining as u64,
            });
            break;
        }
        on_event(FrameEvent::Block {
            offset: pos,
            record_count,
            crc,
            payload: &data[payload_start..payload_start + payload_len],
        });
        pos = payload_start + payload_len;
    }
    Ok(())
}

/// Parses a segment image, recovering everything recoverable. Never
/// panics on hostile input; damage is reported in the returned
/// [`SegmentIntegrity`].
///
/// # Errors
///
/// Only for data that was never a segment: wrong magic or an unsupported
/// version.
pub fn parse_segment(data: &[u8]) -> Result<(Vec<TraceRecord>, SegmentIntegrity), SegmentError> {
    let mut records = Vec::new();
    let mut integrity = SegmentIntegrity::default();
    walk_frames(data, |event| match event {
        FrameEvent::Block {
            record_count,
            crc,
            payload,
            ..
        } => {
            let before = records.len();
            // Decode straight into the accumulator: the only per-block
            // cost is the records themselves, no scratch Vec per block.
            if crc32(payload) == crc
                && decode_block_into(payload, record_count, &mut records).is_ok()
            {
                integrity.blocks_ok += 1;
                integrity.records_recovered += (records.len() - before) as u64;
            } else {
                integrity.blocks_corrupt += 1;
                integrity.records_lost += u64::from(record_count);
            }
        }
        FrameEvent::Corrupt { skipped } => {
            integrity.blocks_corrupt += 1;
            integrity.resyncs += 1;
            integrity.stray_bytes += skipped;
        }
        FrameEvent::Truncated { stray } => {
            integrity.truncated_tail = true;
            integrity.stray_bytes += stray;
        }
    })?;
    Ok((records, integrity))
}

/// Reads and parses one segment file.
///
/// # Errors
///
/// I/O failures, plus `InvalidData` when the file is not a tracestore
/// segment. Damage *within* a segment is not an error — see
/// [`parse_segment`].
pub fn read_segment(path: &Path) -> io::Result<(Vec<TraceRecord>, SegmentIntegrity)> {
    let data = fs::read(path)?;
    parse_segment(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_block;
    use crate::testutil::{rec, segment_with_blocks};

    #[test]
    fn clean_segment_roundtrip() {
        let a: Vec<TraceRecord> = (0..10).map(rec).collect();
        let b: Vec<TraceRecord> = (10..25).map(rec).collect();
        let image = segment_with_blocks(&[&a, &b]);
        let (records, integrity) = parse_segment(&image).unwrap();
        assert_eq!(records.len(), 25);
        assert_eq!(records[..10], a[..]);
        assert_eq!(records[10..], b[..]);
        assert!(integrity.is_clean());
        assert_eq!(integrity.blocks_ok, 2);
        assert!(integrity.to_string().contains("clean"));
    }

    #[test]
    fn rejects_non_segments() {
        assert_eq!(
            parse_segment(b"short").unwrap_err(),
            SegmentError::NotASegment
        );
        let mut wrong_version = segment_with_blocks(&[]);
        wrong_version[8] = 99;
        assert_eq!(
            parse_segment(&wrong_version).unwrap_err(),
            SegmentError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn truncated_tail_recovers_prefix() {
        let a: Vec<TraceRecord> = (0..10).map(rec).collect();
        let b: Vec<TraceRecord> = (10..20).map(rec).collect();
        let image = segment_with_blocks(&[&a, &b]);
        let second_block_start = {
            let (payload, _) = encode_block(&a);
            SEGMENT_HEADER_BYTES + BLOCK_HEADER_BYTES + payload.len()
        };
        // Cut at every byte inside the second block: never panic, always
        // recover the first block, always flag the tail.
        for cut in second_block_start + 1..image.len() {
            let (records, integrity) = parse_segment(&image[..cut]).unwrap();
            assert_eq!(records, a, "cut at {cut}");
            assert!(integrity.truncated_tail, "cut at {cut}");
            assert_eq!(integrity.blocks_ok, 1);
        }
        // Cutting exactly between blocks is clean.
        let (records, integrity) = parse_segment(&image[..second_block_start]).unwrap();
        assert_eq!(records, a);
        assert!(integrity.is_clean());
    }

    #[test]
    fn corrupt_payload_is_skipped_later_blocks_survive() {
        let a: Vec<TraceRecord> = (0..10).map(rec).collect();
        let b: Vec<TraceRecord> = (10..20).map(rec).collect();
        let c: Vec<TraceRecord> = (20..30).map(rec).collect();
        let mut image = segment_with_blocks(&[&a, &b, &c]);
        // Flip one payload byte inside block b.
        let b_payload_start = {
            let (pa, _) = encode_block(&a);
            SEGMENT_HEADER_BYTES + BLOCK_HEADER_BYTES + pa.len() + BLOCK_HEADER_BYTES
        };
        image[b_payload_start + 3] ^= 0x40;
        let (records, integrity) = parse_segment(&image).unwrap();
        let mut expected = a.clone();
        expected.extend_from_slice(&c);
        assert_eq!(records, expected);
        assert_eq!(integrity.blocks_corrupt, 1);
        assert_eq!(integrity.records_lost, 10);
        assert!(!integrity.truncated_tail);
    }

    #[test]
    fn damaged_header_resyncs_to_next_block() {
        let a: Vec<TraceRecord> = (0..10).map(rec).collect();
        let b: Vec<TraceRecord> = (10..20).map(rec).collect();
        let mut image = segment_with_blocks(&[&a, &b]);
        // Smash block a's magic; the reader must scan to block b.
        image[SEGMENT_HEADER_BYTES] ^= 0xFF;
        let (records, integrity) = parse_segment(&image).unwrap();
        assert_eq!(records, b);
        assert_eq!(integrity.blocks_corrupt, 1);
        assert_eq!(integrity.resyncs, 1);
        assert!(integrity.stray_bytes > 0);
    }

    #[test]
    fn absurd_declared_length_is_header_corruption_not_truncation() {
        let a: Vec<TraceRecord> = (0..5).map(rec).collect();
        let mut image = segment_with_blocks(&[&a]);
        // Declare a payload longer than MAX_BLOCK_BYTES.
        let len = (MAX_BLOCK_BYTES as u32 + 1).to_le_bytes();
        image[SEGMENT_HEADER_BYTES + 4..SEGMENT_HEADER_BYTES + 8].copy_from_slice(&len);
        let (records, integrity) = parse_segment(&image).unwrap();
        assert!(records.is_empty());
        assert_eq!(integrity.blocks_corrupt, 1);
        assert_eq!(integrity.resyncs, 1);
    }

    #[test]
    fn flipped_record_count_is_a_corrupt_block_not_an_allocation() {
        // The record count sits in the block header, outside the payload
        // CRC: one flipped bit there claims a billion records.
        let records: Vec<TraceRecord> = (0..10).map(rec).collect();
        let mut seg = segment_with_blocks(&[&records]);
        seg[SEGMENT_HEADER_BYTES + 11] ^= 0x40;
        let (recovered, integrity) = parse_segment(&seg).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(recovered.capacity(), 0);
        assert_eq!(integrity.blocks_corrupt, 1);
        assert_eq!(integrity.blocks_ok, 0);
    }

    #[test]
    fn empty_segment_is_clean() {
        let image = segment_with_blocks(&[]);
        let (records, integrity) = parse_segment(&image).unwrap();
        assert!(records.is_empty());
        assert!(integrity.is_clean());
    }
}
