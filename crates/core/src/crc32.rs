//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slice-by-16.
//!
//! Hand-rolled so the crate stays inside the pre-approved dependency set.
//! Sixteen 1 KiB tables computed at compile time: `TABLES[k][b]` is the
//! CRC state byte `b` leaves behind after `k` further zero bytes, so one
//! step folds sixteen input bytes with sixteen independent lookups
//! instead of sixteen dependent ones. The tail (and any input shorter
//! than sixteen bytes) goes a byte at a time through `TABLES[0]`.
//!
//! Lives here (alongside [`varint`](crate::varint)) because this crate is
//! the lowest one that frames bytes: [`frame`](crate::frame) (checkpoints
//! and `fleet` frames) and `tracestore` call it.

#![forbid(unsafe_code)]

const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// CRC-32 of `data` (initial value and final XOR both `0xFFFF_FFFF`,
/// matching zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 over more bytes, zlib-style: `crc` is the CRC of
/// everything before `data` (0 for nothing), so
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)` without joining the slices.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = crc ^ 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let word = |at: usize| {
            u32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
        };
        // The running state only meets the first four bytes; byte `j` of
        // the chunk has 15 − j bytes after it.
        let mut next = 0;
        for (w, word) in [word(0) ^ c, word(4), word(8), word(12)]
            .into_iter()
            .enumerate()
        {
            let top = 15 - 4 * w;
            next ^= TABLES[top][(word & 0xFF) as usize]
                ^ TABLES[top - 1][((word >> 8) & 0xFF) as usize]
                ^ TABLES[top - 2][((word >> 16) & 0xFF) as usize]
                ^ TABLES[top - 3][(word >> 24) as usize];
        }
        c = next;
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop the kernel replaced: what it must equal.
    fn bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut c = crc ^ 0xFFFF_FFFF;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for this polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn update_continues_across_any_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(data), "split at {cut}");
        }
    }

    #[test]
    fn equals_the_bytewise_reference_at_every_length_offset_and_split() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..160)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=130 {
                let data = &buffer[offset..offset + len];
                let expected = bytewise(0, data);
                assert_eq!(crc32(data), expected, "offset {offset} len {len}");
                for cut in 0..=len {
                    let (a, b) = data.split_at(cut);
                    assert_eq!(
                        crc32_update(crc32(a), b),
                        expected,
                        "offset {offset} len {len} split at {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
