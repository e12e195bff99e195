//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.
//!
//! Hand-rolled so the crate stays inside the pre-approved dependency set;
//! one 1 KiB table computed at compile time, one XOR + shift per byte.
//!
//! Lives here (alongside [`varint`](crate::varint)) because this crate is
//! the lowest one that frames bytes: [`frame`](crate::frame) (checkpoints
//! and `fleet` frames) and `tracestore` call it.

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

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
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

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
