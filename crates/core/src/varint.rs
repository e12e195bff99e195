//! LEB128 variable-length integers and zigzag deltas.
//!
//! Every multi-byte field in the trace codec is a varint; signed deltas
//! (LBA jumps, timestamp steps) are zigzag-mapped first so small negative
//! values stay small on the wire. All delta arithmetic is wrapping, so the
//! codec round-trips *any* `u64` pair, not just well-ordered ones.
//!
//! These primitives started life inside `tracestore::codec` and moved
//! here when the checkpoint plane needed them: `core::checkpoint` cannot
//! depend on `tracestore` (which depends on this crate), so the shared
//! integer codec lives at the bottom of the dependency graph and
//! `tracestore::codec` re-exports it unchanged.

/// Appends `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint starting at `*pos`, advancing `*pos`
/// past it. Returns `None` on truncation or a non-canonical overlong
/// encoding (more than 10 bytes, or bits beyond the 64th).
///
/// Most fields of a trace record and most counters of a frame fit seven
/// bits, so the one-byte case is decided inline at the call site and only
/// a continuation byte pays for the call into the loop.
#[inline]
pub fn decode_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Some(u64::from(byte))
        }
        _ => decode_u64_multibyte(buf, pos),
    }
}

/// The general case of [`decode_u64`]: any length, including the
/// truncated and overlong inputs it rejects.
#[inline(never)]
fn decode_u64_multibyte(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for i in 0..10 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if i == 9 && low > 1 {
            return None;
        }
        value |= low << (7 * i);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

/// Zigzag-maps a signed value so small magnitudes of either sign encode
/// into few varint bytes: 0, -1, 1, -2, 2, … → 0, 1, 2, 3, 4, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The wire form of `cur` relative to `prev`: a zigzagged wrapping
/// difference, so consecutive values close in either direction stay short.
#[inline]
pub fn delta(prev: u64, cur: u64) -> u64 {
    zigzag(cur.wrapping_sub(prev) as i64)
}

/// Inverse of [`delta`]: reapplies an encoded difference to `prev`.
#[inline]
pub fn apply_delta(prev: u64, encoded: u64) -> u64 {
    prev.wrapping_add(unzigzag(encoded) as u64)
}

/// Zigzag-maps an `i128` (exact histogram sums) into a `u128` for wire
/// encoding as two `u64` varint halves.
pub fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag128`].
pub fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(decode_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(decode_u64(&[], &mut pos), None);
        let mut pos = 0;
        assert_eq!(decode_u64(&[0x80], &mut pos), None, "dangling continuation");
        // 11 continuation bytes can never be a canonical u64.
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(decode_u64(&overlong, &mut pos), None);
        // Bits beyond the 64th in the 10th byte.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut pos = 0;
        assert_eq!(decode_u64(&too_big, &mut pos), None);
    }

    /// The decoder as it was before the one-byte path: one loop for every
    /// length. Kept here as the reference the split decoder must equal.
    fn reference_decode(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = *buf.get(*pos)?;
            *pos += 1;
            let low = u64::from(byte & 0x7f);
            if i == 9 && low > 1 {
                return None;
            }
            value |= low << (7 * i);
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    /// Same `Option` from any start offset, and the same `pos` on success.
    fn assert_decodes_like_reference(buf: &[u8]) {
        for start in 0..=buf.len() {
            let (mut pos, mut ref_pos) = (start, start);
            let got = decode_u64(buf, &mut pos);
            assert_eq!(got, reference_decode(buf, &mut ref_pos), "{buf:02x?}");
            if got.is_some() {
                assert_eq!(pos, ref_pos, "{buf:02x?} from {start}");
            }
        }
    }

    #[test]
    fn split_decoder_equals_the_single_loop() {
        assert_decodes_like_reference(&[]);
        for a in 0..=u8::MAX {
            assert_decodes_like_reference(&[a]);
            for b in 0..=u8::MAX {
                assert_decodes_like_reference(&[a, b]);
            }
        }
        let mut rng = simkit::SimRng::seed_from(23);
        for _ in 0..20_000 {
            // Mostly continuation bytes, so the long forms — up to the
            // tenth byte and the overlong eleventh — are what gets drawn.
            let len = rng.range_inclusive(3, 11) as usize;
            let mut buf: Vec<u8> = (0..len)
                .map(|_| rng.next_u64() as u8 | if rng.chance(0.85) { 0x80 } else { 0 })
                .collect();
            if rng.chance(0.5) {
                // A well-formed terminator where the tenth byte would be.
                let last = buf.len().min(10) - 1;
                buf[last] = rng.range_inclusive(0, 3) as u8;
            }
            assert_decodes_like_reference(&buf);
            // Every truncation of it as well.
            for cut in 0..buf.len() {
                assert_decodes_like_reference(&buf[..cut]);
            }
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn zigzag128_roundtrip() {
        for v in [0i128, 1, -1, i128::MAX, i128::MIN, 1 << 100, -(1 << 100)] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
        assert_eq!(zigzag128(0), 0);
        assert_eq!(zigzag128(-1), 1);
        assert_eq!(zigzag128(1), 2);
    }

    #[test]
    fn delta_roundtrip_any_pair() {
        for &(a, b) in &[
            (0u64, 0u64),
            (5, 3),
            (3, 5),
            (0, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
            (1 << 63, 1),
        ] {
            assert_eq!(apply_delta(a, delta(a, b)), b, "({a}, {b})");
        }
    }
}
