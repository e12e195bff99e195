//! The sealed-frame envelope `VSCKPT2` checkpoints and `VFLHIST3` fleet
//! frames share:
//!
//! ```text
//! magic[8]   payload_len:u32le   crc32(magic ‖ payload):u32le   payload
//! ```
//!
//! The CRC covers the magic as well as the payload, so a flipped version
//! byte can never leave a frame that still verifies. [`open`] is total:
//! hostile bytes get one of five reasons, never a panic.

use crate::crc32::{crc32, crc32_update};

/// Bytes of framing around the payload: magic + length + CRC.
pub const HEADER_BYTES: usize = 8 + 4 + 4;

/// Seals `payload` in a frame under `magic`. Fails only when the payload
/// exceeds the `u32` length field.
pub fn seal(magic: &[u8; 8], payload: &[u8]) -> Result<Vec<u8>, &'static str> {
    let len = u32::try_from(payload.len()).map_err(|_| "payload exceeds frame size")?;
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32_update(crc32(magic), payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Verifies magic, length and CRC of exactly one frame and returns its
/// payload.
pub fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], &'static str> {
    if bytes.len() < HEADER_BYTES {
        return Err("frame shorter than its header");
    }
    if bytes[..8] != *magic {
        return Err("bad frame magic");
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let want_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload = &bytes[HEADER_BYTES..];
    if payload.len() < len {
        return Err("frame truncated mid-payload");
    }
    if payload.len() > len {
        return Err("trailing bytes after frame");
    }
    if crc32_update(crc32(magic), payload) != want_crc {
        return Err("payload CRC mismatch");
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTFRM1";

    #[test]
    fn every_malformation_has_its_reason() {
        let payload: Vec<u8> = (0..200u8).collect();
        let sealed = seal(&MAGIC, &payload).expect("fits");
        assert_eq!(open(&MAGIC, &sealed), Ok(&payload[..]));
        assert_eq!(seal(&MAGIC, &[]).map(|f| f.len()), Ok(HEADER_BYTES));

        let mut trailing = sealed.clone();
        trailing.push(0);
        let cases: [(&[u8], &str); 5] = [
            (&sealed[..HEADER_BYTES - 1], "frame shorter than its header"),
            (&[], "frame shorter than its header"),
            (&sealed[..HEADER_BYTES], "frame truncated mid-payload"),
            (&sealed[..sealed.len() - 1], "frame truncated mid-payload"),
            (&trailing, "trailing bytes after frame"),
        ];
        for (bytes, reason) in cases {
            assert_eq!(open(&MAGIC, bytes), Err(reason));
        }
        assert_eq!(open(b"TESTFRM2", &sealed), Err("bad frame magic"));

        // A single flipped bit anywhere is caught by the check that owns
        // its field: magic, then length (either direction), then CRC.
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let reason = open(&MAGIC, &bad).expect_err("flipped bit must not verify");
            let expect: &[&str] = match bit / 8 {
                0..=7 => &["bad frame magic"],
                8..=11 => &["frame truncated mid-payload", "trailing bytes after frame"],
                _ => &["payload CRC mismatch"],
            };
            assert!(expect.contains(&reason), "bit {bit}: {reason}");
        }
    }
}
