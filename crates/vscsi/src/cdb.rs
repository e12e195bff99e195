//! SCSI Command Descriptor Block encoding and decoding.
//!
//! ESX emulates LSI Logic / Bus Logic SCSI controllers; the guest driver
//! produces real SCSI CDBs which the virtual machine monitor traps and the
//! vSCSI layer interprets (§2). This module implements the subset the data
//! path needs: the READ/WRITE families (6/10/12/16-byte variants) plus the
//! handful of non-transfer commands a guest issues at attach time.
//!
//! Wire format follows SBC-3: big-endian LBA and transfer-length fields at
//! the classic offsets.

use crate::types::{IoDirection, Lba};
use std::fmt;

/// Errors arising when decoding a CDB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdbError {
    /// The buffer was shorter than the opcode requires; payload is the
    /// required length.
    Truncated(usize),
    /// The opcode byte is not one this emulation supports.
    UnsupportedOpcode(u8),
    /// A READ(6)/WRITE(6) LBA exceeded its 21-bit field, or a transfer
    /// length exceeded the encodable range for the chosen variant.
    FieldOverflow,
}

impl fmt::Display for CdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdbError::Truncated(need) => write!(f, "cdb truncated: need {need} bytes"),
            CdbError::UnsupportedOpcode(op) => write!(f, "unsupported scsi opcode {op:#04x}"),
            CdbError::FieldOverflow => write!(f, "lba or transfer length overflows cdb field"),
        }
    }
}

impl std::error::Error for CdbError {}

/// Width variant of a READ/WRITE CDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RwVariant {
    /// 6-byte CDB: 21-bit LBA, 8-bit length (0 means 256 blocks).
    Six,
    /// 10-byte CDB: 32-bit LBA, 16-bit length.
    Ten,
    /// 12-byte CDB: 32-bit LBA, 32-bit length.
    Twelve,
    /// 16-byte CDB: 64-bit LBA, 32-bit length.
    Sixteen,
}

impl RwVariant {
    /// Encoded size in bytes.
    #[allow(clippy::len_without_is_empty)] // a CDB is never empty
    pub const fn len(self) -> usize {
        match self {
            RwVariant::Six => 6,
            RwVariant::Ten => 10,
            RwVariant::Twelve => 12,
            RwVariant::Sixteen => 16,
        }
    }

    /// The smallest variant able to encode `lba`/`blocks`, preferring the
    /// 10-byte form like most initiators.
    pub fn smallest_for(lba: Lba, blocks: u32) -> RwVariant {
        if lba.sector() <= u64::from(u32::MAX) && blocks <= u32::from(u16::MAX) {
            RwVariant::Ten
        } else if lba.sector() <= u64::from(u32::MAX) {
            RwVariant::Twelve
        } else {
            RwVariant::Sixteen
        }
    }
}

/// A decoded SCSI command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cdb {
    /// A data-transfer command (the vSCSI stats fast path).
    Rw {
        /// Read or write.
        direction: IoDirection,
        /// Variant that carried (or will carry) this command on the wire.
        variant: RwVariant,
        /// First logical block.
        lba: Lba,
        /// Number of logical blocks to transfer.
        blocks: u32,
    },
    /// TEST UNIT READY (opcode 0x00).
    TestUnitReady,
    /// INQUIRY (opcode 0x12) with its allocation length.
    Inquiry {
        /// Allocation length from byte 4.
        allocation_len: u8,
    },
    /// READ CAPACITY(10) (opcode 0x25).
    ReadCapacity10,
    /// SYNCHRONIZE CACHE(10) (opcode 0x35) — flush.
    SynchronizeCache10,
}

/// SCSI opcodes used by this emulation.
pub mod opcodes {
    /// TEST UNIT READY.
    pub const TEST_UNIT_READY: u8 = 0x00;
    /// READ(6).
    pub const READ_6: u8 = 0x08;
    /// WRITE(6).
    pub const WRITE_6: u8 = 0x0A;
    /// INQUIRY.
    pub const INQUIRY: u8 = 0x12;
    /// READ CAPACITY(10).
    pub const READ_CAPACITY_10: u8 = 0x25;
    /// READ(10).
    pub const READ_10: u8 = 0x28;
    /// WRITE(10).
    pub const WRITE_10: u8 = 0x2A;
    /// SYNCHRONIZE CACHE(10).
    pub const SYNCHRONIZE_CACHE_10: u8 = 0x35;
    /// READ(16).
    pub const READ_16: u8 = 0x88;
    /// WRITE(16).
    pub const WRITE_16: u8 = 0x8A;
    /// READ(12).
    pub const READ_12: u8 = 0xA8;
    /// WRITE(12).
    pub const WRITE_12: u8 = 0xAA;
}

impl Cdb {
    /// Builds a data-transfer command using the smallest suitable variant.
    pub fn rw(direction: IoDirection, lba: Lba, blocks: u32) -> Cdb {
        Cdb::Rw {
            direction,
            variant: RwVariant::smallest_for(lba, blocks),
            lba,
            blocks,
        }
    }

    /// Builds a read using the smallest suitable variant.
    pub fn read(lba: Lba, blocks: u32) -> Cdb {
        Cdb::rw(IoDirection::Read, lba, blocks)
    }

    /// Builds a write using the smallest suitable variant.
    pub fn write(lba: Lba, blocks: u32) -> Cdb {
        Cdb::rw(IoDirection::Write, lba, blocks)
    }

    /// `true` if this command transfers data (read or write).
    pub const fn is_rw(&self) -> bool {
        matches!(self, Cdb::Rw { .. })
    }

    /// Encodes to wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CdbError::FieldOverflow`] if the LBA or length does not fit
    /// the chosen variant's fields.
    pub fn encode(&self) -> Result<Vec<u8>, CdbError> {
        let mut buf = Vec::with_capacity(16);
        match *self {
            Cdb::TestUnitReady => {
                buf.extend([0; 6]);
            }
            Cdb::Inquiry { allocation_len } => {
                buf.push(opcodes::INQUIRY);
                buf.extend([0; 3]);
                buf.push(allocation_len);
                buf.push(0);
            }
            Cdb::ReadCapacity10 => {
                buf.push(opcodes::READ_CAPACITY_10);
                buf.extend([0; 9]);
            }
            Cdb::SynchronizeCache10 => {
                buf.push(opcodes::SYNCHRONIZE_CACHE_10);
                buf.extend([0; 9]);
            }
            Cdb::Rw {
                direction,
                variant,
                lba,
                blocks,
            } => {
                encode_rw(&mut buf, direction, variant, lba, blocks)?;
            }
        }
        Ok(buf)
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CdbError::Truncated`] when the buffer is too short for its
    /// opcode and [`CdbError::UnsupportedOpcode`] for commands outside the
    /// emulated subset.
    pub fn decode(raw: &[u8]) -> Result<Cdb, CdbError> {
        use opcodes::*;
        let op = *raw.first().ok_or(CdbError::Truncated(1))?;
        let need = |n: usize| {
            if raw.len() < n {
                Err(CdbError::Truncated(n))
            } else {
                Ok(())
            }
        };
        match op {
            TEST_UNIT_READY => {
                need(6)?;
                Ok(Cdb::TestUnitReady)
            }
            INQUIRY => {
                need(6)?;
                Ok(Cdb::Inquiry {
                    allocation_len: raw[4],
                })
            }
            READ_CAPACITY_10 => {
                need(10)?;
                Ok(Cdb::ReadCapacity10)
            }
            SYNCHRONIZE_CACHE_10 => {
                need(10)?;
                Ok(Cdb::SynchronizeCache10)
            }
            READ_6 | WRITE_6 => {
                need(6)?;
                let dir = if op == READ_6 {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                };
                let lba =
                    (u64::from(raw[1] & 0x1F) << 16) | (u64::from(raw[2]) << 8) | u64::from(raw[3]);
                // In READ(6)/WRITE(6) a zero length means 256 blocks.
                let blocks = if raw[4] == 0 { 256 } else { u32::from(raw[4]) };
                Ok(Cdb::Rw {
                    direction: dir,
                    variant: RwVariant::Six,
                    lba: Lba::new(lba),
                    blocks,
                })
            }
            READ_10 | WRITE_10 => {
                need(10)?;
                let dir = if op == READ_10 {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                };
                let lba = u64::from(u32::from_be_bytes(be(raw, 2)));
                let blocks = u32::from(u16::from_be_bytes(be(raw, 7)));
                Ok(Cdb::Rw {
                    direction: dir,
                    variant: RwVariant::Ten,
                    lba: Lba::new(lba),
                    blocks,
                })
            }
            READ_12 | WRITE_12 => {
                need(12)?;
                let dir = if op == READ_12 {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                };
                let lba = u64::from(u32::from_be_bytes(be(raw, 2)));
                let blocks = u32::from_be_bytes(be(raw, 6));
                Ok(Cdb::Rw {
                    direction: dir,
                    variant: RwVariant::Twelve,
                    lba: Lba::new(lba),
                    blocks,
                })
            }
            READ_16 | WRITE_16 => {
                need(16)?;
                let dir = if op == READ_16 {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                };
                let lba = u64::from_be_bytes(be(raw, 2));
                let blocks = u32::from_be_bytes(be(raw, 10));
                Ok(Cdb::Rw {
                    direction: dir,
                    variant: RwVariant::Sixteen,
                    lba: Lba::new(lba),
                    blocks,
                })
            }
            other => Err(CdbError::UnsupportedOpcode(other)),
        }
    }
}

/// The `N` bytes of a big-endian field at offset `at`; the caller has
/// checked the buffer's length against its opcode.
fn be<const N: usize>(raw: &[u8], at: usize) -> [u8; N] {
    raw[at..at + N]
        .try_into()
        .expect("a slice of N bytes is an array of N bytes")
}

fn encode_rw(
    buf: &mut Vec<u8>,
    direction: IoDirection,
    variant: RwVariant,
    lba: Lba,
    blocks: u32,
) -> Result<(), CdbError> {
    use opcodes::*;
    let sector = lba.sector();
    match variant {
        RwVariant::Six => {
            if sector > 0x1F_FFFF || blocks > 256 || blocks == 0 {
                return Err(CdbError::FieldOverflow);
            }
            buf.push(if direction.is_read() { READ_6 } else { WRITE_6 });
            buf.push(((sector >> 16) & 0x1F) as u8);
            buf.push((sector >> 8) as u8);
            buf.push(sector as u8);
            buf.push(if blocks == 256 { 0 } else { blocks as u8 });
            buf.push(0); // control
        }
        RwVariant::Ten => {
            if sector > u64::from(u32::MAX) || blocks > u32::from(u16::MAX) {
                return Err(CdbError::FieldOverflow);
            }
            buf.push(if direction.is_read() {
                READ_10
            } else {
                WRITE_10
            });
            buf.push(0); // flags
            buf.extend((sector as u32).to_be_bytes());
            buf.push(0); // group
            buf.extend((blocks as u16).to_be_bytes());
            buf.push(0); // control
        }
        RwVariant::Twelve => {
            if sector > u64::from(u32::MAX) {
                return Err(CdbError::FieldOverflow);
            }
            buf.push(if direction.is_read() {
                READ_12
            } else {
                WRITE_12
            });
            buf.push(0);
            buf.extend((sector as u32).to_be_bytes());
            buf.extend(blocks.to_be_bytes());
            buf.push(0);
            buf.push(0);
        }
        RwVariant::Sixteen => {
            buf.push(if direction.is_read() {
                READ_16
            } else {
                WRITE_16
            });
            buf.push(0);
            buf.extend(sector.to_be_bytes());
            buf.extend(blocks.to_be_bytes());
            buf.push(0);
            buf.push(0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read10_wire_format() {
        let cdb = Cdb::read(Lba::new(0x0102_0304), 0x0506);
        let raw = cdb.encode().unwrap();
        assert_eq!(raw, [0x28, 0, 0x01, 0x02, 0x03, 0x04, 0, 0x05, 0x06, 0]);
        assert_eq!(Cdb::decode(&raw).unwrap(), cdb);
    }

    #[test]
    fn write10_wire_format() {
        let cdb = Cdb::write(Lba::new(16), 8);
        let raw = cdb.encode().unwrap();
        assert_eq!(raw[0], 0x2A);
        assert_eq!(Cdb::decode(&raw).unwrap(), cdb);
    }

    #[test]
    fn six_byte_roundtrip_and_zero_length_rule() {
        let cdb = Cdb::Rw {
            direction: IoDirection::Read,
            variant: RwVariant::Six,
            lba: Lba::new(0x1F_FFFF),
            blocks: 256,
        };
        let raw = cdb.encode().unwrap();
        assert_eq!(raw.len(), 6);
        assert_eq!(raw[4], 0, "256 blocks encodes as 0");
        assert_eq!(Cdb::decode(&raw).unwrap(), cdb);
    }

    #[test]
    fn six_byte_overflow_rejected() {
        let cdb = Cdb::Rw {
            direction: IoDirection::Write,
            variant: RwVariant::Six,
            lba: Lba::new(0x20_0000),
            blocks: 1,
        };
        assert_eq!(cdb.encode(), Err(CdbError::FieldOverflow));
        let cdb = Cdb::Rw {
            direction: IoDirection::Write,
            variant: RwVariant::Six,
            lba: Lba::ZERO,
            blocks: 257,
        };
        assert_eq!(cdb.encode(), Err(CdbError::FieldOverflow));
    }

    #[test]
    fn sixteen_byte_large_lba() {
        let cdb = Cdb::Rw {
            direction: IoDirection::Write,
            variant: RwVariant::Sixteen,
            lba: Lba::new(u64::MAX - 7),
            blocks: u32::MAX,
        };
        let raw = cdb.encode().unwrap();
        assert_eq!(raw.len(), 16);
        assert_eq!(Cdb::decode(&raw).unwrap(), cdb);
    }

    #[test]
    fn smallest_variant_selection() {
        assert_eq!(RwVariant::smallest_for(Lba::new(100), 8), RwVariant::Ten);
        assert_eq!(
            RwVariant::smallest_for(Lba::new(100), 100_000),
            RwVariant::Twelve
        );
        assert_eq!(
            RwVariant::smallest_for(Lba::new(1 << 40), 8),
            RwVariant::Sixteen
        );
    }

    #[test]
    fn non_transfer_commands_roundtrip() {
        for cdb in [
            Cdb::TestUnitReady,
            Cdb::Inquiry { allocation_len: 96 },
            Cdb::ReadCapacity10,
            Cdb::SynchronizeCache10,
        ] {
            let raw = cdb.encode().unwrap();
            assert_eq!(Cdb::decode(&raw).unwrap(), cdb);
            assert!(!cdb.is_rw());
        }
    }

    #[test]
    fn decode_errors() {
        assert_eq!(Cdb::decode(&[]), Err(CdbError::Truncated(1)));
        assert_eq!(Cdb::decode(&[0x28, 0, 0]), Err(CdbError::Truncated(10)));
        assert_eq!(
            Cdb::decode(&[0xFF; 16]),
            Err(CdbError::UnsupportedOpcode(0xFF))
        );
    }

    #[test]
    fn variant_lengths() {
        assert_eq!(RwVariant::Six.len(), 6);
        assert_eq!(RwVariant::Ten.len(), 10);
        assert_eq!(RwVariant::Twelve.len(), 12);
        assert_eq!(RwVariant::Sixteen.len(), 16);
    }
}
