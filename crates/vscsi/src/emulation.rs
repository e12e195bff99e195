//! vSCSI device emulation: responses to non-transfer commands.
//!
//! ESX "emulates LSI Logic or Bus Logic SCSI devices" (§2); besides the
//! READ/WRITE fast path, the guest's driver probes the target with
//! INQUIRY / READ CAPACITY / TEST UNIT READY at attach time. This module
//! produces standards-shaped response payloads for those commands so the
//! emulated target looks like a real disk to a real initiator.

use crate::cdb::Cdb;
use crate::types::SECTOR_SIZE;
use crate::vdisk::VirtualDisk;

/// Standard INQUIRY data (SPC-3 §6.4.2), truncated to the classic 36-byte
/// form every initiator requests first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InquiryData {
    /// Peripheral device type: 0x00 = direct-access block device.
    pub device_type: u8,
    /// T10 vendor identification, ASCII, space-padded to 8 bytes.
    pub vendor: String,
    /// Product identification, ASCII, space-padded to 16 bytes.
    pub product: String,
    /// Product revision, ASCII, space-padded to 4 bytes.
    pub revision: String,
}

impl Default for InquiryData {
    fn default() -> Self {
        InquiryData {
            device_type: 0x00,
            vendor: "VMware".to_owned(),
            product: "Virtual disk".to_owned(),
            revision: "1.0".to_owned(),
        }
    }
}

impl InquiryData {
    /// Encodes the standard 36-byte INQUIRY response, truncated to
    /// `allocation_len` as SPC requires.
    pub fn encode(&self, allocation_len: u8) -> Vec<u8> {
        let mut buf = Vec::with_capacity(36);
        buf.push(self.device_type & 0x1F);
        buf.push(0); // not removable
        buf.push(0x05); // SPC-3
        buf.push(0x02); // response data format 2
        buf.push(31); // additional length (36 - 5)
        buf.extend([0; 3]);
        put_padded(&mut buf, &self.vendor, 8);
        put_padded(&mut buf, &self.product, 16);
        put_padded(&mut buf, &self.revision, 4);
        buf.truncate(usize::from(allocation_len));
        buf
    }
}

fn put_padded(buf: &mut Vec<u8>, s: &str, width: usize) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(width);
    buf.extend_from_slice(&bytes[..n]);
    buf.resize(buf.len() + width - n, b' ');
}

/// READ CAPACITY(10) response (SBC-3 §5.12): the address of the last
/// logical block and the block size, both big-endian 32-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCapacity10Data {
    /// LBA of the last addressable block (capped at `u32::MAX` for disks
    /// larger than 2 TiB, per the standard — initiators then use
    /// READ CAPACITY(16)).
    pub last_lba: u32,
    /// Logical block size in bytes.
    pub block_size: u32,
}

impl ReadCapacity10Data {
    /// Builds the response for a virtual disk.
    pub fn for_disk(disk: &VirtualDisk) -> Self {
        let last = disk.capacity_sectors().saturating_sub(1);
        ReadCapacity10Data {
            last_lba: u32::try_from(last).unwrap_or(u32::MAX),
            block_size: SECTOR_SIZE as u32,
        }
    }

    /// Encodes the 8-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.extend(self.last_lba.to_be_bytes());
        buf.extend(self.block_size.to_be_bytes());
        buf
    }

    /// Decodes the 8-byte wire form.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is shorter than 8 bytes.
    pub fn decode(raw: &[u8]) -> Self {
        assert!(raw.len() >= 8, "read capacity data truncated");
        ReadCapacity10Data {
            last_lba: u32::from_be_bytes(raw[0..4].try_into().expect("4 bytes")),
            block_size: u32::from_be_bytes(raw[4..8].try_into().expect("4 bytes")),
        }
    }
}

/// SCSI status byte returned for a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScsiStatus {
    /// GOOD (0x00).
    Good,
    /// CHECK CONDITION (0x02) with a (sense key, additional sense code)
    /// pair.
    CheckCondition {
        /// Sense key (e.g. 0x05 = ILLEGAL REQUEST).
        key: u8,
        /// Additional sense code.
        asc: u8,
    },
}

/// Response of the emulation layer to a non-transfer command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmulatedResponse {
    /// Status byte.
    pub status: ScsiStatus,
    /// Data-in payload, if the command returns data.
    pub data: Option<Vec<u8>>,
}

/// Answers the non-READ/WRITE commands for one virtual disk, like the
/// VMM's device-emulation code (§2).
///
/// # Examples
///
/// ```
/// use vscsi::{emulation, Cdb, Lba, TargetId, VirtualDisk};
///
/// let disk = VirtualDisk::new(TargetId::default(), 1 << 30, Lba::ZERO);
/// let responder = emulation::Responder::new(Default::default());
/// let resp = responder.respond(&disk, &Cdb::ReadCapacity10);
/// assert_eq!(resp.status, emulation::ScsiStatus::Good);
/// let cap = emulation::ReadCapacity10Data::decode(resp.data.as_deref().unwrap());
/// assert_eq!(cap.block_size, 512);
/// assert_eq!(u64::from(cap.last_lba), (1u64 << 30) / 512 - 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Responder {
    inquiry: InquiryData,
}

impl Responder {
    /// Creates a responder advertising the given INQUIRY identity.
    pub fn new(inquiry: InquiryData) -> Self {
        Responder { inquiry }
    }

    /// Produces the response for `cdb` against `disk`.
    ///
    /// READ/WRITE commands are *not* handled here (they take the fast
    /// path); passing one returns CHECK CONDITION / ILLEGAL REQUEST.
    pub fn respond(&self, disk: &VirtualDisk, cdb: &Cdb) -> EmulatedResponse {
        match cdb {
            Cdb::TestUnitReady => EmulatedResponse {
                status: ScsiStatus::Good,
                data: None,
            },
            Cdb::Inquiry { allocation_len } => EmulatedResponse {
                status: ScsiStatus::Good,
                data: Some(self.inquiry.encode(*allocation_len)),
            },
            Cdb::ReadCapacity10 => EmulatedResponse {
                status: ScsiStatus::Good,
                data: Some(ReadCapacity10Data::for_disk(disk).encode()),
            },
            Cdb::SynchronizeCache10 => EmulatedResponse {
                status: ScsiStatus::Good,
                data: None,
            },
            Cdb::Rw { .. } => EmulatedResponse {
                // ILLEGAL REQUEST / INVALID COMMAND OPERATION CODE.
                status: ScsiStatus::CheckCondition {
                    key: 0x05,
                    asc: 0x20,
                },
                data: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Lba, TargetId};

    fn disk() -> VirtualDisk {
        VirtualDisk::new(TargetId::default(), 8 * 1024 * 1024 * 1024, Lba::ZERO)
    }

    #[test]
    fn inquiry_layout() {
        let data = InquiryData::default().encode(96);
        assert_eq!(data.len(), 36);
        assert_eq!(data[0], 0x00); // direct-access
        assert_eq!(data[4], 31); // additional length
        assert_eq!(&data[8..16], b"VMware  ");
        assert_eq!(&data[16..32], b"Virtual disk    ");
        assert_eq!(&data[32..36], b"1.0 ");
    }

    #[test]
    fn inquiry_truncates_to_allocation_length() {
        let data = InquiryData::default().encode(5);
        assert_eq!(data.len(), 5);
        let zero = InquiryData::default().encode(0);
        assert!(zero.is_empty());
    }

    #[test]
    fn inquiry_long_strings_clipped() {
        let d = InquiryData {
            vendor: "AVeryLongVendorName".to_owned(),
            ..Default::default()
        };
        let data = d.encode(36);
        assert_eq!(&data[8..16], b"AVeryLon");
    }

    #[test]
    fn read_capacity_roundtrip() {
        let cap = ReadCapacity10Data::for_disk(&disk());
        assert_eq!(cap.block_size, 512);
        assert_eq!(u64::from(cap.last_lba), 8 * 1024 * 1024 * 2 - 1);
        let wire = cap.encode();
        assert_eq!(wire.len(), 8);
        assert_eq!(ReadCapacity10Data::decode(&wire), cap);
    }

    #[test]
    fn read_capacity_saturates_beyond_2tib() {
        let big = VirtualDisk::new(
            TargetId::default(),
            3 * 1024 * 1024 * 1024 * 1024,
            Lba::ZERO,
        );
        let cap = ReadCapacity10Data::for_disk(&big);
        assert_eq!(cap.last_lba, u32::MAX);
    }

    #[test]
    fn responder_answers_probe_sequence() {
        let r = Responder::default();
        let d = disk();
        // The classic attach probe: TUR -> INQUIRY -> READ CAPACITY.
        assert_eq!(r.respond(&d, &Cdb::TestUnitReady).status, ScsiStatus::Good);
        let inq = r.respond(&d, &Cdb::Inquiry { allocation_len: 36 });
        assert_eq!(inq.data.unwrap().len(), 36);
        let cap = r.respond(&d, &Cdb::ReadCapacity10);
        assert!(cap.data.is_some());
        assert_eq!(
            r.respond(&d, &Cdb::SynchronizeCache10).status,
            ScsiStatus::Good
        );
    }

    #[test]
    fn rw_rejected_by_responder() {
        let r = Responder::default();
        let resp = r.respond(&disk(), &Cdb::read(Lba::new(0), 8));
        assert_eq!(
            resp.status,
            ScsiStatus::CheckCondition {
                key: 0x05,
                asc: 0x20
            }
        );
        assert!(resp.data.is_none());
    }
}
