//! Core identifier and unit newtypes shared across the stack.
//!
//! §3 of the paper: "A logical block is a unit of space (512 bytes). The
//! virtual disk, for our purposes, can be thought of as a linear array and
//! logical blocks as offsets into the array."

use core::fmt;

/// Size of one logical block (sector), in bytes.
pub const SECTOR_SIZE: u64 = 512;

/// A logical block address: an offset, in sectors, into a virtual disk's
/// linear address space.
///
/// # Examples
///
/// ```
/// use vscsi::{Lba, SECTOR_SIZE};
///
/// let lba = Lba::new(8);
/// assert_eq!(lba.as_bytes(), 8 * SECTOR_SIZE);
/// assert_eq!(Lba::from_byte_offset(4096), lba);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lba(u64);

impl Lba {
    /// Block zero.
    pub const ZERO: Lba = Lba(0);

    /// Creates an LBA from a sector number.
    #[inline]
    pub const fn new(sector: u64) -> Self {
        Lba(sector)
    }

    /// Creates an LBA from a byte offset, which must be sector-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of [`SECTOR_SIZE`].
    #[inline]
    pub fn from_byte_offset(bytes: u64) -> Self {
        assert_eq!(bytes % SECTOR_SIZE, 0, "byte offset not sector-aligned");
        Lba(bytes / SECTOR_SIZE)
    }

    /// The raw sector number.
    #[inline]
    pub const fn sector(self) -> u64 {
        self.0
    }

    /// This address as a byte offset.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0 * SECTOR_SIZE
    }

    /// The address `n` sectors later, saturating at `u64::MAX`.
    #[inline]
    pub fn advance(self, n: u64) -> Lba {
        Lba(self.0.saturating_add(n))
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

/// Identifier of a virtual machine on a host.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Identifier of a virtual disk within a VM (a vSCSI target).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VDiskId(pub u32);

impl fmt::Display for VDiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scsi0:{}", self.0)
    }
}

/// A (VM, virtual disk) pair — the granularity at which the paper collects
/// histograms ("on a per-virtual machine, per-virtual disk basis", §3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TargetId {
    /// Owning virtual machine.
    pub vm: VmId,
    /// Virtual disk within that VM.
    pub disk: VDiskId,
}

impl TargetId {
    /// Creates a target id.
    pub const fn new(vm: VmId, disk: VDiskId) -> Self {
        TargetId { vm, disk }
    }
}

impl fmt::Display for TargetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.vm, self.disk)
    }
}

/// Monotonically increasing identifier for an in-flight I/O request.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Direction of a data-transfer command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDirection {
    /// Data flows device → host.
    Read,
    /// Data flows host → device.
    Write,
}

impl IoDirection {
    /// `true` for reads.
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, IoDirection::Read)
    }

    /// `true` for writes.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, IoDirection::Write)
    }
}

impl fmt::Display for IoDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoDirection::Read => write!(f, "R"),
            IoDirection::Write => write!(f, "W"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_byte_conversions() {
        assert_eq!(Lba::new(1).as_bytes(), 512);
        assert_eq!(Lba::from_byte_offset(1024).sector(), 2);
        assert_eq!(Lba::ZERO.advance(3), Lba::new(3));
        assert_eq!(Lba::new(u64::MAX).advance(1), Lba::new(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "not sector-aligned")]
    fn unaligned_byte_offset_panics() {
        let _ = Lba::from_byte_offset(100);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Lba::new(9).to_string(), "lba:9");
        assert_eq!(VmId(2).to_string(), "vm2");
        assert_eq!(VDiskId(1).to_string(), "scsi0:1");
        assert_eq!(
            TargetId::new(VmId(2), VDiskId(1)).to_string(),
            "vm2/scsi0:1"
        );
        assert_eq!(RequestId(7).to_string(), "req7");
        assert_eq!(IoDirection::Read.to_string(), "R");
        assert_eq!(IoDirection::Write.to_string(), "W");
    }

    #[test]
    fn direction_predicates() {
        assert!(IoDirection::Read.is_read());
        assert!(!IoDirection::Read.is_write());
        assert!(IoDirection::Write.is_write());
    }
}
