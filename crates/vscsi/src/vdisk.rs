//! Virtual disk geometry and placement onto backing storage.
//!
//! A virtual disk is "a linear array [of] logical blocks" (§3). On a real
//! ESX host each virtual disk is a file or LUN region on shared physical
//! storage; [`VirtualDisk`] keeps just enough of that mapping — capacity and
//! a base offset on a backing device — for the array simulator to observe
//! cross-VM interference on shared spindles (§3.7, Figure 6).

use crate::types::{Lba, TargetId, SECTOR_SIZE};
use std::fmt;

/// Error returned when an I/O falls outside a virtual disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// First requested block.
    pub lba: Lba,
    /// Requested sector count.
    pub num_sectors: u32,
    /// Disk capacity, in sectors.
    pub capacity_sectors: u64,
}

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "request {}+{} exceeds virtual disk capacity {} sectors",
            self.lba, self.num_sectors, self.capacity_sectors
        )
    }
}

impl std::error::Error for OutOfRange {}

/// A virtual disk: a bounded linear LBA space placed at a fixed base offset
/// on a backing physical device.
///
/// # Examples
///
/// ```
/// use vscsi::{Lba, TargetId, VDiskId, VirtualDisk, VmId};
///
/// let vd = VirtualDisk::new(
///     TargetId::new(VmId(0), VDiskId(0)),
///     6 * 1024 * 1024 * 1024, // 6 GiB, like the Figure 6 experiment
///     Lba::ZERO,
/// );
/// assert_eq!(vd.capacity_sectors(), 6 * 1024 * 1024 * 2);
/// assert!(vd.check(Lba::new(0), 8).is_ok());
/// assert!(vd.check(Lba::new(vd.capacity_sectors()), 1).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtualDisk {
    target: TargetId,
    capacity_sectors: u64,
    /// Where sector 0 of this virtual disk lives on the backing device.
    base: Lba,
}

impl VirtualDisk {
    /// Creates a virtual disk of `capacity_bytes`, rounded down to whole
    /// sectors, based at `base` on the backing device.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one sector.
    pub fn new(target: TargetId, capacity_bytes: u64, base: Lba) -> Self {
        let capacity_sectors = capacity_bytes / SECTOR_SIZE;
        assert!(capacity_sectors > 0, "virtual disk smaller than one sector");
        VirtualDisk {
            target,
            capacity_sectors,
            base,
        }
    }

    /// The owning (VM, disk) pair.
    #[inline]
    pub fn target(&self) -> TargetId {
        self.target
    }

    /// Capacity in sectors.
    #[inline]
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Validates that `[lba, lba + num_sectors)` lies inside the disk.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] when it does not.
    pub fn check(&self, lba: Lba, num_sectors: u32) -> Result<(), OutOfRange> {
        let end = lba.sector().checked_add(u64::from(num_sectors));
        match end {
            Some(end) if end <= self.capacity_sectors && num_sectors > 0 => Ok(()),
            _ => Err(OutOfRange {
                lba,
                num_sectors,
                capacity_sectors: self.capacity_sectors,
            }),
        }
    }

    /// Translates a virtual-disk LBA to the backing device's address space.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfRange`] if the access does not fit the disk.
    pub fn to_physical(&self, lba: Lba, num_sectors: u32) -> Result<Lba, OutOfRange> {
        self.check(lba, num_sectors)?;
        Ok(self.base.advance(lba.sector()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{VDiskId, VmId};

    fn vd() -> VirtualDisk {
        VirtualDisk::new(
            TargetId::new(VmId(1), VDiskId(0)),
            1024 * SECTOR_SIZE,
            Lba::new(10_000),
        )
    }

    #[test]
    fn capacity_rounding() {
        let d = VirtualDisk::new(TargetId::default(), 1025, Lba::ZERO);
        assert_eq!(d.capacity_sectors(), 2);
    }

    #[test]
    fn bounds_checking() {
        let d = vd();
        assert!(d.check(Lba::new(0), 1024).is_ok());
        assert!(d.check(Lba::new(1023), 1).is_ok());
        assert!(d.check(Lba::new(1023), 2).is_err());
        assert!(d.check(Lba::new(1024), 1).is_err());
        assert!(d.check(Lba::new(0), 0).is_err());
        // Overflow-safe.
        assert!(d.check(Lba::new(u64::MAX), 2).is_err());
    }

    #[test]
    fn physical_translation_applies_base() {
        let d = vd();
        assert_eq!(d.to_physical(Lba::new(5), 1).unwrap(), Lba::new(10_005));
        assert!(d.to_physical(Lba::new(1024), 1).is_err());
    }

    #[test]
    #[should_panic(expected = "smaller than one sector")]
    fn tiny_disk_rejected() {
        let _ = VirtualDisk::new(TargetId::default(), 100, Lba::ZERO);
    }

    #[test]
    fn out_of_range_displays() {
        let err = vd().check(Lba::new(2000), 4).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("2000") && s.contains("1024"));
    }
}
