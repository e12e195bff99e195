//! RAID striping geometry.
//!
//! Maps a logical extent on the array to per-spindle extents. Covers the
//! paper's two array configurations: the Symmetrix volume (RAID-5, §4
//! Table 1) and the CLARiiON CX3 volume (RAID-0, §5.3). RAID-5 writes
//! carry the classic small-write penalty (read-modify-write on data +
//! parity).

use vscsi::Lba;

/// RAID level of a disk group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// Striping with rotating parity; small writes pay read-modify-write.
    Raid5,
}

/// Striping configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaidConfig {
    /// RAID level.
    pub level: RaidLevel,
    /// Number of spindles in the group (for RAID-5 this includes the
    /// parity spindle per stripe).
    pub disks: usize,
    /// Stripe unit per spindle, in sectors.
    pub stripe_sectors: u64,
}

impl RaidConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero (or < 3 for RAID-5) or the stripe unit is
    /// zero.
    pub fn new(level: RaidLevel, disks: usize, stripe_sectors: u64) -> Self {
        assert!(disks >= 1, "raid group needs at least one disk");
        assert!(stripe_sectors >= 1, "stripe unit must be positive");
        if level == RaidLevel::Raid5 {
            assert!(disks >= 3, "raid5 needs at least 3 disks");
        }
        RaidConfig {
            level,
            disks,
            stripe_sectors,
        }
    }

    /// Data spindles per stripe (RAID-5 loses one to parity).
    pub fn data_disks(&self) -> usize {
        match self.level {
            RaidLevel::Raid0 => self.disks,
            RaidLevel::Raid5 => self.disks - 1,
        }
    }

    /// Splits the logical extent `[lba, lba + sectors)` into per-spindle
    /// pieces `(disk_index, disk_lba, sectors)`.
    ///
    /// Addresses use left-symmetric layout for RAID-5; the parity spindle
    /// rotates per stripe row and carries no logical data.
    pub fn map(&self, lba: Lba, sectors: u64) -> Vec<StripeExtent> {
        let mut out = Vec::new();
        if sectors == 0 {
            return out;
        }
        let data_disks = self.data_disks() as u64;
        let mut remaining = sectors;
        let mut logical = lba.sector();
        while remaining > 0 {
            let stripe_unit = logical / self.stripe_sectors;
            let offset_in_unit = logical % self.stripe_sectors;
            let run = (self.stripe_sectors - offset_in_unit).min(remaining);
            let row = stripe_unit / data_disks;
            let col = (stripe_unit % data_disks) as usize;
            let disk = match self.level {
                RaidLevel::Raid0 => col,
                RaidLevel::Raid5 => {
                    // Left-symmetric: parity on disk (disks-1 - row % disks);
                    // data columns shift around it.
                    let parity = self.disks - 1 - (row as usize % self.disks);
                    (parity + 1 + col) % self.disks
                }
            };
            let disk_lba = row * self.stripe_sectors + offset_in_unit;
            out.push(StripeExtent {
                disk,
                lba: Lba::new(disk_lba),
                sectors: run,
            });
            logical += run;
            remaining -= run;
        }
        out
    }

    /// RAID-5 small-write amplification: number of spindle operations per
    /// logical write extent (read old data, read old parity, write data,
    /// write parity = 4); RAID-0 writes are a single operation.
    pub fn write_ops_per_extent(&self) -> u32 {
        match self.level {
            RaidLevel::Raid0 => 1,
            RaidLevel::Raid5 => 4,
        }
    }
}

/// One spindle-local piece of a mapped extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeExtent {
    /// Spindle index within the group.
    pub disk: usize,
    /// Address on that spindle.
    pub lba: Lba,
    /// Length in sectors.
    pub sectors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid0_small_request_single_disk() {
        let cfg = RaidConfig::new(RaidLevel::Raid0, 4, 128);
        let m = cfg.map(Lba::new(0), 16);
        assert_eq!(
            m,
            vec![StripeExtent {
                disk: 0,
                lba: Lba::new(0),
                sectors: 16
            }]
        );
    }

    #[test]
    fn raid0_rotates_across_disks() {
        let cfg = RaidConfig::new(RaidLevel::Raid0, 4, 128);
        let disks: Vec<usize> = (0..4)
            .map(|i| cfg.map(Lba::new(i * 128), 8)[0].disk)
            .collect();
        assert_eq!(disks, vec![0, 1, 2, 3]);
        // Fifth stripe unit wraps to disk 0, next row.
        let e = cfg.map(Lba::new(4 * 128), 8)[0];
        assert_eq!(e.disk, 0);
        assert_eq!(e.lba, Lba::new(128));
    }

    #[test]
    fn large_request_spans_multiple_extents() {
        let cfg = RaidConfig::new(RaidLevel::Raid0, 2, 64);
        let m = cfg.map(Lba::new(32), 128);
        // 32..64 on disk0, 64..128 on disk1, 128..160 (row 1) on disk0.
        assert_eq!(m.len(), 3);
        assert_eq!(
            m[0],
            StripeExtent {
                disk: 0,
                lba: Lba::new(32),
                sectors: 32
            }
        );
        assert_eq!(
            m[1],
            StripeExtent {
                disk: 1,
                lba: Lba::new(0),
                sectors: 64
            }
        );
        assert_eq!(
            m[2],
            StripeExtent {
                disk: 0,
                lba: Lba::new(64),
                sectors: 32
            }
        );
        let total: u64 = m.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 128);
    }

    #[test]
    fn raid5_avoids_parity_disk_and_rotates() {
        let cfg = RaidConfig::new(RaidLevel::Raid5, 4, 64);
        // Row 0: parity on disk 3; data columns on 0,1,2... shifted by parity+1.
        let row0: Vec<usize> = (0..3)
            .map(|i| cfg.map(Lba::new(i * 64), 8)[0].disk)
            .collect();
        assert_eq!(row0.len(), 3);
        assert!(
            !row0.contains(&3),
            "row 0 data must avoid parity disk 3: {row0:?}"
        );
        // Row 1: parity moves to disk 2.
        let row1: Vec<usize> = (3..6)
            .map(|i| cfg.map(Lba::new(i * 64), 8)[0].disk)
            .collect();
        assert!(
            !row1.contains(&2),
            "row 1 data must avoid parity disk 2: {row1:?}"
        );
    }

    #[test]
    fn raid5_write_penalty() {
        assert_eq!(
            RaidConfig::new(RaidLevel::Raid5, 4, 64).write_ops_per_extent(),
            4
        );
        assert_eq!(
            RaidConfig::new(RaidLevel::Raid0, 4, 64).write_ops_per_extent(),
            1
        );
    }

    #[test]
    fn map_conserves_sectors() {
        let cfg = RaidConfig::new(RaidLevel::Raid5, 5, 128);
        for (lba, n) in [(0u64, 1u64), (127, 2), (1000, 4096), (54321, 777)] {
            let total: u64 = cfg.map(Lba::new(lba), n).iter().map(|e| e.sectors).sum();
            assert_eq!(total, n, "lba={lba} n={n}");
        }
        assert!(cfg.map(Lba::new(0), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "raid5 needs at least 3 disks")]
    fn raid5_disk_count_validated() {
        let _ = RaidConfig::new(RaidLevel::Raid5, 2, 64);
    }
}
