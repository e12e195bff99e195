//! Iometer-style synthetic workload generator (§5.1, [24]).
//!
//! "Iometer is an I/O subsystem measurement and characterization tool …
//! used both as a workload generator … and a measurement tool." An
//! [`IometerWorkload`] runs one *access specification* — block size,
//! read/random percentages, and a fixed number of outstanding I/Os — in a
//! classic closed loop: every completion immediately triggers the next
//! command, saturating the device the way the paper's Table 2
//! microbenchmark does with its "4KB Sequential Read" pattern.

use crate::workload::{BlockIo, Poll, Workload};
use simkit::{SimRng, SimTime};
use vscsi::{IoDirection, Lba, SECTOR_SIZE};

/// An Iometer access specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSpec {
    /// Bytes per command (sector multiple).
    pub block_bytes: u64,
    /// Fraction of commands that are reads, 0–1.
    pub read_fraction: f64,
    /// Fraction of commands at random offsets (the rest continue the
    /// sequential cursor), 0–1.
    pub random_fraction: f64,
    /// Commands kept outstanding at all times.
    pub outstanding: u32,
    /// Size of the target region, in bytes.
    pub region_bytes: u64,
    /// First sector of the target region on the virtual disk.
    pub region_base: Lba,
}

impl AccessSpec {
    /// The Table 2 microbenchmark pattern: 4 KiB sequential reads.
    pub fn seq_read_4k(outstanding: u32, region_bytes: u64) -> Self {
        AccessSpec {
            block_bytes: 4096,
            read_fraction: 1.0,
            random_fraction: 0.0,
            outstanding,
            region_bytes,
            region_base: Lba::ZERO,
        }
    }

    /// The Figure 6 "8K random reads" pattern.
    pub fn random_read_8k(outstanding: u32, region_bytes: u64) -> Self {
        AccessSpec {
            block_bytes: 8192,
            read_fraction: 1.0,
            random_fraction: 1.0,
            outstanding,
            region_bytes,
            region_base: Lba::ZERO,
        }
    }

    /// The Figure 6 "8K sequential reads" pattern.
    pub fn seq_read_8k(outstanding: u32, region_bytes: u64) -> Self {
        AccessSpec {
            block_bytes: 8192,
            read_fraction: 1.0,
            random_fraction: 0.0,
            outstanding,
            region_bytes,
            region_base: Lba::ZERO,
        }
    }
}

/// A running Iometer worker.
///
/// # Examples
///
/// ```
/// use guests::{AccessSpec, IometerWorkload, Workload};
/// use simkit::{SimRng, SimTime};
///
/// let spec = AccessSpec::seq_read_4k(8, 64 * 1024 * 1024);
/// let mut w = IometerWorkload::new("iometer", spec, SimRng::seed_from(1));
/// let poll = w.start(SimTime::ZERO);
/// assert_eq!(poll.issue.len(), 8); // one command per outstanding slot
/// ```
#[derive(Debug, Clone)]
pub struct IometerWorkload {
    name: String,
    spec: AccessSpec,
    rng: SimRng,
    /// Shared sequential cursor, in blocks.
    cursor: u64,
    issued: u64,
}

impl IometerWorkload {
    /// Creates a worker.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero/unaligned block size, zero
    /// outstanding, region smaller than one block).
    pub fn new(name: &str, spec: AccessSpec, rng: SimRng) -> Self {
        assert!(spec.block_bytes > 0 && spec.block_bytes.is_multiple_of(SECTOR_SIZE));
        assert!(spec.outstanding > 0, "need at least one outstanding I/O");
        assert!(spec.region_bytes >= spec.block_bytes);
        assert!((0.0..=1.0).contains(&spec.read_fraction));
        assert!((0.0..=1.0).contains(&spec.random_fraction));
        IometerWorkload {
            name: name.to_owned(),
            spec,
            rng,
            cursor: 0,
            issued: 0,
        }
    }

    /// Commands issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn next_io(&mut self, tag: u64) -> BlockIo {
        let blocks_in_region = self.spec.region_bytes / self.spec.block_bytes;
        let block_idx = if self.rng.chance(self.spec.random_fraction) {
            self.rng.range_inclusive(0, blocks_in_region - 1)
        } else {
            let b = self.cursor;
            self.cursor = (self.cursor + 1) % blocks_in_region;
            b
        };
        let dir = if self.rng.chance(self.spec.read_fraction) {
            IoDirection::Read
        } else {
            IoDirection::Write
        };
        let sectors_per_block = (self.spec.block_bytes / SECTOR_SIZE) as u32;
        let lba = self
            .spec
            .region_base
            .advance(block_idx * u64::from(sectors_per_block));
        self.issued += 1;
        BlockIo::new(dir, lba, sectors_per_block, tag)
    }
}

impl Workload for IometerWorkload {
    fn start(&mut self, _now: SimTime) -> Poll {
        let ios = (0..self.spec.outstanding)
            .map(|slot| self.next_io(u64::from(slot)))
            .collect();
        Poll::issue(ios)
    }

    fn on_complete(&mut self, _now: SimTime, tag: u64) -> Poll {
        Poll::issue(vec![self.next_io(tag)])
    }

    fn on_timer(&mut self, _now: SimTime) -> Poll {
        Poll::idle()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_read_spec_generates_adjacent_blocks() {
        let mut w = IometerWorkload::new(
            "t",
            AccessSpec::seq_read_4k(2, 1024 * 1024),
            SimRng::seed_from(1),
        );
        let p = w.start(SimTime::ZERO);
        assert_eq!(p.issue.len(), 2);
        assert_eq!(p.issue[0].lba, Lba::ZERO);
        assert_eq!(p.issue[1].lba, Lba::new(8));
        assert!(p.issue.iter().all(|io| io.direction.is_read()));
        // Closed loop: one completion -> exactly one new I/O with same tag.
        let p2 = w.on_complete(SimTime::from_micros(10), 0);
        assert_eq!(p2.issue.len(), 1);
        assert_eq!(p2.issue[0].tag, 0);
        assert_eq!(p2.issue[0].lba, Lba::new(16));
    }

    #[test]
    fn sequential_cursor_wraps() {
        let mut w = IometerWorkload::new(
            "t",
            AccessSpec::seq_read_4k(1, 8192), // 2 blocks
            SimRng::seed_from(1),
        );
        let a = w.start(SimTime::ZERO).issue[0].lba;
        let b = w.on_complete(SimTime::ZERO, 0).issue[0].lba;
        let c = w.on_complete(SimTime::ZERO, 0).issue[0].lba;
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn random_spec_spreads_offsets() {
        let mut w = IometerWorkload::new(
            "t",
            AccessSpec::random_read_8k(1, 1024 * 1024 * 1024),
            SimRng::seed_from(2),
        );
        let mut seen = std::collections::HashSet::new();
        w.start(SimTime::ZERO);
        for _ in 0..100 {
            let io = w.on_complete(SimTime::ZERO, 0).issue[0];
            seen.insert(io.lba);
            assert_eq!(io.sectors, 16);
        }
        assert!(
            seen.len() > 90,
            "random offsets not spreading: {}",
            seen.len()
        );
    }

    #[test]
    fn mixed_read_write_ratio() {
        let spec = AccessSpec {
            block_bytes: 4096,
            read_fraction: 0.7,
            random_fraction: 1.0,
            outstanding: 1,
            region_bytes: 1024 * 1024 * 1024,
            region_base: Lba::ZERO,
        };
        let mut w = IometerWorkload::new("t", spec, SimRng::seed_from(3));
        w.start(SimTime::ZERO);
        let mut reads = 0;
        let n = 2_000;
        for _ in 0..n {
            if w.on_complete(SimTime::ZERO, 0).issue[0].direction.is_read() {
                reads += 1;
            }
        }
        let frac = f64::from(reads) / f64::from(n);
        assert!((0.65..0.75).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn region_base_offsets_all_ios() {
        let spec = AccessSpec {
            region_base: Lba::new(1_000_000),
            ..AccessSpec::seq_read_4k(4, 1024 * 1024)
        };
        let mut w = IometerWorkload::new("t", spec, SimRng::seed_from(4));
        let p = w.start(SimTime::ZERO);
        assert!(p.issue.iter().all(|io| io.lba >= Lba::new(1_000_000)));
    }

    #[test]
    fn issued_counter() {
        let mut w = IometerWorkload::new(
            "t",
            AccessSpec::seq_read_4k(4, 1024 * 1024),
            SimRng::seed_from(5),
        );
        w.start(SimTime::ZERO);
        assert_eq!(w.issued(), 4);
        w.on_complete(SimTime::ZERO, 2);
        assert_eq!(w.issued(), 5);
        assert_eq!(w.name(), "t");
        assert!(w.on_timer(SimTime::ZERO).issue.is_empty());
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn zero_outstanding_rejected() {
        let _ = IometerWorkload::new(
            "t",
            AccessSpec {
                outstanding: 0,
                ..AccessSpec::seq_read_4k(1, 1024 * 1024)
            },
            SimRng::seed_from(1),
        );
    }
}
