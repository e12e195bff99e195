//! Mechanical disk model.
//!
//! First-principles service-time model for one spindle: seek (square-root
//! curve between track-to-track and full-stroke), rotational latency
//! (uniform up to one revolution, skipped when the access is contiguous
//! with the previous one), and media transfer. Defaults approximate the
//! 15k-RPM Fibre Channel drives behind the paper's arrays (Table 1 era).

use simkit::{Dist, SimDuration, SimRng};
use vscsi::{Lba, SECTOR_SIZE};

/// Mechanical/geometry parameters of one disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Usable capacity, in sectors.
    pub capacity_sectors: u64,
    /// Track-to-track (minimum non-zero) seek.
    pub seek_min: SimDuration,
    /// Full-stroke (maximum) seek.
    pub seek_max: SimDuration,
    /// Time of one platter revolution (4 ms at 15k RPM).
    pub revolution: SimDuration,
    /// Sustained media transfer rate at the *outer* edge (LBA 0), bytes
    /// per second. Modern drives map low LBAs to outer tracks, which pass
    /// more bits per revolution under the head.
    pub transfer_rate: u64,
    /// Transfer rate at the *inner* edge (highest LBA). Equal to
    /// `transfer_rate` disables zoning; a typical drive's inner rate is
    /// ~55–65% of its outer rate.
    pub transfer_rate_inner: u64,
    /// Sectors within which an access counts as contiguous (no seek, no
    /// rotational delay) with the previous one.
    pub settle_window: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams::fc_15k()
    }
}

impl DiskParams {
    /// A 146 GB 15k-RPM Fibre Channel drive, the kind populating a 2007
    /// Symmetrix/CLARiiON shelf.
    pub fn fc_15k() -> Self {
        DiskParams {
            capacity_sectors: 146 * 1024 * 1024 * 1024 / SECTOR_SIZE,
            seek_min: SimDuration::from_micros(200),
            seek_max: SimDuration::from_micros(7_500),
            revolution: SimDuration::from_micros(4_000),
            transfer_rate: 80_000_000,
            transfer_rate_inner: 48_000_000,
            settle_window: 256,
        }
    }
}

/// One spindle: tracks head position and serializes service.
///
/// The disk is a *calendar* resource: [`Disk::service`] computes how long a
/// request at the head's current position takes and advances internal
/// state; queueing (busy-until bookkeeping) is handled by the array layer.
///
/// # Examples
///
/// ```
/// use simkit::SimRng;
/// use storage::{Disk, DiskParams};
/// use vscsi::Lba;
///
/// let mut disk = Disk::new(DiskParams::fc_15k(), SimRng::seed_from(1));
/// // First access pays seek + rotation; an adjacent follow-up is cheap.
/// let far = disk.service(Lba::new(1_000_000), 16);
/// let near = disk.service(Lba::new(1_000_016), 16);
/// assert!(near < far);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    rng: SimRng,
    /// Sector the head is parked after, or `None` before first access.
    head: Option<u64>,
}

impl Disk {
    /// Creates a disk with its own deterministic RNG stream.
    pub fn new(params: DiskParams, rng: SimRng) -> Self {
        Disk {
            params,
            rng,
            head: None,
        }
    }

    /// The disk's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Computes the service time for `sectors` starting at `lba`, moving the
    /// head there. Contiguous accesses (within `settle_window` of the
    /// previous end) skip the seek and rotational components.
    pub fn service(&mut self, lba: Lba, sectors: u64) -> SimDuration {
        let start = lba
            .sector()
            .min(self.params.capacity_sectors.saturating_sub(1));
        let positioning = match self.head {
            Some(head) if head.abs_diff(start) <= self.params.settle_window => SimDuration::ZERO,
            Some(head) => self.seek_time(head.abs_diff(start)) + self.rotational_latency(),
            None => self.seek_time(self.params.capacity_sectors / 3) + self.rotational_latency(),
        };
        let transfer = self.transfer_time_at(start, sectors);
        self.head = Some(start.saturating_add(sectors));
        positioning + transfer
    }

    /// Seek time for a head movement of `distance` sectors: square-root
    /// interpolation between `seek_min` and `seek_max`.
    pub(crate) fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let frac = (distance as f64 / self.params.capacity_sectors as f64).min(1.0);
        let min = self.params.seek_min.as_secs_f64();
        let max = self.params.seek_max.as_secs_f64();
        SimDuration::from_secs_f64(min + (max - min) * frac.sqrt())
    }

    /// A uniformly random fraction of one revolution.
    fn rotational_latency(&mut self) -> SimDuration {
        let frac = Dist::uniform(0.0, 1.0).sample(&mut self.rng);
        self.params.revolution.mul_f64(frac)
    }

    /// Media transfer time for `sectors` at the outer (fastest) zone.
    pub fn transfer_time(&self, sectors: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            (sectors * SECTOR_SIZE) as f64 / self.params.transfer_rate as f64,
        )
    }

    /// Media transfer time for `sectors` at radial position `start`:
    /// zoned recording interpolates the rate linearly from the outer rate
    /// (LBA 0) to the inner rate (last LBA).
    pub(crate) fn transfer_time_at(&self, start: u64, sectors: u64) -> SimDuration {
        let frac = (start as f64 / self.params.capacity_sectors as f64).clamp(0.0, 1.0);
        let outer = self.params.transfer_rate as f64;
        let inner = self.params.transfer_rate_inner as f64;
        let rate = outer + (inner - outer) * frac;
        SimDuration::from_secs_f64((sectors * SECTOR_SIZE) as f64 / rate.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::fc_15k(), SimRng::seed_from(42))
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let d = disk();
        let near = d.seek_time(1_000);
        let mid = d.seek_time(10_000_000);
        let far = d.seek_time(d.params().capacity_sectors);
        assert!(SimDuration::ZERO < near);
        assert!(near < mid && mid < far);
        assert_eq!(d.seek_time(0), SimDuration::ZERO);
        assert!(far <= d.params().seek_max);
        assert!(near >= d.params().seek_min);
    }

    #[test]
    fn sequential_runs_pay_transfer_only() {
        let mut d = disk();
        let _ = d.service(Lba::new(0), 16);
        let s = d.service(Lba::new(16), 16);
        assert_eq!(s, d.transfer_time(16));
    }

    #[test]
    fn random_access_pays_positioning() {
        let mut d = disk();
        let _ = d.service(Lba::new(0), 16);
        let s = d.service(Lba::new(100_000_000), 16);
        assert!(s > d.transfer_time(16) + d.params().seek_min);
    }

    #[test]
    fn settle_window_tolerance() {
        let mut d = disk();
        let _ = d.service(Lba::new(1000), 16);
        // Head parked at 1016; anything within 256 sectors is "contiguous".
        let s = d.service(Lba::new(1016 + 256), 8);
        assert_eq!(s, d.transfer_time(8));
        let s2 = d.service(Lba::new(1016 + 256 + 8 + 257), 8);
        assert!(s2 > d.transfer_time(8));
    }

    #[test]
    fn transfer_scales_with_size() {
        let d = disk();
        let t8 = d.transfer_time(8);
        let t64 = d.transfer_time(64);
        assert!((t64.as_secs_f64() / t8.as_secs_f64() - 8.0).abs() < 1e-9);
        // 4 KiB at 80 MB/s = ~51 us.
        assert_eq!(d.transfer_time(8).as_micros(), 51);
    }

    #[test]
    fn typical_random_service_in_realistic_band() {
        // Mean random 8K service on a 15k drive should land in ~4-10 ms.
        let mut d = disk();
        let mut rng = SimRng::seed_from(7);
        let mut total = SimDuration::ZERO;
        let n = 500;
        for _ in 0..n {
            let lba = rng.range_inclusive(0, d.params().capacity_sectors - 64);
            total += d.service(Lba::new(lba), 16);
        }
        let mean_us = total.as_micros() / n;
        assert!(
            (3_000..10_000).contains(&mean_us),
            "mean random service = {mean_us} us"
        );
    }

    #[test]
    fn zoned_transfer_outer_faster_than_inner() {
        let d = disk();
        let cap = d.params().capacity_sectors;
        let outer = d.transfer_time_at(0, 128);
        let mid = d.transfer_time_at(cap / 2, 128);
        let inner = d.transfer_time_at(cap - 1, 128);
        assert!(outer < mid && mid < inner, "{outer} {mid} {inner}");
        assert_eq!(outer, d.transfer_time(128));
        // Inner rate = 60% of outer: inner time ~ 1.67x outer time.
        let ratio = inner.as_secs_f64() / outer.as_secs_f64();
        assert!((1.5..1.8).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Disk::new(DiskParams::fc_15k(), SimRng::seed_from(9));
        let mut b = Disk::new(DiskParams::fc_15k(), SimRng::seed_from(9));
        for i in 0..100u64 {
            let lba = Lba::new((i * 7_919_993) % 100_000_000);
            assert_eq!(a.service(lba, 16), b.service(lba, 16));
        }
    }
}
