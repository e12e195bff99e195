//! In-flight I/O requests and completions — the objects the vSCSI stats
//! layer observes at its two hook points (issue and completion).

use crate::status::ScsiStatus;
use crate::types::{IoDirection, Lba, RequestId, TargetId, SECTOR_SIZE};
use simkit::{SimDuration, SimTime};
use std::fmt;

/// A data-transfer request in flight from a VM to a virtual disk.
///
/// "An I/O request from a VM consists of one or multiple contiguous logical
/// blocks for either reads or writes" (§3).
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
/// use vscsi::{IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
///
/// let req = IoRequest::new(
///     RequestId(1),
///     TargetId::new(VmId(0), VDiskId(0)),
///     IoDirection::Read,
///     Lba::new(128),
///     8,
///     SimTime::ZERO,
/// );
/// assert_eq!(req.len_bytes(), 4096);
/// assert_eq!(req.last_lba(), Lba::new(135));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// Unique id assigned at issue.
    pub id: RequestId,
    /// Which (VM, virtual disk) issued it.
    pub target: TargetId,
    /// Read or write.
    pub direction: IoDirection,
    /// First logical block.
    pub lba: Lba,
    /// Contiguous sectors transferred; always ≥ 1.
    pub num_sectors: u32,
    /// When the guest issued the command (arrival at the vSCSI layer).
    pub issue_time: SimTime,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `num_sectors` is zero.
    pub fn new(
        id: RequestId,
        target: TargetId,
        direction: IoDirection,
        lba: Lba,
        num_sectors: u32,
        issue_time: SimTime,
    ) -> Self {
        assert!(num_sectors > 0, "zero-length I/O request");
        IoRequest {
            id,
            target,
            direction,
            lba,
            num_sectors,
            issue_time,
        }
    }

    /// Transfer size in bytes.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        u64::from(self.num_sectors) * SECTOR_SIZE
    }

    /// The last logical block touched (inclusive).
    #[inline]
    pub fn last_lba(&self) -> Lba {
        self.lba.advance(u64::from(self.num_sectors) - 1)
    }
}

impl fmt::Display for IoRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} +{} @{}",
            self.id, self.target, self.direction, self.num_sectors, self.lba
        )
    }
}

/// A completed I/O: the original request, its completion instant, and
/// the SCSI outcome the device (or the abort path) reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoCompletion {
    /// The request that finished.
    pub request: IoRequest,
    /// When the device reported completion back to the vSCSI layer.
    pub complete_time: SimTime,
    /// How the command ended (`GOOD` for the infallible paths).
    pub status: ScsiStatus,
}

impl IoCompletion {
    /// Pairs a request with its completion time; status is `GOOD`.
    ///
    /// # Panics
    ///
    /// Panics if `complete_time` precedes the request's issue time.
    pub fn new(request: IoRequest, complete_time: SimTime) -> Self {
        IoCompletion::with_status(request, complete_time, ScsiStatus::Good)
    }

    /// Pairs a request with its completion time and an explicit outcome.
    ///
    /// # Panics
    ///
    /// Panics if `complete_time` precedes the request's issue time.
    pub fn with_status(request: IoRequest, complete_time: SimTime, status: ScsiStatus) -> Self {
        assert!(
            complete_time >= request.issue_time,
            "completion precedes issue"
        );
        IoCompletion {
            request,
            complete_time,
            status,
        }
    }

    /// Builds a completion from an *observed* (possibly imperfect)
    /// stream without validating timestamp order. Consumers that accept
    /// external traces use this; they must tolerate `complete_time <
    /// issue_time` (see `IoStatsCollector`'s clock-anomaly handling).
    pub fn observed(request: IoRequest, complete_time: SimTime, status: ScsiStatus) -> Self {
        IoCompletion {
            request,
            complete_time,
            status,
        }
    }

    /// Device latency: issue → completion (§3.5).
    ///
    /// # Panics
    ///
    /// Panics if the completion was built from an anomalous stream where
    /// `complete_time` precedes the issue time; use
    /// [`IoCompletion::saturating_latency`] for observed streams.
    #[inline]
    pub fn latency(&self) -> SimDuration {
        self.complete_time - self.request.issue_time
    }

    /// Like [`IoCompletion::latency`], but a non-monotonic pair yields
    /// zero instead of panicking.
    #[inline]
    pub fn saturating_latency(&self) -> SimDuration {
        self.complete_time.saturating_since(self.request.issue_time)
    }
}

impl fmt::Display for IoCompletion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} done in {} [{}]",
            self.request,
            self.saturating_latency(),
            self.status
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{VDiskId, VmId};

    fn req(lba: u64, sectors: u32) -> IoRequest {
        IoRequest::new(
            RequestId(1),
            TargetId::new(VmId(0), VDiskId(0)),
            IoDirection::Write,
            Lba::new(lba),
            sectors,
            SimTime::from_micros(10),
        )
    }

    #[test]
    fn geometry_helpers() {
        let r = req(100, 8);
        assert_eq!(r.len_bytes(), 4096);
        assert_eq!(r.last_lba(), Lba::new(107));
    }

    #[test]
    fn single_sector_request() {
        let r = req(5, 1);
        assert_eq!(r.last_lba(), Lba::new(5));
        assert_eq!(r.len_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_sectors_rejected() {
        let _ = req(0, 0);
    }

    #[test]
    fn completion_latency() {
        let r = req(0, 8);
        let c = IoCompletion::new(r, SimTime::from_micros(250));
        assert_eq!(c.latency().as_micros(), 240);
    }

    #[test]
    #[should_panic(expected = "completion precedes issue")]
    fn completion_before_issue_rejected() {
        let r = req(0, 8);
        let _ = IoCompletion::new(r, SimTime::ZERO);
    }

    #[test]
    fn new_defaults_to_good_status() {
        let c = IoCompletion::new(req(0, 8), SimTime::from_micros(20));
        assert_eq!(c.status, crate::ScsiStatus::Good);
    }

    #[test]
    fn with_status_carries_outcome() {
        use crate::{ScsiStatus, SenseKey};
        let c = IoCompletion::with_status(
            req(0, 8),
            SimTime::from_micros(20),
            ScsiStatus::CheckCondition(SenseKey::MediumError),
        );
        assert!(!c.status.is_good());
        assert!(c.to_string().contains("MEDIUM ERROR"));
    }

    #[test]
    fn observed_tolerates_clock_inversion() {
        let c = IoCompletion::observed(req(0, 8), SimTime::ZERO, crate::ScsiStatus::Good);
        assert_eq!(c.saturating_latency(), SimDuration::ZERO);
    }

    #[test]
    fn display_is_informative() {
        let r = req(7, 8);
        let s = r.to_string();
        assert!(s.contains("req1") && s.contains('W') && s.contains("lba:7"));
    }
}
