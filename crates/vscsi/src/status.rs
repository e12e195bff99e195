//! SCSI command outcomes: status byte plus sense key.
//!
//! The paper's vscsiStats runs inside a production hypervisor where
//! commands fail, time out, and get aborted; a completion therefore
//! carries more than a timestamp. This module models the small slice of
//! the SCSI status/sense space the I/O path actually distinguishes:
//!
//! * `GOOD` — the command transferred its data.
//! * `CHECK CONDITION` with sense `MEDIUM ERROR` — unrecoverable media
//!   fault; retrying the same LBAs will fail again.
//! * `CHECK CONDITION` with sense `UNIT ATTENTION` — the target state
//!   changed under the initiator (path flap, reset); the command itself
//!   is innocent and can be retried.
//! * `BUSY` — the target is momentarily saturated; retry after backoff.
//! * `TASK ABORTED` — the initiator gave up (command timeout) and tore
//!   the command down with an abort task-management function.

use std::fmt;

/// Sense key accompanying a `CHECK CONDITION` status (SPC-4 §4.5.6,
/// reduced to the keys the fault model produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SenseKey {
    /// Unrecoverable media fault: the blocks themselves are bad.
    MediumError,
    /// Target state changed (path failover, reset); retry is safe.
    UnitAttention,
}

impl fmt::Display for SenseKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SenseKey::MediumError => write!(f, "MEDIUM ERROR"),
            SenseKey::UnitAttention => write!(f, "UNIT ATTENTION"),
        }
    }
}

/// The outcome a completion reports back to the vSCSI layer.
///
/// # Examples
///
/// ```
/// use vscsi::{ScsiStatus, SenseKey};
///
/// assert!(ScsiStatus::Good.is_good());
/// assert!(ScsiStatus::Busy.is_retryable());
/// assert!(ScsiStatus::CheckCondition(SenseKey::UnitAttention).is_retryable());
/// assert!(!ScsiStatus::CheckCondition(SenseKey::MediumError).is_retryable());
/// assert!(!ScsiStatus::TaskAborted.is_retryable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScsiStatus {
    /// Command completed successfully.
    #[default]
    Good,
    /// Command failed; the sense key says why.
    CheckCondition(SenseKey),
    /// Target temporarily unable to accept the command.
    Busy,
    /// Command torn down by an abort (initiator timeout).
    TaskAborted,
}

impl ScsiStatus {
    /// Successful completion?
    #[inline]
    pub fn is_good(self) -> bool {
        matches!(self, ScsiStatus::Good)
    }

    /// Whether reissuing the same command may succeed: `BUSY` and
    /// `UNIT ATTENTION` are transient; `MEDIUM ERROR` is permanent and
    /// `TASK ABORTED` means the initiator already gave up.
    #[inline]
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ScsiStatus::Busy | ScsiStatus::CheckCondition(SenseKey::UnitAttention)
        )
    }

    /// Stable small integer for histogram binning (one bin per outcome):
    /// 0 = GOOD, 1 = MEDIUM ERROR, 2 = UNIT ATTENTION, 3 = BUSY,
    /// 4 = TASK ABORTED.
    #[inline]
    pub fn outcome_code(self) -> i64 {
        match self {
            ScsiStatus::Good => 0,
            ScsiStatus::CheckCondition(SenseKey::MediumError) => 1,
            ScsiStatus::CheckCondition(SenseKey::UnitAttention) => 2,
            ScsiStatus::Busy => 3,
            ScsiStatus::TaskAborted => 4,
        }
    }

    /// Every distinct outcome, in `outcome_code` order.
    pub const ALL: [ScsiStatus; 5] = [
        ScsiStatus::Good,
        ScsiStatus::CheckCondition(SenseKey::MediumError),
        ScsiStatus::CheckCondition(SenseKey::UnitAttention),
        ScsiStatus::Busy,
        ScsiStatus::TaskAborted,
    ];
}

impl fmt::Display for ScsiStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScsiStatus::Good => write!(f, "GOOD"),
            ScsiStatus::CheckCondition(sense) => write!(f, "CHECK CONDITION ({sense})"),
            ScsiStatus::Busy => write!(f, "BUSY"),
            ScsiStatus::TaskAborted => write!(f, "TASK ABORTED"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_good() {
        assert_eq!(ScsiStatus::default(), ScsiStatus::Good);
    }

    #[test]
    fn retryability_classification() {
        assert!(!ScsiStatus::Good.is_retryable());
        assert!(ScsiStatus::Busy.is_retryable());
        assert!(ScsiStatus::CheckCondition(SenseKey::UnitAttention).is_retryable());
        assert!(!ScsiStatus::CheckCondition(SenseKey::MediumError).is_retryable());
        assert!(!ScsiStatus::TaskAborted.is_retryable());
    }

    #[test]
    fn outcome_codes_are_distinct_and_dense() {
        let codes: Vec<i64> = ScsiStatus::ALL.iter().map(|s| s.outcome_code()).collect();
        assert_eq!(codes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn display_names() {
        assert_eq!(ScsiStatus::Good.to_string(), "GOOD");
        assert_eq!(
            ScsiStatus::CheckCondition(SenseKey::MediumError).to_string(),
            "CHECK CONDITION (MEDIUM ERROR)"
        );
        assert_eq!(ScsiStatus::Busy.to_string(), "BUSY");
        assert_eq!(ScsiStatus::TaskAborted.to_string(), "TASK ABORTED");
    }
}
