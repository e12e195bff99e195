//! Metric and lens enumerations for the characterization service.

use std::fmt;

/// The disk I/O performance metrics the paper characterizes (§1, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Size of the data request, in bytes (§3.2).
    IoLength,
    /// Signed distance in sectors from the previous I/O's last block to this
    /// I/O's first block (§3.1).
    SeekDistance,
    /// Minimum signed distance to any of the last N I/Os (§3.1); unmasks
    /// interleaved sequential streams.
    SeekDistanceWindowed,
    /// Time since the previous I/O arrived, in microseconds (§3.2).
    Interarrival,
    /// Number of other I/Os outstanding on this virtual disk at arrival
    /// time (§3.3).
    OutstandingIos,
    /// Device latency from issue to completion, in microseconds (§3.5).
    Latency,
    /// Error completions by SCSI outcome code (see
    /// `vscsi::ScsiStatus::outcome_code`): 1 = MEDIUM ERROR,
    /// 2 = UNIT ATTENTION, 3 = BUSY, 4 = TASK ABORTED. Successful
    /// commands are not recorded here, so the histogram is empty on a
    /// healthy path.
    Errors,
}

impl Metric {
    /// All metrics, in report order.
    pub const ALL: [Metric; 7] = [
        Metric::IoLength,
        Metric::SeekDistance,
        Metric::SeekDistanceWindowed,
        Metric::Interarrival,
        Metric::OutstandingIos,
        Metric::Latency,
        Metric::Errors,
    ];

    /// Whether this metric depends on the environment (storage device and
    /// co-located load) rather than the workload alone. The paper (§3.7)
    /// classifies latency and interarrival time as environment-*dependent*;
    /// length, spatial locality, outstanding I/Os and read/write ratio are
    /// environment-independent.
    pub const fn is_environment_dependent(self) -> bool {
        matches!(
            self,
            Metric::Latency | Metric::Interarrival | Metric::Errors
        )
    }

    /// The measurement unit, for report headers.
    pub const fn unit(self) -> &'static str {
        match self {
            Metric::IoLength => "bytes",
            Metric::SeekDistance | Metric::SeekDistanceWindowed => "sectors",
            Metric::Interarrival | Metric::Latency => "microseconds",
            Metric::OutstandingIos => "I/Os",
            Metric::Errors => "outcomes",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Metric::IoLength => "I/O Length",
            Metric::SeekDistance => "Seek Distance",
            Metric::SeekDistanceWindowed => "Seek Distance (min of last N)",
            Metric::Interarrival => "I/O Interarrival",
            Metric::OutstandingIos => "Outstanding I/Os",
            Metric::Latency => "I/O Latency",
            Metric::Errors => "I/O Errors by Outcome",
        };
        f.write_str(name)
    }
}

/// Which commands a histogram covers: the paper keeps separate read and
/// write distributions for every metric (§3.4) plus the combined view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lens {
    /// All commands.
    All,
    /// Read commands only.
    Reads,
    /// Write commands only.
    Writes,
}

impl Lens {
    /// All lenses, in report order.
    pub const ALL: [Lens; 3] = [Lens::All, Lens::Reads, Lens::Writes];
}

impl fmt::Display for Lens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Lens::All => "All",
            Lens::Reads => "Reads",
            Lens::Writes => "Writes",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_classification_matches_paper() {
        assert!(Metric::Latency.is_environment_dependent());
        assert!(Metric::Interarrival.is_environment_dependent());
        assert!(!Metric::IoLength.is_environment_dependent());
        assert!(!Metric::SeekDistance.is_environment_dependent());
        assert!(!Metric::SeekDistanceWindowed.is_environment_dependent());
        assert!(!Metric::OutstandingIos.is_environment_dependent());
        // Faults come from the environment, not the workload.
        assert!(Metric::Errors.is_environment_dependent());
    }

    #[test]
    fn display_and_units() {
        assert_eq!(Metric::IoLength.to_string(), "I/O Length");
        assert_eq!(Metric::IoLength.unit(), "bytes");
        assert_eq!(Metric::Latency.unit(), "microseconds");
        assert_eq!(Metric::SeekDistance.unit(), "sectors");
        assert_eq!(Lens::Reads.to_string(), "Reads");
    }

    #[test]
    fn all_lists_are_complete_and_unique() {
        let mut m = Metric::ALL.to_vec();
        m.dedup();
        assert_eq!(m.len(), 7);
        let mut l = Lens::ALL.to_vec();
        l.dedup();
        assert_eq!(l.len(), 3);
    }
}
