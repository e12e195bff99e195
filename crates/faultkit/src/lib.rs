//! # faultkit — deterministic fault injection for the simulated I/O path
//!
//! The paper's vscsiStats runs inside a production hypervisor where
//! commands fail, time out, and get aborted. This crate supplies the
//! misbehaviour: composable, seedable *fault plans* that the storage
//! layer consults once per command at service time. Every decision is a
//! pure function of (seed, consult index, command, virtual time), so a
//! faulted simulation is exactly as reproducible as a healthy one —
//! the property the `ext_faults` experiment and its two-run comparison
//! rely on.
//!
//! Fault vocabulary (one [`FaultSpec`] each):
//!
//! * **Media error** — an LBA range whose blocks are bad; commands
//!   touching it complete `CHECK CONDITION (MEDIUM ERROR)`. Permanent:
//!   retries fail again.
//! * **Transient BUSY** — during a time window, each command is refused
//!   with `BUSY` with some probability. Models controller saturation;
//!   retry after backoff succeeds eventually.
//! * **Latency spike** — during a time window, service latencies are
//!   multiplied (degraded disk / rebuild traffic). No errors.
//! * **Path flap** — the path to the target drops: `BUSY` for the whole
//!   window, then a single `UNIT ATTENTION` on the first command after
//!   recovery (the SCSI "something changed" notification).
//! * **Hang** — with some probability in a window, the command is
//!   swallowed: no completion will ever arrive and only the initiator's
//!   timeout/abort machinery can reclaim it.
//!
//! The [`fsfault`] module extends the same discipline to the
//! *filesystem* seam the durability planes write through: torn/short
//! writes, dropped fsyncs, `EIO` on read, rename-before-data
//! reordering, and a schedulable crash guillotine — one wrapper around
//! `vscsi_stats::Medium`, which both the trace store and the checkpoint
//! plane persist through.
//!
//! # Examples
//!
//! ```
//! use faultkit::{FaultOutcome, FaultPlanBuilder};
//! use simkit::SimTime;
//! use vscsi::{IoDirection, Lba};
//!
//! let mut plan = FaultPlanBuilder::new(7)
//!     .media_error(Lba::new(1000), Lba::new(1999), None)
//!     .build();
//! let bad = plan.decide(IoDirection::Read, Lba::new(1500), 8, SimTime::ZERO);
//! assert_eq!(bad.outcome, FaultOutcome::MediumError);
//! let good = plan.decide(IoDirection::Read, Lba::new(0), 8, SimTime::ZERO);
//! assert_eq!(good.outcome, FaultOutcome::None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fsfault;
mod plan;

pub use fsfault::{
    CrashPhase, CrashSchedule, FaultyMedium, FsFaultConfig, FsFaultPlan, FsFaultStats, FsFaults,
    FsWriteFault,
};
pub use plan::{FaultDecision, FaultOutcome, FaultPlan, FaultPlanBuilder, FaultSpec, FaultStats};
