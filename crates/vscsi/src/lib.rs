//! # vscsi — virtual SCSI substrate
//!
//! The data-path types the hypervisor's SCSI emulation layer works with
//! (§2 of the paper): logical block addresses, in-flight requests and
//! completions with their SCSI outcome, and virtual-disk geometry.
//!
//! The characterization service in the `vscsi-stats` crate observes values
//! of these types at exactly two points — command issue and command
//! completion — which is all the paper's metrics require.
//!
//! # Examples
//!
//! ```
//! use simkit::SimTime;
//! use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
//!
//! // Issue hook: a guest's 64 KiB read at LBA 2048 arrives at the vSCSI layer...
//! let req = IoRequest::new(
//!     RequestId(1),
//!     TargetId::default(),
//!     IoDirection::Read,
//!     Lba::new(2048),
//!     128,
//!     SimTime::from_micros(10),
//! );
//! assert_eq!(req.len_bytes(), 64 * 1024);
//! // ...completion hook: the device reports it done 400 µs later.
//! let done = IoCompletion::new(req, SimTime::from_micros(410));
//! assert_eq!(done.latency().as_micros(), 400);
//! assert!(done.status.is_good());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod request;
mod status;
mod types;
mod vdisk;

pub use request::{IoCompletion, IoRequest};
pub use status::{ScsiStatus, SenseKey};
pub use types::{IoDirection, Lba, RequestId, TargetId, VDiskId, VmId, SECTOR_SIZE};
pub use vdisk::{OutOfRange, VirtualDisk};
