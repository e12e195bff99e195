//! # esx — the hypervisor layer
//!
//! A discrete-event model of the VMware ESX Server data path described in
//! §2 of the paper: guest workloads issue SCSI commands, the vSCSI
//! emulation layer observes every command (this is where the `vscsi-stats`
//! service hooks in), a per-(VM, target) pending queue throttles the
//! device, and a shared storage array services the physical I/O.
//!
//! * [`Simulation`] — the event loop wiring workloads, stats and storage.
//! * [`Vm`] / [`VmBuilder`] — virtual machines with per-disk workloads.
//! * [`Testbed`] — the Table 1-style configuration banner.
//!
//! # Examples
//!
//! ```
//! use esx::{Simulation, VmBuilder};
//! use guests::{AccessSpec, IometerWorkload};
//! use simkit::SimTime;
//! use std::sync::Arc;
//! use storage::presets;
//! use vscsi_stats::{Lens, Metric, StatsService};
//!
//! let service = Arc::new(StatsService::default());
//! service.enable_all();
//! let mut sim = Simulation::new(presets::clariion_cx3(), Arc::clone(&service), 7);
//! sim.add_vm(
//!     VmBuilder::new(0)
//!         .with_disk(2 * 1024 * 1024 * 1024)
//!         .attach(sim.rng().fork("wl"), |rng| {
//!             Box::new(IometerWorkload::new(
//!                 "4k-seq-read",
//!                 AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024),
//!                 rng,
//!             ))
//!         }),
//! );
//! sim.run_until(SimTime::from_millis(100));
//!
//! let collector = service.collector(sim.attachment_target(0)).unwrap();
//! let lengths = collector.histogram(Metric::IoLength, Lens::All);
//! assert_eq!(lengths.mode_bin(), Some(lengths.edges().bin_index(4096)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod host;
mod sim;
mod vm;

pub use host::Testbed;
pub use sim::{AttachmentStats, RobustnessParams, Simulation};
pub use vm::{Attachment, Vm, VmBuilder};
