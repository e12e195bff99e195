//! # vscsistats-repro — facade crate
//!
//! One-stop entry point for the reproduction of *"Easy and Efficient Disk
//! I/O Workload Characterization in VMware ESX Server"* (IISWC 2007).
//! Re-exports every layer of the stack and provides a [`prelude`] for the
//! examples and integration tests.
//!
//! Layers, bottom-up:
//!
//! * [`simkit`] — discrete-event simulation substrate;
//! * [`histo`] — online histograms with the paper's irregular bin layouts;
//! * [`vscsi`] — virtual SCSI data-path types (requests, completions, disks);
//! * [`storage`] — the simulated disk arrays (Symmetrix / CX3 presets);
//! * [`guests`] — filesystem models (UFS, ZFS, ext3) and application
//!   workloads (Filebench OLTP, DBT-2, file copy, Iometer);
//! * [`esx`] — the hypervisor event loop with vSCSI stats hooks;
//! * [`vscsi_stats`] — **the paper's contribution**: the online
//!   characterization service and tracing framework;
//! * [`tracestore`] — durable, bounded-memory binary trace capture &
//!   replay (streaming backend for the tracing framework);
//! * [`fleet`] — the aggregation plane above the hosts: the
//!   `FetchAllHistograms` wire format plus hierarchical
//!   host → tenant → fleet histogram rollup with exact conservation.
//!
//! # Examples
//!
//! ```
//! use vscsistats_repro::prelude::*;
//!
//! let service = std::sync::Arc::new(StatsService::default());
//! service.enable_all();
//! let mut sim = Simulation::new(presets::clariion_cx3(), service.clone(), 1);
//! sim.add_vm(VmBuilder::new(0).with_disk(1 << 30).attach(
//!     sim.rng().fork("wl"),
//!     |rng| Box::new(IometerWorkload::new("q", AccessSpec::seq_read_4k(8, 1 << 29), rng)),
//! ));
//! sim.run_until(SimTime::from_millis(50));
//! assert!(!service.summaries().is_empty());
//! ```

#![warn(missing_docs)]

pub use esx;
pub use fleet;
pub use guests;
pub use histo;
pub use simkit;
pub use storage;
pub use tracestore;
pub use vscsi;
pub use vscsi_stats;

/// Commonly used items from every layer.
pub mod prelude {
    pub use esx::{Simulation, Testbed, Vm, VmBuilder};
    pub use fleet::{
        decode_frame, encode_frame, FleetCollector, FleetView, HostFrame, PollConfig,
        ServiceEndpoint,
    };
    pub use guests::{
        AccessSpec, BlockIo, Dbt2Params, Dbt2Workload, Delayed, FileCopyParams, FileCopyWorkload,
        FilebenchWorkload, IometerWorkload, Poll, ReplayWorkload, ScheduledIo, Workload,
    };
    pub use histo::{layouts, BinEdges, Histogram, Histogram2d, HistogramSeries, SeekWindow};
    pub use simkit::{Dist, SimDuration, SimRng, SimTime};
    pub use storage::{presets, ArrayParams, StorageArray};
    pub use tracestore::{read_trace, StoreReport, TraceStore, TraceStoreConfig};
    pub use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
    pub use vscsi_stats::{
        replay, CollectorConfig, FingerprintLibrary, IoStatsCollector, Lens, Metric, StatsService,
        TraceCapacity, TraceSink, VecSink, VscsiEvent, VscsiTracer, WorkloadClass,
        WorkloadFingerprint,
    };
}
