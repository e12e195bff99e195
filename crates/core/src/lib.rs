//! # vscsi-stats — online disk I/O workload characterization
//!
//! The primary contribution of *"Easy and Efficient Disk I/O Workload
//! Characterization in VMware ESX Server"* (IISWC 2007): transparent,
//! online collection of essential disk-workload characteristics for
//! arbitrary, unmodified guests, done at the hypervisor's virtual SCSI
//! layer with constant space and O(1) work per command.
//!
//! * [`IoStatsCollector`] — per-(VM, virtual disk) histograms of I/O
//!   length, signed seek distance, windowed (min-of-last-N) seek distance,
//!   interarrival time, outstanding I/Os and device latency, each split
//!   into all/reads/writes ([`Metric`] × [`Lens`]).
//! * [`HistogramSet`] — that 7 × 3 bundle as plain counters and the only
//!   definition of its slot layout: what the collector records into,
//!   [`checkpoint`] persists, and the fleet plane ships and merges.
//! * [`StatsService`] — the host-wide enable/disable registry with the
//!   `vscsiStats`-style command interface, sharded so concurrent VMs
//!   ingest without contending and the disabled path takes no locks
//!   (batch ingestion via [`VscsiEvent`] slices).
//! * [`pipeline`] — thread-per-core ingest: lock-free SPSC lanes
//!   ([`spsc`]) feeding aggregator workers that own disjoint shard
//!   sets, with ring-full shedding folded into the sentinel ledger.
//! * [`sentinel`] — supervision for the always-on promise: an overload
//!   governor with a deterministic degradation ladder, watchdog
//!   heartbeats, and panic quarantine with salvage, surfaced through
//!   [`HealthSnapshot`].
//! * [`VscsiTracer`] / [`replay`] — the command tracing framework for
//!   analyses that need more than histograms, plus offline replay (which
//!   reproduces the online histograms exactly).
//! * [`report`] — figure-style text reports and CSV dumps.
//!
//! # Examples
//!
//! ```
//! use simkit::SimTime;
//! use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
//! use vscsi_stats::{IoStatsCollector, Lens, Metric};
//!
//! let mut stats = IoStatsCollector::default();
//!
//! // A guest issues a sequential run of 16 KiB reads...
//! let mut t = SimTime::ZERO;
//! for i in 0..64u64 {
//!     let req = IoRequest::new(
//!         RequestId(i), TargetId::default(), IoDirection::Read,
//!         Lba::new(i * 32), 32, t,
//!     );
//!     stats.on_issue(&req);
//!     t = t + simkit::SimDuration::from_micros(200);
//!     stats.on_complete(&IoCompletion::new(req, t));
//! }
//!
//! // ...and the histograms identify it: all 16 KiB, sequential.
//! let len = stats.histogram(Metric::IoLength, Lens::All);
//! assert_eq!(len.count(len.edges().bin_index(16_384)), 64);
//! let seek = stats.histogram(Metric::SeekDistance, Lens::All);
//! assert_eq!(seek.mode_bin(), Some(seek.edges().bin_index(1)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod checkpoint;
mod collector;
pub mod crc32;
pub mod fingerprint;
pub mod frame;
mod histogram_set;
mod inflight;
pub mod medium;
mod metrics;
pub mod pipeline;
pub mod report;
pub mod sentinel;
mod service;
pub mod spsc;
mod trace;
pub mod varint;
pub mod workers;

pub use checkpoint::{
    load_latest, CheckpointConfig, CheckpointDaemon, CheckpointFile, CheckpointHealth,
    CheckpointLedger, RecoveredCheckpoint, ServiceCheckpoint, TargetCheckpoint,
};
pub use collector::{
    CollectorConfig, CollectorState, HistogramState, IoStatsCollector, LatencyPercentiles,
};
pub use fingerprint::{recommendations, FingerprintLibrary, WorkloadClass, WorkloadFingerprint};
pub use histogram_set::{Binners, HistogramSet, SlotAgg};
pub use inflight::InflightTable;
pub use medium::{publish_atomic, FsMedium, Medium, MediumFile, WriteTaint};
pub use metrics::{Lens, Metric};
pub use pipeline::{IngestPipeline, PipelineConfig, PipelineProducer, PipelineReport};
pub use sentinel::{
    ChaosSpec, DegradeLevel, HealthSnapshot, LoadCounters, SalvageRecord, SalvagedTarget,
    SentinelConfig, SentinelState, ShardHealth, SinkHealth,
};
pub use service::{StatsService, TargetSummary, VscsiEvent};
pub use trace::{
    replay, ParseTraceError, TraceCapacity, TraceRecord, TraceSink, VecSink, VscsiTracer,
};
