//! Fleet aggregation plane: hierarchical histogram rollup over a
//! `FetchAllHistograms` wire protocol.
//!
//! The paper characterizes one host's I/O with per-(VM, disk) histograms
//! of pure counters. Because counters merge losslessly, the same
//! histograms aggregate *exactly* across a fleet — this crate is that
//! plane, in three layers:
//!
//! * [`wire`] — the `FetchAllHistograms` frame: every target's
//!   `vscsi_stats::HistogramSet` (which owns the slot layout and the
//!   per-target slot codec), its 16 stored slots delta-encoded as varint
//!   counter vectors inside a CRC-checked envelope. Decoding is total:
//!   corrupt, truncated, or hostile bytes produce a [`WireError`], never a
//!   panic.
//! * [`collector`] — virtual-clock polling: a [`FleetCollector`] fetches
//!   frames from [`HostEndpoint`]s on a window schedule, keeps exact
//!   per-host ok/fetch-failure/decode-failure ledgers, and ages silent
//!   hosts into staleness so one bad host degrades only its own slice.
//! * [`rollup`] — the host → tenant → fleet tree: [`AggSet`] (a newtype
//!   over one set) merges target sets, the collector assembles a [`FleetView`]
//!   tree, and [`FleetView::conserves`] proves the root is bin-for-bin the
//!   sum of its live leaves.
//!
//! # Examples
//!
//! ```
//! use fleet::{
//!     decode_frame, encode_frame, FleetCollector, FrameEndpoint, HostFrame, PollConfig,
//! };
//! use simkit::SimTime;
//!
//! // A host with nothing recorded still frames and decodes exactly.
//! let frame = HostFrame {
//!     host_id: 7,
//!     captured_at_us: 0,
//!     epoch: 0,
//!     seq: 0,
//!     resumed: false,
//!     targets: Vec::new(),
//! };
//! let bytes = encode_frame(&frame).unwrap();
//! assert_eq!(decode_frame(&bytes).unwrap(), frame);
//!
//! let mut collector = FleetCollector::new(
//!     PollConfig::default(),
//!     vec![FrameEndpoint::new(7, 0, vec![Ok(bytes)])],
//! );
//! collector.run_until(SimTime::ZERO);
//! let view = collector.view(SimTime::ZERO);
//! assert_eq!(view.fleet.hosts, 1);
//! assert!(view.conserves());
//! ```

#![forbid(unsafe_code)]

pub mod collector;
pub mod rollup;
pub mod wire;

pub use collector::{
    BreakerPolicy, BreakerState, ChaosEndpoint, ChaosLedger, FetchError, FleetCollector,
    FrameEndpoint, HostEndpoint, HostStatus, PollConfig, RetryPolicy, ServiceEndpoint,
};
pub use rollup::{AggSet, FleetView, HostId, HostView, RollupNode, TenantId};
pub use wire::{decode_frame, encode_frame, HostFrame, TargetHistograms, WireError, FRAME_MAGIC};
