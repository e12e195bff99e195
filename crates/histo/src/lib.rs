//! # histo — online histograms for disk I/O workload characterization
//!
//! The measurement core of the paper (§3): histograms that can be maintained
//! *online*, per command, in O(1) time and O(m) space, over irregular bin
//! layouts chosen to single out storage-significant values.
//!
//! * [`BinEdges`] — strictly increasing inclusive upper bounds (+ implicit
//!   overflow bin), with linear and binary bin lookup.
//! * [`Histogram`] — counts + exact running min/max/mean; merge, quantiles,
//!   mode, fraction-in-range, ASCII rendering.
//! * [`layouts`] — the paper's exact bin layouts (I/O length, signed seek
//!   distance, latency, interarrival, outstanding I/Os).
//! * [`SeekWindow`] — the §3.1 min-of-last-N look-behind window (N = 16).
//! * [`HistogramSeries`] — per-interval histograms (Figures 4(d), 6(c)).
//! * [`Histogram2d`] — the §3.6 "future work" metric-correlation extension.
//!
//! # Examples
//!
//! ```
//! use histo::{layouts, Histogram, SeekWindow};
//!
//! let mut lengths = Histogram::new(layouts::io_length_bytes());
//! let mut seeks = Histogram::new(layouts::seek_distance_sectors());
//! let mut window = SeekWindow::new(SeekWindow::DEFAULT_CAPACITY);
//!
//! // A tiny sequential 4 KiB workload: 8 sectors per I/O.
//! for i in 0..100u64 {
//!     let first_block = i * 8;
//!     lengths.record(4096);
//!     if let Some(d) = window.observe(first_block, 8) {
//!         seeks.record(d);
//!     }
//! }
//!
//! // Every command was exactly 4096 bytes...
//! let li = lengths.edges().bin_index(4096);
//! assert_eq!(lengths.count(li), 100);
//! // ...and the seek-distance peak is centered at 1 (sequential).
//! let si = seeks.edges().bin_index(1);
//! assert_eq!(seeks.mode_bin(), Some(si));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bins;
mod fastbin;
mod hist2d;
mod histogram;
pub mod layouts;
mod series;
mod window;

pub use bins::{BinEdges, BinEdgesError};
pub use fastbin::{BinLane, FastBinner};
pub use hist2d::Histogram2d;
pub use histogram::{Histogram, MergeError};
pub use layouts::LayoutId;
pub use series::HistogramSeries;
pub use window::{signed_distance, SeekWindow};
