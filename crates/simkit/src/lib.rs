//! # simkit — discrete-event simulation substrate
//!
//! Deterministic building blocks shared by every simulator in this
//! repository:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock
//!   (stands in for the TSC cycle counter the paper reads per command).
//! * [`EventQueue`] — a deterministic future-event list with FIFO tie-break.
//! * [`SimRng`] — seedable randomness with stable per-consumer sub-streams.
//! * [`Dist`] — a serializable algebra of sampling distributions.
//! * [`OnlineStats`] / [`IntervalCounter`] / [`quantile`] — streaming
//!   summary statistics for evaluation harnesses.
//!
//! # Examples
//!
//! A tiny queueing simulation loop:
//!
//! ```
//! use simkit::{Dist, EventQueue, SimDuration, SimRng, SimTime};
//!
//! let mut rng = SimRng::seed_from(7);
//! let arrivals = Dist::exponential(100.0); // mean 100 us between arrivals
//! let mut q = EventQueue::new();
//!
//! // Schedule 10 arrivals.
//! let mut t = SimTime::ZERO;
//! for i in 0..10 {
//!     t += SimDuration::from_micros_f64(arrivals.sample(&mut rng));
//!     q.schedule(t, i);
//! }
//!
//! let mut served = 0;
//! while let Some(ev) = q.pop() {
//!     served += 1;
//!     assert!(q.now() >= ev.at);
//! }
//! assert_eq!(served, 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dist;
mod event;
mod rng;
mod stats;
mod time;

pub use dist::Dist;
pub use event::{EventQueue, Scheduled};
pub use rng::{splitmix64, SimRng};
pub use stats::{quantile, IntervalCounter, OnlineStats};
pub use time::{SimDuration, SimTime};
