//! The closed-loop workload abstraction the hypervisor driver consumes.
//!
//! A [`Workload`] models everything above the virtual disk: application
//! threads, think times, and the guest filesystem. The hypervisor driver
//! (in the `esx` crate) calls it at three points — start, I/O completion,
//! timer expiry — and the workload responds with block I/Os to issue and/or
//! the next timer it needs. This mirrors how real guests generate I/O: new
//! commands are triggered by completions (closed loop) or by clocks (think
//! time, periodic flushes).

use simkit::SimTime;
use vscsi::{IoDirection, Lba};

/// One block-level I/O a workload wants issued on its virtual disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIo {
    /// Read or write.
    pub direction: IoDirection,
    /// First sector on the virtual disk.
    pub lba: Lba,
    /// Sectors to transfer (> 0).
    pub sectors: u32,
    /// Opaque tag returned to the workload on completion.
    pub tag: u64,
}

impl BlockIo {
    /// Convenience constructor.
    pub fn new(direction: IoDirection, lba: Lba, sectors: u32, tag: u64) -> Self {
        debug_assert!(sectors > 0, "zero-length BlockIo");
        BlockIo {
            direction,
            lba,
            sectors,
            tag,
        }
    }

    /// A read.
    pub fn read(lba: Lba, sectors: u32, tag: u64) -> Self {
        BlockIo::new(IoDirection::Read, lba, sectors, tag)
    }

    /// A write.
    pub fn write(lba: Lba, sectors: u32, tag: u64) -> Self {
        BlockIo::new(IoDirection::Write, lba, sectors, tag)
    }
}

/// A workload's response to a driver event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Poll {
    /// I/Os to issue immediately.
    pub issue: Vec<BlockIo>,
    /// The earliest instant the workload wants [`Workload::on_timer`]
    /// called, if any. Replaces any previously requested timer.
    pub timer: Option<SimTime>,
}

impl Poll {
    /// Nothing to do.
    pub fn idle() -> Poll {
        Poll::default()
    }

    /// Issue these I/Os, no timer change.
    pub fn issue(ios: Vec<BlockIo>) -> Poll {
        Poll {
            issue: ios,
            timer: None,
        }
    }

    /// Just arm a timer.
    pub fn timer(at: SimTime) -> Poll {
        Poll {
            issue: Vec::new(),
            timer: Some(at),
        }
    }
}

/// A guest workload driven in closed loop by the hypervisor.
///
/// Implementations must be deterministic given their construction-time RNG;
/// the driver provides no randomness.
pub trait Workload {
    /// Called once when the simulation starts.
    fn start(&mut self, now: SimTime) -> Poll;

    /// Called when an I/O previously returned from any hook completes;
    /// `tag` is the [`BlockIo::tag`] of the completed I/O.
    fn on_complete(&mut self, now: SimTime, tag: u64) -> Poll;

    /// Called when the most recently requested timer expires.
    fn on_timer(&mut self, now: SimTime) -> Poll;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_constructors() {
        assert_eq!(
            Poll::idle(),
            Poll {
                issue: vec![],
                timer: None
            }
        );
        let io = BlockIo::read(Lba::new(0), 8, 7);
        assert_eq!(
            Poll::issue(vec![io]),
            Poll {
                issue: vec![io],
                timer: None
            }
        );
        let t = SimTime::from_micros(5);
        assert_eq!(Poll::timer(t).timer, Some(t));
    }

    #[test]
    fn block_io_helpers() {
        let r = BlockIo::read(Lba::new(10), 8, 1);
        assert!(r.direction.is_read());
        let w = BlockIo::write(Lba::new(10), 8, 2);
        assert!(w.direction.is_write());
        assert_eq!(w.tag, 2);
    }
}
