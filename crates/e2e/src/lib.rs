//! `ext_e2e`: the repo's benchmark. See `README.md` beside this crate.

pub mod calib;
pub mod compare;
pub mod fleet;
pub mod gen;
pub mod hook;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod outcome;
pub mod provenance;
pub mod query;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;

use outcome::Outcome;
use span::Tracer;

/// Cores this process may run on; every thread count derives from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One workload's closed loop, advanced a pass at a time so the scheduler
/// can interleave the five of them across the whole run: a pass is the
/// smallest unit that yields a sample of each of the workload's metrics.
pub trait Pipeline {
    fn name(&self) -> &'static str;
    fn pass(&mut self, tracer: &mut Tracer);
    fn finish(self: Box<Self>) -> Outcome;
}

/// Fixed operation sizes. Counts, never durations: a run repeats
/// fixed-size passes until its time is spent.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub hook_targets: u32,
    pub hook_cmds: usize,
    pub contend_targets: u32,
    pub contend_cmds: usize,
    /// Commands per timed chunk of a hook pass.
    pub chunk_cmds: usize,
    pub host: host::HostShape,
    pub archive_targets: u32,
    pub archive_cmds: usize,
    pub archive_segment_bytes: usize,
    pub selective_queries: usize,
    /// Selective queries also answered by `reference_scan` and compared.
    pub reference_checks: usize,
    pub fleet_hosts: u32,
    pub fleet_targets_per_host: u32,
    pub fleet_initial_cmds: usize,
    pub fleet_burst_cmds: usize,
    pub fleet_rounds_per_pass: u64,
}

impl Sizes {
    /// The frozen sizes; `README.md` records how they were calibrated.
    pub fn full() -> Sizes {
        Sizes {
            hook_targets: 8,
            hook_cmds: 1 << 18,
            contend_targets: 16,
            contend_cmds: 1 << 18,
            chunk_cmds: 4096,
            host: host::HostShape {
                windows: 4,
                window_ns: 500_000_000,
                checkpoint_every: 2,
                recoveries: 2,
            },
            archive_targets: 8,
            archive_cmds: 1 << 18,
            archive_segment_bytes: 1 << 20,
            selective_queries: 24,
            reference_checks: 8,
            fleet_hosts: 16,
            fleet_targets_per_host: 40,
            fleet_initial_cmds: 4_000,
            fleet_burst_cmds: 200,
            fleet_rounds_per_pass: 8,
        }
    }

    /// Every workload at roughly 1/50 size, for `--smoke` and the tests.
    pub fn smoke() -> Sizes {
        Sizes {
            hook_targets: 8,
            hook_cmds: 1 << 13,
            contend_targets: 16,
            contend_cmds: 1 << 13,
            chunk_cmds: 512,
            host: host::HostShape {
                windows: 4,
                window_ns: 10_000_000,
                checkpoint_every: 2,
                recoveries: 1,
            },
            archive_targets: 8,
            archive_cmds: 20_000,
            archive_segment_bytes: 96 << 10,
            selective_queries: 8,
            reference_checks: 2,
            fleet_hosts: 4,
            fleet_targets_per_host: 8,
            fleet_initial_cmds: 200,
            fleet_burst_cmds: 20,
            fleet_rounds_per_pass: 3,
        }
    }
}
