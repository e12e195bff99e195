//! The closed-loop hypervisor simulation.
//!
//! Wires together the full data path of §2: guest workloads issue
//! commands; the vSCSI layer (where the stats service hooks live) sees
//! every command at issue and completion; a per-(VM, target) pending queue
//! throttles what reaches the device, "a queue of pending requests per
//! virtual machine for each target SCSI device"; and the shared storage
//! array services the physical I/O.

use crate::vm::Attachment;
use faultkit::FaultPlan;
use guests::{Poll, Workload};
use simkit::{EventQueue, IntervalCounter, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use storage::{StorageArray, Submission};
use vscsi::SECTOR_SIZE;
use vscsi::{IoCompletion, IoRequest, RequestId, ScsiStatus};
use vscsi_stats::{InflightTable, StatsService};

/// Per-attachment runtime counters, the `esxtop`-style view (§5.2).
#[derive(Debug, Clone)]
pub struct AttachmentStats {
    /// Commands the guest issued (entered the vSCSI layer).
    pub issued: u64,
    /// Commands completed successfully.
    pub completed: u64,
    /// Commands that ended in an error status (`CHECK CONDITION`, or a
    /// `BUSY` that exhausted its retry budget).
    pub failed: u64,
    /// Commands torn down by the timeout/abort path or quarantine drain.
    pub aborted: u64,
    /// Retry dispatches (a command retried twice counts twice).
    pub retries: u64,
    /// Commands that ultimately succeeded after at least one retry.
    pub retried_ok: u64,
    /// Bytes transferred (both directions).
    pub bytes: u64,
    /// Sum of device latencies, microseconds.
    pub latency_sum_us: u64,
    /// Completions bucketed per second (for IOps-over-time views).
    pub per_second: IntervalCounter,
}

impl AttachmentStats {
    fn new() -> Self {
        AttachmentStats {
            issued: 0,
            completed: 0,
            failed: 0,
            aborted: 0,
            retries: 0,
            retried_ok: 0,
            bytes: 0,
            latency_sum_us: 0,
            per_second: IntervalCounter::new(SimDuration::from_secs(1)),
        }
    }

    /// Commands whose final outcome has been delivered to the guest.
    pub(crate) fn delivered(&self) -> u64 {
        self.completed + self.failed + self.aborted
    }

    /// Fraction of delivered commands that ended in error or abort.
    pub(crate) fn error_rate(&self) -> f64 {
        if self.delivered() == 0 {
            return 0.0;
        }
        (self.failed + self.aborted) as f64 / self.delivered() as f64
    }

    /// Mean completions per second over `[0, horizon]`.
    pub fn iops(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.completed as f64 / horizon.as_secs_f64()
    }

    /// Mean MB/s over `[0, horizon]`.
    pub fn mbps(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / horizon.as_secs_f64()
    }

    /// Mean device latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.latency_sum_us as f64 / self.completed as f64
    }
}

// Host CPU cost model for the I/O path (Table 2's "CPU out of 800"
// accounting on Table 1's 8-CPU host), charged per command at delivery.

/// Fixed vSCSI + VMM + driver cost per command.
const CPU_PER_COMMAND: SimDuration = SimDuration::from_micros(110);
/// Additional per-4-KiB cost of moving data.
const CPU_PER_4K: SimDuration = SimDuration::from_micros(3);
/// Extra cost per command while the histogram service is enabled; `ext_e2e`
/// measures the real hook as `hook_ns_per_cmd_p50`.
const CPU_STATS_OVERHEAD: SimDuration = SimDuration::from_nanos(350);

/// Maximum retry dispatches per command for retryable statuses (`BUSY`,
/// `UNIT ATTENTION`).
const MAX_RETRIES: u32 = 4;
/// Upper bound of the uniform jitter added to each retry backoff (avoids
/// retry convoys when a whole queue got BUSY at once).
const RETRY_JITTER: SimDuration = SimDuration::from_micros(500);
/// Delivered-error fraction above which a target is quarantined.
const QUARANTINE_ERROR_RATE: f64 = 0.5;
/// Deliveries required before the error rate is trusted.
const QUARANTINE_MIN_COMMANDS: u64 = 32;
/// Simulated latency of aborting one queued command while draining a
/// quarantined target (an abort task-management round trip).
const ABORT_DRAIN_LATENCY: SimDuration = SimDuration::from_micros(500);

/// The settable part of the hypervisor's error-handling policy (command
/// timeouts, bounded retry with exponential backoff, graceful degradation
/// of failing targets); the rest is fixed in this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessParams {
    /// How long a dispatched command may stay unanswered before the
    /// initiator aborts it. Generous by default — well above any healthy
    /// service time — so the timeout path only fires on real hangs.
    pub command_timeout: SimDuration,
    /// First retry backoff; doubles on each subsequent retry.
    pub retry_backoff_base: SimDuration,
}

impl Default for RobustnessParams {
    fn default() -> Self {
        RobustnessParams {
            command_timeout: SimDuration::from_secs(2),
            retry_backoff_base: SimDuration::from_millis(1),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A workload's armed timer fired (with its generation stamp).
    Timer { attach: usize, generation: u64 },
    /// A completion surfaces for a request (stamped with the dispatch
    /// generation it belongs to; stale stamps are ignored).
    Complete {
        attach: usize,
        request_id: u64,
        dispatch: u64,
    },
    /// A dispatched command's timeout expired; abort it if still live.
    Timeout {
        attach: usize,
        request_id: u64,
        dispatch: u64,
    },
    /// A backed-off command is due for its retry dispatch.
    Retry {
        attach: usize,
        request_id: u64,
        dispatch: u64,
    },
}

/// Driver-side state of one command between issue and final delivery.
struct Inflight {
    request: IoRequest,
    /// Workload tag handed back on delivery.
    tag: u64,
    /// Retry dispatches consumed so far.
    retries: u32,
    /// Generation stamp; bumped on every state transition so stale
    /// Complete/Timeout/Retry events can be recognized and dropped.
    dispatch: u64,
    /// Whether the command currently occupies a device queue slot.
    at_device: bool,
    /// Outcome the pending `Complete` event will deliver.
    status: ScsiStatus,
}

struct AttachmentRuntime {
    attachment: Attachment,
    workload: Box<dyn Workload>,
    /// Guest-issued commands not yet sent to the device, oldest first.
    pending: VecDeque<IoRequest>,
    /// Commands at the device.
    active: u32,
    /// Every command between issue and final delivery, by request id.
    /// Open addressing sized to the architectural queue depth: lookups on
    /// the dispatch/complete path are a multiply and a short probe, with
    /// overflow spilling gracefully past 64 in-flight commands.
    cmds: InflightTable<Inflight>,
    timer_generation: u64,
    /// Quarantined targets stop dispatching and drain with aborts.
    quarantined: bool,
    stats: AttachmentStats,
}

/// The hypervisor-level discrete-event simulation.
///
/// # Examples
///
/// ```
/// use esx::{Simulation, VmBuilder};
/// use guests::{AccessSpec, IometerWorkload};
/// use simkit::{SimRng, SimTime};
/// use storage::presets;
/// use vscsi_stats::StatsService;
/// use std::sync::Arc;
///
/// let service = Arc::new(StatsService::default());
/// service.enable_all();
/// let mut sim = Simulation::new(presets::clariion_cx3(), Arc::clone(&service), 42);
/// let vm = VmBuilder::new(0)
///     .with_disk(6 * 1024 * 1024 * 1024)
///     .attach(sim.rng().fork("wl"), |rng| {
///         Box::new(IometerWorkload::new(
///             "seq",
///             AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024),
///             rng,
///         ))
///     });
/// sim.add_vm(vm);
/// sim.run_until(SimTime::from_secs(1));
/// assert!(sim.attachment_stats(0).completed > 100);
/// ```
pub struct Simulation {
    queue: EventQueue<Event>,
    array: StorageArray,
    service: Arc<StatsService>,
    attachments: Vec<AttachmentRuntime>,
    /// Placement cursor for virtual disks on the backing array.
    next_base_sector: u64,
    next_request_id: u64,
    /// Host CPU nanoseconds consumed by the I/O path so far.
    cpu_used_ns: u64,
    robustness: RobustnessParams,
    /// Dedicated stream for retry-backoff jitter, forked once at
    /// construction so draws stay deterministic per seed.
    retry_rng: simkit::SimRng,
    rng: simkit::SimRng,
    started: bool,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.queue.now())
            .field("attachments", &self.attachments.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulation {
    /// Device queue depth per (VM, target) attachment (ESX's typical 32).
    const QUEUE_DEPTH: u32 = 32;

    /// Creates a simulation around one shared storage array.
    pub fn new(array_params: storage::ArrayParams, service: Arc<StatsService>, seed: u64) -> Self {
        let rng = simkit::SimRng::seed_from(seed);
        Simulation {
            queue: EventQueue::new(),
            array: StorageArray::new(array_params, rng.fork("array")),
            service,
            attachments: Vec::new(),
            next_base_sector: 0,
            next_request_id: 0,
            cpu_used_ns: 0,
            robustness: RobustnessParams::default(),
            retry_rng: rng.fork("retry"),
            rng,
            started: false,
        }
    }

    /// Overrides the error-handling policy (timeouts, retries,
    /// quarantine).
    pub fn set_robustness(&mut self, params: RobustnessParams) {
        self.robustness = params;
    }

    /// Attaches a fault plan to the backing array; subsequent dispatches
    /// consult it (see the `faultkit` crate).
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.array.attach_fault_plan(plan);
    }

    /// Whether attachment `idx` has been quarantined for exceeding the
    /// error-rate threshold.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn quarantined(&self, idx: usize) -> bool {
        self.attachments[idx].quarantined
    }

    /// Commands of attachment `idx` issued but not yet delivered (at the
    /// device, queued, or awaiting a retry or abort).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn in_flight(&self, idx: usize) -> usize {
        self.attachments[idx].cmds.len()
    }

    /// Host CPU seconds consumed by the I/O path so far.
    pub(crate) fn cpu_used_seconds(&self) -> f64 {
        self.cpu_used_ns as f64 / 1e9
    }

    /// Utilization in the paper's "CPU out of 800" form: percentage points
    /// summed over all CPUs (8 CPUs -> max 800).
    pub fn cpu_out_of_n(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.cpu_used_seconds() / horizon.as_secs_f64() * 100.0
    }

    /// The simulation's base RNG (fork it for workloads).
    pub fn rng(&self) -> &simkit::SimRng {
        &self.rng
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The shared array (for cache and I/O-count inspection).
    pub fn array(&self) -> &StorageArray {
        &self.array
    }

    /// Adds a VM (all its attachments); accepts a finished [`crate::Vm`] or
    /// a [`crate::VmBuilder`]. Disks are placed end-to-end on the backing
    /// array, each in its own physical region. Returns the index of the
    /// first attachment added.
    pub fn add_vm(&mut self, vm: impl Into<crate::vm::Vm>) -> usize {
        assert!(!self.started, "add VMs before running");
        let first = self.attachments.len();
        for (target, capacity_bytes, workload) in vm.into().disks {
            let base = vscsi::Lba::new(self.next_base_sector);
            self.next_base_sector += capacity_bytes / vscsi::SECTOR_SIZE;
            let vdisk = vscsi::VirtualDisk::new(target, capacity_bytes, base);
            self.attachments.push(AttachmentRuntime {
                attachment: Attachment::new(vdisk),
                workload,
                pending: VecDeque::new(),
                active: 0,
                cmds: InflightTable::new(),
                timer_generation: 0,
                quarantined: false,
                stats: AttachmentStats::new(),
            });
        }
        first
    }

    /// Number of attachments.
    pub fn attachment_count(&self) -> usize {
        self.attachments.len()
    }

    /// Runtime counters for attachment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn attachment_stats(&self, idx: usize) -> &AttachmentStats {
        &self.attachments[idx].stats
    }

    /// The (VM, disk) target of attachment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn attachment_target(&self, idx: usize) -> vscsi::TargetId {
        self.attachments[idx].attachment.target()
    }

    /// Streams attachment `idx`'s vSCSI command trace into `sink`: every
    /// command the simulation pushes through the stats hooks is recorded,
    /// completed records leave memory immediately, and the in-flight tail
    /// is flushed when tracing stops (or the service is dropped). Pair
    /// with a `tracestore` sink for durable bounded-memory binary capture.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn stream_trace(&self, idx: usize, sink: Box<dyn vscsi_stats::TraceSink>) {
        self.service
            .start_trace_streaming(self.attachment_target(idx), sink);
    }

    /// Runs the simulation until simulated time `end` (or until no events
    /// remain). Returns the number of events processed.
    pub fn run_until(&mut self, end: SimTime) -> u64 {
        if !self.started {
            self.started = true;
            for idx in 0..self.attachments.len() {
                let poll = self.attachments[idx].workload.start(SimTime::ZERO);
                self.apply_poll(idx, SimTime::ZERO, poll);
            }
        }
        let mut processed = 0u64;
        while let Some(at) = self.queue.peek_time() {
            if at > end {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            processed += 1;
            match ev.event {
                Event::Timer { attach, generation } => {
                    if generation == self.attachments[attach].timer_generation {
                        let poll = self.attachments[attach].workload.on_timer(ev.at);
                        self.apply_poll(attach, ev.at, poll);
                    }
                }
                Event::Complete {
                    attach,
                    request_id,
                    dispatch,
                } => {
                    self.complete(attach, request_id, dispatch, ev.at);
                }
                Event::Timeout {
                    attach,
                    request_id,
                    dispatch,
                } => {
                    self.timeout(attach, request_id, dispatch, ev.at);
                }
                Event::Retry {
                    attach,
                    request_id,
                    dispatch,
                } => {
                    self.retry(attach, request_id, dispatch, ev.at);
                }
            }
        }
        processed
    }

    fn apply_poll(&mut self, attach: usize, now: SimTime, poll: Poll) {
        for io in poll.issue {
            let id = RequestId(self.next_request_id);
            self.next_request_id += 1;
            let runtime = &mut self.attachments[attach];
            let vdisk = runtime.attachment.vdisk();
            assert!(
                vdisk.check(io.lba, io.sectors).is_ok(),
                "workload {:?} issued out-of-range I/O {io:?} on {} ({} sectors); \
                 size the virtual disk to cover the filesystem/workload region",
                runtime.workload.name(),
                vdisk.target(),
                vdisk.capacity_sectors(),
            );
            let request = IoRequest::new(
                id,
                runtime.attachment.target(),
                io.direction,
                io.lba,
                io.sectors,
                now,
            );
            // The vSCSI layer sees commands the moment the guest issues
            // them — this is the paper's first hook point.
            self.service.handle_issue(&request);
            runtime.stats.issued += 1;
            runtime.cmds.insert(
                id.0,
                Inflight {
                    request,
                    tag: io.tag,
                    retries: 0,
                    dispatch: 0,
                    at_device: false,
                    status: ScsiStatus::Good,
                },
            );
            runtime.pending.push_back(request);
        }
        if let Some(at) = poll.timer {
            let runtime = &mut self.attachments[attach];
            runtime.timer_generation += 1;
            let generation = runtime.timer_generation;
            self.queue
                .schedule(at.max(now), Event::Timer { attach, generation });
        }
        self.pump(attach, now);
    }

    /// Moves pending commands to the device while the queue depth allows.
    /// Quarantined targets dispatch nothing: their queue drains through
    /// scheduled aborts instead, so the pending queue never wedges.
    fn pump(&mut self, attach: usize, now: SimTime) {
        if self.attachments[attach].quarantined {
            self.drain_quarantined(attach, now);
            return;
        }
        let timeout = self.robustness.command_timeout;
        while self.attachments[attach].active < Self::QUEUE_DEPTH {
            let Some(request) = self.attachments[attach].pending.pop_front() else {
                break;
            };
            let physical = self.attachments[attach]
                .attachment
                .vdisk()
                .to_physical(request.lba, request.num_sectors)
                .expect("validated at issue");
            let submission = self.array.submit_with_faults(
                request.direction,
                physical,
                u64::from(request.num_sectors),
                now,
            );
            let runtime = &mut self.attachments[attach];
            runtime.active += 1;
            let cmd = runtime
                .cmds
                .get_mut(request.id.0)
                .expect("pending command is tracked");
            cmd.dispatch += 1;
            cmd.at_device = true;
            let dispatch = cmd.dispatch;
            let request_id = request.id.0;
            let deadline = now + timeout;
            match submission {
                Submission::Completed { at, status } => {
                    cmd.status = status;
                    self.queue.schedule(
                        at,
                        Event::Complete {
                            attach,
                            request_id,
                            dispatch,
                        },
                    );
                    // Arm the timeout only when the completion would
                    // arrive too late; a stale-stamp guard would discard
                    // it anyway, this just keeps the heap small.
                    if at > deadline {
                        self.queue.schedule(
                            deadline,
                            Event::Timeout {
                                attach,
                                request_id,
                                dispatch,
                            },
                        );
                    }
                }
                Submission::Hung => {
                    // No completion will ever arrive; the timeout is the
                    // command's only way back.
                    self.queue.schedule(
                        deadline,
                        Event::Timeout {
                            attach,
                            request_id,
                            dispatch,
                        },
                    );
                }
            }
        }
    }

    /// Schedules abort deliveries for everything queued on a quarantined
    /// target. Deliveries are pushed `ABORT_DRAIN_LATENCY` into the
    /// future so simulated time always advances even if the guest
    /// instantly reissues — quarantine degrades, it cannot livelock.
    fn drain_quarantined(&mut self, attach: usize, now: SimTime) {
        let at = now + ABORT_DRAIN_LATENCY;
        let runtime = &mut self.attachments[attach];
        let pending = std::mem::take(&mut runtime.pending);
        let mut scheduled = Vec::with_capacity(pending.len());
        for request in pending {
            let cmd = runtime
                .cmds
                .get_mut(request.id.0)
                .expect("pending command is tracked");
            cmd.dispatch += 1;
            cmd.at_device = false;
            cmd.status = ScsiStatus::TaskAborted;
            scheduled.push((request.id.0, cmd.dispatch));
        }
        for (request_id, dispatch) in scheduled {
            self.queue.schedule(
                at,
                Event::Complete {
                    attach,
                    request_id,
                    dispatch,
                },
            );
        }
    }

    /// Handles a surfaced completion. Stale stamps (the command was
    /// already aborted, delivered, or re-dispatched) are ignored.
    fn complete(&mut self, attach: usize, request_id: u64, dispatch: u64, now: SimTime) {
        let runtime = &mut self.attachments[attach];
        let Some(cmd) = runtime.cmds.get_mut(request_id) else {
            return;
        };
        if cmd.dispatch != dispatch {
            return;
        }
        if cmd.at_device {
            cmd.at_device = false;
            runtime.active -= 1;
        }
        let status = cmd.status;
        let quarantined = runtime.quarantined;
        if status.is_retryable() && cmd.retries < MAX_RETRIES && !quarantined {
            // Bounded retry with exponential backoff + jitter. The
            // command keeps its identity (no new vSCSI issue hook — the
            // guest sent it once), so characterization streams see it
            // exactly once.
            cmd.retries += 1;
            cmd.dispatch += 1;
            let stamp = cmd.dispatch;
            let exponent = cmd.retries.saturating_sub(1).min(16);
            runtime.stats.retries += 1;
            let backoff = SimDuration::from_nanos(
                self.robustness
                    .retry_backoff_base
                    .as_nanos()
                    .saturating_mul(1u64 << exponent),
            );
            let jitter =
                SimDuration::from_nanos(self.retry_rng.range_inclusive(0, RETRY_JITTER.as_nanos()));
            self.queue.schedule(
                now + backoff + jitter,
                Event::Retry {
                    attach,
                    request_id,
                    dispatch: stamp,
                },
            );
            // The device slot is free while the command backs off.
            self.pump(attach, now);
            return;
        }
        self.deliver(attach, request_id, now, status);
    }

    /// Handles an expired command timeout: if the command is still live
    /// at the device, abort it and deliver `TASK ABORTED`.
    fn timeout(&mut self, attach: usize, request_id: u64, dispatch: u64, now: SimTime) {
        let runtime = &mut self.attachments[attach];
        let Some(cmd) = runtime.cmds.get_mut(request_id) else {
            return;
        };
        if cmd.dispatch != dispatch || !cmd.at_device {
            return;
        }
        // Abort task management: reclaim the queue slot and invalidate
        // any completion still in flight (it will carry a stale stamp).
        cmd.dispatch += 1;
        cmd.at_device = false;
        runtime.active -= 1;
        self.deliver(attach, request_id, now, ScsiStatus::TaskAborted);
    }

    /// Handles a due retry: re-queue the command for dispatch, or abort
    /// it if the target got quarantined while it was backing off.
    fn retry(&mut self, attach: usize, request_id: u64, dispatch: u64, now: SimTime) {
        let runtime = &mut self.attachments[attach];
        let Some(cmd) = runtime.cmds.get_mut(request_id) else {
            return;
        };
        if cmd.dispatch != dispatch || cmd.at_device {
            return;
        }
        if runtime.quarantined {
            cmd.dispatch += 1;
            self.deliver(attach, request_id, now, ScsiStatus::TaskAborted);
            return;
        }
        let request = cmd.request;
        runtime.pending.push_back(request);
        self.pump(attach, now);
    }

    /// Delivers a command's final outcome to the stats service, the
    /// esxtop counters, the CPU model, and the guest workload.
    fn deliver(&mut self, attach: usize, request_id: u64, now: SimTime, status: ScsiStatus) {
        let cmd = self.attachments[attach]
            .cmds
            .remove(request_id)
            .expect("delivered command is tracked");
        let request = cmd.request;
        let completion = IoCompletion::with_status(request, now, status);
        // Second hook point: completion at the vSCSI layer.
        self.service.handle_complete(&completion);
        {
            let stats = &mut self.attachments[attach].stats;
            match status {
                ScsiStatus::Good => {
                    stats.completed += 1;
                    stats.bytes += request.len_bytes();
                    stats.latency_sum_us += completion.latency().as_micros();
                    stats.per_second.record(now);
                    if cmd.retries > 0 {
                        stats.retried_ok += 1;
                    }
                }
                ScsiStatus::TaskAborted => stats.aborted += 1,
                _ => stats.failed += 1,
            }
        }
        // Host CPU accounting (Table 2): fixed per-command cost, data-size
        // cost (only moved on success), and the stats service's
        // per-command overhead when enabled.
        let mut cost = CPU_PER_COMMAND.as_nanos();
        if status.is_good() {
            cost += CPU_PER_4K.as_nanos() * (request.len_bytes() / (8 * SECTOR_SIZE));
        }
        if self.service.is_enabled() {
            cost += CPU_STATS_OVERHEAD.as_nanos();
        }
        self.cpu_used_ns += cost;
        // Graceful degradation: a target whose delivered error rate
        // exceeds the threshold stops dispatching and drains.
        {
            let runtime = &mut self.attachments[attach];
            if !runtime.quarantined
                && runtime.stats.delivered() >= QUARANTINE_MIN_COMMANDS
                && runtime.stats.error_rate() > QUARANTINE_ERROR_RATE
            {
                runtime.quarantined = true;
            }
        }
        // Free device slot: pump queued commands first, then let the
        // workload react. Failed and aborted commands complete to the
        // guest too — a closed loop never wedges on an error.
        self.pump(attach, now);
        let poll = self.attachments[attach].workload.on_complete(now, cmd.tag);
        self.apply_poll(attach, now, poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmBuilder;
    use guests::{AccessSpec, IometerWorkload};
    use storage::presets;
    use vscsi_stats::{Lens, Metric};

    fn sim_with_iometer(spec: AccessSpec) -> (Simulation, Arc<StatsService>) {
        let service = Arc::new(StatsService::default());
        service.enable_all();
        let mut sim = Simulation::new(presets::clariion_cx3(), Arc::clone(&service), 1);
        let vm = VmBuilder::new(0)
            .with_disk(8 * 1024 * 1024 * 1024)
            .attach(sim.rng().fork("w"), move |rng| {
                Box::new(IometerWorkload::new("w", spec, rng))
            });
        sim.add_vm(vm);
        (sim, service)
    }

    #[test]
    fn closed_loop_sustains_outstanding() {
        let (mut sim, service) = sim_with_iometer(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.attachment_stats(0);
        assert!(stats.completed > 500, "completed = {}", stats.completed);
        let c = service.collector(sim.attachment_target(0)).unwrap();
        // Outstanding-at-arrival should hover near the configured depth - 1.
        let h = c.histogram(Metric::OutstandingIos, Lens::All);
        assert!(h.mean().unwrap() > 4.0, "mean OIO = {:?}", h.mean());
        assert!(h.max().unwrap() <= 8);
    }

    #[test]
    fn stats_service_sees_every_command() {
        let (mut sim, service) = sim_with_iometer(AccessSpec::seq_read_4k(4, 1024 * 1024 * 1024));
        sim.run_until(SimTime::from_millis(200));
        let stats = sim.attachment_stats(0).completed;
        let c = service.collector(sim.attachment_target(0)).unwrap();
        assert_eq!(c.completed_commands(), stats);
        assert!(c.issued_commands() >= stats);
        assert_eq!(c.histogram(Metric::Latency, Lens::All).total(), stats);
    }

    #[test]
    fn queue_depth_caps_device_concurrency() {
        let service = Arc::new(StatsService::default());
        service.enable_all();
        let mut sim = Simulation::new(presets::clariion_cx3_cache_off(), Arc::clone(&service), 2);
        let vm = VmBuilder::new(0).with_disk(8 * 1024 * 1024 * 1024).attach(
            sim.rng().fork("w"),
            |rng| {
                Box::new(IometerWorkload::new(
                    "w",
                    AccessSpec::random_read_8k(64, 6 * 1024 * 1024 * 1024),
                    rng,
                ))
            },
        );
        sim.add_vm(vm);
        sim.run_until(SimTime::from_millis(500));
        // The guest sees 64 outstanding (vSCSI layer)...
        let c = service.collector(sim.attachment_target(0)).unwrap();
        let h = c.histogram(Metric::OutstandingIos, Lens::All);
        assert!(h.max().unwrap() >= 60, "vSCSI OIO max = {:?}", h.max());
        // ...while completions still happen (device got only 32 at a time).
        assert!(sim.attachment_stats(0).completed > 50);
    }

    #[test]
    fn two_vms_share_the_array() {
        let service = Arc::new(StatsService::default());
        service.enable_all();
        let mut sim = Simulation::new(presets::clariion_cx3_cache_off(), Arc::clone(&service), 3);
        for vm_id in 0..2u32 {
            let vm = VmBuilder::new(vm_id)
                .with_disk(6 * 1024 * 1024 * 1024)
                .attach(sim.rng().fork(&format!("w{vm_id}")), |rng| {
                    Box::new(IometerWorkload::new(
                        "w",
                        AccessSpec::random_read_8k(8, 4 * 1024 * 1024 * 1024),
                        rng,
                    ))
                });
            sim.add_vm(vm);
        }
        assert_eq!(sim.attachment_count(), 2);
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.attachment_stats(0).completed > 10);
        assert!(sim.attachment_stats(1).completed > 10);
        // Distinct targets in the stats service.
        assert_eq!(service.targets().len(), 2);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut sim, service) =
                sim_with_iometer(AccessSpec::random_read_8k(8, 1024 * 1024 * 1024));
            sim.run_until(SimTime::from_millis(300));
            let c = service.collector(sim.attachment_target(0)).unwrap();
            (
                sim.attachment_stats(0).completed,
                c.histogram(Metric::Latency, Lens::All).counts().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cpu_accounting_scales_with_commands() {
        let (mut sim, _) = sim_with_iometer(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
        assert_eq!(sim.cpu_used_seconds(), 0.0);
        sim.run_until(SimTime::from_millis(500));
        let completed = sim.attachment_stats(0).completed;
        let per_cmd = sim.cpu_used_seconds() / completed as f64;
        // Default model: 110 us/cmd + 3 us per 4 KiB + 350 ns stats.
        assert!((per_cmd - 113.35e-6).abs() < 1e-7, "per_cmd = {per_cmd}");
        let pct = sim.cpu_out_of_n(SimTime::from_millis(500));
        assert!(pct > 0.0 && pct < 800.0);
        assert_eq!(sim.cpu_out_of_n(SimTime::ZERO), 0.0);
    }

    #[test]
    fn stats_overhead_charged_only_when_enabled() {
        let run = |enabled: bool| {
            let service = Arc::new(StatsService::default());
            if enabled {
                service.enable_all();
            }
            let mut sim = Simulation::new(presets::clariion_cx3(), service, 1);
            let vm = VmBuilder::new(0).with_disk(8 * 1024 * 1024 * 1024).attach(
                sim.rng().fork("w"),
                |rng| {
                    Box::new(IometerWorkload::new(
                        "w",
                        AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024),
                        rng,
                    ))
                },
            );
            sim.add_vm(vm);
            sim.run_until(SimTime::from_millis(200));
            (sim.attachment_stats(0).completed, sim.cpu_used_seconds())
        };
        let (c_off, cpu_off) = run(false);
        let (c_on, cpu_on) = run(true);
        assert_eq!(c_off, c_on, "observation must not change the workload");
        let delta_per_cmd = (cpu_on - cpu_off) / c_on as f64;
        assert!(
            (delta_per_cmd - 350e-9).abs() < 1e-12,
            "delta = {delta_per_cmd}"
        );
    }

    #[test]
    fn busy_window_is_ridden_out_by_retries() {
        use faultkit::FaultPlanBuilder;
        let (mut sim, service) = sim_with_iometer(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
        // Every dispatch in the first 4 ms is refused BUSY; the retry
        // budget (4 tries, 1/2/4/8 ms backoff) comfortably outlives it.
        sim.attach_fault_plan(
            FaultPlanBuilder::new(5)
                .transient_busy(SimTime::ZERO, SimTime::from_millis(4), 1.0)
                .build(),
        );
        sim.run_until(SimTime::from_millis(300));
        let stats = sim.attachment_stats(0);
        assert!(stats.retries > 0, "BUSY window must force retries");
        assert!(stats.retried_ok > 0, "retried commands must succeed");
        assert_eq!(stats.failed, 0, "retry budget must absorb the window");
        assert!(stats.completed > 100);
        // Retries are invisible to the vSCSI issue hook: no double count.
        let c = service.collector(sim.attachment_target(0)).unwrap();
        assert_eq!(c.issued_commands(), stats.issued);
    }

    #[test]
    fn hang_times_out_aborts_and_quarantines() {
        use faultkit::FaultPlanBuilder;
        let (mut sim, _service) =
            sim_with_iometer(AccessSpec::random_read_8k(8, 1024 * 1024 * 1024));
        sim.set_robustness(RobustnessParams {
            command_timeout: SimDuration::from_millis(20),
            ..RobustnessParams::default()
        });
        // Every command vanishes into the firmware forever.
        sim.attach_fault_plan(
            FaultPlanBuilder::new(5)
                .hang(SimTime::ZERO, SimTime::from_secs(10), 1.0)
                .build(),
        );
        sim.run_until(SimTime::from_secs(1));
        let (aborted, completed, issued) = {
            let s = sim.attachment_stats(0);
            (s.aborted, s.completed, s.issued)
        };
        assert!(aborted > 0, "timeouts must abort hung commands");
        assert_eq!(completed, 0);
        assert!(
            sim.quarantined(0),
            "an all-error target must be quarantined"
        );
        // The simulation stayed live and the loop kept turning.
        assert!(issued > aborted / 2);
        // Conservation: every issued command is delivered or in flight —
        // nothing lost, nothing double-counted (the closed loop keeps
        // issuing, so the in-flight term never fully empties).
        sim.run_until(SimTime::from_secs(2));
        let s = sim.attachment_stats(0);
        let in_flight = sim.in_flight(0) as u64;
        assert_eq!(s.completed + s.failed + s.aborted + in_flight, s.issued);
    }

    #[test]
    fn media_errors_fail_fast_without_wedging() {
        use faultkit::FaultPlanBuilder;
        let (mut sim, service) = sim_with_iometer(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
        // A bad band early in the physical space; the sequential reader
        // will walk straight through it.
        sim.attach_fault_plan(
            FaultPlanBuilder::new(5)
                .media_error(vscsi::Lba::new(0), vscsi::Lba::new(50_000), None)
                .build(),
        );
        sim.run_until(SimTime::from_millis(500));
        let stats = sim.attachment_stats(0);
        assert!(stats.failed > 0, "media errors must surface as failures");
        // Error completions carry CHECK CONDITION through the stats hooks.
        let c = service.collector(sim.attachment_target(0)).unwrap();
        assert!(c.completed_commands() > 0);
        // The guest keeps getting completions, so the loop never wedges.
        assert!(stats.issued > stats.failed);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use faultkit::FaultPlanBuilder;
        let run = || {
            let (mut sim, service) =
                sim_with_iometer(AccessSpec::random_read_8k(8, 1024 * 1024 * 1024));
            sim.set_robustness(RobustnessParams {
                command_timeout: SimDuration::from_millis(50),
                ..RobustnessParams::default()
            });
            sim.attach_fault_plan(
                FaultPlanBuilder::new(0xFA)
                    .transient_busy(SimTime::ZERO, SimTime::from_millis(100), 0.3)
                    .media_error(vscsi::Lba::new(100_000), vscsi::Lba::new(200_000), None)
                    .hang(SimTime::from_millis(150), SimTime::from_millis(200), 0.2)
                    .build(),
            );
            sim.run_until(SimTime::from_millis(400));
            let c = service.collector(sim.attachment_target(0)).unwrap();
            let s = sim.attachment_stats(0);
            (
                s.issued,
                s.completed,
                s.failed,
                s.aborted,
                s.retries,
                c.histogram(Metric::Latency, Lens::All).counts().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn iops_and_mbps_computation() {
        let (mut sim, _) = sim_with_iometer(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.attachment_stats(0);
        let iops = stats.iops(SimTime::from_secs(1));
        let mbps = stats.mbps(SimTime::from_secs(1));
        assert!(iops > 0.0);
        assert!((mbps - iops * 4096.0 / 1e6).abs() < 1.0);
        assert!(stats.mean_latency_us() > 0.0);
    }
}
