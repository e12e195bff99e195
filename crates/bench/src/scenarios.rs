//! Shared experiment scenarios: one builder per paper workload, reused by
//! the figure binaries, the integration tests, and the Criterion benches.

use esx::{RobustnessParams, Simulation, VmBuilder};
use faultkit::{FaultPlan, FaultPlanBuilder};
use guests::filebench::{oltp_model, parse_model, FilebenchWorkload};
use guests::fs::{Ext3Params, NtfsParams, Ufs, UfsParams, Zfs, ZfsParams};
use guests::{
    AccessSpec, BlockIo, Dbt2Params, Dbt2Workload, Delayed, FileCopyParams, FileCopyWorkload,
    IometerWorkload, ReplayWorkload, ScheduledIo,
};
use simkit::{SimDuration, SimTime};
use std::sync::Arc;
use storage::presets;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
use vscsi_stats::{CollectorConfig, IoStatsCollector, StatsService, TraceSink, VscsiEvent};

/// Outcome of one scenario run: the per-attachment collectors plus
/// throughput counters.
#[derive(Debug)]
pub struct RunResult {
    /// One entry per attachment, in attachment order.
    pub collectors: Vec<IoStatsCollector>,
    /// Completed commands per attachment.
    pub completed: Vec<u64>,
    /// Mean IOps per attachment over the run.
    pub iops: Vec<f64>,
    /// Mean MB/s per attachment over the run.
    pub mbps: Vec<f64>,
    /// Mean device latency per attachment, microseconds.
    pub mean_latency_us: Vec<f64>,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Completions per second, per attachment (IOps over time).
    pub per_second: Vec<Vec<u64>>,
    /// Commands issued per attachment.
    pub issued: Vec<u64>,
    /// Error-status deliveries per attachment.
    pub failed: Vec<u64>,
    /// Abort deliveries (timeout or quarantine drain) per attachment.
    pub aborted: Vec<u64>,
    /// Retry dispatches per attachment.
    pub retries: Vec<u64>,
    /// Commands issued but not yet delivered when the horizon was reached.
    pub in_flight: Vec<u64>,
    /// Whether each attachment ended the run quarantined.
    pub quarantined: Vec<bool>,
}

fn collect(sim: &Simulation, service: &StatsService, horizon: SimTime) -> RunResult {
    let mut out = RunResult {
        collectors: Vec::new(),
        completed: Vec::new(),
        iops: Vec::new(),
        mbps: Vec::new(),
        mean_latency_us: Vec::new(),
        horizon,
        per_second: Vec::new(),
        issued: Vec::new(),
        failed: Vec::new(),
        aborted: Vec::new(),
        retries: Vec::new(),
        in_flight: Vec::new(),
        quarantined: Vec::new(),
    };
    for idx in 0..sim.attachment_count() {
        let target = sim.attachment_target(idx);
        let collector = service
            .collector(target)
            .unwrap_or_else(|| IoStatsCollector::new(CollectorConfig::paper_figures()));
        let stats = sim.attachment_stats(idx);
        out.collectors.push(collector);
        out.completed.push(stats.completed);
        out.iops.push(stats.iops(horizon));
        out.mbps.push(stats.mbps(horizon));
        out.mean_latency_us.push(stats.mean_latency_us());
        out.per_second.push(stats.per_second.counts().to_vec());
        out.issued.push(stats.issued);
        out.failed.push(stats.failed);
        out.aborted.push(stats.aborted);
        out.retries.push(stats.retries);
        out.in_flight.push(sim.in_flight(idx) as u64);
        out.quarantined.push(sim.quarantined(idx));
    }
    out
}

/// A scenario that has been built but not yet run. The simulation and
/// service are held open so callers can attach per-target tracers — in
/// particular streaming [`TraceSink`] backends — before the clock starts;
/// [`Prepared::run`] then drives the workload to its horizon, stops any
/// traces (flushing streaming sinks' in-flight tails), and collects.
pub struct Prepared {
    sim: Simulation,
    service: Arc<StatsService>,
    horizon: SimTime,
}

impl Prepared {
    /// Number of disk attachments the scenario created.
    pub fn attachment_count(&self) -> usize {
        self.sim.attachment_count()
    }

    /// The stats service driving this scenario.
    pub fn service(&self) -> &Arc<StatsService> {
        &self.service
    }

    /// Streams attachment `idx`'s trace into `sink` for the whole run.
    pub fn stream_trace(&self, idx: usize, sink: Box<dyn TraceSink>) {
        self.sim.stream_trace(idx, sink);
    }

    /// Runs the scenario to its horizon and collects the results. Any
    /// active traces are stopped first, so streaming sinks receive their
    /// in-flight tails before the caller finalizes the backing store.
    pub fn run(mut self) -> RunResult {
        self.sim.run_until(self.horizon);
        for idx in 0..self.sim.attachment_count() {
            let _ = self.service.stop_trace(self.sim.attachment_target(idx));
        }
        collect(&self.sim, &self.service, self.horizon)
    }
}

/// Which filesystem model backs the Filebench OLTP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// UFS in-place model (Figure 2).
    Ufs,
    /// ZFS copy-on-write model (Figure 3).
    Zfs,
    /// ext3 journalling model (ablation).
    Ext3,
    /// NTFS run-based model (ablation).
    Ntfs,
}

/// Builds Filebench OLTP on the chosen filesystem (Figures 2 and 3):
/// Solaris-like VM, 32 GiB virtual disk, Symmetrix-like array.
pub fn prepare_filebench_oltp(fs: FsKind, duration: SimTime, seed: u64) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    let spec = parse_model(&oltp_model()).expect("oltp model parses");
    let disk_bytes = match fs {
        FsKind::Ntfs | FsKind::Ext3 => 64 * 1024 * 1024 * 1024,
        _ => 32 * 1024 * 1024 * 1024,
    };
    let vm =
        VmBuilder::new(0)
            .with_disk(disk_bytes)
            .attach(sim.rng().fork("filebench"), move |rng| {
                let fs_model: Box<dyn guests::fs::Filesystem> = match fs {
                    FsKind::Ufs => Box::new(Ufs::new(UfsParams::default())),
                    FsKind::Zfs => Box::new(Zfs::new(ZfsParams::default())),
                    FsKind::Ext3 => Box::new(guests::fs::Ext3::new(Ext3Params::default())),
                    FsKind::Ntfs => Box::new(guests::fs::Ntfs::new(NtfsParams::default())),
                };
                Box::new(FilebenchWorkload::new(
                    "filebench-oltp",
                    spec,
                    fs_model,
                    rng,
                ))
            });
    sim.add_vm(vm);
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// Runs Filebench OLTP on the chosen filesystem (Figures 2 and 3).
pub fn run_filebench_oltp(fs: FsKind, duration: SimTime, seed: u64) -> RunResult {
    prepare_filebench_oltp(fs, duration, seed).run()
}

/// Builds the DBT-2/PostgreSQL model (Figure 4): Linux-like VM, 52 GiB
/// virtual disk, Symmetrix-like array, paper parameters (250-warehouse-
/// scale database, 50 connections).
pub fn prepare_dbt2(duration: SimTime, seed: u64) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    let vm = VmBuilder::new(0)
        .with_disk(52 * 1024 * 1024 * 1024)
        .attach(sim.rng().fork("dbt2"), |rng| {
            Box::new(Dbt2Workload::new("dbt2", Dbt2Params::default(), rng))
        });
    sim.add_vm(vm);
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// Runs the DBT-2/PostgreSQL model (Figure 4).
pub fn run_dbt2(duration: SimTime, seed: u64) -> RunResult {
    prepare_dbt2(duration, seed).run()
}

/// Which copy engine the file-copy run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyOs {
    /// Windows XP Pro: 64 KiB chunks.
    Xp,
    /// Windows Vista Enterprise: 1 MiB chunks.
    Vista,
}

/// Builds the large-file-copy scenario (Figure 5).
pub fn prepare_filecopy(os: CopyOs, duration: SimTime, seed: u64) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    let file_bytes = 2u64 * 1024 * 1024 * 1024;
    let params = match os {
        CopyOs::Xp => FileCopyParams::xp(file_bytes),
        CopyOs::Vista => FileCopyParams::vista(file_bytes),
    };
    let vm = VmBuilder::new(0).with_disk(8 * 1024 * 1024 * 1024).attach(
        sim.rng().fork("copy"),
        move |_rng| {
            Box::new(FileCopyWorkload::new(
                match os {
                    CopyOs::Xp => "xp-copy",
                    CopyOs::Vista => "vista-copy",
                },
                params,
            ))
        },
    );
    sim.add_vm(vm);
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// Runs the large-file-copy scenario (Figure 5) for 10 simulated seconds
/// by default, like the paper's caption says.
pub fn run_filecopy(os: CopyOs, duration: SimTime, seed: u64) -> RunResult {
    prepare_filecopy(os, duration, seed).run()
}

/// One row of the Table 2 microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchRow {
    /// Whether the histogram service was enabled.
    pub service_enabled: bool,
    /// Completions per second.
    pub iops: f64,
    /// MB per second.
    pub mbps: f64,
    /// Mean device latency, milliseconds.
    pub latency_ms: f64,
    /// Host wall-clock seconds spent running the simulation (the CPU-cost
    /// proxy for the paper's "CPU out of 800" column).
    pub host_seconds: f64,
    /// Simulated host CPU utilization in the paper's "out of 800" form,
    /// from the hypervisor's per-command cost model.
    pub cpu_out_of_800: f64,
    /// Simulated commands completed.
    pub completed: u64,
}

/// Runs the §5 microbenchmark: Iometer 4 KiB sequential reads against the
/// Symmetrix-like array, with the histogram service on or off, measuring
/// host CPU cost as wall-clock time.
pub fn run_microbench(service_enabled: bool, duration: SimTime, seed: u64) -> MicrobenchRow {
    let service = Arc::new(StatsService::default());
    if service_enabled {
        service.enable_all();
    }
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    let vm = VmBuilder::new(0).with_disk(8 * 1024 * 1024 * 1024).attach(
        sim.rng().fork("iometer"),
        |rng| {
            Box::new(IometerWorkload::new(
                "4k-seq-read",
                AccessSpec::seq_read_4k(16, 4 * 1024 * 1024 * 1024),
                rng,
            ))
        },
    );
    sim.add_vm(vm);
    let t0 = std::time::Instant::now();
    sim.run_until(duration);
    let host_seconds = t0.elapsed().as_secs_f64();
    let stats = sim.attachment_stats(0);
    MicrobenchRow {
        service_enabled,
        iops: stats.iops(duration),
        mbps: stats.mbps(duration),
        latency_ms: stats.mean_latency_us() / 1000.0,
        host_seconds,
        cpu_out_of_800: sim.cpu_out_of_n(duration),
        completed: stats.completed,
    }
}

/// Interference experiment phases (Figure 6, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceMode {
    /// The 8 KiB random reader alone.
    SoloRandom,
    /// The 8 KiB sequential reader alone.
    SoloSequential,
    /// Both VMs from t = 0.
    Dual,
    /// Sequential from t = 0; random joins at `duration / 3` (the Figure
    /// 6(c) phase-shift view).
    Staggered,
}

/// Builds the two-VM interference experiment: two 6 GiB virtual disks on
/// the same CLARiiON-CX3-like array, 32 outstanding I/Os each, read cache
/// on or off. Attachment 0 is the random reader, attachment 1 the
/// sequential one (whichever are present for the mode).
pub fn prepare_interference(
    mode: InterferenceMode,
    cache_on: bool,
    duration: SimTime,
    seed: u64,
) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let array = if cache_on {
        presets::clariion_cx3()
    } else {
        presets::clariion_cx3_cache_off()
    };
    let mut sim = Simulation::new(array, Arc::clone(&service), seed);
    let disk_bytes = 6u64 * 1024 * 1024 * 1024;
    let region = disk_bytes;
    let random = |rng: simkit::SimRng| -> Box<dyn guests::Workload> {
        Box::new(IometerWorkload::new(
            "8k-random-read",
            AccessSpec::random_read_8k(32, region),
            rng,
        ))
    };
    let sequential = |rng: simkit::SimRng| -> Box<dyn guests::Workload> {
        Box::new(IometerWorkload::new(
            "8k-seq-read",
            AccessSpec::seq_read_8k(32, region),
            rng,
        ))
    };
    match mode {
        InterferenceMode::SoloRandom => {
            sim.add_vm(
                VmBuilder::new(0)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("rand"), random),
            );
        }
        InterferenceMode::SoloSequential => {
            sim.add_vm(
                VmBuilder::new(1)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("seq"), sequential),
            );
        }
        InterferenceMode::Dual => {
            sim.add_vm(
                VmBuilder::new(0)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("rand"), random),
            );
            sim.add_vm(
                VmBuilder::new(1)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("seq"), sequential),
            );
        }
        InterferenceMode::Staggered => {
            let join_at = SimTime::from_nanos(duration.as_nanos() / 3);
            sim.add_vm(
                VmBuilder::new(0)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("rand"), move |rng| {
                        Box::new(Delayed::new(random(rng), join_at))
                    }),
            );
            sim.add_vm(
                VmBuilder::new(1)
                    .with_disk(disk_bytes)
                    .attach(sim.rng().fork("seq"), sequential),
            );
        }
    }
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// The LBA band (inclusive) the demo fault plans mark as unreadable media.
pub const FAULT_MEDIA_BAND: (u64, u64) = (1_000_000, 1_000_999);

/// Issue period of the open-loop fault-demo schedule. Chosen so the
/// worst-case faulted delivery (a BUSY retry chain at the default backoff,
/// or a media error at its 8 ms fixed cost) finishes well before the next
/// command is issued: the issue-side histograms then cannot observe the
/// faults at all, which is what `ext_faults` demonstrates.
pub const FAULT_REPLAY_PERIOD: SimDuration = SimDuration::from_millis(50);

/// The fault plan for the open-loop `ext_faults` phase: a bad-media band,
/// a probabilistic BUSY window, a latency-spike window and a path flap.
/// Deliberately no hangs — every command is delivered inside one
/// [`FAULT_REPLAY_PERIOD`].
pub(crate) fn fault_demo_plan(seed: u64) -> FaultPlan {
    FaultPlanBuilder::new(seed)
        .media_error(
            Lba::new(FAULT_MEDIA_BAND.0),
            Lba::new(FAULT_MEDIA_BAND.1),
            None,
        )
        .transient_busy(SimTime::from_secs(2), SimTime::from_secs(3), 0.6)
        .latency_spike(SimTime::from_secs(4), SimTime::from_secs(5), 3.0)
        .path_flap(SimTime::from_secs(6), SimTime::from_millis(6_200))
        .build()
}

/// The fault plan for the closed-loop `ext_faults` storm phase: every
/// command hangs during the first half second, forcing the timeout/abort
/// path and then target quarantine.
pub(crate) fn fault_storm_plan(seed: u64) -> FaultPlan {
    FaultPlanBuilder::new(seed)
        .hang(SimTime::ZERO, SimTime::from_millis(500), 1.0)
        .build()
}

/// The deterministic open-loop schedule behind the `ext_faults`
/// bit-stability demonstration. Pure arithmetic — no RNG — so the issue
/// stream is identical by construction across runs and across fault
/// plans: one command per [`FAULT_REPLAY_PERIOD`], mostly a sequential
/// read run with periodic far seeks, writes mixed in, and every 11th
/// command aimed into [`FAULT_MEDIA_BAND`].
pub(crate) fn fault_replay_schedule(duration: SimTime) -> Vec<ScheduledIo> {
    let period = FAULT_REPLAY_PERIOD;
    let count = duration.as_nanos() / period.as_nanos();
    let mut schedule = Vec::with_capacity(count as usize);
    for k in 0..count {
        let at = SimTime::ZERO + period * (k + 1);
        let lba = if k % 11 == 10 {
            // Probe the bad-media band.
            Lba::new(FAULT_MEDIA_BAND.0 + (k % 1000))
        } else if k % 7 == 6 {
            // Far seek.
            Lba::new(10_000_000 + k * 8)
        } else {
            // Sequential run.
            Lba::new(4_096 + k * 8)
        };
        let sectors = if k % 5 == 0 { 16 } else { 8 };
        let io = if k % 3 == 2 {
            BlockIo::write(lba, sectors, k)
        } else {
            BlockIo::read(lba, sectors, k)
        };
        schedule.push(ScheduledIo { at, io });
    }
    schedule
}

/// Builds the open-loop fault-demo scenario: one VM replaying
/// [`fault_replay_schedule`] against the Symmetrix-like array, with
/// [`fault_demo_plan`] attached when `faulted` is true. Everything the
/// guest does is timer-driven, so the issue stream — and with it every
/// device-independent histogram — is identical whether or not the plan
/// is attached.
pub fn prepare_fault_replay(duration: SimTime, seed: u64, faulted: bool) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    let schedule = fault_replay_schedule(duration);
    let vm = VmBuilder::new(0)
        .with_disk(8 * 1024 * 1024 * 1024)
        .attach(sim.rng().fork("replay"), move |_rng| {
            Box::new(ReplayWorkload::new("fault-replay", schedule))
        });
    sim.add_vm(vm);
    if faulted {
        sim.attach_fault_plan(fault_demo_plan(seed));
    }
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// Builds the closed-loop fault-storm scenario: an Iometer random reader
/// at 32 outstanding I/Os against an array where every command hangs for
/// the first half second ([`fault_storm_plan`]). A short command timeout
/// makes the abort path carry the whole load; the target quarantines once
/// the error rate crosses the threshold, and the drain path keeps the
/// closed loop live instead of wedging it.
pub fn prepare_fault_storm(duration: SimTime, seed: u64) -> Prepared {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    sim.set_robustness(RobustnessParams {
        command_timeout: SimDuration::from_millis(50),
        ..RobustnessParams::default()
    });
    let vm = VmBuilder::new(0).with_disk(8 * 1024 * 1024 * 1024).attach(
        sim.rng().fork("storm"),
        |rng| {
            Box::new(IometerWorkload::new(
                "8k-random-read",
                AccessSpec::random_read_8k(32, 4 * 1024 * 1024 * 1024),
                rng,
            ))
        },
    );
    sim.add_vm(vm);
    sim.attach_fault_plan(fault_storm_plan(seed));
    Prepared {
        sim,
        service,
        horizon: duration,
    }
}

/// Runs the two-VM interference experiment (Figure 6, §5.3).
pub fn run_interference(
    mode: InterferenceMode,
    cache_on: bool,
    duration: SimTime,
    seed: u64,
) -> RunResult {
    prepare_interference(mode, cache_on, duration, seed).run()
}

/// One target's synthetic command stream for the suites that feed a
/// [`StatsService`] directly (`ext_fleet`, `ext_fleetchaos`, `ext_crash`):
/// `count` commands drawn from `key` — a third writes, six power-of-two
/// sizes from 4 KiB, LBAs across 512 GiB, latencies 50 µs–20 ms — so every
/// metric's histogram sees occupied bins. The first issues at `start_us`,
/// the rest 0.1–5.1 ms apart, and each command's completion directly
/// follows its issue in the vector: whoever applies it whole leaves nothing
/// in flight, and up to 190 commands end within a second of `start_us`.
/// Request ids count up from `first_request_id`.
pub fn synthetic_commands(
    target: TargetId,
    key: u64,
    count: u64,
    start_us: u64,
    first_request_id: u64,
) -> Vec<VscsiEvent> {
    let mut events = Vec::with_capacity(2 * count as usize);
    let mut t_us = start_us;
    for r in 0..count {
        let mix = simkit::splitmix64(key ^ r);
        let direction = if mix.is_multiple_of(3) {
            IoDirection::Write
        } else {
            IoDirection::Read
        };
        let req = IoRequest::new(
            RequestId(first_request_id + r),
            target,
            direction,
            Lba::new((mix >> 8) % (1 << 30)),
            8u32 << (mix % 6),
            SimTime::from_micros(t_us),
        );
        let latency_us = 50 + (mix >> 40) % 20_000;
        events.push(VscsiEvent::Issue(req));
        events.push(VscsiEvent::Complete(IoCompletion::new(
            req,
            SimTime::from_micros(t_us + latency_us),
        )));
        t_us += 100 + mix % 5_000;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscsi_stats::{Lens, Metric};

    #[test]
    fn filebench_ufs_produces_small_random_io() {
        let r = run_filebench_oltp(FsKind::Ufs, SimTime::from_secs(5), 1);
        let c = &r.collectors[0];
        let len = c.histogram(Metric::IoLength, Lens::All);
        assert!(len.total() > 200, "too few I/Os: {}", len.total());
        // Mode at 4 KiB or 8 KiB.
        let mode = len.mode_bin().unwrap();
        let i4 = len.edges().bin_index(4096);
        let i8 = len.edges().bin_index(8192);
        assert!(mode == i4 || mode == i8, "mode bin {mode}");
    }

    #[test]
    fn dbt2_all_8k() {
        let r = run_dbt2(SimTime::from_secs(5), 2);
        let c = &r.collectors[0];
        let len = c.histogram(Metric::IoLength, Lens::All);
        assert!(len.total() > 100);
        let i8 = len.edges().bin_index(8192);
        assert!(
            len.count(i8) as f64 / len.total() as f64 > 0.95,
            "DBT-2 must be ~all 8 KiB"
        );
    }

    #[test]
    fn filecopy_chunk_sizes_differ() {
        let xp = run_filecopy(CopyOs::Xp, SimTime::from_secs(2), 3);
        let vista = run_filecopy(CopyOs::Vista, SimTime::from_secs(2), 3);
        let lx = xp.collectors[0].histogram(Metric::IoLength, Lens::All);
        let lv = vista.collectors[0].histogram(Metric::IoLength, Lens::All);
        assert_eq!(lx.mode_bin(), Some(lx.edges().bin_index(65_536)));
        assert_eq!(
            lv.mode_bin(),
            Some(lv.edges().bin_index(524_288 + 1)),
            "1 MiB lands in the >524288 overflow bin"
        );
        // Vista completes far fewer commands.
        assert!(xp.completed[0] > vista.completed[0] * 4);
    }

    #[test]
    fn microbench_runs_both_ways() {
        let on = run_microbench(true, SimTime::from_millis(500), 4);
        let off = run_microbench(false, SimTime::from_millis(500), 4);
        assert!(on.completed > 1_000);
        // Identical simulated behaviour regardless of the service state.
        assert_eq!(on.completed, off.completed);
        assert!((on.iops - off.iops).abs() < 1.0);
    }

    #[test]
    fn fault_replay_issue_stream_is_device_independent() {
        let horizon = SimTime::from_millis(3_500); // covers the BUSY window
        let clean = prepare_fault_replay(horizon, 11, false).run();
        let faulted = prepare_fault_replay(horizon, 11, true).run();
        for metric in [
            Metric::IoLength,
            Metric::OutstandingIos,
            Metric::SeekDistance,
            Metric::SeekDistanceWindowed,
        ] {
            for lens in Lens::ALL {
                assert_eq!(
                    clean.collectors[0].histogram(metric, lens).counts(),
                    faulted.collectors[0].histogram(metric, lens).counts(),
                    "{metric}/{lens} must be bit-stable under faults"
                );
            }
        }
        assert_eq!(
            clean.collectors[0]
                .histogram(Metric::Errors, Lens::All)
                .total(),
            0
        );
        assert!(
            faulted.collectors[0]
                .histogram(Metric::Errors, Lens::All)
                .total()
                > 0,
            "media band and BUSY window must surface errors"
        );
        assert!(faulted.retries[0] > 0, "BUSY window must trigger retries");
        assert!(faulted.failed[0] > 0, "media band must fail commands");
        assert!(!faulted.quarantined[0], "error rate stays below threshold");
    }

    #[test]
    fn fault_storm_quarantines_without_wedging() {
        let r = prepare_fault_storm(SimTime::from_secs(1), 13).run();
        assert!(r.quarantined[0], "hang storm must quarantine the target");
        assert!(r.aborted[0] > 0, "timeouts must abort hung commands");
        assert_eq!(r.completed[0], 0, "nothing completes during the storm");
        assert_eq!(
            r.completed[0] + r.failed[0] + r.aborted[0] + r.in_flight[0],
            r.issued[0],
            "every issued command is accounted for"
        );
    }

    #[test]
    fn interference_mode_attachment_counts() {
        let solo = run_interference(
            InterferenceMode::SoloRandom,
            false,
            SimTime::from_millis(300),
            5,
        );
        assert_eq!(solo.collectors.len(), 1);
        let dual = run_interference(InterferenceMode::Dual, false, SimTime::from_millis(300), 5);
        assert_eq!(dual.collectors.len(), 2);
        assert!(dual.completed.iter().all(|&c| c > 0));
    }

    #[test]
    fn synthetic_commands_repeat_and_complete_inside_the_window() {
        let target = TargetId::new(vscsi::VmId(3), vscsi::VDiskId(0));
        // 36 is the most any suite asks for per target and window.
        let (key, count, start_us, first_id) = (0x5EED, 36, 7_000_400, 9 << 20);
        let events = synthetic_commands(target, key, count, start_us, first_id);
        assert_eq!(
            events,
            synthetic_commands(target, key, count, start_us, first_id)
        );
        assert_ne!(
            events,
            synthetic_commands(target, key + 1, count, start_us, first_id)
        );

        // Issue/complete pairs, ids counting up, all inside one second.
        assert_eq!(events.len() as u64, 2 * count);
        for (r, pair) in events.chunks(2).enumerate() {
            let (VscsiEvent::Issue(req), VscsiEvent::Complete(done)) = (&pair[0], &pair[1]) else {
                panic!("command {r} is not an issue followed by its completion");
            };
            assert_eq!(done.request, *req);
            assert_eq!(req.id.0, first_id + r as u64);
            assert!(req.issue_time >= SimTime::from_micros(start_us));
            assert!(done.complete_time < SimTime::from_micros(start_us + 1_000_000));
        }

        // What `ext_crash` relies on: a checkpoint taken after the batch
        // cuts between commands, never through one.
        let service = StatsService::new(CollectorConfig::default());
        service.enable_all();
        service.handle_batch(&events);
        let collector = service.collector(target).unwrap();
        assert_eq!(collector.issued_commands(), count);
        assert_eq!(collector.completed_commands(), count);
        assert_eq!(collector.outstanding_now(), 0);
    }
}
