//! `full_host`: guests → `esx::Simulation` → hooks → series → trace store
//! → checkpoint → fleet frame → rollup, then restart recovery; plus the
//! ablation ladder that adds those layers one rung at a time.

use crate::outcome::{Ops, Outcome};
use crate::span::Tracer;
use crate::stats::{median, service_digest};
use crate::Pipeline;
use esx::{Simulation, VmBuilder};
use fleet::{FleetCollector, HostFrame, PollConfig, ServiceEndpoint};
use guests::filebench::{oltp_model, parse_model};
use guests::fs::{Filesystem, Ufs, UfsParams, Zfs, ZfsParams};
use guests::{
    AccessSpec, Dbt2Params, Dbt2Workload, FileCopyParams, FileCopyWorkload, FilebenchWorkload,
    IometerWorkload, Workload,
};
use simkit::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use storage::presets;
use tracestore::{read_trace, StoreReport, TraceStore, TraceStoreConfig};
use vscsi::TargetId;
use vscsi_stats::{
    load_latest, CheckpointConfig, CheckpointDaemon, CheckpointLedger, CollectorConfig, FsMedium,
    StatsService, TraceSink, VecSink, VscsiEvent,
};

const GIB: u64 = 1024 * 1024 * 1024;

/// The fixed virtual horizon of one pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct HostShape {
    /// Windows per run; the driver flushes the trace store, ticks the
    /// checkpoint daemon and polls the fleet collector once per window.
    pub windows: u64,
    /// Virtual nanoseconds per window.
    pub window_ns: u64,
    /// Windows between checkpoints.
    pub checkpoint_every: u64,
    /// Timed restart recoveries after each run.
    pub recoveries: usize,
}

/// How much of the pipeline a run carries; each rung adds one layer to
/// the one before, and `Fleet` is the production pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Guests, hypervisor and array only; the stats service is disabled.
    SimOnly,
    /// + histograms (`CollectorConfig::default()`).
    Histograms,
    /// + 6-second series (`CollectorConfig::paper_figures()`).
    Series,
    /// + every attachment streaming into a `TraceStore`.
    Trace,
    /// + a `CheckpointDaemon` on the real filesystem.
    Checkpoint,
    /// + a `FleetCollector` polling the host every window.
    Fleet,
}

impl Rung {
    pub const ALL: [Rung; 6] = [
        Rung::SimOnly,
        Rung::Histograms,
        Rung::Series,
        Rung::Trace,
        Rung::Checkpoint,
        Rung::Fleet,
    ];
}

type Factory = Box<dyn FnOnce(SimRng) -> Box<dyn Workload>>;

/// The eight guests, built straight from `guests`/`storage`:
/// `(disk bytes, rng label, workload factory)`.
fn guests() -> Vec<(u64, &'static str, Factory)> {
    fn filebench(name: &'static str, fs: fn() -> Box<dyn Filesystem>) -> Factory {
        Box::new(move |rng| {
            let spec = parse_model(&oltp_model()).expect("the built-in OLTP model parses");
            Box::new(FilebenchWorkload::new(name, spec, fs(), rng))
        })
    }
    fn iometer(name: &'static str, spec: AccessSpec) -> Factory {
        Box::new(move |rng| Box::new(IometerWorkload::new(name, spec, rng)))
    }
    fn copy(name: &'static str, params: FileCopyParams) -> Factory {
        Box::new(move |_rng| Box::new(FileCopyWorkload::new(name, params)))
    }
    vec![
        (
            32 * GIB,
            "oltp-ufs",
            filebench("oltp-ufs", || Box::new(Ufs::new(UfsParams::default()))),
        ),
        (
            32 * GIB,
            "oltp-zfs",
            filebench("oltp-zfs", || Box::new(Zfs::new(ZfsParams::default()))),
        ),
        (
            52 * GIB,
            "dbt2",
            Box::new(|rng| Box::new(Dbt2Workload::new("dbt2", Dbt2Params::default(), rng))),
        ),
        (
            8 * GIB,
            "xp-copy",
            copy("xp-copy", FileCopyParams::xp(2 * GIB)),
        ),
        (
            8 * GIB,
            "vista-copy",
            copy("vista-copy", FileCopyParams::vista(2 * GIB)),
        ),
        (
            8 * GIB,
            "4k-seq-read",
            iometer("4k-seq-read", AccessSpec::seq_read_4k(16, 4 * GIB)),
        ),
        (
            6 * GIB,
            "8k-random-read",
            iometer("8k-random-read", AccessSpec::random_read_8k(32, 6 * GIB)),
        ),
        (
            6 * GIB,
            "8k-seq-read",
            iometer("8k-seq-read", AccessSpec::seq_read_8k(32, 6 * GIB)),
        ),
    ]
}

/// What one pipeline run left behind.
#[derive(Debug)]
pub struct HostRun {
    /// Guest commands completed.
    pub commands: u64,
    /// Guest commands issued (each becomes one trace record).
    pub issued: u64,
    /// Wall seconds from the first window to the drained trace store.
    pub wall_s: f64,
    pub service: Arc<StatsService>,
    pub store: Option<StoreReport>,
    pub ledger: Option<CheckpointLedger>,
    /// Size of the newest checkpoint file.
    pub checkpoint_bytes: u64,
    /// Every window's fleet view conserved and the last one's root
    /// equalled a direct snapshot of the service.
    pub fleet_ok: bool,
    pub trace_dir: PathBuf,
    pub ckpt_dir: PathBuf,
}

/// Runs `windows` one-second virtual windows of the eight-VM host with
/// the layers of `rung`, writing under `dir` (emptied first).
pub fn run_host(
    seed: u64,
    shape: HostShape,
    rung: Rung,
    dir: &Path,
    tracer: &mut Tracer,
    op: u64,
) -> HostRun {
    let _ = fs::remove_dir_all(dir);
    let trace_dir = dir.join("trace");
    let ckpt_dir = dir.join("ckpt");
    fs::create_dir_all(&ckpt_dir).expect("create the checkpoint directory");

    let config = if rung >= Rung::Series {
        CollectorConfig::paper_figures()
    } else {
        CollectorConfig::default()
    };
    let service = Arc::new(StatsService::new(config));
    if rung >= Rung::Histograms {
        service.enable_all();
    }
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), seed);
    for (vm, (disk_bytes, label, factory)) in guests().into_iter().enumerate() {
        let builder = VmBuilder::new(vm as u32)
            .with_disk(disk_bytes)
            .attach(sim.rng().fork(label), factory);
        sim.add_vm(builder);
    }
    let targets: Vec<TargetId> = (0..sim.attachment_count())
        .map(|idx| sim.attachment_target(idx))
        .collect();

    let store = (rung >= Rung::Trace).then(|| {
        // Default config: Block (lossless) backpressure, no fsync on flush.
        let store = TraceStore::create(TraceStoreConfig::new(&trace_dir)).expect("trace store");
        for idx in 0..sim.attachment_count() {
            sim.stream_trace(idx, Box::new(store.handle()));
        }
        store
    });
    // Flushing this handle acks once the writer thread has drained
    // everything queued before it.
    let mut barrier = store.as_ref().map(TraceStore::handle);
    let mut daemon = (rung >= Rung::Checkpoint).then(|| {
        let mut config = CheckpointConfig::new(&ckpt_dir);
        config.interval_ns = shape.checkpoint_every * shape.window_ns;
        let daemon = CheckpointDaemon::new(Arc::clone(&service), config);
        service.attach_checkpoint_health(daemon.health());
        daemon
    });
    let mut collector = (rung >= Rung::Fleet).then(|| {
        let config = PollConfig {
            interval: SimDuration::from_nanos(shape.window_ns),
            ..PollConfig::default()
        };
        FleetCollector::new(
            config,
            vec![ServiceEndpoint::new(7, 1, Arc::clone(&service))],
        )
    });

    let mut fleet_ok = true;
    let t0 = Instant::now();
    for w in 0..shape.windows {
        let window = tracer.enter("driver.window", op);
        let t = SimTime::from_nanos((w + 1) * shape.window_ns);
        tracer.scope("esx.sim.run_until", op, || sim.run_until(t));
        if let Some(barrier) = &mut barrier {
            tracer.scope("tracestore.flush", op, || barrier.flush());
        }
        if let Some(daemon) = &mut daemon {
            let id = tracer.enter("checkpoint.tick", op);
            let wrote = daemon.tick(t.as_nanos());
            tracer.exit(id);
            if let Some(result) = wrote {
                result.expect("checkpoint write on the real filesystem");
                // Relabel so idle ticks do not dilute the write latency.
                tracer.rename_last("checkpoint.tick", "checkpoint.tick.wrote");
            }
        }
        if let Some(collector) = &mut collector {
            tracer.scope("host.fleet_poll", op, || collector.poll_due(t));
            let view = tracer.scope("host.fleet_view", op, || collector.view(t));
            fleet_ok &= view.conserves();
            if w + 1 == shape.windows {
                fleet_ok &= view.fleet.agg.total_events()
                    == HostFrame::snapshot(7, 0, 0, &service).total_events();
            }
        }
        tracer.exit(window);
    }
    let teardown = tracer.enter("driver.teardown", op);
    for &target in &targets {
        let _ = service.stop_trace(target);
    }
    drop(barrier);
    let store = store.map(TraceStore::finish);
    tracer.exit(teardown);
    let wall_s = t0.elapsed().as_secs_f64();

    let ledger = daemon.as_ref().map(|d| d.health().ledger());
    let checkpoint_bytes = newest_checkpoint_bytes(&ckpt_dir);
    let (mut commands, mut issued) = (0, 0);
    for idx in 0..sim.attachment_count() {
        let stats = sim.attachment_stats(idx);
        commands += stats.completed;
        issued += stats.issued;
    }
    HostRun {
        commands,
        issued,
        wall_s,
        service,
        store,
        ledger,
        checkpoint_bytes,
        fleet_ok,
        trace_dir,
        ckpt_dir,
    }
}

fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|it| it.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    files
        .last()
        .and_then(|p| fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// Bytes of every file under `dir` (segments and their index sidecars;
/// the store's small meta file is excluded).
pub fn trace_bytes_on_disk(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter(|e| e.file_name() != tracestore::META_FILE)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One restart recovery, timed in its three parts (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub load_ms: f64,
    pub restore_ms: f64,
    pub tail_ms: f64,
    /// `restore(checkpoint)` re-encoded to the checkpoint's exact bytes
    /// (`false` when the caller did not ask for the check).
    pub bit_identical: bool,
    /// After the tail replay the recovered histograms equal the live
    /// service's.
    pub digest: u64,
    pub tail_records: u64,
}

/// `load_latest` + `StatsService::from_checkpoint` + replay of the
/// durable trace tail past each target's checkpointed watermark.
pub fn recover(
    run: &HostRun,
    check_identity: bool,
    tracer: &mut Tracer,
    op: u64,
) -> Option<Recovery> {
    let id = tracer.enter("checkpoint.load_latest", op);
    let t0 = Instant::now();
    let rec = load_latest(&mut FsMedium, &run.ckpt_dir);
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.exit(id);
    let rec = rec?;

    let id = tracer.enter("service.from_checkpoint", op);
    let t0 = Instant::now();
    let restored = StatsService::from_checkpoint(&rec.checkpoint, None);
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.exit(id);
    let watermarks: BTreeMap<TargetId, u64> = rec
        .checkpoint
        .targets
        .iter()
        .filter_map(|t| t.tracer_watermark.map(|w| (t.target, w)))
        .collect();
    // Checked outside the timed parts, on a second restore: a checkpoint
    // carries the tracer watermarks, so the copy compared byte for byte
    // has its tracers re-attached at them first.
    let bit_identical = check_identity && {
        let copy = StatsService::from_checkpoint(&rec.checkpoint, None);
        for (&target, &watermark) in &watermarks {
            copy.resume_trace_streaming(target, Box::<VecSink>::default(), watermark);
        }
        copy.checkpoint_snapshot().encode(rec.seq) == rec.checkpoint.encode(rec.seq)
    };

    let id = tracer.enter("replay.tail", op);
    let t0 = Instant::now();
    let (records, _) = read_trace(&run.trace_dir).ok()?;
    // Every event at or past its target's watermark, in the order the
    // vSCSI layer saw it: issues by `serial`, completions by
    // `complete_seq` (a command in flight at the checkpoint replays only
    // its completion; the checkpoint already holds its issue).
    let mut events: Vec<(TargetId, u64, VscsiEvent)> = Vec::new();
    let mut tail_records = 0u64;
    for r in &records {
        let wm = watermarks.get(&r.target).copied().unwrap_or(0);
        if r.serial >= wm {
            tail_records += 1;
            events.push((r.target, r.serial, VscsiEvent::Issue(r.to_request())));
        }
        if let (Some(seq), Some(done)) = (r.complete_seq, r.to_completion()) {
            if seq >= wm {
                events.push((r.target, seq, VscsiEvent::Complete(done)));
            }
        }
    }
    events.sort_unstable_by_key(|&(target, seq, _)| (target, seq));
    let ordered: Vec<VscsiEvent> = events.into_iter().map(|(_, _, e)| e).collect();
    for batch in ordered.chunks(crate::hook::BATCH_EVENTS) {
        restored.handle_batch(batch);
    }
    let tail_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.exit(id);

    Some(Recovery {
        load_ms,
        restore_ms,
        tail_ms,
        bit_identical,
        digest: service_digest(&restored),
        tail_records,
    })
}

/// `full_host`: a pass runs the whole pipeline over the fixed virtual
/// horizon, then restarts from its durable state `recoveries` times.
#[derive(Debug)]
pub struct FullHost {
    seed: u64,
    shape: HostShape,
    dir: PathBuf,
    rates: Vec<f64>,
    recovery_ms: Vec<f64>,
    first: Option<Outcome>,
    dropped: u64,
    tail_records: u64,
    ops: Ops,
    passes: u64,
}

impl FullHost {
    pub fn new(seed: u64, shape: HostShape, dir: PathBuf) -> Self {
        FullHost {
            seed,
            shape,
            dir,
            rates: Vec::new(),
            recovery_ms: Vec::new(),
            first: None,
            dropped: 0,
            tail_records: 0,
            ops: Ops::default(),
            passes: 0,
        }
    }
}

impl Pipeline for FullHost {
    fn name(&self) -> &'static str {
        "full_host"
    }

    fn pass(&mut self, tracer: &mut Tracer) {
        let pass = self.passes;
        let run = run_host(self.seed, self.shape, Rung::Fleet, &self.dir, tracer, pass);
        self.rates.push(run.commands as f64 / run.wall_s);
        let store = run
            .store
            .clone()
            .expect("the Fleet rung carries a trace store");
        let dropped = store.drops.dropped_records() + store.io_error_records;
        self.dropped += dropped;
        let ledger = run
            .ledger
            .expect("the Fleet rung carries a checkpoint daemon");
        let live_digest = service_digest(&run.service);
        let disk_bytes = trace_bytes_on_disk(&run.trace_dir);

        // Everything below is a pure function of the seed; the first pass
        // records it and every later pass must reproduce it.
        let mut this = Outcome::new("full_host");
        this.input_digest = self.seed;
        this.output_digest = live_digest;
        this.count("virtual_windows", self.shape.windows);
        this.count("commands_completed", run.commands);
        this.count("commands_issued", run.issued);
        this.count("trace_records", store.records);
        this.count("trace_blocks", store.blocks);
        this.count("trace_segments", store.segments);
        this.count("trace_bytes_on_disk", disk_bytes);
        this.count("checkpoints_written", ledger.written);
        this.count("checkpoint_bytes", run.checkpoint_bytes);
        let first = self.first.get_or_insert(this.clone());
        let repeatable = first.output_digest == this.output_digest && first.counts == this.counts;
        self.ops.op(
            "full_host pass",
            &[
                (
                    store.records + dropped == run.issued,
                    "store persisted + dropped == appended",
                ),
                (dropped == 0, "store dropped == 0"),
                (
                    ledger.conserves() && ledger.written == ledger.attempts,
                    "checkpoint ledger conserves, every write durable",
                ),
                (
                    run.fleet_ok,
                    "fleet views conserve; fleet root == service total",
                ),
                (repeatable, "same seed, same histograms and ledgers"),
            ],
        );
        for k in 0..self.shape.recoveries {
            let op = pass * 1000 + k as u64;
            let id = tracer.enter("recovery", op);
            let recovery = recover(&run, k == 0, tracer, op);
            tracer.exit(id);
            match recovery {
                Some(r) => {
                    self.tail_records = r.tail_records;
                    self.recovery_ms.push(r.load_ms + r.restore_ms + r.tail_ms);
                    self.ops.op(
                        "full_host recovery",
                        &[
                            (
                                r.bit_identical || k > 0,
                                "restored state re-encodes byte-identical to the checkpoint",
                            ),
                            (
                                r.digest == live_digest,
                                "checkpoint + durable trace tail == live histograms",
                            ),
                        ],
                    );
                }
                None => self.ops.op(
                    "full_host recovery",
                    &[(false, "a durable checkpoint loads")],
                ),
            }
        }
        self.passes += 1;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = self.first.expect("at least one pass ran");
        let count = |name: &str| {
            out.counts
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0, |(_, v)| *v)
        };
        let bytes_per_record = count("trace_bytes_on_disk") as f64 / count("trace_records") as f64;
        let checkpoint_bytes = count("checkpoint_bytes");
        out.count("recovery_tail_records", self.tail_records);
        out.ops = self.ops;
        out.metrics
            .set("trace_bytes_per_record", bytes_per_record, 1);
        out.metrics
            .set("core.checkpoint.bytes", checkpoint_bytes as f64, 1);
        out.metrics.set(
            "tracestore.store.dropped",
            self.dropped as f64,
            self.rates.len(),
        );
        out.metrics
            .set("host_cmds_per_s", median(&self.rates), self.rates.len());
        out.metrics.set(
            "recovery_ms",
            median(&self.recovery_ms),
            self.recovery_ms.len(),
        );
        out
    }
}
