//! `hook_hot` and `hook_contend`: the vSCSI hooks driven directly.

use crate::gen::{command_stream, partition_by_target, CommandStream};
use crate::outcome::{Ops, Outcome};
use crate::span::Tracer;
use crate::stats::{median, quantile, service_digest};
use crate::{nproc, Pipeline, Sizes};
use simkit::SimRng;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vscsi_stats::{
    CollectorConfig, IngestPipeline, PipelineConfig, PipelineProducer, StatsService, VscsiEvent,
};

/// Events per `handle_batch` call (what the simulator and the pipeline's
/// aggregators hand the service).
pub const BATCH_EVENTS: usize = 64;

/// A command stream plus the digest a single thread feeding it event by
/// event leaves in a fresh service — what every other ingest path must
/// reproduce.
#[derive(Debug)]
pub struct HookInputs {
    pub stream: CommandStream,
    pub reference_digest: u64,
}

pub fn fresh_service(config: CollectorConfig) -> StatsService {
    let service = StatsService::new(config);
    service.enable_all();
    service
}

pub fn feed_per_event(service: &StatsService, events: &[VscsiEvent]) {
    for event in events {
        match event {
            VscsiEvent::Issue(req) => service.handle_issue(req),
            VscsiEvent::Complete(completion) => service.handle_complete(completion),
        }
    }
}

pub fn feed_batched(service: &StatsService, events: &[VscsiEvent]) {
    for batch in events.chunks(BATCH_EVENTS) {
        service.handle_batch(batch);
    }
}

impl HookInputs {
    pub fn build(rng: &mut SimRng, targets: u32, commands: usize) -> HookInputs {
        let stream = command_stream(rng, targets, commands);
        let service = fresh_service(CollectorConfig::default());
        feed_per_event(&service, &stream.events);
        HookInputs {
            reference_digest: service_digest(&service),
            stream,
        }
    }

    /// Per-target issued == completed == generated, and the histograms
    /// digest like the reference.
    fn checks(&self, service: &StatsService) -> [(bool, &'static str); 2] {
        let mut collectors = service.collectors();
        collectors.sort_by_key(|(target, _)| *target);
        let counts_match = collectors.len() == self.stream.targets.len()
            && collectors
                .iter()
                .zip(&self.stream.per_target)
                .all(|((_, c), &expected)| {
                    c.issued_commands() == expected && c.completed_commands() == expected
                });
        [
            (counts_match, "per-target issued == completed == expected"),
            (
                service_digest(service) == self.reference_digest,
                "histogram digest == single-thread per-event digest",
            ),
        ]
    }
}

/// Feeds `events` through `feed`, timing each `chunk_cmds`-command chunk;
/// pushes ns per command (one issue plus one completion) per chunk.
pub fn timed_chunks(
    events: &[VscsiEvent],
    chunk_cmds: usize,
    tracer: &mut Tracer,
    span: &'static str,
    op: u64,
    samples: &mut Vec<f64>,
    mut feed: impl FnMut(&[VscsiEvent]),
) {
    for chunk in events.chunks(chunk_cmds * 2) {
        let id = tracer.enter(span, op);
        let t0 = Instant::now();
        feed(chunk);
        let ns = t0.elapsed().as_nanos() as f64;
        tracer.exit(id);
        samples.push(ns / (chunk.len() as f64 / 2.0));
    }
}

/// `hook_hot`: one thread. A pass feeds the stream once through the
/// per-event hooks and once through mixed-target `handle_batch(64)`, each
/// into a fresh service, timing every `chunk_cmds`-command chunk.
#[derive(Debug)]
pub struct HookHot<'a> {
    inputs: &'a HookInputs,
    chunk_cmds: usize,
    event_p50: Vec<f64>,
    event_p99: Vec<f64>,
    batch_p50: Vec<f64>,
    chunks: usize,
    ops: Ops,
    passes: u64,
}

impl<'a> HookHot<'a> {
    pub fn new(inputs: &'a HookInputs, sizes: &Sizes) -> Self {
        HookHot {
            inputs,
            chunk_cmds: sizes.chunk_cmds,
            event_p50: Vec::new(),
            event_p99: Vec::new(),
            batch_p50: Vec::new(),
            chunks: 0,
            ops: Ops::default(),
            passes: 0,
        }
    }
}

impl Pipeline for HookHot<'_> {
    fn name(&self) -> &'static str {
        "hook_hot"
    }

    fn pass(&mut self, tracer: &mut Tracer) {
        let op = self.passes;
        let events = &self.inputs.stream.events;
        let id = tracer.enter("hook_hot.pass", op);
        let mut chunk_ns = Vec::with_capacity(events.len() / self.chunk_cmds / 2 + 1);

        let service = fresh_service(CollectorConfig::default());
        timed_chunks(
            events,
            self.chunk_cmds,
            tracer,
            "service.handle_issue+handle_complete",
            op,
            &mut chunk_ns,
            |chunk| feed_per_event(&service, chunk),
        );
        self.event_p50.push(median(&chunk_ns));
        self.event_p99.push(quantile(&chunk_ns, 0.99));
        self.chunks += chunk_ns.len();
        self.ops
            .op("hook_hot per-event pass", &self.inputs.checks(&service));

        chunk_ns.clear();
        let service = fresh_service(CollectorConfig::default());
        timed_chunks(
            events,
            self.chunk_cmds,
            tracer,
            "service.handle_batch",
            op,
            &mut chunk_ns,
            |chunk| feed_batched(&service, chunk),
        );
        self.batch_p50.push(median(&chunk_ns));
        self.ops
            .op("hook_hot batch pass", &self.inputs.checks(&service));
        tracer.exit(id);
        self.passes += 1;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::new("hook_hot");
        let stream = &self.inputs.stream;
        out.input_digest = stream.digest;
        out.output_digest = self.inputs.reference_digest;
        out.count("commands_per_pass", stream.commands);
        out.count("targets", stream.targets.len() as u64);
        out.ops = self.ops;
        out.metrics
            .set("hook_ns_per_cmd_p50", median(&self.event_p50), self.chunks);
        out.metrics
            .set("hook_ns_per_cmd_p99", median(&self.event_p99), self.chunks);
        out.metrics
            .set("batch_ns_per_cmd_p50", median(&self.batch_p50), self.chunks);
        out
    }
}

/// `nproc` producers, each feeding its share of the targets through
/// `feed` into one shared service. Returns wall seconds from the moment
/// every producer is running (a barrier) to the last one done, so a
/// sleeping core's wake-up is not billed to the shard locks.
pub fn sharded_pass(
    service: &StatsService,
    parts: &[Vec<VscsiEvent>],
    feed: fn(&StatsService, &[VscsiEvent]),
) -> f64 {
    let barrier = Barrier::new(parts.len());
    let mut t0 = Instant::now();
    std::thread::scope(|scope| {
        for part in &parts[1..] {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                feed(service, part);
            });
        }
        // The calling thread is producer 0, so `parts.len()` threads run.
        barrier.wait();
        t0 = Instant::now();
        feed(service, &parts[0]);
    });
    t0.elapsed().as_secs_f64()
}

/// Producer/aggregator split of the thread-per-core mesh on this box.
pub fn tpc_shape() -> (usize, usize) {
    let producers = (nproc() / 2).max(1);
    (producers, (nproc() - producers).max(1))
}

/// One lossless run of `parts` (one per producer) through an
/// [`IngestPipeline`] with `ring_capacity`-slot lanes. Returns wall
/// seconds (first offer to drained and joined), the seconds producer 0
/// spent offering, and the pipeline's ledger.
pub fn tpc_pass(
    service: &Arc<StatsService>,
    parts: &[Vec<VscsiEvent>],
    aggregators: usize,
    ring_capacity: usize,
) -> (f64, f64, vscsi_stats::PipelineReport) {
    let config = PipelineConfig {
        producers: parts.len(),
        aggregators,
        ring_capacity,
        ..PipelineConfig::default()
    };
    let (pipeline, mut producers) = IngestPipeline::start(Arc::clone(service), config);
    let t0 = Instant::now();
    let offer = |producer: &mut PipelineProducer, part: &[VscsiEvent]| {
        let t = Instant::now();
        for batch in part.chunks(BATCH_EVENTS) {
            producer.offer_batch_blocking(batch);
        }
        t.elapsed().as_secs_f64()
    };
    let mut first = producers.remove(0);
    let offer_s = std::thread::scope(|scope| {
        for (mut producer, part) in producers.drain(..).zip(&parts[1..]) {
            scope.spawn(move || {
                offer(&mut producer, part);
            });
        }
        offer(&mut first, &parts[0])
    });
    let report = pipeline.finish(vec![first]);
    (t0.elapsed().as_secs_f64(), offer_s, report)
}

/// Inputs of `hook_contend`: the stream split for `nproc` sharded
/// producers and for the pipeline's producers.
#[derive(Debug)]
pub struct ContendInputs {
    pub hook: HookInputs,
    pub sharded_parts: Vec<Vec<VscsiEvent>>,
    pub tpc_parts: Vec<Vec<VscsiEvent>>,
}

impl ContendInputs {
    pub fn build(rng: &mut SimRng, targets: u32, commands: usize) -> ContendInputs {
        let hook = HookInputs::build(rng, targets, commands);
        ContendInputs {
            sharded_parts: partition_by_target(&hook.stream, nproc()),
            tpc_parts: partition_by_target(&hook.stream, tpc_shape().0),
            hook,
        }
    }
}

/// `hook_contend`: a pass runs the stream once from `nproc` producers on
/// the sharded `handle_batch(64)` path and once through the thread-per-core
/// pipeline, each into a fresh service.
#[derive(Debug)]
pub struct HookContend<'a> {
    inputs: &'a ContendInputs,
    sharded_rate: Vec<f64>,
    tpc_rate: Vec<f64>,
    shed: u64,
    ops: Ops,
    passes: u64,
}

impl<'a> HookContend<'a> {
    pub fn new(inputs: &'a ContendInputs) -> Self {
        HookContend {
            inputs,
            sharded_rate: Vec::new(),
            tpc_rate: Vec::new(),
            shed: 0,
            ops: Ops::default(),
            passes: 0,
        }
    }
}

impl Pipeline for HookContend<'_> {
    fn name(&self) -> &'static str {
        "hook_contend"
    }

    fn pass(&mut self, tracer: &mut Tracer) {
        let op = self.passes;
        let inputs = self.inputs;
        let stream = &inputs.hook.stream;
        let id = tracer.enter("hook_contend.pass", op);

        let service = Arc::new(fresh_service(CollectorConfig::default()));
        let secs = tracer.scope("service.handle_batch x nproc", op, || {
            sharded_pass(&service, &inputs.sharded_parts, feed_batched)
        });
        self.sharded_rate.push(stream.commands as f64 / secs);
        self.ops
            .op("hook_contend sharded pass", &inputs.hook.checks(&service));

        let service = Arc::new(fresh_service(CollectorConfig::default()));
        let (_, aggregators) = tpc_shape();
        let (secs, _, report) = tracer.scope("pipeline.start..finish", op, || {
            tpc_pass(&service, &inputs.tpc_parts, aggregators, 1024)
        });
        self.tpc_rate.push(stream.commands as f64 / secs);
        self.shed += report.shed;
        let [counts, digest] = inputs.hook.checks(&service);
        self.ops.op(
            "hook_contend pipeline pass",
            &[
                counts,
                digest,
                (report.shed == 0, "pipeline shed == 0"),
                (
                    report.offered == stream.events.len() as u64
                        && report.ingested == report.offered,
                    "pipeline offered == ingested == events",
                ),
            ],
        );
        tracer.exit(id);
        self.passes += 1;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::new("hook_contend");
        let stream = &self.inputs.hook.stream;
        out.input_digest = stream.digest;
        out.output_digest = self.inputs.hook.reference_digest;
        let (producers, aggregators) = tpc_shape();
        out.count("commands_per_pass", stream.commands);
        out.count("targets", stream.targets.len() as u64);
        out.count("sharded_producers", self.inputs.sharded_parts.len() as u64);
        out.count("tpc_producers", producers as u64);
        out.count("tpc_aggregators", aggregators as u64);
        out.count("pipeline_shed", self.shed);
        out.ops = self.ops;
        out.metrics.set(
            "contend_cmds_per_s",
            median(&self.sharded_rate),
            self.sharded_rate.len(),
        );
        out.metrics.set(
            "tpc_cmds_per_s",
            median(&self.tpc_rate),
            self.tpc_rate.len(),
        );
        out
    }
}
