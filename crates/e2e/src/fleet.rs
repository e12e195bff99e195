//! `fleet_rollup`: the operator's `FetchAllHistograms` path.

use crate::gen::{host_burst, target};
use crate::outcome::{Ops, Outcome};
use crate::span::Tracer;
use crate::stats::{median, quantile, Digest};
use crate::Pipeline;
use fleet::{decode_frame, encode_frame, FleetCollector, HostFrame, PollConfig, ServiceEndpoint};
use simkit::{SimRng, SimTime};
use std::sync::Arc;
use std::time::Instant;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId};
use vscsi_stats::{CollectorConfig, StatsService, VscsiEvent};

const TENANTS: u64 = 8;

/// The fleet at rest: one 4-shard service per host, every target seen at
/// least once, the first quarter of each host's targets dense.
#[derive(Debug)]
pub struct FleetInputs {
    pub services: Vec<Arc<StatsService>>,
    pub targets_per_host: u32,
    pub burst_cmds: usize,
    /// Digest of every host's initial frame bytes.
    pub digest: u64,
    /// Bytes of every host's initial `VFLHIST2` frame, summed.
    pub frame_bytes: u64,
    seed: u64,
}

impl FleetInputs {
    pub fn build(
        rng: &SimRng,
        hosts: u32,
        targets_per_host: u32,
        initial_cmds: usize,
        burst_cmds: usize,
    ) -> FleetInputs {
        let mut events = Vec::new();
        let mut digest = Digest::default();
        let mut frame_bytes = 0u64;
        let services = (0..hosts)
            .map(|h| {
                let service = Arc::new(StatsService::with_shards(CollectorConfig::default(), 4));
                service.enable_all();
                let mut rng = rng.fork(&format!("host{h}/initial"));
                // One command per target, so every target exists …
                events.clear();
                for t in 0..targets_per_host {
                    let req = IoRequest::new(
                        RequestId(u64::from(t)),
                        target(t),
                        IoDirection::Read,
                        Lba::new(rng.range_inclusive(0, (1 << 30) - 1)),
                        8,
                        SimTime::from_nanos(u64::from(t)),
                    );
                    events.push(VscsiEvent::Issue(req));
                    events.push(VscsiEvent::Complete(IoCompletion::new(
                        req,
                        SimTime::from_nanos(u64::from(t) + 100_000),
                    )));
                }
                service.handle_batch(&events);
                // … then the skewed load.
                host_burst(
                    &mut rng,
                    targets_per_host,
                    initial_cmds,
                    1_000_000,
                    &mut events,
                );
                service.handle_batch(&events);
                let frame = HostFrame::snapshot(u64::from(h), 0, 0, &service);
                let bytes = encode_frame(&frame).expect("a live snapshot encodes");
                frame_bytes += bytes.len() as u64;
                digest.fold_bytes(&bytes);
                service
            })
            .collect();
        FleetInputs {
            services,
            targets_per_host,
            burst_cmds,
            digest: digest.value(),
            frame_bytes,
            seed: rng.seed(),
        }
    }

    pub fn targets(&self) -> u64 {
        self.services.len() as u64 * u64::from(self.targets_per_host)
    }
}

/// `fleet_rollup`: one thread. A round polls every host
/// (fetch → decode → merge → `try_delta`) and assembles the cumulative and
/// the restart-safe windowed-total views; between rounds every host
/// ingests a seeded burst, timed apart, so the next frames differ.
#[derive(Debug)]
pub struct FleetRollup<'a> {
    inputs: &'a FleetInputs,
    collector: FleetCollector<ServiceEndpoint>,
    rngs: Vec<SimRng>,
    rounds_per_pass: u64,
    round: u64,
    round_p50: Vec<f64>,
    round_p95: Vec<f64>,
    rounds_timed: usize,
    /// Per-round ingest time between rounds, milliseconds.
    ingest_ms: Vec<f64>,
    ops: Ops,
    passes: u64,
}

impl<'a> FleetRollup<'a> {
    pub fn new(inputs: &'a FleetInputs, rounds_per_pass: u64) -> Self {
        let endpoints = inputs
            .services
            .iter()
            .enumerate()
            .map(|(h, service)| {
                ServiceEndpoint::new(h as u64, h as u64 % TENANTS, Arc::clone(service))
            })
            .collect();
        let rngs = (0..inputs.services.len())
            .map(|h| SimRng::seed_from(inputs.seed).fork(&format!("host{h}/bursts")))
            .collect();
        FleetRollup {
            inputs,
            collector: FleetCollector::new(PollConfig::default(), endpoints),
            rngs,
            rounds_per_pass,
            round: 0,
            round_p50: Vec::new(),
            round_p95: Vec::new(),
            rounds_timed: 0,
            ingest_ms: Vec::new(),
            ops: Ops::default(),
            passes: 0,
        }
    }
}

impl Pipeline for FleetRollup<'_> {
    fn name(&self) -> &'static str {
        "fleet_rollup"
    }

    fn pass(&mut self, tracer: &mut Tracer) {
        let interval = PollConfig::default().interval;
        let id = tracer.enter("fleet_rollup.pass", self.passes);
        let mut ms = Vec::with_capacity(self.rounds_per_pass as usize);
        let mut events = Vec::new();
        for k in 0..self.rounds_per_pass {
            let round = self.round;
            let now = SimTime::ZERO + interval * round;
            let span = tracer.enter("fleet.round", round);
            let t0 = Instant::now();
            tracer.scope("fleet.poll_due", round, || self.collector.poll_due(now));
            let view = tracer.scope("fleet.view", round, || self.collector.view(now));
            let total = tracer.scope("fleet.windowed_total_view", round, || {
                self.collector.windowed_total_view(now)
            });
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.exit(span);

            let conserves = tracer.scope("fleet.conserves", round, || view.conserves());
            let mut checks = vec![
                (conserves, "cumulative view conserves"),
                (total.conserves(), "windowed-total view conserves"),
                (
                    view.fleet.hosts == self.inputs.services.len()
                        && total.fleet.agg.same_counters(&view.fleet.agg),
                    "every host live; windowed total == cumulative (no restarts)",
                ),
            ];
            if k + 1 == self.rounds_per_pass {
                // Sampled: the rollup's root against a direct, no-wire
                // snapshot of every service, and one frame's round trip.
                let direct: u64 = self
                    .inputs
                    .services
                    .iter()
                    .map(|s| HostFrame::snapshot(0, 0, 0, s).total_events())
                    .sum();
                checks.push((
                    view.fleet.agg.total_events() == direct,
                    "fleet root == sum of service totals",
                ));
                let h = round as usize % self.inputs.services.len();
                let frame = HostFrame::snapshot(h as u64, 0, 0, &self.inputs.services[h]);
                let round_trip = encode_frame(&frame)
                    .ok()
                    .and_then(|bytes| decode_frame(&bytes).ok());
                checks.push((
                    round_trip.as_ref() == Some(&frame),
                    "decode(encode(f)) == f",
                ));
            }
            self.ops.op("fleet_rollup round", &checks);

            // Between rounds, timed apart: every host moves on.
            let start_ns = (round + 2) * interval.as_nanos();
            let mut ingest = 0.0;
            for (service, rng) in self.inputs.services.iter().zip(&mut self.rngs) {
                host_burst(
                    rng,
                    self.inputs.targets_per_host,
                    self.inputs.burst_cmds,
                    start_ns,
                    &mut events,
                );
                let span = tracer.enter("service.handle_batch (between rounds)", round);
                let t0 = Instant::now();
                service.handle_batch(&events);
                ingest += t0.elapsed().as_secs_f64() * 1e3;
                tracer.exit(span);
            }
            self.ingest_ms.push(ingest);
            self.round += 1;
        }
        self.round_p50.push(median(&ms));
        self.round_p95.push(quantile(&ms, 0.95));
        self.rounds_timed += ms.len();
        tracer.exit(id);
        self.passes += 1;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::new("fleet_rollup");
        out.input_digest = self.inputs.digest;
        out.output_digest = self.inputs.digest;
        out.count("hosts", self.inputs.services.len() as u64);
        out.count("targets", self.inputs.targets());
        out.count("tenants", TENANTS);
        out.count("rounds_per_pass", self.rounds_per_pass);
        out.count("burst_commands_per_host", self.inputs.burst_cmds as u64);
        out.count("initial_frame_bytes", self.inputs.frame_bytes);
        // The collector's attempt ledger, summed over hosts.
        let status = self.collector.status();
        let frames_ok: u64 = status.iter().map(|s| s.frames_ok).sum();
        let fetch_failures: u64 = status.iter().map(|s| s.fetch_failures).sum();
        let decode_failures: u64 = status.iter().map(|s| s.decode_failures).sum();
        out.count("fetch_failures", fetch_failures);
        out.count("decode_failures", decode_failures);
        out.ops = self.ops;
        out.metrics.set(
            "fleet_round_ms_p50",
            median(&self.round_p50),
            self.rounds_timed,
        );
        out.metrics.set(
            "fleet_round_ms_p95",
            median(&self.round_p95),
            self.rounds_timed,
        );
        out.metrics.set(
            "fleet.collector.frames_ok",
            frames_ok as f64,
            self.rounds_timed,
        );
        out.metrics.set(
            "fleet.collector.fetch_failures",
            fetch_failures as f64,
            self.rounds_timed,
        );
        out.metrics.set(
            "core.ingest_between_rounds_ms",
            median(&self.ingest_ms),
            self.ingest_ms.len(),
        );
        out.metrics
            .set("fleet.wire.frame_bytes", self.inputs.frame_bytes as f64, 1);
        out.metrics.set(
            "frame_bytes_per_target",
            self.inputs.frame_bytes as f64 / self.inputs.targets() as f64,
            1,
        );
        out
    }
}
