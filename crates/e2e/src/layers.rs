//! The per-layer numbers of a traced run: what each layer costs, timed
//! from outside around its public calls, plus what the spans say.
//!
//! Differences (series, trace ring, sentinel, the ladder's rungs) are
//! taken between variants measured interleaved, one pass of each per
//! round, so a slow stretch of the machine lands on all of them alike.

use crate::hook::{
    feed_batched, feed_per_event, fresh_service, sharded_pass, timed_chunks, tpc_pass, tpc_shape,
};
use crate::host::{run_host, Rung};
use crate::metrics::Results;
use crate::outcome::Ops;
use crate::run::{Inputs, Plan};
use crate::span::Tracer;
use crate::stats::{median, quantile};
use crate::Sizes;
use fleet::{decode_frame, encode_frame, AggSet, HostFrame};
use histo::{BinLane, Histogram, LayoutId};
use simkit::SimRng;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tracestore::{
    build_index, decode_block, encode_block, load_or_build_file, read_trace, IndexSource,
    Predicate, QueryConfig, QueryEngine, SEGMENT_EXTENSION,
};
use vscsi_stats::{
    replay, spsc, CollectorConfig, InflightTable, IoStatsCollector, SentinelConfig, StatsService,
    TraceCapacity, VscsiEvent,
};

/// How much work the micro-measurements do.
#[derive(Debug, Clone, Copy)]
struct Scale {
    /// Rounds of each interleaved comparison; the median round is reported.
    rounds: usize,
    /// Divides every fixed operation count (`--smoke` shrinks them).
    shrink: usize,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| secs(&mut f)).collect();
    median(&samples)
}

/// Per-layer metrics read off the spans of the traced passes.
pub fn from_spans(tracer: &Tracer, m: &mut Results) {
    for (metric, span, q) in [
        ("driver.window_ms_p50", "driver.window", 0.5),
        ("driver.window_ms_p99", "driver.window", 0.99),
        ("core.checkpoint.tick_ms_p50", "checkpoint.tick.wrote", 0.5),
        ("core.checkpoint.tick_ms_p99", "checkpoint.tick.wrote", 0.99),
        ("tracestore.store.flush_ms_p99", "tracestore.flush", 0.99),
        (
            "core.checkpoint.load_latest_ms",
            "checkpoint.load_latest",
            0.5,
        ),
        ("core.checkpoint.restore_ms", "service.from_checkpoint", 0.5),
        ("core.replay.tail_ms", "replay.tail", 0.5),
        ("fleet.collector.poll_ms", "fleet.poll_due", 0.5),
        ("fleet.rollup.view_ms", "fleet.view", 0.5),
        ("fleet.rollup.conserves_ms", "fleet.conserves", 0.5),
    ] {
        let ms = tracer.durations_ms(span);
        m.set(metric, quantile(&ms, q), ms.len());
    }
    // Self time: what `run_until` spends outside any span nested in it
    // (none today; spans inside the program are a later change).
    let windows = tracer.total_ns("driver.window").max(1);
    m.set(
        "esx.sim.run_until_share",
        tracer.self_time_ns("esx.sim.run_until") as f64 / windows as f64,
        tracer.durations_ms("esx.sim.run_until").len(),
    );
}

/// Median ns per command over the chunks of one pass of `events` through
/// `feed` into `service`.
fn pass_ns(
    service: &StatsService,
    events: &[VscsiEvent],
    chunk_cmds: usize,
    feed: fn(&StatsService, &[VscsiEvent]),
) -> f64 {
    let mut chunk_ns = Vec::new();
    let mut off = Tracer::new(false);
    timed_chunks(
        events,
        chunk_cmds,
        &mut off,
        "",
        0,
        &mut chunk_ns,
        |chunk| feed(service, chunk),
    );
    median(&chunk_ns)
}

/// Everything a traced run measures beyond the spine.
pub fn measure(inputs: &Inputs, sizes: &Sizes, plan: &Plan, m: &mut Results, ops: &mut Ops) {
    let scale = if plan.smoke {
        Scale {
            rounds: 1,
            shrink: 64,
        }
    } else {
        Scale {
            rounds: 3,
            shrink: 1,
        }
    };
    histo_layer(plan.seed, scale, m);
    inflight_layer(scale, m);
    hook_layers(inputs, sizes, scale, m);
    contend_layers(inputs, scale, m, ops);
    ladder(plan, sizes, scale, m);
    tracestore_layers(inputs, scale, m, ops);
    fleet_layers(inputs, scale, m);
}

fn histo_layer(seed: u64, scale: Scale, m: &mut Results) {
    let rounds = scale.rounds;
    let mut rng = SimRng::seed_from(seed).fork("layers/histo");
    let values: Vec<i64> = (0..(1 << 16) / scale.shrink)
        .map(|_| rng.range_inclusive(1, 100_000) as i64)
        .collect();
    let mut out = vec![0u16; values.len()];
    let sweeps = 16;
    let per_value = 1e9 / (sweeps * values.len()) as f64;
    let active = LayoutId::LatencyUs.binner();
    let scalar = active.clone().with_lane(BinLane::Scalar);
    for (name, binner) in [
        ("histo.fastbin.ns_per_value", active),
        ("histo.fastbin.scalar_ns_per_value", &scalar),
    ] {
        let s = median_secs(rounds, || {
            for _ in 0..sweeps {
                binner.bin_slice(black_box(&values), &mut out);
                black_box(&mut out);
            }
        });
        m.set(name, s * per_value, rounds);
    }
    let s = median_secs(rounds, || {
        let mut h = Histogram::new(LayoutId::LatencyUs.edges());
        for _ in 0..sweeps {
            for &v in &values {
                h.record(black_box(v));
            }
        }
        black_box(h.total());
    });
    m.set("histo.histogram.insert_ns", s * per_value, rounds);
}

fn inflight_layer(scale: Scale, m: &mut Results) {
    let rounds = scale.rounds;
    let pairs = (1u64 << 20) / scale.shrink as u64;
    for (name, oio) in [
        ("core.inflight.ns_per_pair", 4u64),
        // Past the table's 64 fast slots, into the spill map.
        ("core.inflight.spill_ns_per_pair", 128),
    ] {
        let s = median_secs(rounds, || {
            let mut table = InflightTable::<u64>::new();
            for key in 0..oio {
                table.insert(key, key);
            }
            for key in oio..oio + pairs {
                table.insert(black_box(key), key);
                black_box(table.remove(key - oio));
            }
        });
        m.set(name, s * 1e9 / pairs as f64, rounds);
    }
}

/// The hook's cost, decomposed by construction: one feature toggled per
/// variant, every variant fed the `hook_hot` stream event by event.
fn hook_layers(inputs: &Inputs, sizes: &Sizes, scale: Scale, m: &mut Results) {
    let rounds = scale.rounds;
    let stream = &inputs.hook.stream;
    let events = &stream.events;

    // The collector alone: no service, targets indexed directly. Timed by
    // chunk like the hook, so the two subtract.
    let collector_ns = |config: &CollectorConfig| {
        let mut collectors: Vec<IoStatsCollector> = stream
            .targets
            .iter()
            .map(|_| IoStatsCollector::new(config.clone()))
            .collect();
        let mut chunk_ns = Vec::new();
        let mut off = Tracer::new(false);
        timed_chunks(
            events,
            sizes.chunk_cmds,
            &mut off,
            "",
            0,
            &mut chunk_ns,
            |chunk| {
                for event in chunk {
                    match event {
                        VscsiEvent::Issue(req) => {
                            collectors[req.target.vm.0 as usize].on_issue(req);
                        }
                        VscsiEvent::Complete(c) => {
                            collectors[c.request.target.vm.0 as usize].on_complete(c);
                        }
                    }
                }
            },
        );
        (median(&chunk_ns), collectors)
    };
    // Each target's events contiguous, so every batch of 64 is one target.
    let mut by_target: Vec<VscsiEvent> = Vec::with_capacity(events.len());
    for part in crate::gen::partition_by_target(stream, stream.targets.len()) {
        by_target.extend(part);
    }
    let with_ring = |service: StatsService| {
        for &target in &stream.targets {
            service.start_trace(target, TraceCapacity::Ring(4096));
        }
        service
    };

    // Every difference is taken inside a round, between neighbours in
    // time; the median round is reported.
    let mut rows: [Vec<f64>; 10] = Default::default();
    let mut state_bytes = 0;
    for _ in 0..rounds {
        let (plain, collectors) = collector_ns(&CollectorConfig::default());
        state_bytes = collectors
            .iter()
            .map(IoStatsCollector::memory_footprint_bytes)
            .sum::<usize>()
            / collectors.len();
        let (series, _) = collector_ns(&CollectorConfig::paper_figures());
        let base = fresh_service(CollectorConfig::default());
        let off = StatsService::new(CollectorConfig::default());
        let ring = with_ring(fresh_service(CollectorConfig::default()));
        let sentinel = fresh_service(CollectorConfig::default());
        sentinel.enable_sentinel(SentinelConfig::default());
        let all_on = with_ring(fresh_service(CollectorConfig::paper_figures()));
        all_on.enable_sentinel(SentinelConfig::default());
        let same_target = fresh_service(CollectorConfig::default());
        let chunk = sizes.chunk_cmds;
        let base = pass_ns(&base, events, chunk, feed_per_event);
        let off = pass_ns(&off, events, chunk, feed_per_event);
        let ring = pass_ns(&ring, events, chunk, feed_per_event) - base;
        let sentinel = pass_ns(&sentinel, events, chunk, feed_per_event) - base;
        let all_on = pass_ns(&all_on, events, chunk, feed_per_event);
        let same_target = pass_ns(&same_target, &by_target, chunk, feed_batched);
        let series = series - plain;
        for (row, value) in rows.iter_mut().zip([
            plain,
            series,
            off,
            base - plain,
            same_target,
            ring,
            sentinel,
            all_on,
            // All features at once against the sum of each alone: what
            // does not add up is interaction between them.
            all_on - (base + series + ring + sentinel),
            base,
        ]) {
            row.push(value);
        }
    }
    let names = [
        "core.collector.ns_per_cmd",
        "core.collector.series_ns_per_cmd",
        "core.service.off_ns_per_cmd",
        "core.service.dispatch_ns_per_cmd",
        "core.service.batch_same_target_ns_per_cmd",
        "core.trace.ring_ns_per_cmd",
        "core.sentinel.ns_per_cmd",
        "hook.all_on_ns_per_cmd",
        "hook.unattributed_ns",
    ];
    for (name, row) in names.iter().zip(&rows) {
        m.set(name, median(row), rounds);
    }
    m.set(
        "core.collector.state_bytes_per_target",
        state_bytes as f64,
        1,
    );
}

fn contend_layers(inputs: &Inputs, scale: Scale, m: &mut Results, ops: &mut Ops) {
    let rounds = scale.rounds;
    let contend = &inputs.contend;
    let stream = &contend.hook.stream;
    let commands = stream.commands as f64;
    let (_, aggregators) = tpc_shape();
    // A lane that holds a producer's whole share never makes it wait.
    let roomy = contend
        .tpc_parts
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(1)
        .next_power_of_two();
    let mut rows: [Vec<f64>; 5] = Default::default();
    let mut shed = 0;
    for _ in 0..rounds {
        let single = fresh_service(CollectorConfig::default());
        let single_s = secs(|| feed_batched(&single, &stream.events));
        let sharded_batch = fresh_service(CollectorConfig::default());
        let batch_s = sharded_pass(&sharded_batch, &contend.sharded_parts, feed_batched);
        let sharded_event = fresh_service(CollectorConfig::default());
        let event_s = sharded_pass(&sharded_event, &contend.sharded_parts, feed_per_event);
        let tight = Arc::new(fresh_service(CollectorConfig::default()));
        let (_, offer_tight, report) = tpc_pass(&tight, &contend.tpc_parts, aggregators, 1024);
        let loose = Arc::new(fresh_service(CollectorConfig::default()));
        let (_, offer_loose, _) = tpc_pass(&loose, &contend.tpc_parts, aggregators, roomy);
        shed += report.shed;
        for (row, value) in rows.iter_mut().zip([
            commands / single_s,
            commands / batch_s,
            commands / event_s,
            offer_tight,
            offer_loose,
        ]) {
            row.push(value);
        }
    }
    let [single, batch, event, offer_tight, offer_loose] = rows.map(|r| median(&r));
    m.set("core.service.single_thread_cmds_per_s", single, rounds);
    m.set("core.service.sharded_event_cmds_per_s", event, rounds);
    m.set("contend.scaling_ratio", batch / single, rounds);
    m.set(
        "core.pipeline.offer_wait_share",
        (1.0 - offer_loose / offer_tight).max(0.0),
        rounds,
    );
    m.set("core.pipeline.shed", shed as f64, rounds);
    ops.op("layers: pipeline", &[(shed == 0, "pipeline shed == 0")]);

    // One producer, one consumer, batches of 64 through a 1024-slot ring.
    let items = (1usize << 22) / scale.shrink;
    let payload: Vec<u64> = (0..64).collect();
    let payload = payload.as_slice();
    let s = median_secs(rounds.min(3), || {
        let (mut tx, mut rx) = spsc::ring::<u64>(1024);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut sent = 0;
                while sent < items {
                    let n = tx.push_batch(&payload[..payload.len().min(items - sent)]);
                    if n == 0 {
                        // On one core a spin would starve the consumer.
                        std::thread::yield_now();
                    }
                    sent += n;
                }
            });
            let mut got = 0;
            let mut out = Vec::with_capacity(64);
            while got < items {
                out.clear();
                let n = rx.pop_chunk(&mut out, 64);
                if n == 0 {
                    std::thread::yield_now();
                }
                got += n;
            }
            black_box(&out);
        });
    });
    m.set(
        "core.spsc.ns_per_item",
        s * 1e9 / items as f64,
        rounds.min(3),
    );
}

/// The ablation ladder: the `full_host` horizon with one layer added per
/// rung, every rung run once per round, deltas between rung medians.
fn ladder(plan: &Plan, sizes: &Sizes, scale: Scale, m: &mut Results) {
    let rounds = scale.rounds;
    let dir: PathBuf = plan.workdir.join("ladder");
    let mut off = Tracer::new(false);
    let mut ns: [Vec<f64>; 6] = Default::default();
    for _ in 0..rounds {
        for (rung, row) in Rung::ALL.into_iter().zip(&mut ns) {
            let run = run_host(plan.seed, sizes.host, rung, &dir, &mut off, 0);
            row.push(run.wall_s * 1e9 / run.commands as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.set("ladder.sim_only_ns_per_cmd", median(&ns[0]), rounds);
    for (name, k) in [
        ("ladder.histograms_ns_per_cmd", 1),
        ("ladder.series_ns_per_cmd", 2),
        ("ladder.trace_ns_per_cmd", 3),
        ("ladder.checkpoint_ns_per_cmd", 4),
        ("ladder.fleet_ns_per_cmd", 5),
    ] {
        // Each rung against the one below it in the same round.
        let deltas: Vec<f64> = ns[k].iter().zip(&ns[k - 1]).map(|(a, b)| a - b).collect();
        m.set(name, median(&deltas), rounds);
    }
    // The spine's own full_host passes against the ladder's top rung: the
    // same pipeline, so what differs is drift between the two stretches
    // of the run. (Both as timed: this runs before the end-to-end metrics
    // are scaled to reference speed.)
    let spine_ns = 1e9 / m.value("host_cmds_per_s");
    m.set(
        "ladder.residual_ns_per_cmd",
        spine_ns - median(&ns[5]),
        rounds,
    );
}

fn tracestore_layers(inputs: &Inputs, scale: Scale, m: &mut Results, ops: &mut Ops) {
    let reps = scale.rounds.min(3);
    let archive = &inputs.archive;
    let mut read = None;
    let read_s = median_secs(reps, || read = read_trace(&archive.dir).ok());
    let Some((records, integrity)) = read else {
        ops.op("layers: tracestore", &[(false, "the archive reads back")]);
        return;
    };
    ops.op(
        "layers: tracestore",
        &[
            (integrity.is_clean(), "the archive is clean"),
            (
                records.len() as u64 == archive.report.records,
                "read_trace returns every persisted record",
            ),
        ],
    );
    let n = records.len() as f64;
    m.set(
        "tracestore.reader.read_trace_records_per_s",
        n / read_s,
        reps,
    );

    // Codec: the archive's records again, block by block.
    let blocks: Vec<&[vscsi_stats::TraceRecord]> = records.chunks(1024).collect();
    let mut encoded = Vec::new();
    let encode_s = median_secs(reps, || {
        encoded = blocks.iter().map(|b| encode_block(b)).collect();
    });
    let decode_s = median_secs(reps, || {
        for (payload, count) in &encoded {
            black_box(decode_block(payload, *count).map(|r| r.len()).unwrap_or(0));
        }
    });
    m.set(
        "tracestore.codec.encode_ns_per_record",
        encode_s * 1e9 / n,
        reps,
    );
    m.set(
        "tracestore.codec.decode_ns_per_record",
        decode_s * 1e9 / n,
        reps,
    );

    // Index: load each sidecar; rebuild each from its segment's bytes.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&archive.dir)
        .map(|it| {
            it.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION))
                .collect()
        })
        .unwrap_or_default();
    segments.sort();
    let mut from_sidecar = true;
    let load_s = median_secs(reps, || {
        for segment in &segments {
            from_sidecar &=
                load_or_build_file(segment).is_ok_and(|(_, source)| source == IndexSource::Sidecar);
        }
    });
    let data: Vec<Vec<u8>> = segments
        .iter()
        .filter_map(|p| std::fs::read(p).ok())
        .collect();
    let file_read_s = median_secs(reps, || {
        for segment in &segments {
            black_box(std::fs::read(segment).map(|d| d.len()).unwrap_or(0));
        }
    });
    let build_s = median_secs(reps, || {
        for bytes in &data {
            black_box(build_index(bytes).map(|i| i.entries.len()).unwrap_or(0));
        }
    });
    let per_segment = 1e3 / segments.len().max(1) as f64;
    m.set("tracestore.index.load_ms", load_s * per_segment, reps);
    m.set(
        "tracestore.index.build_ms_per_segment",
        build_s * per_segment,
        reps,
    );
    ops.op(
        "layers: index",
        &[(from_sidecar, "every segment's sidecar loads as written")],
    );

    // Replay: one target's records through a fresh collector.
    let first = archive.stream.targets[0];
    let one: Vec<_> = records
        .iter()
        .filter(|r| r.target == first)
        .copied()
        .collect();
    let replay_s = median_secs(reps, || {
        black_box(replay(&one, CollectorConfig::paper_figures()).issued_commands());
    });
    let replay_ns = replay_s * 1e9 / one.len().max(1) as f64;
    m.set("core.replay.ns_per_record", replay_ns, reps);

    // Engine variants over the full scan, interleaved.
    let serial = QueryEngine::new(QueryConfig {
        threads: 1,
        ..QueryConfig::default()
    });
    let noindex = QueryEngine::new(QueryConfig {
        use_index: false,
        ..QueryConfig::default()
    });
    let mut rows: [Vec<f64>; 2] = Default::default();
    for _ in 0..reps {
        for (engine, row) in [&serial, &noindex].into_iter().zip(&mut rows) {
            row.push(secs(|| {
                black_box(engine.run(&archive.dir, &Predicate::True).is_ok());
            }));
        }
    }
    let [serial_s, noindex_s] = rows.map(|r| median(&r));
    m.set("tracestore.query.serial_records_per_s", n / serial_s, reps);
    m.set(
        "tracestore.query.noindex_records_per_s",
        n / noindex_s,
        reps,
    );
    // What a serial full scan spends beyond reading files, decoding
    // blocks and replaying records.
    let parts_s = file_read_s + decode_s + replay_ns * n / 1e9;
    m.set(
        "tracestore.query.unattributed_share",
        1.0 - parts_s / serial_s,
        reps,
    );
}

fn fleet_layers(inputs: &Inputs, scale: Scale, m: &mut Results) {
    let service = &inputs.fleet.services[0];
    let targets = f64::from(inputs.fleet.targets_per_host);
    let per_target_us = 1e6 / targets;
    let reps = 2 * scale.rounds - 1;
    let mut frame = HostFrame::snapshot(0, 0, 0, service);
    let snapshot_s = median_secs(reps, || frame = HostFrame::snapshot(0, 0, 0, service));
    let mut bytes = Vec::new();
    let encode_s = median_secs(reps, || bytes = encode_frame(&frame).unwrap_or_default());
    let mut decoded = None;
    let decode_s = median_secs(reps, || decoded = decode_frame(&bytes).ok());
    let decoded = decoded.unwrap_or(frame);
    let mut agg = AggSet::new();
    let merge_s = median_secs(reps, || {
        agg = AggSet::new();
        for target in &decoded.targets {
            let _ = agg.merge_target(target);
        }
    });
    let previous = AggSet::new();
    let delta_s = median_secs(reps, || {
        black_box(agg.try_delta(&previous).is_some());
    });
    let text_s = median_secs(reps, || {
        black_box(service.fetch_all_histograms().len());
    });
    let checkpoint_s = median_secs(reps, || {
        black_box(service.checkpoint_snapshot().encode(0).len());
    });
    for (name, value) in [
        (
            "fleet.wire.snapshot_us_per_target",
            snapshot_s * per_target_us,
        ),
        ("fleet.wire.encode_us_per_target", encode_s * per_target_us),
        ("fleet.wire.decode_us_per_target", decode_s * per_target_us),
        ("fleet.rollup.merge_us_per_target", merge_s * per_target_us),
        ("fleet.rollup.try_delta_us_per_host", delta_s * 1e6),
        ("core.service.fetch_text_ms", text_s * 1e3),
        (
            "core.checkpoint.snapshot_encode_us_per_target",
            checkpoint_s * per_target_us,
        ),
    ] {
        m.set(name, value, reps);
    }
}
