//! Extension experiment: the fleet aggregation plane at scale.
//!
//! Builds a simulated fleet — by default 256 hosts carrying 10 240
//! (VM, disk) targets between them, split across 8 tenants — feeds every
//! target a deterministic synthetic workload, and then drives the full
//! fetch → decode → merge pipeline twice:
//!
//! * **Clean round** — every host answers. The assembled
//!   host → tenant → fleet rollup must conserve *exactly*: the fleet
//!   root's histograms, bin for bin, equal the sum of what every host
//!   reported, which in turn equals a direct (no-wire) snapshot of every
//!   service. The round also measures the wire: bytes per target on the
//!   frame versus the resident counter slab.
//! * **Chaos round** — every endpoint is wrapped in a seeded
//!   [`ChaosEndpoint`] that drops, bit-flips, or truncates a slice of
//!   polls. Every injected fault must land in exactly one per-host ledger
//!   bucket (unreachable → fetch failure, corrupt/truncated → decode
//!   failure), silent hosts must age into staleness, and the final view
//!   must still conserve over the hosts that stayed live.
//!
//! Everything on **stdout** and every non-`wall_` JSON field is
//! deterministic in the seed — CI runs the binary twice and diffs both.
//! Wall-clock timings (merge throughput, rollup latency) go to stderr
//! and to `wall_`-prefixed JSON keys only.
//!
//! Usage: `ext_fleet [seed] [--smoke] [--hosts N] [--targets N]
//! [--json PATH | --no-json]` (seed defaults to 11, JSON to
//! `BENCH_fleet.json`; `--smoke` shrinks the fleet for CI).

use fleet::{encode_frame, ChaosEndpoint, FleetCollector, HostFrame, PollConfig, ServiceEndpoint};
use simkit::{splitmix64, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, StatsService, VscsiEvent};
use vscsistats_bench::reporting::{shape_report, ShapeCheck};

const TENANTS: u64 = 8;
const CHAOS_POLLS: u64 = 5;

/// Builds one host's service and feeds every one of its targets a small
/// deterministic workload (mixed sizes, strides, and latencies so every
/// metric's histogram sees occupied bins).
fn build_host(seed: u64, host: u64, targets: usize) -> Arc<StatsService> {
    let service = Arc::new(StatsService::with_shards(CollectorConfig::default(), 4));
    service.enable_all();
    let mut events = Vec::new();
    let mut request_id = 0u64;
    for t in 0..targets {
        let target = TargetId::new(VmId(t as u32), VDiskId(0));
        let mix0 = splitmix64(seed ^ host.wrapping_mul(0x517C_C1B7_2722_0A95) ^ t as u64);
        let records = 8 + (mix0 % 8);
        let mut t_us = mix0 % 1_000;
        for r in 0..records {
            let mix = splitmix64(mix0 ^ r);
            let direction = if mix.is_multiple_of(3) {
                IoDirection::Write
            } else {
                IoDirection::Read
            };
            let sectors = 8u32 << (mix % 6);
            let lba = Lba::new((mix >> 8) % (1 << 30));
            let latency_us = 50 + (mix >> 40) % 20_000;
            let req = IoRequest::new(
                RequestId(request_id),
                target,
                direction,
                lba,
                sectors,
                SimTime::from_micros(t_us),
            );
            request_id += 1;
            events.push(VscsiEvent::Issue(req));
            events.push(VscsiEvent::Complete(IoCompletion::new(
                req,
                SimTime::from_micros(t_us + latency_us),
            )));
            t_us += 100 + mix % 5_000;
        }
    }
    service.handle_batch(&events);
    service
}

fn build_fleet(seed: u64, hosts: u64, targets: u64) -> Vec<Arc<StatsService>> {
    let base = targets / hosts;
    let rem = (targets % hosts) as usize;
    (0..hosts as usize)
        .map(|h| build_host(seed, h as u64, base as usize + usize::from(h < rem)))
        .collect()
}

fn endpoints(services: &[Arc<StatsService>]) -> Vec<ServiceEndpoint> {
    services
        .iter()
        .enumerate()
        .map(|(h, service)| ServiceEndpoint::new(h as u64, h as u64 % TENANTS, Arc::clone(service)))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn bench_json(
    seed: u64,
    hosts: u64,
    targets: u64,
    direct_total: u64,
    fleet_total: u64,
    conserved: bool,
    wire_bytes: u64,
    resident_bytes: u64,
    chaos: &ChaosSummary,
    pass: bool,
    wall_merge_ms: f64,
    wall_assemble_us: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"fleet_rollup\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"hosts\": {hosts},");
    let _ = writeln!(out, "  \"tenants\": {TENANTS},");
    let _ = writeln!(out, "  \"targets\": {targets},");
    let _ = writeln!(out, "  \"direct_total_events\": {direct_total},");
    let _ = writeln!(out, "  \"fleet_total_events\": {fleet_total},");
    let _ = writeln!(out, "  \"conserved\": {conserved},");
    let _ = writeln!(out, "  \"wire_bytes\": {wire_bytes},");
    let _ = writeln!(out, "  \"resident_bytes\": {resident_bytes},");
    let _ = writeln!(
        out,
        "  \"wire_bytes_per_target\": {:.1},",
        wire_bytes as f64 / targets as f64
    );
    let _ = writeln!(
        out,
        "  \"wire_ratio\": {:.2},",
        resident_bytes as f64 / wire_bytes as f64
    );
    let _ = writeln!(
        out,
        "  \"chaos\": {{\"polls\": {}, \"ok\": {}, \"unreachable\": {}, \"corrupted\": {}, \
         \"truncated\": {}, \"exact_accounting\": {}, \"stale_hosts\": {}, \"conserved\": {}}},",
        chaos.polls,
        chaos.ok,
        chaos.unreachable,
        chaos.corrupted,
        chaos.truncated,
        chaos.exact,
        chaos.stale,
        chaos.conserved,
    );
    let _ = writeln!(out, "  \"pass\": {pass},");
    let _ = writeln!(out, "  \"wall_merge_ms\": {wall_merge_ms:.3},");
    let _ = writeln!(out, "  \"wall_assemble_us\": {wall_assemble_us:.3},");
    let _ = writeln!(
        out,
        "  \"wall_targets_per_sec\": {:.0}",
        targets as f64 / (wall_merge_ms / 1e3)
    );
    let _ = writeln!(out, "}}");
    out
}

struct ChaosSummary {
    polls: u64,
    ok: u64,
    unreachable: u64,
    corrupted: u64,
    truncated: u64,
    exact: bool,
    stale: usize,
    conserved: bool,
}

/// The chaos round: every poll's fate must be accounted exactly, and the
/// surviving view must still conserve.
fn run_chaos(services: &[Arc<StatsService>], seed: u64) -> ChaosSummary {
    let chaos_eps: Vec<_> = endpoints(services)
        .into_iter()
        .map(|ep| ChaosEndpoint::new(ep, seed, 10, 10, 10))
        .collect();
    // The minimal discipline (one attempt per window, no breaker) keeps
    // the poll ↔ ledger mapping 1:1, which exact accounting needs.
    let config = PollConfig::basic();
    let mut collector = FleetCollector::new(config, chaos_eps);
    let last = SimTime::ZERO + config.interval * (CHAOS_POLLS - 1);
    collector.run_until(last);
    let mut exact = true;
    let mut ok = 0u64;
    let mut unreachable = 0u64;
    let mut corrupted = 0u64;
    let mut truncated = 0u64;
    for (status, ep) in collector.status().iter().zip(collector.endpoints()) {
        let ledger = ep.ledger();
        exact &= status.polls() == CHAOS_POLLS;
        exact &= status.fetch_failures == ledger.unreachable;
        exact &= status.decode_failures == ledger.corrupted + ledger.truncated;
        exact &= status.frames_ok == CHAOS_POLLS - ledger.total();
        ok += status.frames_ok;
        unreachable += ledger.unreachable;
        corrupted += ledger.corrupted;
        truncated += ledger.truncated;
    }
    let view = collector.view(last);
    ChaosSummary {
        polls: CHAOS_POLLS * services.len() as u64,
        ok,
        unreachable,
        corrupted,
        truncated,
        exact,
        stale: view.stale_hosts(),
        conserved: view.conserves() && view.fleet.hosts + view.stale_hosts() == services.len(),
    }
}

fn main() {
    let mut seed: u64 = 11;
    let mut hosts: u64 = 256;
    let mut targets: u64 = 10_240;
    let mut scaled = false;
    let mut json_path = Some(String::from("BENCH_fleet.json"));
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = it.next(),
            "--no-json" => json_path = None,
            "--smoke" => {
                hosts = 16;
                targets = 320;
                scaled = true;
            }
            "--hosts" => {
                hosts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--hosts needs a positive number");
                        std::process::exit(2);
                    });
                scaled = true;
            }
            "--targets" => {
                targets = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--targets needs a positive number");
                        std::process::exit(2);
                    });
                scaled = true;
            }
            other => match other.parse() {
                Ok(v) => seed = v,
                Err(_) => {
                    eprintln!(
                        "unknown argument {other:?} (usage: ext_fleet [seed] [--smoke] \
                         [--hosts N] [--targets N] [--json PATH | --no-json])"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    if targets < hosts {
        eprintln!("error: need at least one target per host");
        std::process::exit(2);
    }
    println!(
        "=== Extension: fleet rollup — {hosts} host(s), {targets} target(s), \
         {TENANTS} tenant(s) (seed {seed}) ===\n"
    );

    eprintln!("building fleet...");
    let services = build_fleet(seed, hosts, targets);

    // The no-wire ground truth: snapshot every service directly and count
    // every observation. The rollup after fetch → decode → merge must
    // reproduce this number exactly.
    let mut direct_total = 0u64;
    let mut wire_bytes = 0u64;
    let mut resident_bytes = 0u64;
    let mut decode_spot_ok = true;
    for (h, service) in services.iter().enumerate() {
        let frame = HostFrame::snapshot(h as u64, 0, 1, service);
        direct_total += frame.total_events();
        let bytes = encode_frame(&frame).expect("live snapshots always encode");
        if h == 0 {
            decode_spot_ok = fleet::decode_frame(&bytes).as_ref() == Ok(&frame);
        }
        wire_bytes += bytes.len() as u64;
        resident_bytes += frame
            .targets
            .iter()
            .flat_map(|t| t.histograms.iter())
            .map(|hist| 8 * hist.counts().len() as u64)
            .sum::<u64>();
    }

    // Clean round, twice: the second run proves the pipeline deterministic.
    let run_clean = || {
        let mut collector = FleetCollector::new(PollConfig::default(), endpoints(&services));
        let t0 = Instant::now();
        collector.run_until(SimTime::ZERO);
        let merge = t0.elapsed();
        let t1 = Instant::now();
        let view = collector.view(SimTime::ZERO);
        (view, merge, t1.elapsed())
    };
    eprintln!("clean round: fetch -> decode -> merge over {hosts} host(s)...");
    let (view, wall_merge, wall_assemble) = run_clean();
    let (view_again, _, _) = run_clean();

    let fleet_total = view.fleet.agg.total_events();
    let conserved = view.conserves() && fleet_total == direct_total;
    let deterministic = view == view_again && view.fleet.agg.same_counters(&view_again.fleet.agg);

    println!("--- clean round ---");
    println!(
        "hosts={} targets={} tenants={}",
        view.fleet.hosts,
        view.fleet.targets,
        view.tenants.len()
    );
    println!("direct_total={direct_total} fleet_total={fleet_total} conserved={conserved}");
    println!(
        "wire_bytes={wire_bytes} resident_bytes={resident_bytes} \
         bytes_per_target={:.1} ratio={:.2}x",
        wire_bytes as f64 / targets as f64,
        resident_bytes as f64 / wire_bytes as f64
    );
    let wall_merge_ms = wall_merge.as_secs_f64() * 1e3;
    let wall_assemble_us = wall_assemble.as_secs_f64() * 1e6;
    eprintln!(
        "merge wall: {wall_merge_ms:.1} ms ({:.0} targets/s); rollup assemble: \
         {wall_assemble_us:.0} us",
        targets as f64 / wall_merge.as_secs_f64()
    );
    println!();

    eprintln!("chaos round: {CHAOS_POLLS} polls/host at 10% drop / 10% flip / 10% truncate...");
    let chaos = run_chaos(&services, seed);
    println!("--- chaos round ---");
    println!(
        "polls={} ok={} unreachable={} corrupted={} truncated={}",
        chaos.polls, chaos.ok, chaos.unreachable, chaos.corrupted, chaos.truncated
    );
    println!(
        "exact_accounting={} stale_hosts={} conserved={}",
        chaos.exact, chaos.stale, chaos.conserved
    );
    println!();

    let scale_claim = if scaled {
        "fleet matches the requested scale"
    } else {
        "fleet covers >= 10k targets across >= 256 hosts"
    };
    let checks = vec![
        ShapeCheck::new(
            scale_claim,
            format!("{hosts} host(s), {targets} target(s)"),
            scaled || (hosts >= 256 && targets >= 10_000),
        ),
        ShapeCheck::new(
            "every host polled, decoded, and merged",
            format!("live hosts = {} of {hosts}", view.fleet.hosts),
            view.fleet.hosts == hosts as usize && view.fleet.targets == targets as usize,
        ),
        ShapeCheck::new(
            "rollup conserves exactly against the no-wire ground truth",
            format!("fleet {fleet_total} == direct {direct_total}: {conserved}"),
            conserved,
        ),
        ShapeCheck::new(
            "frames decode bit-exactly",
            format!("spot-checked host 0: {decode_spot_ok}"),
            decode_spot_ok,
        ),
        ShapeCheck::new(
            "wire form beats the resident slab by >= 2x",
            format!(
                "{:.2}x ({:.1} bytes/target on the wire)",
                resident_bytes as f64 / wire_bytes as f64,
                wire_bytes as f64 / targets as f64
            ),
            wire_bytes * 2 < resident_bytes,
        ),
        ShapeCheck::new(
            "same seed reproduces the rollup bit-exactly",
            format!("views equal: {deterministic}"),
            deterministic,
        ),
        ShapeCheck::new(
            "chaos: every injected fault lands in exactly one ledger bucket",
            format!(
                "ok {} + unreachable {} + corrupted {} + truncated {} == polls {}: {}",
                chaos.ok,
                chaos.unreachable,
                chaos.corrupted,
                chaos.truncated,
                chaos.polls,
                chaos.exact
            ),
            chaos.exact
                && chaos.ok + chaos.unreachable + chaos.corrupted + chaos.truncated == chaos.polls,
        ),
        ShapeCheck::new(
            "chaos: the surviving view still conserves",
            format!("stale={} conserved={}", chaos.stale, chaos.conserved),
            chaos.conserved,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");

    if let Some(path) = json_path {
        let json = bench_json(
            seed,
            hosts,
            targets,
            direct_total,
            fleet_total,
            conserved,
            wire_bytes,
            resident_bytes,
            &chaos,
            ok,
            wall_merge_ms,
            wall_assemble_us,
        );
        match std::fs::write(&path, &json) {
            // stderr: CI diffs stdout of two runs writing different paths.
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
