//! Extension experiment: the fleet aggregation plane at scale.
//!
//! Builds a simulated fleet — 256 hosts carrying 10 240
//! (VM, disk) targets between them, split across 8 tenants — feeds every
//! target a deterministic synthetic workload, and then drives the full
//! fetch → decode → merge pipeline twice:
//!
//! * **Clean round** — every host answers. The assembled
//!   host → tenant → fleet rollup must conserve *exactly*: the fleet
//!   root's histograms, bin for bin, equal the sum of what every host
//!   reported, which in turn equals a direct (no-wire) snapshot of every
//!   service. The round also sizes the wire: bytes per target on the
//!   frame versus the resident counter slab.
//! * **Chaos round** — every endpoint is wrapped in a seeded
//!   [`ChaosEndpoint`] that drops, bit-flips, or truncates a slice of
//!   polls. Every injected fault must land in exactly one per-host ledger
//!   bucket (unreachable → fetch failure, corrupt/truncated → decode
//!   failure), silent hosts must age into staleness, and the final view
//!   must still conserve over the hosts that stayed live.
//!
//! Stdout is a function of the seed and nothing else, and the exit status
//! is "every check passed" — `crates/bench/tests/suites.rs` runs the binary
//! twice and compares. What the rollup costs in wall-clock time is
//! `ext_e2e`'s `fleet_rollup` workload's to say.
//!
//! Usage: `ext_fleet [seed]` (seed defaults to 11).

use fleet::{encode_frame, ChaosEndpoint, FleetCollector, HostFrame, PollConfig, ServiceEndpoint};
use simkit::{splitmix64, SimTime};
use std::sync::Arc;
use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, StatsService};
use vscsistats_bench::reporting::{seed_arg, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::synthetic_commands;

const HOSTS: u64 = 256;
const TARGETS_PER_HOST: u64 = 40;
const TARGETS: u64 = HOSTS * TARGETS_PER_HOST;
const TENANTS: u64 = 8;
const CHAOS_POLLS: u64 = 5;

/// Builds one host's service and feeds every one of its targets a small
/// deterministic workload.
fn build_host(seed: u64, host: u64) -> Arc<StatsService> {
    let service = Arc::new(StatsService::with_shards(CollectorConfig::default(), 4));
    service.enable_all();
    let mut events = Vec::new();
    let mut request_id = 0u64;
    for t in 0..TARGETS_PER_HOST {
        let target = TargetId::new(VmId(t as u32), VDiskId(0));
        let key = splitmix64(seed ^ host.wrapping_mul(0x517C_C1B7_2722_0A95) ^ t);
        let count = 8 + key % 8;
        events.extend(synthetic_commands(
            target,
            key,
            count,
            key % 1_000,
            request_id,
        ));
        request_id += count;
    }
    service.handle_batch(&events);
    service
}

fn endpoints(services: &[Arc<StatsService>]) -> Vec<ServiceEndpoint> {
    services
        .iter()
        .enumerate()
        .map(|(h, service)| ServiceEndpoint::new(h as u64, h as u64 % TENANTS, Arc::clone(service)))
        .collect()
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
    let seed = seed_arg(11);
    println!(
        "=== Extension: fleet rollup — {HOSTS} host(s), {TARGETS} target(s), \
         {TENANTS} tenant(s) (seed {seed}) ===\n"
    );

    let services: Vec<_> = (0..HOSTS).map(|host| build_host(seed, host)).collect();

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
            .map(|t| size_of_val(t.set.counters()) as u64)
            .sum::<u64>();
    }

    // Clean round, twice: the second run proves the pipeline deterministic.
    let run_clean = || {
        let mut collector = FleetCollector::new(PollConfig::default(), endpoints(&services));
        collector.run_until(SimTime::ZERO);
        collector.view(SimTime::ZERO)
    };
    let view = run_clean();
    let view_again = run_clean();

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
        wire_bytes as f64 / TARGETS as f64,
        resident_bytes as f64 / wire_bytes as f64
    );
    println!();

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

    let checks = vec![
        ShapeCheck::new(
            "fleet covers >= 10k targets across >= 256 hosts",
            format!("{HOSTS} host(s), {TARGETS} target(s)"),
            services.len() >= 256 && view.fleet.targets >= 10_000,
        ),
        ShapeCheck::new(
            "every host polled, decoded, and merged",
            format!("live hosts = {} of {HOSTS}", view.fleet.hosts),
            view.fleet.hosts == HOSTS as usize && view.fleet.targets == TARGETS as usize,
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
                wire_bytes as f64 / TARGETS as f64
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
    if !ok {
        std::process::exit(1);
    }
}
