//! Extension experiment: the hardened fleet plane under chaos.
//!
//! Where `ext_fleet` proves the happy path conserves at scale, this bench
//! proves the *discipline*: retry/backoff, quarantine, eviction, and
//! restart-safe windowed rollup, with every injected fault accounted for
//! exactly. A small fleet (24 hosts, 4 tenants) runs 16 poll windows with
//! skewed tenants (tenant 0 carries ~half the targets) and a bursty
//! tenant (tenant 1 ingests 6× on every fourth window), while four
//! scripted miscreants exercise each hardening layer:
//!
//! * **flapper** — unreachable on odd windows: fails whole windows
//!   (retries can't save a host that is down for the window) but never
//!   trips the breaker, because the streak resets every even window.
//! * **glitchy** — drops exactly the first attempt of every window: the
//!   retry discipline rescues every single window.
//! * **dead** — goes silent at window 4 and never returns: the breaker
//!   opens after 3 failed windows, probes on its cadence, and the host is
//!   evicted once it is 8 windows past its last good frame.
//! * **restarter** — rebooted at window 8: a fresh service with a bumped
//!   epoch (`VFLHIST3` carries it) and a reset frame sequence. The
//!   collector re-bases, books exactly one lost window, and the restart
//!   must merge into the windowed running total with *zero*
//!   double-counting, bit for bit.
//!
//! Accounting is reconciled exactly, not approximately: every fetch
//! failure equals an injected outage, attempts = windows attempted +
//! retries, scheduled windows = ok + failed + suppressed, and
//! `FleetView::conserves` holds for the cumulative, per-window, and
//! windowed-total views at every window.
//!
//! Stdout is a function of the seed and nothing else, and the exit status
//! is "every check passed" — `crates/bench/tests/suites.rs` runs the binary
//! twice and compares.
//!
//! Usage: `ext_fleetchaos [seed]` (seed defaults to 23).

use fleet::{
    BreakerPolicy, BreakerState, FetchError, FleetCollector, HostEndpoint, PollConfig, RetryPolicy,
    ServiceEndpoint,
};
use simkit::{splitmix64, SimDuration, SimTime};
use std::sync::Arc;
use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::{CollectorConfig, StatsService};
use vscsistats_bench::reporting::seed_arg;
use vscsistats_bench::scenarios::synthetic_commands;

const HOSTS: u64 = 24;
const TENANTS: u64 = 4;
const WINDOWS: u64 = 16;
const BURST_TENANT: u64 = 1;
const BURST_EVERY: u64 = 4;
const BURST_MULT: u64 = 6;
const FLAPPER: usize = 1;
const GLITCHY: usize = 2;
const DEAD: usize = 3;
const DEAD_FROM: u64 = 4;
const RESTARTER: usize = 4;
const RESTART_WINDOW: u64 = 8;
const EVICT_AFTER: u64 = 8;

fn tenant_of(host: u64) -> u64 {
    host % TENANTS
}

/// Skewed target distribution: tenant 0 hosts carry 5× the targets.
fn targets_of(host: u64) -> u64 {
    if tenant_of(host) == 0 {
        40
    } else {
        8
    }
}

fn fresh_service() -> Arc<StatsService> {
    let service = Arc::new(StatsService::with_shards(CollectorConfig::default(), 4));
    service.enable_all();
    service
}

/// Feeds one host's service its window-`w` workload: a deterministic
/// trickle per target, multiplied on the bursty tenant's burst windows.
fn feed_host(service: &StatsService, seed: u64, host: u64, w: u64) {
    let burst = if tenant_of(host) == BURST_TENANT && w.is_multiple_of(BURST_EVERY) {
        BURST_MULT
    } else {
        1
    };
    let mut events = Vec::new();
    let mut request_id = (host << 40) | (w << 20);
    for t in 0..targets_of(host) {
        let target = TargetId::new(VmId(t as u32), VDiskId(0));
        let key = splitmix64(
            seed ^ host.wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ w.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ t,
        );
        let count = burst * (1 + key % 3);
        let start_us = w * 1_000_000 + key % 1_000;
        events.extend(synthetic_commands(target, key, count, start_us, request_id));
        request_id += count;
    }
    service.handle_batch(&events);
}

/// What kind of miscreant (if any) an endpoint is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// Unreachable on odd windows.
    Flapper,
    /// Drops exactly the first attempt of every window.
    Glitchy,
    /// Unreachable from this window on, forever.
    DeadFrom(u64),
}

/// A bench endpoint: a live [`ServiceEndpoint`] behind a deterministic
/// outage script, with its own exact injected-fault ledger.
struct ChaosHost {
    inner: ServiceEndpoint,
    fault: Fault,
    interval: SimDuration,
    last_window: Option<u64>,
    injected: u64,
}

impl ChaosHost {
    fn new(inner: ServiceEndpoint, fault: Fault, interval: SimDuration) -> Self {
        ChaosHost {
            inner,
            fault,
            interval,
            last_window: None,
            injected: 0,
        }
    }

    /// Host reboot: fresh service, fresh frame sequence.
    fn restart(&mut self, service: Arc<StatsService>) {
        self.inner.restart_with(service);
    }
}

impl HostEndpoint for ChaosHost {
    fn host_id(&self) -> u64 {
        self.inner.host_id()
    }

    fn tenant_id(&self) -> u64 {
        self.inner.tenant_id()
    }

    fn fetch(&mut self, now: SimTime) -> Result<Vec<u8>, FetchError> {
        let w = now.as_nanos() / self.interval.as_nanos();
        let first_attempt = self.last_window != Some(w);
        self.last_window = Some(w);
        let down = match self.fault {
            Fault::None => false,
            Fault::Flapper => w % 2 == 1,
            Fault::Glitchy => first_attempt,
            Fault::DeadFrom(from) => w >= from,
        };
        if down {
            self.injected += 1;
            return Err(FetchError::new("injected: host unreachable"));
        }
        self.inner.fetch(now)
    }
}

fn check(pass: &mut bool, ok: bool, what: &str) -> bool {
    if !ok {
        *pass = false;
        println!("CHECK FAILED: {what}");
    }
    ok
}

fn main() {
    let seed = seed_arg(23);
    let targets_total: u64 = (0..HOSTS).map(targets_of).sum();
    println!(
        "ext_fleetchaos: seed {seed}, {HOSTS} host(s) / {TENANTS} tenant(s), \
         {targets_total} target(s), {WINDOWS} window(s)"
    );
    println!(
        "scenario: flapper host {FLAPPER} (odd windows), glitchy host {GLITCHY} \
         (first attempt each window), dead host {DEAD} (from window {DEAD_FROM}), \
         restarter host {RESTARTER} (at window {RESTART_WINDOW})"
    );

    let interval = SimDuration::from_secs(1);
    let config = PollConfig {
        interval,
        stale_after: 2,
        evict_after: EVICT_AFTER,
        retry: RetryPolicy {
            attempts: 3,
            backoff_base: SimDuration::from_millis(50),
            backoff_max: SimDuration::from_millis(200),
            seed,
        },
        breaker: BreakerPolicy {
            open_after: 3,
            probe_every: 2,
        },
    };

    let mut services: Vec<Arc<StatsService>> = (0..HOSTS).map(|_| fresh_service()).collect();
    let endpoints: Vec<ChaosHost> = (0..HOSTS)
        .map(|h| {
            let fault = match h as usize {
                FLAPPER => Fault::Flapper,
                GLITCHY => Fault::Glitchy,
                DEAD => Fault::DeadFrom(DEAD_FROM),
                _ => Fault::None,
            };
            let ep = ServiceEndpoint::new(h, tenant_of(h), Arc::clone(&services[h as usize]));
            ChaosHost::new(ep, fault, interval)
        })
        .collect();
    let mut collector = FleetCollector::new(config, endpoints);

    let mut pass = true;
    let mut pre_restart = None;
    for w in 0..WINDOWS {
        if w == RESTART_WINDOW {
            // Reboot the restarter: its pre-restart snapshot is frozen
            // here to prove the merge double-counts nothing.
            pre_restart = Some(collector.status()[RESTARTER].agg().clone());
            let fresh = fresh_service();
            fresh.set_epoch(collector.status()[RESTARTER].epoch + 1);
            services[RESTARTER] = Arc::clone(&fresh);
            collector.endpoints_mut()[RESTARTER].restart(fresh);
        }
        for h in 0..HOSTS {
            feed_host(&services[h as usize], seed, h, w);
        }
        let now = SimTime::from_secs(w);
        collector.run_until(now);
        let wv = collector.window_view(now);
        check(&mut pass, wv.conserves(), "window view conserves");
        let cv = collector.view(now);
        check(&mut pass, cv.conserves(), "cumulative view conserves");
        let tv = collector.windowed_total_view(now);
        check(&mut pass, tv.conserves(), "windowed-total view conserves");
    }
    let last = SimTime::from_secs(WINDOWS - 1);

    verify_and_report(
        &collector,
        pre_restart.expect("restart window ran"),
        pass,
        last,
    );
}

/// Fleet-wide counter totals, summed from per-host ledgers.
#[derive(Default)]
struct Totals {
    offered_windows: u64,
    ok_windows: u64,
    failed_windows: u64,
    suppressed_windows: u64,
    attempts: u64,
    fetch_failures: u64,
    decode_failures: u64,
    retries: u64,
    retry_successes: u64,
    quarantine_entries: u64,
    quarantine_exits: u64,
    probe_attempts: u64,
    probe_successes: u64,
    probe_failures: u64,
    epoch_bumps: u64,
    regressions: u64,
    lost_windows: u64,
    bridged_windows: u64,
    seq_rejects: u64,
    injected: u64,
}

fn verify_and_report(
    collector: &FleetCollector<ChaosHost>,
    pre_restart: fleet::AggSet,
    mut pass: bool,
    last: SimTime,
) {
    let mut t = Totals::default();
    for (s, ep) in collector.status().iter().zip(collector.endpoints()) {
        t.offered_windows += s.windows_scheduled;
        t.ok_windows += s.ok_windows;
        t.failed_windows += s.failed_windows;
        t.suppressed_windows += s.suppressed_windows;
        t.attempts += s.polls();
        t.fetch_failures += s.fetch_failures;
        t.decode_failures += s.decode_failures;
        t.retries += s.retries;
        t.retry_successes += s.retry_successes;
        t.quarantine_entries += s.quarantine_entries;
        t.quarantine_exits += s.quarantine_exits;
        t.probe_attempts += s.probe_attempts;
        t.probe_successes += s.probe_successes;
        t.probe_failures += s.probe_failures;
        t.epoch_bumps += s.epoch_bumps;
        t.regressions += s.regressions;
        t.lost_windows += s.lost_windows;
        t.bridged_windows += s.bridged_windows;
        t.seq_rejects += s.seq_rejects;
        t.injected += ep.injected;

        // The two per-host conservation laws, every host.
        check(
            &mut pass,
            s.windows_scheduled == s.ok_windows + s.failed_windows + s.suppressed_windows,
            "windows scheduled = ok + failed + suppressed",
        );
        let attempted_windows = s.windows_scheduled - s.suppressed_windows;
        check(
            &mut pass,
            s.polls() == attempted_windows + s.retries,
            "attempts = attempted windows + retries",
        );
        // Every fetch failure is an injected outage, exactly; the wire
        // itself never failed.
        check(
            &mut pass,
            s.fetch_failures == ep.injected,
            "fetch failures = injected",
        );
        check(&mut pass, s.decode_failures == 0, "no decode failures");
        // Restart safety, every host: the running total is exactly the
        // banked epochs plus the live epoch, bit for bit.
        let mut rebuilt = s.epoch_base().clone();
        rebuilt.merge(s.agg());
        check(
            &mut pass,
            rebuilt.same_counters(s.windowed_total()),
            "windowed total = epoch base + live epoch",
        );
    }

    // The four miscreants played their exact parts.
    let flapper = &collector.status()[FLAPPER];
    check(
        &mut pass,
        flapper.failed_windows == WINDOWS / 2,
        "flapper fails odd windows",
    );
    check(
        &mut pass,
        flapper.retry_successes == 0,
        "flapper windows are not rescuable",
    );
    check(
        &mut pass,
        flapper.breaker() == BreakerState::Closed,
        "flapper never trips breaker",
    );
    check(
        &mut pass,
        flapper.bridged_windows == 7,
        "flapper gaps bridged by even windows",
    );
    let glitchy = &collector.status()[GLITCHY];
    check(
        &mut pass,
        glitchy.ok_windows == WINDOWS,
        "glitchy loses no window",
    );
    check(
        &mut pass,
        glitchy.retry_successes == WINDOWS,
        "every glitchy window rescued",
    );
    check(
        &mut pass,
        glitchy.retries == WINDOWS,
        "one retry per glitchy window",
    );
    let dead = &collector.status()[DEAD];
    check(&mut pass, dead.evicted, "dead host evicted");
    check(
        &mut pass,
        dead.quarantine_entries == 1 && dead.quarantine_exits == 0,
        "dead host quarantined once, never exits",
    );
    check(
        &mut pass,
        dead.probe_attempts == 2 && dead.probe_failures == 2,
        "dead host probed twice, both fail",
    );
    check(
        &mut pass,
        dead.suppressed_windows == 3,
        "dead host suppressed windows",
    );
    check(
        &mut pass,
        dead.windows_scheduled == 12,
        "dead host polling stops at eviction",
    );
    let restarter = &collector.status()[RESTARTER];
    check(
        &mut pass,
        restarter.epoch_bumps == 1 && restarter.regressions == 0,
        "restart detected by wire epoch, not regression",
    );
    check(
        &mut pass,
        restarter.lost_windows == 1,
        "restart loses exactly the death window",
    );
    check(&mut pass, restarter.epoch == 1, "restarter epoch advanced");
    check(
        &mut pass,
        restarter.seq_rejects == 0,
        "seq restart is not a replay",
    );
    check(
        &mut pass,
        restarter.epoch_base().same_counters(&pre_restart),
        "banked epoch is the pre-restart snapshot, bit for bit",
    );
    let mut merged = pre_restart.clone();
    merged.merge(restarter.agg());
    check(
        &mut pass,
        merged.same_counters(restarter.windowed_total()),
        "post-restart deltas merge without double-counting",
    );

    // Final views.
    let cv = collector.view(last);
    let tv = collector.windowed_total_view(last);
    check(
        &mut pass,
        cv.conserves() && tv.conserves(),
        "final views conserve",
    );
    check(&mut pass, cv.evicted == 1, "eviction booked in the view");
    check(
        &mut pass,
        cv.hosts.len() == HOSTS as usize - 1,
        "evicted host has no leaf",
    );

    println!(
        "windows: offered {} = ok {} + failed {} + suppressed {}",
        t.offered_windows, t.ok_windows, t.failed_windows, t.suppressed_windows
    );
    println!(
        "attempts: {} = attempted windows {} + retries {} (rescued {})",
        t.attempts,
        t.offered_windows - t.suppressed_windows,
        t.retries,
        t.retry_successes
    );
    println!(
        "faults: injected {} = fetch failures {} (decode failures {})",
        t.injected, t.fetch_failures, t.decode_failures
    );
    println!(
        "quarantine: {} entered / {} exited, probes {} (ok {} / fail {}), evicted {}",
        t.quarantine_entries,
        t.quarantine_exits,
        t.probe_attempts,
        t.probe_successes,
        t.probe_failures,
        collector.evicted_hosts(),
    );
    println!(
        "epochs: {} bump(s) ({} by regression), lost {} window(s), bridged {}, seq rejects {}",
        t.epoch_bumps, t.regressions, t.lost_windows, t.bridged_windows, t.seq_rejects
    );
    println!(
        "fleet events: cumulative {} / windowed total {}",
        cv.fleet.agg.total_events(),
        tv.fleet.agg.total_events()
    );
    print!("{}", collector.render_status(last));
    println!("{}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        std::process::exit(1);
    }
}
