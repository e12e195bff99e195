//! Extension experiment: the crash-consistency plane, end to end.
//!
//! Four seeded crash scenarios run the full pipeline — a live
//! [`StatsService`] streaming per-target traces into a durable
//! `tracestore`, a [`CheckpointDaemon`] writing `VSCKPT2` snapshots on a
//! virtual-clock cadence, and a fleet collector polling the host every
//! window — then kill the simulated kernel at a scheduled point, restart,
//! and prove the recovery invariant:
//!
//! > recovered state == last durable checkpoint + replayable trace tail,
//! > with only the post-checkpoint tail booked as lost — never silently
//! > absorbed.
//!
//! * **mid-checkpoint** — hostile filesystem weather (torn writes,
//!   dropped fsyncs, reordered renames) on the checkpoint medium, then a
//!   mid-write kill: recovery skips every sabotaged file on CRCs alone
//!   and lands on the frontier the daemon's ledger believes in.
//! * **fsync-rename-gap** — death between fsync and rename: the staged
//!   `.tmp` is fully durable (it decodes!) but recovery must ignore it.
//! * **post-rename** — death right after the commit rename: the freshest
//!   checkpoint is durable; also exercises `command("checkpoint")` and
//!   the health row on the way.
//! * **segment-roll** — the guillotine falls on the *trace store's*
//!   backend mid-roll: the tail beyond the last durable chunk is lost,
//!   counted exactly, and the fleet view still conserves.
//!
//! After each crash the harness restores via [`load_latest`] +
//! [`StatsService::from_checkpoint`], re-attaches streaming traces at the
//! checkpointed watermarks (restore must be bit-identical to the decoded
//! checkpoint — compared on encoded bytes), replays the durable trace
//! tail, bumps the epoch, and keeps running: the fleet collector must
//! absorb the restarted host with **zero double-counted bins** — the
//! resumed-epoch path when the recovered counters continue cleanly, the
//! banked-epoch path when the lost tail shows up as a regression — and
//! every conservation ledger (checkpoint I/O, fault plan, fleet views)
//! must close across the crash.
//!
//! Stdout is a function of the seed and nothing else, and the exit status
//! is "every check passed" — `crates/bench/tests/suites.rs` runs the binary
//! twice and compares.
//!
//! Usage: `ext_crash [seed]` (seed defaults to 11).

use faultkit::{CrashPhase, CrashSchedule, FsFaultConfig, FsFaults};
use fleet::{BreakerPolicy, FleetCollector, PollConfig, RetryPolicy, ServiceEndpoint};
use simkit::{splitmix64, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tracestore::{read_segment, TraceStore, TraceStoreConfig, SEGMENT_EXTENSION};
use vscsi::{TargetId, VDiskId, VmId};
use vscsi_stats::{
    load_latest, CheckpointConfig, CheckpointDaemon, CollectorConfig, FsMedium, ServiceCheckpoint,
    StatsService, TraceRecord, TraceSink, VscsiEvent,
};
use vscsistats_bench::reporting::seed_arg;
use vscsistats_bench::scenarios::synthetic_commands;

const HOST: u64 = 7;
const TENANT: u64 = 1;
const TARGETS: u64 = 3;
const WINDOW_NS: u64 = 1_000_000_000;
const PRE_WINDOWS: u64 = 12;
const POST_WINDOWS: u64 = 6;

/// Which durability seam the scheduled crash falls on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CrashSide {
    /// The checkpoint daemon's medium.
    Checkpoint,
    /// The trace store's segment backend.
    Segments,
}

struct Scenario {
    name: &'static str,
    /// Fault weather on the checkpoint medium (the segment backend runs
    /// healthy weather in every scenario; its crash is scheduled, not
    /// drawn).
    weather: FsFaultConfig,
    /// Windows between checkpoints.
    ckpt_every: u64,
    side: CrashSide,
    crash: CrashSchedule,
    /// Segment size cap for the trace store.
    segment_max_bytes: usize,
    /// Chunk size for the trace store.
    chunk_bytes: usize,
    /// Fire `command("checkpoint")` during this window, if any.
    request_at: Option<u64>,
    /// The crash must leave a fully-written-but-unrenamed `.tmp` behind.
    expect_tmp_orphan: bool,
    /// Whether the crash is expected to lose part of the trace tail.
    expect_lost: bool,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mid-checkpoint",
            weather: FsFaultConfig {
                torn_write_permille: 120,
                dropped_fsync_permille: 80,
                rename_reorder_permille: 80,
                read_error_permille: 0,
                torn_keep_bound: 24,
            },
            ckpt_every: 1,
            side: CrashSide::Checkpoint,
            crash: CrashSchedule {
                at_create_op: 8,
                phase: CrashPhase::MidWrite,
            },
            segment_max_bytes: 64 << 20,
            // Small enough that the first chunk seals (and the segment
            // file opens) within the first windows.
            chunk_bytes: 1 << 10,
            request_at: None,
            expect_tmp_orphan: false,
            expect_lost: false,
        },
        Scenario {
            name: "fsync-rename-gap",
            weather: FsFaultConfig::healthy(),
            ckpt_every: 1,
            side: CrashSide::Checkpoint,
            crash: CrashSchedule {
                at_create_op: 6,
                phase: CrashPhase::AfterFsync,
            },
            segment_max_bytes: 64 << 20,
            // Small enough that the first chunk seals (and the segment
            // file opens) within the first windows.
            chunk_bytes: 1 << 10,
            request_at: None,
            expect_tmp_orphan: true,
            expect_lost: false,
        },
        Scenario {
            name: "post-rename",
            weather: FsFaultConfig::healthy(),
            ckpt_every: 2,
            side: CrashSide::Checkpoint,
            crash: CrashSchedule {
                at_create_op: 4,
                phase: CrashPhase::AfterRename,
            },
            segment_max_bytes: 64 << 20,
            // Small enough that the first chunk seals (and the segment
            // file opens) within the first windows.
            chunk_bytes: 1 << 10,
            request_at: Some(3),
            expect_tmp_orphan: false,
            expect_lost: false,
        },
        Scenario {
            name: "segment-roll",
            weather: FsFaultConfig::healthy(),
            ckpt_every: 2,
            side: CrashSide::Segments,
            crash: CrashSchedule {
                at_create_op: 9,
                phase: CrashPhase::MidWrite,
            },
            // Records are delta-encoded (~a dozen bytes each), so these
            // tiny caps force a chunk seal every window and a segment
            // roll every few — the crash op lands mid-run.
            segment_max_bytes: 768,
            chunk_bytes: 256,
            request_at: None,
            expect_tmp_orphan: false,
            expect_lost: true,
        },
    ]
}

fn target(t: u64) -> TargetId {
    TargetId::new(VmId(t as u32), VDiskId(0))
}

/// Feeds one window of fully-completing commands (each issues and
/// completes inside the batch, so the in-flight table is empty at every
/// window boundary — checkpoints cut between commands, never through
/// one). Returns commands fed.
fn feed(service: &StatsService, seed: u64, w: u64) -> u64 {
    let mut events = Vec::new();
    let first_request_id = (HOST << 40) | (w << 20);
    let mut fed = 0u64;
    for t in 0..TARGETS {
        let key = splitmix64(seed ^ w.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ t);
        let count = 24 + key % 12;
        let start_us = w * (WINDOW_NS / 1_000) + key % 1_000;
        events.extend(synthetic_commands(
            target(t),
            key,
            count,
            start_us,
            first_request_id + fed,
        ));
        fed += count;
    }
    service.handle_batch(&events);
    fed
}

fn check(pass: &mut bool, ok: bool, what: &str) -> bool {
    if !ok {
        *pass = false;
        println!("CHECK FAILED: {what}");
    }
    ok
}

/// Total issued commands across every collector in a checkpoint.
fn issued_of(ckpt: &ServiceCheckpoint) -> u64 {
    ckpt.targets
        .iter()
        .filter_map(|t| t.collector.as_ref())
        .map(|c| c.issued_commands)
        .sum()
}

/// Reads every record that actually survived on disk: segments in name
/// order, each either fully readable or skipped (a segment whose header
/// the crash beheaded is counted, not fatal).
fn durable_records(dir: &Path) -> (Vec<TraceRecord>, u32) {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXTENSION))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    let mut records = Vec::new();
    let mut unreadable = 0u32;
    for p in &paths {
        match read_segment(p) {
            Ok((mut recs, _integrity)) => records.append(&mut recs),
            Err(_) => unreadable += 1,
        }
    }
    (records, unreadable)
}

struct ScenarioOutcome {
    name: &'static str,
    windows_pre: u64,
    windows_post: u64,
    fed_pre: u64,
    fed_post: u64,
    durable_seq: u64,
    skipped_corrupt: u32,
    restore_bit_identical: bool,
    tail_replayed: u64,
    lost: u64,
    ledger: vscsi_stats::CheckpointLedger,
    fs_stats: faultkit::FsFaultStats,
    resumed: bool,
    lost_windows: u64,
    windowed_total_events: u64,
    post_durable_seq: u64,
    conserves: bool,
}

#[allow(clippy::too_many_lines)]
fn run_scenario(sc: &Scenario, seed: u64, base: &Path, pass: &mut bool) -> ScenarioOutcome {
    let c = |pass: &mut bool, ok: bool, what: &str| {
        check(pass, ok, &format!("{}: {what}", sc.name));
    };
    let ckpt_dir = base.join(sc.name).join("ckpt");
    let trace0 = base.join(sc.name).join("trace0");
    let trace1 = base.join(sc.name).join("trace1");
    for d in [&ckpt_dir, &trace0, &trace1] {
        fs::create_dir_all(d).expect("mkdir");
    }
    let sseed = splitmix64(seed ^ sc.name.len() as u64 ^ sc.crash.at_create_op);
    let faults_ckpt = FsFaults::new(sseed, sc.weather);
    let faults_seg = FsFaults::new(splitmix64(sseed ^ 0x5EED), FsFaultConfig::healthy());
    match sc.side {
        CrashSide::Checkpoint => faults_ckpt.schedule_crash(sc.crash),
        CrashSide::Segments => faults_seg.schedule_crash(sc.crash),
    }

    // The host: service + streaming traces + checkpoint daemon.
    let service = Arc::new(StatsService::with_shards(
        CollectorConfig::paper_figures(),
        4,
    ));
    service.enable_all();
    let mut store_config = TraceStoreConfig::new(&trace0);
    store_config.segment_max_bytes = sc.segment_max_bytes;
    store_config.chunk_bytes = sc.chunk_bytes;
    let store = TraceStore::create_with_medium(store_config.clone(), faults_seg.medium(FsMedium))
        .expect("trace store");
    for t in 0..TARGETS {
        service.start_trace_streaming(target(t), Box::new(store.handle()));
    }
    // Barrier handle: flushing it acks only after the writer thread has
    // drained everything queued before it, which pins the crash point to
    // a deterministic window.
    let mut barrier = store.handle();
    let mut ckpt_config = CheckpointConfig::new(&ckpt_dir);
    ckpt_config.interval_ns = sc.ckpt_every * WINDOW_NS;
    ckpt_config.retain = 1_000;
    let mut daemon = CheckpointDaemon::with_medium(
        Arc::clone(&service),
        ckpt_config.clone(),
        Box::new(faults_ckpt.medium(FsMedium)),
    );
    service.attach_checkpoint_health(daemon.health());

    // The fleet plane polling this host once per window.
    let poll_config = PollConfig {
        interval: SimDuration::from_nanos(WINDOW_NS),
        stale_after: 1_000,
        evict_after: 0,
        retry: RetryPolicy {
            attempts: 1,
            backoff_base: SimDuration::from_millis(50),
            backoff_max: SimDuration::from_millis(200),
            seed,
        },
        breaker: BreakerPolicy {
            open_after: 0,
            probe_every: 1,
        },
    };
    let endpoint = ServiceEndpoint::new(HOST, TENANT, Arc::clone(&service));
    let mut collector = FleetCollector::new(poll_config, vec![endpoint]);

    // Pre-crash run: feed, checkpoint, poll — until the guillotine.
    let mut fed_pre = 0u64;
    let mut windows_pre = 0u64;
    let mut crashed = false;
    for w in 0..PRE_WINDOWS {
        fed_pre += feed(&service, sseed, w);
        windows_pre = w + 1;
        barrier.flush();
        if faults_seg.crashed() {
            // The trace store's disk died mid-roll; the same power cut
            // takes the checkpoint medium with it.
            faults_ckpt.kill();
            crashed = true;
            break;
        }
        if sc.request_at == Some(w) {
            let out = service.command("checkpoint").expect("daemon attached");
            c(
                pass,
                out.contains("checkpoint requested"),
                "command(checkpoint) acks",
            );
        }
        let t = SimTime::from_nanos((w + 1) * WINDOW_NS);
        let _ = daemon.tick(t.as_nanos());
        if faults_ckpt.crashed() {
            faults_seg.kill();
            crashed = true;
            break;
        }
        collector.poll_due(t);
        let cv = collector.view(t);
        c(pass, cv.conserves(), "pre-crash cumulative view conserves");
    }
    c(
        pass,
        crashed,
        "scheduled crash fired within the pre-crash run",
    );
    if sc.request_at.is_some() {
        let health = service.command("health").expect("health");
        c(
            pass,
            health.contains("checkpoint: last_durable_seq="),
            "health row shows the checkpoint plane",
        );
    }

    // Freeze the god view and the fleet's last sight of the host.
    let live_snapshot = service.checkpoint_snapshot();
    let live_fetch = service.fetch_all_histograms();
    let live_issued = issued_of(&live_snapshot);
    c(
        pass,
        live_issued == fed_pre,
        "live service ingested every command",
    );
    let pre_crash_agg = collector.status()[0].agg().clone();

    // Tear down the dead host: tracers stop (their in-flight tails are
    // empty — bursts complete), the store drains whatever the crash
    // allows, the daemon is dropped with the wreckage.
    for t in 0..TARGETS {
        let leftovers = service.stop_trace(target(t));
        c(
            pass,
            leftovers.is_empty(),
            "no in-flight commands at the crash",
        );
    }
    drop(barrier);
    let report = store.finish();
    let ledger = daemon.health().ledger();
    let fs_stats = faults_ckpt.stats();
    c(
        pass,
        ledger.conserves(),
        "checkpoint ledger conserves across the crash",
    );
    c(pass, fs_stats.conserves(), "fault-plan ledger conserves");
    c(
        pass,
        fs_stats.matches_checkpoint_ledger(&ledger),
        "fault plan and checkpoint ledger agree bucket for bucket",
    );
    drop(daemon);

    // Recovery: newest durable checkpoint, skipping sabotage on CRCs.
    let rec = load_latest(&mut FsMedium, &ckpt_dir).expect("a durable checkpoint survives");
    let recovered_health_frontier = service
        .command("health")
        .ok()
        .map(|h| h.contains(&format!("last_durable_seq={}", rec.seq)))
        .unwrap_or(false);
    c(
        pass,
        recovered_health_frontier,
        "recovery and the daemon ledger agree on the durable frontier",
    );
    if sc.expect_tmp_orphan {
        // The staged file is fully durable at its temporary path — it
        // even decodes, one sequence past the durable frontier — but
        // recovery must not touch it.
        let tmp: Vec<PathBuf> = fs::read_dir(&ckpt_dir)
            .expect("readdir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.to_string_lossy().ends_with(".vsckpt.tmp"))
            .collect();
        c(
            pass,
            tmp.len() == 1,
            "exactly one staged .tmp survives the crash",
        );
        let decoded = fs::read(&tmp[0])
            .ok()
            .and_then(|bytes| ServiceCheckpoint::decode(&bytes).ok());
        c(
            pass,
            decoded.map(|(seq, _)| seq) == Some(rec.seq + 1),
            "the orphan is complete (fsync ran) yet ignored (rename did not)",
        );
    }

    // Restore and re-attach traces at the checkpointed watermarks: the
    // restored service must be bit-identical to the decoded checkpoint.
    let restored = Arc::new(StatsService::from_checkpoint(&rec.checkpoint, None));
    let store2 = TraceStore::create({
        let mut cfg = store_config.clone();
        cfg.dir = trace1.clone();
        cfg
    })
    .expect("restart trace store");
    let watermarks: BTreeMap<TargetId, u64> = rec
        .checkpoint
        .targets
        .iter()
        .filter_map(|t| t.tracer_watermark.map(|w| (t.target, w)))
        .collect();
    c(
        pass,
        watermarks.len() == TARGETS as usize,
        "checkpoint carries every tracer watermark",
    );
    for (&tgt, &wm) in &watermarks {
        restored.resume_trace_streaming(tgt, Box::new(store2.handle()), wm);
    }
    let restore_bit_identical =
        restored.checkpoint_snapshot().encode(rec.seq) == rec.checkpoint.encode(rec.seq);
    c(
        pass,
        restore_bit_identical,
        "restore(checkpoint(S)) is bit-identical",
    );

    // Replay the durable trace tail: records at or past each target's
    // watermark, in event-sequence order. The resumed tracers re-assign
    // the same sequence numbers, so the new boot's trace continues the
    // old one without a seam.
    let (durable, unreadable_segments) = durable_records(&trace0);
    c(
        pass,
        durable.len() as u64 == report.records,
        "every record the writer booked is readable back",
    );
    let tail: Vec<&TraceRecord> = durable
        .iter()
        .filter(|r| r.serial >= watermarks.get(&r.target).copied().unwrap_or(0))
        .collect();
    let mut replay_events: Vec<(TargetId, u64, VscsiEvent)> = Vec::with_capacity(tail.len() * 2);
    for r in &tail {
        let complete = r.to_completion().expect("bursts complete");
        replay_events.push((r.target, r.serial, VscsiEvent::Issue(r.to_request())));
        replay_events.push((
            r.target,
            r.complete_seq.expect("bursts complete"),
            VscsiEvent::Complete(complete),
        ));
    }
    replay_events.sort_by_key(|&(tgt, seq, _)| (tgt, seq));
    for (_, _, ev) in &replay_events {
        restored.handle_batch(std::slice::from_ref(ev));
    }
    let tail_replayed = tail.len() as u64;
    let ckpt_issued = issued_of(&rec.checkpoint);
    let recovered_issued = issued_of(&restored.checkpoint_snapshot());
    c(
        pass,
        recovered_issued == ckpt_issued + tail_replayed,
        "recovered state == checkpoint + replayed tail",
    );
    let lost = live_issued - recovered_issued;
    if sc.expect_lost {
        c(
            pass,
            lost > 0,
            "segment crash loses a tail, and it is booked",
        );
    } else {
        c(
            pass,
            lost == 0,
            "checkpoint-side crash loses nothing durable",
        );
        c(
            pass,
            restored.fetch_all_histograms() == live_fetch,
            "recovered histograms equal the pre-crash god view bit for bit",
        );
    }

    // The reboot: advertise the next epoch, keep the frame sequence.
    c(
        pass,
        restored.frame_seq() == rec.checkpoint.frame_seq,
        "frame sequence continues from the checkpoint",
    );
    restored.set_epoch(rec.checkpoint.epoch + 1);
    let mut daemon2 =
        CheckpointDaemon::with_medium(Arc::clone(&restored), ckpt_config, Box::new(FsMedium));
    restored.attach_checkpoint_health(daemon2.health());
    collector.endpoints_mut()[0].restart_with(Arc::clone(&restored));

    // Post-restart run: the fleet must absorb the recovered host with
    // zero double-counting.
    let mut fed_post = 0u64;
    let mut t_final = SimTime::from_nanos(windows_pre * WINDOW_NS);
    for w in windows_pre..windows_pre + POST_WINDOWS {
        fed_post += feed(&restored, sseed, w);
        let t = SimTime::from_nanos((w + 1) * WINDOW_NS);
        let _ = daemon2.tick(t.as_nanos());
        collector.poll_due(t);
        let cv = collector.view(t);
        c(
            pass,
            cv.conserves(),
            "post-restart cumulative view conserves",
        );
        t_final = t;
    }
    let post_durable_seq = daemon2.health().last_durable_seq().unwrap_or(0);
    c(
        pass,
        post_durable_seq > rec.seq,
        "post-restart checkpoints continue the sequence numbering",
    );
    c(
        pass,
        issued_of(&restored.checkpoint_snapshot()) == recovered_issued + fed_post,
        "post-restart ingestion books exactly on top of the recovery",
    );

    // Fleet arithmetic across the crash. Either branch is legitimate —
    // which one fires is a deterministic function of what the collector
    // saw before the crash versus what survived it:
    //  * resumed: the recovered counters continued past the last polled
    //    frame — nothing banked, nothing lost, the windowed total is the
    //    plain cumulative.
    //  * banked: the lost tail made the recovered counters regress below
    //    the last polled frame — the pre-crash snapshot is banked bit
    //    for bit and the new epoch accumulates on top.
    let st = &collector.status()[0];
    c(
        pass,
        st.epoch == rec.checkpoint.epoch + 1,
        "fleet tracks the new epoch",
    );
    c(
        pass,
        st.seq_rejects == 0,
        "continued sequence is not a replay",
    );
    let resumed = st.resumed_epochs == 1;
    if resumed {
        c(pass, st.epoch_bumps == 0, "resumed restart banks nothing");
        c(
            pass,
            st.lost_windows == 0,
            "resumed restart loses no window",
        );
        c(
            pass,
            st.windowed_total().same_counters(st.agg()),
            "windowed total stays continuous across the crash",
        );
    } else {
        c(
            pass,
            st.epoch_bumps == 1 && st.resumed_epochs == 0,
            "regressed restart re-bases once",
        );
        c(
            pass,
            st.epoch_base().same_counters(&pre_crash_agg),
            "banked epoch is the frozen pre-crash snapshot, bit for bit",
        );
    }
    // The no-double-counting identity holds on both branches.
    let mut merged = st.epoch_base().clone();
    merged.merge(st.agg());
    c(
        pass,
        merged.same_counters(st.windowed_total()),
        "epoch_base + live epoch == windowed total (zero double-count)",
    );
    let cv = collector.view(t_final);
    let tv = collector.windowed_total_view(t_final);
    let conserves = cv.conserves() && tv.conserves();
    c(pass, conserves, "final fleet views conserve");

    // Stop the new boot's tracers first: their sinks hold buffered
    // partial chunks that only seal when the handles drop.
    for t in 0..TARGETS {
        let leftovers = restored.stop_trace(target(t));
        c(
            pass,
            leftovers.is_empty(),
            "no in-flight commands at shutdown",
        );
    }
    let store2_report = store2.finish();
    c(
        pass,
        store2_report.records >= tail_replayed,
        "the new boot's trace carries the replayed tail onward",
    );

    ScenarioOutcome {
        name: sc.name,
        windows_pre,
        windows_post: POST_WINDOWS,
        fed_pre,
        fed_post,
        durable_seq: rec.seq,
        skipped_corrupt: rec.skipped_corrupt + unreadable_segments,
        restore_bit_identical,
        tail_replayed,
        lost,
        ledger,
        fs_stats,
        resumed,
        lost_windows: st.lost_windows,
        windowed_total_events: tv.fleet.agg.total_events(),
        post_durable_seq,
        conserves,
    }
}

fn main() {
    let seed = seed_arg(11);
    println!(
        "ext_crash: seed {seed}, 1 host, {TARGETS} target(s), \
         {PRE_WINDOWS}+{POST_WINDOWS} window(s), 4 crash scenario(s)"
    );
    let base = std::env::temp_dir().join(format!("ext-crash-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let mut pass = true;
    let outcomes: Vec<ScenarioOutcome> = scenarios()
        .iter()
        .map(|sc| run_scenario(sc, seed, &base, &mut pass))
        .collect();
    let _ = fs::remove_dir_all(&base);

    for o in &outcomes {
        println!("== {} ==", o.name);
        println!(
            "  pre-crash: {} window(s), {} command(s); post-restart: {} window(s), {} command(s)",
            o.windows_pre, o.fed_pre, o.windows_post, o.fed_post
        );
        println!(
            "  checkpoint ledger: attempts {} = written {} + torn {} + fsync_dropped {} + io_errors {}",
            o.ledger.attempts, o.ledger.written, o.ledger.torn, o.ledger.fsync_dropped,
            o.ledger.io_errors
        );
        println!(
            "  fault plan: {} create(s), {} torn, {} dropped fsync(s), {} reorder(s), {} refusal(s)",
            o.fs_stats.create_ops,
            o.fs_stats.torn_writes,
            o.fs_stats.dropped_fsyncs,
            o.fs_stats.rename_reorders,
            o.fs_stats.crash_refusals
        );
        println!(
            "  recovery: durable seq {} ({} corrupt skipped), bit-identical {}, \
             tail replayed {}, lost {}",
            o.durable_seq, o.skipped_corrupt, o.restore_bit_identical, o.tail_replayed, o.lost
        );
        println!(
            "  fleet: {} (lost windows {}), windowed total {} event(s), conserves {}; \
             next durable seq {}",
            if o.resumed {
                "resumed epoch"
            } else {
                "banked epoch"
            },
            o.lost_windows,
            o.windowed_total_events,
            o.conserves,
            o.post_durable_seq
        );
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        std::process::exit(1);
    }
}
