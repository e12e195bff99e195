//! Shared harness for the `ext_overload` chaos experiment: a
//! deterministic open-loop ingest storm against the sentinel governor, a
//! stuck trace-sink backend for watchdog demotion, and a chaos-panic
//! interference pair.
//!
//! Everything here runs on the virtual clock or on explicit gates — no
//! wall-clock value leaks into any returned struct, so two same-seed runs
//! produce byte-identical reports (`tests/suites.rs` compares them).

use crate::scenarios::{prepare_interference, InterferenceMode, Prepared};
use simkit::SimTime;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use tracestore::{StoreReport, TraceStore, TraceStoreConfig};
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{
    ChaosSpec, CollectorConfig, DegradeLevel, HealthSnapshot, Medium, MediumFile, SentinelConfig,
    StatsService, TraceRecord, TraceSink,
};

/// One constant-rate stretch of the ingest storm.
#[derive(Debug, Clone, Copy)]
pub struct StormSegment {
    /// Label used in the report.
    pub label: &'static str,
    /// Commands per virtual millisecond (each command is an issue plus a
    /// completion, i.e. two governor admissions).
    pub commands_per_ms: u64,
    /// Segment length in virtual milliseconds.
    pub millis: u64,
}

/// The default storm schedule: calm baseline, three escalating surges
/// that walk the ladder down to `Shed`, then a long calm tail that lets
/// hysteresis climb all the way back to `Full`.
pub fn storm_segments() -> Vec<StormSegment> {
    vec![
        StormSegment {
            label: "calm",
            commands_per_ms: 50,
            millis: 50,
        },
        StormSegment {
            label: "brisk",
            commands_per_ms: 150,
            millis: 50,
        },
        StormSegment {
            label: "heavy",
            commands_per_ms: 350,
            millis: 50,
        },
        StormSegment {
            label: "flood",
            commands_per_ms: 1000,
            millis: 50,
        },
        StormSegment {
            label: "recovery",
            commands_per_ms: 50,
            millis: 400,
        },
    ]
}

/// Governor tuning for the storm: thresholds in admissions per 1 ms
/// window, sized so [`storm_segments`]' rates land on distinct rungs
/// (each command contributes two admissions).
pub fn storm_sentinel(seed: u64) -> SentinelConfig {
    let mut cfg = SentinelConfig::new(seed);
    cfg.window_ns = 1_000_000;
    cfg.full_max_rate = 200;
    cfg.sampled_max_rate = 480;
    cfg.counters_max_rate = 1200;
    cfg
}

/// What one storm segment did to the shard: admission-ledger deltas plus
/// the ladder rung the shard ended the segment on.
#[derive(Debug, Clone, Copy)]
pub struct SegmentOutcome {
    /// Segment label.
    pub label: &'static str,
    /// Offered command rate, commands per virtual millisecond.
    pub commands_per_ms: u64,
    /// Admissions offered during the segment (issues + completions).
    pub offered: u64,
    /// Admissions ingested at full fidelity.
    pub ingested: u64,
    /// Admissions diverted by the sampling coin.
    pub sampled_out: u64,
    /// Admissions shed outright.
    pub shed: u64,
    /// Ladder rung at the segment boundary.
    pub end_level: DegradeLevel,
}

/// Result of [`run_storm`]: per-segment ledger plus the final health
/// snapshot of the single supervised shard.
#[derive(Debug)]
pub struct StormResult {
    /// One outcome per input segment, in order.
    pub segments: Vec<SegmentOutcome>,
    /// Health after the final segment (completions drained).
    pub health: HealthSnapshot,
    /// Total commands generated across all segments.
    pub commands: u64,
}

/// Drives a single-shard [`StatsService`] with an open-loop storm on the
/// virtual clock: one target, fixed 0.3 ms completion latency, command
/// issue times spread evenly inside each millisecond. Fully deterministic
/// in `seed` (which only feeds the governor's sampling coin).
pub fn run_storm(seed: u64, segments: &[StormSegment]) -> StormResult {
    let service = StatsService::with_shards(CollectorConfig::paper_figures(), 1);
    service.enable_all();
    service.enable_sentinel(storm_sentinel(seed));

    let target = TargetId::new(VmId(0), VDiskId(0));
    const LATENCY_NS: u64 = 300_000;
    let mut pending: std::collections::VecDeque<IoCompletion> = std::collections::VecDeque::new();
    let mut outcomes = Vec::with_capacity(segments.len());
    let mut now_ms = 0u64;
    let mut serial = 0u64;
    let mut prev = service.health_snapshot().totals();

    for seg in segments {
        for _ in 0..seg.millis {
            let ms_base = now_ms * 1_000_000;
            let gap = 1_000_000 / seg.commands_per_ms.max(1);
            for j in 0..seg.commands_per_ms {
                let at = ms_base + j * gap;
                while pending
                    .front()
                    .is_some_and(|c| c.complete_time.as_nanos() <= at)
                {
                    let completion = pending.pop_front().expect("front checked");
                    service.handle_complete(&completion);
                }
                let req = IoRequest::new(
                    RequestId(serial),
                    target,
                    if serial.is_multiple_of(3) {
                        IoDirection::Write
                    } else {
                        IoDirection::Read
                    },
                    Lba::new((serial % 8192) * 16),
                    16,
                    SimTime::from_nanos(at),
                );
                serial += 1;
                service.handle_issue(&req);
                pending.push_back(IoCompletion::new(req, SimTime::from_nanos(at + LATENCY_NS)));
            }
            now_ms += 1;
        }
        // Segment boundary: account the delta without draining the short
        // completion tail (it rolls into the next segment's ledger).
        let snapshot = service.health_snapshot();
        let totals = snapshot.totals();
        outcomes.push(SegmentOutcome {
            label: seg.label,
            commands_per_ms: seg.commands_per_ms,
            offered: totals.offered - prev.offered,
            ingested: totals.ingested - prev.ingested,
            sampled_out: totals.sampled_out - prev.sampled_out,
            shed: totals.shed - prev.shed,
            end_level: snapshot.shards[0].level,
        });
        prev = totals;
    }
    for completion in pending {
        service.handle_complete(&completion);
    }
    StormResult {
        segments: outcomes,
        health: service.health_snapshot(),
        commands: serial,
    }
}

/// Gate shared by [`StallBackend`] segments: writes block until
/// [`StallGate::open`] is called.
#[derive(Debug, Clone, Default)]
pub struct StallGate {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl StallGate {
    /// Releases every blocked (and future) write.
    pub fn open(&self) {
        let (lock, cvar) = &*self.inner;
        *lock.lock().expect("gate mutex poisoned") = true;
        cvar.notify_all();
    }

    fn wait(&self) {
        let (lock, cvar) = &*self.inner;
        let mut open = lock.lock().expect("gate mutex poisoned");
        while !*open {
            open = cvar.wait(open).expect("gate mutex poisoned");
        }
    }
}

/// A [`Medium`] whose writes hang on a [`StallGate`] — the bench
/// stand-in for a dead disk or a hung fsync, used to force the trace
/// store's watchdog demotion path.
#[derive(Debug)]
pub struct StallBackend {
    gate: StallGate,
}

impl StallBackend {
    /// Builds a backend stalled on `gate`.
    pub fn new(gate: StallGate) -> Self {
        StallBackend { gate }
    }
}

struct StallSegment(StallGate);

impl std::io::Write for StallSegment {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.wait();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl MediumFile for StallSegment {
    fn sync_all(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Medium for StallBackend {
    fn create(&mut self, _path: &Path) -> std::io::Result<Box<dyn MediumFile>> {
        Ok(Box::new(StallSegment(self.gate.clone())))
    }
}

/// Deterministic outcome of the slow-sink phase. Only booleans — the
/// watchdog runs on real time, so raw counts could differ between runs
/// and are deliberately not exposed.
#[derive(Debug, Clone, Copy)]
pub struct SlowSinkOutcome {
    /// The sink reported itself demoted after the flush timed out.
    pub demoted: bool,
    /// The sink accumulated at least one watchdog trip.
    pub tripped: bool,
    /// The flood dropped records instead of blocking producers.
    pub dropped: bool,
    /// The producer got through the whole flood (liveness).
    pub producer_live: bool,
    /// The final [`StoreReport`] carries the demotion.
    pub report_demoted: bool,
    /// The final [`StoreReport`] carries at least one watchdog trip.
    pub report_tripped: bool,
}

fn slow_sink_record(serial: u64) -> TraceRecord {
    TraceRecord {
        serial,
        target: TargetId::default(),
        direction: if serial.is_multiple_of(3) {
            IoDirection::Write
        } else {
            IoDirection::Read
        },
        lba: Lba::new(serial * 16),
        num_sectors: 16,
        issue_ns: serial * 2_000,
        complete_ns: Some(serial * 2_000 + 450),
        complete_seq: Some(serial + 1),
    }
}

/// Runs the slow-sink phase: a tiny blocking ring in front of a stalled
/// writer, a flush that must time out and demote, then a 2 000-record
/// flood that must complete without wedging. `dir` is created and removed
/// here; nothing about it appears in the outcome.
///
/// # Panics
///
/// Panics if the store directory cannot be created or the store cannot be
/// opened — environment failures, not experiment outcomes.
pub fn run_slow_sink(dir: &Path) -> (SlowSinkOutcome, StoreReport) {
    std::fs::create_dir_all(dir).expect("create slow-sink dir");
    let mut config = TraceStoreConfig::new(dir);
    config.chunk_bytes = 128;
    config.max_chunks = 2;
    config.flush_timeout = std::time::Duration::from_millis(50);
    config.block_budget = std::time::Duration::from_millis(50);

    let gate = StallGate::default();
    let store = TraceStore::create_with_medium(config, StallBackend::new(gate.clone()))
        .expect("open slow-sink store");
    let mut sink = store.handle();

    // Seal enough chunks that the writer picks one up and hangs in its
    // stalled write; the flush ack can then only time out.
    for serial in 0..64 {
        sink.append(&slow_sink_record(serial));
    }
    sink.flush();
    let after_flush = sink.health();

    // Liveness: with the writer still wedged, a flood must drain through
    // the demoted ring rather than blocking the producer.
    for serial in 64..2_064 {
        sink.append(&slow_sink_record(serial));
    }
    let dropped = sink.dropped_records() > 0;

    gate.open();
    drop(sink);
    let report = store.finish();
    let _ = std::fs::remove_dir_all(dir);

    (
        SlowSinkOutcome {
            demoted: after_flush.demoted,
            tripped: after_flush.watchdog_trips >= 1,
            dropped,
            // Reaching this line at all is the liveness result: a wedged
            // ring would have parked the flood loop forever.
            producer_live: true,
            report_demoted: report.demoted,
            report_tripped: report.watchdog_trips >= 1,
        },
        report,
    )
}

/// LBA band (inclusive, guest sectors) poisoned by the chaos spec: wide
/// enough that VM 0's random reader trips it within its first few dozen
/// commands, narrow enough that the shard has real history to salvage.
pub const CHAOS_BAND: (u64, u64) = (1_000_000, 3_000_000);

/// A sentinel configuration whose governor never degrades — used when
/// the experiment wants quarantine/watchdog behaviour in isolation.
pub fn quiet_sentinel(seed: u64) -> SentinelConfig {
    let mut cfg = SentinelConfig::new(seed);
    cfg.full_max_rate = u64::MAX;
    cfg.sampled_max_rate = u64::MAX;
    cfg.counters_max_rate = u64::MAX;
    cfg
}

/// Builds the two-VM interference scenario with the sentinel enabled;
/// when `wounded`, VM 0 carries a one-shot chaos panic over
/// [`CHAOS_BAND`] while VM 1 (a different shard) runs untouched.
pub fn prepare_chaos_interference(duration: SimTime, seed: u64, wounded: bool) -> Prepared {
    let prepared = prepare_interference(InterferenceMode::Dual, true, duration, seed);
    let mut cfg = quiet_sentinel(seed);
    if wounded {
        cfg.chaos = Some(ChaosSpec {
            vm: Some(0),
            lba_min: CHAOS_BAND.0,
            lba_max: CHAOS_BAND.1,
            max_panics: 1,
        });
    }
    prepared.service().enable_sentinel(cfg);
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_walks_the_ladder_and_conserves() {
        let result = run_storm(99, &storm_segments());
        assert!(result.health.conserves());
        let totals = result.health.totals();
        // Issue + completion per command, every one accounted.
        assert_eq!(totals.offered, result.commands * 2);
        assert!(totals.shed > 0);
        assert!(totals.sampled_out > 0);
        let flood = &result.segments[3];
        assert_eq!(flood.end_level, DegradeLevel::Shed);
        let tail = result.segments.last().expect("segments nonempty");
        assert_eq!(tail.end_level, DegradeLevel::Full);
    }

    #[test]
    fn storm_is_deterministic() {
        let a = run_storm(7, &storm_segments());
        let b = run_storm(7, &storm_segments());
        assert_eq!(a.health.render(), b.health.render());
        for (x, y) in a.segments.iter().zip(&b.segments) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.ingested, y.ingested);
            assert_eq!(x.sampled_out, y.sampled_out);
            assert_eq!(x.shed, y.shed);
            assert_eq!(x.end_level, y.end_level);
        }
    }

    #[test]
    fn stalled_sink_demotes_and_stays_live() {
        let dir = std::env::temp_dir().join(format!("overload-harness-{}", std::process::id()));
        let (outcome, report) = run_slow_sink(&dir);
        assert!(outcome.demoted);
        assert!(outcome.tripped);
        assert!(outcome.dropped);
        assert!(outcome.report_demoted);
        assert!(outcome.report_tripped);
        assert!(report.drops.dropped_records() > 0);
    }
}
