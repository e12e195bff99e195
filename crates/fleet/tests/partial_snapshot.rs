//! A fetch that could not read every shard is a fetch failure.
//!
//! Under an armed sentinel a snapshot read gives up on a shard whose lock
//! a stuck writer holds past `reader_patience`. Shipping what is left
//! would hand the collector a frame with a quarter of the targets
//! missing: every counter of those targets "regressed", so the window is
//! booked as a host restart, the last snapshot is banked, and once the
//! writer lets go every event of the host is counted twice. The endpoint
//! must fail the fetch instead; the next complete frame bridges the gap.

use fleet::{FleetCollector, HostFrame, PollConfig, ServiceEndpoint};
use simkit::{SimDuration, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{
    CollectorConfig, SentinelConfig, StatsService, TraceRecord, TraceSink, VscsiEvent,
};

const TARGETS: u32 = 8;
const COMMANDS: u64 = 50;

fn target(i: u32) -> TargetId {
    TargetId::new(VmId(i), VDiskId(0))
}

fn command(target: TargetId, id: u64, t_us: u64) -> [VscsiEvent; 2] {
    let req = IoRequest::new(
        RequestId(id),
        target,
        IoDirection::Read,
        Lba::new(id * 64),
        8,
        SimTime::from_micros(t_us),
    );
    [
        VscsiEvent::Issue(req),
        VscsiEvent::Complete(IoCompletion::new(req, SimTime::from_micros(t_us + 300))),
    ]
}

/// `COMMANDS` more commands on every target, starting at `start_us`.
fn feed(service: &StatsService, round: u64, start_us: u64) {
    for t in 0..TARGETS {
        let events: Vec<VscsiEvent> = (0..COMMANDS)
            .flat_map(|r| {
                let id = (u64::from(t) << 32) + round * COMMANDS + r;
                command(target(t), id, start_us + r * 1_000)
            })
            .collect();
        service.handle_batch(&events);
    }
}

/// A streaming sink whose first `append` parks — inside the shard lock,
/// where the tracer calls it — until the test lets it go.
#[derive(Debug)]
struct StallOnce {
    entered: Sender<()>,
    release: Mutex<Receiver<()>>,
    stalled: bool,
}

impl TraceSink for StallOnce {
    fn append(&mut self, _record: &TraceRecord) {
        if !self.stalled {
            self.stalled = true;
            let _ = self.entered.send(());
            let _ = self.release.lock().map(|rx| rx.recv());
        }
    }
}

#[test]
fn wedged_shard_fails_the_fetch_instead_of_faking_a_restart() {
    let service = Arc::new(StatsService::with_shards(CollectorConfig::default(), 4));
    service.enable_all();
    let mut sentinel = SentinelConfig::new(1);
    sentinel.full_max_rate = u64::MAX;
    sentinel.sampled_max_rate = u64::MAX;
    sentinel.counters_max_rate = u64::MAX;
    sentinel.reader_patience = Duration::from_millis(20);
    service.enable_sentinel(sentinel);

    let config = PollConfig {
        interval: SimDuration::from_secs(1),
        ..PollConfig::basic()
    };
    let endpoint = ServiceEndpoint::new(1, 0, Arc::clone(&service));
    let mut collector = FleetCollector::new(config, vec![endpoint]);

    // Window 0: a complete frame.
    feed(&service, 0, 0);
    collector.run_until(SimTime::ZERO);
    assert_eq!(collector.status()[0].frames_ok, 1);

    // Window 1: a writer sits inside target 0's shard lock while the
    // collector polls.
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    service.start_trace_streaming(
        target(0),
        Box::new(StallOnce {
            entered: entered_tx,
            release: Mutex::new(release_rx),
            stalled: false,
        }),
    );
    let writer = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.handle_batch(&command(target(0), 1 << 40, 900_000)))
    };
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the writer reaches the sink");
    collector.run_until(SimTime::from_secs(1));
    release_tx.send(()).expect("the writer is still parked");
    writer.join().expect("the writer finishes");

    // Window 2: the shard is free again and the host has moved on.
    feed(&service, 1, 1_000_000);
    collector.run_until(SimTime::from_secs(2));

    let status = &collector.status()[0];
    assert_eq!(status.fetch_failures, 1, "the stalled poll failed");
    assert_eq!(status.frames_ok, 2);
    assert_eq!(status.epoch_bumps, 0, "no restart happened");
    assert_eq!(status.regressions, 0);
    assert_eq!(status.lost_windows, 0);
    assert_eq!(status.bridged_windows, 1);
    let cumulative = HostFrame::snapshot(1, 0, 0, &service).total_events();
    assert_eq!(status.windowed_total().total_events(), cumulative);
    assert!(status.windowed_total().same_counters(status.agg()));
}
