//! Concurrency tests: the stats service is a host-wide singleton on a
//! multiprocessor hypervisor — concurrent VMs hammer it from different
//! physical CPUs.

use proptest::prelude::*;
use simkit::SimTime;
use std::sync::Arc;
use std::thread;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::{Lens, Metric, SentinelConfig, StatsService, TraceCapacity, VscsiEvent};

const PER_THREAD: u64 = 5_000;

fn drive_target(service: &StatsService, vm: u32, base_id: u64) {
    let target = TargetId::new(VmId(vm), VDiskId(0));
    for i in 0..PER_THREAD {
        let req = IoRequest::new(
            RequestId(base_id + i),
            target,
            if i % 2 == 0 {
                IoDirection::Read
            } else {
                IoDirection::Write
            },
            Lba::new((i * 977) % 1_000_000),
            8,
            SimTime::from_micros(i * 10),
        );
        service.handle_issue(&req);
        service.handle_complete(&IoCompletion::new(req, SimTime::from_micros(i * 10 + 5)));
    }
}

#[test]
fn concurrent_vms_collect_independently() {
    let service = Arc::new(StatsService::default());
    service.enable_all();
    let threads: Vec<_> = (0..8u32)
        .map(|vm| {
            let service = Arc::clone(&service);
            thread::spawn(move || drive_target(&service, vm, u64::from(vm) * PER_THREAD))
        })
        .collect();
    for t in threads {
        t.join().expect("worker panicked");
    }
    assert_eq!(service.targets().len(), 8);
    for vm in 0..8u32 {
        let c = service
            .collector(TargetId::new(VmId(vm), VDiskId(0)))
            .expect("collector exists");
        assert_eq!(c.issued_commands(), PER_THREAD);
        assert_eq!(c.completed_commands(), PER_THREAD);
        assert_eq!(c.outstanding_now(), 0);
        assert_eq!(
            c.histogram(Metric::IoLength, Lens::Reads).total()
                + c.histogram(Metric::IoLength, Lens::Writes).total(),
            PER_THREAD
        );
    }
}

#[test]
fn toggling_while_under_load_never_corrupts() {
    let service = Arc::new(StatsService::default());
    service.enable_all();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let workers: Vec<_> = (0..4u32)
        .map(|vm| {
            let service = Arc::clone(&service);
            thread::spawn(move || drive_target(&service, vm, u64::from(vm) * PER_THREAD))
        })
        .collect();
    let toggler = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                service.disable_all();
                service.enable_all();
                n += 1;
            }
            n
        })
    };
    for t in workers {
        t.join().expect("worker panicked");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let toggles = toggler.join().expect("toggler panicked");
    assert!(toggles > 0);

    // Invariants survive: issued >= completed is NOT guaranteed per-target
    // (issues may be dropped while disabled but their completions still
    // arrive at an existing collector)... which is exactly why the
    // collector saturates rather than underflows. Check the counters are
    // self-consistent and the service still works.
    for target in service.targets() {
        let c = service.collector(target).expect("collector exists");
        assert!(c.completed_commands() <= PER_THREAD);
        assert!(c.issued_commands() <= PER_THREAD);
    }
    // The service remains usable after the storm.
    service.enable_all();
    drive_target(&service, 99, 10_000_000);
    let c = service
        .collector(TargetId::new(VmId(99), VDiskId(0)))
        .unwrap();
    assert_eq!(c.issued_commands(), PER_THREAD);
}

#[test]
fn tracing_concurrent_with_collection() {
    let service = Arc::new(StatsService::default());
    service.enable_all();
    let target = TargetId::new(VmId(0), VDiskId(0));
    service.start_trace(target, vscsi_stats::TraceCapacity::Ring(1024));
    let threads: Vec<_> = (0..2u32)
        .map(|vm| {
            let service = Arc::clone(&service);
            thread::spawn(move || drive_target(&service, vm, u64::from(vm) * PER_THREAD))
        })
        .collect();
    for t in threads {
        t.join().expect("worker panicked");
    }
    let records = service.stop_trace(target);
    assert_eq!(records.len(), 1024, "ring retains its capacity");
    // Every retained record belongs to the traced target.
    assert!(records.iter().all(|r| r.target == target));
}

#[test]
fn batched_ingestion_from_many_threads() {
    // Each thread drives its own target through handle_batch in bursts;
    // per-target results must match the per-event path exactly.
    let service = Arc::new(StatsService::default());
    service.enable_all();
    thread::scope(|scope| {
        for vm in 0..8u32 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                let target = TargetId::new(VmId(vm), VDiskId(0));
                let mut batch = Vec::with_capacity(64);
                for i in 0..PER_THREAD {
                    let req = IoRequest::new(
                        RequestId(u64::from(vm) * PER_THREAD + i),
                        target,
                        if i % 2 == 0 {
                            IoDirection::Read
                        } else {
                            IoDirection::Write
                        },
                        Lba::new((i * 977) % 1_000_000),
                        8,
                        SimTime::from_micros(i * 10),
                    );
                    batch.push(VscsiEvent::Issue(req));
                    batch.push(VscsiEvent::Complete(IoCompletion::new(
                        req,
                        SimTime::from_micros(i * 10 + 5),
                    )));
                    if batch.len() >= 64 {
                        service.handle_batch(&batch);
                        batch.clear();
                    }
                }
                service.handle_batch(&batch);
            });
        }
    });
    for vm in 0..8u32 {
        let c = service
            .collector(TargetId::new(VmId(vm), VDiskId(0)))
            .expect("collector exists");
        assert_eq!(c.issued_commands(), PER_THREAD);
        assert_eq!(c.completed_commands(), PER_THREAD);
        assert_eq!(c.outstanding_now(), 0);
    }
}

/// One target's scripted command sequence for the partition property test.
#[derive(Debug, Clone)]
struct TargetScript {
    /// Which thread ingests this target (mod thread count).
    thread: usize,
    /// Batch size used by that thread for this target's events (1 = the
    /// per-event path).
    chunk: usize,
    /// Per-command parameters: (write?, lba, gap to previous issue in µs,
    /// device latency in µs).
    ops: Vec<(bool, u64, u64, u64)>,
}

fn target_script() -> impl Strategy<Value = TargetScript> {
    (
        0..4usize,
        1..8usize,
        prop::collection::vec(
            (any::<bool>(), 0..1_000_000u64, 1..500u64, 1..20_000u64),
            1..40,
        ),
    )
        .prop_map(|(thread, chunk, ops)| TargetScript { thread, chunk, ops })
}

/// Builds the exact event sequence for one target: issues spaced by the
/// scripted gaps, each completing after its scripted latency.
fn events_for(vm: u32, script: &TargetScript) -> Vec<VscsiEvent> {
    let target = TargetId::new(VmId(vm), VDiskId(0));
    let mut events = Vec::with_capacity(script.ops.len() * 2);
    let mut now_us = 0u64;
    for (i, &(write, lba, gap_us, lat_us)) in script.ops.iter().enumerate() {
        now_us += gap_us;
        let req = IoRequest::new(
            RequestId(u64::from(vm) << 32 | i as u64),
            target,
            if write {
                IoDirection::Write
            } else {
                IoDirection::Read
            },
            Lba::new(lba),
            8,
            SimTime::from_micros(now_us),
        );
        events.push(VscsiEvent::Issue(req));
        events.push(VscsiEvent::Complete(IoCompletion::new(
            req,
            SimTime::from_micros(now_us + lat_us),
        )));
    }
    events
}

/// Every script's event stream, indexed by VM number.
fn per_target_events(scripts: &[TargetScript]) -> Vec<Vec<VscsiEvent>> {
    scripts
        .iter()
        .enumerate()
        .map(|(vm, s)| events_for(vm as u32, s))
        .collect()
}

/// The two hooks, one event at a time.
fn feed_per_event(service: &StatsService, events: &[VscsiEvent]) {
    for ev in events {
        match ev {
            VscsiEvent::Issue(r) => service.handle_issue(r),
            VscsiEvent::Complete(c) => service.handle_complete(c),
        }
    }
}

/// A service with collection on, the sentinel armed but calm (`Full`
/// everywhere, thresholds no load can reach), and a tracer on every target
/// whose bit is set in `traced`.
fn supervised_service(targets: usize, traced: u8) -> StatsService {
    let service = StatsService::default();
    service.enable_all();
    let mut cfg = SentinelConfig::new(7);
    cfg.full_max_rate = u64::MAX;
    cfg.sampled_max_rate = u64::MAX;
    cfg.counters_max_rate = u64::MAX;
    service.enable_sentinel(cfg);
    for vm in (0..targets).filter(|vm| traced >> vm & 1 == 1) {
        service.start_trace(
            TargetId::new(VmId(vm as u32), VDiskId(0)),
            TraceCapacity::Unbounded,
        );
    }
    service
}

/// Feeds `events` in chunks of the scripted sizes (cycled), flipping
/// collection off/on after every chunk whose flag is set. `batched` picks
/// `handle_batch` per chunk over the two hooks per event.
fn feed_chunked(
    service: &StatsService,
    events: &[VscsiEvent],
    cuts: &[(usize, bool)],
    batched: bool,
) {
    let mut rest = events;
    for &(len, flip) in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        if batched {
            service.handle_batch(chunk);
        } else {
            feed_per_event(service, chunk);
        }
        if flip {
            if service.is_enabled() {
                service.disable_all();
            } else {
                service.enable_all();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `handle_batch` is the two hooks in slice order, whatever the slice:
    /// a mixed-target stream cut into arbitrary chunks, with tracers on a
    /// subset of targets, collection toggled between chunks and the
    /// sentinel armed at `Full`, leaves the same collectors, the same
    /// captured trace records and the same admission ledger as the
    /// per-event feed.
    #[test]
    fn chunked_mixed_batches_match_the_per_event_feed(
        scripts in prop::collection::vec(target_script(), 1..7),
        cuts in prop::collection::vec((1..48usize, any::<bool>()), 1..12),
        traced in any::<u8>(),
    ) {
        let per_target = per_target_events(&scripts);
        // Round-robin interleave: every target keeps its own order.
        let longest = per_target.iter().map(Vec::len).max().unwrap_or(0);
        let mixed: Vec<VscsiEvent> = (0..longest)
            .flat_map(|k| per_target.iter().filter_map(move |events| events.get(k).copied()))
            .collect();

        let per_event = supervised_service(scripts.len(), traced);
        feed_chunked(&per_event, &mixed, &cuts, false);
        let batched = supervised_service(scripts.len(), traced);
        feed_chunked(&batched, &mixed, &cuts, true);

        prop_assert_eq!(batched.targets(), per_event.targets());
        prop_assert_eq!(batched.summaries(), per_event.summaries());
        prop_assert_eq!(batched.health_snapshot(), per_event.health_snapshot());
        for vm in 0..scripts.len() {
            let target = TargetId::new(VmId(vm as u32), VDiskId(0));
            let (cb, ce) = (batched.collector(target), per_event.collector(target));
            prop_assert_eq!(cb.is_some(), ce.is_some(), "{}", target);
            if let (Some(cb), Some(ce)) = (cb, ce) {
                for metric in Metric::ALL {
                    for lens in Lens::ALL {
                        prop_assert_eq!(
                            cb.histogram(metric, lens),
                            ce.histogram(metric, lens),
                            "{} {} {:?}", target, metric, lens
                        );
                    }
                }
            }
            prop_assert_eq!(batched.stop_trace(target), per_event.stop_trace(target));
        }
    }

    /// DESIGN §7's "online == offline replay" invariant, extended to the
    /// concurrent case: however an event set is partitioned across threads
    /// (each target's ordered stream assigned wholly to one thread, in
    /// arbitrary batch sizes), every per-target histogram is bit-identical
    /// to single-threaded ingestion of the same events.
    #[test]
    fn concurrent_partition_matches_serial_ingestion(
        scripts in prop::collection::vec(target_script(), 1..7),
        threads in 1..4usize,
    ) {
        let per_target = per_target_events(&scripts);

        // Reference: one thread, per-event ingestion, target by target.
        let serial = StatsService::default();
        serial.enable_all();
        for events in &per_target {
            feed_per_event(&serial, events);
        }

        // Concurrent: targets partitioned over `threads` workers, each
        // feeding its targets' streams in scripted batch sizes.
        let sharded = Arc::new(StatsService::default());
        sharded.enable_all();
        thread::scope(|scope| {
            for worker in 0..threads {
                let sharded = Arc::clone(&sharded);
                let work: Vec<(usize, &Vec<VscsiEvent>)> = scripts
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.thread % threads == worker)
                    .map(|(vm, _)| (vm, &per_target[vm]))
                    .collect();
                let chunks: Vec<usize> = scripts.iter().map(|s| s.chunk).collect();
                scope.spawn(move || {
                    for (vm, events) in work {
                        for chunk in events.chunks(chunks[vm]) {
                            sharded.handle_batch(chunk);
                        }
                    }
                });
            }
        });

        prop_assert_eq!(sharded.targets(), serial.targets());
        for vm in 0..scripts.len() {
            let target = TargetId::new(VmId(vm as u32), VDiskId(0));
            let cs = serial.collector(target).expect("serial collector");
            let cc = sharded.collector(target).expect("sharded collector");
            prop_assert_eq!(cs.issued_commands(), cc.issued_commands());
            prop_assert_eq!(cs.completed_commands(), cc.completed_commands());
            prop_assert_eq!(cs.outstanding_now(), cc.outstanding_now());
            for metric in Metric::ALL {
                for lens in [Lens::All, Lens::Reads, Lens::Writes] {
                    prop_assert_eq!(
                        cs.histogram(metric, lens).counts(),
                        cc.histogram(metric, lens).counts(),
                        "{} {} {:?}", target, metric, lens
                    );
                }
            }
        }
    }
}
