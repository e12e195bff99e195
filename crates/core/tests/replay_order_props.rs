//! `replay` orders events by merging two sorted runs. Before that it
//! built one `(sequence, event)` list — `[issue 0, completion 0, issue 1,
//! …]` — and stable-sorted it; that loop is kept here as the reference, and
//! the merge has to equal it on *every* slice, not only on the ones a
//! tracer writes: captured streams with their in-flight tails, shuffled
//! slices, two tracers' records in one slice (every sequence number taken
//! twice), and records whose completion sequence is below their own serial
//! or whose completion time is below their issue time.

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::{SimRng, SimTime};
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
use vscsi_stats::{
    replay, CollectorConfig, IoStatsCollector, Lens, Metric, TraceCapacity, TraceRecord,
    VscsiTracer,
};

/// The event-list replay `core::trace::replay` was until the merge.
fn replay_by_event_sort(records: &[TraceRecord], config: CollectorConfig) -> IoStatsCollector {
    #[derive(Clone, Copy)]
    enum Ev {
        Issue(usize),
        Complete(usize),
    }
    let mut events: Vec<(u64, Ev)> = Vec::with_capacity(records.len() * 2);
    for (i, r) in records.iter().enumerate() {
        events.push((r.serial, Ev::Issue(i)));
        if let Some(seq) = r.complete_seq {
            events.push((seq, Ev::Complete(i)));
        }
    }
    events.sort_by_key(|&(seq, _)| seq);
    let mut collector = IoStatsCollector::new(config);
    for (_, ev) in events {
        match ev {
            Ev::Issue(i) => collector.on_issue(&records[i].to_request()),
            Ev::Complete(i) => {
                let completion = records[i]
                    .to_completion()
                    .expect("complete event only queued for completed records");
                collector.on_complete(&completion);
            }
        }
    }
    collector
}

/// Every (metric, lens) histogram — the stored slots and their exact
/// aggregates, from which the derived ones follow — both series and the
/// six counters.
fn assert_same_collector(merged: &IoStatsCollector, reference: &IoStatsCollector) {
    assert_eq!(merged.histogram_set(), reference.histogram_set());
    assert_eq!(merged.latency_series(), reference.latency_series());
    assert_eq!(merged.outstanding_series(), reference.outstanding_series());
    let counters = |c: &IoStatsCollector| {
        [
            c.issued_commands(),
            c.completed_commands(),
            c.error_commands(),
            c.clock_anomalies(),
            c.bytes_read(),
            c.bytes_written(),
        ]
    };
    assert_eq!(counters(merged), counters(reference));
    assert_eq!(merged.outstanding_now(), reference.outstanding_now());
}

fn assert_merge_equals_event_sort(records: &[TraceRecord]) {
    let config = CollectorConfig::paper_figures();
    assert_same_collector(
        &replay(records, config.clone()),
        &replay_by_event_sort(records, config),
    );
}

fn shuffle(records: &mut [TraceRecord], seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    for i in (1..records.len()).rev() {
        records.swap(i, rng.range_inclusive(0, i as u64) as usize);
    }
}

/// One command of a captured stream: issued `gap_us` after the previous
/// one, serviced in `service_us`, or never completed.
type Step = (u64, u32, bool, u64, Option<u64>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        0u64..2_000_000,
        1u32..2048,
        any::<bool>(),
        // Gaps long enough that a stream crosses several 6 s intervals.
        0u64..400_000,
        proptest::option::of(1u64..900_000),
    );
    vec(step, 0..80)
}

/// What a streaming tracer hands its sink for `steps`: completed records
/// in completion order, then the in-flight tail in issue order.
fn capture(steps: &[Step]) -> Vec<TraceRecord> {
    let mut tracer = VscsiTracer::new(TraceCapacity::Unbounded);
    let mut now_us = 0u64;
    let mut pending: Vec<(u64, IoRequest)> = Vec::new();
    let deliver = |tracer: &mut VscsiTracer, pending: &mut Vec<(u64, IoRequest)>, now| {
        pending.sort_by_key(|&(at, req)| (at, req.id));
        let due = pending.partition_point(|&(at, _)| at <= now);
        for (at, req) in pending.drain(..due) {
            tracer.on_complete(&IoCompletion::new(req, SimTime::from_micros(at)));
        }
    };
    for (id, &(lba, sectors, is_read, gap_us, service_us)) in steps.iter().enumerate() {
        now_us += gap_us;
        deliver(&mut tracer, &mut pending, now_us);
        let direction = if is_read {
            IoDirection::Read
        } else {
            IoDirection::Write
        };
        let req = IoRequest::new(
            RequestId(id as u64),
            TargetId::default(),
            direction,
            Lba::new(lba),
            sectors,
            SimTime::from_micros(now_us),
        );
        tracer.on_issue(&req);
        if let Some(service_us) = service_us {
            pending.push((now_us + service_us, req));
        }
    }
    // Complete only half of what is still pending; the rest stays in flight.
    let keep = pending.len() / 2;
    pending.sort_by_key(|&(at, req)| (at, req.id));
    pending.truncate(keep);
    deliver(&mut tracer, &mut pending, u64::MAX);
    let mut records: Vec<TraceRecord> = tracer.records().copied().collect();
    records.sort_by_key(|r| (r.complete_seq.is_none(), r.complete_seq, r.serial));
    records
}

/// A record no tracer would write: sequence numbers drawn from a space
/// small enough that they collide, a completion sequence on either side of
/// the serial, a completion time on either side of the issue time.
fn arb_garbage(seq_space: u64) -> impl Strategy<Value = TraceRecord> {
    (
        0..seq_space,
        proptest::option::of((0..seq_space, -200_000i64..900_000_000)),
        any::<bool>(),
        0u64..2_000_000,
        1u32..2048,
        0u64..20_000_000_000,
    )
        .prop_map(
            |(serial, done, is_read, lba, num_sectors, issue_ns)| TraceRecord {
                serial,
                target: TargetId::default(),
                direction: if is_read {
                    IoDirection::Read
                } else {
                    IoDirection::Write
                },
                lba: Lba::new(lba),
                num_sectors,
                issue_ns,
                complete_ns: done.map(|(_, latency_ns)| issue_ns.saturating_add_signed(latency_ns)),
                complete_seq: done.map(|(seq, _)| seq),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn captured_stream_with_inflight_tail(steps in arb_steps()) {
        assert_merge_equals_event_sort(&capture(&steps));
    }

    #[test]
    fn shuffled_slice(steps in arb_steps(), seed in any::<u64>()) {
        let mut records = capture(&steps);
        shuffle(&mut records, seed);
        assert_merge_equals_event_sort(&records);
    }

    #[test]
    fn two_tracers_in_one_slice(
        a in arb_steps(),
        b in arb_steps(),
        shuffled in proptest::option::of(any::<u64>()),
    ) {
        // Both tracers count events from zero, so the slice holds every
        // sequence number twice and ties are decided by slice position.
        let mut records = capture(&a);
        records.extend(capture(&b));
        if let Some(seed) = shuffled {
            shuffle(&mut records, seed);
        }
        assert_merge_equals_event_sort(&records);
    }

    #[test]
    fn records_no_tracer_wrote(
        records in prop_oneof![
            vec(arb_garbage(6), 0..40),
            vec(arb_garbage(64), 0..120),
            vec(arb_garbage(u64::MAX), 0..40),
        ],
    ) {
        assert_merge_equals_event_sort(&records);
    }
}

#[test]
fn a_tie_goes_to_the_lower_index_and_to_the_issue() {
    // Three records, all on sequence number 5: the reference order is
    // issue 0, completion 0, issue 1, completion 1, issue 2 — so the
    // outstanding-I/O histogram sees 0, 0, 0 and never a depth of two.
    let record = |complete_seq: Option<u64>| TraceRecord {
        serial: 5,
        target: TargetId::default(),
        direction: IoDirection::Read,
        lba: Lba::new(0),
        num_sectors: 8,
        issue_ns: 1_000,
        complete_ns: complete_seq.map(|_| 2_000),
        complete_seq,
    };
    let records = [record(Some(5)), record(Some(5)), record(None)];
    let merged = replay(&records, CollectorConfig::default());
    let oio = merged.histogram(Metric::OutstandingIos, Lens::All);
    assert_eq!((oio.total(), oio.max()), (3, Some(0)));
    assert_eq!(merged.outstanding_now(), 1);
    assert_merge_equals_event_sort(&records);
    // The same three with the completion of record 1 numbered *below* its
    // own issue: it is replayed first, against an empty queue, and the
    // issue it should have retired stays outstanding.
    let records = [record(Some(5)), record(Some(4)), record(None)];
    assert_merge_equals_event_sort(&records);
    let merged = replay(&records, CollectorConfig::default());
    assert_eq!(merged.outstanding_now(), 2);
}
