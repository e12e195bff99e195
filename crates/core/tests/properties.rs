//! Property tests for the characterization core: the online collector and
//! the trace-replay equivalence the paper's design rests on.

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::SimTime;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
use vscsi_stats::{
    replay, CollectorConfig, HistogramSet, IoStatsCollector, Lens, Metric, TraceCapacity,
    VscsiTracer,
};

/// A randomly generated workload step: wait `gap_us`, issue an I/O that the
/// device will service in `service_us`.
#[derive(Debug, Clone)]
struct Step {
    lba: u64,
    sectors: u32,
    is_read: bool,
    gap_us: u64,
    service_us: u64,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (
            0u64..2_000_000,
            1u32..2048,
            any::<bool>(),
            0u64..10_000,
            1u64..50_000,
        )
            .prop_map(|(lba, sectors, is_read, gap_us, service_us)| Step {
                lba,
                sectors,
                is_read,
                gap_us,
                service_us,
            }),
        1..120,
    )
}

/// Drives a collector + tracer through the steps, delivering issue and
/// completion events in timestamp order exactly as the vSCSI layer would
/// observe them. Returns the online collector, the tracer, and the count of
/// commands issued.
fn run(steps: &[Step]) -> (IoStatsCollector, VscsiTracer, u64) {
    let mut collector = IoStatsCollector::default();
    let mut tracer = VscsiTracer::new(TraceCapacity::Unbounded);
    let mut now_us = 0u64;
    // In-flight completions, kept sorted by completion time (FIFO on ties).
    let mut inflight: Vec<(IoRequest, u64)> = Vec::new();
    let mut id = 0u64;
    let deliver_due = |inflight: &mut Vec<(IoRequest, u64)>,
                       collector: &mut IoStatsCollector,
                       tracer: &mut VscsiTracer,
                       now_us: u64| {
        while let Some(pos) = inflight
            .iter()
            .enumerate()
            .filter(|(_, (_, at))| *at <= now_us)
            .min_by_key(|(_, (r, at))| (*at, r.id))
            .map(|(i, _)| i)
        {
            let (done, at) = inflight.remove(pos);
            let c = IoCompletion::new(done, SimTime::from_micros(at));
            collector.on_complete(&c);
            tracer.on_complete(&c);
        }
    };
    for step in steps {
        now_us += step.gap_us;
        deliver_due(&mut inflight, &mut collector, &mut tracer, now_us);
        let req = IoRequest::new(
            RequestId(id),
            TargetId::default(),
            if step.is_read {
                IoDirection::Read
            } else {
                IoDirection::Write
            },
            Lba::new(step.lba),
            step.sectors,
            SimTime::from_micros(now_us),
        );
        id += 1;
        collector.on_issue(&req);
        tracer.on_issue(&req);
        inflight.push((req, now_us + step.service_us));
    }
    deliver_due(&mut inflight, &mut collector, &mut tracer, u64::MAX);
    (collector, tracer, id)
}

proptest! {
    /// Offline replay of the trace reproduces the online histograms exactly
    /// (the paper's premise that histograms ≈ trace post-processing, made
    /// bit-exact).
    #[test]
    fn replay_is_bit_identical(steps in arb_steps()) {
        let (online, tracer, _) = run(&steps);
        let records: Vec<_> = tracer.records().copied().collect();
        let offline = replay(&records, CollectorConfig::default());
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                prop_assert_eq!(
                    online.histogram(metric, lens).counts(),
                    offline.histogram(metric, lens).counts(),
                    "{} / {}", metric, lens
                );
            }
        }
        prop_assert_eq!(online.issued_commands(), offline.issued_commands());
        prop_assert_eq!(online.completed_commands(), offline.completed_commands());
    }

    /// Invariants that hold for every workload: totals conserved, reads +
    /// writes = all, outstanding returns to zero after draining.
    #[test]
    fn collector_invariants(steps in arb_steps()) {
        let (c, _, issued) = run(&steps);
        prop_assert_eq!(c.issued_commands(), issued);
        prop_assert_eq!(c.completed_commands(), issued);
        prop_assert_eq!(c.outstanding_now(), 0);

        // Length histogram sees every command once.
        prop_assert_eq!(c.histogram(Metric::IoLength, Lens::All).total(), issued);
        // Latency histogram sees every completion once.
        prop_assert_eq!(c.histogram(Metric::Latency, Lens::All).total(), issued);
        // Read + write totals equal all for per-command metrics.
        for metric in [Metric::IoLength, Metric::OutstandingIos, Metric::Latency,
                       Metric::Interarrival, Metric::SeekDistanceWindowed] {
            let all = c.histogram(metric, Lens::All).total();
            let r = c.histogram(metric, Lens::Reads).total();
            let w = c.histogram(metric, Lens::Writes).total();
            prop_assert_eq!(r + w, all, "{}", metric);
        }
        // Plain seek distance: all-lens has issued-1 entries (first I/O has
        // no predecessor).
        prop_assert_eq!(
            c.histogram(Metric::SeekDistance, Lens::All).total(),
            issued - 1
        );
        // Outstanding I/Os are non-negative by construction (min >= 0).
        if let Some(min) = c.histogram(Metric::OutstandingIos, Lens::All).min() {
            prop_assert!(min >= 0);
        }
        // Latencies are non-negative.
        if let Some(min) = c.histogram(Metric::Latency, Lens::All).min() {
            prop_assert!(min >= 0);
        }
    }

    /// Trace export/import round-trips for arbitrary workloads.
    #[test]
    fn trace_text_roundtrip(steps in arb_steps()) {
        let (_, tracer, _) = run(&steps);
        let text = tracer.export();
        let parsed = VscsiTracer::import(&text).unwrap();
        let original: Vec<_> = tracer.records().copied().collect();
        prop_assert_eq!(parsed, original);
    }

    /// Collector memory footprint does not depend on the number of commands.
    #[test]
    fn constant_space(steps in arb_steps()) {
        let (c, _, _) = run(&steps);
        let fresh = {
            let mut f = IoStatsCollector::default();
            let r = IoRequest::new(
                RequestId(0), TargetId::default(), IoDirection::Read,
                Lba::new(0), 8, SimTime::ZERO,
            );
            f.on_issue(&r);
            f.on_complete(&IoCompletion::new(r, SimTime::from_micros(1)));
            f.memory_footprint_bytes()
        };
        prop_assert_eq!(c.memory_footprint_bytes(), fresh);
    }

    /// The set algebra the fleet plane leans on, over sets a collector can
    /// actually reach: merging is `Histogram::merge` slot by slot, a
    /// cumulative set minus an earlier one merges back to the cumulative
    /// set bit for bit, and the wire slot codec is the identity.
    #[test]
    fn histogram_set_algebra(a in arb_steps(), b in arb_steps()) {
        let set_of = |steps: &[Step]| run(steps).0.histogram_set().clone();
        let (set_a, set_b) = (set_of(&a), set_of(&b));

        let mut merged = set_a.clone();
        merged.merge(&set_b);
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                let mut expect = set_a.histogram(metric, lens);
                expect.merge(&set_b.histogram(metric, lens)).unwrap();
                prop_assert_eq!(merged.histogram(metric, lens), expect, "{} / {}", metric, lens);
            }
        }
        prop_assert_eq!(merged.total_events(), set_a.total_events() + set_b.total_events());

        // Every value `a` records, `a` followed by `b` records too (only
        // the order of `a`'s last completions differs), so the longer run
        // dominates the shorter one slot by slot.
        let set_ab = set_of(&[a, b].concat());
        let delta = set_ab.try_delta(&set_a);
        prop_assert!(delta.is_some(), "a prefix never reads as a regression");
        let mut resum = set_a.clone();
        resum.merge(&delta.unwrap());
        prop_assert_eq!(&resum, &set_ab);
        prop_assert!(set_a.try_delta(&set_ab).is_none(), "the other way round is one");

        let mut bytes = Vec::new();
        set_ab.encode_slots(&mut bytes);
        let mut pos = 0;
        prop_assert_eq!(HistogramSet::decode_slots(&bytes, &mut pos), Ok(set_ab));
        prop_assert_eq!(pos, bytes.len());
    }
}
