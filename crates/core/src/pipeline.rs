//! Thread-per-core ingest pipeline: lock-free SPSC lanes feeding pinned
//! aggregator workers that own disjoint shard sets.
//!
//! The sharded [`StatsService`](crate::StatsService) removed most lock
//! contention, but every producer still crosses a mutex per shard touch.
//! This module removes the mutexes from the hot path entirely:
//!
//! * Each producer thread holds a [`PipelineProducer`] with one bounded
//!   [`spsc`](crate::spsc) ring per aggregator (an N×M *lane mesh*).
//!   Writing an event is a shard-hash, an index, and a ring push — no
//!   shared locks, no CAS loops, no allocation.
//! * Each aggregator worker owns the shard indices `s` with
//!   `s % aggregators == self`, and is the *only* thread that ever locks
//!   those shards. It drains its lanes in batches of up to
//!   [`PipelineConfig::drain_batch`] events and applies them through
//!   [`StatsService::handle_batch`](crate::StatsService::handle_batch) —
//!   the same two per-event hooks inline callers use — so the per-shard
//!   mutex is uncontended by construction.
//!
//! Ordering: a lane is single-producer/single-consumer and routing is a
//! pure function of the target, so all events one producer emits for one
//! target arrive at its shard in emission order. With a single producer
//! the pipeline is therefore *bit-identical* to calling `handle_batch`
//! inline (the `pipeline_props` proptest pins this).
//!
//! Backpressure: a full lane is the overload signal. The blocking
//! offer yields until space frees; the lossy [`PipelineProducer::offer`]
//! drops on a full lane and books the drop per shard, and
//! [`IngestPipeline::finish`] folds those drops into the sentinel ledger
//! via [`StatsService::absorb_ring_sheds`](crate::StatsService::absorb_ring_sheds)
//! so the conservation identity `ingested + sampled_out + shed == offered`
//! holds end to end. Watchdog heartbeats come for free: the aggregator
//! drains through the same hooks, which beat the shard watchdog exactly
//! as inline ingest does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::service::{StatsService, VscsiEvent};
use crate::spsc;

/// Shape of the thread-per-core pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of producer handles to create (one per ingesting thread).
    pub producers: usize,
    /// Number of aggregator worker threads; aggregator `a` owns every
    /// shard index `s` with `s % aggregators == a`.
    pub aggregators: usize,
    /// Capacity of each producer→aggregator lane, rounded up to a power
    /// of two by the ring.
    pub ring_capacity: usize,
    /// Maximum events an aggregator moves per lane visit. Small enough to
    /// stay fair across lanes, large enough to amortize the ring's
    /// shared-index traffic (one publish per drained batch).
    pub drain_batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            producers: 1,
            aggregators: 2,
            ring_capacity: 1024,
            drain_batch: 16,
        }
    }
}

/// Counters and flags shared between producers, aggregators, and the
/// pipeline handle; the counters feed the final [`PipelineReport`].
#[derive(Debug)]
struct PipelineShared {
    /// Events the aggregators have applied via `handle_batch`.
    processed: AtomicU64,
    /// Events offered to any producer handle (pushed + shed).
    offered: AtomicU64,
    /// Events dropped at a full lane by the lossy offer.
    shed: AtomicU64,
    /// Ring-full drops per shard index, folded into the sentinel ledger
    /// at [`IngestPipeline::finish`].
    sheds_by_shard: Box<[AtomicU64]>,
    /// Test/backpressure hook: while set, aggregators stop draining so
    /// lanes fill and the lossy offer path can be exercised.
    paused: AtomicBool,
    /// Set when the pipeline handle is dropped without `finish`, so
    /// workers exit instead of leaking.
    shutdown: AtomicBool,
}

/// Outcome of a pipeline run, returned by [`IngestPipeline::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineReport {
    /// Events offered to producer handles (`ingested + shed`).
    pub offered: u64,
    /// Events that reached an aggregator and were applied.
    pub ingested: u64,
    /// Events dropped at full lanes (already booked in the sentinel
    /// ledger as shed when the sentinel is armed).
    pub shed: u64,
}

/// A producer-side handle: one SPSC lane to every aggregator. Not
/// [`Sync`] — each ingesting thread takes its own handle.
#[derive(Debug)]
pub struct IngestPipeline {
    service: Arc<StatsService>,
    shared: Arc<PipelineShared>,
    workers: Vec<JoinHandle<()>>,
}

/// Per-thread event writer for the pipeline (one lane per aggregator).
#[derive(Debug)]
pub struct PipelineProducer {
    service: Arc<StatsService>,
    shared: Arc<PipelineShared>,
    lanes: Vec<spsc::Producer<VscsiEvent>>,
}

impl PipelineProducer {
    #[inline]
    fn route(&self, event: &VscsiEvent) -> (usize, usize) {
        let shard = self.service.shard_index_of(event.target());
        (shard, shard % self.lanes.len())
    }

    /// Lossy offer: publishes `event`, or drops it if the destination
    /// lane is full (booking the drop for the sentinel ledger). Returns
    /// whether the event was published. This is the real-time path — the
    /// vSCSI emulation layer must never stall on statistics.
    pub fn offer(&mut self, event: VscsiEvent) -> bool {
        let (shard, lane) = self.route(&event);
        self.shared.offered.fetch_add(1, Ordering::Relaxed);
        let published = self.lanes[lane].try_push(event);
        if !published {
            self.shared.sheds_by_shard[shard].fetch_add(1, Ordering::Relaxed);
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
        }
        published
    }

    /// Blocking batch offer: groups consecutive same-lane events and
    /// publishes each run with a single release store, yielding while a
    /// lane is full. Per-target order is preserved (routing is a pure
    /// function of the target, and runs are published in input order).
    pub fn offer_batch_blocking(&mut self, events: &[VscsiEvent]) {
        let mut i = 0;
        while i < events.len() {
            let (_, lane) = self.route(&events[i]);
            let mut j = i + 1;
            while j < events.len() && self.route(&events[j]).1 == lane {
                j += 1;
            }
            let mut run = &events[i..j];
            self.shared
                .offered
                .fetch_add(run.len() as u64, Ordering::Relaxed);
            while !run.is_empty() {
                let pushed = self.lanes[lane].push_batch(run);
                run = &run[pushed..];
                if !run.is_empty() {
                    // One-CPU CI containers: spin_loop() never cedes the
                    // core, so the aggregator could starve forever. Yield
                    // the timeslice.
                    thread::yield_now();
                }
            }
            i = j;
        }
    }
}

impl IngestPipeline {
    /// Starts the aggregator workers and returns the pipeline handle plus
    /// one [`PipelineProducer`] per configured producer. Hand each
    /// producer to its ingesting thread; when ingestion is done, pass
    /// them all back to [`IngestPipeline::finish`].
    pub fn start(
        service: Arc<StatsService>,
        config: PipelineConfig,
    ) -> (IngestPipeline, Vec<PipelineProducer>) {
        let producers = config.producers.max(1);
        let aggregators = config.aggregators.max(1);
        let drain_batch = config.drain_batch.clamp(1, 1024);
        let shared = Arc::new(PipelineShared {
            processed: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sheds_by_shard: (0..service.shard_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            paused: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });

        // Build the N×M lane mesh: lanes[p][a] connects producer p to
        // aggregator a.
        let mut producer_handles = Vec::with_capacity(producers);
        let mut consumer_rows: Vec<Vec<spsc::Consumer<VscsiEvent>>> = (0..aggregators)
            .map(|_| Vec::with_capacity(producers))
            .collect();
        for _ in 0..producers {
            let mut lanes = Vec::with_capacity(aggregators);
            for row in consumer_rows.iter_mut() {
                let (tx, rx) = spsc::ring::<VscsiEvent>(config.ring_capacity);
                lanes.push(tx);
                row.push(rx);
            }
            producer_handles.push(PipelineProducer {
                service: Arc::clone(&service),
                shared: Arc::clone(&shared),
                lanes,
            });
        }

        let workers = consumer_rows
            .into_iter()
            .enumerate()
            .map(|(a, lanes)| {
                let service = Arc::clone(&service);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vscsi-agg-{a}"))
                    .spawn(move || aggregator_loop(service, shared, lanes, drain_batch))
                    .expect("spawn aggregator worker")
            })
            .collect();

        (
            IngestPipeline {
                service,
                shared,
                workers,
            },
            producer_handles,
        )
    }

    /// Stops the aggregators from draining (lanes fill up; lossy offers
    /// start shedding). Test/backpressure hook.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes draining after [`IngestPipeline::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
    }

    /// Events dropped at full lanes so far.
    pub fn shed_so_far(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Drains and shuts down: drops the producer handles (closing every
    /// lane), joins the aggregators once all lanes are empty, folds the
    /// ring-full drops into the sentinel ledger, and reports the final
    /// event accounting. Producers that were already dropped elsewhere
    /// (e.g. moved into worker threads that have exited) may be omitted
    /// from `producers` — a lane also closes when its producer drops.
    pub fn finish(mut self, producers: Vec<PipelineProducer>) -> PipelineReport {
        drop(producers); // closes all lanes; aggregators drain and exit
        self.shared.paused.store(false, Ordering::Release);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let sheds: Vec<u64> = self
            .shared
            .sheds_by_shard
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        self.service.absorb_ring_sheds(&sheds);
        PipelineReport {
            offered: self.shared.offered.load(Ordering::Relaxed),
            ingested: self.shared.processed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // finish() already joined (workers is empty). Otherwise tell the
        // workers to exit at the next empty scan so threads don't leak,
        // even if some producer handle is still alive somewhere.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.paused.store(false, Ordering::Release);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Aggregator worker body: round-robin over this worker's lanes, moving
/// up to `drain_batch` events per visit into `handle_batch`. Exits when
/// every lane is closed and empty (normal finish) or on shutdown.
fn aggregator_loop(
    service: Arc<StatsService>,
    shared: Arc<PipelineShared>,
    mut lanes: Vec<spsc::Consumer<VscsiEvent>>,
    drain_batch: usize,
) {
    let mut buf: Vec<VscsiEvent> = Vec::with_capacity(drain_batch);
    loop {
        if shared.paused.load(Ordering::Acquire) {
            thread::yield_now();
            continue;
        }
        let mut drained = false;
        let mut all_done = true;
        for lane in lanes.iter_mut() {
            let n = lane.pop_chunk(&mut buf, drain_batch);
            if n > 0 {
                drained = true;
                service.handle_batch(&buf);
                shared.processed.fetch_add(n as u64, Ordering::Release);
                buf.clear();
            }
            if !(lane.is_closed() && lane.backlog() == 0) {
                all_done = false;
            }
        }
        if !drained {
            if all_done || shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorConfig;
    use crate::metrics::{Lens, Metric};
    use simkit::SimTime;
    use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};

    fn event_script(targets: u32, per_target: u64) -> Vec<VscsiEvent> {
        let mut events = Vec::new();
        for i in 0..per_target {
            for t in 0..targets {
                let target = TargetId::new(VmId(t), VDiskId(0));
                let req = IoRequest::new(
                    RequestId(i * u64::from(targets) + u64::from(t)),
                    target,
                    if i % 3 == 0 {
                        IoDirection::Write
                    } else {
                        IoDirection::Read
                    },
                    Lba::new(i * 64),
                    16,
                    SimTime::from_micros(i * 50),
                );
                events.push(VscsiEvent::Issue(req));
                events.push(VscsiEvent::Complete(IoCompletion::new(
                    req,
                    SimTime::from_micros(i * 50 + 30),
                )));
            }
        }
        events
    }

    #[test]
    fn pipeline_matches_inline_ingest() {
        let events = event_script(4, 200);

        let inline = StatsService::new(CollectorConfig::default());
        inline.enable_all();
        inline.handle_batch(&events);

        let service = Arc::new(StatsService::new(CollectorConfig::default()));
        service.enable_all();
        let (pipeline, mut producers) =
            IngestPipeline::start(Arc::clone(&service), PipelineConfig::default());
        producers[0].offer_batch_blocking(&events);
        let report = pipeline.finish(producers);
        assert_eq!(report.shed, 0);
        assert_eq!(report.ingested, events.len() as u64);

        for target in inline.targets() {
            let a = inline.collector(target).expect("inline collector");
            let b = service.collector(target).expect("pipeline collector");
            for metric in Metric::ALL {
                for lens in [Lens::All, Lens::Reads, Lens::Writes] {
                    assert_eq!(
                        a.histogram(metric, lens),
                        b.histogram(metric, lens),
                        "{target}/{metric} diverged"
                    );
                }
            }
            assert_eq!(a.issued_commands(), b.issued_commands());
            assert_eq!(a.completed_commands(), b.completed_commands());
        }
    }

    #[test]
    fn dropped_without_finish_does_not_hang() {
        let service = Arc::new(StatsService::new(CollectorConfig::default()));
        let (pipeline, producers) = IngestPipeline::start(service, PipelineConfig::default());
        // Keep producers alive past the drop: shutdown flag must stop the
        // workers even with open lanes.
        drop(pipeline);
        drop(producers);
    }
}
