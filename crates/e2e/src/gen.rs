//! Seeded inputs. Everything a workload feeds the system is generated here
//! from `--seed` with [`SimRng`]; the program under test only ever sees
//! the generated events.

use crate::stats::Digest;
use simkit::{SimRng, SimTime};
use std::collections::VecDeque;
use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId, VDiskId, VmId};
use vscsi_stats::VscsiEvent;

/// Commands each target keeps outstanding in a generated stream.
pub const STREAM_OIO: usize = 4;

/// A closed, interleaved command stream: every issue has its completion,
/// `events.len() == 2 * commands`.
#[derive(Debug)]
pub struct CommandStream {
    pub events: Vec<VscsiEvent>,
    pub targets: Vec<TargetId>,
    /// Commands per target, indexed like `targets`.
    pub per_target: Vec<u64>,
    pub commands: u64,
    /// Digest of every generated event: a change to the load shows here.
    pub digest: u64,
    /// Virtual time of the last event.
    pub end_ns: u64,
}

pub fn target(index: u32) -> TargetId {
    TargetId::new(VmId(index), VDiskId(0))
}

/// `commands` commands over `targets` targets, interleaved on one virtual
/// clock: each target keeps [`STREAM_OIO`] commands outstanding, sizes are
/// 4–64 KiB powers of two, a third are writes, even targets stream
/// sequentially and odd ones seek uniformly over 128 GiB.
pub fn command_stream(rng: &mut SimRng, targets: u32, commands: usize) -> CommandStream {
    let ids: Vec<TargetId> = (0..targets).map(target).collect();
    let mut events = Vec::with_capacity(commands * 2);
    let mut outstanding: Vec<VecDeque<IoRequest>> = (0..targets).map(|_| VecDeque::new()).collect();
    let mut heads = vec![0u64; targets as usize];
    let mut per_target = vec![0u64; targets as usize];
    let mut now_ns = 0u64;
    let mut digest = Digest::default();
    for i in 0..commands {
        let t = rng.range_inclusive(0, u64::from(targets) - 1) as usize;
        now_ns += rng.range_inclusive(1_000, 20_000);
        if outstanding[t].len() >= STREAM_OIO {
            let done = outstanding[t].pop_front().expect("non-empty queue");
            let at = now_ns - rng.range_inclusive(0, 900);
            events.push(VscsiEvent::Complete(IoCompletion::new(
                done,
                SimTime::from_nanos(at.max(done.issue_time.as_nanos())),
            )));
        }
        let sectors = 8u32 << rng.range_inclusive(0, 4);
        let lba = if t.is_multiple_of(2) {
            let at = heads[t];
            heads[t] += u64::from(sectors);
            at
        } else {
            rng.range_inclusive(0, (1 << 28) - 1)
        };
        let direction = if rng.range_inclusive(0, 2) == 0 {
            IoDirection::Write
        } else {
            IoDirection::Read
        };
        let req = IoRequest::new(
            RequestId(i as u64),
            ids[t],
            direction,
            Lba::new(lba),
            sectors,
            SimTime::from_nanos(now_ns),
        );
        per_target[t] += 1;
        outstanding[t].push_back(req);
        events.push(VscsiEvent::Issue(req));
    }
    for queue in &mut outstanding {
        while let Some(done) = queue.pop_front() {
            now_ns += rng.range_inclusive(1_000, 20_000);
            events.push(VscsiEvent::Complete(IoCompletion::new(
                done,
                SimTime::from_nanos(now_ns),
            )));
        }
    }
    for event in &events {
        fold_event(&mut digest, event);
    }
    CommandStream {
        events,
        targets: ids,
        per_target,
        commands: commands as u64,
        digest: digest.value(),
        end_ns: now_ns,
    }
}

fn fold_event(d: &mut Digest, event: &VscsiEvent) {
    let (req, done) = match event {
        VscsiEvent::Issue(req) => (req, 0),
        VscsiEvent::Complete(c) => (&c.request, c.complete_time.as_nanos() | (1 << 63)),
    };
    d.fold((u64::from(req.target.vm.0) << 32) | u64::from(req.num_sectors));
    d.fold((req.lba.sector() << 1) | u64::from(req.direction.is_write()));
    d.fold(req.issue_time.as_nanos());
    d.fold(done);
}

/// Splits a stream by target into `parts` event lists, each keeping its
/// targets' event order — what `parts` producer threads feed concurrently
/// without changing any per-target histogram.
pub fn partition_by_target(stream: &CommandStream, parts: usize) -> Vec<Vec<VscsiEvent>> {
    let mut out: Vec<Vec<VscsiEvent>> = (0..parts)
        .map(|_| Vec::with_capacity(stream.events.len() / parts + 1))
        .collect();
    for event in &stream.events {
        out[event.target().vm.0 as usize % parts].push(*event);
    }
    out
}

/// One fleet host's ingest burst: `commands` fully completing commands
/// over the host's targets (dense targets, the first quarter, take nine
/// in ten), starting at virtual time `start_ns`.
pub fn host_burst(
    rng: &mut SimRng,
    targets: u32,
    commands: usize,
    start_ns: u64,
    out: &mut Vec<VscsiEvent>,
) {
    out.clear();
    let dense = (targets / 4).max(1);
    let mut now_ns = start_ns;
    for i in 0..commands {
        let t = if rng.range_inclusive(0, 9) < 9 {
            rng.range_inclusive(0, u64::from(dense) - 1)
        } else {
            rng.range_inclusive(0, u64::from(targets) - 1)
        } as u32;
        now_ns += rng.range_inclusive(1_000, 50_000);
        let req = IoRequest::new(
            RequestId(start_ns + i as u64),
            target(t),
            if rng.range_inclusive(0, 2) == 0 {
                IoDirection::Write
            } else {
                IoDirection::Read
            },
            Lba::new(rng.range_inclusive(0, (1 << 30) - 1)),
            8u32 << rng.range_inclusive(0, 5),
            SimTime::from_nanos(now_ns),
        );
        let latency_ns = rng.range_inclusive(50_000, 20_000_000);
        out.push(VscsiEvent::Issue(req));
        out.push(VscsiEvent::Complete(IoCompletion::new(
            req,
            SimTime::from_nanos(now_ns + latency_ns),
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_closed_ordered_and_seeded() {
        let a = command_stream(&mut SimRng::seed_from(5), 8, 4_000);
        let b = command_stream(&mut SimRng::seed_from(5), 8, 4_000);
        let c = command_stream(&mut SimRng::seed_from(6), 8, 4_000);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.events.len(), 8_000);
        assert_eq!(a.per_target.iter().sum::<u64>(), 4_000);
        // Per target: never more than STREAM_OIO outstanding, time never
        // runs backwards, completions never precede their issue.
        let mut open = [0usize; 8];
        let mut last = [0u64; 8];
        for event in &a.events {
            let t = event.target().vm.0 as usize;
            match event {
                VscsiEvent::Issue(req) => {
                    open[t] += 1;
                    assert!(open[t] <= STREAM_OIO);
                    assert!(req.issue_time.as_nanos() >= last[t]);
                    last[t] = req.issue_time.as_nanos();
                }
                VscsiEvent::Complete(c) => {
                    open[t] -= 1;
                    assert!(c.complete_time >= c.request.issue_time);
                }
            }
        }
        assert_eq!(open, [0; 8]);
        let parts = partition_by_target(&a, 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), a.events.len());
    }
}
