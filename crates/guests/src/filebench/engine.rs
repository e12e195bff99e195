//! The Filebench execution engine: interprets a parsed model against a
//! [`Filesystem`] model, producing the closed-loop block-I/O stream the
//! hypervisor drives.

use super::spec::{AccessPattern, FlowopKind, FlowopSpec, ModelSpec};
use crate::fs::{Extent, FileId, Filesystem};
use crate::workload::{BlockIo, Poll, Workload};
use simkit::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Tag used for background (flush) I/Os no thread waits on.
const FLUSH_TAG: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    Thread(usize),
    Flush,
}

#[derive(Debug)]
struct ThreadState {
    flowops: Vec<FlowopSpec>,
    pc: usize,
    /// Sequential-pattern cursors, one per flowop index.
    cursors: Vec<u64>,
    /// Rate-limit gates, one per flowop index: the earliest time the
    /// flowop may run again.
    next_allowed: Vec<SimTime>,
    /// Outstanding block I/Os the thread is waiting for.
    pending: u32,
}

/// A running Filebench personality bound to one virtual disk.
///
/// # Examples
///
/// ```
/// use guests::filebench::{oltp_model, FilebenchWorkload};
/// use guests::fs::{Ufs, UfsParams};
/// use guests::Workload;
/// use simkit::{SimRng, SimTime};
///
/// let spec = guests::filebench::parse_model(&oltp_model()).unwrap();
/// let mut wl = FilebenchWorkload::new(
///     "oltp-ufs",
///     spec,
///     Box::new(Ufs::new(UfsParams::default())),
///     SimRng::seed_from(1),
/// );
/// let poll = wl.start(SimTime::ZERO);
/// assert!(!poll.issue.is_empty());
/// ```
pub struct FilebenchWorkload {
    name: String,
    fs: Box<dyn Filesystem>,
    rng: SimRng,
    threads: Vec<ThreadState>,
    files: HashMap<String, (FileId, u64)>,
    /// Shared append cursor per file.
    append_cursors: HashMap<FileId, u64>,
    timers: BinaryHeap<Reverse<(SimTime, u64, TimerKind)>>,
    timer_seq: u64,
    ops_executed: u64,
}

impl std::fmt::Debug for FilebenchWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilebenchWorkload")
            .field("name", &self.name)
            .field("fs", &self.fs.name())
            .field("threads", &self.threads.len())
            .field("ops_executed", &self.ops_executed)
            .finish()
    }
}

impl FilebenchWorkload {
    /// Instantiates every thread of every process instance in `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec declares no threads.
    pub fn new(name: &str, spec: ModelSpec, fs: Box<dyn Filesystem>, rng: SimRng) -> Self {
        let mut files = HashMap::new();
        for (i, f) in spec.files.iter().enumerate() {
            files.insert(f.name.clone(), (FileId(i as u32), f.size));
        }
        let mut threads = Vec::new();
        for p in &spec.processes {
            for _ in 0..p.instances {
                for t in &p.threads {
                    for _ in 0..t.instances {
                        threads.push(ThreadState {
                            flowops: t.flowops.clone(),
                            pc: 0,
                            cursors: vec![0; t.flowops.len()],
                            next_allowed: vec![SimTime::ZERO; t.flowops.len()],
                            pending: 0,
                        });
                    }
                }
            }
        }
        assert!(!threads.is_empty(), "model has no threads");
        FilebenchWorkload {
            name: name.to_owned(),
            fs,
            rng,
            threads,
            files,
            append_cursors: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            ops_executed: 0,
        }
    }

    fn arm(&mut self, at: SimTime, kind: TimerKind) {
        self.timers.push(Reverse((at, self.timer_seq, kind)));
        self.timer_seq += 1;
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse((t, _, _))| *t)
    }

    fn offset_for(
        rng: &mut SimRng,
        cursor: &mut u64,
        pattern: AccessPattern,
        file_size: u64,
        iosize: u64,
    ) -> u64 {
        let iosize = iosize.max(1).min(file_size);
        let slots = (file_size / iosize).max(1);
        match pattern {
            AccessPattern::Random => rng.range_inclusive(0, slots - 1) * iosize,
            AccessPattern::Sequential => {
                let off = *cursor;
                *cursor = (*cursor + iosize) % (slots * iosize);
                off
            }
        }
    }

    /// Runs thread `t` forward until it blocks on I/O or a think; returns
    /// the I/Os to issue.
    fn run_thread(&mut self, t: usize, now: SimTime) -> Vec<BlockIo> {
        let mut spins = 0usize;
        loop {
            let (kind, pc) = {
                let th = &self.threads[t];
                (th.flowops[th.pc].kind.clone(), th.pc)
            };
            // Rate-limited flowops (open flows): wait for the gate without
            // consuming the flowop.
            let rate = match &kind {
                FlowopKind::Read { rate, .. }
                | FlowopKind::Write { rate, .. }
                | FlowopKind::Append { rate, .. } => *rate,
                FlowopKind::Think { .. } => None,
            };
            if let Some(rate) = rate {
                let gate = self.threads[t].next_allowed[pc];
                if now < gate {
                    self.arm(gate, TimerKind::Thread(t));
                    return Vec::new();
                }
                self.threads[t].next_allowed[pc] =
                    now + SimDuration::from_secs_f64(1.0 / f64::from(rate));
            }
            // Advance the program counter (loops forever).
            {
                let th = &mut self.threads[t];
                th.pc = (th.pc + 1) % th.flowops.len();
            }
            self.ops_executed += 1;
            let extents: Vec<Extent> = match kind {
                FlowopKind::Think { duration } => {
                    self.arm(now + duration, TimerKind::Thread(t));
                    return Vec::new();
                }
                FlowopKind::Read {
                    ref file,
                    iosize,
                    pattern,
                    ..
                } => {
                    let (fid, size) = self.files[file.as_str()];
                    let mut cursor = self.threads[t].cursors[pc];
                    let off = Self::offset_for(&mut self.rng, &mut cursor, pattern, size, iosize);
                    self.threads[t].cursors[pc] = cursor;
                    self.fs.read(fid, off, iosize, &mut self.rng)
                }
                FlowopKind::Write {
                    ref file,
                    iosize,
                    pattern,
                    sync,
                    ..
                } => {
                    let (fid, size) = self.files[file.as_str()];
                    let mut cursor = self.threads[t].cursors[pc];
                    let off = Self::offset_for(&mut self.rng, &mut cursor, pattern, size, iosize);
                    self.threads[t].cursors[pc] = cursor;
                    self.fs.write(fid, off, iosize, sync, &mut self.rng)
                }
                FlowopKind::Append {
                    ref file,
                    iosize,
                    sync,
                    ..
                } => {
                    let (fid, size) = self.files[file.as_str()];
                    let cursor = self.append_cursors.entry(fid).or_insert(0);
                    let off = *cursor;
                    *cursor = (*cursor + iosize) % size.max(iosize);
                    self.fs.write(fid, off, iosize, sync, &mut self.rng)
                }
            };
            if !extents.is_empty() {
                self.threads[t].pending = extents.len() as u32;
                return extents
                    .into_iter()
                    .map(|e| BlockIo::new(e.direction, e.lba, e.sectors, t as u64))
                    .collect();
            }
            // Buffered write (no disk I/O): continue to the next flowop, but
            // never spin forever on an all-buffered loop.
            spins += 1;
            if spins > self.threads[t].flowops.len() * 2 {
                self.arm(now + SimDuration::from_micros(100), TimerKind::Thread(t));
                return Vec::new();
            }
        }
    }

    fn flush_now(&mut self, now: SimTime) -> Vec<BlockIo> {
        let extents = self.fs.flush(&mut self.rng);
        if let Some(interval) = self.fs.flush_interval() {
            self.arm(now + interval, TimerKind::Flush);
        }
        extents
            .into_iter()
            .map(|e| BlockIo::new(e.direction, e.lba, e.sectors, FLUSH_TAG))
            .collect()
    }
}

impl Workload for FilebenchWorkload {
    fn start(&mut self, now: SimTime) -> Poll {
        let mut ios = Vec::new();
        for t in 0..self.threads.len() {
            ios.extend(self.run_thread(t, now));
        }
        if let Some(interval) = self.fs.flush_interval() {
            self.arm(now + interval, TimerKind::Flush);
        }
        Poll {
            issue: ios,
            timer: self.next_timer(),
        }
    }

    fn on_complete(&mut self, now: SimTime, tag: u64) -> Poll {
        if tag == FLUSH_TAG {
            return Poll {
                issue: Vec::new(),
                timer: self.next_timer(),
            };
        }
        let t = tag as usize;
        debug_assert!(self.threads[t].pending > 0);
        self.threads[t].pending = self.threads[t].pending.saturating_sub(1);
        let ios = if self.threads[t].pending == 0 {
            self.run_thread(t, now)
        } else {
            Vec::new()
        };
        Poll {
            issue: ios,
            timer: self.next_timer(),
        }
    }

    fn on_timer(&mut self, now: SimTime) -> Poll {
        let mut ios = Vec::new();
        while let Some(&Reverse((at, _, kind))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            match kind {
                TimerKind::Thread(t) => ios.extend(self.run_thread(t, now)),
                TimerKind::Flush => ios.extend(self.flush_now(now)),
            }
        }
        Poll {
            issue: ios,
            timer: self.next_timer(),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filebench::{oltp_model, parse_model};
    use crate::fs::{Ufs, UfsParams, Zfs, ZfsParams};

    fn mini_model() -> ModelSpec {
        parse_model(
            "define file name=data,size=64m\n\
             define process name=p {\n\
               thread name=t,instances=2 {\n\
                 flowop read name=r,file=data,iosize=4k,random\n\
                 flowop think name=z,value=1ms\n\
               }\n\
             }\n",
        )
        .unwrap()
    }

    fn ufs_workload(spec: ModelSpec) -> FilebenchWorkload {
        FilebenchWorkload::new(
            "test",
            spec,
            Box::new(Ufs::new(UfsParams::default())),
            SimRng::seed_from(7),
        )
    }

    #[test]
    fn start_issues_one_read_per_thread() {
        let mut wl = ufs_workload(mini_model());
        let poll = wl.start(SimTime::ZERO);
        assert_eq!(poll.issue.len(), 2);
        assert!(poll.issue.iter().all(|io| io.direction.is_read()));
        assert_eq!(poll.issue[0].sectors, 8);
    }

    #[test]
    fn completion_advances_to_think_then_timer_resumes() {
        let mut wl = ufs_workload(mini_model());
        let poll = wl.start(SimTime::ZERO);
        let tag = poll.issue[0].tag;
        // Completing the read hits the think flowop: no new I/O, but a timer.
        let p2 = wl.on_complete(SimTime::from_micros(500), tag);
        assert!(p2.issue.is_empty());
        let timer = p2.timer.expect("think must arm a timer");
        assert_eq!(
            timer,
            SimTime::from_micros(500) + SimDuration::from_millis(1)
        );
        // When the timer fires, the thread loops back to the read.
        let p3 = wl.on_timer(timer);
        assert_eq!(p3.issue.len(), 1);
        assert_eq!(p3.issue[0].tag, tag);
    }

    #[test]
    fn sequential_pattern_advances_and_wraps() {
        let spec = parse_model(
            "define file name=d,size=16k\n\
             define process name=p {\n\
               thread name=t {\n\
                 flowop read name=r,file=d,iosize=4k\n\
                 flowop think name=z,value=1ms\n\
               }\n\
             }\n",
        )
        .unwrap();
        let mut wl = ufs_workload(spec);
        let mut offs = Vec::new();
        let mut now = SimTime::ZERO;
        let p = wl.start(now);
        offs.push(p.issue[0].lba);
        let tag = p.issue[0].tag;
        for _ in 0..4 {
            now += SimDuration::from_micros(100);
            let p = wl.on_complete(now, tag);
            let timer = p.timer.unwrap();
            let p = wl.on_timer(timer);
            offs.push(p.issue[0].lba);
            now = timer;
        }
        // 16k file / 4k iosize: offsets cycle with period 4.
        assert_eq!(offs[0], offs[4]);
        assert_eq!(offs[1], offs[0].advance(8));
    }

    #[test]
    fn zfs_buffered_writes_do_not_spin() {
        let spec = parse_model(
            "define file name=d,size=64m\n\
             define process name=p {\n\
               thread name=w {\n\
                 flowop write name=wr,file=d,iosize=8k,random\n\
               }\n\
             }\n",
        )
        .unwrap();
        let mut wl = FilebenchWorkload::new(
            "zfs-writer",
            spec,
            Box::new(Zfs::new(ZfsParams::default())),
            SimRng::seed_from(3),
        );
        // All writes are buffered: no I/O, but a backoff timer instead of a hang.
        let p = wl.start(SimTime::ZERO);
        assert!(p.issue.is_empty());
        assert!(p.timer.is_some());
    }

    #[test]
    fn zfs_flush_timer_emits_background_writes() {
        let spec = parse_model(
            "define file name=d,size=64m\n\
             define process name=p {\n\
               thread name=w {\n\
                 flowop write name=wr,file=d,iosize=8k,random\n\
                 flowop think name=z,value=1ms\n\
               }\n\
             }\n",
        )
        .unwrap();
        let mut wl = FilebenchWorkload::new(
            "zfs-writer",
            spec,
            Box::new(Zfs::new(ZfsParams::default())),
            SimRng::seed_from(3),
        );
        let mut now = SimTime::ZERO;
        let mut poll = wl.start(now);
        // Drive timers until the txg flush (5 s) fires.
        let mut flush_ios = Vec::new();
        for _ in 0..20_000 {
            let Some(t) = poll.timer else { break };
            now = t;
            poll = wl.on_timer(now);
            let flush: Vec<_> = poll
                .issue
                .iter()
                .filter(|io| io.tag == FLUSH_TAG)
                .copied()
                .collect();
            if !flush.is_empty() {
                flush_ios = flush;
                break;
            }
        }
        assert!(!flush_ios.is_empty(), "txg flush never fired");
        assert!(flush_ios.iter().all(|io| io.direction.is_write()));
        // Flush completions don't wake any thread.
        let p = wl.on_complete(now, FLUSH_TAG);
        assert!(p.issue.is_empty());
    }

    #[test]
    fn rate_limited_flowop_is_an_open_flow() {
        // rate=100 ops/s => one read every 10 ms regardless of completions.
        let spec = parse_model(
            "define file name=d,size=64m\n\
             define process name=p {\n\
               thread name=t {\n\
                 flowop read name=r,file=d,iosize=4k,random,rate=100\n\
               }\n\
             }\n",
        )
        .unwrap();
        let mut wl = ufs_workload(spec);
        let p = wl.start(SimTime::ZERO);
        assert_eq!(p.issue.len(), 1, "first op passes the gate immediately");
        let tag = p.issue[0].tag;
        // Completion arrives quickly, but the gate holds the next op.
        let p2 = wl.on_complete(SimTime::from_micros(500), tag);
        assert!(p2.issue.is_empty());
        let gate = p2.timer.expect("rate gate timer");
        assert_eq!(gate, SimTime::from_millis(10));
        // The gate fires: next op issues.
        let p3 = wl.on_timer(gate);
        assert_eq!(p3.issue.len(), 1);
    }

    #[test]
    fn rate_attribute_parses_and_validates() {
        let spec = parse_model(
            "define file name=d,size=1m\n\
             define process name=p {\n\
               thread name=t {\n\
                 flowop write name=w,file=d,iosize=4k,rate=250,sync\n\
               }\n\
             }\n",
        )
        .unwrap();
        match &spec.processes[0].threads[0].flowops[0].kind {
            FlowopKind::Write { rate, sync, .. } => {
                assert_eq!(*rate, Some(250));
                assert!(*sync);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse_model(
                "define file name=d,size=1m\n\
             define process name=p {\n thread name=t {\n\
               flowop read name=r,file=d,iosize=4k,rate=0\n }\n}\n"
            )
            .is_err(),
            "rate=0 rejected"
        );
    }

    #[test]
    fn oltp_personality_parses_and_runs() {
        let spec = parse_model(&oltp_model()).unwrap();
        assert!(spec.total_threads() > 10);
        let mut wl = ufs_workload(spec);
        let poll = wl.start(SimTime::ZERO);
        assert!(!poll.issue.is_empty());
        assert!(wl.ops_executed > 0);
        assert_eq!(wl.name(), "test");
    }

    #[test]
    fn append_cursor_is_shared_and_sequentialish() {
        let spec = parse_model(
            "define file name=log,size=1m\n\
             define process name=p {\n\
               thread name=a,instances=2 {\n\
                 flowop append name=lg,file=log,iosize=8k\n\
                 flowop think name=z,value=1ms\n\
               }\n\
             }\n",
        )
        .unwrap();
        let mut wl = ufs_workload(spec);
        let p = wl.start(SimTime::ZERO);
        // Two appenders, consecutive log offsets -> adjacent disk extents
        // (same 1 MiB chunk).
        assert_eq!(p.issue.len(), 2);
        let a = p.issue[0];
        let b = p.issue[1];
        assert_eq!(a.lba.advance(u64::from(a.sectors)), b.lba);
    }
}
