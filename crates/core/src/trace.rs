//! The virtual SCSI command tracing framework (§1, §3.6).
//!
//! "More thorough analysis may still require an I/O trace so we provide a
//! simple virtual SCSI command tracing framework." A [`VscsiTracer`]
//! records one [`TraceRecord`] per command — O(n) space, unlike the O(m)
//! histograms — and traces can be replayed offline through a fresh
//! [`IoStatsCollector`](crate::IoStatsCollector), which must reproduce the
//! online histograms exactly (that equivalence is property-tested).

use crate::collector::{CollectorConfig, IoStatsCollector};
use crate::sentinel::SinkHealth;
use simkit::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use vscsi::{
    IoCompletion, IoDirection, IoRequest, Lba, RequestId, ScsiStatus, TargetId, VDiskId, VmId,
};

/// One traced vSCSI command.
///
/// A trace is an append-only log of *events* (issues and completions)
/// observed at the vSCSI layer. Timestamps alone cannot disambiguate
/// events that share an instant, so each record carries the global event
/// sequence numbers of its issue and completion; replay follows those, so
/// offline replay reproduces the observed order exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Global event-sequence number of the issue event.
    pub serial: u64,
    /// Which (VM, virtual disk) issued the command.
    pub target: TargetId,
    /// Read or write.
    pub direction: IoDirection,
    /// First logical block.
    pub lba: Lba,
    /// Sectors transferred.
    pub num_sectors: u32,
    /// Issue timestamp, nanoseconds.
    pub issue_ns: u64,
    /// Completion timestamp, nanoseconds; `None` while still in flight.
    pub complete_ns: Option<u64>,
    /// Global event-sequence number of the completion event, if completed.
    pub complete_seq: Option<u64>,
}

impl TraceRecord {
    /// Reconstructs the request object this record describes.
    pub fn to_request(&self) -> IoRequest {
        IoRequest::new(
            RequestId(self.serial),
            self.target,
            self.direction,
            self.lba,
            self.num_sectors,
            SimTime::from_nanos(self.issue_ns),
        )
    }

    /// Reconstructs the completion, if the command completed. A record is
    /// what the hooks observed, so a completion stamped before its issue —
    /// which the online collector counts as a clock anomaly — comes back as
    /// observed, not as a panic.
    pub fn to_completion(&self) -> Option<IoCompletion> {
        self.complete_ns.map(|t| {
            IoCompletion::observed(self.to_request(), SimTime::from_nanos(t), ScsiStatus::Good)
        })
    }
}

impl fmt::Display for TraceRecord {
    /// One whitespace-separated line:
    /// `serial vm disk R|W lba sectors issue_ns complete_ns|- complete_seq|-`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {} {} {} ",
            self.serial,
            self.target.vm.0,
            self.target.disk.0,
            self.direction,
            self.lba.sector(),
            self.num_sectors,
            self.issue_ns,
        )?;
        match self.complete_ns {
            Some(t) => write!(f, "{t}")?,
            None => write!(f, "-")?,
        }
        match self.complete_seq {
            Some(s) => write!(f, " {s}"),
            None => write!(f, " -"),
        }
    }
}

/// Error parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    msg: String,
}

impl ParseTraceError {
    fn new(msg: impl Into<String>) -> Self {
        ParseTraceError { msg: msg.into() }
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace line: {}", self.msg)
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for TraceRecord {
    type Err = ParseTraceError;

    /// Parses one [`Display`](fmt::Display) line. Stricter than the binary
    /// path: a *text* line whose completion precedes its issue is rejected
    /// as malformed, although a tracer records such a pair when the hooks
    /// observe one and [`replay`] accepts it.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_whitespace();
        let mut next = |what: &str| {
            it.next()
                .ok_or_else(|| ParseTraceError::new(format!("missing field {what}")))
        };
        let serial = next("serial")?
            .parse::<u64>()
            .map_err(|e| ParseTraceError::new(format!("serial: {e}")))?;
        let vm = next("vm")?
            .parse::<u32>()
            .map_err(|e| ParseTraceError::new(format!("vm: {e}")))?;
        let disk = next("disk")?
            .parse::<u32>()
            .map_err(|e| ParseTraceError::new(format!("disk: {e}")))?;
        let direction = match next("dir")? {
            "R" => IoDirection::Read,
            "W" => IoDirection::Write,
            other => return Err(ParseTraceError::new(format!("direction {other:?}"))),
        };
        let lba = next("lba")?
            .parse::<u64>()
            .map_err(|e| ParseTraceError::new(format!("lba: {e}")))?;
        let num_sectors = next("sectors")?
            .parse::<u32>()
            .map_err(|e| ParseTraceError::new(format!("sectors: {e}")))?;
        let issue_ns = next("issue")?
            .parse::<u64>()
            .map_err(|e| ParseTraceError::new(format!("issue: {e}")))?;
        let complete_ns = match next("complete")? {
            "-" => None,
            t => Some(
                t.parse::<u64>()
                    .map_err(|e| ParseTraceError::new(format!("complete: {e}")))?,
            ),
        };
        let complete_seq = match next("complete_seq")? {
            "-" => None,
            s => Some(
                s.parse::<u64>()
                    .map_err(|e| ParseTraceError::new(format!("complete_seq: {e}")))?,
            ),
        };
        if let Some(c) = complete_ns {
            if c < issue_ns {
                return Err(ParseTraceError::new("completion precedes issue"));
            }
        }
        if complete_ns.is_some() != complete_seq.is_some() {
            return Err(ParseTraceError::new(
                "completion time and sequence must both be present or absent",
            ));
        }
        if num_sectors == 0 {
            return Err(ParseTraceError::new("zero-sector command"));
        }
        Ok(TraceRecord {
            serial,
            target: TargetId::new(VmId(vm), VDiskId(disk)),
            direction,
            lba: Lba::new(lba),
            num_sectors,
            issue_ns,
            complete_ns,
            complete_seq,
        })
    }
}

/// Capacity policy for a tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCapacity {
    /// Keep every record (O(n) memory — the cost the paper's histograms
    /// avoid).
    Unbounded,
    /// Keep only the most recent `n` records (flight-recorder mode).
    Ring(usize),
}

/// Destination for trace records produced by a streaming tracer.
///
/// A streaming [`VscsiTracer`] keeps only the in-flight commands in
/// memory; each record is handed to the sink the moment it completes (and
/// the still-in-flight remainder is handed over, with `complete_ns: None`,
/// when the tracer is finished or dropped).
/// Implementations decide what durability means — the `tracestore` crate
/// provides a bounded-memory binary segment store with explicit
/// backpressure; a `Vec<TraceRecord>` newtype is enough for tests.
///
/// Records arrive in *completion* order, not issue order. That is fine for
/// [`replay`], which orders events by the global sequence numbers carried
/// in each record, not by position in the stream.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Accepts one record whose lifecycle ended (completed, or still in
    /// flight when the tracer was finished). Must not panic; sinks with
    /// bounded resources drop and account instead.
    fn append(&mut self, record: &TraceRecord);

    /// Makes previously appended records durable, where that is meaningful.
    fn flush(&mut self) {}

    /// Resident bytes attributable to this sink (buffers, queued chunks).
    fn memory_footprint_bytes(&self) -> usize {
        0
    }

    /// Records this sink has dropped under backpressure.
    fn dropped_records(&self) -> u64 {
        0
    }

    /// Supervision health of the sink's writer pipeline. Sinks with a
    /// background writer (e.g. `tracestore`) report demotions and watchdog
    /// trips here; trivial sinks are always healthy.
    fn health(&self) -> SinkHealth {
        SinkHealth::default()
    }
}

/// The simplest possible sink: every record into a `Vec`. Useful for tests
/// and for adapting code that wants the old "give me a `Vec<TraceRecord>`"
/// interface to the streaming tracer.
#[derive(Debug, Default)]
pub struct VecSink(pub Vec<TraceRecord>);

impl TraceSink for VecSink {
    fn append(&mut self, record: &TraceRecord) {
        self.0.push(*record);
    }

    fn memory_footprint_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<TraceRecord>()
    }
}

/// Storage backend of a [`VscsiTracer`].
#[derive(Debug)]
enum Backend {
    /// All records stay in the tracer's deque (the original behaviour).
    Memory { capacity: TraceCapacity },
    /// Only in-flight records stay in memory; completed records stream to
    /// the sink. `finished` flips once the in-flight tail has been handed
    /// over, after which the tracer ignores further events.
    Streaming {
        sink: Box<dyn TraceSink>,
        finished: bool,
    },
}

/// Records the vSCSI command stream of one virtual disk.
///
/// # Examples
///
/// ```
/// use simkit::SimTime;
/// use vscsi::{IoCompletion, IoDirection, IoRequest, Lba, RequestId, TargetId};
/// use vscsi_stats::{TraceCapacity, VscsiTracer};
///
/// let mut tracer = VscsiTracer::new(TraceCapacity::Unbounded);
/// let req = IoRequest::new(
///     RequestId(0), TargetId::default(), IoDirection::Write,
///     Lba::new(64), 8, SimTime::ZERO,
/// );
/// tracer.on_issue(&req);
/// tracer.on_complete(&IoCompletion::new(req, SimTime::from_micros(500)));
/// assert_eq!(tracer.records().len(), 1);
/// assert!(tracer.records().next().unwrap().complete_ns.is_some());
/// ```
#[derive(Debug)]
pub struct VscsiTracer {
    backend: Backend,
    /// Memory backend: every retained record. Streaming backend: only the
    /// in-flight records (completed ones have moved to the sink).
    records: VecDeque<TraceRecord>,
    /// Global event counter, shared by issues and completions, recording
    /// the order events were observed at the vSCSI layer.
    next_event_seq: u64,
    dropped: u64,
}

impl VscsiTracer {
    /// Creates a tracer with the given capacity policy.
    pub fn new(capacity: TraceCapacity) -> Self {
        VscsiTracer {
            backend: Backend::Memory { capacity },
            records: VecDeque::new(),
            next_event_seq: 0,
            dropped: 0,
        }
    }

    /// Creates a streaming tracer: memory holds only the in-flight
    /// commands; each record is pushed into `sink` when it completes, and
    /// the in-flight tail (with `complete_ns: None`) is pushed when the
    /// tracer is [`finish`](Self::finish)ed, stopped, or dropped. Memory is
    /// therefore bounded by the device queue depth plus whatever the sink
    /// itself buffers — O(outstanding), not O(trace length).
    pub(crate) fn streaming(sink: Box<dyn TraceSink>) -> Self {
        VscsiTracer {
            backend: Backend::Streaming {
                sink,
                finished: false,
            },
            records: VecDeque::new(),
            next_event_seq: 0,
            dropped: 0,
        }
    }

    /// The next event sequence number this tracer will assign — the
    /// checkpoint plane's replay watermark. Every record already observed
    /// has `serial` (and `complete_seq`, when present) strictly below this.
    pub(crate) fn next_event_seq(&self) -> u64 {
        self.next_event_seq
    }

    /// Fast-forwards the event counter to `seq` (monotonic only; lower
    /// values are ignored). A restored tracer continues the checkpointed
    /// sequence so post-restart records sort after every pre-crash record
    /// and replay's `(seq, kind)` ordering stays globally consistent.
    pub(crate) fn resume_event_seq(&mut self, seq: u64) {
        self.next_event_seq = self.next_event_seq.max(seq);
    }

    /// Records a command issue.
    pub fn on_issue(&mut self, req: &IoRequest) {
        match self.backend {
            Backend::Memory { capacity } => {
                if let TraceCapacity::Ring(n) = capacity {
                    while self.records.len() >= n.max(1) {
                        self.records.pop_front();
                        self.dropped += 1;
                    }
                }
            }
            Backend::Streaming { finished, .. } => {
                if finished {
                    return;
                }
            }
        }
        let record = TraceRecord {
            serial: self.next_event_seq,
            target: req.target,
            direction: req.direction,
            lba: req.lba,
            num_sectors: req.num_sectors,
            issue_ns: req.issue_time.as_nanos(),
            complete_ns: None,
            complete_seq: None,
        };
        self.next_event_seq += 1;
        self.records.push_back(record);
    }

    /// Marks the matching record (by issue time, target, lba, direction)
    /// as complete. Completions for records that have been evicted from a
    /// ring are silently ignored. On a streaming tracer the completed
    /// record leaves memory and lands in the sink.
    pub fn on_complete(&mut self, completion: &IoCompletion) {
        if let Backend::Streaming { finished: true, .. } = self.backend {
            return;
        }
        let req = &completion.request;
        let seq = self.next_event_seq;
        let Some(idx) = self.records.iter().rposition(|r| {
            r.complete_ns.is_none()
                && r.issue_ns == req.issue_time.as_nanos()
                && r.target == req.target
                && r.lba == req.lba
                && r.direction == req.direction
        }) else {
            return;
        };
        self.records[idx].complete_ns = Some(completion.complete_time.as_nanos());
        self.records[idx].complete_seq = Some(seq);
        self.next_event_seq += 1;
        if let Backend::Streaming { sink, .. } = &mut self.backend {
            let record = self
                .records
                .remove(idx)
                .expect("index found by rposition is in range");
            sink.append(&record);
        }
    }

    /// The records currently held in memory, in issue order: everything
    /// retained for a memory tracer, only the in-flight commands for a
    /// streaming one.
    pub fn records(&self) -> impl ExactSizeIterator<Item = &TraceRecord> + '_ {
        self.records.iter()
    }

    /// Number of records evicted by a ring capacity, plus any the sink of
    /// a streaming tracer dropped under backpressure.
    pub fn dropped(&self) -> u64 {
        let sink_drops = match &self.backend {
            Backend::Memory { .. } => 0,
            Backend::Streaming { sink, .. } => sink.dropped_records(),
        };
        self.dropped + sink_drops
    }

    /// Finishes a streaming tracer: hands the in-flight records (with
    /// `complete_ns: None`) to the sink in issue order and flushes it.
    /// Afterwards the tracer ignores further events. No-op for a memory
    /// tracer, and idempotent.
    pub fn finish(&mut self) {
        let Backend::Streaming { sink, finished } = &mut self.backend else {
            return;
        };
        if *finished {
            return;
        }
        *finished = true;
        for record in self.records.drain(..) {
            sink.append(&record);
        }
        sink.flush();
    }

    /// Finishes the tracer and returns the records still held in memory:
    /// everything for a memory tracer, nothing for a streaming one (its
    /// records — including the in-flight tail — are in the sink).
    pub(crate) fn into_records(mut self) -> Vec<TraceRecord> {
        self.finish();
        std::mem::take(&mut self.records).into()
    }

    /// Writes all records as text, one line each.
    pub fn export(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses records previously produced by [`VscsiTracer::export`].
    ///
    /// # Errors
    ///
    /// Returns the first line's parse failure, if any; blank lines are
    /// skipped.
    pub fn import(text: &str) -> Result<Vec<TraceRecord>, ParseTraceError> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(TraceRecord::from_str)
            .collect()
    }

    /// Supervision health of the tracer's sink pipeline: demotions and
    /// watchdog trips for a streaming backend, always-healthy for the
    /// in-memory backend.
    pub(crate) fn sink_health(&self) -> SinkHealth {
        match &self.backend {
            Backend::Memory { .. } => SinkHealth::default(),
            Backend::Streaming { sink, .. } => sink.health(),
        }
    }
}

impl Drop for VscsiTracer {
    /// A streaming tracer that is dropped mid-trace still hands its
    /// in-flight records to the sink, so a captured file never silently
    /// loses the tail.
    fn drop(&mut self) {
        self.finish();
    }
}

/// Replays a trace through a fresh collector, reproducing the online
/// histograms offline — the paper's "replaying a trace" cost model (§3).
///
/// Events are replayed in the *observed* order (the trace's global event
/// sequence numbers), so even same-instant issues and completions land in
/// the order the vSCSI layer saw them and outstanding-I/O accounting
/// matches the online view bit-for-bit.
///
/// The order is a merge of two runs of `(sequence number, slice index)`
/// pairs — one pair per issue, one per completed record — each
/// stable-sorted by sequence number. A captured stream is already in
/// completion order and nearly in issue order, so both sorts are little
/// more than one pass of run detection. Between an issue and a completion
/// carrying the same sequence number — which only a slice no single tracer
/// wrote can hold — the lower slice index goes first, and a record's own
/// issue precedes its completion: the order a stable sort of the `[issue
/// 0, completion 0, issue 1, …]` event list by sequence number gives, for
/// any slice.
pub fn replay(records: &[TraceRecord], config: CollectorConfig) -> IoStatsCollector {
    let by_seq = |mut run: Vec<(u64, usize)>| {
        run.sort_by_key(|&(seq, _)| seq);
        run
    };
    let indexed = || records.iter().enumerate();
    let issues = by_seq(indexed().map(|(i, r)| (r.serial, i)).collect());
    let completions = by_seq(
        indexed()
            .filter_map(|(i, r)| Some((r.complete_seq?, i)))
            .collect(),
    );

    let mut collector = IoStatsCollector::new(config);
    let mut issues = issues.into_iter().peekable();
    for completion in completions {
        // Comparing the pairs is the tie rule; `<=` puts a record's own
        // issue (equal number, equal index) before its completion.
        while let Some((_, i)) = issues.next_if(|&issue| issue <= completion) {
            collector.on_issue(&records[i].to_request());
        }
        let completion = records[completion.1]
            .to_completion()
            .expect("a record with a completion sequence has a completion time");
        collector.on_complete(&completion);
    }
    for (_, i) in issues {
        collector.on_issue(&records[i].to_request());
    }
    collector
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Lens, Metric};

    fn req(id: u64, lba: u64, t_us: u64) -> IoRequest {
        IoRequest::new(
            RequestId(id),
            TargetId::default(),
            IoDirection::Read,
            Lba::new(lba),
            8,
            SimTime::from_micros(t_us),
        )
    }

    #[test]
    fn issue_then_complete_fills_record() {
        let mut t = VscsiTracer::new(TraceCapacity::Unbounded);
        let r = req(0, 64, 10);
        t.on_issue(&r);
        assert_eq!(t.records().next().unwrap().complete_ns, None);
        t.on_complete(&IoCompletion::new(r, SimTime::from_micros(200)));
        assert_eq!(
            t.records().next().unwrap().complete_ns,
            Some(SimTime::from_micros(200).as_nanos())
        );
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let mut t = VscsiTracer::new(TraceCapacity::Ring(2));
        for i in 0..5 {
            t.on_issue(&req(i, i * 8, i * 10));
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
        let serials: Vec<u64> = t.records().map(|r| r.serial).collect();
        assert_eq!(serials, vec![3, 4]);
        // Completion for an evicted record is ignored.
        t.on_complete(&IoCompletion::new(req(0, 0, 0), SimTime::from_micros(99)));
        assert!(t.records().all(|r| r.complete_ns.is_none()));
    }

    #[test]
    fn export_import_roundtrip() {
        let mut t = VscsiTracer::new(TraceCapacity::Unbounded);
        let r0 = req(0, 64, 10);
        let r1 = IoRequest::new(
            RequestId(1),
            TargetId::new(VmId(3), VDiskId(1)),
            IoDirection::Write,
            Lba::new(4096),
            128,
            SimTime::from_micros(20),
        );
        t.on_issue(&r0);
        t.on_issue(&r1);
        t.on_complete(&IoCompletion::new(r0, SimTime::from_micros(300)));
        let text = t.export();
        let parsed = VscsiTracer::import(&text).unwrap();
        let original: Vec<TraceRecord> = t.records().copied().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceRecord::from_str("").is_err());
        assert!(TraceRecord::from_str("0 0 0 X 0 8 0 - -").is_err());
        assert!(
            TraceRecord::from_str("0 0 0 R 0 0 0 - -").is_err(),
            "zero sectors"
        );
        assert!(
            TraceRecord::from_str("0 0 0 R 0 8 100 50 1").is_err(),
            "completion before issue"
        );
        assert!(
            TraceRecord::from_str("0 0 0 R 0 8 0 - 5").is_err(),
            "sequence without completion time"
        );
        assert!(
            TraceRecord::from_str("0 0 0 R 0 8 0 100 -").is_err(),
            "completion time without sequence"
        );
        assert!(TraceRecord::from_str("0 0 0 R 0 8 0 - -").is_ok());
        assert!(TraceRecord::from_str("3 1 2 W 64 8 100 250 7").is_ok());
    }

    #[test]
    fn replay_reproduces_online_histograms() {
        // Run a workload online and through a trace; histograms must match.
        let mut online = IoStatsCollector::default();
        let mut tracer = VscsiTracer::new(TraceCapacity::Unbounded);
        let mut inflight = Vec::new();
        for i in 0..200u64 {
            let r = req(i, (i * 37) % 10_000, i * 50);
            online.on_issue(&r);
            tracer.on_issue(&r);
            inflight.push(r);
            // Complete the oldest half the time.
            if i % 2 == 1 {
                let done = inflight.remove(0);
                let c = IoCompletion::new(done, SimTime::from_micros(i * 50 + 40));
                online.on_complete(&c);
                tracer.on_complete(&c);
            }
        }
        let records: Vec<TraceRecord> = tracer.records().copied().collect();
        let replayed = replay(&records, CollectorConfig::default());
        for metric in Metric::ALL {
            for lens in Lens::ALL {
                assert_eq!(
                    online.histogram(metric, lens).counts(),
                    replayed.histogram(metric, lens).counts(),
                    "{metric} / {lens}"
                );
            }
        }
        assert_eq!(online.issued_commands(), replayed.issued_commands());
    }

    #[test]
    fn replay_accepts_the_clock_inversion_the_hooks_accepted() {
        // A completion stamped 50 µs before its issue: the collector
        // saturates the latency and counts an anomaly, the tracer records
        // the pair as seen, and replay has to do what the collector did.
        let mut online = IoStatsCollector::default();
        let mut tracer = VscsiTracer::new(TraceCapacity::Unbounded);
        let r = req(0, 64, 500);
        let early = IoCompletion::observed(r, SimTime::from_micros(450), ScsiStatus::Good);
        online.on_issue(&r);
        tracer.on_issue(&r);
        online.on_complete(&early);
        tracer.on_complete(&early);
        let records: Vec<TraceRecord> = tracer.records().copied().collect();
        assert_eq!(records[0].complete_ns, Some(450_000));

        let replayed = replay(&records, CollectorConfig::default());
        assert_eq!(replayed.clock_anomalies(), 1);
        assert_eq!(replayed.histogram_set(), online.histogram_set());
        assert_eq!(replayed.completed_commands(), 1);
        // The text form stays strict: such a line does not parse.
        assert!(TraceRecord::from_str(&records[0].to_string()).is_err());
    }

    /// Test sink that shares its buffer with the test body, so records can
    /// be inspected after the tracer consumed the boxed sink.
    #[derive(Debug, Default, Clone)]
    struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<TraceRecord>>>);

    impl TraceSink for SharedSink {
        fn append(&mut self, record: &TraceRecord) {
            self.0.lock().unwrap().push(*record);
        }
    }

    #[test]
    fn streaming_tracer_equals_memory_tracer() {
        // The same event stream through a memory tracer and a streaming
        // tracer must yield the same record set; the streaming tracer's
        // memory holds only the in-flight commands.
        let sink = SharedSink::default();
        let mut mem = VscsiTracer::new(TraceCapacity::Unbounded);
        let mut streaming = VscsiTracer::streaming(Box::new(sink.clone()));
        let mut inflight = Vec::new();
        for i in 0..100u64 {
            let r = req(i, (i * 11) % 5_000, i * 20);
            mem.on_issue(&r);
            streaming.on_issue(&r);
            inflight.push(r);
            if i % 3 == 2 {
                let done = inflight.remove(0);
                let c = IoCompletion::new(done, SimTime::from_micros(i * 20 + 9));
                mem.on_complete(&c);
                streaming.on_complete(&c);
            }
        }
        // Only the in-flight commands are resident in the streaming tracer.
        assert_eq!(streaming.records().len(), inflight.len());
        assert_eq!(streaming.dropped(), 0);
        streaming.finish();
        streaming.finish(); // idempotent
        assert!(streaming.into_records().is_empty(), "records live in sink");
        let mut streamed = sink.0.lock().unwrap().clone();
        streamed.sort_by_key(|r| r.serial);
        let expected = mem.into_records();
        assert_eq!(streamed, expected);
        assert!(streamed.iter().any(|r| r.complete_ns.is_none()));
    }

    #[test]
    fn streaming_tracer_flushes_inflight_on_drop() {
        let sink = SharedSink::default();
        let mut t = VscsiTracer::streaming(Box::new(sink.clone()));
        for i in 0..5u64 {
            t.on_issue(&req(i, i * 8, i * 10));
        }
        drop(t);
        let records = sink.0.lock().unwrap().clone();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.complete_ns.is_none()));
        let serials: Vec<u64> = records.iter().map(|r| r.serial).collect();
        assert_eq!(serials, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn finished_streaming_tracer_ignores_events() {
        let sink = SharedSink::default();
        let mut t = VscsiTracer::streaming(Box::new(sink.clone()));
        let r = req(0, 64, 10);
        t.on_issue(&r);
        t.finish();
        t.on_issue(&req(1, 128, 20));
        t.on_complete(&IoCompletion::new(r, SimTime::from_micros(99)));
        drop(t);
        let records = sink.0.lock().unwrap().clone();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].complete_ns, None);
    }

    #[test]
    fn vec_sink_collects_and_reports_footprint() {
        let mut sink = VecSink::default();
        assert_eq!(sink.memory_footprint_bytes(), 0);
        assert_eq!(sink.dropped_records(), 0);
        let mut t = VscsiTracer::new(TraceCapacity::Unbounded);
        let r = req(0, 0, 0);
        t.on_issue(&r);
        for rec in t.records() {
            sink.append(rec);
        }
        sink.flush();
        assert_eq!(sink.0.len(), 1);
        assert!(sink.memory_footprint_bytes() >= std::mem::size_of::<TraceRecord>());
    }
}
