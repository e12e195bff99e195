//! `trace_query`: the analyst's path over a captured archive.

use crate::gen::{command_stream, CommandStream};
use crate::hook::{feed_batched, fresh_service};
use crate::outcome::{Ops, Outcome};
use crate::span::Tracer;
use crate::stats::{fold_collector, median, quantile, Digest};
use crate::Pipeline;
use simkit::SimRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracestore::{
    reference_scan, Predicate, QueryConfig, QueryEngine, StoreReport, TargetQueryResult,
    TraceStore, TraceStoreConfig,
};
use vscsi::TargetId;
use vscsi_stats::{CollectorConfig, IoStatsCollector};

/// Share of the archive's time span one selective query covers.
const SELECTIVE_WINDOW: f64 = 0.02;

/// `(target, records, histogram digest)` rows, ascending by target: the
/// form in which online collection, the engine and the reference scan
/// are compared.
pub type DigestRows = Vec<(TargetId, u64, u64)>;

fn digest_row(target: TargetId, collector: &IoStatsCollector) -> (TargetId, u64, u64) {
    let mut d = Digest::default();
    fold_collector(&mut d, collector);
    (target, collector.issued_commands(), d.value())
}

pub fn digest_rows(results: &[TargetQueryResult]) -> DigestRows {
    results
        .iter()
        .map(|r| digest_row(r.target, &r.collector))
        .collect()
}

/// A captured archive and what the capture saw online.
#[derive(Debug)]
pub struct Archive {
    pub dir: PathBuf,
    pub stream: CommandStream,
    pub report: StoreReport,
    /// Wall seconds of the capture (hooks → tracers → store → drained).
    pub capture_s: f64,
    /// What the capturing service's own collectors hold, per target.
    pub online: DigestRows,
    /// The fixed cycle of selective queries.
    pub queries: Vec<Predicate>,
}

impl Archive {
    /// Captures a seeded, time-ordered stream through the real path: the
    /// hooks of a service whose every target streams into a `TraceStore`
    /// (16 KiB blocks, segments of `segment_bytes` so the archive spans
    /// several, each with its `VSTRIDX1` sidecar).
    pub fn capture(
        rng: &mut SimRng,
        dir: &Path,
        targets: u32,
        commands: usize,
        segment_bytes: usize,
        selective_queries: usize,
    ) -> Archive {
        let stream = command_stream(rng, targets, commands);
        let _ = fs::remove_dir_all(dir);
        let mut config = TraceStoreConfig::new(dir);
        config.chunk_bytes = 16 << 10;
        config.segment_max_bytes = segment_bytes;
        let t0 = Instant::now();
        let store = TraceStore::create(config).expect("create the archive's trace store");
        let service = fresh_service(CollectorConfig::paper_figures());
        for &target in &stream.targets {
            service.start_trace_streaming(target, Box::new(store.handle()));
        }
        feed_batched(&service, &stream.events);
        for &target in &stream.targets {
            let _ = service.stop_trace(target);
        }
        let report = store.finish();
        let capture_s = t0.elapsed().as_secs_f64();

        let mut collectors = service.collectors();
        collectors.sort_by_key(|(target, _)| *target);
        let online = collectors
            .iter()
            .map(|(target, collector)| digest_row(*target, collector))
            .collect();

        let span = stream.end_ns;
        let width = (span as f64 * SELECTIVE_WINDOW) as u64;
        let queries = (0..selective_queries)
            .map(|i| {
                let from_ns = rng.range_inclusive(0, span - width);
                let window = Predicate::TimeNs {
                    from_ns,
                    to_ns: from_ns + width,
                };
                // Every fourth query narrows further, by target or by LBA.
                match i % 8 {
                    3 => {
                        Predicate::And(vec![window, Predicate::Target(*rng.pick(&stream.targets))])
                    }
                    7 => {
                        let min = rng.range_inclusive(0, 1 << 27);
                        Predicate::And(vec![
                            window,
                            Predicate::LbaBand {
                                min,
                                max: min + (1 << 26),
                            },
                        ])
                    }
                    _ => window,
                }
            })
            .collect();
        Archive {
            dir: dir.to_path_buf(),
            stream,
            report,
            capture_s,
            online,
            queries,
        }
    }
}

/// `trace_query`: a pass is one full scan (`Predicate::True`, default
/// engine: one scanner per core, index on) and one cycle of the selective
/// queries.
#[derive(Debug)]
pub struct TraceQuery<'a> {
    archive: &'a Archive,
    engine: QueryEngine,
    /// Selective queries checked against `reference_scan` (first pass,
    /// outside the timed region).
    reference_checks: usize,
    full_rate: Vec<f64>,
    selective_p50: Vec<f64>,
    selective_p95: Vec<f64>,
    blocks: (u64, u64, u64),
    matched: u64,
    ops: Ops,
    passes: u64,
}

impl<'a> TraceQuery<'a> {
    pub fn new(archive: &'a Archive, reference_checks: usize) -> Self {
        TraceQuery {
            archive,
            engine: QueryEngine::new(QueryConfig::default()),
            reference_checks,
            full_rate: Vec::new(),
            selective_p50: Vec::new(),
            selective_p95: Vec::new(),
            blocks: (0, 0, 0),
            matched: 0,
            ops: Ops::default(),
            passes: 0,
        }
    }
}

impl Pipeline for TraceQuery<'_> {
    fn name(&self) -> &'static str {
        "trace_query"
    }

    fn pass(&mut self, tracer: &mut Tracer) {
        let pass = self.passes;
        let archive = self.archive;
        let id = tracer.enter("trace_query.pass", pass);

        let span = tracer.enter("query.run full", pass);
        let t0 = Instant::now();
        let full = self.engine.run(&archive.dir, &Predicate::True);
        let secs = t0.elapsed().as_secs_f64();
        tracer.exit(span);
        match &full {
            Ok(outcome) => {
                self.full_rate
                    .push(outcome.report.records_matched as f64 / secs);
                self.ops.op(
                    "trace_query full scan",
                    &[
                        (outcome.report.conserves(), "query ledger conserves"),
                        (
                            outcome.report.records_matched == archive.report.records,
                            "full scan matches every persisted record",
                        ),
                        (
                            digest_rows(&outcome.targets) == archive.online,
                            "full-scan digests == online collector digests",
                        ),
                    ],
                );
            }
            Err(_) => self
                .ops
                .op("trace_query full scan", &[(false, "the scan runs")]),
        }

        let mut ms = Vec::with_capacity(archive.queries.len());
        for (i, predicate) in archive.queries.iter().enumerate() {
            let op = pass * 1000 + i as u64;
            let span = tracer.enter("query.run selective", op);
            let t0 = Instant::now();
            let result = self.engine.run(&archive.dir, predicate);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tracer.exit(span);
            let Ok(outcome) = result else {
                self.ops
                    .op("trace_query selective", &[(false, "the query runs")]);
                continue;
            };
            let mut checks = vec![(outcome.report.conserves(), "query ledger conserves")];
            if pass == 0 {
                let r = &outcome.report;
                self.blocks.0 += r.total_blocks;
                self.blocks.1 += r.scanned_blocks;
                self.blocks.2 += r.skipped_by_index;
                self.matched += r.records_matched;
                // Spread the reference checks over the cycle.
                let stride = (archive.queries.len() / self.reference_checks.max(1)).max(1);
                if i % stride == 0 && i / stride < self.reference_checks {
                    let reference =
                        reference_scan(&archive.dir, predicate, &self.engine.config().collector);
                    checks.push((
                        reference.is_ok_and(|(rows, _)| {
                            digest_rows(&rows) == digest_rows(&outcome.targets)
                        }),
                        "selective result == reference_scan",
                    ));
                }
            }
            self.ops.op("trace_query selective", &checks);
        }
        self.selective_p50.push(median(&ms));
        self.selective_p95.push(quantile(&ms, 0.95));
        tracer.exit(id);
        self.passes += 1;
    }

    fn finish(self: Box<Self>) -> Outcome {
        let mut out = Outcome::new("trace_query");
        let archive = self.archive;
        out.input_digest = archive.stream.digest;
        let mut d = Digest::default();
        for (target, records, digest) in &archive.online {
            d.fold(u64::from(target.vm.0));
            d.fold(*records);
            d.fold(*digest);
        }
        out.output_digest = d.value();
        out.count("archive_records", archive.report.records);
        out.count("archive_segments", archive.report.segments);
        out.count("archive_blocks", archive.report.blocks);
        out.count("archive_bytes", archive.report.bytes_written);
        out.count("archive_index_bytes", archive.report.index_bytes);
        out.count("selective_queries_per_pass", archive.queries.len() as u64);
        out.count("selective_blocks_total", self.blocks.0);
        out.count("selective_blocks_scanned", self.blocks.1);
        out.count("selective_blocks_skipped", self.blocks.2);
        out.count("selective_records_matched", self.matched);
        out.ops = self.ops;
        let queries = self.selective_p50.len() * archive.queries.len();
        out.metrics.set(
            "tracestore.query.blocks_scanned",
            self.blocks.1 as f64,
            archive.queries.len(),
        );
        out.metrics.set(
            "tracestore.query.blocks_skipped",
            self.blocks.2 as f64,
            archive.queries.len(),
        );
        out.metrics.set(
            "tracestore.query.skip_ratio",
            self.blocks.2 as f64 / self.blocks.0.max(1) as f64,
            archive.queries.len(),
        );
        out.metrics.set(
            "tracestore.store.capture_records_per_s",
            archive.report.records as f64 / archive.capture_s,
            1,
        );
        out.metrics.set(
            "query_full_records_per_s",
            median(&self.full_rate),
            self.full_rate.len(),
        );
        out.metrics.set(
            "query_selective_ms_p50",
            median(&self.selective_p50),
            queries,
        );
        out.metrics.set(
            "query_selective_ms_p95",
            median(&self.selective_p95),
            queries,
        );
        out
    }
}
