//! `vscsistats` — a command-line front-end mirroring the workflow of the
//! paper's tool: pick a workload, collect online histograms while it runs,
//! and print reports, CSV dumps, or a fingerprint with placement advice.
//!
//! ```text
//! vscsistats --workload oltp-zfs --seconds 20 --report
//! vscsistats --workload dbt2 --seconds 30 --fingerprint
//! vscsistats --workload copy-vista --csv > hist.csv
//! vscsistats --workload dbt2 --trace-out /tmp/dbt2-trace
//! vscsistats --replay /tmp/dbt2-trace --report
//! vscsistats query /tmp/dbt2-trace --from-us 1000 --to-us 2000 --kind read
//! vscsistats --list
//! ```
//!
//! `--trace-out` captures the run as a binary tracestore (bounded memory,
//! ~16 bytes/command on disk); `--replay` rebuilds the online histograms
//! from such a trace — bit-exactly — without re-running the simulation.
//! `query` runs the indexed parallel analytics engine over a trace with
//! predicate pushdown, answering time/LBA/kind/target-filtered histogram
//! queries without decoding irrelevant blocks.

use simkit::SimTime;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tracestore::{
    read_trace, CommandKind, Predicate, QueryConfig, QueryEngine, TraceStore, TraceStoreConfig,
};
use vscsi_stats::{
    fingerprint, replay, report, CollectorConfig, IoStatsCollector, TraceRecord,
    WorkloadFingerprint,
};
use vscsistats_bench::scenarios::{
    prepare_dbt2, prepare_filebench_oltp, prepare_filecopy, prepare_interference, CopyOs, FsKind,
    InterferenceMode, Prepared,
};

const WORKLOADS: &[(&str, &str)] = &[
    ("oltp-ufs", "Filebench OLTP on the UFS model (Figure 2)"),
    ("oltp-zfs", "Filebench OLTP on the ZFS model (Figure 3)"),
    ("oltp-ext3", "Filebench OLTP on the ext3 model (ablation)"),
    ("oltp-ntfs", "Filebench OLTP on the NTFS model (ablation)"),
    ("dbt2", "DBT-2 / PostgreSQL model (Figure 4)"),
    ("copy-xp", "Windows XP large file copy (Figure 5)"),
    ("copy-vista", "Windows Vista large file copy (Figure 5)"),
    (
        "interfere",
        "8K random + 8K sequential readers on one array (Figure 6)",
    ),
];

struct Args {
    workload: Option<String>,
    seconds: u64,
    seed: u64,
    csv: bool,
    fingerprint: bool,
    report: bool,
    list: bool,
    trace_out: Option<PathBuf>,
    replay: Option<PathBuf>,
    health: bool,
    fetch_all: bool,
    checkpoint_dir: Option<PathBuf>,
    restore: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seconds: 10,
        seed: 1,
        csv: false,
        fingerprint: false,
        report: false,
        list: false,
        trace_out: None,
        replay: None,
        health: false,
        fetch_all: false,
        checkpoint_dir: None,
        restore: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" | "-w" => {
                args.workload = Some(it.next().ok_or("--workload needs a value")?);
            }
            "--seconds" | "-s" => {
                args.seconds = it
                    .next()
                    .ok_or("--seconds needs a value")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(
                    it.next().ok_or("--trace-out needs a directory")?,
                ));
            }
            "--replay" => {
                args.replay = Some(PathBuf::from(it.next().ok_or("--replay needs a path")?));
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-dir needs a directory")?,
                ));
            }
            "--restore" => {
                args.restore = Some(PathBuf::from(
                    it.next().ok_or("--restore needs a directory")?,
                ));
            }
            "--health" => args.health = true,
            "--fetch-all" => args.fetch_all = true,
            "--csv" => args.csv = true,
            "--fingerprint" | "-f" => args.fingerprint = true,
            "--report" | "-r" => args.report = true,
            "--list" | "-l" => args.list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!("vscsistats — online disk I/O workload characterization (simulated host)\n");
    println!("usage: vscsistats --workload <name> [--seconds N] [--seed N] [--report] [--csv] [--fingerprint] [--trace-out DIR]");
    println!("       vscsistats --replay <path> [--report] [--csv] [--fingerprint]");
    println!("       vscsistats --restore <dir> [--report] [--csv] [--fingerprint]");
    println!("       vscsistats query <path> [predicate flags] [--threads N] [--no-index] [--json] [--report]");
    println!("       vscsistats --list\n");
    println!("workloads:");
    for (name, desc) in WORKLOADS {
        println!("  {name:<12} {desc}");
    }
    println!("\nflags:");
    println!("  --report       full histogram report (default if nothing else chosen)");
    println!("  --csv          machine-readable metric,lens,bin,count dump");
    println!("  --fingerprint  environment-independent fingerprint + classification + advice");
    println!("  --trace-out D  also capture a binary trace into directory D (tracestore segments)");
    println!("  --health       supervise the run with the sentinel and print its health snapshot");
    println!("  --fetch-all    print the FetchAllHistograms dump (every target's full slot set)");
    println!("  --replay P     rebuild histograms from a trace file/directory instead of running");
    println!("  --checkpoint-dir D  write a durable VSCKPT2 checkpoint of the run into D");
    println!("  --restore D    rebuild histograms from the newest durable checkpoint in D");
    println!("\nquery predicate flags (legs AND together; omit all for a full scan):");
    println!("  --from-us N / --to-us N    issue-time window, microseconds since capture start");
    println!("  --lba-min N / --lba-max N  first-sector LBA band, inclusive");
    println!("  --kind K       read | write | completed | inflight");
    println!("  --vm N / --disk N          exact (VM, virtual disk) target");
    println!("query options:");
    println!("  --threads N    scan/aggregate threads (0 = one per core, the default)");
    println!("  --no-index     naive baseline: decode every block, no sidecar pushdown");
    println!("  --json         machine-readable outcome (targets, digests, block ledger)");
    println!("  --report       full histogram report per matching target");
}

fn prepare_workload(name: &str, duration: SimTime, seed: u64) -> Result<Prepared, String> {
    Ok(match name {
        "oltp-ufs" => prepare_filebench_oltp(FsKind::Ufs, duration, seed),
        "oltp-zfs" => prepare_filebench_oltp(FsKind::Zfs, duration, seed),
        "oltp-ext3" => prepare_filebench_oltp(FsKind::Ext3, duration, seed),
        "oltp-ntfs" => prepare_filebench_oltp(FsKind::Ntfs, duration, seed),
        "dbt2" => prepare_dbt2(duration, seed),
        "copy-xp" => prepare_filecopy(CopyOs::Xp, duration, seed),
        "copy-vista" => prepare_filecopy(CopyOs::Vista, duration, seed),
        "interfere" => prepare_interference(InterferenceMode::Dual, false, duration, seed),
        other => return Err(format!("unknown workload {other:?} (try --list)")),
    })
}

/// The report/csv/fingerprint views of one collector, gated by flags.
fn print_views(collector: &IoStatsCollector, args: &Args, want_report: bool) {
    if want_report {
        println!("{}", report::full_report(collector));
    }
    if args.csv {
        print!("{}", report::csv_dump(collector));
    }
    if args.fingerprint {
        match WorkloadFingerprint::from_collector(collector, 100) {
            Some(fp) => {
                println!("{fp}");
                println!("class: {}", fp.classify());
                for rec in fingerprint::recommendations(&fp) {
                    println!("advice: {rec}");
                }
            }
            None => println!("not enough commands to fingerprint"),
        }
    }
}

/// `--replay`: read a binary trace back and rebuild the online histograms
/// per target, without re-running the simulation.
/// Prints capture-time accounting from the [`tracestore::META_FILE`]
/// sidecar, if one exists next to the segments. The segments themselves
/// cannot carry this — a dropped chunk leaves no bytes behind — so the
/// sidecar is the only place replay can learn what the capture shed.
fn print_capture_meta(path: &Path) {
    let Some(meta) = tracestore::read_meta(path) else {
        return;
    };
    let get = |key: &str| {
        meta.iter()
            .find(|(k, _)| k == key)
            .map_or("?", |(_, v)| v.as_str())
    };
    eprintln!(
        "capture: {} record(s) in {} segment(s)",
        get("records"),
        get("segments")
    );
    eprintln!(
        "capture drops: oldest={} closed={} (records); block_waits={}",
        get("dropped_oldest_records"),
        get("dropped_closed_records"),
        get("block_waits")
    );
    if get("io_errors") != "0" {
        eprintln!(
            "capture I/O errors: {} ({} record(s) lost)",
            get("io_errors"),
            get("io_error_records")
        );
    }
}

fn run_replay(path: &Path, args: &Args) -> Result<(), String> {
    if path.is_dir() {
        print_capture_meta(path);
    }
    let (records, integrity) = read_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Per-file integrity lines plus an explicit aggregate, so corrupt
    // archives are visible from the CLI — not just the capture-time
    // sidecar header above.
    eprint!("{integrity}");
    let total = integrity.aggregate();
    if !integrity.is_clean() {
        eprintln!(
            "warning: trace damaged; {} corrupt block(s) skipped, >= {} record(s) lost{}; \
             histograms rebuilt from the {} recovered record(s) only",
            total.blocks_corrupt,
            total.records_lost,
            if total.truncated_tail {
                ", truncated tail"
            } else {
                ""
            },
            total.records_recovered
        );
    }
    let mut by_target: BTreeMap<_, Vec<TraceRecord>> = BTreeMap::new();
    for record in records {
        by_target.entry(record.target).or_default().push(record);
    }
    if by_target.is_empty() {
        return Err("trace holds no records".into());
    }
    let want_report = args.report || (!args.csv && !args.fingerprint);
    let multi = by_target.len() > 1;
    for (target, records) in &by_target {
        if multi {
            println!("===== target {target} =====");
        }
        let completed = records.iter().filter(|r| r.complete_ns.is_some()).count();
        println!(
            "replayed {} record(s) ({completed} completed) for {target}",
            records.len()
        );
        let collector = replay(records, CollectorConfig::paper_figures());
        print_views(&collector, args, want_report);
    }
    Ok(())
}

/// `--restore`: rebuild the online histograms from the newest durable
/// `VSCKPT2` (or `VSCKPT1`) checkpoint in a directory — the restart half
/// of the crash-consistency plane, without running a simulation. Torn or otherwise
/// corrupt newer checkpoint files are skipped (and reported), exactly as
/// a crash-recovering daemon would skip them.
fn run_restore(dir: &Path, args: &Args) -> Result<(), String> {
    let rec = vscsi_stats::load_latest(&mut vscsi_stats::FsMedium, dir)
        .ok_or_else(|| format!("no durable checkpoint in {}", dir.display()))?;
    if rec.skipped_corrupt > 0 {
        eprintln!(
            "warning: {} newer checkpoint file(s) failed to decode and were skipped",
            rec.skipped_corrupt
        );
    }
    eprintln!(
        "restored checkpoint seq {} (epoch {}, {} target(s))",
        rec.seq,
        rec.checkpoint.epoch,
        rec.checkpoint.targets.len()
    );
    let service = vscsi_stats::StatsService::from_checkpoint(&rec.checkpoint, None);
    let collectors = service.collectors();
    if collectors.is_empty() {
        return Err("checkpoint holds no targets".into());
    }
    let want_report = args.report || (!args.csv && !args.fingerprint);
    let multi = collectors.len() > 1;
    for (target, collector) in &collectors {
        if multi {
            println!("===== target {target} =====");
        }
        println!(
            "restored {} completed command(s) for {target}",
            collector.completed_commands()
        );
        print_views(collector, args, want_report);
    }
    Ok(())
}

/// `vscsistats query <path> ...`: the indexed parallel analytics engine
/// from the CLI. Predicate legs AND together; no legs means full scan.
fn run_query(argv: &[String]) -> Result<(), String> {
    let mut path: Option<PathBuf> = None;
    let mut from_us: Option<u64> = None;
    let mut to_us: Option<u64> = None;
    let mut lba_min: Option<u64> = None;
    let mut lba_max: Option<u64> = None;
    let mut kind: Option<CommandKind> = None;
    let mut vm: Option<u32> = None;
    let mut disk: Option<u32> = None;
    let mut threads = 0usize;
    let mut use_index = true;
    let mut json = false;
    let mut want_report = false;
    let mut csv = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{flag} needs a value"))?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "--from-us" => from_us = Some(num("--from-us")?),
            "--to-us" => to_us = Some(num("--to-us")?),
            "--lba-min" => lba_min = Some(num("--lba-min")?),
            "--lba-max" => lba_max = Some(num("--lba-max")?),
            "--vm" => vm = Some(num("--vm")? as u32),
            "--disk" => disk = Some(num("--disk")? as u32),
            "--threads" => threads = num("--threads")? as usize,
            "--kind" => {
                kind = Some(match it.next().ok_or("--kind needs a value")?.as_str() {
                    "read" => CommandKind::Read,
                    "write" => CommandKind::Write,
                    "completed" => CommandKind::Completed,
                    "inflight" => CommandKind::Inflight,
                    other => {
                        return Err(format!(
                            "--kind {other:?}: expected read|write|completed|inflight"
                        ))
                    }
                });
            }
            "--no-index" => use_index = false,
            "--json" => json = true,
            "--report" | "-r" => want_report = true,
            "--csv" => csv = true,
            "--help" | "-h" => {
                print_help();
                return Ok(());
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(format!("query: unknown argument {other:?} (try --help)")),
        }
    }
    let path = path.ok_or("query needs a trace path (file or store directory)")?;

    let mut legs = Vec::new();
    if from_us.is_some() || to_us.is_some() {
        legs.push(Predicate::TimeNs {
            from_ns: from_us.unwrap_or(0).saturating_mul(1_000),
            to_ns: to_us.map_or(u64::MAX, |us| us.saturating_mul(1_000)),
        });
    }
    if lba_min.is_some() || lba_max.is_some() {
        legs.push(Predicate::LbaBand {
            min: lba_min.unwrap_or(0),
            max: lba_max.unwrap_or(u64::MAX),
        });
    }
    if let Some(kind) = kind {
        legs.push(Predicate::Kind(kind));
    }
    if vm.is_some() || disk.is_some() {
        legs.push(Predicate::Target(vscsi::TargetId::new(
            vscsi::VmId(vm.unwrap_or(0)),
            vscsi::VDiskId(disk.unwrap_or(0)),
        )));
    }
    let predicate = if legs.is_empty() {
        Predicate::True
    } else {
        Predicate::And(legs)
    };

    let engine = QueryEngine::new(QueryConfig {
        threads,
        use_index,
        ..QueryConfig::default()
    });
    let outcome = engine
        .run(&path, &predicate)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if !outcome.report.conserves() {
        return Err(format!(
            "block accounting does not close: {}",
            outcome.report
        ));
    }

    if json {
        println!("{{");
        println!("  \"predicate\": \"{predicate:?}\",");
        println!("  \"use_index\": {use_index},");
        println!(
            "  \"report\": {{ \"files\": {}, \"total_blocks\": {}, \"scanned_blocks\": {}, \
             \"skipped_by_index\": {}, \"skipped_by_corruption\": {}, \"records_scanned\": {}, \
             \"records_matched\": {}, \"records_lost\": {}, \"indexes_rebuilt\": {}, \
             \"truncated_tails\": {} }},",
            outcome.report.files.len(),
            outcome.report.total_blocks,
            outcome.report.scanned_blocks,
            outcome.report.skipped_by_index,
            outcome.report.skipped_by_corruption,
            outcome.report.records_scanned,
            outcome.report.records_matched,
            outcome.report.records_lost,
            outcome.report.indexes_rebuilt,
            outcome.report.truncated_tails
        );
        println!("  \"targets\": [");
        for (i, row) in outcome.targets.iter().enumerate() {
            println!(
                "    {{ \"vm\": {}, \"disk\": {}, \"records\": {}, \"completed\": {}, \
                 \"digest\": \"{:016x}\" }}{}",
                row.target.vm.0,
                row.target.disk.0,
                row.records,
                row.collector.completed_commands(),
                row.digest(),
                if i + 1 < outcome.targets.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        println!("  ]");
        println!("}}");
        return Ok(());
    }

    eprintln!("scan: {}", outcome.report);
    if outcome.report.records_matched == 0 {
        println!("no records matched");
        return Ok(());
    }
    let multi = outcome.targets.len() > 1;
    for row in &outcome.targets {
        if multi {
            println!("===== target {} =====", row.target);
        }
        println!(
            "matched {} record(s) ({} completed) for {}",
            row.records,
            row.collector.completed_commands(),
            row.target
        );
        if want_report {
            println!("{}", report::full_report(&row.collector));
        }
        if csv {
            print!("{}", report::csv_dump(&row.collector));
        }
    }
    Ok(())
}

fn main() {
    // Subcommand-style dispatch for the analytics engine; everything else
    // keeps the original flag-driven interface.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("query") {
        if let Err(e) = run_query(&argv[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.list {
        for (name, desc) in WORKLOADS {
            println!("{name:<12} {desc}");
        }
        return;
    }
    if let Some(path) = args.replay.as_deref() {
        if let Err(e) = run_replay(path, &args) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    if let Some(dir) = args.restore.as_deref() {
        if let Err(e) = run_restore(dir, &args) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let Some(workload) = args.workload.as_deref() else {
        print_help();
        std::process::exit(2);
    };
    let duration = SimTime::from_secs(args.seconds.max(1));
    eprintln!(
        "running {workload} for {} simulated seconds (seed {})...",
        args.seconds, args.seed
    );
    let prepared = match prepare_workload(workload, duration, args.seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let health_service = args.health.then(|| {
        prepared
            .service()
            .enable_sentinel(vscsi_stats::SentinelConfig::new(args.seed));
        std::sync::Arc::clone(prepared.service())
    });
    let fetch_service = args
        .fetch_all
        .then(|| std::sync::Arc::clone(prepared.service()));
    let mut ckpt_daemon = match args.checkpoint_dir.as_deref() {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: --checkpoint-dir {}: {e}", dir.display());
                std::process::exit(2);
            }
            let daemon = vscsi_stats::CheckpointDaemon::new(
                std::sync::Arc::clone(prepared.service()),
                vscsi_stats::CheckpointConfig::new(dir),
            );
            // With the daemon attached, `--health` grows a checkpoint row.
            prepared.service().attach_checkpoint_health(daemon.health());
            Some(daemon)
        }
        None => None,
    };
    let store = match args.trace_out.as_deref() {
        Some(dir) => match TraceStore::create(TraceStoreConfig::new(dir)) {
            Ok(store) => {
                for idx in 0..prepared.attachment_count() {
                    prepared.stream_trace(idx, Box::new(store.handle()));
                }
                Some(store)
            }
            Err(e) => {
                eprintln!("error: --trace-out {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => None,
    };
    let result = prepared.run();
    if let Some(store) = store {
        let trace_report = store.finish();
        eprintln!(
            "trace: {} record(s), {} block(s), {} segment(s), {} byte(s){}",
            trace_report.records,
            trace_report.blocks,
            trace_report.segments,
            trace_report.bytes_written,
            match trace_report.bytes_per_record() {
                Some(bpr) => format!(" ({bpr:.1} bytes/record)"),
                None => String::new(),
            }
        );
        if trace_report.drops.dropped_records() > 0 {
            eprintln!(
                "trace: {} record(s) dropped to backpressure",
                trace_report.drops.dropped_records()
            );
        }
        if let Some(err) = &trace_report.first_error {
            eprintln!(
                "trace: {} I/O error(s), first: {err}",
                trace_report.io_errors
            );
        }
    }

    if let Some(daemon) = ckpt_daemon.as_mut() {
        let dir = args.checkpoint_dir.as_deref().expect("daemon implies dir");
        match daemon.tick(duration.as_nanos()) {
            Some(Ok(seq)) => {
                eprintln!("checkpoint: durable seq {seq} in {}", dir.display());
            }
            Some(Err(e)) => {
                eprintln!("error: checkpoint: {e}");
                std::process::exit(1);
            }
            // The daemon's first tick always writes; reaching here would
            // mean the run ended before virtual time advanced at all.
            None => eprintln!("checkpoint: nothing due"),
        }
    }
    let want_report = args.report || (!args.csv && !args.fingerprint);
    for (idx, collector) in result.collectors.iter().enumerate() {
        if result.collectors.len() > 1 {
            println!("===== attachment {idx} =====");
        }
        println!(
            "completed={} IOps={:.0} MBps={:.1} meanLat={:.2}ms",
            result.completed[idx],
            result.iops[idx],
            result.mbps[idx],
            result.mean_latency_us[idx] / 1000.0
        );
        if let Some(p) = collector.latency_percentiles() {
            println!(
                "latency percentile bins: p50 <= {} us, p90 <= {} us, p99 <= {} us",
                p.p50_us, p.p90_us, p.p99_us
            );
        }
        print_views(collector, &args, want_report);
    }
    if let Some(service) = health_service {
        match service.command("health") {
            Ok(snapshot) => print!("{snapshot}"),
            Err(e) => eprintln!("error: health: {e}"),
        }
    }
    if let Some(service) = fetch_service {
        // Round-trip the dump through the fleet wire format before
        // printing: what this prints is exactly what a fleet collector
        // would decode. Any wire fault is a hard error, not a silent
        // drop — the frame detail goes to stderr and the exit is nonzero.
        let frame = fleet::HostFrame::snapshot(0, 0, 1, &service);
        let bytes = match fleet::encode_frame(&frame) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("error: fetchallhistograms: encode: {e}");
                std::process::exit(1);
            }
        };
        match fleet::decode_frame(&bytes) {
            Ok(back) if back == frame => {}
            Ok(_) => {
                eprintln!(
                    "error: fetchallhistograms: frame round-trip mismatch \
                     ({} bytes, {} target(s))",
                    bytes.len(),
                    frame.targets.len()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!(
                    "error: fetchallhistograms: decode: {e} ({} bytes, {} target(s))",
                    bytes.len(),
                    frame.targets.len()
                );
                std::process::exit(1);
            }
        }
        match service.command("fetchallhistograms") {
            Ok(dump) => {
                print!("{dump}");
                println!(
                    "wire: VFLHIST3 frame ok ({} bytes, epoch {}, {} target(s))",
                    bytes.len(),
                    frame.epoch,
                    frame.targets.len()
                );
            }
            Err(e) => {
                eprintln!("error: fetchallhistograms: {e}");
                std::process::exit(1);
            }
        }
    }
}
