//! Extension experiment: splitting a complex workload across virtual disks.
//!
//! §3.6 of the paper: "Since our online histograms are on a per virtual
//! disk basis, certain complex workloads where trends may not be easily
//! discernable may benefit from splitting the workload between multiple
//! virtual disks. This might make the analysis easier by separating out
//! different parts of it. Furthermore, if allocated on different underlying
//! disk groups it might improve overall performance…"
//!
//! Demonstrated with DBT-2: in the combined deployment, the data disk's
//! write-seek histogram is a muddle of sequential WAL appends and random
//! page writebacks. Moving the WAL to its own virtual disk separates the
//! signals: the WAL disk shows a pure sequential-append signature and the
//! data disk a pure random-with-bursts signature.

use esx::{Simulation, VmBuilder};
use guests::filebench::{parse_model, FilebenchWorkload};
use guests::fs::{Ufs, UfsParams};
use guests::{Dbt2Params, Dbt2Workload};
use simkit::SimTime;
use std::sync::Arc;
use storage::presets;
use vscsi_stats::{CollectorConfig, IoStatsCollector, Lens, Metric, StatsService};
use vscsistats_bench::reporting::{panel, pct, shape_report, ShapeCheck};

/// A WAL-only appender guest: one thread appending 8 KiB sync records,
/// rate-limited to a commit-like cadence.
const WAL_MODEL: &str = "
define file name=wal,size=1g
define process name=walwriter {
  thread name=w {
    flowop append name=commit,file=wal,iosize=8k,sync,rate=400
  }
}
";

fn combined(duration: SimTime) -> IoStatsCollector {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), 0x5D1);
    sim.add_vm(
        VmBuilder::new(0)
            .with_disk(52 * 1024 * 1024 * 1024)
            .attach(sim.rng().fork("dbt2"), |rng| {
                Box::new(Dbt2Workload::new("dbt2", Dbt2Params::default(), rng))
            }),
    );
    sim.run_until(duration);
    service.collector(sim.attachment_target(0)).unwrap()
}

fn split(duration: SimTime) -> (IoStatsCollector, IoStatsCollector) {
    let service = Arc::new(StatsService::new(CollectorConfig::paper_figures()));
    service.enable_all();
    let mut sim = Simulation::new(presets::symmetrix(), Arc::clone(&service), 0x5D2);
    let wal_spec = parse_model(WAL_MODEL).expect("wal model parses");
    sim.add_vm(
        VmBuilder::new(0)
            // scsi0:0 — data, WAL suppressed.
            .with_disk(52 * 1024 * 1024 * 1024)
            .attach(sim.rng().fork("dbt2"), |rng| {
                Box::new(Dbt2Workload::new(
                    "dbt2-data",
                    Dbt2Params {
                        emit_wal: false,
                        ..Dbt2Params::default()
                    },
                    rng,
                ))
            })
            // scsi0:1 — dedicated WAL disk.
            .with_disk(2 * 1024 * 1024 * 1024)
            .attach(sim.rng().fork("wal"), move |rng| {
                Box::new(FilebenchWorkload::new(
                    "wal-writer",
                    wal_spec,
                    Box::new(Ufs::new(UfsParams {
                        capacity_bytes: 2 * 1024 * 1024 * 1024,
                        ..UfsParams::default()
                    })),
                    rng,
                ))
            }),
    );
    sim.run_until(duration);
    let data = service.collector(sim.attachment_target(0)).unwrap();
    let wal = service.collector(sim.attachment_target(1)).unwrap();
    (data, wal)
}

fn main() {
    println!("=== Extension: splitting a workload across virtual disks (§3.6) ===\n");
    let duration = SimTime::from_secs(30);

    let all = combined(duration);
    let (data, wal) = split(duration);

    let seek_all = all.histogram(Metric::SeekDistance, Lens::Writes);
    let seek_data = data.histogram(Metric::SeekDistance, Lens::Writes);
    let seek_wal = wal.histogram(Metric::SeekDistance, Lens::Writes);

    println!(
        "{}",
        panel(
            "Write seek distance — combined disk (WAL + data)",
            &seek_all
        )
    );
    println!(
        "{}",
        panel("Write seek distance — data disk only (split)", &seek_data)
    );
    println!(
        "{}",
        panel("Write seek distance — WAL disk only (split)", &seek_wal)
    );

    let seq = |h: &histo::Histogram| h.fraction_in(0, 2);
    let near = |h: &histo::Histogram| h.fraction_in(-500, 500);

    let checks = vec![
        ShapeCheck::new(
            "combined disk mixes signals (neither purely sequential nor purely random)",
            format!(
                "combined: {} sequential, {} within ±500",
                pct(seq(&seek_all)),
                pct(near(&seek_all))
            ),
            seq(&seek_all) > 0.05 && seq(&seek_all) < 0.9,
        ),
        ShapeCheck::new(
            "dedicated WAL disk shows a pure sequential-append signature",
            format!(
                "WAL disk: {} of write seeks exactly sequential",
                pct(seq(&seek_wal))
            ),
            seq(&seek_wal) > 0.95,
        ),
        ShapeCheck::new(
            "data disk's signature is cleaner after the split (less sequential mass)",
            format!(
                "data-disk sequential fraction {} < combined {}",
                pct(seq(&seek_data)),
                pct(seq(&seek_all))
            ),
            seq(&seek_data) < seq(&seek_all),
        ),
        ShapeCheck::new(
            "per-disk histograms separate the components (§3.6's point)",
            format!(
                "WAL seq {} vs data seq {} — unambiguous classification per disk",
                pct(seq(&seek_wal)),
                pct(seq(&seek_data))
            ),
            seq(&seek_wal) - seq(&seek_data) > 0.5,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
