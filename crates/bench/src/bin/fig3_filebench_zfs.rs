//! Figure 3 — Filebench OLTP on Solaris/ZFS.
//!
//! Regenerates the four panels of Figure 3 and checks the paper's headline
//! filesystem finding: ZFS aggregates I/O into 80–128 KiB commands and its
//! copy-on-write allocator turns the application's random writes into
//! sequential disk writes, while reads stay random. Also prints the
//! windowed-seek ablation (N = 1 vs the paper's N = 16).

use esx::Testbed;
use simkit::SimTime;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel, pct, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::{run_filebench_oltp, FsKind};

fn main() {
    println!("=== Figure 3: Filebench OLTP, Solaris 11 on ZFS (simulated) ===\n");
    println!(
        "{}\n",
        Testbed::reference("EMC Symmetrix-like RAID-5 model (4Gb SAN)")
    );

    let duration = SimTime::from_secs(30);
    let result = run_filebench_oltp(FsKind::Zfs, duration, 0xF163);
    let c = &result.collectors[0];

    let len = c.histogram(Metric::IoLength, Lens::All);
    let seek = c.histogram(Metric::SeekDistance, Lens::All);
    let seek_w = c.histogram(Metric::SeekDistance, Lens::Writes);
    let seek_r = c.histogram(Metric::SeekDistance, Lens::Reads);
    let windowed = c.histogram(Metric::SeekDistanceWindowed, Lens::All);

    println!("{}", panel("(a) I/O Length Histogram [bytes]", &len));
    println!("{}", panel("(b) Seek Distance Histogram [sectors]", &seek));
    println!(
        "{}",
        panel("(c) Seek Distance Histogram (Writes) [sectors]", &seek_w)
    );
    println!(
        "{}",
        panel("(d) Seek Distance Histogram (Reads) [sectors]", &seek_r)
    );
    println!(
        "{}",
        panel(
            "(extra) Windowed min seek distance, N=16 [sectors]",
            &windowed
        )
    );
    println!(
        "commands={} IOps={:.0} MBps={:.1} read%={}\n",
        result.completed[0],
        result.iops[0],
        result.mbps[0],
        pct(c.read_fraction().unwrap_or(0.0)),
    );

    // Fraction of commands in the 80-128 KiB band (bins 81920 and 131072).
    let big_frac = len.fraction_in(65_536, 131_072);
    let seq_writes = seek_w.fraction_in(0, 500);
    let rand_reads = 1.0 - seek_r.fraction_in(-5_000, 5_000);

    let checks = vec![
        ShapeCheck::new(
            "ZFS issues I/Os of sizes between 80KB and 128KB (aggressive aggregation)",
            format!("{} of commands in (64 KiB, 128 KiB]", pct(big_frac)),
            big_frac > 0.5,
        ),
        ShapeCheck::new(
            "ZFS turns random writes into sequential I/O (COW allocation)",
            format!("{} of write seeks within (0, 500] sectors", pct(seq_writes)),
            seq_writes > 0.5,
        ),
        ShapeCheck::new(
            "ZFS reads remain random (expected)",
            format!("{} of read seeks beyond ±5000 sectors", pct(rand_reads)),
            rand_reads > 0.5,
        ),
        ShapeCheck::new(
            "Length histogram mode sits in the 80-128 KiB band",
            format!(
                "mode bin = {}",
                len.edges().bin_label(len.mode_bin().unwrap_or(0))
            ),
            len.mode_bin() == Some(len.edges().bin_index(131_072))
                || len.mode_bin() == Some(len.edges().bin_index(81_920)),
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
