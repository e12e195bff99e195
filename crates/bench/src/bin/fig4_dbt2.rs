//! Figure 4 — DBT-2 (TPC-C-style OLTP) on Linux/ext3 with PostgreSQL.
//!
//! Regenerates the four panels: (a) write seek distances (random with
//! locality bursts), (b) I/O lengths (all 8 KiB), (c) outstanding I/Os for
//! reads vs writes (writes pinned near 32), (d) the outstanding-I/Os-over-
//! time surface, plus the paper's observation that the I/O rate varies by
//! ~15% over a 2-minute window.

use esx::Testbed;
use simkit::SimTime;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel, panel2, pct, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::run_dbt2;

fn main() {
    println!("=== Figure 4: DBT-2, Linux 2.6.17 / PostgreSQL / ext3 (simulated) ===\n");
    println!(
        "{}\n",
        Testbed::reference("EMC Symmetrix-like RAID-5 model (4Gb SAN)")
    );

    let duration = SimTime::from_secs(120); // the paper's 2-minute window
    let result = run_dbt2(duration, 0xF164);
    let c = &result.collectors[0];

    let seek_w = c.histogram(Metric::SeekDistance, Lens::Writes);
    let len = c.histogram(Metric::IoLength, Lens::All);
    let oio_r = c.histogram(Metric::OutstandingIos, Lens::Reads);
    let oio_w = c.histogram(Metric::OutstandingIos, Lens::Writes);

    println!(
        "{}",
        panel("(a) Seek Distance Histogram (Writes) [sectors]", &seek_w)
    );
    println!("{}", panel("(b) I/O Length Histogram [bytes]", &len));
    println!(
        "{}",
        panel2(
            "(c) Outstanding I/Os Histogram",
            "Reads",
            &oio_r,
            "Writes",
            &oio_w
        )
    );
    if let Some(series) = c.outstanding_series() {
        println!("(d) Outstanding I/Os Histogram over Time (6 s intervals)");
        println!("{series}");
    }

    // Per-second completion-rate variation across the run.
    let per_sec = &result.per_second[0];
    let steady = &per_sec[5..per_sec.len().saturating_sub(1).max(6)];
    let max = *steady.iter().max().unwrap_or(&1) as f64;
    let min = *steady.iter().min().unwrap_or(&0) as f64;
    let rate_var = if max > 0.0 { (max - min) / max } else { 0.0 };

    println!(
        "commands={} IOps={:.0} MBps={:.1} read%={}\n",
        result.completed[0],
        result.iops[0],
        result.mbps[0],
        pct(c.read_fraction().unwrap_or(0.0)),
    );

    let w500 = seek_w.fraction_in(-500, 500);
    let w5000 = seek_w.fraction_in(-5_000, 5_000);
    let i8 = len.edges().bin_index(8192);
    let frac8k = len.count(i8) as f64 / len.total().max(1) as f64;
    let w_mode = oio_w.mode_bin().map(|b| oio_w.edges().bin_label(b));

    let checks = vec![
        ShapeCheck::new(
            "workload primarily random, but ~20% of writes within 500 sectors",
            format!("{} of write seeks within ±500 sectors", pct(w500)),
            (0.08..0.6).contains(&w500),
        ),
        ShapeCheck::new(
            "~33% of writes within 5000 sectors (bursts of spatial locality)",
            format!("{} of write seeks within ±5000 sectors", pct(w5000)),
            w5000 > w500 && (0.15..0.7).contains(&w5000),
        ),
        ShapeCheck::new(
            "workload is almost exclusively 8K for both reads and writes",
            format!("{} of commands exactly 8 KiB", pct(frac8k)),
            frac8k > 0.95,
        ),
        ShapeCheck::new(
            "PostgreSQL is always issuing around 32 writes simultaneously",
            format!(
                "write-OIO mode bin = {:?}, mean = {:.1}",
                w_mode,
                oio_w.mean().unwrap_or(0.0)
            ),
            w_mode.as_deref() == Some("32") || oio_w.mean().unwrap_or(0.0) > 20.0,
        ),
        ShapeCheck::new(
            "I/O rate varies by as much as 15% over a 2 min period",
            format!("per-second completion rate varies by {}", pct(rate_var)),
            rate_var >= 0.10,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
