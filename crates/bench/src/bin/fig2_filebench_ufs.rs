//! Figure 2 — Filebench OLTP on Solaris/UFS.
//!
//! Regenerates the four panels of Figure 2: the I/O length histogram and
//! the seek-distance histograms (all / writes / reads), and checks the
//! paper's qualitative claims: UFS passes the ~4 KiB OLTP stream through
//! nearly verbatim (4–8 KiB I/Os) and both reads and writes stay random.

use esx::Testbed;
use simkit::SimTime;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel, pct, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::{run_filebench_oltp, FsKind};

fn main() {
    println!("=== Figure 2: Filebench OLTP, Solaris 11 on UFS (simulated) ===\n");
    println!(
        "{}\n",
        Testbed::reference("EMC Symmetrix-like RAID-5 model (4Gb SAN)")
    );

    let duration = SimTime::from_secs(30);
    let result = run_filebench_oltp(FsKind::Ufs, duration, 0xF162);
    let c = &result.collectors[0];

    let len = c.histogram(Metric::IoLength, Lens::All);
    let seek = c.histogram(Metric::SeekDistance, Lens::All);
    let seek_w = c.histogram(Metric::SeekDistance, Lens::Writes);
    let seek_r = c.histogram(Metric::SeekDistance, Lens::Reads);

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
        "commands={} IOps={:.0} MBps={:.1} read%={}\n",
        result.completed[0],
        result.iops[0],
        result.mbps[0],
        pct(c.read_fraction().unwrap_or(0.0)),
    );

    let i4 = len.edges().bin_index(4096);
    let i8 = len.edges().bin_index(8192);
    let small_frac = (len.count(i4) + len.count(i8)) as f64 / len.total().max(1) as f64;

    // "Quite random": mass at the far edges of the seek histogram.
    let far = |h: &histo::Histogram| 1.0 - h.fraction_in(-5_000, 5_000);
    let seq = |h: &histo::Histogram| h.fraction_in(0, 2);

    let checks = vec![
        ShapeCheck::new(
            "UFS issues I/Os of sizes 4KB and 8KB (close to the 4KB app stream)",
            format!("{} of commands are exactly 4 KiB or 8 KiB", pct(small_frac)),
            small_frac > 0.8,
        ),
        ShapeCheck::new(
            "OLTP workload is quite random (spikes at the edges of the seek histogram)",
            format!("{} of seeks beyond ±5000 sectors", pct(far(&seek))),
            far(&seek) > 0.5,
        ),
        ShapeCheck::new(
            "UFS writes show randomness (no write-sequentializing optimization)",
            format!(
                "writes: {} beyond ±5000 sectors, only {} near-sequential",
                pct(far(&seek_w)),
                pct(seq(&seek_w))
            ),
            far(&seek_w) > 0.4 && seq(&seek_w) < 0.3,
        ),
        ShapeCheck::new(
            "UFS reads show randomness",
            format!("reads: {} beyond ±5000 sectors", pct(far(&seek_r))),
            far(&seek_r) > 0.5,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
