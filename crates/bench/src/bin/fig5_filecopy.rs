//! Figure 5 — Large file copy: Windows XP Pro vs Windows Vista Enterprise.
//!
//! Regenerates the three overlaid panels ((a) latency, (b) I/O length,
//! (c) seek distance) for a 10-second copy window and checks the caption's
//! claims: "Vista is issuing large I/Os (1MB) so the latency is higher,
//! number of commands is lower and the I/Os are very sequential."

use esx::Testbed;
use simkit::SimTime;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel2, pct, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::{run_filecopy, CopyOs};

fn main() {
    println!("=== Figure 5: Large File Copy, NTFS, 10 s duration (simulated) ===\n");
    println!(
        "{}\n",
        Testbed::reference("EMC Symmetrix-like RAID-5 model (4Gb SAN)")
    );

    let duration = SimTime::from_secs(10); // the paper's caption: 10 sec duration
    let xp = run_filecopy(CopyOs::Xp, duration, 0xF165);
    let vista = run_filecopy(CopyOs::Vista, duration, 0xF165);
    let cx = &xp.collectors[0];
    let cv = &vista.collectors[0];

    let lat_x = cx.histogram(Metric::Latency, Lens::All);
    let lat_v = cv.histogram(Metric::Latency, Lens::All);
    let len_x = cx.histogram(Metric::IoLength, Lens::All);
    let len_v = cv.histogram(Metric::IoLength, Lens::All);
    let seek_x = cx.histogram(Metric::SeekDistanceWindowed, Lens::All);
    let seek_v = cv.histogram(Metric::SeekDistanceWindowed, Lens::All);

    println!(
        "{}",
        panel2(
            "(a) I/O Latency Histogram [us]",
            "XP Pro",
            &lat_x,
            "Vista",
            &lat_v
        )
    );
    println!(
        "{}",
        panel2(
            "(b) I/O Length Histogram [bytes]",
            "XP Pro",
            &len_x,
            "Vista",
            &len_v
        )
    );
    println!(
        "{}",
        panel2(
            "(c) Seek Distance Histogram (windowed, N=16) [sectors]",
            "XP Pro",
            &seek_x,
            "Vista",
            &seek_v
        )
    );
    println!(
        "XP:    commands={} IOps={:.0} MBps={:.1} meanLat={:.2}ms",
        xp.completed[0],
        xp.iops[0],
        xp.mbps[0],
        xp.mean_latency_us[0] / 1000.0
    );
    println!(
        "Vista: commands={} IOps={:.0} MBps={:.1} meanLat={:.2}ms\n",
        vista.completed[0],
        vista.iops[0],
        vista.mbps[0],
        vista.mean_latency_us[0] / 1000.0
    );

    let xp_mode = len_x.mode_bin().map(|b| len_x.edges().bin_label(b));
    let v_mode = len_v.mode_bin().map(|b| len_v.edges().bin_label(b));
    let cmd_ratio = xp.completed[0] as f64 / vista.completed[0].max(1) as f64;
    let lat_ratio = vista.mean_latency_us[0] / xp.mean_latency_us[0].max(1e-9);
    let seq_v = seek_v.fraction_in(0, 500);
    let seq_x = seek_x.fraction_in(0, 500);

    let checks = vec![
        ShapeCheck::new(
            "XP copy engine issues I/Os of size 64K",
            format!("XP length mode bin = {xp_mode:?}"),
            xp_mode.as_deref() == Some("65536"),
        ),
        ShapeCheck::new(
            "Vista I/Os are primarily 1MB in size",
            format!("Vista length mode bin = {v_mode:?}"),
            v_mode.as_deref() == Some(">524288"),
        ),
        ShapeCheck::new(
            "number of commands is lower for Vista (~16x for the same copy)",
            format!("XP issued {cmd_ratio:.1}x as many commands as Vista"),
            cmd_ratio > 4.0,
        ),
        ShapeCheck::new(
            "latencies are correspondingly longer for the larger Vista I/Os",
            format!("Vista mean latency is {lat_ratio:.1}x XP's"),
            lat_ratio > 1.5,
        ),
        ShapeCheck::new(
            "larger I/Os mean less seeking; the copy streams look sequential",
            format!(
                "near-sequential fraction: Vista {}, XP {}",
                pct(seq_v),
                pct(seq_x)
            ),
            seq_v > 0.5,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
