//! Figure 6 / §5.3 — multi-VM interference effect on latency.
//!
//! Two VMs on the same CLARiiON-CX3-like array (6 GiB virtual disks, 32
//! outstanding I/Os each): an 8 KiB random reader and an 8 KiB sequential
//! reader, solo and together. With the read cache off (the paper's
//! "extreme worst case"), the sequential reader suffers dramatically
//! (paper: latency ×40, IOps −90%) and the random reader moderately
//! (×1.6, −38%); device-independent histograms stay put. Pass
//! `--with-cache` for the §5.3 cached variant (paper: seq +44%, rand +17%).

use esx::Testbed;
use simkit::SimTime;
use vscsi_stats::{Lens, Metric};
use vscsistats_bench::reporting::{panel2, pct, shape_report, ShapeCheck};
use vscsistats_bench::scenarios::{run_interference, InterferenceMode};

fn main() {
    let with_cache = std::env::args().any(|a| a == "--with-cache");
    let label = if with_cache {
        "CLARiiON CX3-like model, read cache ON (§5.3)"
    } else {
        "CLARiiON CX3-like model, read cache OFF (Figure 6)"
    };
    println!("=== Figure 6: Multi-VM Interference Effect on Latency (simulated) ===\n");
    println!("{}\n", Testbed::reference(label));

    let solo_dur = SimTime::from_secs(20);
    let dual_dur = SimTime::from_secs(20);
    let seed = 0xF166;

    let solo_rand = run_interference(InterferenceMode::SoloRandom, with_cache, solo_dur, seed);
    let solo_seq = run_interference(InterferenceMode::SoloSequential, with_cache, solo_dur, seed);
    let dual = run_interference(InterferenceMode::Dual, with_cache, dual_dur, seed);

    // Attachment order in Dual: 0 = random, 1 = sequential.
    let rand_solo_lat = solo_rand.collectors[0].histogram(Metric::Latency, Lens::All);
    let rand_dual_lat = dual.collectors[0].histogram(Metric::Latency, Lens::All);
    let seq_solo_lat = solo_seq.collectors[0].histogram(Metric::Latency, Lens::All);
    let seq_dual_lat = dual.collectors[1].histogram(Metric::Latency, Lens::All);

    println!(
        "{}",
        panel2(
            "(a) I/O Latency Histogram (8K Random Reader) [us]",
            "Solo VM",
            &rand_solo_lat,
            "Dual VM",
            &rand_dual_lat
        )
    );
    println!(
        "{}",
        panel2(
            "(b) I/O Latency Histogram (8K Sequential Reader) [us]",
            "Solo VM",
            &seq_solo_lat,
            "Dual VM",
            &seq_dual_lat
        )
    );

    // (c): staggered run — the sequential reader's latency series shifts
    // when the random reader joins a third of the way in.
    let staggered = run_interference(
        InterferenceMode::Staggered,
        with_cache,
        SimTime::from_secs(30),
        seed,
    );
    if let Some(series) = staggered.collectors[1].latency_series() {
        println!("(c) I/O Latency Histogram over Time (8K Seq Reader; random VM joins at t=10s)");
        println!("{series}");
        let ridge = series.mode_ridge();
        println!("mode ridge (bin index per 6 s interval): {ridge:?}\n");
    }

    let rand_lat_ratio = dual.mean_latency_us[0] / solo_rand.mean_latency_us[0].max(1e-9);
    let seq_lat_ratio = dual.mean_latency_us[1] / solo_seq.mean_latency_us[0].max(1e-9);
    let rand_iops_drop = 1.0 - dual.iops[0] / solo_rand.iops[0].max(1e-9);
    let seq_iops_drop = 1.0 - dual.iops[1] / solo_seq.iops[0].max(1e-9);

    println!(
        "random reader: solo {:.0} IOps / {:.2} ms -> dual {:.0} IOps / {:.2} ms",
        solo_rand.iops[0],
        solo_rand.mean_latency_us[0] / 1000.0,
        dual.iops[0],
        dual.mean_latency_us[0] / 1000.0
    );
    println!(
        "seq reader:    solo {:.0} IOps / {:.2} ms -> dual {:.0} IOps / {:.2} ms\n",
        solo_seq.iops[0],
        solo_seq.mean_latency_us[0] / 1000.0,
        dual.iops[1],
        dual.mean_latency_us[1] / 1000.0
    );

    // Device-independent histograms must not move (§3.7 / §5.3).
    let len_solo = solo_seq.collectors[0].histogram(Metric::IoLength, Lens::All);
    let len_dual = dual.collectors[1].histogram(Metric::IoLength, Lens::All);
    let len_stable = len_solo.mode_bin() == len_dual.mode_bin();
    let oio_solo = solo_seq.collectors[0].histogram(Metric::OutstandingIos, Lens::All);
    let oio_dual = dual.collectors[1].histogram(Metric::OutstandingIos, Lens::All);
    let oio_stable = oio_solo.mode_bin() == oio_dual.mode_bin();

    let checks = if with_cache {
        vec![
            ShapeCheck::new(
                "§5.3 with cache: sequential reader's latency increased by ~44%",
                format!("seq latency ratio = {seq_lat_ratio:.2}x"),
                seq_lat_ratio > 1.1,
            ),
            ShapeCheck::new(
                "§5.3 with cache: random reader's latency increased by ~17%",
                format!("rand latency ratio = {rand_lat_ratio:.2}x"),
                rand_lat_ratio > 1.02,
            ),
            ShapeCheck::new(
                "cache softens interference vs the cache-off worst case",
                format!("seq ratio {seq_lat_ratio:.1}x (cache-off case is >10x)"),
                seq_lat_ratio < 15.0,
            ),
        ]
    } else {
        vec![
            ShapeCheck::new(
                "sequential reader suffers most: latency increase ~40x",
                format!("seq latency ratio = {seq_lat_ratio:.1}x"),
                seq_lat_ratio > 8.0,
            ),
            ShapeCheck::new(
                "sequential reader IOps drop ~90%",
                format!("seq IOps drop = {}", pct(seq_iops_drop)),
                seq_iops_drop > 0.6,
            ),
            ShapeCheck::new(
                "random reader latency increase ~1.6x",
                format!("rand latency ratio = {rand_lat_ratio:.2}x"),
                (1.08..4.0).contains(&rand_lat_ratio),
            ),
            ShapeCheck::new(
                "random reader IOps drop ~38%",
                format!("rand IOps drop = {}", pct(rand_iops_drop)),
                (0.10..0.75).contains(&rand_iops_drop),
            ),
            ShapeCheck::new(
                "device-independent characteristics (length, OIO) didn't change",
                format!("length mode stable: {len_stable}; OIO mode stable: {oio_stable}"),
                len_stable && oio_stable,
            ),
        ]
    };
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    if !ok {
        std::process::exit(1);
    }
}
