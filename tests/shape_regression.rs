//! Shape-regression tests: short versions of every paper experiment,
//! asserting the qualitative results hold. The full-length versions live
//! in the `vscsistats-bench` experiment binaries; these keep the shapes
//! under `cargo test`.

use simkit::SimTime;
use vscsistats_bench::scenarios::{
    run_dbt2, run_filebench_oltp, run_filecopy, run_interference, run_microbench, CopyOs, FsKind,
    InterferenceMode,
};
use vscsistats_repro::prelude::{Lens, Metric};

#[test]
fn fig2_ufs_shape() {
    let r = run_filebench_oltp(FsKind::Ufs, SimTime::from_secs(6), 21);
    let c = &r.collectors[0];
    let len = c.histogram(Metric::IoLength, Lens::All);
    let small = (len.count(len.edges().bin_index(4096)) + len.count(len.edges().bin_index(8192)))
        as f64
        / len.total() as f64;
    assert!(small > 0.8, "4/8 KiB fraction = {small}");
    let seek = c.histogram(Metric::SeekDistance, Lens::All);
    assert!(
        1.0 - seek.fraction_in(-5_000, 5_000) > 0.5,
        "must be random"
    );
}

#[test]
fn fig3_zfs_shape() {
    let r = run_filebench_oltp(FsKind::Zfs, SimTime::from_secs(6), 22);
    let c = &r.collectors[0];
    let len = c.histogram(Metric::IoLength, Lens::All);
    assert!(len.fraction_in(65_536, 131_072) > 0.4, "80-128K band");
    let w = c.histogram(Metric::SeekDistance, Lens::Writes);
    assert!(w.fraction_in(0, 500) > 0.5, "COW writes sequential");
    let rd = c.histogram(Metric::SeekDistance, Lens::Reads);
    assert!(1.0 - rd.fraction_in(-5_000, 5_000) > 0.5, "reads random");
}

#[test]
fn fig4_dbt2_shape() {
    let r = run_dbt2(SimTime::from_secs(20), 23);
    let c = &r.collectors[0];
    let len = c.histogram(Metric::IoLength, Lens::All);
    let frac8k = len.count(len.edges().bin_index(8192)) as f64 / len.total() as f64;
    assert!(frac8k > 0.95, "8 KiB fraction = {frac8k}");
    let ow = c.histogram(Metric::OutstandingIos, Lens::Writes);
    assert!(
        ow.mean().unwrap() > 15.0,
        "write queue depth should sit near 32, mean = {:?}",
        ow.mean()
    );
    // Reads vary with transaction phases (Figure 4(c)'s spread-out read
    // curve) while writes are pinned by the background writer's window:
    // the write histogram must be more concentrated than the read one.
    let or = c.histogram(Metric::OutstandingIos, Lens::Reads);
    let peak_frac = |h: &vscsistats_repro::histo::Histogram| {
        h.count(h.mode_bin().unwrap()) as f64 / h.total() as f64
    };
    assert!(
        peak_frac(&ow) > peak_frac(&or),
        "write OIO should be more concentrated: writes {:.2} vs reads {:.2}",
        peak_frac(&ow),
        peak_frac(&or)
    );
    let w = c.histogram(Metric::SeekDistance, Lens::Writes);
    let near = w.fraction_in(-5_000, 5_000);
    assert!((0.1..0.8).contains(&near), "write locality bursts = {near}");
}

#[test]
fn fig5_filecopy_shape() {
    let xp = run_filecopy(CopyOs::Xp, SimTime::from_secs(3), 24);
    let vista = run_filecopy(CopyOs::Vista, SimTime::from_secs(3), 24);
    let lx = xp.collectors[0].histogram(Metric::IoLength, Lens::All);
    let lv = vista.collectors[0].histogram(Metric::IoLength, Lens::All);
    assert_eq!(lx.mode_bin(), Some(lx.edges().bin_index(65_536)));
    assert_eq!(lv.mode_bin(), Some(lv.edges().bin_index(1_048_576)));
    assert!(xp.completed[0] > 4 * vista.completed[0]);
    assert!(vista.mean_latency_us[0] > 1.5 * xp.mean_latency_us[0]);
}

#[test]
fn table2_shape() {
    let on = run_microbench(true, SimTime::from_millis(400), 25);
    let off = run_microbench(false, SimTime::from_millis(400), 25);
    // Observation must not perturb the simulated workload at all.
    assert_eq!(on.completed, off.completed);
    assert_eq!(on.latency_ms, off.latency_ms);
}

#[test]
fn fig6_interference_shape() {
    let dur = SimTime::from_secs(8);
    let solo_seq = run_interference(InterferenceMode::SoloSequential, false, dur, 26);
    let solo_rand = run_interference(InterferenceMode::SoloRandom, false, dur, 26);
    let dual = run_interference(InterferenceMode::Dual, false, dur, 26);
    // Sequential reader collapses; random reader degrades mildly.
    let seq_ratio = dual.mean_latency_us[1] / solo_seq.mean_latency_us[0];
    let rand_ratio = dual.mean_latency_us[0] / solo_rand.mean_latency_us[0];
    assert!(seq_ratio > 5.0, "seq latency ratio = {seq_ratio}");
    assert!(
        rand_ratio > 1.02 && rand_ratio < seq_ratio,
        "rand ratio = {rand_ratio}"
    );
    let seq_drop = 1.0 - dual.iops[1] / solo_seq.iops[0];
    assert!(seq_drop > 0.5, "seq IOps drop = {seq_drop}");
    // Environment-independent histograms unchanged (length mode).
    let ls = solo_seq.collectors[0].histogram(Metric::IoLength, Lens::All);
    let ld = dual.collectors[1].histogram(Metric::IoLength, Lens::All);
    assert_eq!(ls.mode_bin(), ld.mode_bin());
}

#[test]
fn sec53_cache_softens_interference() {
    let dur = SimTime::from_secs(6);
    let solo_seq_on = run_interference(InterferenceMode::SoloSequential, true, dur, 27);
    let dual_on = run_interference(InterferenceMode::Dual, true, dur, 27);
    let solo_seq_off = run_interference(InterferenceMode::SoloSequential, false, dur, 27);
    let dual_off = run_interference(InterferenceMode::Dual, false, dur, 27);
    let ratio_on = dual_on.mean_latency_us[1] / solo_seq_on.mean_latency_us[0];
    let ratio_off = dual_off.mean_latency_us[1] / solo_seq_off.mean_latency_us[0];
    assert!(
        ratio_on > 1.0 && ratio_on < ratio_off / 2.0,
        "cache-on ratio {ratio_on} vs cache-off {ratio_off}"
    );
}
