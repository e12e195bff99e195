//! Table 2 — microbenchmark performance with the online histogram service
//! disabled vs enabled.
//!
//! The paper's Iometer 4 KiB sequential-read worst case: small I/Os
//! maximize command rate, so any per-command cost shows up. We run the
//! same simulated workload with the service off and on, repeatedly, and
//! report IOps / MBps / latency (simulated — must be identical, since
//! observation must not perturb the workload) and host CPU time (the real
//! cost of the instrumentation inside this process). The per-command
//! nanosecond cost is measured precisely by the `collector_overhead`
//! Criterion bench.

use esx::Testbed;
use simkit::{OnlineStats, SimTime};
use vscsistats_bench::reporting::{shape_report, ShapeCheck};
use vscsistats_bench::scenarios::run_microbench;

fn main() {
    println!("=== Table 2: Microbenchmark Performance (simulated) ===\n");
    println!(
        "{}\n",
        Testbed::reference("EMC Symmetrix-like RAID-5 model (4Gb SAN)")
    );
    println!("workload: Iometer 4KB Sequential Read, 16 outstanding\n");

    let duration = SimTime::from_secs(5);
    let reps = 5;
    let mut rows = Vec::new();
    for enabled in [false, true] {
        let mut iops = OnlineStats::new();
        let mut host = OnlineStats::new();
        let mut latency_ms = 0.0;
        let mut mbps = 0.0;
        let mut cpu800 = 0.0;
        for rep in 0..reps {
            let row = run_microbench(enabled, duration, 0x7AB2 + rep);
            iops.push(row.iops);
            host.push(row.host_seconds);
            latency_ms = row.latency_ms;
            mbps = row.mbps;
            cpu800 = row.cpu_out_of_800;
        }
        rows.push((enabled, iops, mbps, latency_ms, host, cpu800));
    }

    println!(
        "{:<34} {:>14} {:>14}",
        "Online Histo Service", "Disabled", "Enabled"
    );
    let disabled = &rows[0];
    let enabled = &rows[1];
    println!(
        "{:<34} {:>14.0} {:>14.0}",
        "IOps",
        disabled.1.mean(),
        enabled.1.mean()
    );
    println!(
        "{:<34} {:>13.4}% {:>13.4}%",
        "IOps Std.Dev (as % of mean)",
        disabled.1.std_dev_pct_of_mean(),
        enabled.1.std_dev_pct_of_mean()
    );
    println!("{:<34} {:>14.1} {:>14.1}", "MBps", disabled.2, enabled.2);
    println!(
        "{:<34} {:>14.2} {:>14.2}",
        "Latency in milliseconds", disabled.3, enabled.3
    );
    println!(
        "{:<34} {:>14.1} {:>14.1}",
        "CPU out of 800 (simulated model)", disabled.5, enabled.5
    );
    println!(
        "{:<34} {:>14.3} {:>14.3}",
        "Host CPU seconds per rep",
        disabled.4.mean(),
        enabled.4.mean()
    );
    let per_cmd_ns = (enabled.4.mean() - disabled.4.mean()) * 1e9
        / (disabled.1.mean() * duration.as_secs_f64()).max(1.0);
    println!("{:<34} {:>29.1}", "Derived overhead ns/command", per_cmd_ns);
    println!();

    let iops_delta = (disabled.1.mean() - enabled.1.mean()).abs() / disabled.1.mean().max(1.0);
    let checks = vec![
        ShapeCheck::new(
            "negligible degradation in throughput (within noise)",
            format!("simulated IOps delta = {:.3}%", iops_delta * 100.0),
            iops_delta < 0.005,
        ),
        ShapeCheck::new(
            "latency unchanged (1.6 ms vs 1.6 ms in the paper)",
            format!("{:.3} ms vs {:.3} ms", disabled.3, enabled.3),
            (disabled.3 - enabled.3).abs() < 0.01,
        ),
        ShapeCheck::new(
            "per-command instrumentation cost is sub-microsecond",
            format!("derived {per_cmd_ns:.0} ns/command host overhead"),
            per_cmd_ns < 2_000.0,
        ),
    ];
    let (report, ok) = shape_report(&checks);
    println!("{report}");
    println!(
        "(precise per-command cost: cargo bench -p vscsistats-bench --bench collector_overhead)"
    );
    if !ok {
        std::process::exit(1);
    }
}
