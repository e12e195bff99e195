//! End-to-end hypervisor test: CPU accounting follows command throughput.

use esx::{Simulation, VmBuilder};
use guests::{AccessSpec, IometerWorkload};
use simkit::SimTime;
use std::sync::Arc;
use storage::presets;
use vscsi_stats::StatsService;

#[test]
fn cpu_accounting_tracks_throughput_difference() {
    let run = |spec: AccessSpec| {
        let service = Arc::new(StatsService::default());
        let mut sim = Simulation::new(presets::clariion_cx3(), service, 34);
        sim.add_vm(
            VmBuilder::new(0)
                .with_disk(2 * 1024 * 1024 * 1024)
                .attach(sim.rng().fork("w"), move |rng| {
                    Box::new(IometerWorkload::new("w", spec, rng))
                }),
        );
        sim.run_until(SimTime::from_millis(400));
        (
            sim.attachment_stats(0).completed,
            sim.cpu_out_of_n(SimTime::from_millis(400)),
        )
    };
    let (seq_cmds, seq_cpu) = run(AccessSpec::seq_read_4k(8, 1024 * 1024 * 1024));
    let (rand_cmds, rand_cpu) = run(AccessSpec::random_read_8k(8, 1024 * 1024 * 1024));
    assert!(seq_cmds > rand_cmds);
    assert!(seq_cpu > rand_cpu, "more commands must cost more CPU");
}
