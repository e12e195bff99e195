//! One run: set-up, the interleaved spine of five workloads, and (traced)
//! the per-layer measurements.

use crate::calib::MachineSpeed;
use crate::fleet::{FleetInputs, FleetRollup};
use crate::hook::{ContendInputs, HookContend, HookHot, HookInputs};
use crate::host::FullHost;
use crate::json::Json;
use crate::layers;
use crate::metrics::{Better, Results, END_TO_END, PER_LAYER, WORKLOADS};
use crate::outcome::{Ops, Outcome};
use crate::provenance::Provenance;
use crate::query::{Archive, TraceQuery};
use crate::span::Tracer;
use crate::stats::median;
use crate::{Pipeline, Sizes};
use simkit::SimRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times the whole set-up is repeated in a run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// The focus workload's share of the run's measured time; the other four
/// split the rest evenly.
const FOCUS_SHARE: f64 = 0.4;

#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Measured seconds for the spine.
    pub seconds: f64,
    /// The workload measured at length; `None` measures all five alike.
    pub focus: Option<&'static str>,
    pub traced: bool,
    pub smoke: bool,
    /// Scratch directory (inside the checkout); emptied by the run.
    pub workdir: PathBuf,
}

/// Everything the workloads consume, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub hook: HookInputs,
    pub contend: ContendInputs,
    pub archive: Archive,
    pub fleet: FleetInputs,
}

impl Inputs {
    pub fn build(seed: u64, sizes: &Sizes, workdir: &Path) -> Inputs {
        let rng = SimRng::seed_from(seed);
        Inputs {
            hook: HookInputs::build(
                &mut rng.fork("hook_hot"),
                sizes.hook_targets,
                sizes.hook_cmds,
            ),
            contend: ContendInputs::build(
                &mut rng.fork("hook_contend"),
                sizes.contend_targets,
                sizes.contend_cmds,
            ),
            archive: Archive::capture(
                &mut rng.fork("trace_query"),
                &workdir.join("archive"),
                sizes.archive_targets,
                sizes.archive_cmds,
                sizes.archive_segment_bytes,
                sizes.selective_queries,
            ),
            fleet: FleetInputs::build(
                &rng.fork("fleet_rollup"),
                sizes.fleet_hosts,
                sizes.fleet_targets_per_host,
                sizes.fleet_initial_cmds,
                sizes.fleet_burst_cmds,
            ),
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunReport {
    pub plan: Plan,
    pub provenance: Provenance,
    pub outcomes: Vec<Outcome>,
    /// Every metric measured: the end-to-end ones (timings at reference
    /// speed, see `calib`) always, the per-layer ones when traced.
    pub metrics: Results,
    /// The end-to-end metrics exactly as timed, before scaling.
    pub raw: Results,
    pub speed: MachineSpeed,
    pub ops: Ops,
    /// Seconds the spine measured.
    pub spine_s: f64,
    pub tracer: Tracer,
}

/// Wall time of one pass and whether the tracer was recording during it.
type PassWall = (bool, f64);

/// Interleaves the pipelines: always the one furthest behind its share of
/// the time spent so far, one pass at a time, until `budget_s` is used.
/// Every pipeline runs `min_passes` regardless, and the reference kernel
/// runs before every pass. With `alternate`, the
/// tracer records every other pass of each pipeline. Returns every pass's
/// wall time, per pipeline, in the order run.
fn spine(
    pipes: &mut [Box<dyn Pipeline + '_>],
    shares: &[f64],
    budget_s: f64,
    min_passes: usize,
    alternate: bool,
    tracer: &mut Tracer,
    speed: &mut MachineSpeed,
) -> Vec<Vec<PassWall>> {
    let n = pipes.len();
    let mut walls: Vec<Vec<PassWall>> = vec![Vec::new(); n];
    let mut used = vec![0.0f64; n];
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let last = |i: usize| walls[i].last().map_or(0.0, |(_, wall)| *wall);
        // A pass that would overrun the budget is not started, once the
        // pipeline has its minimum.
        let next = (0..n)
            .filter(|&i| walls[i].len() < min_passes || elapsed + last(i) <= budget_s)
            .min_by(|&a, &b| {
                let behind = |i: usize| {
                    if walls[i].len() < min_passes {
                        -1.0
                    } else {
                        used[i] / shares[i]
                    }
                };
                behind(a).total_cmp(&behind(b))
            });
        let Some(i) = next else { break };
        let on = tracer.is_on() && (!alternate || walls[i].len() % 2 == 1);
        let was_on = tracer.is_on();
        tracer.set_on(on);
        speed.sample();
        let t0 = Instant::now();
        pipes[i].pass(tracer);
        let wall = t0.elapsed().as_secs_f64();
        tracer.set_on(was_on);
        used[i] += wall;
        walls[i].push((on, wall));
    }
    walls
}

/// Tracing overhead of one pipeline, percent: the median, over adjacent
/// (untraced, traced) pass pairs, of how much longer the traced pass took.
/// Pairing neighbours cancels the machine's slow drifts.
fn overhead_pct(walls: &[PassWall]) -> f64 {
    let ratios: Vec<f64> = walls
        .chunks_exact(2)
        .filter(|pair| !pair[0].0 && pair[1].0)
        .map(|pair| pair[1].1 / pair[0].1)
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

pub fn run(plan: Plan) -> RunReport {
    let sizes = if plan.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let _ = std::fs::remove_dir_all(&plan.workdir);
    std::fs::create_dir_all(&plan.workdir).expect("create the work directory");
    let provenance = Provenance::collect(&plan.workdir);

    let mut speed = MachineSpeed::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        speed.sample();
        let t0 = Instant::now();
        inputs = Some(Inputs::build(plan.seed, &sizes, &plan.workdir));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");

    let mut tracer = Tracer::new(plan.traced);
    let mut metrics = Results::default();
    metrics.set("setup_s", median(&setup_s), setup_s.len());

    let mut pipes: Vec<Box<dyn Pipeline + '_>> = vec![
        Box::new(HookHot::new(&inputs.hook, &sizes)),
        Box::new(HookContend::new(&inputs.contend)),
        Box::new(FullHost::new(
            plan.seed,
            sizes.host,
            plan.workdir.join("host"),
        )),
        Box::new(TraceQuery::new(&inputs.archive, sizes.reference_checks)),
        Box::new(FleetRollup::new(&inputs.fleet, sizes.fleet_rounds_per_pass)),
    ];
    assert!(
        pipes
            .iter()
            .map(|p| p.name())
            .eq(WORKLOADS.iter().map(|(name, _)| *name)),
        "pipelines run in the registry's workload order"
    );
    let shares: Vec<f64> = WORKLOADS
        .iter()
        .map(|(name, _)| match plan.focus {
            Some(focus) if focus == *name => FOCUS_SHARE,
            Some(_) => (1.0 - FOCUS_SHARE) / (WORKLOADS.len() - 1) as f64,
            None => 1.0 / WORKLOADS.len() as f64,
        })
        .collect();
    // A traced run spends the other half of its time on the per-layer
    // measurements that follow the spine.
    let budget_s = match (plan.smoke, plan.traced) {
        (true, _) => 0.0,
        (false, true) => plan.seconds / 2.0,
        (false, false) => plan.seconds,
    };
    let min_passes = if plan.traced { 2 } else { 1 };
    let t0 = Instant::now();
    let walls = spine(
        &mut pipes,
        &shares,
        budget_s,
        min_passes,
        plan.traced,
        &mut tracer,
        &mut speed,
    );
    let spine_s = t0.elapsed().as_secs_f64();

    let mut outcomes: Vec<Outcome> = pipes.into_iter().map(Pipeline::finish).collect();
    let mut ops = Ops::default();
    for (outcome, walls) in outcomes.iter_mut().zip(&walls) {
        outcome.timed_s = walls.iter().map(|(_, wall)| wall).sum();
        ops.absorb(&outcome.ops);
        metrics.absorb(std::mem::take(&mut outcome.metrics));
    }

    if plan.traced {
        // Reported for every workload; the contract's one number is the
        // focus workload's (the first's when all five share the run).
        let focus = plan.focus.unwrap_or(WORKLOADS[0].0);
        for ((name, _), walls) in WORKLOADS.iter().zip(&walls) {
            let pct = overhead_pct(walls);
            eprintln!(
                "tracing_overhead_pct[{name}] = {pct:.3} % over {} passes",
                walls.len()
            );
            if *name == focus {
                metrics.set("tracing_overhead_pct", pct, walls.len());
            }
        }
        layers::from_spans(&tracer, &mut metrics);
        layers::measure(&inputs, &sizes, &plan, &mut metrics, &mut ops);
        metrics.set("tracing.spans", tracer.spans().len() as f64, 1);
    }

    metrics.set(
        "machine.reference_kernel_us",
        speed.kernel_us(),
        speed.samples(),
    );
    metrics.set("machine.speed_factor", speed.factor(), speed.samples());
    metrics.set(
        "machine.parallel_slowdown",
        speed.parallel_slowdown(),
        speed.samples(),
    );
    // End-to-end timings are reported at reference speed; counts are not
    // touched, and neither are the per-layer numbers.
    let raw = metrics.clone();
    for def in END_TO_END.iter().filter(|def| !def.exact) {
        metrics.rescale(def.name, |v| match def.better {
            Better::Lower => v * speed.factor(),
            Better::Higher => v / speed.factor(),
        });
    }

    // Every metric the mode promises must be there: a hole is a bug here,
    // not something to print around.
    for def in END_TO_END.iter() {
        assert!(metrics.get(def.name).is_some(), "{} missing", def.name);
    }
    if plan.traced {
        for def in PER_LAYER.iter() {
            assert!(metrics.get(def.name).is_some(), "{} missing", def.name);
        }
    }
    drop(inputs);
    let _ = std::fs::remove_dir_all(&plan.workdir);
    RunReport {
        plan,
        provenance,
        outcomes,
        metrics,
        raw,
        speed,
        ops,
        spine_s,
        tracer,
    }
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The last line of standard output the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        let defs: &[_] = if self.plan.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.ops.attempted)),
            ("failed", Json::uint(self.ops.failed)),
            ("metrics", self.metrics.contract_json(defs)),
        ])
        .to_line()
    }
}
