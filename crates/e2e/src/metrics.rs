//! The metric registry: every name this benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists exactly these; a test pins the
//! two together, and a run that fails to produce one of them panics
//! rather than print a partial result.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// The workload whose run measures it at full length.
    pub workload: &'static str,
    /// A count that repeats exactly for a seed, not a timing.
    pub exact: bool,
}

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "hook_hot",
        "One thread, interleaved 8-target stream through handle_issue/handle_complete and mixed-target handle_batch(64): the paper's Table 2 path; store, fleet and simulator idle.",
    ),
    (
        "hook_contend",
        "16 targets from nproc producers through the sharded batch path and the thread-per-core IngestPipeline: shard locks, core::spsc and core::pipeline, which hook_hot bypasses.",
    ),
    (
        "full_host",
        "Eight guest VMs on one simulated array with series, streaming trace store, fsync'd checkpoints and a fleet poll every window, then recovery: every layer runs, each a small share.",
    ),
    (
        "trace_query",
        "Full scans and 2% selective queries over a captured multi-segment archive: codec, index and replay do the work and the hook none; reads what full_host writes.",
    ),
    (
        "fleet_rollup",
        "Operator's FetchAllHistograms path: poll, decode, merge and roll up many hosts per round while they keep ingesting; reads the slab the hook workloads write.",
    ),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workload: &'static str,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        workload,
        exact,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static str,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        workload,
        exact,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip] // one metric per line reads as the table it is
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Lower, 0.25, "all", false),
    e2e("hook_ns_per_cmd_p50", "ns/cmd", Lower, 0.25, "hook_hot", false),
    e2e("batch_ns_per_cmd_p50", "ns/cmd", Lower, 0.25, "hook_hot", false),
    e2e("host_cmds_per_s", "cmd/s", Higher, 0.25, "full_host", false),
    e2e("recovery_ms", "ms", Lower, 0.25, "full_host", false),
    e2e("trace_bytes_per_record", "B/record", Lower, 0.02, "full_host", true),
    e2e("query_selective_ms_p50", "ms", Lower, 0.25, "trace_query", false),
    e2e("fleet_round_ms_p50", "ms", Lower, 0.25, "fleet_rollup", false),
    e2e("frame_bytes_per_target", "B/target", Lower, 0.01, "fleet_rollup", true),
];

#[rustfmt::skip]
pub const PER_LAYER: [MetricDef; 77] = [
    // parallel throughputs (see README: they follow the host's vCPU placement)
    layer("contend_cmds_per_s", "cmd/s", Higher, "hook_contend", false),
    layer("tpc_cmds_per_s", "cmd/s", Higher, "hook_contend", false),
    layer("query_full_records_per_s", "record/s", Higher, "trace_query", false),
    // tails of the end-to-end timings (see README: too noisy to bound)
    layer("hook_ns_per_cmd_p99", "ns/cmd", Lower, "hook_hot", false),
    layer("query_selective_ms_p95", "ms", Lower, "trace_query", false),
    layer("fleet_round_ms_p95", "ms", Lower, "fleet_rollup", false),
    // histo
    layer("histo.fastbin.ns_per_value", "ns/value", Lower, "hook_hot", false),
    layer("histo.fastbin.scalar_ns_per_value", "ns/value", Lower, "hook_hot", false),
    layer("histo.histogram.insert_ns", "ns", Lower, "hook_hot", false),
    // core::inflight
    layer("core.inflight.ns_per_pair", "ns/pair", Lower, "hook_hot", false),
    layer("core.inflight.spill_ns_per_pair", "ns/pair", Lower, "hook_hot", false),
    // core::collector
    layer("core.collector.ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.collector.series_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.collector.state_bytes_per_target", "B/target", Lower, "hook_hot", true),
    // core::service
    layer("core.service.off_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.service.dispatch_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.service.batch_same_target_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.service.single_thread_cmds_per_s", "cmd/s", Higher, "hook_contend", false),
    layer("core.service.sharded_event_cmds_per_s", "cmd/s", Higher, "hook_contend", false),
    layer("contend.scaling_ratio", "ratio", Higher, "hook_contend", false),
    // core::trace / core::sentinel
    layer("core.trace.ring_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("core.sentinel.ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("hook.all_on_ns_per_cmd", "ns/cmd", Lower, "hook_hot", false),
    layer("hook.unattributed_ns", "ns/cmd", Lower, "hook_hot", false),
    // core::spsc / core::pipeline
    layer("core.spsc.ns_per_item", "ns/item", Lower, "hook_contend", false),
    layer("core.pipeline.offer_wait_share", "share", Lower, "hook_contend", false),
    layer("core.pipeline.shed", "count", Lower, "hook_contend", true),
    // esx + guests + storage + simkit, by ablation ladder
    layer("ladder.sim_only_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.histograms_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.series_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.trace_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.checkpoint_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.fleet_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("ladder.residual_ns_per_cmd", "ns/cmd", Lower, "full_host", false),
    layer("driver.window_ms_p50", "ms", Lower, "full_host", false),
    layer("driver.window_ms_p99", "ms", Lower, "full_host", false),
    layer("esx.sim.run_until_share", "share", Lower, "full_host", false),
    // core::checkpoint
    layer("core.checkpoint.tick_ms_p50", "ms", Lower, "full_host", false),
    layer("core.checkpoint.tick_ms_p99", "ms", Lower, "full_host", false),
    layer("core.checkpoint.bytes", "B", Lower, "full_host", true),
    layer("core.checkpoint.snapshot_encode_us_per_target", "us/target", Lower, "full_host", false),
    layer("core.checkpoint.load_latest_ms", "ms", Lower, "full_host", false),
    layer("core.checkpoint.restore_ms", "ms", Lower, "full_host", false),
    layer("core.replay.tail_ms", "ms", Lower, "full_host", false),
    // tracestore, write side
    layer("tracestore.store.capture_records_per_s", "record/s", Higher, "trace_query", false),
    layer("tracestore.store.flush_ms_p99", "ms", Lower, "full_host", false),
    layer("tracestore.store.dropped", "count", Lower, "full_host", true),
    layer("tracestore.codec.encode_ns_per_record", "ns/record", Lower, "full_host", false),
    // tracestore, read side
    layer("tracestore.codec.decode_ns_per_record", "ns/record", Lower, "trace_query", false),
    layer("tracestore.index.load_ms", "ms", Lower, "trace_query", false),
    layer("tracestore.index.build_ms_per_segment", "ms/segment", Lower, "trace_query", false),
    layer("tracestore.query.blocks_scanned", "count", Lower, "trace_query", true),
    layer("tracestore.query.blocks_skipped", "count", Higher, "trace_query", true),
    layer("tracestore.query.skip_ratio", "ratio", Higher, "trace_query", true),
    layer("tracestore.query.serial_records_per_s", "record/s", Higher, "trace_query", false),
    layer("tracestore.query.noindex_records_per_s", "record/s", Higher, "trace_query", false),
    layer("tracestore.reader.read_trace_records_per_s", "record/s", Higher, "trace_query", false),
    layer("core.replay.ns_per_record", "ns/record", Lower, "trace_query", false),
    layer("tracestore.query.unattributed_share", "share", Lower, "trace_query", false),
    // fleet
    layer("fleet.wire.snapshot_us_per_target", "us/target", Lower, "fleet_rollup", false),
    layer("fleet.wire.encode_us_per_target", "us/target", Lower, "fleet_rollup", false),
    layer("fleet.wire.decode_us_per_target", "us/target", Lower, "fleet_rollup", false),
    layer("fleet.wire.frame_bytes", "B", Lower, "fleet_rollup", true),
    layer("fleet.rollup.merge_us_per_target", "us/target", Lower, "fleet_rollup", false),
    layer("fleet.rollup.try_delta_us_per_host", "us/host", Lower, "fleet_rollup", false),
    layer("fleet.rollup.view_ms", "ms", Lower, "fleet_rollup", false),
    layer("fleet.rollup.conserves_ms", "ms", Lower, "fleet_rollup", false),
    layer("fleet.collector.poll_ms", "ms", Lower, "fleet_rollup", false),
    layer("fleet.collector.frames_ok", "count", Higher, "fleet_rollup", false),
    layer("fleet.collector.fetch_failures", "count", Lower, "fleet_rollup", true),
    layer("core.service.fetch_text_ms", "ms", Lower, "fleet_rollup", false),
    layer("core.ingest_between_rounds_ms", "ms", Lower, "fleet_rollup", false),
    // the machine and the tracing themselves
    layer("machine.reference_kernel_us", "us", Lower, "all", false),
    layer("machine.speed_factor", "ratio", Higher, "all", false),
    layer("machine.parallel_slowdown", "ratio", Lower, "all", false),
    layer("tracing_overhead_pct", "%", Lower, "all", false),
    layer("tracing.spans", "count", Lower, "all", false),
];

impl MetricDef {
    /// An end-to-end metric the issue named that is measured in every run
    /// but carries no bound (it sits in `PER_LAYER`).
    pub fn is_unbounded_end_to_end(&self) -> bool {
        self.bound.is_none() && !self.name.contains('.') && self.workload != "all"
    }
}

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The values one run produced, by registry name.
#[derive(Debug, Default, Clone)]
pub struct Results {
    values: BTreeMap<&'static str, Measured>,
}

impl Results {
    /// Records `name`; naming a metric outside the registry, or twice, is
    /// a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        let previous = self.values.insert(def.name, Measured { value, samples });
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Replaces the value of an already recorded metric.
    pub fn rescale(&mut self, name: &str, f: impl FnOnce(f64) -> f64) {
        let m = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        m.value = f(m.value);
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .value
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Measured)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    pub fn absorb(&mut self, other: Results) {
        for (name, m) in other.values {
            self.set(name, m.value, m.samples);
        }
    }

    /// `{"name": {"value": v, "unit": u}}` for every metric of `defs`, in
    /// registry order — the shape the benchmark contract asks for.
    pub fn contract_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|def| {
            let m = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            (
                def.name,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }
}
