//! API-surface tests: the prelude suffices for typical use, key types
//! implement the common traits the Rust API guidelines expect, and error
//! types are well-behaved.

use vscsistats_repro::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}

#[test]
fn key_types_are_send_sync() {
    assert_send_sync::<Histogram>();
    assert_send_sync::<BinEdges>();
    assert_send_sync::<SeekWindow>();
    assert_send_sync::<HistogramSeries>();
    assert_send_sync::<Histogram2d>();
    assert_send_sync::<IoStatsCollector>();
    assert_send_sync::<StatsService>();
    assert_send_sync::<VscsiEvent>();
    assert_send_sync::<VscsiTracer>();
    assert_send_sync::<IoRequest>();
    assert_send_sync::<IoCompletion>();
    assert_send_sync::<StorageArray>();
    assert_send_sync::<SimRng>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<vscsistats_repro::histo::BinEdgesError>();
    assert_error::<vscsistats_repro::histo::MergeError>();
    assert_error::<vscsistats_repro::vscsi::OutOfRange>();
    assert_error::<vscsistats_repro::vscsi_stats::ParseTraceError>();
    assert_error::<vscsistats_repro::guests::filebench::ParseModelError>();
}

#[test]
fn data_types_clone_and_debug() {
    assert_clone_debug::<Histogram>();
    assert_clone_debug::<IoStatsCollector>();
    assert_clone_debug::<AccessSpec>();
    assert_clone_debug::<Dbt2Params>();
    assert_clone_debug::<FileCopyParams>();
    assert_clone_debug::<ArrayParams>();
    assert_clone_debug::<CollectorConfig>();
    assert_clone_debug::<VscsiEvent>();
    assert_clone_debug::<Dist>();
}

#[test]
fn prelude_covers_a_full_session() {
    // Everything below uses only prelude names.
    let service = std::sync::Arc::new(StatsService::default());
    service.enable_all();
    let mut sim = Simulation::new(presets::single_disk(), service.clone(), 1);
    sim.add_vm(
        VmBuilder::new(0)
            .with_disk(1 << 28)
            .attach(sim.rng().fork("w"), |rng| {
                Box::new(IometerWorkload::new(
                    "w",
                    AccessSpec::seq_read_4k(2, 1 << 27),
                    rng,
                ))
            }),
    );
    sim.run_until(SimTime::from_millis(50));
    let c = service.collector(sim.attachment_target(0)).unwrap();
    assert!(c.issued_commands() > 0);
    let h = c.histogram(Metric::IoLength, Lens::All);
    assert_eq!(h.total(), c.issued_commands());
}

#[test]
fn collector_config_builder_patterns() {
    let default = CollectorConfig::default();
    assert_eq!(default.window_capacity, 16);
    assert!(default.series_interval.is_none());
    let figures = CollectorConfig::paper_figures();
    assert_eq!(figures.series_interval, Some(SimDuration::from_secs(6)));
    let custom = CollectorConfig {
        window_capacity: 64,
        correlate_seek_latency: true,
        ..CollectorConfig::default()
    };
    let c = IoStatsCollector::new(custom);
    assert!(c.seek_latency_histogram().is_some());
}
