//! Multi-threaded ingestion scaling: the sharded `StatsService` against
//! the pre-sharding global-lock baseline, 1→8 threads × 8 targets.
//!
//! The paper's Table 2 claim is per-command nanoseconds with *one* VM; a
//! production host runs many. This bench measures aggregate events/second
//! as concurrent VMs are added: the global lock serializes every thread,
//! so its per-event cost grows with thread count, while shard-per-target
//! ingestion should scale until the memory system saturates. The same
//! workload also runs through `handle_batch` (the same hooks, fed from a
//! slice).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use vscsi_stats::StatsService;
use vscsistats_bench::contention::{make_workload, run_threads};
use vscsistats_bench::legacy::GlobalLockService;

const TARGETS: u32 = 8;
const COMMANDS_PER_TARGET: u64 = 2_000;

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_contention");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    for threads in [1usize, 2, 4, 8] {
        let workload = make_workload(threads, TARGETS, COMMANDS_PER_TARGET, 0xC047);
        let total_events: usize = workload.iter().map(Vec::len).sum();
        group.throughput(Throughput::Elements(total_events as u64));

        group.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &workload,
            |b, workload| {
                b.iter_custom(|iters| {
                    let mut elapsed = Duration::ZERO;
                    for _ in 0..iters {
                        let service = StatsService::default();
                        service.enable_all();
                        elapsed += run_threads(&service, workload, 1);
                    }
                    elapsed
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("sharded_batch64", threads),
            &workload,
            |b, workload| {
                b.iter_custom(|iters| {
                    let mut elapsed = Duration::ZERO;
                    for _ in 0..iters {
                        let service = StatsService::default();
                        service.enable_all();
                        elapsed += run_threads(&service, workload, 64);
                    }
                    elapsed
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("global_lock", threads),
            &workload,
            |b, workload| {
                b.iter_custom(|iters| {
                    let mut elapsed = Duration::ZERO;
                    for _ in 0..iters {
                        let service = GlobalLockService::default();
                        service.enable_all();
                        elapsed += run_threads(&service, workload, 1);
                    }
                    elapsed
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
