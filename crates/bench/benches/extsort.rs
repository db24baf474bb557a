//! The offline access-counting substrate: external hash-partitioned log
//! vs the in-memory epoch counter.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore_extsort::{AccessLog, CountingConfig};

const STREAM: usize = 100_000;
const KEYS: u64 = 10_000;

fn key_stream(seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..STREAM).map(|_| rng.random_range(0..KEYS)).collect()
}

fn in_memory(c: &mut Criterion) {
    let keys = key_stream(1);
    let mut group = c.benchmark_group("access_counting");
    group.sample_size(20);
    group.throughput(Throughput::Elements(STREAM as u64));
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            let mut counter = CountingConfig::InMemory.counter().expect("in-memory");
            for &k in &keys {
                counter.record(k);
            }
            black_box(counter.finish_selection(1).expect("in-memory"))
        })
    });
    group.finish();
}

fn external_log(c: &mut Criterion) {
    let keys = key_stream(2);
    let mut group = c.benchmark_group("access_counting_external");
    group.sample_size(10);
    group.throughput(Throughput::Elements(STREAM as u64));
    for &partitions in &[1usize, 8, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, &partitions| {
                let dir = std::env::temp_dir().join(format!(
                    "sievestore-bench-extsort-{}-{partitions}",
                    std::process::id()
                ));
                b.iter(|| {
                    let mut log = AccessLog::create(&dir, partitions).expect("temp dir");
                    for &k in &keys {
                        log.record(k);
                    }
                    black_box(log.finish().expect("temp dir io"))
                });
                std::fs::remove_dir_all(&dir).ok();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, in_memory, external_log);
criterion_main!(benches);
