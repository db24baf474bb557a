//! Microbenchmarks for the sieving data structures: the two-tier
//! IMCT/MCT pipeline under cold and hot miss streams, and the discrete
//! access counter.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore_extsort::CountingConfig;
use sievestore_sieve::{DiscreteSieve, TwoTierConfig, TwoTierSieve};
use sievestore_types::Micros;

fn two_tier_miss_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_tier_on_miss");
    // Cold: unique keys, the common case — misses die at the IMCT.
    {
        let mut sieve =
            TwoTierSieve::new(TwoTierConfig::paper_default().with_imct_entries(1 << 20))
                .expect("valid config");
        let mut next = 0u64;
        group.throughput(Throughput::Elements(1));
        group.bench_function("cold_unique_keys", |b| {
            b.iter(|| {
                next += 1;
                black_box(sieve.on_miss(black_box(next), Micros::from_hours(1)))
            })
        });
    }
    // Hot: a small key set that repeatedly graduates to the MCT.
    {
        let mut sieve =
            TwoTierSieve::new(TwoTierConfig::paper_default().with_imct_entries(1 << 20))
                .expect("valid config");
        let mut rng = SmallRng::seed_from_u64(2);
        group.bench_function("hot_small_set", |b| {
            b.iter(|| {
                let k = rng.random_range(0..512u64);
                black_box(sieve.on_miss(black_box(k), Micros::from_hours(1)))
            })
        });
    }
    group.finish();
}

fn paper_sieve() -> DiscreteSieve {
    DiscreteSieve::new(&CountingConfig::InMemory, DiscreteSieve::PAPER_THRESHOLD).expect("valid")
}

fn discrete_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("discrete_sieve");
    group.throughput(Throughput::Elements(1));
    let mut sieve = paper_sieve();
    let mut rng = SmallRng::seed_from_u64(3);
    group.bench_function("record_access", |b| {
        b.iter(|| {
            let k = rng.random_range(0..1_000_000u64);
            sieve.record_access(black_box(k));
        })
    });
    for &keys in &[10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("end_epoch", keys), &keys, |b, &keys| {
            b.iter_with_setup(
                || {
                    let mut s = paper_sieve();
                    let mut rng = SmallRng::seed_from_u64(4);
                    for _ in 0..keys * 3 {
                        s.record_access(rng.random_range(0..keys));
                    }
                    s
                },
                |mut s| black_box(s.end_epoch().expect("in-memory")),
            )
        });
    }
    group.finish();
}

criterion_group!(benches, two_tier_miss_stream, discrete_record);
criterion_main!(benches);
