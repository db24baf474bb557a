//! End-to-end simulation throughput: sieved vs unsieved policies over the
//! same synthetic trace.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sievestore::PolicySpec;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{simulate, simulate_sharded, SimConfig};
use sievestore_trace::{EnsembleConfig, SyntheticTrace};
use sievestore_types::Day;

fn trace_blocks(trace: &SyntheticTrace) -> u64 {
    (0..trace.days())
        .map(|d| {
            trace
                .day_requests(Day::new(d))
                .iter()
                .map(|r| r.len_blocks as u64)
                .sum::<u64>()
        })
        .sum()
}

fn policy_simulation(c: &mut Criterion) {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(9)).expect("valid config");
    let blocks_per_run = trace_blocks(&trace);
    let cfg =
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(16_384);

    let mut group = c.benchmark_group("end_to_end_simulation");
    group.sample_size(10);
    group.throughput(Throughput::Elements(blocks_per_run));
    let policies: Vec<(&str, PolicySpec)> = vec![
        ("aod", PolicySpec::Aod),
        ("wmna", PolicySpec::Wmna),
        (
            "sievestore_c",
            PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 16)),
        ),
        ("sievestore_d", PolicySpec::SieveStoreD { threshold: 10 }),
    ];
    for (name, spec) in policies {
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| black_box(simulate(&trace, spec.clone(), &cfg).expect("valid policy")))
        });
    }
    group.finish();
}

/// The same SieveStore-D simulation at 1, 2 and 4 replay workers (every
/// worker count produces identical metrics; this measures the speedup).
fn replay_modes(c: &mut Criterion) {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(9)).expect("valid config");
    let blocks_per_run = trace_blocks(&trace);
    let cfg =
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(16_384);
    let spec = PolicySpec::SieveStoreD { threshold: 10 };

    let mut group = c.benchmark_group("replay_modes");
    group.sample_size(10);
    group.throughput(Throughput::Elements(blocks_per_run));
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    black_box(
                        simulate_sharded(&trace, spec.clone(), &cfg, shards).expect("valid policy"),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, policy_simulation, replay_modes);
criterion_main!(benches);
