//! Differential tests: the replay engine must report what the appliance
//! reports when driven straight over the trace stream.
//!
//! The reference is `appliance`: a `SieveStore` fed every block access in
//! stream order, with per-day counters taken as differences of its running
//! totals at each day marker — no routing, batching, workers, merge or
//! engine accounting. At one worker the engine must match it for every
//! policy, per-minute device load included. Discrete policies (SieveStore-D,
//! RandSieve-BlkD, IdealTop1) match at *any* worker count because all
//! allocation happens in globally ordered epoch batches. Continuous
//! policies split cache capacity and sieve slots per shard, so at more than
//! one worker equality holds in the ample-capacity (no-eviction) regime —
//! which is what these tests pin — and RandSieve-C, which reseeds per shard,
//! only at one.

use proptest::prelude::*;
use sievestore::{ApplianceStats, PolicySpec, SieveStoreBuilder};
use sievestore_extsort::CountingConfig;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{
    ideal_top_selections, simulate, simulate_sharded, simulate_with_snapshots, DayMetrics,
    EvictionPolicy, SimConfig, SnapshotLog,
};
use sievestore_ssd::OccupancyTracker;
use sievestore_trace::{EnsembleConfig, StreamMsg, SyntheticTrace};
use sievestore_types::BLOCKS_PER_PAGE;

/// Large enough that no policy under the tiny traces ever evicts.
const AMPLE_CAPACITY: usize = 1 << 20;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(trace: &SyntheticTrace, capacity: usize) -> SimConfig {
    SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(capacity)
}

/// What the appliance reports over the whole trace.
struct Reference {
    days: Vec<DayMetrics>,
    /// Device load of its hits (at the issue minute) and fills (at the
    /// completion minute), whole 4 KiB pages per request.
    occupancy: OccupancyTracker,
}

fn day_delta(before: &ApplianceStats, after: &ApplianceStats) -> DayMetrics {
    let batch = after.batch_allocations - before.batch_allocations;
    DayMetrics {
        read_hits: after.read_hits - before.read_hits,
        write_hits: after.write_hits - before.write_hits,
        read_misses: after.read_misses - before.read_misses,
        write_misses: after.write_misses - before.write_misses,
        // The appliance counts batch installs as allocation-writes too.
        allocation_writes: after.allocation_writes - before.allocation_writes - batch,
        batch_allocations: batch,
    }
}

/// Drives the appliance straight over `trace.stream(..)`.
fn appliance(trace: &SyntheticTrace, spec: &PolicySpec, cfg: &SimConfig) -> Reference {
    let mut store = SieveStoreBuilder::new()
        .capacity_blocks(cfg.capacity_blocks)
        .policy(spec.clone())
        .eviction(cfg.eviction)
        .counting(cfg.counting.clone())
        .build()
        .expect("valid policy");
    let mut occupancy = OccupancyTracker::new(cfg.ssd.clone(), trace.days() as usize * 24 * 60)
        .with_load_multiplier(cfg.load_multiplier);
    let pages = |blocks: u64| blocks.div_ceil(BLOCKS_PER_PAGE as u64);
    let mut days = Vec::new();
    let mut before: Option<ApplianceStats> = None;
    let mut stream = trace.stream(cfg.trace_stream.clone());
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(day) => {
                if let Some(before) = &before {
                    days.push(day_delta(before, store.stats()));
                }
                before = Some(*store.stats());
                store.day_boundary(day);
            }
            StreamMsg::Chunk(chunk) => {
                for req in &chunk {
                    let (mut hits, mut fills) = (0, 0);
                    for (i, key) in req.blocks().enumerate() {
                        let t = req.block_completion_time(i as u32);
                        let outcome = store.access(key.raw(), req.kind, t);
                        hits += u64::from(outcome.is_hit());
                        fills += u64::from(outcome.is_allocation());
                    }
                    let (issued, completed) =
                        (req.timestamp.minute(), req.completion_time().minute());
                    if hits > 0 && req.kind.is_read() {
                        occupancy.record_read_pages(issued, pages(hits));
                    } else if hits > 0 {
                        occupancy.record_write_pages(issued, pages(hits));
                    }
                    if fills > 0 {
                        occupancy.record_write_pages(completed, pages(fills));
                    }
                }
                stream.recycle(chunk);
            }
            StreamMsg::Failed(e) => panic!("stream failed: {e}"),
        }
    }
    if let Some(before) = &before {
        days.push(day_delta(before, store.stats()));
    }
    Reference { days, occupancy }
}

/// The appliance's figures as a day-snapshot log.
fn appliance_log(trace: &SyntheticTrace, spec: &PolicySpec, cfg: &SimConfig) -> SnapshotLog {
    let mut log = SnapshotLog::new(spec.name().into(), cfg.capacity_blocks);
    for day in appliance(trace, spec, cfg).days {
        log.push_day(day);
    }
    log
}

/// Asserts the engine reports the appliance's per-day metrics at every
/// worker count in `workers`, through `simulate_sharded` and, above one
/// worker, `simulate` with `SimConfig::workers` set.
fn assert_matches_appliance(
    trace: &SyntheticTrace,
    spec: &PolicySpec,
    capacity: usize,
    workers: &[usize],
) {
    let base = cfg(trace, capacity);
    let want = appliance(trace, spec, &base).days;
    let accesses: u64 = want.iter().map(DayMetrics::accesses).sum();
    assert!(accesses > 0, "trace must exercise the cache");
    for &shards in workers {
        let (sharded, stats) =
            simulate_sharded(trace, spec.clone(), &base, shards).expect("sharded run");
        assert_eq!(want, sharded.days, "{spec:?} diverged at {shards} shards");
        assert_eq!(
            stats.total_blocks(),
            accesses,
            "{spec:?}: shard routing dropped blocks at {shards} shards"
        );
        if shards > 1 {
            let configured = simulate(trace, spec.clone(), &base.clone().with_workers(shards))
                .expect("configured run");
            assert_eq!(want, configured.days);
        }
    }
}

fn assert_identical(trace: &SyntheticTrace, spec: &PolicySpec, capacity: usize) {
    assert_matches_appliance(trace, spec, capacity, &SHARD_COUNTS);
}

#[test]
fn every_policy_matches_the_appliance() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(97)).unwrap();
    let (selections, _, _) = ideal_top_selections(&trace, 0.01);
    let rand_c = PolicySpec::RandSieveC {
        probability: 0.01,
        seed: 3,
    };
    let ideal = PolicySpec::IdealTop1 { selections };
    // Under eviction pressure every policy matches at one worker.
    for spec in [
        PolicySpec::Aod,
        PolicySpec::Wmna,
        PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 12)),
        rand_c,
        PolicySpec::SieveStoreD { threshold: 5 },
        PolicySpec::RandSieveBlkD {
            fraction: 0.05,
            seed: 0xB10C,
        },
        ideal.clone(),
    ] {
        assert_matches_appliance(&trace, &spec, 2_048, &[1]);
    }
    // The oracle's installs are global like every discrete policy's, so
    // it matches at any worker count too (the others have tests below).
    assert_identical(&trace, &ideal, 2_048);
}

#[test]
fn aod_is_shard_count_invariant() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(101)).unwrap();
    assert_identical(&trace, &PolicySpec::Aod, AMPLE_CAPACITY);
}

#[test]
fn wmna_is_shard_count_invariant() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(103)).unwrap();
    assert_identical(&trace, &PolicySpec::Wmna, AMPLE_CAPACITY);
}

#[test]
fn sievestore_d_is_shard_count_invariant_even_under_eviction() {
    // Discrete batch allocation is coordinated globally, so equality
    // holds even with a small cache that overflows at epoch installs.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(107)).unwrap();
    assert_identical(&trace, &PolicySpec::SieveStoreD { threshold: 5 }, 2_048);
    assert_identical(
        &trace,
        &PolicySpec::SieveStoreD { threshold: 10 },
        AMPLE_CAPACITY,
    );
}

#[test]
fn rand_sieve_blkd_is_shard_count_invariant() {
    // The coordinator owns the epoch counter and the seeded selection, so
    // the random discrete baseline is exactly reproducible too.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(109)).unwrap();
    assert_identical(
        &trace,
        &PolicySpec::RandSieveBlkD {
            fraction: 0.05,
            seed: 0xB10C,
        },
        4_096,
    );
}

#[test]
fn day_snapshot_jsonl_is_byte_identical_across_shard_counts() {
    // The exporter's determinism contract: for a discrete policy the
    // day-boundary snapshot log has the appliance's bytes at any worker
    // count — even under eviction pressure (small capacity forces epoch
    // overflow).
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(127)).unwrap();
    let spec = PolicySpec::SieveStoreD { threshold: 5 };
    let base = cfg(&trace, 2_048);
    let want = appliance_log(&trace, &spec, &base).to_jsonl();
    for shards in SHARD_COUNTS {
        let (result, derived) =
            simulate_with_snapshots(&trace, spec.clone(), &base.clone().with_workers(shards))
                .expect("sharded run");
        assert_eq!(
            want.as_bytes(),
            derived.to_jsonl().as_bytes(),
            "snapshot bytes diverged at {shards} shards"
        );
        assert_eq!(derived, SnapshotLog::from_result(&result));
    }
}

#[test]
fn sievestore_d_one_slot_answer_matches_spill_counting_day_for_day() {
    // Under in-memory counting an access reads hit-or-miss from the
    // epoch counter's resident bit; the spill counter has no such bit,
    // so its runs answer every access from the epoch cache instead —
    // a reference independent of the seeding. Capacity 2 048 truncates
    // installs, so selected-but-dropped keys must read "miss" too.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(151)).unwrap();
    let dir = std::env::temp_dir().join(format!("sievestore-onespill-{}", std::process::id()));
    let spec = PolicySpec::SieveStoreD { threshold: 5 };
    for capacity in [2_048, AMPLE_CAPACITY] {
        let in_memory = cfg(&trace, capacity);
        let spill = in_memory
            .clone()
            .with_counting(CountingConfig::spill(&dir).with_budget(4_096));
        let want = appliance(&trace, &spec, &spill).days;
        assert!(want[1..].iter().any(|day| day.read_hits > 0));
        assert_eq!(appliance(&trace, &spec, &in_memory).days, want);
        for workers in [1, 4] {
            for (counting, c) in [("in-memory", &in_memory), ("spill", &spill)] {
                let got = simulate(&trace, spec.clone(), &c.clone().with_workers(workers))
                    .expect("replay");
                assert_eq!(
                    got.days, want,
                    "{counting} counting at {workers} workers, capacity {capacity}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The shard counts the ISSUE's SIEVE acceptance criteria pin.
const SIEVE_SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn sieve_eviction_is_shard_count_invariant_with_ample_capacity() {
    // Same contract as the LRU-backed continuous policies: with SIEVE as
    // the replacement policy, the no-eviction regime is byte-identical
    // at any shard count, and one shard is identical unconditionally.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(131)).unwrap();
    for spec in [
        PolicySpec::Aod,
        PolicySpec::Wmna,
        PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 12)),
    ] {
        let base = cfg(&trace, AMPLE_CAPACITY).with_eviction(EvictionPolicy::Sieve);
        let want = appliance(&trace, &spec, &base).days;
        for shards in SIEVE_SHARD_COUNTS {
            let (sharded, stats) =
                simulate_sharded(&trace, spec.clone(), &base, shards).expect("sharded run");
            assert_eq!(
                want, sharded.days,
                "{spec:?} under SIEVE diverged at {shards} shards"
            );
            assert_eq!(
                stats.total_blocks(),
                want.iter().map(DayMetrics::accesses).sum::<u64>()
            );
        }
    }
}

#[test]
fn sieve_eviction_matches_sequential_at_one_shard_under_pressure() {
    // One worker is the appliance's semantics regardless of eviction
    // pressure: a small cache forces the SIEVE hand to actually evict,
    // and the single-worker run must still match byte-for-byte.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(137)).unwrap();
    let base = cfg(&trace, 2_048).with_eviction(EvictionPolicy::Sieve);
    for spec in [PolicySpec::Aod, PolicySpec::Wmna] {
        let want = appliance(&trace, &spec, &base).days;
        let (sharded, _) = simulate_sharded(&trace, spec.clone(), &base, 1).expect("sharded run");
        assert_eq!(
            want, sharded.days,
            "{spec:?} under SIEVE diverged at one shard"
        );
        assert!(
            sharded.total().accesses() > 0,
            "trace must exercise the cache"
        );
    }
}

#[test]
fn day_snapshot_jsonl_is_byte_identical_under_sieve_eviction() {
    // Snapshot byte-equality, SIEVE edition: the exported day-boundary
    // JSONL must not depend on the shard count when the continuous cache
    // replaces with SIEVE (ample capacity — the continuous equality
    // regime; see module docs).
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(139)).unwrap();
    let base = cfg(&trace, AMPLE_CAPACITY).with_eviction(EvictionPolicy::Sieve);
    let spec = PolicySpec::Aod;
    let want = appliance_log(&trace, &spec, &base).to_jsonl();
    for shards in SIEVE_SHARD_COUNTS {
        let (_, derived) =
            simulate_with_snapshots(&trace, spec.clone(), &base.clone().with_workers(shards))
                .expect("sharded run");
        assert_eq!(
            want.as_bytes(),
            derived.to_jsonl().as_bytes(),
            "snapshot bytes under SIEVE diverged at {shards} shards"
        );
    }
}

#[test]
fn lru_and_sieve_eviction_agree_without_pressure_and_diverge_under_it() {
    // With no evictions the replacement policy is unobservable, so the
    // two eviction policies must report identical figures; under
    // pressure they are genuinely different policies and the appliance
    // must actually be dispatching on the configured one.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(149)).unwrap();
    let ample_lru = cfg(&trace, AMPLE_CAPACITY);
    let ample_sieve = ample_lru.clone().with_eviction(EvictionPolicy::Sieve);
    let lru = simulate(&trace, PolicySpec::Aod, &ample_lru).expect("lru run");
    let sieve = simulate(&trace, PolicySpec::Aod, &ample_sieve).expect("sieve run");
    assert_eq!(lru.days, sieve.days, "no-eviction runs must agree");

    let tight_lru = cfg(&trace, 256);
    let tight_sieve = tight_lru.clone().with_eviction(EvictionPolicy::Sieve);
    let lru = simulate(&trace, PolicySpec::Aod, &tight_lru).expect("lru run");
    let sieve = simulate(&trace, PolicySpec::Aod, &tight_sieve).expect("sieve run");
    assert_ne!(
        lru.days, sieve.days,
        "a 256-block AOD cache must replace differently under LRU vs SIEVE"
    );
}

#[test]
fn sievestore_c_matches_with_ample_capacity() {
    // IMCT slot-slicing requires shards | imct_entries; 1 << 12 divides
    // by every count in SHARD_COUNTS.
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(113)).unwrap();
    let spec = PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 12));
    assert_identical(&trace, &spec, AMPLE_CAPACITY);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random traces, every policy family, shards 1/2/4/8: per-day
    /// metrics are the appliance's.
    #[test]
    fn random_traces_replay_identically(
        trace_seed in 0u64..1_000_000,
        policy_idx in 0usize..4,
        threshold in 2u64..12,
    ) {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(trace_seed)).unwrap();
        let spec = match policy_idx {
            0 => PolicySpec::Aod,
            1 => PolicySpec::SieveStoreD { threshold },
            2 => PolicySpec::RandSieveBlkD { fraction: 0.02, seed: trace_seed ^ 0xFEED },
            _ => PolicySpec::SieveStoreC(
                TwoTierConfig::paper_default().with_imct_entries(1 << 12),
            ),
        };
        // Discrete policies tolerate eviction pressure; continuous ones
        // need the no-eviction regime for exact equality.
        let capacity = match spec {
            PolicySpec::SieveStoreD { .. } | PolicySpec::RandSieveBlkD { .. } => 4_096,
            _ => AMPLE_CAPACITY,
        };
        let base = cfg(&trace, capacity);
        let want = appliance(&trace, &spec, &base).days;
        for shards in SHARD_COUNTS {
            let (sharded, _) =
                simulate_sharded(&trace, spec.clone(), &base, shards).expect("sharded run");
            prop_assert_eq!(
                &want,
                &sharded.days,
                "{:?} diverged at {} shards on trace seed {}",
                spec,
                shards,
                trace_seed
            );
        }
    }

    /// Occupancy (per-minute device load) also matches the appliance's at
    /// one worker, which sees every request whole.
    #[test]
    fn single_shard_occupancy_matches(trace_seed in 0u64..1_000_000) {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(trace_seed)).unwrap();
        let base = cfg(&trace, 4_096);
        let spec = PolicySpec::SieveStoreD { threshold: 5 };
        let want = appliance(&trace, &spec, &base);
        let (sharded, _) =
            simulate_sharded(&trace, spec, &base, 1).expect("sharded run");
        prop_assert_eq!(want.days, sharded.days);
        prop_assert_eq!(
            want.occupancy.len_minutes(),
            sharded.occupancy.len_minutes()
        );
        for m in 0..want.occupancy.len_minutes() {
            let minute = sievestore_types::Minute::new(m as u32);
            prop_assert_eq!(
                want.occupancy.load(minute),
                sharded.occupancy.load(minute),
                "minute {} diverged",
                m
            );
        }
    }
}
