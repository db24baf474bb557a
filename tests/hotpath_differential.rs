//! Differential guard for the allocation-free hot-path refactor.
//!
//! The `U64Map`-backed `LruCache`, the `U64Map`-backed `Mct`, the `U64Set`
//! `BatchCache` and the in-memory epoch `AccessCounter` must be *semantically
//! invisible*: every policy's per-day metrics over a seeded trace have to
//! match, bit for bit, the metrics the pre-refactor `std::collections`
//! structures produced. The digests below were captured from the
//! HashMap/HashSet implementations before the swap and are pinned here;
//! any behavioural drift in the replacement structures changes a digest
//! and fails the run.

use sievestore::PolicySpec;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{simulate, simulate_sharded, EvictionPolicy, SimConfig, SimResult};
use sievestore_trace::{EnsembleConfig, SyntheticTrace};

const SEED: u64 = 0xD1FF_5EED;
const CAPACITY: usize = 16_384;

fn trace() -> SyntheticTrace {
    SyntheticTrace::new(EnsembleConfig::tiny(SEED)).expect("tiny trace builds")
}

fn cfg(trace: &SyntheticTrace) -> SimConfig {
    SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(CAPACITY)
}

/// FNV-1a over every day's raw counters, in day order — a change in any
/// single metric of any day changes the digest.
fn digest(result: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for d in &result.days {
        fold(d.read_hits);
        fold(d.write_hits);
        fold(d.read_misses);
        fold(d.write_misses);
        fold(d.allocation_writes);
        fold(d.batch_allocations);
    }
    h
}

/// `(policy, golden digest)` pairs captured from the pre-refactor
/// structures (std HashMap-based LRU index, HashMap-of-counters MCT,
/// HashSet BatchCache, HashMap-backed epoch counter) on this exact trace.
fn golden_cases() -> Vec<(PolicySpec, &'static str, u64)> {
    vec![
        (PolicySpec::Aod, "AOD", GOLDEN_AOD),
        (PolicySpec::Wmna, "WMNA", GOLDEN_WMNA),
        (
            PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 14)),
            "SieveStore-C",
            GOLDEN_SIEVESTORE_C,
        ),
        (
            PolicySpec::SieveStoreD { threshold: 10 },
            "SieveStore-D",
            GOLDEN_SIEVESTORE_D,
        ),
    ]
}

const GOLDEN_AOD: u64 = 0x292f_354c_3493_b23f;
const GOLDEN_WMNA: u64 = 0xa69c_8c6c_8e39_07bd;
const GOLDEN_SIEVESTORE_C: u64 = 0xf5f1_1ea1_0c21_c434;
const GOLDEN_SIEVESTORE_D: u64 = 0x934c_f200_27c3_78e3;

/// Digests of the same trace with the continuous caches replacing via
/// SIEVE instead of LRU, captured when the policy landed. They pin two
/// things at once: SIEVE's replacement behaviour (visited-bit sparing,
/// hand order) against accidental drift, and — because they differ from
/// the LRU goldens above — that the `eviction` knob actually reaches the
/// appliance.
const GOLDEN_AOD_SIEVE: u64 = 0x7148_30a9_aa5a_5061;
const GOLDEN_WMNA_SIEVE: u64 = 0x60f8_770e_c435_daf3;

#[test]
fn refactored_structures_reproduce_prerefactor_metrics() {
    let t = trace();
    let c = cfg(&t);
    for (spec, name, golden) in golden_cases() {
        let result = simulate(&t, spec, &c).expect("simulation runs");
        let got = digest(&result);
        assert_eq!(
            got, golden,
            "{name}: day-metrics digest {got:#018x} diverged from the \
             pre-refactor golden {golden:#018x}"
        );
    }
}

#[test]
fn sieve_eviction_reproduces_its_own_goldens_and_differs_from_lru() {
    // LRU-vs-SIEVE golden runs: each eviction policy lands on its own
    // pinned digest. The 16K-block cache is under real pressure on this
    // trace, so if the SIEVE path silently fell back to LRU (or vice
    // versa) the digests would collide with the wrong column.
    let t = trace();
    let c = cfg(&t).with_eviction(EvictionPolicy::Sieve);
    for (spec, name, golden, lru_golden) in [
        (PolicySpec::Aod, "AOD", GOLDEN_AOD_SIEVE, GOLDEN_AOD),
        (PolicySpec::Wmna, "WMNA", GOLDEN_WMNA_SIEVE, GOLDEN_WMNA),
    ] {
        let result = simulate(&t, spec, &c).expect("simulation runs");
        let got = digest(&result);
        assert_eq!(
            got, golden,
            "{name} under SIEVE: digest {got:#018x} diverged from the \
             pinned golden {golden:#018x}"
        );
        assert_ne!(
            got, lru_golden,
            "{name}: SIEVE digest collided with the LRU golden — the \
             eviction knob is not reaching the appliance"
        );
    }
}

#[test]
fn sharded_replay_matches_goldens_for_discrete_policies() {
    // The sharded engine shares the refactored structures; discrete
    // policies are bit-identical at any shard count, so they must land on
    // the same pre-refactor digests too.
    let t = trace();
    let c = cfg(&t);
    for shards in [1usize, 4] {
        let (result, _) =
            simulate_sharded(&t, PolicySpec::SieveStoreD { threshold: 10 }, &c, shards)
                .expect("sharded simulation runs");
        assert_eq!(
            digest(&result),
            GOLDEN_SIEVESTORE_D,
            "sharded({shards}) SieveStore-D diverged from the golden digest"
        );
    }
}
