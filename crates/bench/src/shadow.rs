//! Shadow-mode policy comparison: LRU vs SIEVE eviction, side by side.
//!
//! The continuous policies (AOD, WMNA, RandSieve-C, SieveStore-C) replace
//! frames with the eviction policy the appliance was built with; discrete
//! policies use the epoch-batch cache and are unaffected. This experiment
//! replays the same trace through both eviction policies and prints their
//! whole-trace figures next to each other — the smoke check the CI shadow
//! job uploads, so an eviction-policy change shows its effect on every
//! figure-relevant metric before anything re-baselines.
//!
//! One day-boundary snapshot log (`sievestore-day-snapshot/v1` JSONL) is
//! written per policy *per eviction* under `<results>/shadow/`, giving the
//! artifact reviewer per-day deltas, not just totals.

use std::fmt::Write as _;

use sievestore::PolicySpec;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{simulate_many, EvictionPolicy, SimConfig, SimResult, SnapshotLog};
use sievestore_types::SieveError;

use crate::{imct_entries_for_scale, Harness};

/// The policies whose replacement decisions the eviction policy controls.
const SHADOW_POLICIES: [&str; 4] = ["AOD", "WMNA", "RandSieve-C", "SieveStore-C"];

/// Runs the continuous-policy suite under LRU and SIEVE eviction and
/// tabulates both, writing per-policy day-snapshot JSONL under
/// `<results>/shadow/`.
///
/// # Errors
///
/// Propagates simulation-construction and file-write errors.
pub fn shadow(h: &mut Harness) -> Result<String, SieveError> {
    let scale = h.scale();
    let dir = h.results_dir().join("shadow");
    std::fs::create_dir_all(&dir)?;

    let mut per_eviction: Vec<Vec<SimResult>> = Vec::new();
    for eviction in [EvictionPolicy::Lru, EvictionPolicy::Sieve] {
        let cfg = h
            .sim_config(SimConfig::paper_16gb(scale))
            .with_eviction(eviction);
        let two_tier =
            TwoTierConfig::paper_default().with_imct_entries(imct_entries_for_scale(scale));
        let results = simulate_many(
            h.trace(),
            vec![
                PolicySpec::Aod,
                PolicySpec::Wmna,
                PolicySpec::RandSieveC {
                    probability: 0.01,
                    seed: 0xC0FE,
                },
                PolicySpec::SieveStoreC(two_tier),
            ],
            &cfg,
        )?;
        for (result, name) in results.iter().zip(SHADOW_POLICIES) {
            let slug: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = dir.join(format!("snapshots_{slug}_{eviction}.jsonl"));
            std::fs::write(&path, SnapshotLog::from_result(result).to_jsonl())?;
        }
        per_eviction.push(results);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>8}   {:>12} {:>12}",
        "policy", "lru hits", "sieve hits", "delta", "lru allocs", "sieve allocs"
    );
    for (i, name) in SHADOW_POLICIES.iter().enumerate() {
        let lru = per_eviction[0][i].total();
        let sieve = per_eviction[1][i].total();
        let delta = if lru.hits() == 0 {
            0.0
        } else {
            (sieve.hits() as f64 / lru.hits() as f64 - 1.0) * 100.0
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>+7.2}%   {:>12} {:>12}",
            name,
            lru.hits(),
            sieve.hits(),
            delta,
            lru.allocation_writes,
            sieve.allocation_writes
        );
    }
    let _ = writeln!(out, "day snapshots: {}/snapshots_*.jsonl", dir.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_runs_both_evictions_and_writes_snapshots() {
        let dir = std::env::temp_dir().join(format!("sievestore-shadow-{}", std::process::id()));
        let mut h = Harness::smoke(&dir).unwrap();
        let table = shadow(&mut h).unwrap();
        for name in SHADOW_POLICIES {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        for eviction in ["lru", "sieve"] {
            let path = dir
                .join("shadow")
                .join(format!("snapshots_aod_{eviction}.jsonl"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with("{\"schema\":\"sievestore-day-snapshot/v1\""));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shadow_replays_through_the_spill_dir() {
        let h = crate::test_harness("shadow-spill");
        let spill = h.results_dir().join("spill");
        let mut h = h.with_spill(&spill);
        shadow(&mut h).unwrap();
        // Each stream spills under its own subdirectory of `trace/` and
        // removes it when done; the root stays behind as the evidence.
        let trace_root = spill.join("trace");
        assert!(trace_root.is_dir(), "shadow ignored --spill");
        assert_eq!(std::fs::read_dir(&trace_root).unwrap().count(), 0);
        std::fs::remove_dir_all(h.results_dir()).ok();
    }
}
