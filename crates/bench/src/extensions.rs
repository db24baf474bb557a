//! Extension experiments beyond the paper's figures: the §3.1 Belady
//! demonstration as executable output and the simulated (non-oracle)
//! per-server deployment.

use sievestore::PolicySpec;
use sievestore_analysis::{pct, thousands, TextTable};
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{
    belady_counterexample, belady_min, belady_selective, simulate_per_server, SimConfig,
};
use sievestore_types::{Day, SieveError};

use crate::{imct_entries_for_scale, Harness};

/// §3.1 as a runnable demonstration: MIN vs selective-MIN vs a pinned set
/// on the paper's counterexample stream, plus MIN-with-AOD on one real
/// trace day.
///
/// # Errors
///
/// Never fails; the `Result` matches the experiment interface.
pub fn belady(h: &Harness) -> Result<String, SieveError> {
    let mut table = TextTable::new(vec![
        "configuration".into(),
        "hit ratio".into(),
        "allocation-writes".into(),
        "alloc fraction".into(),
    ]);
    let (selective, pinned) = belady_counterexample(10_000);
    table.push_row(vec![
        "counterexample: selective Belady (1-entry)".into(),
        pct(selective.hit_ratio()),
        thousands(selective.allocation_writes),
        pct(selective.allocation_fraction()),
    ]);
    table.push_row(vec![
        "counterexample: pinned {a} (1-entry)".into(),
        pct(pinned.hit_ratio()),
        thousands(pinned.allocation_writes),
        pct(pinned.allocation_fraction()),
    ]);

    // One real (synthetic-ensemble) day under clairvoyant replacement:
    // even MIN cannot avoid compulsory allocation-writes under AOD.
    let day = Day::new(2);
    let accesses: Vec<u64> = h
        .trace()
        .day_requests(day)
        .iter()
        .flat_map(|r| r.blocks().map(|b| b.raw()))
        .collect();
    let capacity = SimConfig::paper_16gb(h.scale()).capacity_blocks;
    let min = belady_min(&accesses, capacity);
    let sel = belady_selective(&accesses, capacity);
    table.push_row(vec![
        format!("day {} trace: Belady MIN + AOD", day.index()),
        pct(min.hit_ratio()),
        thousands(min.allocation_writes),
        pct(min.allocation_fraction()),
    ]);
    table.push_row(vec![
        format!("day {} trace: selective Belady", day.index()),
        pct(sel.hit_ratio()),
        thousands(sel.allocation_writes),
        pct(sel.allocation_fraction()),
    ]);
    Ok(format!(
        "Section 3.1: oracle replacement cannot fix allocation-writes \
         (paper: selective allocation that maximizes hits still allocates \
         ~50% of accesses on the counterexample; a fixed set allocates once)\n{}",
        table.render()
    ))
}

/// Simulated per-server deployment (quadrants III/IV): SieveStore-C and
/// AOD with the 16 GB budget split evenly across the 13 servers, versus
/// the shared ensemble cache, with the harness's eviction policy and
/// spill mode. The ensemble rows replay on the harness's workers.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn per_server_sim(h: &mut Harness) -> Result<String, SieveError> {
    let scale = h.scale();
    // The per-server replays are small, and a sharded one needs its
    // worker count to divide the IMCT, which `imct / 13` rarely allows:
    // one worker keeps the table, and these rows, the same at any
    // `--threads`.
    let cfg = h.sim_config(SimConfig::paper_16gb(scale)).with_workers(1);
    let per_server_imct = (imct_entries_for_scale(scale) / 13).max(1 << 10);

    let c_split = simulate_per_server(
        h.trace(),
        |_| {
            PolicySpec::SieveStoreC(
                TwoTierConfig::paper_default().with_imct_entries(per_server_imct),
            )
        },
        cfg.capacity_blocks,
        &cfg,
    )?;
    let aod_split = simulate_per_server(h.trace(), |_| PolicySpec::Aod, cfg.capacity_blocks, &cfg)?;

    let runs = h.policy_runs()?;
    let mut table = TextTable::new(vec![
        "configuration".into(),
        "mean capture".into(),
        "allocation-writes".into(),
    ]);
    for (label, result) in [
        (
            "ensemble SieveStore-C (shared 16GB)",
            runs.by_name("SieveStore-C"),
        ),
        ("per-server SieveStore-C (16GB split 13 ways)", &c_split),
        ("ensemble AOD (shared 16GB)", runs.by_name("AOD-16GB")),
        ("per-server AOD (16GB split 13 ways)", &aod_split),
    ] {
        table.push_row(vec![
            label.to_string(),
            pct(result.mean_captured_fraction(&[])),
            thousands(result.total().total_allocation_writes()),
        ]);
    }
    Ok(format!(
        "Per-server deployment, simulated (quadrants III/IV of Figure 1; \
         the paper argues ensemble-level sharing wins)\n{}",
        table.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        crate::test_harness("ext")
    }

    #[test]
    fn belady_experiment_reports_counterexample() {
        let h = harness();
        let out = belady(&h).unwrap();
        assert!(out.contains("selective Belady"));
        assert!(out.contains("pinned"));
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn per_server_simulation_runs() {
        let mut h = harness();
        let out = per_server_sim(&mut h).unwrap();
        assert!(out.contains("per-server SieveStore-C"));
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn per_server_rows_are_the_same_at_any_worker_count() {
        // 2^14 / 13 IMCT slots per server is not a multiple of 8.
        let per_server_rows = |h: &mut Harness| {
            let out = per_server_sim(h).unwrap();
            std::fs::remove_dir_all(h.results_dir()).ok();
            out.lines()
                .filter(|l| l.starts_with("per-server"))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let one = per_server_rows(&mut harness());
        assert_eq!(one.len(), 2);
        assert_eq!(per_server_rows(&mut harness().with_threads(8)), one);
    }
}
