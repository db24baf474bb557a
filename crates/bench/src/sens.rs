//! The §5.1 sensitivity study: SieveStore-D thresholds and SieveStore-C
//! window lengths.

use sievestore_analysis::{pct, thousands, TextTable};
use sievestore_sim::{threshold_sweep, window_sweep, SimConfig};
use sievestore_types::SieveError;

use crate::{imct_entries_for_scale, Harness};

/// Threshold values swept for SieveStore-D (paper: degrades below ~8,
/// flat within 8–20).
pub const THRESHOLDS: [u64; 6] = [4, 6, 8, 10, 14, 20];

/// Window lengths (hours) swept for SieveStore-C (paper: degrades below
/// ~8 hours).
pub const WINDOW_HOURS: [u64; 5] = [2, 4, 8, 16, 24];

/// Runs both sweeps and renders the sensitivity tables, with the
/// harness's replay workers, eviction policy and spill mode.
///
/// # Errors
///
/// Propagates simulation or CSV-writing failures.
pub fn sensitivity(h: &mut Harness) -> Result<String, SieveError> {
    let scale = h.scale();
    let cfg = h.sim_config(SimConfig::paper_16gb(scale));
    // Sweep points side by side on the cores their workers leave free,
    // the rule `simulate_many` uses.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = (cores / cfg.workers.max(1)).max(1);

    let mut out = String::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    let points = threshold_sweep(h.trace(), &THRESHOLDS, &cfg, threads)?;
    let mut table = TextTable::new(vec![
        "SieveStore-D threshold".into(),
        "mean capture (ex. day 0)".into(),
        "allocation-writes".into(),
    ]);
    for p in &points {
        let capture = p.result.mean_captured_fraction(&[0]);
        let writes = p.result.total().total_allocation_writes();
        table.push_row(vec![p.label.clone(), pct(capture), thousands(writes)]);
        csv_rows.push(vec![
            "threshold".into(),
            p.label.clone(),
            capture.to_string(),
            writes.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Sensitivity: SieveStore-D allocation threshold \
         (paper: flat in 8-20, degrades when too low)\n{}\n",
        table.render()
    ));

    let points = window_sweep(
        h.trace(),
        &WINDOW_HOURS,
        imct_entries_for_scale(scale),
        &cfg,
        threads,
    )?;
    let mut table = TextTable::new(vec![
        "SieveStore-C window".into(),
        "mean capture".into(),
        "allocation-writes".into(),
    ]);
    for p in &points {
        let capture = p.result.mean_captured_fraction(&[]);
        let writes = p.result.total().total_allocation_writes();
        table.push_row(vec![p.label.clone(), pct(capture), thousands(writes)]);
        csv_rows.push(vec![
            "window".into(),
            p.label.clone(),
            capture.to_string(),
            writes.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Sensitivity: SieveStore-C window length \
         (paper: shorter than 8h degrades)\n{}\n",
        table.render()
    ));

    sievestore_analysis::write_csv(
        h.out_path("sensitivity.csv"),
        &[
            "sweep".into(),
            "point".into(),
            "mean_capture".into(),
            "allocation_writes".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_runs_on_smoke_harness() {
        let dir = std::env::temp_dir().join(format!("sievestore-sens-{}", std::process::id()));
        let mut h = Harness::smoke(&dir).unwrap();
        let out = sensitivity(&mut h).unwrap();
        assert!(out.contains("threshold"));
        assert!(out.contains("window"));
        assert!(h.out_path("sensitivity.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sensitivity_counts_under_the_harness_spill_dir() {
        let spill =
            std::env::temp_dir().join(format!("sievestore-sens-spill-{}", std::process::id()));
        let mut h = crate::test_harness("sens-spill").with_spill(&spill);
        sensitivity(&mut h).unwrap();
        // The threshold sweep's epoch counters were created under it.
        assert!(spill.join("counts").is_dir(), "spill dir unused");
        std::fs::remove_dir_all(&spill).ok();
        std::fs::remove_dir_all(h.results_dir()).ok();
    }
}
