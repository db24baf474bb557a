//! The §5.1 sensitivity study: SieveStore-D thresholds and SieveStore-C
//! window lengths.

use sievestore_analysis::{pct, thousands, TextTable};
use sievestore_sim::{threshold_sweep, window_sweep, SimConfig, SweepPoint};
use sievestore_types::SieveError;

use crate::{imct_entries_for_scale, Harness};

/// Threshold values swept for SieveStore-D (paper: degrades below ~8,
/// flat within 8–20).
pub const THRESHOLDS: [u64; 6] = [4, 6, 8, 10, 14, 20];

/// Window lengths (hours) swept for SieveStore-C (paper: degrades below
/// ~8 hours).
pub const WINDOW_HOURS: [u64; 5] = [2, 4, 8, 16, 24];

/// One sensitivity-sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The point's label ("t=10", "W=8h").
    pub label: String,
    /// The swept value: a SieveStore-D threshold, or a SieveStore-C
    /// window length in hours.
    pub value: u64,
    /// Mean daily captured fraction (SieveStore-D excludes the
    /// bootstrap day 0).
    pub capture: f64,
    /// Allocation-writes over the whole trace.
    pub allocation_writes: u64,
}

/// Both §5.1 sweeps, one [`Point`] per [`THRESHOLDS`] and
/// [`WINDOW_HOURS`] entry, in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweeps {
    /// SieveStore-D at each threshold.
    pub thresholds: Vec<Point>,
    /// SieveStore-C at each window length.
    pub windows: Vec<Point>,
}

impl Sweeps {
    /// Runs both sweeps with the harness's replay workers, eviction
    /// policy and spill mode.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub(crate) fn measure(h: &Harness) -> Result<Self, SieveError> {
        let scale = h.scale();
        let cfg = h.sim_config(SimConfig::paper_16gb(scale));
        // Sweep points side by side on the cores their workers leave free,
        // the rule `simulate_many` uses.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (cores / cfg.workers.max(1)).max(1);
        let points = |values: &[u64], sweep: Vec<SweepPoint>, skip: &[usize]| {
            values
                .iter()
                .zip(sweep)
                .map(|(&value, p)| Point {
                    label: p.label,
                    value,
                    capture: p.result.mean_captured_fraction(skip),
                    allocation_writes: p.result.total().total_allocation_writes(),
                })
                .collect()
        };
        let thresholds = threshold_sweep(h.trace(), &THRESHOLDS, &cfg, threads)?;
        let windows = window_sweep(
            h.trace(),
            &WINDOW_HOURS,
            imct_entries_for_scale(scale),
            &cfg,
            threads,
        )?;
        Ok(Sweeps {
            thresholds: points(&THRESHOLDS, thresholds, &[0]),
            windows: points(&WINDOW_HOURS, windows, &[]),
        })
    }
}

/// Runs both sweeps (or reuses the harness's) and renders the
/// sensitivity tables.
///
/// # Errors
///
/// Propagates simulation or CSV-writing failures.
pub fn sensitivity(h: &mut Harness) -> Result<String, SieveError> {
    let csv_path = h.out_path("sensitivity.csv");
    let sweeps = h.sens_sweeps()?;
    let mut out = String::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    let mut table = TextTable::new(vec![
        "SieveStore-D threshold".into(),
        "mean capture (ex. day 0)".into(),
        "allocation-writes".into(),
    ]);
    for p in &sweeps.thresholds {
        table.push_row(vec![
            p.label.clone(),
            pct(p.capture),
            thousands(p.allocation_writes),
        ]);
        csv_rows.push(vec![
            "threshold".into(),
            p.label.clone(),
            p.capture.to_string(),
            p.allocation_writes.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Sensitivity: SieveStore-D allocation threshold \
         (paper: flat in 8-20, degrades when too low)\n{}\n",
        table.render()
    ));

    let mut table = TextTable::new(vec![
        "SieveStore-C window".into(),
        "mean capture".into(),
        "allocation-writes".into(),
    ]);
    for p in &sweeps.windows {
        table.push_row(vec![
            p.label.clone(),
            pct(p.capture),
            thousands(p.allocation_writes),
        ]);
        csv_rows.push(vec![
            "window".into(),
            p.label.clone(),
            p.capture.to_string(),
            p.allocation_writes.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Sensitivity: SieveStore-C window length \
         (paper: shorter than 8h degrades)\n{}\n",
        table.render()
    ));

    sievestore_analysis::write_csv(
        csv_path,
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
        // Each trace stream spilled under its own subdirectory of
        // `trace/` and removed it when done; the root stays behind.
        let trace_root = spill.join("trace");
        assert!(
            trace_root.is_dir(),
            "trace generation ignored the spill dir"
        );
        assert_eq!(std::fs::read_dir(&trace_root).unwrap().count(), 0);
        std::fs::remove_dir_all(&spill).ok();
        std::fs::remove_dir_all(h.results_dir()).ok();
    }
}
