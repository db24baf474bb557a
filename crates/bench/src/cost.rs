//! Cost experiments: drive-IOPS occupancy (Figure 8), drives needed vs
//! coverage (Figure 9), and the ensemble-vs-per-server comparison (§5.3).

use sievestore_analysis::{pct, TextTable};
use sievestore_sim::{drive_cost_comparison, ensemble_ideal_capture, per_server_ideal_capture};
use sievestore_ssd::endurance_years;
use sievestore_types::SieveError;

use crate::Harness;

/// The policies whose device load Figures 8 and 9 examine.
const COST_POLICIES: [&str; 3] = ["WMNA-32GB", "SieveStore-D", "SieveStore-C"];

/// Figure 8: per-minute drive-IOPS occupancy, WMNA vs the SieveStore
/// variants.
///
/// # Errors
///
/// Propagates simulation or CSV-writing failures.
pub fn fig8(h: &mut Harness) -> Result<String, SieveError> {
    let out_path = h.out_path("fig8.csv");
    let runs = h.policy_runs()?;
    let mut table = TextTable::new(vec![
        "policy".into(),
        "max occupancy".into(),
        "mean occupancy".into(),
        "minutes > 1 drive".into(),
        "single-drive coverage".into(),
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for name in COST_POLICIES {
        let r = runs.by_name(name);
        let series = r.occupancy.occupancy_series();
        for (minute, occ) in series.iter().enumerate() {
            // Keep the CSV readable: only record minutes with load.
            if *occ > 0.0 {
                csv_rows.push(vec![
                    name.to_string(),
                    minute.to_string(),
                    format!("{occ:.5}"),
                ]);
            }
        }
        let max = series.iter().cloned().fold(0.0, f64::max);
        let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
        let over = series.iter().filter(|&&o| o > 1.0).count();
        table.push_row(vec![
            name.to_string(),
            format!("{max:.3}"),
            format!("{mean:.4}"),
            over.to_string(),
            pct(r.occupancy.single_drive_coverage()),
        ]);
    }
    sievestore_analysis::write_csv(
        &out_path,
        &["policy".into(), "minute".into(), "occupancy".into()],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 8: drive-IOPS occupancy per trace minute \
         (paper: SieveStore mostly <1; WMNA peaks high on allocation-writes)\n{}",
        table.render()
    ))
}

/// Figure 9: drives needed per minute (sorted) and the coverage table.
///
/// # Errors
///
/// Propagates simulation or CSV-writing failures.
pub fn fig9(h: &mut Harness) -> Result<String, SieveError> {
    let out_path = h.out_path("fig9.csv");
    let runs = h.policy_runs()?;
    let coverages = [0.90, 0.99, 0.999, 1.0];
    let mut headers = vec!["policy".into()];
    headers.extend(coverages.iter().map(|c| format!("{:.1}%", c * 100.0)));
    let mut table = TextTable::new(headers);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for name in COST_POLICIES {
        let r = runs.by_name(name);
        let sorted = r.occupancy.drives_needed_sorted();
        for (rank, drives) in sorted.iter().enumerate() {
            csv_rows.push(vec![name.to_string(), rank.to_string(), drives.to_string()]);
        }
        let mut row = vec![name.to_string()];
        for &c in &coverages {
            row.push(r.occupancy.drives_for_coverage(c).to_string());
        }
        table.push_row(row);
    }
    sievestore_analysis::write_csv(
        &out_path,
        &[
            "policy".into(),
            "minute_rank".into(),
            "drives_needed".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 9: SSD drives needed at a given time-coverage \
         (paper: SieveStore 1 drive at >=99.9%; WMNA 7 drives at 99.9%)\n{}",
        table.render()
    ))
}

/// §5.3: ensemble-level vs ideal per-server caching, plus the
/// minimum-drive-size cost comparison and the endurance check.
///
/// # Errors
///
/// Propagates simulation or CSV-writing failures.
pub fn sec5_3(h: &mut Harness) -> Result<String, SieveError> {
    let ensemble = ensemble_ideal_capture(h.trace(), 0.01);
    let per_server = per_server_ideal_capture(h.trace(), 0.01);
    let mut table = TextTable::new(vec![
        "day".into(),
        "ensemble top-1% capture".into(),
        "per-server top-1% capture".into(),
        "advantage".into(),
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for d in 0..ensemble.total.len() {
        let e = ensemble.fraction(d);
        let p = per_server.fraction(d);
        table.push_row(vec![
            d.to_string(),
            pct(e),
            pct(p),
            format!("{:+.1}pp", (e - p) * 100.0),
        ]);
        csv_rows.push(vec![d.to_string(), e.to_string(), p.to_string()]);
    }
    sievestore_analysis::write_csv(
        h.out_path("sec5_3.csv"),
        &[
            "day".into(),
            "ensemble_capture".into(),
            "per_server_capture".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;

    // Cost side: minimum drive sizes mean one drive per server.
    let servers = h.trace().config().servers.len();
    let days = h.trace().days();
    let runs = h.policy_runs()?;
    let ensemble_drives = runs
        .by_name("SieveStore-C")
        .occupancy
        .drives_for_coverage(0.999)
        .max(1);
    let (per_server_drives, ensemble_needed) = drive_cost_comparison(servers, ensemble_drives);

    // Endurance check (paper: >10 years under SieveStore's write load).
    let write_bytes_day =
        runs.by_name("SieveStore-C").occupancy.total_write_bytes() / days.max(1) as f64;
    let years = endurance_years(
        runs.by_name("SieveStore-C").occupancy.spec(),
        write_bytes_day,
    );

    Ok(format!(
        "Section 5.3: ensemble vs ideal per-server caching (iso-capacity)\n{}\n\
         drive cost: per-server needs >= {per_server_drives} minimum-size drives; \
         the ensemble cache needs {ensemble_needed} (paper: 1-2 vs 13)\n\
         endurance: SieveStore-C writes imply a {years:.0}-year X25-E lifetime \
         (paper: >10 years)\n\
         mean capture: ensemble {} vs per-server {}\n",
        table.render(),
        pct(ensemble.mean_fraction()),
        pct(per_server.mean_fraction()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        crate::test_harness("cost")
    }

    #[test]
    fn cost_experiments_run_and_write_csv() {
        let mut h = harness();
        let f8 = fig8(&mut h).unwrap();
        let f9 = fig9(&mut h).unwrap();
        let s = sec5_3(&mut h).unwrap();
        assert!(f8.contains("occupancy"));
        assert!(f9.contains("drives"));
        assert!(s.contains("ensemble"));
        for name in ["fig8.csv", "fig9.csv", "sec5_3.csv"] {
            assert!(h.out_path(name).exists(), "{name} missing");
        }
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn sieved_occupancy_below_unsieved() {
        let mut h = harness();
        let runs = h.policy_runs().unwrap();
        let mean = |name: &str| {
            let s = runs.by_name(name).occupancy.occupancy_series();
            s.iter().sum::<f64>() / s.len().max(1) as f64
        };
        assert!(
            mean("SieveStore-C") < mean("WMNA-32GB"),
            "sieved {} vs unsieved {}",
            mean("SieveStore-C"),
            mean("WMNA-32GB")
        );
        std::fs::remove_dir_all(h.results_dir()).ok();
    }
}
