//! Workload-characterization experiments: Table 1 and Figures 2(a)–3(d).

use sievestore_analysis::{
    composition_by_server, popularity_cdf, BlockCounts, PopularityBins, TextTable,
};
use sievestore_sim::{day_counts, server_day_counts};
use sievestore_types::{Day, SieveError};

use crate::Harness;

/// Table 1: the ensemble summary (servers, volumes, spindles, sizes).
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn table1(h: &Harness) -> Result<String, SieveError> {
    let cfg = h.trace().config();
    let mut table = TextTable::new(vec![
        "key".into(),
        "name".into(),
        "volumes".into(),
        "spindles".into(),
        "size (GB)".into(),
    ]);
    for s in &cfg.servers {
        table.push_row(vec![
            s.key.clone(),
            s.name.clone(),
            s.volumes.len().to_string(),
            s.spindles.to_string(),
            s.size_gb().to_string(),
        ]);
    }
    table.push_row(vec![
        "Total".into(),
        String::new(),
        cfg.total_volumes().to_string(),
        cfg.total_spindles().to_string(),
        cfg.total_size_gb().to_string(),
    ]);
    table.write_csv(h.out_path("table1.csv"))?;
    Ok(format!(
        "Table 1: trace summary (mirrors the paper's ensemble)\n{}",
        table.render()
    ))
}

/// Figure 2(a): binned block access-count distribution per day.
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig2a(h: &Harness) -> Result<String, SieveError> {
    let days = h.trace().days();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut table = TextTable::new(vec![
        "day".into(),
        "unique blocks".into(),
        "mean@0.01%".into(),
        "mean@1%".into(),
        "mean@3%".into(),
        "max@1%".into(),
        "frac<=10".into(),
        "frac<=4".into(),
        "frac==never-reused".into(),
    ]);
    for d in 0..days {
        let counts = day_counts(h.trace(), Day::new(d));
        let bins = PopularityBins::from_counts(&counts, PopularityBins::PAPER_BINS);
        for b in bins.bins() {
            csv_rows.push(vec![
                d.to_string(),
                format!("{:.4}", b.percentile),
                format!("{:.3}", b.mean_count),
                b.max_count.to_string(),
            ]);
        }
        let at = |p: f64| bins.bin_at_percentile(p);
        table.push_row(vec![
            d.to_string(),
            counts.unique_blocks().to_string(),
            at(0.01).map_or("-".into(), |b| format!("{:.1}", b.mean_count)),
            at(1.0).map_or("-".into(), |b| format!("{:.2}", b.mean_count)),
            at(3.0).map_or("-".into(), |b| format!("{:.2}", b.mean_count)),
            at(1.0).map_or("-".into(), |b| b.max_count.to_string()),
            format!("{:.4}", counts.fraction_with_at_most(10)),
            format!("{:.4}", counts.fraction_with_at_most(4)),
            format!("{:.4}", counts.fraction_with_at_most(1)),
        ]);
    }
    sievestore_analysis::write_csv(
        h.out_path("fig2a.csv"),
        &[
            "day".into(),
            "percentile".into(),
            "mean_count".into(),
            "max_count".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 2(a): per-day access-count distribution \
         (paper: mean >1000 at 0.01%, <10 at 1%, <4 beyond 3%; 99% of blocks <=10)\n{}",
        table.render()
    ))
}

/// Figures 2(b) and 2(c): popularity CDF per day, plus the top-5 % zoom.
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig2bc(h: &Harness) -> Result<String, SieveError> {
    let days = h.trace().days();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut table = TextTable::new(vec![
        "day".into(),
        "top-0.1% share".into(),
        "top-1% share".into(),
        "top-5% share".into(),
        "accessed (GB, full-scale)".into(),
    ]);
    for d in 0..days {
        let counts = day_counts(h.trace(), Day::new(d));
        let cdf = popularity_cdf(&counts, 2000);
        for p in cdf.points() {
            csv_rows.push(vec![
                d.to_string(),
                format!("{:.4}", p.percentile),
                format!("{:.6}", p.cumulative_fraction),
            ]);
        }
        let gb = counts.total_accesses() as f64 * 512.0 / (1u64 << 30) as f64 * h.scale() as f64;
        table.push_row(vec![
            d.to_string(),
            format!("{:.3}", cdf.fraction_at(0.1)),
            format!("{:.3}", cdf.top1_share()),
            format!("{:.3}", cdf.fraction_at(5.0)),
            format!("{gb:.0}"),
        ]);
    }
    sievestore_analysis::write_csv(
        h.out_path("fig2b.csv"),
        &[
            "day".into(),
            "percentile".into(),
            "cumulative_fraction".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    // Figure 2(c) is the same data clipped to the top 5%.
    let zoom: Vec<Vec<String>> = csv_rows
        .iter()
        .filter(|r| r[1].parse::<f64>().unwrap_or(100.0) <= 5.0)
        .cloned()
        .collect();
    sievestore_analysis::write_csv(
        h.out_path("fig2c.csv"),
        &[
            "day".into(),
            "percentile".into(),
            "cumulative_fraction".into(),
        ],
        zoom.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figures 2(b)/2(c): popularity CDFs \
         (paper: knee below the 1st percentile; top-1% share 14-53%)\n{}",
        table.render()
    ))
}

/// CDF top-1 % share for one server on one day.
#[cfg(test)]
fn server_day_top1(h: &Harness, server: usize, day: u16) -> f64 {
    let counts = server_day_counts(h.trace(), server, Day::new(day));
    popularity_cdf(&counts, 500).top1_share()
}

fn server_index(h: &Harness, key: &str) -> usize {
    h.trace()
        .config()
        .servers
        .iter()
        .position(|s| s.key == key)
        .unwrap_or_else(|| panic!("server {key} not in ensemble"))
}

/// Figure 3(a): server-to-server skew variation (Prxy vs Src1).
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig3a(h: &Harness) -> Result<String, SieveError> {
    let prxy = server_index(h, "Prxy");
    let src1 = server_index(h, "Src1");
    let day = 1u16;
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut table = TextTable::new(vec![
        "server".into(),
        "top-1% share".into(),
        "top-10% share".into(),
    ]);
    for (label, idx) in [("Prxy", prxy), ("Src1", src1)] {
        let counts = server_day_counts(h.trace(), idx, Day::new(day));
        let cdf = popularity_cdf(&counts, 500);
        for p in cdf.points() {
            csv_rows.push(vec![
                label.to_string(),
                format!("{:.4}", p.percentile),
                format!("{:.6}", p.cumulative_fraction),
            ]);
        }
        table.push_row(vec![
            label.to_string(),
            format!("{:.3}", cdf.top1_share()),
            format!("{:.3}", cdf.fraction_at(10.0)),
        ]);
    }
    sievestore_analysis::write_csv(
        h.out_path("fig3a.csv"),
        &[
            "server".into(),
            "percentile".into(),
            "cumulative_fraction".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 3(a): server-to-server variation, day {day} \
         (paper: Prxy extremely skewed, Src1 near-linear)\n{}",
        table.render()
    ))
}

/// Figure 3(b): volume-to-volume variation within the Web server.
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig3b(h: &Harness) -> Result<String, SieveError> {
    let web = server_index(h, "Web");
    let day = 1u16;
    let requests = h.trace().server_day(web, Day::new(day));
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut table = TextTable::new(vec!["volume".into(), "top-1% share".into()]);
    for vol in [0u8, 1u8] {
        let counts =
            BlockCounts::from_requests(requests.iter().filter(|r| r.start.volume.index() == vol));
        let cdf = popularity_cdf(&counts, 500);
        for p in cdf.points() {
            csv_rows.push(vec![
                format!("vol{vol}"),
                format!("{:.4}", p.percentile),
                format!("{:.6}", p.cumulative_fraction),
            ]);
        }
        table.push_row(vec![
            format!("Web/vol{vol}"),
            format!("{:.3}", cdf.top1_share()),
        ]);
    }
    sievestore_analysis::write_csv(
        h.out_path("fig3b.csv"),
        &[
            "volume".into(),
            "percentile".into(),
            "cumulative_fraction".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 3(b): volume-to-volume variation within Web, day {day} \
         (paper: volume 0 far more skewed than volume 1)\n{}",
        table.render()
    ))
}

/// Figure 3(c): day-to-day variation for the Stg server.
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig3c(h: &Harness) -> Result<String, SieveError> {
    let stg = server_index(h, "Stg");
    let mut table = TextTable::new(vec!["day".into(), "top-1% share".into()]);
    let mut shares = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for d in 0..h.trace().days() {
        let counts = server_day_counts(h.trace(), stg, Day::new(d));
        let cdf = popularity_cdf(&counts, 500);
        let share = cdf.top1_share();
        shares.push(share);
        for p in cdf.points() {
            csv_rows.push(vec![
                d.to_string(),
                format!("{:.4}", p.percentile),
                format!("{:.6}", p.cumulative_fraction),
            ]);
        }
        table.push_row(vec![d.to_string(), format!("{share:.3}")]);
    }
    sievestore_analysis::write_csv(
        h.out_path("fig3c.csv"),
        &[
            "day".into(),
            "percentile".into(),
            "cumulative_fraction".into(),
        ],
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    let min = shares.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = shares.iter().cloned().fold(0.0, f64::max);
    Ok(format!(
        "Figure 3(c): day-to-day variation for Stg \
         (paper: one day skewed, another not; here min {min:.3} vs max {max:.3})\n{}",
        table.render()
    ))
}

/// Figure 3(d): per-server composition of the ensemble top-1 % per day.
///
/// # Errors
///
/// Propagates CSV-writing failures.
pub fn fig3d(h: &Harness) -> Result<String, SieveError> {
    let servers = h.trace().config().servers.len();
    let keys: Vec<String> = h
        .trace()
        .config()
        .servers
        .iter()
        .map(|s| s.key.clone())
        .collect();
    let mut headers = vec!["day".into()];
    headers.extend(keys.iter().cloned());
    let mut table = TextTable::new(headers.clone());
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut max_spread: f64 = 0.0;
    let mut per_server_ranges = vec![(f64::INFINITY, 0.0f64); servers];
    for d in 0..h.trace().days() {
        let counts = day_counts(h.trace(), Day::new(d));
        let (selection, _) = counts.top_fraction(0.01);
        let shares = composition_by_server(&selection, servers);
        let mut row = vec![d.to_string()];
        for s in &shares {
            row.push(format!("{:.3}", s.fraction));
            let range = &mut per_server_ranges[s.server];
            range.0 = range.0.min(s.fraction);
            range.1 = range.1.max(s.fraction);
        }
        csv_rows.push(row.clone());
        table.push_row(row);
    }
    for &(lo, hi) in &per_server_ranges {
        if lo.is_finite() {
            max_spread = max_spread.max(hi - lo);
        }
    }
    sievestore_analysis::write_csv(
        h.out_path("fig3d.csv"),
        &headers,
        csv_rows.iter().map(|r| r.as_slice()),
    )?;
    Ok(format!(
        "Figure 3(d): per-server share of the ensemble top-1% blocks per day \
         (paper: time-varying; largest per-server swing here {max_spread:.3})\n{}",
        table.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        crate::test_harness("workload")
    }

    #[test]
    fn table1_lists_thirteen_servers_plus_total() {
        let h = harness();
        let out = table1(&h).unwrap();
        assert!(out.contains("Prxy"));
        assert!(out.contains("6449"));
        assert_eq!(out.lines().count(), 3 + 13 + 1); // title+hdr+rule+13+total
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn fig2_experiments_produce_csv() {
        let h = harness();
        fig2a(&h).unwrap();
        fig2bc(&h).unwrap();
        assert!(h.out_path("fig2a.csv").exists());
        assert!(h.out_path("fig2b.csv").exists());
        assert!(h.out_path("fig2c.csv").exists());
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn fig3a_shows_prxy_more_skewed_than_src1() {
        let h = harness();
        let prxy = server_index(&h, "Prxy");
        let src1 = server_index(&h, "Src1");
        let p = server_day_top1(&h, prxy, 1);
        let s = server_day_top1(&h, src1, 1);
        assert!(p > s, "Prxy {p} must be more skewed than Src1 {s}");
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    fn fig3_experiments_run() {
        let h = harness();
        for f in [fig3a, fig3b, fig3c, fig3d] {
            let out = f(&h).unwrap();
            assert!(out.contains("Figure 3"));
        }
        std::fs::remove_dir_all(h.results_dir()).ok();
    }

    #[test]
    #[should_panic(expected = "not in ensemble")]
    fn unknown_server_panics() {
        let h = harness();
        let _ = server_index(&h, "Nope");
    }
}
