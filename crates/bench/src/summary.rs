//! The headline-claims summary: reproduced vs paper-reported numbers,
//! and the paper-shape gate over them.

use sievestore_analysis::{pct, TextTable};
use sievestore_ssd::endurance_years;
use sievestore_types::SieveError;

use crate::Harness;

/// The paper's headline results as this reproduction measures them.
#[derive(Debug)]
pub struct Headline {
    /// Trace scale denominator the runs used.
    pub scale: u32,
    /// Mean daily captured fraction of the best unsieved policy.
    pub best_mean: f64,
    /// Mean daily captured fraction of SieveStore-D (bootstrap day 0
    /// excluded).
    pub d_mean: f64,
    /// Mean daily captured fraction of SieveStore-C.
    pub c_mean: f64,
    /// Mean daily captured fraction of the day-by-day ideal.
    pub ideal_mean: f64,
    /// Unsieved (32 GB) over SieveStore-D allocation-writes.
    pub d_reduction: f64,
    /// Unsieved (32 GB) over SieveStore-C allocation-writes.
    pub c_reduction: f64,
    /// Fraction of minutes one drive covers under SieveStore-D.
    pub d_coverage: f64,
    /// Fraction of minutes one drive covers under SieveStore-C.
    pub c_coverage: f64,
    /// Drives WMNA (32 GB) needs at 99.9 % minute coverage.
    pub wmna_drives: u32,
    /// X25-E lifetime in years under SieveStore-C's write rate.
    pub lifetime_years: f64,
}

impl Headline {
    /// Computes the headline numbers from the harness's shared policy
    /// runs.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn measure(h: &mut Harness) -> Result<Self, SieveError> {
        let scale = h.scale();
        let days = h.trace().days();
        let runs = h.policy_runs()?;

        let alloc = |name: &str| runs.by_name(name).total().total_allocation_writes();
        let unsieved_alloc = alloc("AOD-32GB").min(alloc("WMNA-32GB"));

        let c_occ = &runs.by_name("SieveStore-C").occupancy;
        let c_write_bytes_day = c_occ.total_write_bytes() / days.max(1) as f64;

        Ok(Headline {
            scale,
            best_mean: runs.best_unsieved().mean_captured_fraction(&[]),
            d_mean: runs.by_name("SieveStore-D").mean_captured_fraction(&[0]),
            c_mean: runs.by_name("SieveStore-C").mean_captured_fraction(&[]),
            ideal_mean: runs.by_name("Ideal").mean_captured_fraction(&[]),
            d_reduction: unsieved_alloc as f64 / alloc("SieveStore-D").max(1) as f64,
            c_reduction: unsieved_alloc as f64 / alloc("SieveStore-C").max(1) as f64,
            d_coverage: runs
                .by_name("SieveStore-D")
                .occupancy
                .single_drive_coverage(),
            c_coverage: c_occ.single_drive_coverage(),
            wmna_drives: runs
                .by_name("WMNA-32GB")
                .occupancy
                .drives_for_coverage(0.999),
            lifetime_years: endurance_years(c_occ.spec(), c_write_bytes_day),
        })
    }

    /// The headline numbers next to the paper's reported values.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "claim".into(),
            "paper".into(),
            "this reproduction".into(),
        ]);
        table.push_row(vec![
            "SieveStore-D hits vs best unsieved".into(),
            "+35%".into(),
            format!("{:+.0}%", (self.d_mean / self.best_mean - 1.0) * 100.0),
        ]);
        table.push_row(vec![
            "SieveStore-C hits vs best unsieved".into(),
            "+50%".into(),
            format!("{:+.0}%", (self.c_mean / self.best_mean - 1.0) * 100.0),
        ]);
        let vs_ideal = |mean: f64| {
            let rel = (mean / self.ideal_mean - 1.0) * 100.0;
            if rel >= 0.0 {
                format!("{rel:.0}% above")
            } else {
                format!("{:.0}% below", -rel)
            }
        };
        table.push_row(vec![
            "SieveStore-D vs day-by-day ideal".into(),
            "within 14% below".into(),
            vs_ideal(self.d_mean),
        ]);
        table.push_row(vec![
            "SieveStore-C vs day-by-day ideal".into(),
            "within 4% below".into(),
            vs_ideal(self.c_mean),
        ]);
        table.push_row(vec![
            "allocation-write reduction (D)".into(),
            ">100x".into(),
            format!("{:.0}x", self.d_reduction),
        ]);
        table.push_row(vec![
            "allocation-write reduction (C)".into(),
            ">100x".into(),
            format!("{:.0}x", self.c_reduction),
        ]);
        table.push_row(vec![
            "SieveStore-D drives (1 covers)".into(),
            "100% of minutes".into(),
            pct(self.d_coverage),
        ]);
        table.push_row(vec![
            "SieveStore-C drives (1 covers)".into(),
            ">=99.9% of minutes".into(),
            pct(self.c_coverage),
        ]);
        table.push_row(vec![
            "WMNA drives at 99.9% coverage".into(),
            "7".into(),
            self.wmna_drives.to_string(),
        ]);
        table.push_row(vec![
            "X25-E lifetime under SieveStore".into(),
            ">10 years".into(),
            format!("{:.0} years", self.lifetime_years),
        ]);
        format!(
            "Headline results at trace scale 1/{} \
             (shapes, not absolute numbers, are the reproduction target)\n{}",
            self.scale,
            table.render()
        )
    }

    /// The paper's headline shape claims these numbers break, one line
    /// per broken claim, each starting with the claim's name; empty when
    /// the reproduction has the paper's shape.
    pub fn shape_violations(&self) -> Vec<String> {
        let ordered = self.c_mean > self.d_mean && self.d_mean > self.best_mean;
        let few_allocations = self.d_reduction >= 100.0 && self.c_reduction >= 30.0;
        let one_drive =
            self.d_coverage >= 0.999 && self.c_coverage >= 0.999 && self.wmna_drives > 1;
        let durable = self.lifetime_years > 10.0;
        [
            (
                ordered,
                format!(
                    "capture order: mean capture must order C > D > best unsieved, \
                     got C {:.4}, D {:.4}, best unsieved {:.4}",
                    self.c_mean, self.d_mean, self.best_mean
                ),
            ),
            (
                few_allocations,
                format!(
                    "allocation-write reduction: must be >= 100x for D and >= 30x for C, \
                     got D {:.1}x, C {:.1}x",
                    self.d_reduction, self.c_reduction
                ),
            ),
            (
                one_drive,
                format!(
                    "single-drive coverage: one drive must cover >= 99.9% of minutes for \
                     both sieves while WMNA needs more than one, got D {}, C {}, WMNA {} drives",
                    pct(self.d_coverage),
                    pct(self.c_coverage),
                    self.wmna_drives
                ),
            ),
            (
                durable,
                format!(
                    "X25-E lifetime: must exceed 10 years, got {:.1} years",
                    self.lifetime_years
                ),
            ),
        ]
        .into_iter()
        .filter(|(holds, _)| !holds)
        .map(|(_, violation)| violation)
        .collect()
    }
}

/// Computes the paper's headline results from the shared policy runs and
/// renders them next to the paper's reported values.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn summary(h: &mut Harness) -> Result<String, SieveError> {
    Ok(Headline::measure(h)?.render())
}

/// The paper-shape gate: the summary, then `Err` naming every headline
/// shape claim the reproduction breaks.
///
/// # Errors
///
/// Returns the rendered summary and each violated claim, or the
/// simulation failure.
pub fn fidelity(h: &mut Harness) -> Result<String, String> {
    let headline = Headline::measure(h).map_err(|e| e.to_string())?;
    let violations = headline.shape_violations();
    if violations.is_empty() {
        Ok(format!(
            "{}paper shape: all four headline claims hold",
            headline.render()
        ))
    } else {
        Err(format!(
            "{}paper shape violated:\n  {}",
            headline.render(),
            violations.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders_all_claims() {
        let dir = std::env::temp_dir().join(format!("sievestore-summary-{}", std::process::id()));
        let mut h = Harness::smoke(&dir).unwrap();
        let out = summary(&mut h).unwrap();
        for needle in [
            "SieveStore-D hits",
            "SieveStore-C hits",
            "allocation-write reduction",
            "lifetime",
            "paper",
        ] {
            assert!(out.contains(needle), "missing {needle} in summary");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The headline as measured at trace scale 1/1024.
    fn at_1024() -> Headline {
        Headline {
            scale: 1024,
            best_mean: 0.20,
            d_mean: 0.22,
            c_mean: 0.274,
            ideal_mean: 0.207,
            d_reduction: 149.0,
            c_reduction: 53.0,
            d_coverage: 1.0,
            c_coverage: 1.0,
            wmna_drives: 3,
            lifetime_years: 14.0,
        }
    }

    #[test]
    fn shape_gate_names_each_broken_claim_alone() {
        assert_eq!(at_1024().shape_violations(), Vec::<String>::new());
        type Breaker = fn(&mut Headline);
        let broken: [(&str, Breaker); 9] = [
            ("capture order", |h| h.c_mean = h.d_mean),
            ("capture order", |h| h.d_mean = h.best_mean * 0.99),
            ("allocation-write reduction", |h| h.d_reduction = 99.0),
            ("allocation-write reduction", |h| h.c_reduction = 29.0),
            ("single-drive coverage", |h| h.d_coverage = 0.998),
            ("single-drive coverage", |h| h.c_coverage = 0.998),
            ("single-drive coverage", |h| h.wmna_drives = 1),
            ("X25-E lifetime", |h| h.lifetime_years = 10.0),
            ("X25-E lifetime", |h| h.lifetime_years = f64::NAN),
        ];
        for (claim, brk) in broken {
            let mut h = at_1024();
            brk(&mut h);
            let violations = h.shape_violations();
            assert_eq!(violations.len(), 1, "{claim}: {violations:?}");
            assert!(violations[0].starts_with(claim), "{claim}: {violations:?}");
        }
    }
}
