//! Ensemble-level vs per-server caching (§5.3).
//!
//! The paper compares SieveStore against two idealized per-server
//! configurations:
//!
//! 1. **Iso-capacity (elastic SSD)** — each server gets a private cache
//!    holding exactly the top 1 % of *its own* daily blocks, under the
//!    (generous) assumption that arbitrarily small SSDs can be bought at
//!    constant cost-per-byte. Total capacity then equals the ensemble
//!    cache's, so any capture deficit is purely from static partitioning.
//! 2. **Minimum-drive-size** — real SSDs have a minimum capacity, so a
//!    per-server deployment buys one drive *per server* (13 drives)
//!    regardless of how little of each is used.
//!
//! These helpers compute the per-day captured accesses for both
//! configurations from clairvoyant per-server oracles.

use sievestore_trace::SyntheticTrace;
use sievestore_types::Day;

use crate::oracle::{day_counts, server_day_counts};

/// Per-day capture of one caching configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaptureSeries {
    /// Accesses captured (hit) per day.
    pub captured: Vec<u64>,
    /// Total accesses per day.
    pub total: Vec<u64>,
    /// Blocks of cache capacity the configuration used per day.
    pub capacity_blocks: Vec<u64>,
}

impl CaptureSeries {
    /// Captured fraction for one day (0 if no accesses).
    pub fn fraction(&self, day: usize) -> f64 {
        match (self.captured.get(day), self.total.get(day)) {
            (Some(&c), Some(&t)) if t > 0 => c as f64 / t as f64,
            _ => 0.0,
        }
    }

    /// Mean captured fraction over days with traffic.
    pub fn mean_fraction(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for d in 0..self.total.len() {
            if self.total[d] > 0 {
                sum += self.fraction(d);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Ideal **ensemble-level** capture: each day, the top `fraction` of the
/// ensemble's distinct blocks (quadrant I/II with a clairvoyant sieve).
pub fn ensemble_ideal_capture(trace: &SyntheticTrace, fraction: f64) -> CaptureSeries {
    let mut series = CaptureSeries::default();
    for d in 0..trace.days() {
        let counts = day_counts(trace, Day::new(d));
        let (selection, covered) = counts.top_fraction(fraction);
        series.captured.push(covered);
        series.total.push(counts.total_accesses());
        series.capacity_blocks.push(selection.len() as u64);
    }
    series
}

/// Ideal **per-server** capture (iso-capacity, elastic drives): each day,
/// every server privately caches the top `fraction` of its own blocks.
pub fn per_server_ideal_capture(trace: &SyntheticTrace, fraction: f64) -> CaptureSeries {
    let servers = trace.config().servers.len();
    let mut series = CaptureSeries::default();
    for d in 0..trace.days() {
        let mut captured = 0;
        let mut total = 0;
        let mut capacity = 0;
        for s in 0..servers {
            let counts = server_day_counts(trace, s, Day::new(d));
            let (selection, covered) = counts.top_fraction(fraction);
            captured += covered;
            total += counts.total_accesses();
            capacity += selection.len() as u64;
        }
        series.captured.push(captured);
        series.total.push(total);
        series.capacity_blocks.push(capacity);
    }
    series
}

/// The §5.3 drive-cost comparison: per-server deployments need at least
/// one minimum-size drive per server; the ensemble cache needs
/// `ensemble_drives` (1–2 in the paper).
///
/// Returns `(per_server_drives, ensemble_drives)`.
pub fn drive_cost_comparison(servers: usize, ensemble_drives: u32) -> (u32, u32) {
    (servers as u32, ensemble_drives)
}

/// Simulates a *per-server* deployment of one policy (quadrants III/IV of
/// the paper's Figure 1): the total cache capacity is split evenly across
/// the servers, each server's requests run against its private cache, and
/// the per-day metrics and per-minute device loads are combined with the
/// commutative merges ([`crate::metrics::DayMetrics::merge`],
/// [`sievestore_ssd::OccupancyTracker::merge`]) the sharded engine uses.
///
/// `spec_for` builds each server's policy (stateful policies must not be
/// shared across servers).
///
/// # Errors
///
/// Propagates policy-construction errors.
pub fn simulate_per_server(
    trace: &SyntheticTrace,
    mut spec_for: impl FnMut(usize) -> sievestore::PolicySpec,
    total_capacity_blocks: usize,
    cfg: &crate::engine::SimConfig,
) -> Result<crate::metrics::SimResult, sievestore_types::SieveError> {
    let servers = trace.config().servers.len();
    let per_server = (total_capacity_blocks / servers).max(1);
    let mut combined: Option<crate::metrics::SimResult> = None;
    for s in 0..servers {
        let sub_cfg = cfg.clone().with_capacity_blocks(per_server);
        let result = crate::engine::simulate_server(trace, s, spec_for(s), &sub_cfg)?;
        match &mut combined {
            None => combined = Some(result),
            Some(acc) => acc.absorb(&result),
        }
    }
    let mut result = combined.expect("ensemble has at least one server");
    result.policy = format!("per-server {}", result.policy).into();
    result.capacity_blocks = total_capacity_blocks;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_trace::EnsembleConfig;

    fn trace() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(19)).unwrap()
    }

    #[test]
    fn series_fractions() {
        let s = CaptureSeries {
            captured: vec![50, 0, 30],
            total: vec![100, 0, 60],
            capacity_blocks: vec![1, 0, 1],
        };
        assert!((s.fraction(0) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction(1), 0.0);
        assert!((s.mean_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction(9), 0.0);
        assert_eq!(CaptureSeries::default().mean_fraction(), 0.0);
    }

    #[test]
    fn totals_agree_between_views() {
        let t = trace();
        let ensemble = ensemble_ideal_capture(&t, 0.01);
        let per_server = per_server_ideal_capture(&t, 0.01);
        assert_eq!(ensemble.total, per_server.total);
        assert_eq!(ensemble.total.len(), t.days() as usize);
    }

    #[test]
    fn capacities_are_comparable_at_iso_fraction() {
        // The per-server selections partition the same block universe, so
        // the summed top-1% capacity is within rounding of the ensemble's.
        let t = trace();
        let ensemble = ensemble_ideal_capture(&t, 0.01);
        let per_server = per_server_ideal_capture(&t, 0.01);
        for d in 0..t.days() as usize {
            let e = ensemble.capacity_blocks[d] as f64;
            let p = per_server.capacity_blocks[d] as f64;
            assert!(
                (e - p).abs() <= 0.1 * e.max(p) + 2.0,
                "day {d}: ensemble {e} vs per-server {p}"
            );
        }
    }

    #[test]
    fn ensemble_never_captures_less_at_iso_capacity() {
        // The ensemble's top-k (over the union) dominates any equal-count
        // partitioned selection, modulo per-server rounding of the 1%.
        let t = trace();
        let ensemble = ensemble_ideal_capture(&t, 0.01);
        let per_server = per_server_ideal_capture(&t, 0.01);
        for d in 0..t.days() as usize {
            // Tolerate rounding: per-server may select a couple more
            // blocks than the ensemble did.
            let slack = (per_server.capacity_blocks[d] as i64 - ensemble.capacity_blocks[d] as i64)
                .max(0) as u64;
            assert!(
                ensemble.captured[d] + slack * 50 >= per_server.captured[d],
                "day {d}: ensemble {} vs per-server {}",
                ensemble.captured[d],
                per_server.captured[d]
            );
        }
    }

    #[test]
    fn per_server_simulation_sums_servers() {
        let t = trace();
        let cfg = crate::engine::SimConfig::paper_16gb(t.config().scale.denominator());
        let total_capacity = 8192;
        let per_server =
            simulate_per_server(&t, |_| sievestore::PolicySpec::Aod, total_capacity, &cfg).unwrap();
        assert!(per_server.policy.starts_with("per-server"));
        assert_eq!(per_server.capacity_blocks, total_capacity);
        // Accesses must equal the ensemble's.
        let ensemble = crate::engine::simulate(
            &t,
            sievestore::PolicySpec::Aod,
            &cfg.clone().with_capacity_blocks(total_capacity),
        )
        .unwrap();
        assert_eq!(per_server.total().accesses(), ensemble.total().accesses());
        // With statically partitioned capacity, the per-server deployment
        // cannot beat the shared cache by much; typically it trails.
        assert!(
            per_server.total().hits() <= ensemble.total().hits() * 11 / 10,
            "per-server {} vs ensemble {}",
            per_server.total().hits(),
            ensemble.total().hits()
        );
    }

    #[test]
    fn drive_costs() {
        assert_eq!(drive_cost_comparison(13, 1), (13, 1));
        assert_eq!(drive_cost_comparison(13, 2), (13, 2));
    }
}
