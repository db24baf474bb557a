//! Oracle pre-passes over the trace.
//!
//! The ideal configurations in the paper are clairvoyant: they know each
//! day's most-accessed blocks in advance. [`ideal_top_selections`]
//! counts the streamed trace one day at a time and produces the per-day
//! top-fraction selections used by the `Ideal` policy and the §5.3
//! per-server comparison; [`day_counts`] / [`server_day_counts`] count
//! one materialized day (the reference the streamed pass is tested
//! against).

use std::collections::HashMap;

use sievestore_trace::{StreamMsg, SyntheticTrace, TraceStreamConfig};
use sievestore_types::Day;

/// Per-day block access counts plus derived top-fraction selections.
#[derive(Debug, Clone, Default)]
pub struct DayCounts {
    counts: HashMap<u64, u64>,
    total_accesses: u64,
}

impl DayCounts {
    /// Builds counts from an iterator of `(block, n)` increments.
    pub fn from_blocks(blocks: impl Iterator<Item = u64>) -> Self {
        let mut day = DayCounts::default();
        blocks.for_each(|b| day.record(b));
        day
    }

    fn record(&mut self, block: u64) {
        *self.counts.entry(block).or_insert(0) += 1;
        self.total_accesses += 1;
    }

    /// Number of distinct blocks accessed.
    pub fn unique_blocks(&self) -> usize {
        self.counts.len()
    }

    /// Total block accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// The most-accessed `fraction` of distinct blocks (ties broken by
    /// key), plus the number of accesses they cover.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn top_fraction(&self, fraction: f64) -> (Vec<u64>, u64) {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let n = (self.counts.len() as f64 * fraction).round() as usize;
        let mut all: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        let covered = all.iter().map(|&(_, c)| c).sum();
        (all.into_iter().map(|(k, _)| k).collect(), covered)
    }

    /// Access count for a block (0 if untouched).
    pub fn get(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }
}

/// One day's worth of per-block counting over the whole ensemble.
pub fn day_counts(trace: &SyntheticTrace, day: Day) -> DayCounts {
    DayCounts::from_blocks(
        trace
            .day_requests(day)
            .iter()
            .flat_map(|r| r.blocks().map(|b| b.raw())),
    )
}

/// One day's counting restricted to a single server.
pub fn server_day_counts(trace: &SyntheticTrace, server_idx: usize, day: Day) -> DayCounts {
    DayCounts::from_blocks(
        trace
            .server_day(server_idx, day)
            .iter()
            .flat_map(|r| r.blocks().map(|b| b.raw())),
    )
}

/// The clairvoyant per-day selections for the `Ideal` policy: each day's
/// top `fraction` (paper: 1 %) most-accessed blocks across the ensemble.
///
/// Returns `(selections, covered_accesses, total_accesses)` — the latter
/// two per day, for normalizing Figure 5's ideal bar.
///
/// One pass over the trace stream: a day's counts are finalised when the
/// next day starts, so only one day's count table is ever held — never a
/// day's requests.
pub fn ideal_top_selections(
    trace: &SyntheticTrace,
    fraction: f64,
) -> (Vec<Vec<u64>>, Vec<u64>, Vec<u64>) {
    let mut selections = Vec::with_capacity(trace.days() as usize);
    let mut covered = Vec::with_capacity(trace.days() as usize);
    let mut totals = Vec::with_capacity(trace.days() as usize);
    let mut finalise = |counts: DayCounts| {
        let (sel, cov) = counts.top_fraction(fraction);
        totals.push(counts.total_accesses());
        covered.push(cov);
        selections.push(sel);
    };
    let mut counts: Option<DayCounts> = None;
    let mut stream = trace.stream(TraceStreamConfig::default());
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(_) => {
                if let Some(done) = counts.replace(DayCounts::default()) {
                    finalise(done);
                }
            }
            StreamMsg::Chunk(chunk) => {
                let day = counts.as_mut().expect("chunks follow their StartDay");
                for req in &chunk {
                    req.blocks().for_each(|b| day.record(b.raw()));
                }
                stream.recycle(chunk);
            }
            // Only spill-mode generation can fail, and the default
            // stream configuration never spills.
            StreamMsg::Failed(e) => panic!("in-memory trace stream failed: {e}"),
        }
    }
    if let Some(done) = counts {
        finalise(done);
    }
    (selections, covered, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_trace::EnsembleConfig;

    #[test]
    fn counts_and_top_fraction() {
        let blocks = [1u64, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let counts = DayCounts::from_blocks(blocks.iter().copied());
        assert_eq!(counts.unique_blocks(), 11);
        assert_eq!(counts.total_accesses(), 14);
        assert_eq!(counts.get(1), 3);
        assert_eq!(counts.get(99), 0);
        // Top ~18% of 11 blocks = 2 blocks: 1 (3 accesses) and 2 (2).
        let (top, covered) = counts.top_fraction(0.18);
        assert_eq!(top, vec![1, 2]);
        assert_eq!(covered, 5);
    }

    #[test]
    fn top_fraction_edges() {
        let counts = DayCounts::from_blocks([1u64, 2, 3].into_iter());
        let (none, c0) = counts.top_fraction(0.0);
        assert!(none.is_empty());
        assert_eq!(c0, 0);
        let (all, call) = counts.top_fraction(1.0);
        assert_eq!(all.len(), 3);
        assert_eq!(call, 3);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let counts = DayCounts::from_blocks([1u64].into_iter());
        let _ = counts.top_fraction(1.5);
    }

    #[test]
    fn ideal_selections_cover_all_days_and_are_consistent() {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(3)).unwrap();
        let (sel, covered, totals) = ideal_top_selections(&trace, 0.01);
        assert_eq!(sel.len(), trace.days() as usize);
        assert_eq!(covered.len(), totals.len());
        for d in 0..sel.len() {
            assert!(covered[d] <= totals[d]);
            assert!(!sel[d].is_empty(), "day {d} selection empty");
            // The skew means the top 1% covers far more than 1% of accesses.
            let share = covered[d] as f64 / totals[d] as f64;
            assert!(share > 0.02, "day {d} top-1% share {share}");
        }
    }

    #[test]
    fn streamed_selections_match_the_materialized_day_counts() {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(3)).unwrap();
        let (sel, covered, totals) = ideal_top_selections(&trace, 0.01);
        assert_eq!(sel.len(), trace.days() as usize);
        for d in 0..trace.days() {
            let counts = day_counts(&trace, Day::new(d));
            let (want_sel, want_cov) = counts.top_fraction(0.01);
            let d = d as usize;
            assert_eq!(sel[d], want_sel, "day {d}");
            assert_eq!(covered[d], want_cov, "day {d}");
            assert_eq!(totals[d], counts.total_accesses(), "day {d}");
        }
    }

    #[test]
    fn server_counts_partition_ensemble_counts() {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(3)).unwrap();
        let day = Day::new(1);
        let ensemble = day_counts(&trace, day);
        let per_server: u64 = (0..trace.config().servers.len())
            .map(|s| server_day_counts(&trace, s, day).total_accesses())
            .sum();
        assert_eq!(ensemble.total_accesses(), per_server);
    }
}
