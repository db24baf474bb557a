//! Oracle pre-passes over the trace.
//!
//! The ideal configurations in the paper are clairvoyant: they know each
//! day's most-accessed blocks in advance. [`ideal_top_selections`]
//! counts the streamed trace one day at a time and produces the per-day
//! top-fraction selections used by the `Ideal` policy and the §5.3
//! per-server comparison; [`day_counts`] / [`server_day_counts`] count
//! one materialized day (the reference the streamed pass is tested
//! against).

use sievestore_extsort::BlockCounts;
use sievestore_trace::{StreamMsg, SyntheticTrace, TraceStreamConfig};
use sievestore_types::Day;

/// One day's worth of per-block counting over the whole ensemble.
pub fn day_counts(trace: &SyntheticTrace, day: Day) -> BlockCounts {
    BlockCounts::from_requests(trace.day_requests(day).iter())
}

/// One day's counting restricted to a single server.
pub fn server_day_counts(trace: &SyntheticTrace, server_idx: usize, day: Day) -> BlockCounts {
    BlockCounts::from_requests(trace.server_day(server_idx, day).iter())
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
    let mut finalise = |counts: BlockCounts| {
        let (sel, cov) = counts.top_fraction(fraction);
        totals.push(counts.total_accesses());
        covered.push(cov);
        selections.push(sel);
    };
    let mut counts: Option<BlockCounts> = None;
    let mut stream = trace.stream(TraceStreamConfig::default());
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(_) => {
                if let Some(done) = counts.replace(BlockCounts::new()) {
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
