//! Parallel parameter sweeps (the §5.1 sensitivity study).
//!
//! A sweep runs one simulation per parameter point; points are independent
//! so they fan out across threads. (This is parallelism *across* points;
//! to parallelize *within* one simulation instead, set
//! [`SimConfig::workers`] — every point replays with the configured
//! workers, and their shares merge to the same report.) [`sweep`] is the
//! generic harness, and [`crate::simulate_many`] runs on it too;
//! [`threshold_sweep`] and [`window_sweep`] are the two studies the paper
//! summarizes: SieveStore-D is insensitive to thresholds in the 8–20
//! range (but degrades below ~8), and SieveStore-C degrades for windows
//! shorter than ~8 hours.

use crossbeam::thread;
use parking_lot::Mutex;
use sievestore::PolicySpec;
use sievestore_sieve::{TwoTierConfig, WindowConfig};
use sievestore_trace::SyntheticTrace;
use sievestore_types::{Micros, SieveError};

use crate::engine::{simulate, SimConfig};
use crate::metrics::SimResult;

/// Runs `f` over every point, in parallel, preserving input order.
///
/// # Errors
///
/// Returns the first error any point produced (by input order).
pub fn sweep<P, F>(points: Vec<P>, threads: usize, f: F) -> Result<Vec<SimResult>, SieveError>
where
    P: Send,
    F: Fn(P) -> Result<SimResult, SieveError> + Sync,
{
    let threads = threads.max(1);
    let n = points.len();
    let work: Mutex<Vec<(usize, P)>> = Mutex::new(points.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<Option<Result<SimResult, SieveError>>>> =
        Mutex::new((0..n).map(|_| None).collect());

    thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|_| loop {
                let item = work.lock().pop();
                match item {
                    Some((idx, point)) => {
                        let outcome = f(point);
                        results.lock()[idx] = Some(outcome);
                    }
                    None => break,
                }
            });
        }
    })
    .map_err(|_| SieveError::InvalidConfig("sweep worker panicked".into()))?;

    results
        .into_inner()
        .into_iter()
        .map(|slot| slot.expect("every point was processed"))
        .collect()
}

/// One point of a sensitivity sweep, with its label.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable parameter value ("t=10", "W=8h").
    pub label: String,
    /// The simulation outcome at this point.
    pub result: SimResult,
}

/// SieveStore-D threshold sensitivity: one simulation per threshold.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn threshold_sweep(
    trace: &SyntheticTrace,
    thresholds: &[u64],
    cfg: &SimConfig,
    threads: usize,
) -> Result<Vec<SweepPoint>, SieveError> {
    let results = sweep(thresholds.to_vec(), threads, |t| {
        simulate(trace, PolicySpec::SieveStoreD { threshold: t }, cfg)
    })?;
    Ok(thresholds
        .iter()
        .zip(results)
        .map(|(t, result)| SweepPoint {
            label: format!("t={t}"),
            result,
        })
        .collect())
}

/// SieveStore-C window-length sensitivity: one simulation per window (in
/// hours), keeping `k` = 4 subwindows and the paper thresholds.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn window_sweep(
    trace: &SyntheticTrace,
    window_hours: &[u64],
    imct_entries: usize,
    cfg: &SimConfig,
    threads: usize,
) -> Result<Vec<SweepPoint>, SieveError> {
    let results = sweep(window_hours.to_vec(), threads, |hours| {
        let two_tier = TwoTierConfig::paper_default()
            .with_imct_entries(imct_entries)
            .with_window(WindowConfig::new(Micros::from_hours(hours), 4));
        simulate(trace, PolicySpec::SieveStoreC(two_tier), cfg)
    })?;
    Ok(window_hours
        .iter()
        .zip(results)
        .map(|(h, result)| SweepPoint {
            label: format!("W={h}h"),
            result,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_trace::EnsembleConfig;

    fn trace() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(23)).unwrap()
    }

    fn cfg(trace: &SyntheticTrace) -> SimConfig {
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(8192)
    }

    #[test]
    fn sweep_preserves_order_and_runs_all_points() {
        let t = trace();
        let c = cfg(&t);
        let results = sweep(vec![1u64, 5, 20], 3, |threshold| {
            simulate(&t, PolicySpec::SieveStoreD { threshold }, &c)
        })
        .unwrap();
        assert_eq!(results.len(), 3);
        // Lower thresholds admit at least as many batch blocks.
        let batches: Vec<u64> = results
            .iter()
            .map(|r| r.total().batch_allocations)
            .collect();
        assert!(batches[0] >= batches[1]);
        assert!(batches[1] >= batches[2]);
    }

    #[test]
    fn sweep_with_single_thread_matches_parallel() {
        let t = trace();
        let c = cfg(&t);
        let run = |threads| {
            sweep(vec![5u64, 10], threads, |threshold| {
                simulate(&t, PolicySpec::SieveStoreD { threshold }, &c)
            })
            .unwrap()
            .into_iter()
            .map(|r| r.total())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn threshold_sweep_labels_points() {
        let t = trace();
        let points = threshold_sweep(&t, &[8, 12], &cfg(&t), 2).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "t=8");
        assert_eq!(points[1].label, "t=12");
    }

    #[test]
    fn window_sweep_runs() {
        let t = trace();
        let points = window_sweep(&t, &[2, 8], 1 << 14, &cfg(&t), 2).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].label, "W=8h");
        for p in &points {
            assert!(p.result.total().accesses() > 0);
        }
    }

    #[test]
    fn threshold_sweep_is_worker_count_invariant() {
        let t = trace();
        let one = cfg(&t);
        let sharded = one.clone().with_workers(4);
        let a = threshold_sweep(&t, &[5, 10], &one, 2).unwrap();
        let b = threshold_sweep(&t, &[5, 10], &sharded, 2).unwrap();
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.label, pb.label);
            assert_eq!(pa.result.days, pb.result.days);
        }
    }

    #[test]
    fn sweep_surfaces_errors() {
        let t = trace();
        let c = cfg(&t);
        let err = sweep(vec![0u64], 1, |threshold| {
            simulate(&t, PolicySpec::SieveStoreD { threshold }, &c)
        });
        assert!(err.is_err());
    }
}
