//! The SieveStore experiment harness.
//!
//! One function per table/figure of the paper's evaluation, all driven by
//! the same calibrated synthetic ensemble trace. The `experiments` binary
//! (`cargo run -p sievestore-bench --release --bin experiments -- all`)
//! dispatches to these functions; each prints an aligned text table and
//! writes CSV series under `results/`.
//!
//! Simulation results are computed once per harness instance and shared
//! across the figures that need them (Figures 5–9 and the summary all
//! read the same nine policy runs; `sens` and the summary the same
//! sensitivity sweeps).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod extensions;
pub mod policies;
pub mod replay_json;
pub mod sens;
pub mod summary;
pub mod workload;

use std::path::{Path, PathBuf};

use sievestore::PolicySpec;
use sievestore_extsort::CountingConfig;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{
    ideal_top_selections, simulate_many, EvictionPolicy, SimConfig, SimResult, SnapshotLog,
};
use sievestore_trace::{EnsembleConfig, Scale, SyntheticTrace};
use sievestore_types::SieveError;

use crate::replay_json::Json;

/// Names of the policies simulated for Figures 5–9, in bar order.
pub const POLICY_ORDER: [&str; 9] = [
    "Ideal",
    "RandSieve-BlkD",
    "SieveStore-D",
    "RandSieve-C",
    "SieveStore-C",
    "AOD-16GB",
    "WMNA-16GB",
    "AOD-32GB",
    "WMNA-32GB",
];

/// IMCT sizing rule: the paper's full-scale sieve metastate is ~8 GB; we
/// scale the slot count with the trace.
pub fn imct_entries_for_scale(scale: u32) -> usize {
    (((1u64 << 26) / scale as u64) as usize).max(1 << 14)
}

/// The full set of simulation results behind Figures 5–9.
#[derive(Debug)]
pub struct PolicyRuns {
    /// Results keyed by [`POLICY_ORDER`] position.
    pub results: Vec<SimResult>,
    /// Oracle per-day covered accesses (ideal's analytic bar).
    pub ideal_covered: Vec<u64>,
    /// Per-day total block accesses.
    pub day_totals: Vec<u64>,
}

impl PolicyRuns {
    /// Looks a result up by its [`POLICY_ORDER`] name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`POLICY_ORDER`].
    pub fn by_name(&self, name: &str) -> &SimResult {
        let idx = POLICY_ORDER
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown policy {name}"));
        &self.results[idx]
    }

    /// The best unsieved result (highest whole-trace hits) among the
    /// AOD/WMNA variants — the paper's comparison baseline.
    pub fn best_unsieved(&self) -> &SimResult {
        ["AOD-16GB", "WMNA-16GB", "AOD-32GB", "WMNA-32GB"]
            .iter()
            .map(|n| self.by_name(n))
            .max_by_key(|r| r.total().hits())
            .expect("four unsieved runs exist")
    }
}

/// Shared experiment state: the trace, scale and lazily computed runs.
pub struct Harness {
    trace: SyntheticTrace,
    results_dir: PathBuf,
    threads: usize,
    eviction: EvictionPolicy,
    spill: Option<PathBuf>,
    runs: Option<PolicyRuns>,
    sweeps: Option<sens::Sweeps>,
}

impl Harness {
    /// Creates a harness over the 13-server ensemble at `scale`,
    /// writing CSVs under `results_dir`.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for invalid scale/config.
    pub fn new(scale: u32, seed: u64, results_dir: impl AsRef<Path>) -> Result<Self, SieveError> {
        let config = EnsembleConfig::msr_like()
            .with_scale(Scale::new(scale)?)
            .with_seed(seed);
        Ok(Harness {
            trace: SyntheticTrace::new(config)?,
            results_dir: results_dir.as_ref().to_path_buf(),
            threads: 1,
            eviction: EvictionPolicy::default(),
            spill: None,
            runs: None,
            sweeps: None,
        })
    }

    /// Replays every simulation with `threads` sharded workers (1 by
    /// default; 0 fails the first simulation). Discrete-policy figures
    /// are bit-identical at any thread count; continuous policies split
    /// the cache and RNG per shard, so their figures can deviate slightly
    /// under capacity pressure (see `sievestore_sim::replay`). Clears
    /// any cached runs.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.runs = None;
        self.sweeps = None;
        self
    }

    /// The replay workers each simulation runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Switches the eviction policy the continuous caches replace with
    /// (LRU by default, SIEVE as the alternative).
    /// Discrete policies use the epoch-batch cache regardless. Clears
    /// any cached runs.
    #[must_use]
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self.runs = None;
        self.sweeps = None;
        self
    }

    /// The eviction policy simulations run with.
    pub fn eviction(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Bounds memory for full-scale runs: trace generation streams through
    /// spill files under `dir` and discrete epoch counting uses the
    /// spill-backed counter, so peak RSS tracks one server-day instead of
    /// the whole trace. Figures are unchanged — the spill path is
    /// bit-identical to in-memory counting. Clears any cached runs.
    #[must_use]
    pub fn with_spill(mut self, dir: impl AsRef<Path>) -> Self {
        self.spill = Some(dir.as_ref().to_path_buf());
        self.runs = None;
        self.sweeps = None;
        self
    }

    /// The spill directory, when bounded-memory mode is on.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill.as_deref()
    }

    /// Full provenance of a harness run: everything needed to regenerate
    /// its outputs bit-for-bit from a clean checkout.
    pub fn provenance(&self) -> Json {
        Json::Obj(vec![
            (
                "trace_seed".into(),
                Json::Str(format!("{:#x}", self.trace.config().seed)),
            ),
            ("scale".into(), Json::Num(self.scale() as f64)),
            ("days".into(), Json::Num(self.trace.days() as f64)),
            (
                "servers".into(),
                Json::Num(self.trace.config().servers.len() as f64),
            ),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("eviction".into(), Json::Str(self.eviction.to_string())),
            ("spill".into(), Json::Bool(self.spill.is_some())),
        ])
    }

    /// `base` with the harness's replay workers, eviction policy and
    /// spill mode applied — the configuration every experiment that
    /// replays the trace runs with.
    pub fn sim_config(&self, base: SimConfig) -> SimConfig {
        let cfg = base.with_workers(self.threads).with_eviction(self.eviction);
        match &self.spill {
            None => cfg,
            Some(root) => {
                let stream = cfg.trace_stream.clone().with_spill_dir(root.join("trace"));
                cfg.with_trace_stream(stream)
                    .with_counting(CountingConfig::spill(root.join("counts")))
            }
        }
    }

    /// Creates a fast, small-scale harness (for tests and smoke runs).
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for invalid scale/config.
    pub fn smoke(results_dir: impl AsRef<Path>) -> Result<Self, SieveError> {
        Self::new(8192, 0x51EE_5704, results_dir)
    }

    /// The trace under experiment.
    pub fn trace(&self) -> &SyntheticTrace {
        &self.trace
    }

    /// Trace scale denominator.
    pub fn scale(&self) -> u32 {
        self.trace.config().scale.denominator()
    }

    /// Directory CSV outputs go to.
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Absolute path for one output file.
    pub fn out_path(&self, name: &str) -> PathBuf {
        self.results_dir.join(name)
    }

    /// The nine policy simulations (computed on first use, then cached).
    ///
    /// # Errors
    ///
    /// Propagates simulation-construction errors.
    pub fn policy_runs(&mut self) -> Result<&PolicyRuns, SieveError> {
        if self.runs.is_none() {
            self.runs = Some(self.compute_policy_runs()?);
        }
        Ok(self.runs.as_ref().expect("just computed"))
    }

    /// The §5.1 sensitivity sweeps (computed on first use, then cached).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn sens_sweeps(&mut self) -> Result<&sens::Sweeps, SieveError> {
        if self.sweeps.is_none() {
            self.sweeps = Some(sens::Sweeps::measure(self)?);
        }
        Ok(self.sweeps.as_ref().expect("just computed"))
    }

    /// Writes one day-boundary snapshot log (`sievestore-day-snapshot/v1`
    /// JSONL) per policy run under the results dir, returning the paths.
    /// For discrete policies the bytes are identical at any replay thread
    /// count, so these files double as cross-configuration fixtures.
    ///
    /// # Errors
    ///
    /// Propagates simulation-construction and file-write errors.
    pub fn write_day_snapshots(&mut self) -> Result<Vec<PathBuf>, SieveError> {
        let dir = self.results_dir.clone();
        std::fs::create_dir_all(&dir)?;
        let runs = self.policy_runs()?;
        let mut paths = Vec::new();
        for result in &runs.results {
            let slug: String = result
                .policy
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = dir.join(format!("snapshots_{slug}.jsonl"));
            std::fs::write(&path, SnapshotLog::from_result(result).to_jsonl())?;
            paths.push(path);
        }
        Ok(paths)
    }

    fn compute_policy_runs(&self) -> Result<PolicyRuns, SieveError> {
        let scale = self.scale();
        let (selections, ideal_covered, day_totals) = ideal_top_selections(&self.trace, 0.01);
        let imct = imct_entries_for_scale(scale);
        let two_tier = TwoTierConfig::paper_default().with_imct_entries(imct);

        let cfg16 = self.sim_config(SimConfig::paper_16gb(scale));
        let cfg32 = self.sim_config(SimConfig::paper_32gb(scale));

        let group16 = simulate_many(
            &self.trace,
            vec![
                PolicySpec::IdealTop1 { selections },
                PolicySpec::RandSieveBlkD {
                    fraction: 0.01,
                    seed: 0xB10C,
                },
                PolicySpec::SieveStoreD { threshold: 10 },
                PolicySpec::RandSieveC {
                    probability: 0.01,
                    seed: 0xC0FE,
                },
                PolicySpec::SieveStoreC(two_tier),
                PolicySpec::Aod,
                PolicySpec::Wmna,
            ],
            &cfg16,
        )?;
        let group32 = simulate_many(&self.trace, vec![PolicySpec::Aod, PolicySpec::Wmna], &cfg32)?;

        let mut results = group16;
        results.extend(group32);
        // Rename to the disambiguated report labels.
        for (result, &name) in results.iter_mut().zip(POLICY_ORDER.iter()) {
            if name.ends_with("GB") {
                result.policy = name.into();
            }
        }
        Ok(PolicyRuns {
            results,
            ideal_covered,
            day_totals,
        })
    }
}

/// A smoke harness over a results directory of its own. Tests run on
/// parallel threads and each deletes its directory when done, so two
/// tests must never be handed the same one.
#[cfg(test)]
pub(crate) fn test_harness(tag: &str) -> Harness {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sievestore-{tag}-{}-{n}", std::process::id()));
    Harness::smoke(dir).expect("smoke harness builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imct_sizing_scales() {
        assert_eq!(imct_entries_for_scale(1), 1 << 26);
        assert_eq!(imct_entries_for_scale(256), 1 << 18);
        assert_eq!(imct_entries_for_scale(1 << 30), 1 << 14);
    }

    #[test]
    fn smoke_harness_runs_all_policies() {
        let dir = std::env::temp_dir().join(format!("sievestore-harness-{}", std::process::id()));
        let mut h = Harness::smoke(&dir).unwrap();
        let runs = h.policy_runs().unwrap();
        assert_eq!(runs.results.len(), POLICY_ORDER.len());
        // Identical access totals across policies.
        let accesses: Vec<u64> = runs.results.iter().map(|r| r.total().accesses()).collect();
        assert!(accesses.windows(2).all(|w| w[0] == w[1]), "{accesses:?}");
        // Labels are disambiguated.
        assert_eq!(&*runs.by_name("AOD-32GB").policy, "AOD-32GB");
        assert_eq!(&*runs.by_name("Ideal").policy, "Ideal");
        // 32 GB caches are twice as large.
        assert_eq!(
            runs.by_name("AOD-32GB").capacity_blocks,
            2 * runs.by_name("AOD-16GB").capacity_blocks
        );
        let _ = runs.best_unsieved();
        std::fs::remove_dir_all(&dir).ok();
    }
}
