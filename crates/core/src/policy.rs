//! The allocation-policy abstraction and all policies from Table 3.
//!
//! A policy answers one question — *does this missing block get a cache
//! frame?* — plus, for the discrete policies, *which blocks are batch-
//! installed at an epoch boundary?* The paper's Table 3 enumerates:
//!
//! | Key | Policy | When is a block allocated? |
//! |---|---|---|
//! | AOD | Allocate-on-demand | on a miss |
//! | WMNA | Write-no-allocate | on a read-miss |
//! | SieveStore-D | access-count discrete batch-allocation | count ≥ t in an epoch → enters at the epoch end |
//! | SieveStore-C | lazy allocation | on the n-th miss in the recent window |
//!
//! plus the randomized baselines RandSieve-BlkD / RandSieve-C and the
//! clairvoyant ideal (top 1 % of each day's blocks).

use std::collections::HashSet;

use sievestore_extsort::{AccessCounter, CountingConfig, EpochCounter};
use sievestore_sieve::{
    random_block_selection, DiscreteSieve, RandomMissSieve, TwoTierConfig, TwoTierSieve,
};
use sievestore_types::{Day, Micros, RequestKind, SieveError};

/// Verdict for a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissDecision {
    /// Bring the block into the cache (incurs an allocation-write).
    Allocate,
    /// Serve the miss from the underlying ensemble; no cache change.
    Bypass,
}

impl MissDecision {
    /// Whether the decision allocates.
    pub const fn is_allocate(self) -> bool {
        matches!(self, MissDecision::Allocate)
    }
}

/// A cache-allocation policy (continuous or discrete).
///
/// Continuous policies decide per miss via
/// [`AllocationPolicy::on_miss`]; discrete policies bypass every miss and
/// instead return a batch selection from
/// [`AllocationPolicy::on_day_boundary`].
pub trait AllocationPolicy {
    /// Short identifier used in reports ("AOD", "SieveStore-C", ...).
    fn name(&self) -> &str;

    /// Observes every block access (hit or miss). Discrete access-count
    /// policies do their bookkeeping here.
    fn on_access(&mut self, _key: u64, _kind: RequestKind, _now: Micros) {}

    /// Observes a cache hit.
    fn on_hit(&mut self, _key: u64, _kind: RequestKind, _now: Micros) {}

    /// Decides a cache miss.
    fn on_miss(&mut self, key: u64, kind: RequestKind, now: Micros) -> MissDecision;

    /// Called when calendar day `day` begins. A `Some` return is the exact
    /// set to batch-install for the new epoch (discrete policies);
    /// `None` leaves the cache contents alone (continuous policies).
    fn on_day_boundary(&mut self, _day: Day) -> Option<Vec<u64>> {
        None
    }

    /// Whether the policy uses epoch-batched (discrete) caching.
    fn is_discrete(&self) -> bool {
        false
    }

    /// Hints that `key` is about to be accessed, so a policy with large
    /// in-memory metastate can start fetching it. Purely a performance
    /// hint: it must change no state, and callers may skip it.
    fn prefetch(&self, _key: u64) {}
}

/// Allocate-on-demand: every miss allocates.
///
/// # Examples
///
/// ```
/// use sievestore::policy::{AllocationPolicy, Aod, MissDecision};
/// use sievestore_types::{Micros, RequestKind};
///
/// let mut aod = Aod::new();
/// let d = aod.on_miss(1, RequestKind::Write, Micros::new(0));
/// assert_eq!(d, MissDecision::Allocate);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Aod;

impl Aod {
    /// Creates the policy.
    pub fn new() -> Self {
        Aod
    }
}

impl AllocationPolicy for Aod {
    fn name(&self) -> &str {
        "AOD"
    }

    fn on_miss(&mut self, _key: u64, _kind: RequestKind, _now: Micros) -> MissDecision {
        MissDecision::Allocate
    }
}

/// Write-miss-no-allocate: only read misses allocate.
///
/// # Examples
///
/// ```
/// use sievestore::policy::{AllocationPolicy, MissDecision, Wmna};
/// use sievestore_types::{Micros, RequestKind};
///
/// let mut wmna = Wmna::new();
/// assert_eq!(wmna.on_miss(1, RequestKind::Read, Micros::new(0)), MissDecision::Allocate);
/// assert_eq!(wmna.on_miss(1, RequestKind::Write, Micros::new(0)), MissDecision::Bypass);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Wmna;

impl Wmna {
    /// Creates the policy.
    pub fn new() -> Self {
        Wmna
    }
}

impl AllocationPolicy for Wmna {
    fn name(&self) -> &str {
        "WMNA"
    }

    fn on_miss(&mut self, _key: u64, kind: RequestKind, _now: Micros) -> MissDecision {
        if kind.is_read() {
            MissDecision::Allocate
        } else {
            MissDecision::Bypass
        }
    }
}

/// SieveStore-C: hysteresis-based lazy allocation through the two-tier
/// IMCT/MCT sieve.
///
/// # Examples
///
/// ```
/// use sievestore::policy::SieveStoreC;
/// use sievestore_sieve::TwoTierConfig;
///
/// let policy = SieveStoreC::new(TwoTierConfig::paper_default()).unwrap();
/// assert_eq!(sievestore::policy::AllocationPolicy::name(&policy), "SieveStore-C");
/// ```
#[derive(Debug, Clone)]
pub struct SieveStoreC {
    sieve: TwoTierSieve,
}

impl SieveStoreC {
    /// Creates the policy with the given sieve parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if the sieve config is
    /// invalid.
    pub fn new(config: TwoTierConfig) -> Result<Self, SieveError> {
        Ok(SieveStoreC {
            sieve: TwoTierSieve::new(config)?,
        })
    }

    /// Creates shard `shard` of the policy split across `shards` parallel
    /// replay workers: its sieve owns the matching slice of the logical
    /// IMCT (see [`TwoTierSieve::for_shard`]) and, fed only its
    /// partition's misses, reproduces the whole sieve's decisions for
    /// those keys exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `shards` does not divide
    /// `config.imct_entries` or `shard` is out of range.
    pub fn for_shard(
        config: TwoTierConfig,
        shard: usize,
        shards: usize,
    ) -> Result<Self, SieveError> {
        Ok(SieveStoreC {
            sieve: TwoTierSieve::for_shard(config, shard, shards)?,
        })
    }

    /// Access to the underlying sieve (metastate diagnostics).
    pub fn sieve(&self) -> &TwoTierSieve {
        &self.sieve
    }
}

impl AllocationPolicy for SieveStoreC {
    fn name(&self) -> &str {
        "SieveStore-C"
    }

    fn on_miss(&mut self, key: u64, _kind: RequestKind, now: Micros) -> MissDecision {
        if self.sieve.on_miss(key, now) {
            MissDecision::Allocate
        } else {
            MissDecision::Bypass
        }
    }

    fn prefetch(&self, key: u64) {
        self.sieve.prefetch(key);
    }
}

/// RandSieve-C: allocates a random fraction of misses.
#[derive(Debug, Clone)]
pub struct RandSieveC {
    sieve: RandomMissSieve,
}

impl RandSieveC {
    /// Creates the policy; the paper samples 1 % of misses.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `probability` is outside
    /// `[0, 1]`.
    pub fn new(probability: f64, seed: u64) -> Result<Self, SieveError> {
        Ok(RandSieveC {
            sieve: RandomMissSieve::new(probability, seed)?,
        })
    }
}

impl AllocationPolicy for RandSieveC {
    fn name(&self) -> &str {
        "RandSieve-C"
    }

    fn on_miss(&mut self, _key: u64, _kind: RequestKind, _now: Micros) -> MissDecision {
        if self.sieve.on_miss() {
            MissDecision::Allocate
        } else {
            MissDecision::Bypass
        }
    }
}

/// SieveStore-D: counts every access during the day and batch-installs the
/// blocks whose count reached the threshold at the day boundary.
///
/// Misses never allocate mid-epoch; day 0 bootstraps with an empty cache.
/// The counting substrate is chosen by a
/// [`CountingConfig`]: the in-memory epoch table (default; one slot per
/// key, emptied in place at each boundary, prefetchable) or the budgeted
/// spill-to-disk log for epochs whose distinct-key population exceeds RAM
/// — the selection at each boundary is identical either way.
#[derive(Debug)]
pub struct SieveStoreD {
    sieve: DiscreteSieve<EpochCounter>,
    counting: CountingConfig,
}

impl SieveStoreD {
    /// Creates the policy with the paper's threshold of 10 accesses/day.
    pub fn paper_default() -> Self {
        Self::new(DiscreteSieve::<EpochCounter>::PAPER_THRESHOLD).expect("paper threshold is valid")
    }

    /// Creates the policy with a custom threshold over in-memory counting.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `threshold == 0`.
    pub fn new(threshold: u64) -> Result<Self, SieveError> {
        Self::with_counting(threshold, CountingConfig::InMemory)
    }

    /// Creates the policy over an explicit counting backend.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `threshold == 0`, or a
    /// storage error if the spill backend cannot be set up.
    pub fn with_counting(threshold: u64, counting: CountingConfig) -> Result<Self, SieveError> {
        Ok(SieveStoreD {
            sieve: DiscreteSieve::new(counting.counter()?, threshold)?,
            counting,
        })
    }

    /// The allocation threshold.
    pub fn threshold(&self) -> u64 {
        self.sieve.threshold()
    }

    /// The counting backend configuration.
    pub fn counting(&self) -> &CountingConfig {
        &self.counting
    }
}

impl AllocationPolicy for SieveStoreD {
    fn name(&self) -> &str {
        "SieveStore-D"
    }

    fn on_access(&mut self, key: u64, _kind: RequestKind, _now: Micros) {
        self.sieve.record_access(key);
    }

    fn on_miss(&mut self, _key: u64, _kind: RequestKind, _now: Micros) -> MissDecision {
        MissDecision::Bypass
    }

    /// # Panics
    ///
    /// Panics if the counting substrate fails at the boundary (spill-log
    /// I/O); the infallible trait signature has nowhere to surface it.
    fn on_day_boundary(&mut self, _day: Day) -> Option<Vec<u64>> {
        let next = self
            .counting
            .counter()
            .expect("epoch counting backend failed to restart");
        Some(self.sieve.end_epoch(next).expect("access counting failed"))
    }

    fn is_discrete(&self) -> bool {
        true
    }

    fn prefetch(&self, key: u64) {
        self.sieve.counter().prefetch(key);
    }
}

/// RandSieve-BlkD: batch-installs a random fraction of the blocks accessed
/// in the previous day.
#[derive(Debug)]
pub struct RandSieveBlkD {
    accessed: HashSet<u64>,
    fraction: f64,
    seed: u64,
    epoch: u64,
}

impl RandSieveBlkD {
    /// Creates the policy; the paper samples 1 % of accessed blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `fraction` is outside
    /// `[0, 1]`.
    pub fn new(fraction: f64, seed: u64) -> Result<Self, SieveError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(SieveError::InvalidConfig(format!(
                "selection fraction must be in [0,1], got {fraction}"
            )));
        }
        Ok(RandSieveBlkD {
            accessed: HashSet::new(),
            fraction,
            seed,
            epoch: 0,
        })
    }
}

impl AllocationPolicy for RandSieveBlkD {
    fn name(&self) -> &str {
        "RandSieve-BlkD"
    }

    fn on_access(&mut self, key: u64, _kind: RequestKind, _now: Micros) {
        self.accessed.insert(key);
    }

    fn on_miss(&mut self, _key: u64, _kind: RequestKind, _now: Micros) -> MissDecision {
        MissDecision::Bypass
    }

    fn on_day_boundary(&mut self, _day: Day) -> Option<Vec<u64>> {
        let mut accessed: Vec<u64> = self.accessed.drain().collect();
        accessed.sort_unstable(); // determinism independent of hash order
        self.epoch += 1;
        Some(random_block_selection(
            accessed.into_iter(),
            self.fraction,
            self.seed ^ self.epoch,
        ))
    }

    fn is_discrete(&self) -> bool {
        true
    }
}

/// The clairvoyant ideal: at the start of day *d* the cache is loaded with
/// exactly day *d*'s top-1 % most-accessed blocks (precomputed by an
/// oracle pre-pass over the trace).
#[derive(Debug, Clone)]
pub struct IdealTop1 {
    /// Per-day selections, indexed by day.
    selections: Vec<Vec<u64>>,
}

impl IdealTop1 {
    /// Creates the oracle with one selection per day.
    pub fn new(selections: Vec<Vec<u64>>) -> Self {
        IdealTop1 { selections }
    }

    /// Number of days covered.
    pub fn days(&self) -> usize {
        self.selections.len()
    }
}

impl AllocationPolicy for IdealTop1 {
    fn name(&self) -> &str {
        "Ideal"
    }

    fn on_miss(&mut self, _key: u64, _kind: RequestKind, _now: Micros) -> MissDecision {
        MissDecision::Bypass
    }

    fn on_day_boundary(&mut self, day: Day) -> Option<Vec<u64>> {
        Some(
            self.selections
                .get(day.as_usize())
                .cloned()
                .unwrap_or_default(),
        )
    }

    fn is_discrete(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn now() -> Micros {
        Micros::from_hours(1)
    }

    #[test]
    fn aod_always_allocates() {
        let mut p = Aod::new();
        assert!(p.on_miss(1, RequestKind::Read, now()).is_allocate());
        assert!(p.on_miss(1, RequestKind::Write, now()).is_allocate());
        assert!(!p.is_discrete());
        assert_eq!(p.name(), "AOD");
    }

    #[test]
    fn wmna_allocates_read_misses_only() {
        let mut p = Wmna::new();
        assert!(p.on_miss(1, RequestKind::Read, now()).is_allocate());
        assert!(!p.on_miss(1, RequestKind::Write, now()).is_allocate());
        assert!(p.on_day_boundary(Day::new(1)).is_none());
    }

    #[test]
    fn sievestore_c_requires_repeated_misses() {
        let cfg = TwoTierConfig::paper_default()
            .with_imct_entries(1 << 12)
            .with_thresholds(2, 1);
        let mut p = SieveStoreC::new(cfg).unwrap();
        assert!(!p.on_miss(9, RequestKind::Read, now()).is_allocate());
        assert!(!p.on_miss(9, RequestKind::Read, now()).is_allocate());
        assert!(p.on_miss(9, RequestKind::Read, now()).is_allocate());
        assert_eq!(p.sieve().granted(), 1);
    }

    #[test]
    fn sievestore_d_is_discrete_and_thresholded() {
        let mut p = SieveStoreD::new(3).unwrap();
        assert!(p.is_discrete());
        assert_eq!(p.threshold(), 3);
        for _ in 0..3 {
            p.on_access(5, RequestKind::Read, now());
        }
        p.on_access(6, RequestKind::Read, now());
        // Misses never allocate mid-epoch.
        assert!(!p.on_miss(5, RequestKind::Read, now()).is_allocate());
        let selected = p.on_day_boundary(Day::new(1)).unwrap();
        assert_eq!(selected, vec![5]);
        // The next epoch starts fresh.
        let selected = p.on_day_boundary(Day::new(2)).unwrap();
        assert!(selected.is_empty());
    }

    #[test]
    fn sievestore_d_paper_default_threshold_is_10() {
        assert_eq!(SieveStoreD::paper_default().threshold(), 10);
        assert!(SieveStoreD::new(0).is_err());
    }

    #[test]
    fn sievestore_d_selection_is_backend_independent() {
        let dir = std::env::temp_dir().join(format!("sievestore-polspill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let configs = [
            CountingConfig::InMemory,
            CountingConfig::spill(&dir).with_budget(8),
        ];
        let mut selections = Vec::new();
        for counting in configs {
            let mut p = SieveStoreD::with_counting(3, counting).unwrap();
            for k in 0..100u64 {
                for _ in 0..(k % 5) {
                    p.on_access(k, RequestKind::Read, now());
                }
            }
            selections.push(p.on_day_boundary(Day::new(1)).unwrap());
        }
        assert!(!selections[0].is_empty());
        assert_eq!(selections[0], selections[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rand_blkd_selects_fraction_of_accessed() {
        let mut p = RandSieveBlkD::new(0.1, 7).unwrap();
        for k in 0..1000u64 {
            p.on_access(k, RequestKind::Read, now());
        }
        assert!(!p.on_miss(1, RequestKind::Read, now()).is_allocate());
        let sel = p.on_day_boundary(Day::new(1)).unwrap();
        assert_eq!(sel.len(), 100);
        assert!(sel.iter().all(|&k| k < 1000));
        // Second epoch saw no accesses.
        assert!(p.on_day_boundary(Day::new(2)).unwrap().is_empty());
        assert!(RandSieveBlkD::new(1.5, 0).is_err());
    }

    #[test]
    fn rand_c_respects_probability_extremes() {
        let mut never = RandSieveC::new(0.0, 1).unwrap();
        assert!((0..100).all(|_| !never.on_miss(1, RequestKind::Read, now()).is_allocate()));
        let mut always = RandSieveC::new(1.0, 1).unwrap();
        assert!((0..100).all(|_| always.on_miss(1, RequestKind::Read, now()).is_allocate()));
        assert!(RandSieveC::new(-0.1, 0).is_err());
    }

    #[test]
    fn ideal_returns_per_day_selections() {
        let mut p = IdealTop1::new(vec![vec![1, 2], vec![3]]);
        assert_eq!(p.days(), 2);
        assert_eq!(p.on_day_boundary(Day::new(0)).unwrap(), vec![1, 2]);
        assert_eq!(p.on_day_boundary(Day::new(1)).unwrap(), vec![3]);
        assert!(p.on_day_boundary(Day::new(5)).unwrap().is_empty());
        assert!(!p.on_miss(1, RequestKind::Read, now()).is_allocate());
    }

    #[test]
    fn policies_compose_as_trait_objects() {
        let mut policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(Aod::new()),
            Box::new(Wmna::new()),
            Box::new(SieveStoreD::paper_default()),
        ];
        for p in &mut policies {
            let _ = p.on_miss(1, RequestKind::Read, now());
        }
        assert_eq!(policies[2].name(), "SieveStore-D");
    }
}
