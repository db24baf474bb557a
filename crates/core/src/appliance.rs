//! The SieveStore appliance: a policy-driven, ensemble-level block cache.
//!
//! [`SieveStore`] is the deployable unit the paper sketches — a transparent
//! box that sits in front of a storage ensemble, absorbs block accesses,
//! and serves the sieved hot set from solid-state media. It combines an
//! [`AllocationPolicy`] with the matching cache organization (LRU for
//! continuous policies, epoch-batched for discrete ones) and keeps running
//! totals of hits, bypasses and allocation-writes.
//!
//! # Examples
//!
//! ```
//! use sievestore::{PolicySpec, SieveStoreBuilder};
//! use sievestore_types::{Micros, RequestKind};
//!
//! # fn main() -> Result<(), sievestore_types::SieveError> {
//! let mut store = SieveStoreBuilder::new()
//!     .capacity_blocks(1024)
//!     .policy(PolicySpec::Aod)
//!     .build()?;
//!
//! let t = Micros::from_secs(1);
//! let first = store.access(42, RequestKind::Read, t);
//! assert!(first.is_miss());
//! let second = store.access(42, RequestKind::Read, t);
//! assert!(second.is_hit());
//! # Ok(())
//! # }
//! ```

use sievestore_cache::{BatchCache, EpochTransition, EvictionPolicy, LruCache, SieveCache};
use sievestore_extsort::CountingConfig;
use sievestore_sieve::TwoTierConfig;
use sievestore_types::{Day, Micros, RequestKind, SieveError};

use crate::policy::{
    AllocationPolicy, Aod, IdealTop1, MissDecision, RandSieveBlkD, RandSieveC, SieveStoreC,
    SieveStoreD, Wmna,
};

/// What happened to one block access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was resident; served from the SSD.
    Hit,
    /// The block missed and the policy declined to allocate.
    BypassMiss,
    /// The block missed and was allocated (an allocation-write), possibly
    /// evicting another block.
    AllocatedMiss {
        /// The block evicted to make room, if the cache was full.
        evicted: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// Whether the access missed (bypassed or allocated).
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// Whether the access triggered an allocation-write.
    pub const fn is_allocation(self) -> bool {
        matches!(self, AccessOutcome::AllocatedMiss { .. })
    }
}

/// Running totals kept by the appliance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplianceStats {
    /// Read hits (served from the SSD).
    pub read_hits: u64,
    /// Write hits (written to the SSD).
    pub write_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Allocation-writes performed.
    pub allocation_writes: u64,
    /// Blocks moved in by epoch installations (discrete policies).
    pub batch_allocations: u64,
}

impl ApplianceStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.write_hits + self.read_misses + self.write_misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Hit ratio over all accesses (0 when nothing was accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// Declarative policy selection for [`SieveStoreBuilder`].
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// Allocate-on-demand (unsieved).
    Aod,
    /// Write-miss-no-allocate (unsieved).
    Wmna,
    /// SieveStore-C with the given two-tier sieve parameters.
    SieveStoreC(TwoTierConfig),
    /// SieveStore-D with the given per-epoch access-count threshold.
    SieveStoreD {
        /// Allocation threshold `t` (the paper uses 10).
        threshold: u64,
    },
    /// RandSieve-C: allocate each miss with this probability.
    RandSieveC {
        /// Admission probability (the paper uses 0.01).
        probability: f64,
        /// RNG seed.
        seed: u64,
    },
    /// RandSieve-BlkD: batch-install a random fraction of each day's
    /// accessed blocks.
    RandSieveBlkD {
        /// Selection fraction (the paper uses 0.01).
        fraction: f64,
        /// RNG seed.
        seed: u64,
    },
    /// The clairvoyant per-day oracle, with precomputed selections.
    IdealTop1 {
        /// Day-indexed block selections.
        selections: Vec<Vec<u64>>,
    },
}

impl PolicySpec {
    /// The report name of the policy this spec builds.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Aod => "AOD",
            PolicySpec::Wmna => "WMNA",
            PolicySpec::SieveStoreC(_) => "SieveStore-C",
            PolicySpec::SieveStoreD { .. } => "SieveStore-D",
            PolicySpec::RandSieveC { .. } => "RandSieve-C",
            PolicySpec::RandSieveBlkD { .. } => "RandSieve-BlkD",
            PolicySpec::IdealTop1 { .. } => "Ideal",
        }
    }

    /// Whether this spec builds a discrete (epoch-batched) policy.
    pub fn is_discrete(&self) -> bool {
        matches!(
            self,
            PolicySpec::SieveStoreD { .. }
                | PolicySpec::RandSieveBlkD { .. }
                | PolicySpec::IdealTop1 { .. }
        )
    }

    /// Builds the policy with an explicit epoch-counting backend for
    /// SieveStore-D (other policies ignore it).
    fn build_with_counting(
        self,
        counting: &CountingConfig,
    ) -> Result<Box<dyn AllocationPolicy + Send>, SieveError> {
        Ok(match self {
            PolicySpec::Aod => Box::new(Aod::new()),
            PolicySpec::Wmna => Box::new(Wmna::new()),
            PolicySpec::SieveStoreC(cfg) => Box::new(SieveStoreC::new(cfg)?),
            PolicySpec::SieveStoreD { threshold } => {
                Box::new(SieveStoreD::with_counting(threshold, counting.clone())?)
            }
            PolicySpec::RandSieveC { probability, seed } => {
                Box::new(RandSieveC::new(probability, seed)?)
            }
            PolicySpec::RandSieveBlkD { fraction, seed } => {
                Box::new(RandSieveBlkD::new(fraction, seed)?)
            }
            PolicySpec::IdealTop1 { selections } => Box::new(IdealTop1::new(selections)),
        })
    }

    /// Builds shard `shard` of a continuous policy split across `shards`
    /// hash-partitioned replay workers. AOD/WMNA are stateless per key
    /// and build unchanged; SieveStore-C builds with a sliced IMCT;
    /// RandSieve-C reseeds per shard (shard 0 keeps the original seed so
    /// a one-shard run is identical to the sequential policy).
    ///
    /// Discrete policies cannot be built per shard — their epoch batch
    /// cache is a global structure the replay engine synchronizes at day
    /// boundaries instead.
    fn build_sharded(
        self,
        shard: usize,
        shards: usize,
    ) -> Result<Box<dyn AllocationPolicy + Send>, SieveError> {
        if shard >= shards {
            return Err(SieveError::InvalidConfig(format!(
                "shard index {shard} out of range for {shards} shards"
            )));
        }
        Ok(match self {
            PolicySpec::Aod => Box::new(Aod::new()),
            PolicySpec::Wmna => Box::new(Wmna::new()),
            PolicySpec::SieveStoreC(cfg) => Box::new(SieveStoreC::for_shard(cfg, shard, shards)?),
            PolicySpec::RandSieveC { probability, seed } => {
                let seed = if shard == 0 {
                    seed
                } else {
                    seed ^ sievestore_types::mix64(shard as u64)
                };
                Box::new(RandSieveC::new(probability, seed)?)
            }
            discrete => {
                return Err(SieveError::InvalidConfig(format!(
                    "discrete policy {} cannot be built per shard; \
                     the replay engine batches it at epoch boundaries",
                    discrete.name()
                )))
            }
        })
    }
}

/// Builder for [`SieveStore`].
#[derive(Debug)]
pub struct SieveStoreBuilder {
    capacity_blocks: usize,
    policy: PolicySpec,
    eviction: EvictionPolicy,
    sharding: Option<(usize, usize)>,
    counting: CountingConfig,
}

impl SieveStoreBuilder {
    /// Starts a builder with a 16 GB-equivalent cache, SieveStore-C
    /// paper defaults, and LRU eviction.
    pub fn new() -> Self {
        SieveStoreBuilder {
            capacity_blocks: sievestore_types::gib_to_blocks(16) as usize,
            policy: PolicySpec::SieveStoreC(TwoTierConfig::paper_default()),
            eviction: EvictionPolicy::default(),
            sharding: None,
            counting: CountingConfig::InMemory,
        }
    }

    /// Sets the cache capacity in 512-byte frames.
    ///
    /// Under [`SieveStoreBuilder::shard`], this is the *total* capacity
    /// of the logical cache; the built shard receives its even split
    /// (remainder frames go to the lowest-numbered shards).
    #[must_use]
    pub fn capacity_blocks(mut self, blocks: usize) -> Self {
        self.capacity_blocks = blocks;
        self
    }

    /// Sets the allocation policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the block-cache eviction policy for continuous allocation
    /// policies (LRU by default, or SIEVE for the lock-free hit path).
    /// Discrete policies use the epoch-batched cache regardless.
    #[must_use]
    pub fn eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Sets the epoch-counting backend SieveStore-D runs over (in-memory
    /// by default; spill-to-disk for epochs whose distinct-key population
    /// exceeds RAM). Other policies ignore it.
    #[must_use]
    pub fn counting(mut self, counting: CountingConfig) -> Self {
        self.counting = counting;
        self
    }

    /// Builds the appliance as shard `shard` of `shards` hash-partitioned
    /// replay workers: the policy's metastate is sliced to the shard's
    /// key partition and the capacity is split evenly. Only continuous
    /// policies support this (discrete policies batch globally at epoch
    /// boundaries instead — the replay engine handles them separately).
    #[must_use]
    pub fn shard(mut self, shard: usize, shards: usize) -> Self {
        self.sharding = Some((shard, shards));
        self
    }

    /// Builds the appliance.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for a zero capacity, an
    /// invalid policy configuration, or an unsatisfiable shard split.
    pub fn build(self) -> Result<SieveStore, SieveError> {
        if self.capacity_blocks == 0 {
            return Err(SieveError::InvalidConfig(
                "cache capacity must be nonzero".into(),
            ));
        }
        let (policy, capacity) = match self.sharding {
            None => (
                self.policy.build_with_counting(&self.counting)?,
                self.capacity_blocks,
            ),
            Some((shard, shards)) => {
                if shards == 0 {
                    return Err(SieveError::InvalidConfig("shard count must be > 0".into()));
                }
                let base = self.capacity_blocks / shards;
                let extra = usize::from(shard < self.capacity_blocks % shards);
                (
                    self.policy.build_sharded(shard, shards)?,
                    (base + extra).max(1),
                )
            }
        };
        let cache = if policy.is_discrete() {
            CacheKind::Batch(BatchCache::new(capacity))
        } else {
            match self.eviction {
                EvictionPolicy::Lru => CacheKind::Lru(LruCache::new(capacity)),
                EvictionPolicy::Sieve => CacheKind::Sieve(SieveCache::new(capacity)),
            }
        };
        Ok(SieveStore {
            cache,
            policy,
            stats: ApplianceStats::default(),
        })
    }
}

impl Default for SieveStoreBuilder {
    fn default() -> Self {
        SieveStoreBuilder::new()
    }
}

#[derive(Debug)]
enum CacheKind {
    Lru(LruCache),
    Sieve(SieveCache),
    Batch(BatchCache),
}

/// The SieveStore appliance. See the [module docs](self) for an example.
pub struct SieveStore {
    cache: CacheKind,
    policy: Box<dyn AllocationPolicy + Send>,
    stats: ApplianceStats,
}

impl std::fmt::Debug for SieveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SieveStore")
            .field("policy", &self.policy.name())
            .field("capacity", &self.capacity_blocks())
            .field("resident", &self.len_blocks())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SieveStore {
    /// Processes one 512-byte block access.
    pub fn access(&mut self, key: u64, kind: RequestKind, now: Micros) -> AccessOutcome {
        self.policy.on_access(key, kind, now);
        let hit = match &mut self.cache {
            CacheKind::Lru(c) => c.touch(key),
            CacheKind::Sieve(c) => c.touch(key),
            CacheKind::Batch(c) => c.contains(key),
        };
        if hit {
            self.policy.on_hit(key, kind, now);
            match kind {
                RequestKind::Read => self.stats.read_hits += 1,
                RequestKind::Write => self.stats.write_hits += 1,
            }
            return AccessOutcome::Hit;
        }
        match kind {
            RequestKind::Read => self.stats.read_misses += 1,
            RequestKind::Write => self.stats.write_misses += 1,
        }
        match self.policy.on_miss(key, kind, now) {
            MissDecision::Bypass => AccessOutcome::BypassMiss,
            MissDecision::Allocate => {
                self.stats.allocation_writes += 1;
                let evicted = match &mut self.cache {
                    CacheKind::Lru(c) => c.insert(key),
                    CacheKind::Sieve(c) => c.insert(key),
                    // Discrete policies never reach here (they always
                    // bypass), but allocate-into-batch is well-defined:
                    // treat it as an epoch-local install.
                    CacheKind::Batch(_) => None,
                };
                AccessOutcome::AllocatedMiss { evicted }
            }
        }
    }

    /// Hints that `key` is about to be [`access`](SieveStore::access)ed.
    /// Issuing it for every block of a request before accessing the
    /// first overlaps the cache misses on the policy's metastate (the
    /// IMCT slot, or SieveStore-D's counter slot and epoch-cache slot);
    /// it never changes an outcome.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.policy.prefetch(key);
        if let CacheKind::Batch(c) = &self.cache {
            c.prefetch(key);
        }
    }

    /// Signals the start of calendar day `day`. Discrete policies install
    /// their batch selection; the returned transition reports the moves
    /// (allocation-writes for newly installed blocks are added to the
    /// stats).
    pub fn day_boundary(&mut self, day: Day) -> Option<EpochTransition> {
        let selection = self.policy.on_day_boundary(day)?;
        match &mut self.cache {
            CacheKind::Batch(c) => {
                let transition = c.install_epoch(selection);
                self.stats.batch_allocations += transition.allocated.len() as u64;
                self.stats.allocation_writes += transition.allocated.len() as u64;
                Some(transition)
            }
            CacheKind::Lru(_) | CacheKind::Sieve(_) => None,
        }
    }

    /// Installs `keys` as resident without consulting the policy or
    /// touching the stats — crash recovery rebuilding a warm cache from
    /// durable media. Keys beyond capacity may be dropped or evict
    /// earlier ones (recovering into a smaller cache than the one that
    /// crashed); callers should re-check [`SieveStore::contains`] for
    /// each key afterwards.
    ///
    /// LRU caches insert in iteration order (later keys end up more
    /// recently used); epoch-batched caches install the set as the
    /// current epoch's selection.
    pub fn warm(&mut self, keys: impl IntoIterator<Item = u64>) {
        match &mut self.cache {
            CacheKind::Lru(c) => {
                for key in keys {
                    if !c.contains(key) {
                        c.insert(key);
                    }
                }
            }
            CacheKind::Sieve(c) => {
                for key in keys {
                    if !c.contains(key) {
                        c.insert(key);
                    }
                }
            }
            CacheKind::Batch(c) => {
                c.install_epoch(keys);
            }
        }
    }

    /// The policy's report name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether the appliance uses epoch-batched caching.
    pub fn is_discrete(&self) -> bool {
        self.policy.is_discrete()
    }

    /// Cache capacity in 512-byte frames.
    pub fn capacity_blocks(&self) -> usize {
        match &self.cache {
            CacheKind::Lru(c) => c.capacity(),
            CacheKind::Sieve(c) => c.capacity(),
            CacheKind::Batch(c) => c.capacity(),
        }
    }

    /// Currently resident frames.
    pub fn len_blocks(&self) -> usize {
        match &self.cache {
            CacheKind::Lru(c) => c.len(),
            CacheKind::Sieve(c) => c.len(),
            CacheKind::Batch(c) => c.len(),
        }
    }

    /// Whether a block is resident (no recency side effects).
    pub fn contains(&self, key: u64) -> bool {
        match &self.cache {
            CacheKind::Lru(c) => c.contains(key),
            CacheKind::Sieve(c) => c.contains(key),
            CacheKind::Batch(c) => c.contains(key),
        }
    }

    /// Running totals.
    pub fn stats(&self) -> &ApplianceStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Micros {
        Micros::from_hours(1)
    }

    fn build(policy: PolicySpec, capacity: usize) -> SieveStore {
        SieveStoreBuilder::new()
            .capacity_blocks(capacity)
            .policy(policy)
            .build()
            .expect("valid appliance config")
    }

    #[test]
    fn builder_rejects_zero_capacity() {
        assert!(SieveStoreBuilder::new().capacity_blocks(0).build().is_err());
    }

    #[test]
    fn aod_appliance_hits_after_allocation() {
        let mut store = build(PolicySpec::Aod, 8);
        assert_eq!(
            store.access(1, RequestKind::Read, t()),
            AccessOutcome::AllocatedMiss { evicted: None }
        );
        assert_eq!(store.access(1, RequestKind::Read, t()), AccessOutcome::Hit);
        let s = store.stats();
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.allocation_writes, 1);
        assert_eq!(s.accesses(), 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aod_eviction_is_reported() {
        let mut store = build(PolicySpec::Aod, 1);
        store.access(1, RequestKind::Read, t());
        let outcome = store.access(2, RequestKind::Read, t());
        assert_eq!(outcome, AccessOutcome::AllocatedMiss { evicted: Some(1) });
        assert!(!store.contains(1));
    }

    #[test]
    fn wmna_bypasses_write_misses() {
        let mut store = build(PolicySpec::Wmna, 8);
        assert_eq!(
            store.access(1, RequestKind::Write, t()),
            AccessOutcome::BypassMiss
        );
        assert!(!store.contains(1));
        assert!(store.access(1, RequestKind::Read, t()).is_allocation());
        // A write to a resident block is a write hit.
        assert_eq!(store.access(1, RequestKind::Write, t()), AccessOutcome::Hit);
        assert_eq!(store.stats().write_hits, 1);
    }

    #[test]
    fn sievestore_d_day_cycle() {
        let mut store = build(PolicySpec::SieveStoreD { threshold: 3 }, 16);
        assert!(store.is_discrete());
        // Day 0: all misses bypass, but accesses are counted.
        for _ in 0..3 {
            assert_eq!(
                store.access(7, RequestKind::Read, t()),
                AccessOutcome::BypassMiss
            );
        }
        store.access(8, RequestKind::Read, t());
        assert_eq!(store.stats().allocation_writes, 0);
        // Day boundary: block 7 earned residency.
        let transition = store.day_boundary(Day::new(1)).expect("discrete installs");
        assert_eq!(transition.allocated, vec![7]);
        assert!(store.contains(7));
        assert!(!store.contains(8));
        assert_eq!(store.stats().allocation_writes, 1);
        assert_eq!(store.stats().batch_allocations, 1);
        // Day 1: hits on the installed block.
        assert_eq!(store.access(7, RequestKind::Write, t()), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_hints_change_no_sievestore_d_outcome() {
        let mut plain = build(PolicySpec::SieveStoreD { threshold: 3 }, 64);
        let mut hinted = build(PolicySpec::SieveStoreD { threshold: 3 }, 64);
        for i in 0..40_000u64 {
            if i % 5000 == 0 {
                let day = Day::new((i / 5000) as u16);
                assert_eq!(hinted.day_boundary(day), plain.day_boundary(day));
            }
            let key = if i % 3 == 0 { i % 97 } else { i % 1009 };
            // Hints for the key itself, for keys never accessed, and none.
            match i % 4 {
                0 => hinted.prefetch(key),
                1 => (0..8).for_each(|j| hinted.prefetch(i.wrapping_mul(31) + j)),
                2 => hinted.prefetch(u64::MAX - i),
                _ => {}
            }
            assert_eq!(
                hinted.access(key, RequestKind::Read, t()),
                plain.access(key, RequestKind::Read, t()),
                "access {i}"
            );
        }
        assert!(plain.stats().hits() > 0 && plain.stats().batch_allocations > 0);
        assert_eq!(hinted.stats(), plain.stats());
    }

    #[test]
    fn ideal_oracle_preloads_each_day() {
        let mut store = build(
            PolicySpec::IdealTop1 {
                selections: vec![vec![1, 2], vec![2, 3]],
            },
            16,
        );
        store.day_boundary(Day::new(0));
        assert!(store.contains(1) && store.contains(2));
        let transition = store.day_boundary(Day::new(1)).unwrap();
        assert_eq!(transition.allocated, vec![3]);
        assert_eq!(transition.retained, 1);
        assert_eq!(transition.evicted, 1);
        assert!(!store.contains(1));
    }

    #[test]
    fn continuous_policies_ignore_day_boundaries() {
        let mut store = build(PolicySpec::Aod, 4);
        assert!(store.day_boundary(Day::new(1)).is_none());
    }

    #[test]
    fn sievestore_c_appliance_sieves_cold_misses() {
        let cfg = TwoTierConfig::paper_default().with_imct_entries(1 << 14);
        let mut store = build(PolicySpec::SieveStoreC(cfg), 1024);
        // 1000 one-touch blocks: no allocations.
        for k in 0..1000u64 {
            assert_eq!(
                store.access(k, RequestKind::Read, t()),
                AccessOutcome::BypassMiss
            );
        }
        assert_eq!(store.stats().allocation_writes, 0);
        // One hot block eventually earns its frame and then hits.
        let mut allocated_at = None;
        for i in 1..=20 {
            if store
                .access(u64::MAX, RequestKind::Read, t())
                .is_allocation()
            {
                allocated_at = Some(i);
                break;
            }
        }
        assert_eq!(allocated_at, Some(13), "t1=9 + t2=4 misses");
        assert_eq!(
            store.access(u64::MAX, RequestKind::Read, t()),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn sieve_eviction_appliance_hits_and_evicts() {
        let mut store = SieveStoreBuilder::new()
            .capacity_blocks(2)
            .policy(PolicySpec::Aod)
            .eviction(EvictionPolicy::Sieve)
            .build()
            .expect("valid appliance config");
        assert_eq!(
            store.access(1, RequestKind::Read, t()),
            AccessOutcome::AllocatedMiss { evicted: None }
        );
        store.access(2, RequestKind::Read, t());
        // Hit on 1 sets its visited bit; the hand then spares it and
        // evicts 2 — LRU would have made the same call here, but via a
        // list move instead of a bit flip.
        assert_eq!(store.access(1, RequestKind::Read, t()), AccessOutcome::Hit);
        assert_eq!(
            store.access(3, RequestKind::Read, t()),
            AccessOutcome::AllocatedMiss { evicted: Some(2) }
        );
        assert!(store.contains(1) && store.contains(3));
        assert_eq!(store.stats().read_hits, 1);
        // Day boundaries are still a no-op for continuous policies.
        assert!(store.day_boundary(Day::new(1)).is_none());
    }

    #[test]
    fn warm_restores_residency_under_sieve() {
        let mut store = SieveStoreBuilder::new()
            .capacity_blocks(4)
            .policy(PolicySpec::Aod)
            .eviction(EvictionPolicy::Sieve)
            .build()
            .unwrap();
        store.warm([10, 11, 12]);
        assert_eq!(store.len_blocks(), 3);
        assert!(store.contains(10) && store.contains(11) && store.contains(12));
        assert_eq!(store.stats().allocation_writes, 0);
    }

    #[test]
    fn sharded_builder_splits_capacity_and_routes_policies() {
        let cfg = TwoTierConfig::paper_default().with_imct_entries(1 << 12);
        for shard in 0..3usize {
            let store = SieveStoreBuilder::new()
                .capacity_blocks(10)
                .policy(PolicySpec::Aod)
                .shard(shard, 3)
                .build()
                .expect("valid shard");
            // 10 frames over 3 shards: 4 + 3 + 3.
            let expect = if shard == 0 { 4 } else { 3 };
            assert_eq!(store.capacity_blocks(), expect);
        }
        // Discrete policies refuse per-shard construction.
        assert!(SieveStoreBuilder::new()
            .policy(PolicySpec::SieveStoreD { threshold: 10 })
            .shard(0, 2)
            .build()
            .is_err());
        // A shard count that does not divide the IMCT is rejected.
        assert!(SieveStoreBuilder::new()
            .policy(PolicySpec::SieveStoreC(cfg))
            .shard(0, 3)
            .build()
            .is_err());
        assert!(SieveStoreBuilder::new()
            .policy(PolicySpec::Aod)
            .shard(2, 2)
            .build()
            .is_err());
    }

    #[test]
    fn one_shard_aod_behaves_like_unsharded() {
        let mut whole = build(PolicySpec::Aod, 8);
        let mut sharded = SieveStoreBuilder::new()
            .capacity_blocks(8)
            .policy(PolicySpec::Aod)
            .shard(0, 1)
            .build()
            .unwrap();
        for key in [1u64, 2, 1, 3, 2, 1] {
            assert_eq!(
                whole.access(key, RequestKind::Read, t()),
                sharded.access(key, RequestKind::Read, t())
            );
        }
        assert_eq!(whole.stats(), sharded.stats());
    }

    #[test]
    fn spec_discreteness_matches_built_policy() {
        assert!(!PolicySpec::Aod.is_discrete());
        assert!(!PolicySpec::SieveStoreC(TwoTierConfig::paper_default()).is_discrete());
        assert!(PolicySpec::SieveStoreD { threshold: 1 }.is_discrete());
        assert!(PolicySpec::IdealTop1 { selections: vec![] }.is_discrete());
        assert!(PolicySpec::RandSieveBlkD {
            fraction: 0.5,
            seed: 1
        }
        .is_discrete());
    }

    #[test]
    fn policy_spec_names() {
        assert_eq!(PolicySpec::Aod.name(), "AOD");
        assert_eq!(PolicySpec::Wmna.name(), "WMNA");
        assert_eq!(
            PolicySpec::SieveStoreD { threshold: 10 }.name(),
            "SieveStore-D"
        );
        assert_eq!(PolicySpec::IdealTop1 { selections: vec![] }.name(), "Ideal");
    }

    #[test]
    fn debug_output_is_nonempty() {
        let store = build(PolicySpec::Aod, 4);
        let dbg = format!("{store:?}");
        assert!(dbg.contains("AOD"));
        assert!(dbg.contains("capacity"));
    }
}
