//! The allocation policies of Table 3, as one closed enum.
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
//!
//! [`PolicySpec`] names a policy. The appliance builds a private `Policy`
//! from it, whose variants pair each policy's per-key state with the cache
//! it runs over, so every call is static. A discrete epoch ends in two
//! steps — each store's sorted *contribution*, then installing its part
//! of the selection — and [`PolicySpec::select_sharded`] turns the
//! contributions into those parts, for one store
//! (`SieveStore::day_boundary`) or for the replay engine's shards alike.

use sievestore_cache::{BatchCache, EpochTransition, EvictionPolicy, LruCache, SieveCache};
use sievestore_extsort::{AccessCounter, CountingConfig};
use sievestore_sieve::{random_block_selection, RandomMissSieve, TwoTierSieve};
use sievestore_types::{mix64, shard_of, Day, Micros, RequestKind, SieveError, U64Set};

use crate::appliance::AccessOutcome;

/// Declarative policy selection for [`SieveStoreBuilder`](crate::SieveStoreBuilder).
///
/// # Examples
///
/// ```
/// use sievestore::{PolicySpec, SieveStoreBuilder};
/// use sievestore_types::{Micros, RequestKind::{Read, Write}};
///
/// // WMNA allocates read misses only.
/// let mut wmna = SieveStoreBuilder::new().policy(PolicySpec::Wmna).build().unwrap();
/// assert!(!wmna.access(1, Write, Micros::new(0)).is_allocation());
/// assert!(wmna.access(1, Read, Micros::new(0)).is_allocation());
/// ```
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// Allocate-on-demand (unsieved).
    Aod,
    /// Write-miss-no-allocate (unsieved).
    Wmna,
    /// SieveStore-C with the given two-tier sieve parameters.
    SieveStoreC(sievestore_sieve::TwoTierConfig),
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

    /// The `epoch`-th selection (epochs count boundaries from 1), starting
    /// calendar day `day`, already split into per-shard installs.
    ///
    /// `contributions[s]` is shard `s`'s sorted, duplicate-free epoch
    /// contribution ([`SieveStore::epoch_contribution`](crate::SieveStore::epoch_contribution)),
    /// the shards' keys hash-disjoint ([`shard_of`]); one store is one
    /// shard. The parts are exactly what one global
    /// [`BatchCache::install_epoch`] of the selection would keep — same
    /// dedupe, same in-order truncation at `capacity` — restricted to
    /// each shard's keys, so per-shard installs sum to the global one. A
    /// continuous policy selects nothing.
    pub fn select_sharded(
        &self,
        epoch: u64,
        day: Day,
        contributions: Vec<Vec<u64>>,
        capacity: usize,
    ) -> Vec<Vec<u64>> {
        let shards = contributions.len();
        let merged = |contributions: Vec<Vec<u64>>| {
            let mut all: Vec<u64> = contributions.into_iter().flatten().collect();
            all.sort_unstable();
            all
        };
        match self {
            PolicySpec::IdealTop1 { selections } => {
                let selection = selections.get(day.as_usize()).into_iter().flatten();
                partition_selection(selection.copied(), shards, capacity)
            }
            PolicySpec::RandSieveBlkD { fraction, seed } => {
                let accessed = merged(contributions).into_iter();
                let selection = random_block_selection(accessed, *fraction, *seed ^ epoch);
                partition_selection(selection, shards, capacity)
            }
            PolicySpec::SieveStoreD { .. } => {
                // Within capacity the whole-trace sieve would select the full
                // sorted concatenation and nothing would be truncated, so the
                // contributions are already the partition — the common case
                // costs no merge at all.
                if contributions.iter().map(Vec::len).sum::<usize>() <= capacity {
                    return contributions;
                }
                partition_selection(merged(contributions), shards, capacity)
            }
            _ => partition_selection([], shards, capacity),
        }
    }
}

/// Splits a global epoch selection into per-shard install lists,
/// replicating [`BatchCache::install_epoch`]'s semantics: duplicates are
/// kept once, and selection beyond `capacity` distinct keys is dropped
/// in iteration order.
fn partition_selection(
    keys: impl IntoIterator<Item = u64>,
    shards: usize,
    capacity: usize,
) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
    let mut seen = U64Set::new();
    for key in keys {
        if seen.len() >= capacity {
            break;
        }
        if seen.insert(key) {
            parts[shard_of(key, shards)].push(key);
        }
    }
    parts
}

/// A continuous policy's block cache.
#[derive(Debug)]
pub(crate) enum Frames {
    Lru(LruCache),
    Sieve(SieveCache),
}

/// Runs `$call` on whichever cache `$frames` holds.
macro_rules! on_frames {
    ($frames:expr, $c:ident => $call:expr) => {
        match $frames {
            Frames::Lru($c) => $call,
            Frames::Sieve($c) => $call,
        }
    };
}

/// A continuous policy's answer to a miss. The two-tier sieve is boxed:
/// it is most of a continuous policy's size, and an epoch policy needs
/// none of it.
#[derive(Debug)]
pub(crate) enum Admission {
    Aod,
    Wmna,
    SieveC(Box<TwoTierSieve>),
    RandC(RandomMissSieve),
}

/// A discrete policy's bookkeeping for the current epoch.
#[derive(Debug)]
pub(crate) enum Book {
    /// SieveStore-D's sieve: the epoch's access counter and the
    /// threshold `t` a key's count must reach to be selected. In memory a
    /// key's count and the epoch cache's resident bit share one counter
    /// slot, so an access is one probe; a spill counter's table drains,
    /// so it has no bit.
    SieveD {
        counter: AccessCounter,
        threshold: u64,
    },
    /// RandSieve-BlkD: the epoch's accessed keys.
    BlkD(U64Set),
    /// The oracle keeps none.
    Ideal,
}

/// One policy's per-key state beside the cache it runs over. The
/// selection rules of the discrete policies (BlkD's fraction and seed,
/// the oracle's selections) stay in the [`PolicySpec`].
#[derive(Debug)]
pub(crate) enum Policy {
    /// AOD, WMNA, SieveStore-C, RandSieve-C.
    Continuous { cache: Frames, admit: Admission },
    /// SieveStore-D, RandSieve-BlkD, the oracle.
    Discrete { cache: BatchCache, book: Book },
}

impl Policy {
    /// Builds `spec` over a `capacity`-frame cache, as shard `shard` of
    /// `shards` (a whole store is shard 0 of 1). Continuous metastate is
    /// sliced to the shard; discrete policies are always whole.
    pub(crate) fn build(
        spec: &PolicySpec,
        capacity: usize,
        eviction: EvictionPolicy,
        counting: &CountingConfig,
        (shard, shards): (usize, usize),
    ) -> Result<Policy, SieveError> {
        let admit = match spec {
            PolicySpec::Aod => Admission::Aod,
            PolicySpec::Wmna => Admission::Wmna,
            PolicySpec::SieveStoreC(cfg) => {
                Admission::SieveC(Box::new(TwoTierSieve::for_shard(*cfg, shard, shards)?))
            }
            PolicySpec::RandSieveC { probability, seed } => {
                // Shard 0 keeps the original seed, so one shard is the
                // whole store.
                let seed = if shard == 0 {
                    *seed
                } else {
                    seed ^ mix64(shard as u64)
                };
                Admission::RandC(RandomMissSieve::new(*probability, seed)?)
            }
            discrete => {
                let book = match discrete {
                    PolicySpec::SieveStoreD { threshold } => {
                        if *threshold == 0 {
                            return Err(SieveError::InvalidConfig(
                                "discrete sieve threshold must be positive".into(),
                            ));
                        }
                        Book::SieveD {
                            counter: counting.counter()?,
                            threshold: *threshold,
                        }
                    }
                    PolicySpec::RandSieveBlkD { fraction, .. } => {
                        if !(0.0..=1.0).contains(fraction) {
                            return Err(SieveError::InvalidConfig(format!(
                                "selection fraction must be in [0,1], got {fraction}"
                            )));
                        }
                        Book::BlkD(U64Set::new())
                    }
                    _ => Book::Ideal,
                };
                let cache = BatchCache::new(capacity);
                return Ok(Policy::Discrete { cache, book });
            }
        };
        let cache = match eviction {
            EvictionPolicy::Lru => Frames::Lru(LruCache::new(capacity)),
            EvictionPolicy::Sieve => Frames::Sieve(SieveCache::new(capacity)),
        };
        Ok(Policy::Continuous { cache, admit })
    }

    /// Processes one block access. Discrete misses never allocate.
    #[inline]
    pub(crate) fn access(&mut self, key: u64, kind: RequestKind, now: Micros) -> AccessOutcome {
        let (cache, book) = match self {
            Policy::Discrete { cache, book } => (cache, book),
            Policy::Continuous { cache, admit } => {
                if on_frames!(cache, c => c.touch(key)) {
                    return AccessOutcome::Hit;
                }
                let admitted = match admit {
                    Admission::Aod => true,
                    Admission::Wmna => kind.is_read(),
                    Admission::SieveC(sieve) => sieve.on_miss(key, now),
                    Admission::RandC(sieve) => sieve.on_miss(),
                };
                if !admitted {
                    return AccessOutcome::BypassMiss;
                }
                let evicted = on_frames!(cache, c => c.insert(key));
                return AccessOutcome::AllocatedMiss { evicted };
            }
        };
        let hit = match book {
            Book::SieveD { counter, .. } => {
                counter.touch(key).unwrap_or_else(|| cache.contains(key))
            }
            Book::BlkD(accessed) => {
                accessed.insert(key);
                cache.contains(key)
            }
            Book::Ideal => cache.contains(key),
        };
        if hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::BypassMiss
        }
    }

    /// Starts fetching the metastate an access of `key` reads first: the
    /// IMCT slot, SieveStore-D's counter slot, or else the epoch cache's.
    /// Changes no state.
    #[inline]
    pub(crate) fn prefetch(&self, key: u64) {
        match self {
            Policy::Continuous {
                admit: Admission::SieveC(sieve),
                ..
            } => sieve.prefetch(key),
            Policy::Continuous { .. } => {}
            Policy::Discrete { cache, book } => match book {
                Book::SieveD { counter, .. } => counter.prefetch(key),
                Book::BlkD(_) | Book::Ideal => cache.prefetch(key),
            },
        }
    }

    /// Ends the epoch: this store's contribution to the selection, sorted
    /// ascending — the keys SieveStore-D's counter selected, every key
    /// RandSieve-BlkD saw, nothing otherwise. Fails if a spill counter
    /// cannot read back or reopen its log.
    pub(crate) fn contribution(&mut self) -> Result<Vec<u64>, SieveError> {
        let Policy::Discrete { book, .. } = self else {
            return Ok(Vec::new());
        };
        match book {
            Book::SieveD { counter, threshold } => counter.end_epoch(*threshold),
            Book::BlkD(accessed) => {
                let mut keys: Vec<u64> = accessed.iter().collect();
                keys.sort_unstable();
                accessed.clear(); // keeps the table allocation for the next epoch
                Ok(keys)
            }
            Book::Ideal => Ok(Vec::new()),
        }
    }

    /// Installs `selection` as the epoch cache's resident set and seeds
    /// SieveStore-D's counter with what the install kept. `None` for a
    /// continuous policy.
    pub(crate) fn install(&mut self, selection: Vec<u64>) -> Option<EpochTransition> {
        let Policy::Discrete { cache, book } = self else {
            return None;
        };
        let transition = cache.install_epoch(selection);
        if let Book::SieveD { counter, .. } = book {
            // Seed what the install kept, not what was selected: the bits
            // are right only if exactly the resident keys carry one.
            cache.iter().for_each(|key| counter.seed_resident(key));
        }
        Some(transition)
    }

    /// Makes `keys` resident without consulting the policy: LRU and SIEVE
    /// frames insert them in order; an epoch cache adds them to what is
    /// resident, in order, until full (no resident key leaves, so every
    /// resident bit stays right).
    pub(crate) fn warm(&mut self, keys: impl IntoIterator<Item = u64>) {
        match self {
            Policy::Continuous { cache, .. } => on_frames!(cache, c => {
                for key in keys {
                    if !c.contains(key) {
                        c.insert(key);
                    }
                }
            }),
            Policy::Discrete { cache, .. } => {
                let resident: Vec<u64> = cache.iter().chain(keys).collect();
                self.install(resident);
            }
        }
    }

    /// The cache's `(capacity, resident frames)`.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        match self {
            Policy::Continuous { cache, .. } => on_frames!(cache, c => (c.capacity(), c.len())),
            Policy::Discrete { cache, .. } => (cache.capacity(), cache.len()),
        }
    }

    /// Whether `key` is resident (no recency side effects).
    pub(crate) fn contains(&self, key: u64) -> bool {
        match self {
            Policy::Continuous { cache, .. } => on_frames!(cache, c => c.contains(key)),
            Policy::Discrete { cache, .. } => cache.contains(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SieveStoreBuilder;

    #[test]
    fn partition_selection_matches_a_global_install() {
        // Duplicates plus more distinct keys than capacity: the
        // partition must keep exactly what one global `install_epoch`
        // would — same dedupe, same in-order truncation.
        let capacity = 8;
        let shards = 3;
        let selection: Vec<u64> = vec![5, 9, 5, 1, 14, 2, 2, 7, 21, 33, 8, 40, 41, 42];
        let mut global = BatchCache::new(capacity);
        let global_install = global.install_epoch(selection.clone());

        let parts = partition_selection(selection, shards, capacity);
        assert_eq!(parts.len(), shards);
        let mut installed: Vec<u64> = Vec::new();
        for (s, part) in parts.into_iter().enumerate() {
            for &key in &part {
                assert_eq!(shard_of(key, shards), s, "key {key} routed wrong");
            }
            // Full logical capacity, as in the sharded engine: local
            // installs never truncate.
            let mut local = BatchCache::new(capacity);
            installed.extend(local.install_epoch(part).allocated);
        }
        installed.sort_unstable();
        let mut expected = global_install.allocated.clone();
        expected.sort_unstable();
        assert_eq!(installed, expected);
        assert_eq!(installed.len(), capacity);
    }

    #[test]
    fn ideal_selection_past_the_last_day_is_empty() {
        let spec = PolicySpec::IdealTop1 {
            selections: vec![vec![1, 2, 3, 4]],
        };
        let empty = || vec![Vec::new(); 3];
        let day0 = spec.select_sharded(1, Day::new(0), empty(), 16);
        assert_eq!(day0.iter().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(spec.select_sharded(2, Day::new(1), empty(), 16), empty());
    }

    #[test]
    fn sievestore_d_within_capacity_hands_the_contributions_back() {
        let spec = PolicySpec::SieveStoreD { threshold: 10 };
        let contributions = vec![vec![4, 8], vec![], vec![1, 3, 9]];
        let parts = spec.select_sharded(1, Day::new(1), contributions.clone(), 5);
        assert_eq!(parts, contributions);
        // Over capacity the merged selection truncates in key order.
        let parts = spec.select_sharded(1, Day::new(1), contributions, 2);
        let kept: Vec<u64> = parts.into_iter().flatten().collect();
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&1) && kept.contains(&3));
    }

    #[test]
    fn continuous_policies_select_nothing() {
        let parts = PolicySpec::Aod.select_sharded(1, Day::new(1), vec![vec![7]; 2], 16);
        assert_eq!(parts, vec![Vec::<u64>::new(); 2]);
    }

    #[test]
    fn blkd_selection_follows_the_sequential_seed_sequence() {
        let (fraction, seed, shards) = (0.25, 0xB10C, 3);
        let spec = PolicySpec::RandSieveBlkD { fraction, seed };
        let mut sequential = SieveStoreBuilder::new()
            .capacity_blocks(1 << 20)
            .policy(spec.clone())
            .build()
            .unwrap();
        for epoch in 1..=3u64 {
            let accessed: Vec<u64> = (0..200).map(|i| i * 7 + epoch).collect();
            let mut contributions = vec![Vec::new(); shards];
            for &key in &accessed {
                sequential.access(key, RequestKind::Read, Micros::new(0));
                contributions[shard_of(key, shards)].push(key);
            }
            let day = Day::new(epoch as u16 - 1);
            let transition = sequential.day_boundary(day).expect("discrete");
            assert_eq!(transition.retained, 0, "each epoch's keys are new");
            let mut want = transition.allocated;
            let parts = spec.select_sharded(epoch, day, contributions, 1 << 20);
            let mut got: Vec<u64> = parts.into_iter().flatten().collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "epoch {epoch}");
            assert_eq!(got.len(), 50);
        }
    }
}
