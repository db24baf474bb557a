//! SieveStore-D's discrete, epoch-batched cache.
//!
//! SieveStore-D (§3.2) allocates and replaces only at epoch boundaries:
//! the blocks the sieve selects at the end of epoch *i* are batch-installed
//! and stay resident — with no replacement — until the end of epoch
//! *i + 1*. If a block selected for the next epoch is already resident, the
//! logical eviction-then-reallocation cancels out and no data moves; only
//! the genuinely new blocks incur allocation-writes.
//!
//! The cache owns the epoch transition (what is allocated, retained,
//! evicted, truncated at capacity). Under in-memory counting the
//! SieveStore appliance reads the per-access answer from the epoch
//! counter's resident bit instead (`sievestore_extsort::AccessCounter`,
//! seeded from [`BatchCache::iter`] after every install) and never probes
//! this set.

use sievestore_types::U64Set;

/// Summary of one epoch installation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochTransition {
    /// Blocks newly brought in (each incurs an allocation-write).
    pub allocated: Vec<u64>,
    /// Blocks resident in both epochs (moves cancelled).
    pub retained: u64,
    /// Blocks dropped from the previous epoch.
    pub evicted: u64,
    /// Selected blocks that did not fit within capacity.
    pub overflowed: u64,
}

/// A cache whose contents change only at epoch boundaries.
///
/// # Examples
///
/// ```
/// use sievestore_cache::BatchCache;
///
/// let mut cache = BatchCache::new(3);
/// let t1 = cache.install_epoch([1, 2, 3]);
/// assert_eq!(t1.allocated.len(), 3);
///
/// // Block 2 persists: no move for it, one allocation, two evictions.
/// let t2 = cache.install_epoch([2, 9]);
/// assert_eq!(t2.allocated, vec![9]);
/// assert_eq!(t2.retained, 1);
/// assert_eq!(t2.evicted, 2);
/// assert!(cache.contains(2) && cache.contains(9) && !cache.contains(1));
/// ```
#[derive(Debug, Clone)]
pub struct BatchCache {
    capacity: usize,
    resident: U64Set,
}

impl BatchCache {
    /// Creates an epoch cache holding at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        BatchCache {
            capacity,
            resident: U64Set::new(),
        }
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether `key` is resident this epoch.
    pub fn contains(&self, key: u64) -> bool {
        self.resident.contains(key)
    }

    /// Hints that `key` is about to be looked up. Changes no state.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.resident.prefetch(key);
    }

    /// Replaces the resident set with `selected`, computing the transition.
    /// Duplicate keys in `selected` are installed once. Selection beyond
    /// capacity is truncated (in iteration order) and reported in
    /// [`EpochTransition::overflowed`].
    pub fn install_epoch(&mut self, selected: impl IntoIterator<Item = u64>) -> EpochTransition {
        let mut next = U64Set::new();
        let mut allocated = Vec::new();
        let mut retained = 0u64;
        let mut overflowed = 0u64;
        for key in selected {
            if next.len() >= self.capacity {
                if !next.contains(key) {
                    overflowed += 1;
                }
                continue;
            }
            if !next.insert(key) {
                continue; // duplicate in the selection
            }
            if self.resident.contains(key) {
                retained += 1;
            } else {
                allocated.push(key);
            }
        }
        let evicted = (self.resident.len() as u64) - retained;
        self.resident = next;
        EpochTransition {
            allocated,
            retained,
            evicted,
            overflowed,
        }
    }

    /// Iterates over resident keys in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.resident.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = BatchCache::new(0);
    }

    #[test]
    fn first_epoch_allocates_everything() {
        let mut c = BatchCache::new(10);
        let t = c.install_epoch([5, 6, 7]);
        assert_eq!(t.allocated.len(), 3);
        assert_eq!(t.retained, 0);
        assert_eq!(t.evicted, 0);
        assert_eq!(t.overflowed, 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn moves_cancel_for_retained_blocks() {
        let mut c = BatchCache::new(10);
        c.install_epoch([1, 2, 3, 4]);
        let t = c.install_epoch([3, 4, 5]);
        assert_eq!(t.allocated, vec![5]);
        assert_eq!(t.retained, 2);
        assert_eq!(t.evicted, 2);
    }

    #[test]
    fn empty_selection_evicts_all() {
        let mut c = BatchCache::new(4);
        c.install_epoch([1, 2]);
        let t = c.install_epoch(std::iter::empty());
        assert_eq!(t.evicted, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn overflow_is_truncated_and_counted() {
        let mut c = BatchCache::new(2);
        let t = c.install_epoch([1, 2, 3, 4]);
        assert_eq!(c.len(), 2);
        assert_eq!(t.overflowed, 2);
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn duplicates_in_selection_install_once() {
        let mut c = BatchCache::new(5);
        let t = c.install_epoch([7, 7, 7, 8]);
        assert_eq!(c.len(), 2);
        assert_eq!(t.allocated.len(), 2);
        assert_eq!(t.overflowed, 0);
    }

    proptest! {
        #[test]
        fn transition_bookkeeping_is_consistent(
            capacity in 1usize..20,
            first in proptest::collection::hash_set(0u64..50, 0..30),
            second in proptest::collection::hash_set(0u64..50, 0..30),
        ) {
            let mut c = BatchCache::new(capacity);
            let t1 = c.install_epoch(first.iter().copied());
            let resident_after_first = c.len() as u64;
            prop_assert_eq!(t1.allocated.len() as u64, resident_after_first);
            prop_assert!(c.len() <= capacity);

            let t2 = c.install_epoch(second.iter().copied());
            // Everything resident before is either retained or evicted.
            prop_assert_eq!(t2.retained + t2.evicted, resident_after_first);
            // Everything resident now is either retained or newly allocated.
            prop_assert_eq!(t2.retained + t2.allocated.len() as u64, c.len() as u64);
            // Overflow + installed covers the (deduplicated) selection.
            prop_assert_eq!(
                t2.overflowed + c.len() as u64,
                second.len() as u64
            );
            prop_assert!(c.len() <= capacity);
            // Residency matches membership in the selection.
            for k in c.iter() {
                prop_assert!(second.contains(&k));
            }
        }
    }
}
