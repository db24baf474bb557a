//! SieveStore-D's access-count discrete batch-allocation (ADBA) sieve.
//!
//! All accesses of an epoch are counted (in the in-memory epoch table,
//! or in the paper's hash-partitioned log under spill counting — see
//! [`CountingConfig`]), and at the epoch boundary the blocks whose count
//! reached the threshold `t` (paper: `t` = 10 with one-day epochs) are
//! selected for batch allocation into the next epoch's cache.
//!
//! In memory, [`AccessCounter::touch`] on [`DiscreteSieve::counter_mut`]
//! counts the access *and* answers hit-or-miss from the one slot it
//! reads, provided the cache's owner seeds the resident keys after each
//! install. The counter is emptied in place at the epoch boundary, not
//! re-grown from empty.

use sievestore_extsort::{AccessCounter, CountingConfig};
use sievestore_types::SieveError;

/// The epoch-batched access-count sieve.
///
/// # Examples
///
/// ```
/// use sievestore_extsort::CountingConfig;
/// use sievestore_sieve::DiscreteSieve;
///
/// let mut sieve = DiscreteSieve::new(&CountingConfig::InMemory, 3).unwrap();
/// for _ in 0..3 {
///     sieve.record_access(11);
/// }
/// sieve.record_access(22);
/// assert_eq!(sieve.end_epoch().unwrap(), vec![11]);
/// ```
#[derive(Debug)]
pub struct DiscreteSieve {
    counter: AccessCounter,
    threshold: u64,
}

impl DiscreteSieve {
    /// The paper's allocation threshold: 10 accesses per (one-day) epoch.
    pub const PAPER_THRESHOLD: u64 = 10;

    /// Creates a sieve counting as `counting` says.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `threshold == 0`, and
    /// whatever [`CountingConfig::counter`] returns.
    pub fn new(counting: &CountingConfig, threshold: u64) -> Result<Self, SieveError> {
        if threshold == 0 {
            return Err(SieveError::InvalidConfig(
                "discrete sieve threshold must be positive".into(),
            ));
        }
        Ok(DiscreteSieve {
            counter: counting.counter()?,
            threshold,
        })
    }

    /// The allocation threshold `t`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Records one access in the current epoch.
    pub fn record_access(&mut self, key: u64) {
        self.counter.record(key);
    }

    /// The epoch counter, for its prefetch hint.
    pub fn counter(&self) -> &AccessCounter {
        &self.counter
    }

    /// The epoch counter, mutably, for an owner that keeps the epoch
    /// cache beside this sieve: [`AccessCounter::touch`] answers residency
    /// only if that owner calls [`AccessCounter::seed_resident`] for what
    /// each install left resident — otherwise it reads "miss".
    pub fn counter_mut(&mut self) -> &mut AccessCounter {
        &mut self.counter
    }

    /// Ends the epoch and returns the selected block keys, sorted
    /// ascending; the counter starts the next epoch in place
    /// ([`AccessCounter::end_epoch`]).
    ///
    /// # Errors
    ///
    /// Propagates spill-log failures.
    pub fn end_epoch(&mut self) -> Result<Vec<u64>, SieveError> {
        self.counter.end_epoch(self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_memory(threshold: u64) -> DiscreteSieve {
        DiscreteSieve::new(&CountingConfig::InMemory, threshold).unwrap()
    }

    #[test]
    fn zero_threshold_is_rejected() {
        assert!(DiscreteSieve::new(&CountingConfig::InMemory, 0).is_err());
        let spill = CountingConfig::spill(std::env::temp_dir().join("sievestore-dzero"));
        assert!(DiscreteSieve::new(&spill, 0).is_err());
    }

    #[test]
    fn selects_exactly_blocks_at_or_over_threshold() {
        let mut sieve = in_memory(DiscreteSieve::PAPER_THRESHOLD);
        for _ in 0..10 {
            sieve.record_access(1); // exactly at threshold
        }
        for _ in 0..11 {
            sieve.record_access(2); // over
        }
        for _ in 0..9 {
            sieve.record_access(3); // under
        }
        assert_eq!(sieve.end_epoch().unwrap(), vec![1, 2]);
    }

    #[test]
    fn epochs_are_independent() {
        let dir = std::env::temp_dir().join(format!("sievestore-depochs-{}", std::process::id()));
        for counting in [CountingConfig::InMemory, CountingConfig::spill(&dir)] {
            let mut sieve = DiscreteSieve::new(&counting, 2).unwrap();
            sieve.record_access(1);
            assert_eq!(sieve.end_epoch().unwrap(), Vec::<u64>::new());
            // The single access from epoch 0 must not carry over.
            sieve.record_access(1);
            assert_eq!(sieve.end_epoch().unwrap(), Vec::<u64>::new());
            sieve.record_access(4);
            sieve.record_access(4);
            assert_eq!(sieve.end_epoch().unwrap(), vec![4], "{counting:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_two_of_a_steady_trace_answers_residency_from_the_kept_table() {
        let mut sieve = in_memory(3);
        let steady_epoch = |s: &mut DiscreteSieve| {
            let mut hits = 0;
            for key in (0..5000u64).map(|k| k * 977) {
                for _ in 0..=key % 4 {
                    let hit = s.counter_mut().touch(key).expect("the table answers");
                    hits += u64::from(hit);
                }
            }
            hits
        };
        assert_eq!(steady_epoch(&mut sieve), 0, "nothing resident in epoch 0");
        let selected = sieve.end_epoch().unwrap();
        assert_eq!(selected.len(), 2500);
        selected
            .iter()
            .for_each(|&key| sieve.counter_mut().seed_resident(key));
        // Every access of a seeded key reads "hit", the first included.
        let selected_accesses: u64 = selected.iter().map(|key| 1 + key % 4).sum();
        assert_eq!(steady_epoch(&mut sieve), selected_accesses);
        // The seeds changed no count: the same keys are selected again.
        assert_eq!(sieve.end_epoch().unwrap(), selected);
    }

    #[test]
    fn a_spill_counter_sends_the_caller_to_the_cache() {
        let dir = std::env::temp_dir().join(format!("sievestore-dtouch-{}", std::process::id()));
        let mut sieve = DiscreteSieve::new(&CountingConfig::spill(&dir), 2).unwrap();
        sieve.counter_mut().seed_resident(5);
        sieve.counter().prefetch(5);
        assert_eq!(sieve.counter_mut().touch(5), None);
        assert_eq!(sieve.counter_mut().touch(5), None);
        assert_eq!(sieve.end_epoch().unwrap(), vec![5], "touch still counts");
        std::fs::remove_dir_all(&dir).ok();
    }
}
