//! SieveStore-D's access-count discrete batch-allocation (ADBA) sieve.
//!
//! All accesses of an epoch are counted (via any
//! [`AccessCounter`] — the in-memory
//! map or the paper's hash-partitioned log), and at the epoch boundary the
//! blocks whose count reached the threshold `t` (paper: `t` = 10 with
//! one-day epochs) are selected for batch allocation into the next epoch's
//! cache.
//!
//! Over the in-memory epoch table, [`AccessCounter::touch`] on
//! [`DiscreteSieve::counter_mut`] counts the access *and* answers
//! hit-or-miss from the one slot it reads, provided the cache's owner
//! seeds the resident keys after each install. That table is emptied in
//! place at the epoch boundary, not re-grown from empty.

use sievestore_extsort::{AccessCounter, AccessCounts, InMemoryCounter};
use sievestore_types::SieveError;

/// The epoch-batched access-count sieve, generic over the counting
/// substrate.
///
/// # Examples
///
/// ```
/// use sievestore_extsort::InMemoryCounter;
/// use sievestore_sieve::DiscreteSieve;
///
/// let mut sieve = DiscreteSieve::new(InMemoryCounter::new(), 3).unwrap();
/// for _ in 0..3 {
///     sieve.record_access(11);
/// }
/// sieve.record_access(22);
/// let selected = sieve.end_epoch(InMemoryCounter::new()).unwrap();
/// assert_eq!(selected, vec![11]);
/// ```
#[derive(Debug)]
pub struct DiscreteSieve<C: AccessCounter> {
    counter: Option<C>,
    threshold: u64,
    epoch: u64,
}

impl<C: AccessCounter> DiscreteSieve<C> {
    /// The paper's allocation threshold: 10 accesses per (one-day) epoch.
    pub const PAPER_THRESHOLD: u64 = 10;

    /// Creates a sieve using `counter` for the first epoch.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `threshold == 0`.
    pub fn new(counter: C, threshold: u64) -> Result<Self, SieveError> {
        if threshold == 0 {
            return Err(SieveError::InvalidConfig(
                "discrete sieve threshold must be positive".into(),
            ));
        }
        Ok(DiscreteSieve {
            counter: Some(counter),
            threshold,
            epoch: 0,
        })
    }

    /// The allocation threshold `t`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The current epoch index (starts at 0, advances per `end_epoch`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records one access in the current epoch.
    pub fn record_access(&mut self, key: u64) {
        self.counter_mut().record(key);
    }

    /// The current epoch's counter — for what only some counters offer,
    /// such as the in-memory epoch table's prefetch hint.
    pub fn counter(&self) -> &C {
        self.counter.as_ref().expect("counter present")
    }

    /// The current epoch's counter, mutably, for an owner that keeps the
    /// epoch cache beside this sieve: [`AccessCounter::touch`] answers
    /// residency only if that owner calls [`AccessCounter::seed_resident`]
    /// for what each install left resident — otherwise it reads "miss".
    pub fn counter_mut(&mut self) -> &mut C {
        self.counter.as_mut().expect("counter present")
    }

    /// Ends the epoch and returns the selected block keys (sorted). A
    /// counter that can empty itself in place
    /// ([`AccessCounter::drain_selection`]) keeps counting the new epoch
    /// in the storage it has, and `next` is dropped unused; any other is
    /// finalized and replaced by `next`.
    ///
    /// Selection goes through [`AccessCounter::finish_selection`], so a
    /// spill-backed substrate never materializes the epoch's full
    /// distinct-key totals — only the selected keys.
    ///
    /// # Errors
    ///
    /// Propagates failures from finalizing the counting substrate.
    pub fn end_epoch(&mut self, next: C) -> Result<Vec<u64>, SieveError> {
        let threshold = self.threshold;
        let selected = match self.counter_mut().drain_selection(threshold) {
            Some(selected) => selected,
            None => {
                let counter = self.counter.replace(next).expect("counter present");
                counter.finish_selection(threshold)?
            }
        };
        self.epoch += 1;
        Ok(selected)
    }

    /// Like [`DiscreteSieve::end_epoch`] but returns the full counts, for
    /// callers that also need totals (e.g. the ideal top-1 % oracle).
    ///
    /// # Errors
    ///
    /// Propagates failures from finalizing the counting substrate.
    pub fn end_epoch_with_counts(&mut self, next: C) -> Result<AccessCounts, SieveError> {
        let counter = self.counter.replace(next).expect("counter present");
        let counts = counter.finish()?;
        self.epoch += 1;
        Ok(counts)
    }
}

impl DiscreteSieve<InMemoryCounter> {
    /// Convenience constructor for the in-memory substrate with the
    /// paper's threshold of 10.
    ///
    /// # Examples
    ///
    /// ```
    /// let sieve = sievestore_sieve::DiscreteSieve::in_memory_paper_default();
    /// assert_eq!(sieve.threshold(), 10);
    /// ```
    pub fn in_memory_paper_default() -> Self {
        DiscreteSieve::new(InMemoryCounter::new(), Self::PAPER_THRESHOLD)
            .expect("paper threshold is valid")
    }

    /// Ends the epoch with a fresh in-memory counter.
    ///
    /// # Errors
    ///
    /// Never fails for the in-memory substrate; the `Result` mirrors the
    /// generic interface.
    pub fn end_epoch_in_memory(&mut self) -> Result<Vec<u64>, SieveError> {
        self.end_epoch(InMemoryCounter::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_extsort::AccessLog;

    #[test]
    fn zero_threshold_is_rejected() {
        assert!(DiscreteSieve::new(InMemoryCounter::new(), 0).is_err());
    }

    #[test]
    fn selects_exactly_blocks_at_or_over_threshold() {
        let mut sieve = DiscreteSieve::new(InMemoryCounter::new(), 10).unwrap();
        for _ in 0..10 {
            sieve.record_access(1); // exactly at threshold
        }
        for _ in 0..11 {
            sieve.record_access(2); // over
        }
        for _ in 0..9 {
            sieve.record_access(3); // under
        }
        let selected = sieve.end_epoch_in_memory().unwrap();
        assert_eq!(selected, vec![1, 2]);
    }

    #[test]
    fn epochs_are_independent() {
        let mut sieve = DiscreteSieve::new(InMemoryCounter::new(), 2).unwrap();
        sieve.record_access(1);
        assert_eq!(sieve.end_epoch_in_memory().unwrap(), Vec::<u64>::new());
        assert_eq!(sieve.epoch(), 1);
        // The single access from epoch 0 must not carry over.
        sieve.record_access(1);
        assert_eq!(sieve.end_epoch_in_memory().unwrap(), Vec::<u64>::new());
        sieve.record_access(4);
        sieve.record_access(4);
        assert_eq!(sieve.end_epoch_in_memory().unwrap(), vec![4]);
        assert_eq!(sieve.epoch(), 3);
    }

    #[test]
    fn counts_variant_exposes_totals() {
        let mut sieve = DiscreteSieve::new(InMemoryCounter::new(), 5).unwrap();
        sieve.counter_mut().seed_resident(4); // resident, never touched
        sieve.record_access(9);
        sieve.record_access(9);
        let counts = sieve.end_epoch_with_counts(InMemoryCounter::new()).unwrap();
        assert_eq!(counts.get(9), 2);
        assert_eq!((counts.len(), counts.total_accesses()), (1, 2));
        assert_eq!(sieve.epoch(), 1);
        assert_eq!(sieve.counter_mut().touch(9), Some(false), "a fresh epoch");
    }

    #[test]
    fn epoch_two_of_a_steady_trace_answers_residency_from_the_kept_table() {
        let mut sieve = DiscreteSieve::new(InMemoryCounter::new(), 3).unwrap();
        let steady_epoch = |s: &mut DiscreteSieve<InMemoryCounter>| {
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
        // The drained table keeps counting: `next` is dropped unused, so
        // what it had counted never shows up in a selection.
        let mut next = InMemoryCounter::new();
        (0..3).for_each(|_| next.record(1));
        let selected = sieve.end_epoch(next).unwrap();
        assert_eq!(selected.len(), 2500);
        selected
            .iter()
            .for_each(|&key| sieve.counter_mut().seed_resident(key));
        // Every access of a seeded key reads "hit", the first included.
        let selected_accesses: u64 = selected.iter().map(|key| 1 + key % 4).sum();
        assert_eq!(steady_epoch(&mut sieve), selected_accesses);
        // The seeds changed no count: the same keys are selected again.
        assert_eq!(sieve.end_epoch_in_memory().unwrap(), selected);
    }

    #[test]
    fn a_counter_without_residency_sends_the_caller_to_the_cache() {
        let dir = std::env::temp_dir().join(format!("sievestore-dtouch-{}", std::process::id()));
        let mut sieve = DiscreteSieve::new(AccessLog::create(&dir, 2).unwrap(), 2).unwrap();
        sieve.counter_mut().seed_resident(5);
        sieve.counter().prefetch(5);
        assert_eq!(sieve.counter_mut().touch(5), None);
        assert_eq!(sieve.counter_mut().touch(5), None);
        let next = AccessLog::create(dir.join("next"), 2).unwrap();
        assert_eq!(
            sieve.end_epoch(next).unwrap(),
            vec![5],
            "touch still counts"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn works_over_the_external_log_substrate() {
        let dir = std::env::temp_dir().join(format!("sievestore-dsieve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = AccessLog::create(&dir, 4).unwrap();
        let mut sieve = DiscreteSieve::new(log, 3).unwrap();
        for _ in 0..3 {
            sieve.record_access(42);
        }
        sieve.record_access(43);
        let next = AccessLog::create(dir.join("next"), 4).unwrap();
        let selected = sieve.end_epoch(next).unwrap();
        assert_eq!(selected, vec![42]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
