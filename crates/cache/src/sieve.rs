//! SIEVE eviction: lazy promotion via a visited bit and a scanning hand.
//!
//! SIEVE (NSDI '24) replaces LRU's move-to-front with a single bit per
//! frame: a hit sets the frame's *visited* bit and nothing else. Eviction
//! walks a *hand* from the tail (oldest insertion) toward the head,
//! clearing visited bits as it passes and evicting the first frame it
//! finds unvisited; new frames enter at the head with the bit clear. The
//! hand stays where it stopped between evictions, so frequently-hit
//! frames keep earning reprieves while one-hit-wonders near the tail are
//! swept out quickly — a good fit for the paper's highly-selective
//! workloads, where most blocks are touched once and a tiny minority
//! dominates.
//!
//! A hit is one hash-map probe plus one store to a plain `bool`: no list
//! surgery, unlike LRU's move-to-front. Every owner holds the cache
//! exclusively (a `SieveStore`, one per replay shard; no node path
//! selects SIEVE), so [`SieveCache::touch`] takes `&mut self` like every
//! other operation.
//!
//! The resident-frame bookkeeping (key index, slot slab, intrusive list)
//! is the same `FrameList` (`frames.rs`) that backs
//! [`LruCache`](crate::LruCache); only the replacement decision lives
//! here.

use crate::frames::{FrameList, IterFromHead, NIL};

/// A fully-associative cache over packed block keys with SIEVE
/// replacement.
///
/// # Examples
///
/// ```
/// use sievestore_cache::SieveCache;
///
/// let mut cache = SieveCache::new(2);
/// assert_eq!(cache.insert(1), None);
/// assert_eq!(cache.insert(2), None);
/// assert!(cache.touch(1));              // sets 1's visited bit, no list move
/// assert_eq!(cache.insert(3), Some(2)); // hand skips visited 1, evicts 2
/// assert!(cache.contains(1) && cache.contains(3));
/// ```
#[derive(Debug, Clone)]
pub struct SieveCache {
    /// Head = newest insertion, tail = oldest. Slot metadata is the
    /// SIEVE visited bit.
    frames: FrameList<bool>,
    /// Slot index the eviction hand points at; [`NIL`] means "start from
    /// the tail".
    hand: u32,
}

impl SieveCache {
    /// Creates a cache holding at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or exceeds `u32::MAX - 1` slots.
    pub fn new(capacity: usize) -> Self {
        SieveCache {
            frames: FrameList::new(capacity),
            hand: NIL,
        }
    }

    /// Maximum number of resident frames.
    pub fn capacity(&self) -> usize {
        self.frames.capacity()
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether `key` is resident (does not set the visited bit).
    pub fn contains(&self, key: u64) -> bool {
        self.frames.contains(key)
    }

    /// Records an access to `key`: sets its visited bit, nothing else.
    /// Returns `true` if it was resident (a hit), `false` otherwise.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.frames.index_of(key) {
            Some(idx) => {
                self.frames.slot_mut(idx).meta = true;
                true
            }
            None => false,
        }
    }

    /// Inserts `key`, evicting via the hand if the cache is full. Returns
    /// the evicted key, if any. Inserting a resident key sets its visited
    /// bit (it counts as a hit) and never evicts.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        if let Some(idx) = self.frames.index_of(key) {
            self.frames.slot_mut(idx).meta = true;
            return None;
        }
        if self.frames.len() < self.frames.capacity() {
            self.frames.push_front(key, false);
            return None;
        }
        let victim = self.victim();
        Some(self.frames.replace(victim, key, false))
    }

    /// Runs the hand until it finds an unvisited frame and returns its
    /// slot, with the hand parked past it.
    ///
    /// Visited frames get their bit cleared and a reprieve; the hand
    /// moves from the tail toward the head and wraps back to the tail
    /// past the head. Terminates within two sweeps: the first sweep
    /// clears every bit it passes, so the second cannot skip anyone.
    fn victim(&mut self) -> u32 {
        debug_assert!(!self.frames.is_empty(), "evict from an empty cache");
        let mut idx = self.hand;
        if idx == NIL {
            idx = self.frames.tail();
        }
        loop {
            let slot = self.frames.slot_mut(idx);
            let older = slot.prev;
            if std::mem::take(&mut slot.meta) {
                idx = if older == NIL {
                    self.frames.tail()
                } else {
                    older
                };
            } else {
                // Park the hand on the next-older neighbor; NIL means it
                // restarts from the (possibly new) tail next time.
                self.hand = older;
                return idx;
            }
        }
    }

    /// Iterates over resident keys from newest to oldest insertion.
    pub fn iter(&self) -> IterSieve<'_> {
        IterSieve {
            inner: self.frames.iter_from_head(),
        }
    }
}

impl<'a> IntoIterator for &'a SieveCache {
    type Item = u64;
    type IntoIter = IterSieve<'a>;

    fn into_iter(self) -> IterSieve<'a> {
        self.iter()
    }
}

/// Iterator over resident keys in newest→oldest insertion order, from
/// [`SieveCache::iter`].
#[derive(Debug)]
pub struct IterSieve<'a> {
    inner: IterFromHead<'a, bool>,
}

impl Iterator for IterSieve<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = SieveCache::new(0);
    }

    #[test]
    fn unvisited_frames_evict_fifo() {
        let mut c = SieveCache::new(3);
        for k in [1, 2, 3] {
            assert_eq!(c.insert(k), None);
        }
        // No hits anywhere: the hand evicts in insertion order.
        assert_eq!(c.insert(4), Some(1));
        assert_eq!(c.insert(5), Some(2));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn visited_frame_survives_one_sweep() {
        let mut c = SieveCache::new(3);
        for k in [1, 2, 3] {
            c.insert(k);
        }
        assert!(c.touch(1));
        assert_eq!(c.insert(4), Some(2)); // hand clears 1's bit, evicts 2
        assert!(c.contains(1));
        assert_eq!(c.insert(5), Some(3)); // hand parked past 1; 3 is next
        assert!(c.contains(1));
        assert_eq!(c.insert(6), Some(4)); // wrapped; 1's bit is clear but hand is past it
        assert!(c.contains(1));
    }

    #[test]
    fn all_visited_wraps_and_evicts_tail() {
        let mut c = SieveCache::new(3);
        for k in [1, 2, 3] {
            c.insert(k);
            c.touch(k);
        }
        // Sweep clears every bit, wraps to the tail, evicts the oldest.
        assert_eq!(c.insert(4), Some(1));
    }

    #[test]
    fn touch_miss_is_noop() {
        let mut c = SieveCache::new(2);
        c.insert(1);
        assert!(!c.touch(9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinserting_resident_key_never_evicts() {
        let mut c = SieveCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None); // sets 1's visited bit
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), Some(2)); // 1 earned a reprieve
        assert!(c.contains(1));
    }

    #[test]
    fn capacity_one_cache() {
        let mut c = SieveCache::new(1);
        assert_eq!(c.insert(1), None);
        c.touch(1);
        // Single frame: sweep clears its bit, wraps, evicts it anyway.
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clone_preserves_visited_bits_and_hand() {
        let mut c = SieveCache::new(3);
        for k in [1, 2, 3] {
            c.insert(k);
        }
        c.touch(1);
        let mut d = c.clone();
        // Identical replacement decisions from here on.
        assert_eq!(c.insert(4), d.insert(4));
        assert_eq!(c.insert(5), d.insert(5));
        assert_eq!(c.iter().collect::<Vec<_>>(), d.iter().collect::<Vec<_>>());
    }

    /// Reference model: `Vec` of (key, visited), index 0 = head =
    /// newest; the hand is tracked by key, independent of slot reuse.
    struct NaiveSieve {
        capacity: usize,
        frames: Vec<(u64, bool)>,
        hand: Option<u64>,
    }

    impl NaiveSieve {
        fn new(capacity: usize) -> Self {
            NaiveSieve {
                capacity,
                frames: Vec::new(),
                hand: None,
            }
        }

        fn position(&self, key: u64) -> Option<usize> {
            self.frames.iter().position(|&(k, _)| k == key)
        }

        fn touch(&mut self, key: u64) -> bool {
            match self.position(key) {
                Some(pos) => {
                    self.frames[pos].1 = true;
                    true
                }
                None => false,
            }
        }

        fn evict(&mut self) -> u64 {
            let mut pos = self
                .hand
                .and_then(|k| self.position(k))
                .unwrap_or(self.frames.len() - 1);
            loop {
                if self.frames[pos].1 {
                    self.frames[pos].1 = false;
                    pos = if pos == 0 {
                        self.frames.len() - 1
                    } else {
                        pos - 1
                    };
                } else {
                    self.hand = if pos == 0 {
                        None
                    } else {
                        Some(self.frames[pos - 1].0)
                    };
                    return self.frames.remove(pos).0;
                }
            }
        }

        fn insert(&mut self, key: u64) -> Option<u64> {
            if self.touch(key) {
                return None;
            }
            let evicted = if self.frames.len() >= self.capacity {
                Some(self.evict())
            } else {
                None
            };
            self.frames.insert(0, (key, false));
            evicted
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        Touch(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..40).prop_map(Op::Insert),
            (0u64..40).prop_map(Op::Touch),
        ]
    }

    proptest! {
        #[test]
        fn matches_naive_model(
            capacity in 1usize..12,
            ops in proptest::collection::vec(op_strategy(), 0..400),
        ) {
            let mut fast = SieveCache::new(capacity);
            let mut naive = NaiveSieve::new(capacity);
            for op in ops {
                match op {
                    Op::Insert(k) => prop_assert_eq!(fast.insert(k), naive.insert(k)),
                    Op::Touch(k) => prop_assert_eq!(fast.touch(k), naive.touch(k)),
                }
                prop_assert_eq!(fast.len(), naive.frames.len());
                prop_assert!(fast.len() <= capacity);
                let fast_order: Vec<u64> = fast.iter().collect();
                let naive_order: Vec<u64> =
                    naive.frames.iter().map(|&(k, _)| k).collect();
                prop_assert_eq!(fast_order, naive_order);
            }
        }
    }
}
