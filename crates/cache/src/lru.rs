//! A fully-associative block cache with O(1) LRU replacement.
//!
//! The paper's continuous configurations (SieveStore-C, AOD, WMNA,
//! RandSieve-C) all share one cache organization: fully associative over
//! 512-byte frames with LRU replacement (§4). This implementation keeps a
//! hash map from block key to slot plus an intrusive doubly-linked list
//! threaded through a slab of slots — the `FrameList` (`frames.rs`)
//! bookkeeping shared with [`SieveCache`](crate::SieveCache) — so
//! `touch` and `insert` are both O(1); a 16 GB cache is 33.5 M
//! frames at full scale and ~130 K at the default 1/256 scale, both
//! comfortably in memory.
//!
//! The key→slot index is a [`sievestore_types::U64Map`] — the workspace's
//! open-addressing table — rather than `std::collections::HashMap`,
//! because `touch` runs once per trace event and SipHash dominates the
//! lookup at that rate.

use sievestore_types::{obs_count, obs_gauge_adjust};

use crate::frames::{FrameList, IterFromHead, NIL};

/// A fully-associative LRU cache over packed block keys.
///
/// # Examples
///
/// ```
/// use sievestore_cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// assert_eq!(cache.insert(1), None);
/// assert_eq!(cache.insert(2), None);
/// assert!(cache.touch(1));           // 1 becomes MRU
/// assert_eq!(cache.insert(3), Some(2)); // 2 was LRU, evicted
/// assert!(cache.contains(1) && cache.contains(3));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    /// Head = most-recently-used, tail = least-recently-used.
    frames: FrameList<()>,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or exceeds `u32::MAX - 1` slots.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            frames: FrameList::new(capacity),
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

    /// Whether `key` is resident (does not affect recency).
    pub fn contains(&self, key: u64) -> bool {
        self.frames.contains(key)
    }

    /// Promotes `key` to MRU if resident; the uninstrumented core of
    /// [`touch`](LruCache::touch), shared with `insert` so internal
    /// promotions never count as accesses.
    fn promote(&mut self, key: u64) -> bool {
        match self.frames.index_of(key) {
            Some(idx) => {
                self.frames.move_to_front(idx);
                true
            }
            None => false,
        }
    }

    /// Marks `key` as most recently used. Returns `true` if it was
    /// resident (a hit), `false` otherwise (no state change).
    pub fn touch(&mut self, key: u64) -> bool {
        let hit = self.promote(key);
        if hit {
            obs_count!(CacheHits, 1);
        } else {
            obs_count!(CacheMisses, 1);
        }
        hit
    }

    /// Inserts `key` as most recently used, evicting the LRU entry if the
    /// cache is full. Returns the evicted key, if any. Inserting a resident
    /// key just refreshes its recency (never evicts).
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        if self.promote(key) {
            return None;
        }
        let evicted = if self.frames.len() >= self.frames.capacity() {
            let lru = self.frames.tail();
            debug_assert_ne!(lru, NIL, "full cache must have a tail");
            Some(self.frames.release(lru))
        } else {
            None
        };
        if evicted.is_some() {
            obs_count!(CacheEvictions, 1);
        } else {
            obs_gauge_adjust!(CacheResidentFrames, 1);
        }
        self.frames.push_front(key, ());
        evicted
    }

    /// Iterates over resident keys from most- to least-recently used.
    pub fn iter_mru(&self) -> IterMru<'_> {
        IterMru {
            inner: self.frames.iter_from_head(),
        }
    }
}

/// Iterator over resident keys in MRU→LRU order, from [`LruCache::iter_mru`].
#[derive(Debug)]
pub struct IterMru<'a> {
    inner: IterFromHead<'a, ()>,
}

impl Iterator for IterMru<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    #[test]
    fn insert_until_full_then_evict_lru() {
        let mut c = LruCache::new(3);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.insert(3), None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.insert(4), Some(1));
        assert!(!c.contains(1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn touch_changes_eviction_order() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.touch(1));
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn touch_miss_is_noop() {
        let mut c = LruCache::new(2);
        c.insert(1);
        assert!(!c.touch(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter_mru().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn reinserting_resident_key_never_evicts() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(2), None);
        assert_eq!(c.len(), 2);
        // 2 is now MRU, so 1 is the eviction victim.
        assert_eq!(c.insert(3), Some(1));
    }

    #[test]
    fn iter_mru_orders_from_most_recent() {
        let mut c = LruCache::new(4);
        for k in [1, 2, 3, 4] {
            c.insert(k);
        }
        c.touch(2);
        assert_eq!(c.iter_mru().collect::<Vec<_>>(), vec![2, 4, 3, 1]);
    }

    #[test]
    fn capacity_one_cache() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 1);
    }

    /// A deliberately naive reference model: VecDeque front = MRU.
    #[derive(Default)]
    struct NaiveLru {
        capacity: usize,
        order: VecDeque<u64>,
    }

    impl NaiveLru {
        fn new(capacity: usize) -> Self {
            NaiveLru {
                capacity,
                order: VecDeque::new(),
            }
        }
        fn touch(&mut self, key: u64) -> bool {
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
                self.order.push_front(key);
                true
            } else {
                false
            }
        }
        fn insert(&mut self, key: u64) -> Option<u64> {
            if self.touch(key) {
                return None;
            }
            let evicted = if self.order.len() >= self.capacity {
                self.order.pop_back()
            } else {
                None
            };
            self.order.push_front(key);
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
            let mut fast = LruCache::new(capacity);
            let mut naive = NaiveLru::new(capacity);
            for op in ops {
                match op {
                    Op::Insert(k) => prop_assert_eq!(fast.insert(k), naive.insert(k)),
                    Op::Touch(k) => prop_assert_eq!(fast.touch(k), naive.touch(k)),
                }
                prop_assert_eq!(fast.len(), naive.order.len());
                prop_assert!(fast.len() <= capacity);
                let fast_order: Vec<u64> = fast.iter_mru().collect();
                let naive_order: Vec<u64> = naive.order.iter().copied().collect();
                prop_assert_eq!(fast_order, naive_order);
            }
        }
    }
}
