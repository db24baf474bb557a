//! Shared resident-frame bookkeeping for the list-based caches.
//!
//! [`LruCache`](crate::LruCache) and [`SieveCache`](crate::SieveCache)
//! need the same skeleton: a pre-sized [`U64Map`] from block key to slot
//! index, a slab of slots threaded into an intrusive doubly-linked list,
//! and a free list for O(1) slot reuse. Only the *replacement decision*
//! differs — LRU moves hit slots to the front, SIEVE flips a visited bit
//! and scans with a hand — so the structure is generic over a per-slot
//! metadata payload `M` (`()` for LRU, the visited `bool` for SIEVE) and the
//! policies stay thin wrappers. Observability counters live in those
//! wrappers, never here: each policy counts its own hits and evictions.

use sievestore_types::U64Map;

/// Sentinel slot index for "none".
pub(crate) const NIL: u32 = u32::MAX;

/// One resident frame: its key, its list links, and the policy's
/// per-slot metadata.
#[derive(Debug, Clone)]
pub(crate) struct Slot<M> {
    pub key: u64,
    /// Neighbor toward the head (more recently inserted).
    pub prev: u32,
    /// Neighbor toward the tail (less recently inserted).
    pub next: u32,
    pub meta: M,
}

/// The key index plus intrusive list shared by the list-based caches.
///
/// Invariants: `map` holds exactly the linked slots; `free` holds exactly
/// the unlinked ones; `head`/`tail` delimit the list. Capacity is *not*
/// enforced here — callers evict before linking when full, so the policy
/// owns the replacement decision (and its accounting).
#[derive(Debug, Clone)]
pub(crate) struct FrameList<M> {
    capacity: usize,
    map: U64Map<u32>,
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<M> FrameList<M> {
    /// Creates bookkeeping for at most `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or exceeds `u32::MAX - 1` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        assert!(
            capacity < u32::MAX as usize,
            "cache capacity exceeds slot index range"
        );
        FrameList {
            capacity,
            // Sized to the real capacity: a full-scale 33.5M-frame cache
            // must never rehash mid-replay (the old `min(1 << 20)` cap
            // silently under-reserved above 1M frames).
            map: U64Map::with_capacity(capacity),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// The slot index holding `key`, if resident.
    pub fn index_of(&self, key: u64) -> Option<u32> {
        self.map.get(key).copied()
    }

    pub fn slot_mut(&mut self, idx: u32) -> &mut Slot<M> {
        &mut self.slots[idx as usize]
    }

    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Unlinks a slot from the list (leaves it in the map; callers pair
    /// this with [`FrameList::link_front`] or [`FrameList::release`]).
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links a slot at the head.
    fn link_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Moves a resident slot to the head (LRU promotion).
    pub fn move_to_front(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Inserts a new key at the head, reusing a freed slot when one is
    /// available. The caller guarantees `key` is not resident and has
    /// already made room (this never evicts).
    pub fn push_front(&mut self, key: u64, meta: M) -> u32 {
        debug_assert!(!self.contains(key), "push_front of a resident key");
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.key = key;
                s.meta = meta;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    key,
                    prev: NIL,
                    next: NIL,
                    meta,
                });
                idx
            }
        };
        self.link_front(idx);
        self.map.insert(key, idx);
        idx
    }

    /// Unlinks a slot, removes its key from the index, and recycles the
    /// slot. Returns the key it held.
    pub fn release(&mut self, idx: u32) -> u64 {
        let key = self.slots[idx as usize].key;
        self.unlink(idx);
        self.map.remove(key);
        self.free.push(idx);
        key
    }

    /// Resident keys from head to tail (insertion/recency order).
    pub fn iter_from_head(&self) -> IterFromHead<'_, M> {
        IterFromHead {
            frames: self,
            next: self.head,
        }
    }
}

/// Iterator over resident keys in head→tail order.
#[derive(Debug)]
pub(crate) struct IterFromHead<'a, M> {
    frames: &'a FrameList<M>,
    next: u32,
}

impl<M> Iterator for IterFromHead<'_, M> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next == NIL {
            return None;
        }
        let slot = &self.frames.slots[self.next as usize];
        self.next = slot.next;
        Some(slot.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = FrameList::<()>::new(0);
    }

    #[test]
    fn push_release_and_reuse() {
        let mut f = FrameList::new(4);
        let a = f.push_front(1, ());
        let b = f.push_front(2, ());
        assert_eq!(f.iter_from_head().collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(f.tail(), a);
        assert_eq!(f.release(b), 2);
        assert!(!f.contains(2));
        // The freed slot is reused for the next insertion.
        assert_eq!(f.push_front(3, ()), b);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut f = FrameList::new(4);
        for k in [1, 2, 3] {
            f.push_front(k, ());
        }
        let idx = f.index_of(1).unwrap();
        f.move_to_front(idx);
        assert_eq!(f.iter_from_head().collect::<Vec<_>>(), vec![1, 3, 2]);
    }
}
