//! Shared resident-frame bookkeeping for the list-based caches.
//!
//! [`LruCache`](crate::LruCache) and [`SieveCache`](crate::SieveCache)
//! need the same skeleton: a pre-sized [`U64Map`] from block key to slot
//! index, a slab of slots threaded into an intrusive doubly-linked list,
//! and in-place slot reuse: an eviction hands the victim's slot straight
//! to the key that displaced it. Only the *replacement decision*
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
/// Invariants: `map` holds exactly the slots, every one of them linked;
/// `head`/`tail` delimit the list. Capacity is *not* enforced here —
/// callers [`push_front`](FrameList::push_front) until full, then
/// [`replace`](FrameList::replace) a victim of their choosing, so the
/// policy owns the replacement decision (and its accounting).
#[derive(Debug, Clone)]
pub(crate) struct FrameList<M> {
    capacity: usize,
    map: U64Map<u32>,
    slots: Vec<Slot<M>>,
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

    /// Unlinks a slot from the list (leaves it in the map; callers
    /// re-link it with [`FrameList::link_front`]).
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

    /// Inserts a new key at the head in a new slot. The caller
    /// guarantees `key` is not resident and the list is below capacity.
    pub fn push_front(&mut self, key: u64, meta: M) -> u32 {
        debug_assert!(!self.contains(key), "push_front of a resident key");
        debug_assert!(self.slots.len() < self.capacity, "push_front when full");
        let idx = self.slots.len() as u32;
        self.slots.push(Slot {
            key,
            prev: NIL,
            next: NIL,
            meta,
        });
        self.link_front(idx);
        self.map.insert(key, idx);
        idx
    }

    /// Evicts the key in slot `idx` and reuses the slot for `key`, which
    /// the caller guarantees is not resident: the slot moves to the head
    /// holding `key` and `meta`. Returns the evicted key.
    pub fn replace(&mut self, idx: u32, key: u64, meta: M) -> u64 {
        debug_assert!(!self.contains(key), "replace with a resident key");
        self.unlink(idx);
        let slot = &mut self.slots[idx as usize];
        let evicted = std::mem::replace(&mut slot.key, key);
        slot.meta = meta;
        self.map.remove(evicted);
        self.link_front(idx);
        self.map.insert(key, idx);
        evicted
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
    fn replace_reuses_the_victims_slot_at_the_head() {
        let mut f = FrameList::new(3);
        let a = f.push_front(1, 'a');
        let b = f.push_front(2, 'b');
        f.push_front(3, 'c');
        assert_eq!(f.tail(), a);
        assert_eq!(f.replace(b, 4, 'd'), 2);
        assert_eq!(f.iter_from_head().collect::<Vec<_>>(), vec![4, 3, 1]);
        assert!(!f.contains(2));
        assert_eq!(f.index_of(4), Some(b));
        assert_eq!(f.slot_mut(b).meta, 'd');
        // Replacing the tail moves the tail to its newer neighbour.
        assert_eq!(f.replace(a, 5, 'e'), 1);
        assert_eq!(f.iter_from_head().collect::<Vec<_>>(), vec![5, 4, 3]);
        assert_eq!(f.tail(), f.index_of(3).unwrap());
        assert_eq!(f.len(), 3);
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
