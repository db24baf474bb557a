//! Allocation-lean open-addressing containers for `u64` block keys.
//!
//! Every per-event structure in the workspace — the LRU's key→slot
//! index, the precise miss-count table, the discrete epoch residency set,
//! the per-epoch access counter — is keyed by a packed
//! [`GlobalBlock`](crate::GlobalBlock) `u64`. `std::collections::HashMap`
//! pays SipHash plus control-byte metadata on every one of those lookups;
//! this module replaces it on the hot path with [`U64Map`]: a
//! power-of-two open-addressing table using a single Fibonacci
//! multiply-shift mixer, linear probing, and backward-shift deletion (no
//! tombstones, so probe chains never degrade over a workload's churn).
//!
//! The probe loop touches only the key array (eight 8-byte keys per cache
//! line); values live in a parallel array touched only on a match.
//! Vacancy is encoded by the reserved key [`u64::MAX`]; the real key
//! `u64::MAX`, should a workload ever produce it, is carried in a
//! dedicated side slot so the table stays total over all 64-bit keys.
//!
//! [`U64Set`] is the value-less variant used for residency sets.
//!
//! # Examples
//!
//! ```
//! use sievestore_types::U64Map;
//!
//! let mut map: U64Map<u32> = U64Map::new();
//! map.insert(42, 7);
//! *map.get_or_insert_with(42, || 0) += 1;
//! assert_eq!(map.get(42), Some(&8));
//! assert_eq!(map.remove(9), None);
//! assert_eq!(map.remove(42), Some(8));
//! assert!(map.is_empty());
//! ```

/// Reserved vacancy marker inside the key array. The key `u64::MAX`
/// itself is stored out of band (see [`U64Map`]).
const VACANT: u64 = u64::MAX;

/// Smallest allocated table size (slots).
const MIN_SLOTS: usize = 16;

/// The Fibonacci multiply-shift mixer: multiply by 2^64/φ and keep the
/// top bits. Multiplication diffuses every input bit into the high output
/// bits, which is exactly the slice a power-of-two table indexes with, so
/// sequential or strided block keys spread evenly without a second
/// mixing round.
#[inline]
const fn fib_mix(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An open-addressing hash map from `u64` keys to `V` values.
///
/// Capacity is always a power of two; lookups are one multiply, one
/// shift, and a linear scan of the key array. Deletion uses backward
/// shifting, so the table carries no tombstones and lookup cost stays a
/// function of load factor alone. The maximum load factor is 3/4.
///
/// `V: Default` is required: vacated value slots are reset to the default
/// value (this is what lets the value array be plain `Box<[V]>` with no
/// per-slot `Option` overhead).
#[derive(Debug, Clone)]
pub struct U64Map<V> {
    /// Slot keys; `VACANT` marks an empty slot.
    keys: Box<[u64]>,
    /// Slot values, parallel to `keys`.
    values: Box<[V]>,
    /// `keys.len() - 1` (0 for an unallocated table).
    mask: usize,
    /// `64 - log2(keys.len())`: the Fibonacci shift.
    shift: u32,
    /// Occupied slots (excluding the out-of-band `u64::MAX` entry).
    len: usize,
    /// Value for the key `u64::MAX`, which cannot live in the key array.
    max_key: Option<V>,
}

impl<V: Default> Default for U64Map<V> {
    fn default() -> Self {
        U64Map::new()
    }
}

impl<V: Default> U64Map<V> {
    /// Creates an empty map; no allocation until the first insert.
    pub fn new() -> Self {
        U64Map {
            keys: Box::new([]),
            values: Box::new([]),
            mask: 0,
            shift: 0,
            len: 0,
            max_key: None,
        }
    }

    /// Creates a map pre-sized so `entries` insertions never rehash.
    pub fn with_capacity(entries: usize) -> Self {
        let mut map = U64Map::new();
        if entries > 0 {
            map.allocate(Self::slots_for(entries));
        }
        map
    }

    /// Slots needed to hold `entries` under the 3/4 load ceiling.
    fn slots_for(entries: usize) -> usize {
        (entries / 3)
            .saturating_mul(4)
            .saturating_add(entries % 3 + 1)
            .next_power_of_two()
            .max(MIN_SLOTS)
    }

    fn allocate(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two());
        self.keys = vec![VACANT; slots].into_boxed_slice();
        self.values = (0..slots).map(|_| V::default()).collect();
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.max_key.is_some())
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated slot count (0 before the first insert).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<V>())
    }

    /// The home slot of `key` in the current table.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (fib_mix(key) >> self.shift) as usize
    }

    /// Probes for `key`: returns `(slot, true)` if present, or
    /// `(first vacant slot, false)` if absent. Requires an allocated
    /// table that is not full.
    #[inline]
    fn probe(&self, key: u64) -> (usize, bool) {
        debug_assert!(!self.keys.is_empty());
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return (i, true);
            }
            if k == VACANT {
                return (i, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Hints the CPU to fetch `key`'s home slot ahead of a lookup.
    /// Changes no state.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if let Some(home) = self.keys.get(self.bucket(key)) {
            crate::prefetch_read(home);
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// A reference to `key`'s value, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key == VACANT {
            return self.max_key.as_ref();
        }
        if self.keys.is_empty() {
            return None;
        }
        let (slot, found) = self.probe(key);
        found.then(|| &self.values[slot])
    }

    /// A mutable reference to `key`'s value, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key == VACANT {
            return self.max_key.as_mut();
        }
        if self.keys.is_empty() {
            return None;
        }
        let (slot, found) = self.probe(key);
        found.then(|| &mut self.values[slot])
    }

    /// Grows if inserting one more entry would exceed the load ceiling.
    #[inline]
    fn grow_if_needed(&mut self) {
        if self.keys.is_empty() {
            self.allocate(MIN_SLOTS);
        } else if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.rehash(self.keys.len() * 2);
        }
    }

    fn rehash(&mut self, new_slots: usize) {
        let old_keys = std::mem::replace(&mut self.keys, Box::new([]));
        let old_values = std::mem::replace(&mut self.values, Box::new([]));
        self.allocate(new_slots);
        for (key, value) in old_keys.into_vec().into_iter().zip(old_values.into_vec()) {
            if key != VACANT {
                let (slot, found) = self.probe(key);
                debug_assert!(!found, "duplicate key during rehash");
                self.keys[slot] = key;
                self.values[slot] = value;
            }
        }
    }

    /// Inserts `key → value`, returning the previous value if the key was
    /// present.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == VACANT {
            return self.max_key.replace(value);
        }
        self.grow_if_needed();
        let (slot, found) = self.probe(key);
        if found {
            Some(std::mem::replace(&mut self.values[slot], value))
        } else {
            self.keys[slot] = key;
            self.values[slot] = value;
            self.len += 1;
            None
        }
    }

    /// Returns a mutable reference to `key`'s value, inserting
    /// `default()` first if absent — the single-probe upsert the per-event
    /// counters use.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if key == VACANT {
            return self.max_key.get_or_insert_with(default);
        }
        self.grow_if_needed();
        let (slot, found) = self.probe(key);
        if !found {
            self.keys[slot] = key;
            self.values[slot] = default();
            self.len += 1;
        }
        &mut self.values[slot]
    }

    /// Removes `key`, returning its value if it was present.
    ///
    /// Uses backward-shift deletion: every displaced successor in the
    /// probe cluster is moved one hole closer to its home slot, so no
    /// tombstone is left behind.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key == VACANT {
            return self.max_key.take();
        }
        if self.keys.is_empty() {
            return None;
        }
        let (slot, found) = self.probe(key);
        if !found {
            return None;
        }
        let value = std::mem::take(&mut self.values[slot]);
        self.delete_slot(slot);
        Some(value)
    }

    /// Empties `slot` and backward-shifts the tail of its probe cluster.
    fn delete_slot(&mut self, slot: usize) {
        let mut hole = slot;
        let mut i = slot;
        loop {
            i = (i + 1) & self.mask;
            let k = self.keys[i];
            if k == VACANT {
                break;
            }
            // `i` may move into the hole iff its home slot is cyclically
            // no later than the hole (otherwise the move would place it
            // before its home and lookups would miss it).
            let home = self.bucket(k);
            if (i.wrapping_sub(home) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = k;
                self.values[hole] = std::mem::take(&mut self.values[i]);
                hole = i;
            }
        }
        self.keys[hole] = VACANT;
        self.values[hole] = V::default();
        self.len -= 1;
    }

    /// Keeps only the entries for which `keep` returns `true`.
    ///
    /// `keep` must be a pure function of `(key, value)`: backward-shift
    /// deletion can relocate surviving entries into slots the scan has
    /// already passed, in which case they are re-tested.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        if let Some(v) = self.max_key.as_mut() {
            if !keep(VACANT, v) {
                self.max_key = None;
            }
        }
        let mut i = 0;
        while i < self.keys.len() {
            let k = self.keys[i];
            if k != VACANT && !keep(k, &mut self.values[i]) {
                self.delete_slot(i);
                // A successor may have shifted into slot i: re-test it.
                continue;
            }
            i += 1;
        }
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = VACANT);
        self.values.iter_mut().for_each(|v| *v = V::default());
        self.len = 0;
        self.max_key = None;
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(&k, _)| k != VACANT)
            .map(|(&k, v)| (k, v))
            .chain(self.max_key.iter().map(|v| (VACANT, v)))
    }

    /// Iterates over the stored keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// Order-independent equality: two maps are equal iff they hold the same
/// key→value pairs, regardless of slot layout or growth history.
impl<V: Default + PartialEq> PartialEq for U64Map<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<V: Default + Eq> Eq for U64Map<V> {}

/// An open-addressing set of `u64` keys — [`U64Map`] without values.
///
/// # Examples
///
/// ```
/// use sievestore_types::U64Set;
///
/// let mut set = U64Set::new();
/// assert!(set.insert(3));
/// assert!(!set.insert(3));
/// assert!(set.contains(3));
/// assert!(set.remove(3));
/// assert!(set.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct U64Set {
    map: U64Map<()>,
}

impl U64Set {
    /// Creates an empty set; no allocation until the first insert.
    pub fn new() -> Self {
        U64Set::default()
    }

    /// Creates a set pre-sized so `entries` insertions never rehash.
    pub fn with_capacity(entries: usize) -> Self {
        U64Set {
            map: U64Map::with_capacity(entries),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// Hints the CPU to fetch `key`'s home slot ahead of a lookup.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.map.prefetch(key);
    }

    /// Adds `key`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }

    /// Drops every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Iterates over the stored keys in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.keys()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.map.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn empty_map_operations() {
        let mut m: U64Map<u32> = U64Map::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.slots(), 0);
        assert_eq!(m.get(5), None);
        assert_eq!(m.remove(5), None);
        assert_eq!(m.iter().count(), 0);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: U64Map<u32> = U64Map::new();
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.get(2), Some(&20));
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reserved_max_key_is_a_legal_key() {
        let mut m: U64Map<u32> = U64Map::new();
        assert_eq!(m.insert(u64::MAX, 7), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(u64::MAX));
        assert_eq!(m.insert(u64::MAX, 9), Some(7));
        *m.get_or_insert_with(u64::MAX, || 0) += 1;
        assert_eq!(m.get(u64::MAX), Some(&10));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(u64::MAX, &10)]);
        m.retain(|_, _| false);
        assert!(!m.contains_key(u64::MAX));
        assert_eq!(m.remove(u64::MAX), None);
    }

    #[test]
    fn get_or_insert_with_upserts() {
        let mut m: U64Map<u64> = U64Map::new();
        for _ in 0..3 {
            *m.get_or_insert_with(9, || 0) += 1;
        }
        assert_eq!(m.get(9), Some(&3));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m: U64Map<u32> = U64Map::new();
        for k in 0..10_000u64 {
            m.insert(k, (k * 3) as u32);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some(&((k * 3) as u32)), "key {k}");
        }
        // Load factor stays at or below 3/4.
        assert!(m.len() * 4 <= m.slots() * 3);
    }

    #[test]
    fn with_capacity_never_rehashes() {
        let mut m: U64Map<u32> = U64Map::with_capacity(1000);
        let slots = m.slots();
        assert!(slots >= 1000 * 4 / 3);
        for k in 0..1000u64 {
            m.insert(k, 0);
        }
        assert_eq!(m.slots(), slots, "pre-sized map must not rehash");
    }

    /// Forces a probe cluster that wraps the end of the table, then
    /// deletes through it — the classic backward-shift edge case.
    #[test]
    fn backward_shift_across_wraparound() {
        let mut m: U64Map<u32> = U64Map::with_capacity(4); // 16 slots
        let slots = m.slots() as u64;
        // Find keys whose home slot is the last slot of the table.
        let colliders: Vec<u64> = (0..100_000u64)
            .filter(|&k| (fib_mix(k) >> (64 - slots.trailing_zeros())) == slots - 1)
            .take(4)
            .collect();
        assert_eq!(colliders.len(), 4, "need 4 colliding keys");
        for (i, &k) in colliders.iter().enumerate() {
            m.insert(k, i as u32);
        }
        // The cluster now wraps into slots 0..2. Delete the head and make
        // sure the wrapped tail stays reachable.
        assert_eq!(m.remove(colliders[0]), Some(0));
        for (i, &k) in colliders.iter().enumerate().skip(1) {
            assert_eq!(m.get(k), Some(&(i as u32)), "collider {i} lost");
        }
        assert_eq!(m.remove(colliders[2]), Some(2));
        assert_eq!(m.get(colliders[1]), Some(&1));
        assert_eq!(m.get(colliders[3]), Some(&3));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn retain_keeps_matching_entries() {
        let mut m: U64Map<u32> = U64Map::new();
        for k in 0..1000u64 {
            m.insert(k, k as u32);
        }
        m.retain(|k, _| k % 3 == 0);
        assert_eq!(m.len(), 334);
        for k in 0..1000u64 {
            assert_eq!(m.contains_key(k), k % 3 == 0, "key {k}");
        }
    }

    #[test]
    fn clear_retains_allocation_and_empties() {
        let mut m: U64Map<u32> = U64Map::new();
        for k in 0..100u64 {
            m.insert(k, 1);
        }
        let slots = m.slots();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots(), slots);
        assert_eq!(m.get(5), None);
        m.insert(5, 2);
        assert_eq!(m.get(5), Some(&2));
    }

    #[test]
    fn set_basics() {
        let mut s = U64Set::with_capacity(10);
        assert!(s.insert(1));
        assert!(s.insert(u64::MAX));
        assert!(!s.insert(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(u64::MAX));
        let mut keys: Vec<u64> = s.iter().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, u64::MAX]);
        assert!(s.remove(1));
        assert!(!s.remove(1));
        s.clear();
        assert!(s.is_empty());
        assert!(s.memory_bytes() > 0);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Upsert(u64),
        Remove(u64),
        Get(u64),
        RetainMod(u64),
        Clear,
    }

    fn key_strategy() -> impl Strategy<Value = u64> {
        // Small keys collide in buckets often; the special values exercise
        // the reserved-key path and extreme mixes. (Weights are emulated
        // by repetition — the proptest shim's prop_oneof! is unweighted.)
        prop_oneof![
            0u64..64,
            0u64..64,
            0u64..64,
            0u64..64,
            any::<u64>(),
            any::<u64>(),
            Just(u64::MAX),
            Just(0u64),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let ins = || (key_strategy(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v));
        prop_oneof![
            ins(),
            ins(),
            ins(),
            key_strategy().prop_map(Op::Upsert),
            key_strategy().prop_map(Op::Upsert),
            key_strategy().prop_map(Op::Remove),
            key_strategy().prop_map(Op::Remove),
            key_strategy().prop_map(Op::Get),
            (1u64..5).prop_map(Op::RetainMod),
            Just(Op::Clear),
        ]
    }

    proptest! {
        /// The open-addressing map is observationally identical to
        /// `std::collections::HashMap` under arbitrary op sequences,
        /// including backward-shift deletions and retain sweeps.
        #[test]
        fn matches_std_hashmap(ops in proptest::collection::vec(op_strategy(), 0..600)) {
            let mut fast: U64Map<u32> = U64Map::new();
            let mut std_map: HashMap<u64, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(fast.insert(k, v), std_map.insert(k, v));
                    }
                    Op::Upsert(k) => {
                        let fv = fast.get_or_insert_with(k, || 7);
                        *fv += 1;
                        let sv = std_map.entry(k).or_insert(7);
                        *sv += 1;
                        prop_assert_eq!(&*fv, sv);
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(fast.remove(k), std_map.remove(&k));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(fast.get(k), std_map.get(&k));
                    }
                    Op::RetainMod(m) => {
                        fast.retain(|k, v| (k.wrapping_add(*v as u64)) % m != 0);
                        std_map.retain(|k, v| (k.wrapping_add(*v as u64)) % m != 0);
                    }
                    Op::Clear => {
                        fast.clear();
                        std_map.clear();
                    }
                }
                prop_assert_eq!(fast.len(), std_map.len());
                // Full-content check: iteration yields exactly the std map.
                let mut got: Vec<(u64, u32)> = fast.iter().map(|(k, &v)| (k, v)).collect();
                got.sort_unstable();
                let mut want: Vec<(u64, u32)> = std_map.iter().map(|(&k, &v)| (k, v)).collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }
}
