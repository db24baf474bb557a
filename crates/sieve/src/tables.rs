//! The two miss-count tables: aliased IMCT and precise MCT.
//!
//! SieveStore-C must keep metastate for blocks that are *not* in the cache,
//! and that metastate is consulted on every miss, so it must live in
//! memory. Tracking every accessed block precisely would explode, so the
//! paper (§3.3) uses two tiers:
//!
//! * [`Imct`] — the *imprecise miss-count table*: a fixed-size array of
//!   windowed counters indexed by a hash of the block key. The
//!   many-to-one mapping aliases, so counts can only be *inflated* for any
//!   particular block (no false negatives against a threshold).
//! * [`Mct`] — the *precise miss-count table*: a hash table keyed by exact
//!   block, populated only for blocks that already passed the IMCT
//!   threshold, and pruned periodically to drop stale entries.
//!
//! Both store the same 8-byte window counter by value — eight to a cache
//! line, `k` and the stamp base kept once per table — so a miss costs one
//! line in the IMCT and, for graduated blocks, one 16-byte MCT slot.

use sievestore_types::{mix64, prefetch_read, Micros, U64Map};

use crate::window::{Stamps, WindowConfig, WindowedCounter};

/// How a key's hash becomes a local slot: global slot `hash mod total`,
/// then local index `global / stride`. When `total` is a power of two
/// (so `stride`, which divides it, is one too) both steps are exact bit
/// operations: `h & (total - 1) == h % total`, and `>> log2(stride)` is
/// the division.
#[derive(Debug, Clone, Copy)]
enum SlotIndex {
    Mask { mask: u64, shift: u32 },
    Modulo { total: u64, stride: u64 },
}

/// The imprecise (aliased) miss-count table.
///
/// Slots are indexed by the workspace-wide [`mix64`] hash. A table can
/// also be built as one *shard* of a larger logical table
/// ([`Imct::for_shard`]): shard `s` of `n` owns exactly the global slots
/// `g` with `g % n == s`, stored contiguously at local index `g / n`.
/// Because the replay engine routes keys to workers with the same hash
/// (`shard_of(key, n) == global_slot % n` whenever `n` divides the slot
/// count), the shard sees every key of its slots and no others — so the
/// sharded slot states, including aliasing collisions, are bit-identical
/// to the sequential table's.
///
/// # Examples
///
/// ```
/// use sievestore_sieve::{Imct, WindowConfig};
/// use sievestore_types::Micros;
///
/// let mut imct = Imct::new(1024, WindowConfig::paper_default());
/// let now = Micros::from_hours(1);
/// assert_eq!(imct.record_miss(42, now), 1);
/// assert_eq!(imct.record_miss(42, now), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Imct {
    entries: Box<[WindowedCounter]>,
    stamps: Stamps,
    index: SlotIndex,
}

impl Imct {
    /// Creates a table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize, config: WindowConfig) -> Self {
        assert!(entries > 0, "imct needs at least one entry");
        Imct::for_shard(entries, 0, 1, config)
    }

    /// Creates shard `shard` of a logical `total_entries`-slot table split
    /// across `shards` workers. The shard holds `total_entries / shards`
    /// slots — the global slots congruent to `shard` modulo `shards` —
    /// and reproduces the logical table's slot states exactly for every
    /// key whose global slot it owns.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `shard >= shards`, or `shards` does not
    /// divide `total_entries` (divisibility is what aligns slot ownership
    /// with the `mix64`-based key partition).
    pub fn for_shard(
        total_entries: usize,
        shard: usize,
        shards: usize,
        config: WindowConfig,
    ) -> Self {
        assert!(shards > 0, "shard count must be nonzero");
        assert!(shard < shards, "shard index out of range");
        assert!(
            total_entries.is_multiple_of(shards) && total_entries > 0,
            "shard count must divide the imct slot count"
        );
        let (total, stride) = (total_entries as u64, shards as u64);
        Imct {
            entries: vec![WindowedCounter::default(); total_entries / shards].into(),
            stamps: Stamps::new(config),
            index: if total.is_power_of_two() {
                SlotIndex::Mask {
                    mask: total - 1,
                    shift: stride.trailing_zeros(),
                }
            } else {
                SlotIndex::Modulo { total, stride }
            },
        }
    }

    /// Number of slots held locally.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has zero slots (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The local slot a key maps to (exposed for aliasing tests). For a
    /// sharded table this is only meaningful for keys routed to this
    /// shard (`shard_of(key, shards)` equal to this shard's index).
    #[inline]
    pub fn slot_of(&self, key: u64) -> usize {
        let hash = mix64(key);
        (match self.index {
            SlotIndex::Mask { mask, shift } => (hash & mask) >> shift,
            SlotIndex::Modulo { total, stride } => (hash % total) / stride,
        }) as usize
    }

    /// The global subwindow `now` falls in.
    #[inline]
    pub(crate) fn subwindow(&mut self, now: Micros) -> u64 {
        self.stamps.subwindow(now)
    }

    #[inline]
    fn stamp(&mut self, sub: u64) -> u32 {
        let entries = &mut self.entries;
        self.stamps.stamp(sub, |shift| {
            entries.iter_mut().for_each(|c| c.rebase(shift))
        })
    }

    /// Records a miss for `key` at time `now`; returns the slot's
    /// in-window total (which may include aliased contributions), each
    /// subwindow's count saturating at 255.
    pub fn record_miss(&mut self, key: u64, now: Micros) -> u32 {
        let sub = self.subwindow(now);
        self.record_at(key, sub)
    }

    /// [`Imct::record_miss`] at an already resolved subwindow.
    #[inline]
    pub(crate) fn record_at(&mut self, key: u64, sub: u64) -> u32 {
        let now = self.stamp(sub);
        let slot = self.slot_of(key);
        self.entries[slot].record(now, self.stamps.k)
    }

    /// The slot's in-window total without recording (saturated alike).
    pub fn peek(&mut self, key: u64, now: Micros) -> u32 {
        let sub = self.subwindow(now);
        let now = self.stamp(sub);
        let slot = self.slot_of(key);
        self.entries[slot].total(now, self.stamps.k)
    }

    /// Hints the CPU to fetch `key`'s slot ahead of a probable
    /// [`Imct::record_miss`]. Changes no state.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        prefetch_read(&self.entries[self.slot_of(key)]);
    }

    /// Resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.entries)
    }
}

/// The precise miss-count table: an open-addressing [`U64Map`] from block
/// key to a window counter in the map slot itself (16 bytes with the
/// key), so steady-state churn allocates nothing and a miss is one probe.
///
/// # Examples
///
/// ```
/// use sievestore_sieve::{Mct, WindowConfig};
/// use sievestore_types::Micros;
///
/// let mut mct = Mct::new(WindowConfig::paper_default());
/// let now = Micros::from_hours(2);
/// assert_eq!(mct.record_miss(7, now), 1);
/// assert_eq!(mct.record_miss(7, now), 2);
/// assert_eq!(mct.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mct {
    counters: U64Map<WindowedCounter>,
    stamps: Stamps,
}

impl Mct {
    /// Creates an empty table.
    pub fn new(config: WindowConfig) -> Self {
        Mct {
            counters: U64Map::new(),
            stamps: Stamps::new(config),
        }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no block is tracked.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The stamp of subwindow `sub`, and `k`.
    #[inline]
    fn stamp(&mut self, sub: u64) -> (u32, u32) {
        let counters = &mut self.counters;
        let stamp = self.stamps.stamp(sub, |shift| {
            counters.retain(|_, c| {
                c.rebase(shift);
                true
            })
        });
        (stamp, self.stamps.k)
    }

    /// `key`'s counter, and whether this call created it (blank at `now`).
    #[inline]
    fn entry(&mut self, key: u64, now: u32) -> (&mut WindowedCounter, bool) {
        let mut created = false;
        let counter = self.counters.get_or_insert_with(key, || {
            created = true;
            WindowedCounter::blank_at(now)
        });
        (counter, created)
    }

    /// A graduating miss at subwindow `sub`: [`Mct::ensure`] (`None`) or [`Mct::record_miss`].
    #[inline]
    pub(crate) fn graduate(&mut self, key: u64, sub: u64) -> Option<u32> {
        let (now, k) = self.stamp(sub);
        let (counter, created) = self.entry(key, now);
        (!created).then(|| counter.record(now, k))
    }

    /// Ensures an entry exists for `key` (zero count, live at `now`);
    /// returns whether it already existed. Used when a block graduates
    /// from the IMCT: the graduating miss itself does not count toward
    /// the *additional* `t2` misses.
    pub fn ensure(&mut self, key: u64, now: Micros) -> bool {
        let sub = self.stamps.subwindow(now);
        let (now, _) = self.stamp(sub);
        !self.entry(key, now).1
    }

    /// Records a miss for `key`; returns `key`'s exact in-window count,
    /// each subwindow's share saturating at 255 as in the IMCT.
    pub fn record_miss(&mut self, key: u64, now: Micros) -> u32 {
        let sub = self.stamps.subwindow(now);
        let (now, k) = self.stamp(sub);
        self.entry(key, now).0.record(now, k)
    }

    /// `key`'s exact in-window count without recording.
    pub fn peek(&mut self, key: u64, now: Micros) -> u32 {
        let sub = self.stamps.subwindow(now);
        let (now, k) = self.stamp(sub);
        self.counters.get_mut(key).map_or(0, |c| c.total(now, k))
    }

    /// Drops entries whose whole window has expired ("periodically we
    /// prune the MCT to eliminate stale blocks"). Returns how many were
    /// removed.
    pub fn prune(&mut self, now: Micros) -> usize {
        let sub = self.stamps.subwindow(now);
        let (now, k) = self.stamp(sub);
        let before = self.counters.len();
        self.counters.retain(|_, counter| !counter.is_stale(now, k));
        before - self.counters.len()
    }

    /// Removes a specific key (used when a block gets allocated and no
    /// longer needs miss tracking).
    pub fn remove(&mut self, key: u64) -> bool {
        self.counters.remove(key).is_some()
    }

    /// Resident size in bytes: every map slot holds a key and a counter.
    pub fn memory_bytes(&self) -> usize {
        self.counters.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::reference::BoxedCounter;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn cfg() -> WindowConfig {
        WindowConfig::paper_default()
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_imct_panics() {
        let _ = Imct::new(0, cfg());
    }

    #[test]
    #[should_panic(expected = "subwindows")]
    fn a_table_refuses_more_subwindows_than_a_counter_holds() {
        // A struct literal, since `WindowConfig::new` would panic first.
        let window = WindowConfig {
            subwindows: WindowConfig::MAX_SUBWINDOWS + 1,
            ..cfg()
        };
        let _ = Mct::new(window);
    }

    #[test]
    fn imct_counts_misses_within_window() {
        let mut imct = Imct::new(64, cfg());
        let now = Micros::from_hours(1);
        assert_eq!(imct.record_miss(1, now), 1);
        assert_eq!(imct.record_miss(1, now), 2);
        assert_eq!(imct.peek(1, now), 2);
        // 9 hours later the whole window has rolled over.
        assert_eq!(imct.peek(1, Micros::from_hours(10)), 0);
    }

    #[test]
    fn imct_aliases_share_one_slot() {
        let mut imct = Imct::new(1, cfg()); // everything aliases
        let now = Micros::from_hours(1);
        imct.record_miss(100, now);
        imct.record_miss(200, now);
        assert_eq!(imct.peek(300, now), 2, "aliased slot inflates counts");
    }

    #[test]
    fn imct_distinct_slots_do_not_interfere() {
        let mut imct = Imct::new(1 << 16, cfg());
        let now = Micros::from_hours(1);
        // Find two keys in different slots.
        let a = 1u64;
        let b = (2..)
            .find(|&k| imct.slot_of(k) != imct.slot_of(a))
            .expect("distinct slot exists");
        imct.record_miss(a, now);
        assert_eq!(imct.peek(b, now), 0);
    }

    #[test]
    fn mct_is_exact_per_key() {
        let mut mct = Mct::new(cfg());
        let now = Micros::from_hours(3);
        mct.record_miss(1, now);
        mct.record_miss(1, now);
        mct.record_miss(2, now);
        assert_eq!(mct.peek(1, now), 2);
        assert_eq!(mct.peek(2, now), 1);
        assert_eq!(mct.peek(3, now), 0);
        assert_eq!(mct.len(), 2);
    }

    #[test]
    fn mct_prune_removes_only_stale_entries() {
        let mut mct = Mct::new(cfg());
        mct.record_miss(1, Micros::from_hours(0));
        mct.record_miss(2, Micros::from_hours(9));
        // At hour 9, key 1 (hour 0) is more than 8h = 4 subwindows old.
        let removed = mct.prune(Micros::from_hours(9));
        assert_eq!(removed, 1);
        assert_eq!(mct.len(), 1);
        assert_eq!(mct.peek(2, Micros::from_hours(9)), 1);
    }

    #[test]
    fn mct_remove_specific_key() {
        let mut mct = Mct::new(cfg());
        mct.record_miss(5, Micros::from_hours(1));
        assert!(mct.remove(5));
        assert!(!mct.remove(5));
        assert!(mct.is_empty());
    }

    #[test]
    fn sharded_imct_reproduces_global_slot_states() {
        // Route keys by shard_of and compare every shard's counts against
        // the unsharded table — including aliasing within a slot.
        let total = 64;
        let shards = 4;
        let mut whole = Imct::new(total, cfg());
        let mut parts: Vec<Imct> = (0..shards)
            .map(|s| Imct::for_shard(total, s, shards, cfg()))
            .collect();
        let now = Micros::from_hours(1);
        for key in 0..5000u64 {
            let whole_count = whole.record_miss(key, now);
            let s = sievestore_types::shard_of(key, shards);
            let part_count = parts[s].record_miss(key, now);
            assert_eq!(whole_count, part_count, "key {key} diverged");
        }
    }

    #[test]
    fn sharded_imct_slot_indices_stay_in_range() {
        let parts: Vec<Imct> = (0..8)
            .map(|s| Imct::for_shard(1 << 10, s, 8, cfg()))
            .collect();
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), 128);
            for key in 0..2000u64 {
                if sievestore_types::shard_of(key, 8) == s {
                    assert!(part.slot_of(key) < part.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn sharded_imct_requires_divisibility() {
        let _ = Imct::for_shard(100, 0, 3, cfg());
    }

    #[test]
    fn memory_is_the_real_slot_size_times_the_slot_count() {
        // 8 B per IMCT slot; 8 B key + 8 B counter per MCT map slot.
        assert_eq!(Imct::new(1000, cfg()).memory_bytes(), 1000 * 8);
        assert_eq!(
            Imct::for_shard(1 << 10, 1, 4, cfg()).memory_bytes(),
            256 * 8
        );
        let mut mct = Mct::new(cfg());
        assert_eq!(mct.memory_bytes(), 0);
        mct.record_miss(1, Micros::from_hours(0));
        assert_eq!(mct.memory_bytes(), mct.counters.slots() * 16);
        assert!(mct.counters.slots() > 0);
    }

    /// `k` subwindows of 1 µs each, so an instant is a subwindow index.
    fn micro(k: u32) -> WindowConfig {
        WindowConfig::new(Micros::new(u64::from(k)), k)
    }

    #[test]
    fn a_rebase_re_stamps_every_imct_slot_and_clears_the_stale_ones() {
        let mut imct = Imct::new(16, micro(4));
        let keys: Vec<u64> = (0..64).collect();
        let mut model: Vec<BoxedCounter> = (0..16).map(|_| BoxedCounter::new(4)).collect();
        let start = (1u64 << 32) + 3;
        // Each pass moves the base: the first past 2^32, the next two by
        // 2^30 + 1 and 2^30 + 2. A key's slot keeps the passes within `k`
        // of each other and clears the older ones, as the model does.
        let passes = [
            start,
            start + 2,
            start + (1 << 30) + 1,
            start + (1 << 31) + 3,
        ];
        for (pass, &sub) in passes.iter().enumerate() {
            for &key in keys.iter().skip(pass % 2) {
                let want = model[imct.slot_of(key)].record(sub);
                assert_eq!(imct.record_miss(key, Micros::new(sub)), want, "key {key}");
            }
        }
        // Late, but inside the lateness the stamps keep exact.
        let late = start + (1 << 31);
        for &key in &keys {
            let want = model[imct.slot_of(key)].total(late);
            assert_eq!(imct.peek(key, Micros::new(late)), want, "key {key}");
        }
    }

    #[test]
    fn a_rebase_keeps_the_mct_entries_and_their_counts() {
        let mut mct = Mct::new(micro(4));
        // The first miss moves the base to 2^30 behind it.
        let start = (1u64 << 33) + 1;
        mct.record_miss(1, Micros::new(start));
        mct.record_miss(2, Micros::new(start + (1 << 30) - 2));
        mct.record_miss(2, Micros::new(start + (1 << 30) - 1));
        // 2^31 + 1 past the base: key 1 is stale and cleared, key 2 is
        // re-stamped with both its counts.
        let now = Micros::new(start + (1 << 30) + 1);
        assert_eq!(mct.peek(2, now), 2);
        assert_eq!(mct.len(), 2, "a rebase removes no entry");
        assert_eq!(mct.prune(now), 1, "key 1 is pruned as stale");
        assert_eq!(mct.peek(1, now), 0);
        assert_eq!(mct.record_miss(2, now), 3);
    }

    #[test]
    fn slots_follow_the_modulo_mapping_at_any_table_size() {
        // The mask path (powers of two) and the `%` path pick the same
        // slot `mix64(key) % n` would; shards store slot `g` at `g / n`.
        for total in [1usize, 2, 64, 1 << 12, 3, 100, 96, 1000] {
            let whole = Imct::new(total, cfg());
            for key in (0..3000u64).chain([u64::MAX, u64::MAX - 1]) {
                let global = mix64(key) % total as u64;
                assert_eq!(
                    whole.slot_of(key) as u64,
                    global,
                    "{total} slots, key {key}"
                );
                for shards in [2usize, 4, 5, 8] {
                    if total % shards != 0 {
                        continue;
                    }
                    let shard = sievestore_types::shard_of(key, shards);
                    assert_eq!(shard as u64, global % shards as u64);
                    let part = Imct::for_shard(total, shard, shards, cfg());
                    assert_eq!(part.slot_of(key) as u64, global / shards as u64);
                }
            }
        }
    }

    proptest! {
        /// Aliasing can only inflate: for any key, the IMCT count is at
        /// least the key's true miss count within the window.
        #[test]
        fn imct_never_undercounts(
            keys in proptest::collection::vec(0u64..500, 1..300),
            table_bits in 0u32..8,
        ) {
            let mut imct = Imct::new(1 << table_bits, cfg());
            let mut exact: HashMap<u64, u32> = HashMap::new();
            let now = Micros::from_hours(1); // single subwindow: no expiry
            for &k in &keys {
                imct.record_miss(k, now);
                *exact.entry(k).or_insert(0) += 1;
            }
            for (&k, &true_count) in &exact {
                prop_assert!(imct.peek(k, now) >= true_count);
            }
        }

        /// Across subwindows, the MCT is a map from key to the reference
        /// counter: every call returns what a `HashMap` of boxed counters
        /// returns, through creation, removal and pruning.
        #[test]
        fn mct_matches_a_map_of_reference_counters(
            ops in proptest::collection::vec((0u8..5, 0u64..24, 0u64..40), 0..400),
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
            micros in any::<bool>(),
        ) {
            // Hours in any order, or 1 µs subwindows past 2^32: out of
            // order by up to 40 within each run of 40 ops, and 2^29 on
            // from one run to the next, which moves the base every few.
            let config = if micros { micro(k) } else { WindowConfig::new(Micros::from_hours(8), k) };
            let mut mct = Mct::new(config);
            let mut model: HashMap<u64, BoxedCounter> = HashMap::new();
            for (i, (op, key, step)) in ops.into_iter().enumerate() {
                let now = if micros {
                    Micros::new((1 << 32) + (i as u64 / 40) * (1 << 29) + step)
                } else {
                    Micros::from_hours(step)
                };
                let sub = config.subwindow_index(now);
                match op {
                    0 => {
                        let existed = model.contains_key(&key);
                        model.entry(key).or_insert_with(|| {
                            let mut fresh = BoxedCounter::new(k);
                            fresh.observe(sub);
                            fresh
                        });
                        prop_assert_eq!(mct.ensure(key, now), existed);
                    }
                    1 => {
                        let want = model.entry(key).or_insert_with(|| BoxedCounter::new(k)).record(sub);
                        prop_assert_eq!(mct.record_miss(key, now), want);
                    }
                    2 => prop_assert_eq!(mct.remove(key), model.remove(&key).is_some()),
                    3 => {
                        let before = model.len();
                        model.retain(|_, c| !c.is_stale(sub));
                        prop_assert_eq!(mct.prune(now), before - model.len());
                    }
                    _ => {
                        let want = model.get_mut(&key).map_or(0, |c| c.total(sub));
                        prop_assert_eq!(mct.peek(key, now), want);
                    }
                }
                prop_assert_eq!(mct.len(), model.len());
            }
        }

        /// The MCT always matches a plain per-key counter inside one
        /// subwindow.
        #[test]
        fn mct_matches_plain_counter(
            keys in proptest::collection::vec(0u64..100, 0..300),
        ) {
            let mut mct = Mct::new(cfg());
            let mut exact: HashMap<u64, u32> = HashMap::new();
            let now = Micros::from_hours(1);
            for &k in &keys {
                mct.record_miss(k, now);
                *exact.entry(k).or_insert(0) += 1;
            }
            for (&k, &c) in &exact {
                prop_assert_eq!(mct.peek(k, now), c);
            }
            prop_assert_eq!(mct.len(), exact.len());
        }
    }
}
