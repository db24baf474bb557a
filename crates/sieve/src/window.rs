//! Discretized sliding-window miss counters.
//!
//! SieveStore-C logically counts a block's misses over the past `W` hours.
//! Keeping per-time-slice state is impractical, so the paper (§3.3)
//! discretizes the window into `k` subwindows of `W/k` each: an entry keeps
//! `k` counters plus the subwindow index of its last update. On an update,
//! if the current subwindow is `k` or more past the last update, all
//! counters are stale and zeroed; otherwise only the skipped subwindows
//! are cleared. The paper tunes `W` = 8 h with `k` = 4.
//!
//! A `WindowedCounter` is a plain 8-byte value — four saturating `u8`
//! counts and a `u32` stamp — so a table of them is one flat allocation;
//! `k` and the stamp base live once per table, in its `Stamps`. Four
//! count bytes are why `k` is capped at [`WindowConfig::MAX_SUBWINDOWS`].

use sievestore_types::Micros;

/// Window discretization parameters.
///
/// # Examples
///
/// ```
/// use sievestore_sieve::WindowConfig;
/// use sievestore_types::Micros;
///
/// let w = WindowConfig::paper_default();
/// assert_eq!(w.subwindows, 4);
/// assert_eq!(w.subwindow_index(Micros::from_hours(3)), 1); // 2h subwindows
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window length `W`.
    pub window: Micros,
    /// Number of subwindows `k`.
    pub subwindows: u32,
}

impl WindowConfig {
    /// Most subwindows a counter holds: its four count bytes (the
    /// paper's tuned `k`, and the only one any experiment uses).
    pub const MAX_SUBWINDOWS: u32 = 4;

    /// The paper's tuned parameters: `W` = 8 hours, `k` = 4.
    pub fn paper_default() -> Self {
        WindowConfig {
            window: Micros::from_hours(8),
            subwindows: 4,
        }
    }

    /// Creates a window configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `subwindows` is outside
    /// `1..=`[`Self::MAX_SUBWINDOWS`].
    pub fn new(window: Micros, subwindows: u32) -> Self {
        assert!(window.as_u64() > 0, "window must be nonempty");
        assert!(
            Self::fits(subwindows),
            "need between 1 and {} subwindows",
            Self::MAX_SUBWINDOWS
        );
        WindowConfig { window, subwindows }
    }

    /// Whether `subwindows` is a count a [`WindowedCounter`] can hold.
    pub(crate) fn fits(subwindows: u32) -> bool {
        (1..=Self::MAX_SUBWINDOWS).contains(&subwindows)
    }

    /// Length of one subwindow in microseconds.
    pub fn subwindow_us(&self) -> u64 {
        (self.window.as_u64() / self.subwindows as u64).max(1)
    }

    /// The global subwindow index an instant falls in.
    pub fn subwindow_index(&self, now: Micros) -> u64 {
        now.as_u64() / self.subwindow_us()
    }
}

/// Offsets from the base (a stamp is its offset plus one; 0: never written) stay below this.
const STAMP_SPAN: u64 = 1 << 31;
/// How far behind the subwindow that moves it a rebase leaves the base.
const REBASE_LAG: u64 = 1 << 30;

/// What a table's counters share: `k`, the base their stamps count from,
/// and a clock that divides only when time crosses into another subwindow.
/// Rebasing is exact while no update comes `2^30 − k` or more subwindows
/// behind the newest (DESIGN §5c).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stamps {
    sub_us: u64,
    /// Start of the remembered subwindow, and its index.
    start: u64,
    sub: u64,
    base: u64,
    pub(crate) k: u32,
}

impl Stamps {
    pub(crate) fn new(config: WindowConfig) -> Self {
        assert!(WindowConfig::fits(config.subwindows), "1 to 4 subwindows");
        Stamps {
            sub_us: config.subwindow_us(),
            k: config.subwindows,
            ..Stamps::default()
        }
    }

    /// Same value as [`WindowConfig::subwindow_index`].
    #[inline]
    pub(crate) fn subwindow(&mut self, now: Micros) -> u64 {
        let t = now.as_u64();
        if t < self.start || t - self.start >= self.sub_us {
            self.sub = t / self.sub_us;
            self.start = self.sub * self.sub_us;
        }
        self.sub
    }

    /// The stamp of subwindow `sub`. One past the span first moves the
    /// base to 2^30 behind it, calling `rebase` with the shift on every
    /// counter of the table ([`WindowedCounter::rebase`]).
    #[inline]
    pub(crate) fn stamp(&mut self, sub: u64, rebase: impl FnOnce(u64)) -> u32 {
        let offset = sub.wrapping_sub(self.base);
        if offset < STAMP_SPAN {
            offset as u32 + 1
        } else {
            self.far(sub, rebase)
        }
    }

    /// A subwindow behind the base is older than every live stamp: it
    /// folds into a live counter's current subwindow as any late update
    /// does, and a blank counter takes the base's stamp.
    #[cold]
    #[inline(never)]
    fn far(&mut self, sub: u64, rebase: impl FnOnce(u64)) -> u32 {
        if sub < self.base {
            return 1;
        }
        let base = sub - REBASE_LAG;
        rebase(base - self.base);
        self.base = base;
        REBASE_LAG as u32 + 1
    }
}

/// One entry's `k` subwindow counts plus the stamp of its last update,
/// in both the IMCT and the MCT: 8 bytes, aligned to their size so a
/// slot never straddles a cache line.
/// The counts are four saturating `u8`s, newest first: byte `i` counts
/// subwindow `stamp − i`, so moving on `g` subwindows is a shift by `g`
/// bytes (no ring position, no `% k`). The stamp is relative to the
/// table's [`Stamps`]. A saturated count changes no decision
/// `total ≥ t` for `t ≤ 255`, as it reaches `t` by itself; totals are
/// the saturated sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(8))]
pub(crate) struct WindowedCounter {
    counts: u32,
    stamp: u32,
}

impl WindowedCounter {
    /// A zero-count counter live at stamp `now`.
    pub(crate) fn blank_at(now: u32) -> Self {
        WindowedCounter {
            counts: 0,
            stamp: now,
        }
    }

    /// Expires the subwindows between the last update and stamp `now`.
    #[inline]
    fn roll_to(&mut self, now: u32, k: u32) {
        if now <= self.stamp {
            // Same subwindow, or an out-of-order timestamp: fold into
            // the current subwindow.
            return;
        }
        // Age every count by the gap; those pushed to byte `k` or beyond
        // fall out, so a gap of `k` or more leaves none.
        let gap = now - self.stamp;
        let kept = u32::MAX >> (32 - 8 * k);
        self.counts = (u64::from(self.counts) << (8 * gap.min(4))) as u32 & kept;
        self.stamp = now;
    }

    /// Records one event at stamp `now`; returns the saturated in-window
    /// total after the increment.
    #[inline]
    pub(crate) fn record(&mut self, now: u32, k: u32) -> u32 {
        self.roll_to(now, k);
        if self.counts & 0xFF != 0xFF {
            self.counts += 1;
        }
        self.sum()
    }

    /// In-window total as of stamp `now` (expires stale subwindows
    /// first).
    pub(crate) fn total(&mut self, now: u32, k: u32) -> u32 {
        self.roll_to(now, k);
        self.sum()
    }

    fn sum(&self) -> u32 {
        self.counts.to_le_bytes().into_iter().map(u32::from).sum()
    }

    /// Whether the entry is entirely stale as of stamp `now`.
    pub(crate) fn is_stale(&self, now: u32, k: u32) -> bool {
        self.stamp == 0 || now.saturating_sub(self.stamp) >= k
    }

    /// Re-stamps against a base `shift` subwindows later; one last
    /// written before it is all stale, and is cleared.
    pub(crate) fn rebase(&mut self, shift: u64) {
        if u64::from(self.stamp) > shift {
            self.stamp -= shift as u32;
        } else {
            *self = WindowedCounter::default();
        }
    }
}

/// The boxed counter this module shipped before the inline layouts — `u32`
/// counts, `u64` stamps — kept as the reference model the compact one
/// must agree with.
#[cfg(test)]
pub(crate) mod reference {
    #[derive(Debug, Clone)]
    pub(crate) struct BoxedCounter {
        counts: Box<[u32]>,
        last_sub: u64,
        live: bool,
    }

    impl BoxedCounter {
        pub(crate) fn new(subwindows: u32) -> Self {
            BoxedCounter {
                counts: vec![0; subwindows as usize].into_boxed_slice(),
                last_sub: 0,
                live: false,
            }
        }

        fn k(&self) -> u64 {
            self.counts.len() as u64
        }

        fn roll_to(&mut self, now_sub: u64) {
            if !self.live {
                self.counts.iter_mut().for_each(|c| *c = 0);
                self.last_sub = now_sub;
                self.live = true;
                return;
            }
            if now_sub < self.last_sub {
                return;
            }
            let gap = now_sub - self.last_sub;
            if gap >= self.k() {
                self.counts.iter_mut().for_each(|c| *c = 0);
            } else {
                for s in (self.last_sub + 1)..=now_sub {
                    self.counts[(s % self.k()) as usize] = 0;
                }
            }
            self.last_sub = now_sub;
        }

        pub(crate) fn observe(&mut self, now_sub: u64) {
            self.roll_to(now_sub);
        }

        pub(crate) fn record(&mut self, now_sub: u64) -> u32 {
            self.roll_to(now_sub);
            let idx = (self.last_sub % self.k()) as usize;
            self.counts[idx] = self.counts[idx].saturating_add(1);
            self.counts.iter().sum()
        }

        pub(crate) fn total(&mut self, now_sub: u64) -> u32 {
            self.roll_to(now_sub);
            self.counts.iter().sum()
        }

        pub(crate) fn is_stale(&self, now_sub: u64) -> bool {
            !self.live || now_sub >= self.last_sub + self.k()
        }

        /// The largest single-subwindow count: while it is at most 255 no
        /// `u8` count has saturated, and totals must agree exactly.
        pub(crate) fn max_count(&self) -> u32 {
            self.counts.iter().copied().max().unwrap_or(0)
        }

        pub(crate) fn reset(&mut self) {
            self.counts.iter_mut().for_each(|c| *c = 0);
            self.live = false;
            self.last_sub = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BoxedCounter;
    use super::*;
    use proptest::prelude::*;

    /// One counter with the table state that goes with it, at 1 µs
    /// subwindows so a subwindow index is an instant; a rebase sweeps the
    /// one counter.
    struct Lone {
        stamps: Stamps,
        counter: WindowedCounter,
    }

    impl Lone {
        fn new(k: u32) -> Self {
            Lone {
                stamps: Stamps::new(WindowConfig::new(Micros::new(u64::from(k)), k)),
                counter: WindowedCounter::default(),
            }
        }

        fn stamp(&mut self, sub: u64) -> u32 {
            assert_eq!(self.stamps.subwindow(Micros::new(sub)), sub);
            let counter = &mut self.counter;
            self.stamps.stamp(sub, |shift| counter.rebase(shift))
        }

        fn record(&mut self, sub: u64) -> u32 {
            let now = self.stamp(sub);
            self.counter.record(now, self.stamps.k)
        }

        fn total(&mut self, sub: u64) -> u32 {
            let now = self.stamp(sub);
            self.counter.total(now, self.stamps.k)
        }

        /// Rolls the window forward, as reading a total does.
        fn observe(&mut self, sub: u64) {
            self.total(sub);
        }

        fn is_stale(&mut self, sub: u64) -> bool {
            let now = self.stamp(sub);
            self.counter.is_stale(now, self.stamps.k)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Record(u64),
        /// Many events in one subwindow: drives counts past 255.
        Burst(u64, u16),
        Total(u64),
        Observe(u64),
        IsStale(u64),
        Reset,
    }

    impl Op {
        fn from_kind(kind: u8, sub: u64, burst: u16) -> Op {
            match kind {
                0..=2 => Op::Record(sub),
                3 => Op::Burst(sub, burst),
                4 => Op::Total(sub),
                5 => Op::Observe(sub),
                6 => Op::IsStale(sub),
                _ => Op::Reset,
            }
        }

        /// The subwindow the op stamps, if any.
        fn sub(&self) -> Option<u64> {
            match *self {
                Op::Record(s)
                | Op::Burst(s, _)
                | Op::Total(s)
                | Op::Observe(s)
                | Op::IsStale(s) => Some(s),
                Op::Reset => None,
            }
        }
    }

    /// Subwindows that start late, revisit subwindow 0, step by less than
    /// `k`, jump by `k` or more, and go backwards — any `u32`, which at
    /// 1 µs subwindows also moves the base and lands behind it.
    fn absolute_ops() -> impl Strategy<Value = Vec<Op>> {
        let sub = prop_oneof![
            0u64..12,
            0u64..12,
            990u64..1010,
            Just(0u64),
            any::<u32>().prop_map(u64::from)
        ];
        let op = (0u8..8, sub, 1u16..600).prop_map(|(kind, sub, n)| Op::from_kind(kind, sub, n));
        proptest::collection::vec(op, 0..400)
    }

    /// Moves from the newest subwindow so far: steps by less than `k`,
    /// jumps by `k` or more, leaps of 2^30 to 2^33 that cross a rebase,
    /// and late subwindows up to 2^31 behind, some at the lateness bound.
    fn step_strategy() -> impl Strategy<Value = i64> {
        const BOUND: i64 = REBASE_LAG as i64;
        prop_oneof![
            0i64..4,
            0i64..4,
            4i64..12,
            (1i64 << 30)..(1i64 << 33),
            -12i64..0,
            -(1i64 << 31)..0,
            -BOUND - 8..-BOUND + 8,
        ]
    }

    /// Ops at absolute subwindows from `start`; the newest subwindow only
    /// moves forward, late ones sit behind it.
    fn stepped_ops() -> impl Strategy<Value = Vec<Op>> {
        let start = prop_oneof![Just(0u64), (1u64 << 32)..(1u64 << 34)];
        let raw = proptest::collection::vec((0u8..8, step_strategy(), 1u16..600), 0..300);
        (start, raw).prop_map(|(start, raw)| {
            let mut newest = start;
            raw.into_iter()
                .map(|(kind, step, burst)| {
                    let sub = newest.saturating_add_signed(step);
                    newest = newest.max(sub);
                    Op::from_kind(kind, sub, burst)
                })
                .collect()
        })
    }

    /// Whether an update at `sub` is past the lateness the stamps keep
    /// exact (DESIGN §5c): `2^30 − k` or more subwindows behind the
    /// newest, once a subwindow has reached 2^31 and may have moved the
    /// base. Before any rebase the stamps are exact in any order.
    fn beyond_exact(newest: u64, sub: u64, k: u32) -> bool {
        newest >= STAMP_SPAN && newest - sub >= REBASE_LAG - u64::from(k)
    }

    /// Checks one total against the reference's: decisions `total ≥ t`
    /// agree for every `t ≤ 255`, and the totals are equal while no
    /// reference count exceeds 255.
    fn agree(compact: u32, reference: u32, model: &BoxedCounter) -> Result<(), TestCaseError> {
        prop_assert_eq!(compact.min(255), reference.min(255));
        if model.max_count() <= 255 {
            prop_assert_eq!(compact, reference);
        }
        Ok(())
    }

    /// Drives the compact counter and the boxed one in lockstep, comparing
    /// every op up to the first update past the exact lateness.
    fn matches_the_reference(k: u32, ops: Vec<Op>) -> Result<(), TestCaseError> {
        let mut compact = Lone::new(k);
        let mut boxed = BoxedCounter::new(k);
        let mut newest = 0;
        for op in ops {
            if let Some(sub) = op.sub() {
                newest = newest.max(sub);
                if beyond_exact(newest, sub, k) {
                    return Ok(());
                }
            }
            match op {
                Op::Record(s) => {
                    let (got, want) = (compact.record(s), boxed.record(s));
                    agree(got, want, &boxed)?;
                }
                Op::Burst(s, n) => {
                    for _ in 0..n {
                        let (got, want) = (compact.record(s), boxed.record(s));
                        agree(got, want, &boxed)?;
                    }
                }
                Op::Total(s) => {
                    let (got, want) = (compact.total(s), boxed.total(s));
                    agree(got, want, &boxed)?;
                }
                Op::Observe(s) => {
                    compact.observe(s);
                    boxed.observe(s);
                }
                Op::IsStale(s) => prop_assert_eq!(compact.is_stale(s), boxed.is_stale(s)),
                Op::Reset => {
                    compact.counter = WindowedCounter::default();
                    boxed.reset();
                }
            }
        }
        Ok(())
    }

    #[test]
    fn paper_default_is_8h_by_4() {
        let w = WindowConfig::paper_default();
        assert_eq!(w.window, Micros::from_hours(8));
        assert_eq!(w.subwindow_us(), Micros::from_hours(2).as_u64());
        assert_eq!(w.subwindow_index(Micros::from_hours(8)), 4);
    }

    #[test]
    #[should_panic(expected = "subwindow")]
    fn zero_subwindows_panics() {
        let _ = WindowConfig::new(Micros::from_hours(1), 0);
    }

    #[test]
    #[should_panic(expected = "subwindow")]
    fn more_subwindows_than_the_count_bytes_panics() {
        let _ = WindowConfig::new(Micros::from_hours(1), WindowConfig::MAX_SUBWINDOWS + 1);
    }

    #[test]
    fn a_counter_is_one_aligned_eighth_of_a_cache_line() {
        assert_eq!(std::mem::size_of::<WindowedCounter>(), 8);
        assert_eq!(std::mem::align_of::<WindowedCounter>(), 8);
        // A usable value where a container fills in defaults.
        assert_eq!(WindowedCounter::default().record(7, 4), 1);
    }

    #[test]
    fn counts_accumulate_within_window() {
        let mut c = Lone::new(4);
        assert_eq!(c.record(0), 1);
        assert_eq!(c.record(0), 2);
        assert_eq!(c.record(1), 3);
        assert_eq!(c.record(3), 4);
    }

    #[test]
    fn jump_of_k_or_more_expires_everything() {
        let mut c = Lone::new(4);
        for _ in 0..5 {
            c.record(0);
        }
        assert_eq!(c.record(4), 1, "gap of k zeroes all counters");
        let mut c = Lone::new(4);
        c.record(2);
        assert_eq!(c.record(100), 1);
    }

    #[test]
    fn partial_expiry_clears_only_skipped_subwindows() {
        let mut c = Lone::new(4);
        for sub in 0..4 {
            c.record(sub); // one event in each of subs 0-3
        }
        // Sub 5 is 2 past sub 3: subs 0 and 1 age out, subs 2 and 3 stay.
        assert_eq!(c.record(5), 3);
    }

    #[test]
    fn sliding_expiry_one_at_a_time() {
        let mut c = Lone::new(2);
        c.record(0);
        c.record(1);
        assert_eq!(c.total(1), 2);
        // Sub 2 evicts sub 0's count.
        assert_eq!(c.record(2), 2);
        // Sub 3 evicts sub 1's count.
        assert_eq!(c.record(3), 2);
    }

    #[test]
    fn out_of_order_updates_do_not_lose_counts() {
        let mut c = Lone::new(4);
        c.record(5);
        let total = c.record(3); // late event folds into the current window
        assert_eq!(total, 2);
    }

    #[test]
    fn staleness_and_reset() {
        let mut c = Lone::new(4);
        assert!(c.is_stale(0), "virgin counters are stale");
        c.record(10);
        assert!(!c.is_stale(12));
        assert!(c.is_stale(14));
        c.counter = WindowedCounter::default();
        assert!(c.is_stale(0));
        assert_eq!(c.total(20), 0);
    }

    #[test]
    fn first_event_at_late_subwindow() {
        let mut c = Lone::new(3);
        assert_eq!(c.record(1000), 1);
        assert_eq!(c.total(1001), 1);
        assert_eq!(c.total(1003), 0);
    }

    #[test]
    fn a_subwindow_count_saturates_at_255_and_ages_out_whole() {
        let mut c = Lone::new(2);
        for n in 1..=300 {
            assert_eq!(c.record(0), n.min(255));
        }
        assert_eq!(c.record(1), 256, "the full count stays in the window");
        assert_eq!(c.record(2), 2, "and leaves it in one piece");
    }

    #[test]
    fn the_base_moves_past_2_pow_31_and_keeps_live_counts() {
        let mut c = Lone::new(4);
        let start = (1u64 << 32) + 7; // beyond a u32 index from the start
        c.record(start);
        c.record(start + 1);
        let far = start + (1 << 31) + 5; // past the span: first rebase
        assert_eq!(c.record(far), 1, "everything older is stale");
        assert_eq!(c.stamps.base, far - REBASE_LAG);
        assert_eq!(c.record(far + 1), 2, "re-stamped counts age as before");
        // One more crossing; the live counter is re-stamped, not cleared.
        let next = far + (1 << 30) - 2;
        c.record(next);
        assert_eq!(c.stamps.base, far - REBASE_LAG);
        c.record(next + 2);
        assert_eq!(c.stamps.base, next + 2 - REBASE_LAG);
        assert_eq!(c.total(next + 2), 2);
        assert_eq!(c.total(next + 5), 1);
    }

    #[test]
    fn a_subwindow_behind_the_base_folds_into_a_live_counter() {
        let mut c = Lone::new(4);
        let mut model = BoxedCounter::new(4);
        let far = (1u64 << 31) + 40;
        for sub in [far, far, far + 1] {
            assert_eq!(c.record(sub), model.record(sub));
        }
        let behind = 3; // far behind the base of `far - 2^30`
        assert!(behind < c.stamps.base);
        assert_eq!(c.record(behind), model.record(behind));
        assert_eq!(c.total(far + 2), model.total(far + 2));
        assert_eq!(c.is_stale(behind), model.is_stale(behind));
        assert_eq!(c.record(far + 4), model.record(far + 4));
        assert_eq!(c.total(far + 4), 3, "far + 1 and the late event");
    }

    #[test]
    fn past_the_lateness_bound_a_blank_counter_diverges_from_the_reference() {
        // The documented limit, pinned: once the base has moved, a blank
        // counter first written behind it takes the base's stamp, so a
        // second update there folds into one subwindow where the
        // reference, which keeps the real subwindow, ages the first out.
        let mut c = Lone::new(4);
        let mut model = BoxedCounter::new(4);
        let far = 4_000_000_000;
        assert_eq!(c.record(far), model.record(far));
        assert!(c.stamps.base > 10);
        c.counter = WindowedCounter::default();
        model.reset();
        assert!(beyond_exact(far, 5, 4));
        assert_eq!(c.record(5), 1);
        assert_eq!(model.record(5), 1);
        assert_eq!(c.record(10), 2, "both behind the base: one stamp");
        assert_eq!(model.record(10), 1, "5 subwindows apart: aged out");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The compact counter makes the boxed one's decisions for every
        /// call of every sequence, at every `k`, through saturation, late
        /// subwindows and resets, up to the first update past the exact
        /// lateness.
        #[test]
        fn compact_counter_matches_the_boxed_reference(
            ops in absolute_ops(),
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
        ) {
            matches_the_reference(k, ops)?;
        }

        /// The same through rebases: leaps that move the base, starts
        /// past 2^32, and late subwindows either side of the bound.
        #[test]
        fn compact_counter_matches_the_boxed_reference_across_rebases(
            ops in stepped_ops(),
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
        ) {
            matches_the_reference(k, ops)?;
        }
    }

    proptest! {
        /// The clock's remembered subwindow never disagrees with the
        /// division, whatever order instants arrive in and however short
        /// the window (`subwindow_us` clamps to 1).
        #[test]
        fn clock_matches_the_division(
            window_us in prop_oneof![1u64..10, 1u64..100_000, Just(Micros::from_hours(8).as_u64())],
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
            instants in proptest::collection::vec(
                prop_oneof![0u64..50, 0u64..1_000_000, any::<u64>()],
                1..200,
            ),
        ) {
            let config = WindowConfig::new(Micros::new(window_us), k);
            let mut clock = Stamps::new(config);
            for t in instants {
                prop_assert_eq!(clock.subwindow(Micros::new(t)), config.subwindow_index(Micros::new(t)));
            }
        }

        /// The discretized window never counts events older than k
        /// subwindows and never forgets events in the current subwindow.
        #[test]
        fn window_bounds_hold(
            subs in proptest::collection::vec(0u64..40, 1..200),
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
        ) {
            let mut sorted = subs.clone();
            sorted.sort_unstable();
            let mut c = Lone::new(k);
            let mut events: Vec<u64> = Vec::new();
            for &s in &sorted {
                c.record(s);
                events.push(s);
                let now = s;
                let total = c.total(now);
                // Exact semantics: events in subwindows (now - k, now] that
                // were not dropped by an intervening full reset. We bound
                // instead of replicate: at least the events in the current
                // subwindow, at most all events in the last k subwindows.
                let lower = events.iter().filter(|&&e| e == now).count() as u32;
                let upper = events
                    .iter()
                    .filter(|&&e| e + k as u64 > now)
                    .count() as u32;
                prop_assert!(total >= lower, "total {total} < lower {lower}");
                prop_assert!(total <= upper, "total {total} > upper {upper}");
            }
        }
    }
}
