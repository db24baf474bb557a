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
//! A [`WindowedCounter`] is a plain 32-byte value with its counters
//! inline, so a table of them is one flat allocation and a miss touches
//! one cache line. That is why `k` is capped at
//! [`WindowConfig::MAX_SUBWINDOWS`].

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
    /// Most subwindows a counter holds: the width of its inline array
    /// (the paper's tuned `k`, and the only one any experiment uses).
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

/// Maps instants to global subwindow indices, remembering the bounds of
/// the subwindow it last resolved: trace time moves forward, so nearly
/// every lookup is two compares and the division runs only when time
/// crosses into another subwindow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubwindowClock {
    sub_us: u64,
    /// Start of the remembered subwindow, and its index.
    start: u64,
    sub: u64,
}

impl SubwindowClock {
    pub(crate) fn new(config: WindowConfig) -> Self {
        SubwindowClock {
            sub_us: config.subwindow_us(),
            start: 0,
            sub: 0,
        }
    }

    /// Same value as [`WindowConfig::subwindow_index`].
    #[inline]
    pub(crate) fn index(&mut self, now: Micros) -> u64 {
        let t = now.as_u64();
        if t < self.start || t - self.start >= self.sub_us {
            self.sub = t / self.sub_us;
            self.start = self.sub * self.sub_us;
        }
        self.sub
    }
}

/// One entry's `k` subwindow counters plus its last-update index.
///
/// This is the building block of both the aliased IMCT and the precise
/// MCT: a `Copy` value of exactly 32 bytes, aligned to its size so a
/// table slot never straddles a 64-byte cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
pub struct WindowedCounter {
    /// A ring of `k` live counters; slots from `k` up stay zero.
    counts: [u32; WindowConfig::MAX_SUBWINDOWS as usize],
    last_sub: u64,
    k: u8,
    /// Ring position of subwindow `last_sub`.
    cursor: u8,
    /// Whether the entry has ever been written (distinguishes subwindow 0).
    live: bool,
}

impl Default for WindowedCounter {
    /// A zeroed counter of [`WindowConfig::MAX_SUBWINDOWS`] subwindows.
    fn default() -> Self {
        WindowedCounter::new(WindowConfig::MAX_SUBWINDOWS)
    }
}

impl WindowedCounter {
    /// Creates a zeroed counter with `k` subwindows.
    ///
    /// # Panics
    ///
    /// Panics if `subwindows` is outside
    /// `1..=`[`WindowConfig::MAX_SUBWINDOWS`].
    pub fn new(subwindows: u32) -> Self {
        assert!(
            WindowConfig::fits(subwindows),
            "a counter holds 1 to {} subwindows",
            WindowConfig::MAX_SUBWINDOWS
        );
        WindowedCounter {
            counts: [0; WindowConfig::MAX_SUBWINDOWS as usize],
            last_sub: 0,
            k: subwindows as u8,
            cursor: 0,
            live: false,
        }
    }

    /// Expires subwindows between the last update and `now_sub`.
    #[inline]
    fn roll_to(&mut self, now_sub: u64) {
        if !self.live {
            // Never-written counters are all zero already.
            self.last_sub = now_sub;
            self.live = true;
            return;
        }
        if now_sub <= self.last_sub {
            // Same subwindow, or an out-of-order timestamp: fold into
            // the current subwindow.
            return;
        }
        // Clear the subwindows that were skipped over; a gap of `k` or
        // more walks the whole ring, leaving every counter zero.
        for _ in 0..(now_sub - self.last_sub).min(u64::from(self.k)) {
            self.cursor += 1;
            if self.cursor == self.k {
                self.cursor = 0;
            }
            self.counts[usize::from(self.cursor)] = 0;
        }
        self.last_sub = now_sub;
    }

    /// Advances the window to `now_sub` without recording an event
    /// (creates a live, zero-count window position).
    pub fn observe(&mut self, now_sub: u64) {
        self.roll_to(now_sub);
    }

    /// Records one event at global subwindow `now_sub`; returns the total
    /// count within the live window after the increment.
    #[inline]
    pub fn record(&mut self, now_sub: u64) -> u32 {
        self.roll_to(now_sub);
        let count = &mut self.counts[usize::from(self.cursor)];
        *count = count.saturating_add(1);
        self.total_unchecked()
    }

    /// Current in-window total as of global subwindow `now_sub` (expires
    /// stale subwindows first).
    pub fn total(&mut self, now_sub: u64) -> u32 {
        self.roll_to(now_sub);
        self.total_unchecked()
    }

    fn total_unchecked(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Whether the entry is entirely stale as of `now_sub` (safe to prune).
    pub fn is_stale(&self, now_sub: u64) -> bool {
        !self.live || now_sub.saturating_sub(self.last_sub) >= u64::from(self.k)
    }

    /// Zeroes the counter.
    pub fn reset(&mut self) {
        *self = WindowedCounter::new(u32::from(self.k));
    }
}

/// The boxed counter this module shipped before the inline layout, kept
/// as the reference model the inline one must agree with call for call.
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

    #[derive(Debug, Clone)]
    enum Op {
        Record(u64),
        Total(u64),
        Observe(u64),
        IsStale(u64),
        Reset,
    }

    /// Stamps that start late, revisit subwindow 0, step by less than
    /// `k`, jump by `k` or more, and go backwards.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let stamp = || {
            prop_oneof![
                0u64..12,
                0u64..12,
                990u64..1010,
                Just(0u64),
                any::<u32>().prop_map(u64::from)
            ]
        };
        prop_oneof![
            stamp().prop_map(Op::Record),
            stamp().prop_map(Op::Record),
            stamp().prop_map(Op::Record),
            stamp().prop_map(Op::Total),
            stamp().prop_map(Op::Observe),
            stamp().prop_map(Op::IsStale),
            Just(Op::Reset),
        ]
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
    fn more_subwindows_than_the_inline_width_panics() {
        let _ = WindowConfig::new(Micros::from_hours(1), WindowConfig::MAX_SUBWINDOWS + 1);
    }

    #[test]
    fn a_counter_is_one_aligned_half_cache_line() {
        assert_eq!(std::mem::size_of::<WindowedCounter>(), 32);
        assert_eq!(std::mem::align_of::<WindowedCounter>(), 32);
        // A usable value even where a container fills in defaults.
        assert_eq!(WindowedCounter::default().record(7), 1);
    }

    #[test]
    fn counts_accumulate_within_window() {
        let mut c = WindowedCounter::new(4);
        assert_eq!(c.record(0), 1);
        assert_eq!(c.record(0), 2);
        assert_eq!(c.record(1), 3);
        assert_eq!(c.record(3), 4);
    }

    #[test]
    fn jump_of_k_or_more_expires_everything() {
        let mut c = WindowedCounter::new(4);
        for _ in 0..5 {
            c.record(0);
        }
        assert_eq!(c.record(4), 1, "gap of k zeroes all counters");
        let mut c = WindowedCounter::new(4);
        c.record(2);
        assert_eq!(c.record(100), 1);
    }

    #[test]
    fn partial_expiry_clears_only_skipped_subwindows() {
        let mut c = WindowedCounter::new(4);
        c.record(0); // sub 0: 1
        c.record(1); // sub 1: 1
        c.record(2); // sub 2: 1
        c.record(3); // sub 3: 1
                     // Moving to sub 5 skips sub 4 (wraps to slot 0) and lands on slot 1:
                     // slots 0 and 1 are cleared, slots 2 and 3 (subs 2, 3) survive.
        assert_eq!(c.record(5), 3);
    }

    #[test]
    fn sliding_expiry_one_at_a_time() {
        let mut c = WindowedCounter::new(2);
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
        let mut c = WindowedCounter::new(4);
        c.record(5);
        let total = c.record(3); // late event folds into the current window
        assert_eq!(total, 2);
    }

    #[test]
    fn staleness_and_reset() {
        let mut c = WindowedCounter::new(4);
        assert!(c.is_stale(0), "virgin counters are stale");
        c.record(10);
        assert!(!c.is_stale(12));
        assert!(c.is_stale(14));
        c.reset();
        assert!(c.is_stale(0));
        assert_eq!(c.total(20), 0);
    }

    #[test]
    fn first_event_at_late_subwindow() {
        let mut c = WindowedCounter::new(3);
        assert_eq!(c.record(1000), 1);
        assert_eq!(c.total(1001), 1);
        assert_eq!(c.total(1003), 0);
    }

    proptest! {
        /// The inline counter returns what the boxed one returned, for
        /// every call of every sequence.
        #[test]
        fn inline_counter_matches_the_boxed_reference(
            ops in proptest::collection::vec(op_strategy(), 0..400),
            k in 1u32..=WindowConfig::MAX_SUBWINDOWS,
        ) {
            let mut inline = WindowedCounter::new(k);
            let mut boxed = BoxedCounter::new(k);
            for op in ops {
                match op {
                    Op::Record(s) => prop_assert_eq!(inline.record(s), boxed.record(s)),
                    Op::Total(s) => prop_assert_eq!(inline.total(s), boxed.total(s)),
                    Op::Observe(s) => {
                        inline.observe(s);
                        boxed.observe(s);
                    }
                    Op::IsStale(s) => prop_assert_eq!(inline.is_stale(s), boxed.is_stale(s)),
                    Op::Reset => {
                        inline.reset();
                        boxed.reset();
                    }
                }
            }
        }

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
            let mut clock = SubwindowClock::new(config);
            for t in instants {
                prop_assert_eq!(clock.index(Micros::new(t)), config.subwindow_index(Micros::new(t)));
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
            let mut c = WindowedCounter::new(k);
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
