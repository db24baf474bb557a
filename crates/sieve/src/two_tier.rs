//! The two-tier sieve of SieveStore-C.
//!
//! Flow on every cache miss (§3.3): the miss is first counted in the
//! aliased [`Imct`]. Only once a block's (possibly inflated)
//! IMCT count reaches `t1` does the block graduate to the precise
//! [`Mct`], where it must see `t2` *additional* misses within
//! the window before it qualifies for allocation. The paper tunes
//! `t1` = 9 and `t2` = 4 over an 8-hour window of 4 subwindows, and
//! reports ~8 GB of metastate for its traces.

use sievestore_types::{obs_count, obs_gauge_set, Micros, SieveError};

use crate::tables::{Imct, Mct};
use crate::window::WindowConfig;

/// Parameters of the two-tier sieve.
///
/// # Examples
///
/// ```
/// let cfg = sievestore_sieve::TwoTierConfig::paper_default();
/// assert_eq!(cfg.t1, 9);
/// assert_eq!(cfg.t2, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoTierConfig {
    /// IMCT graduation threshold (imprecise misses).
    pub t1: u32,
    /// MCT allocation threshold (additional precise misses).
    pub t2: u32,
    /// Miss-count window discretization.
    pub window: WindowConfig,
    /// Number of IMCT slots.
    pub imct_entries: usize,
}

impl TwoTierConfig {
    /// Largest `t1` or `t2`: the counters' per-subwindow counts saturate
    /// at 255, which decides a `total ≥ t` exactly only up to here.
    pub const MAX_THRESHOLD: u32 = 255;

    /// The paper's tuned parameters: `t1` = 9, `t2` = 4, `W` = 8 h, `k` = 4.
    /// The IMCT size defaults to 2^20 slots; scale it with the workload.
    pub fn paper_default() -> Self {
        TwoTierConfig {
            t1: 9,
            t2: 4,
            window: WindowConfig::paper_default(),
            imct_entries: 1 << 20,
        }
    }

    /// Sets the IMCT slot count.
    #[must_use]
    pub fn with_imct_entries(mut self, entries: usize) -> Self {
        self.imct_entries = entries;
        self
    }

    /// Sets the thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, t1: u32, t2: u32) -> Self {
        self.t1 = t1;
        self.t2 = t2;
        self
    }

    /// Sets the window discretization.
    #[must_use]
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] for a zero-sized IMCT,
    /// thresholds outside `1..=`[`TwoTierConfig::MAX_THRESHOLD`], or a
    /// subwindow count outside `1..=`[`WindowConfig::MAX_SUBWINDOWS`].
    pub fn validate(&self) -> Result<(), SieveError> {
        if self.imct_entries == 0 {
            return Err(SieveError::InvalidConfig("imct_entries must be > 0".into()));
        }
        if !WindowConfig::fits(self.window.subwindows) {
            return Err(SieveError::InvalidConfig(format!(
                "subwindows must be 1 to {}, got {}",
                WindowConfig::MAX_SUBWINDOWS,
                self.window.subwindows
            )));
        }
        let thresholds = 1..=Self::MAX_THRESHOLD;
        if !thresholds.contains(&self.t1) || !thresholds.contains(&self.t2) {
            return Err(SieveError::InvalidConfig(format!(
                "sieve thresholds must be 1 to {}, got t1 = {}, t2 = {}",
                Self::MAX_THRESHOLD,
                self.t1,
                self.t2
            )));
        }
        Ok(())
    }

    /// Validates that this configuration can be split across `shards`
    /// parallel workers: the shard count must divide the IMCT slot count
    /// so slot ownership aligns with the `mix64` key partition.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `shards` is zero or does
    /// not divide `imct_entries`.
    pub fn validate_sharding(&self, shards: usize) -> Result<(), SieveError> {
        self.validate()?;
        if shards == 0 {
            return Err(SieveError::InvalidConfig("shard count must be > 0".into()));
        }
        if !self.imct_entries.is_multiple_of(shards) {
            return Err(SieveError::InvalidConfig(format!(
                "shard count {shards} must divide imct_entries {}",
                self.imct_entries
            )));
        }
        Ok(())
    }
}

impl Default for TwoTierConfig {
    fn default() -> Self {
        TwoTierConfig::paper_default()
    }
}

/// The IMCT + MCT sieve: decides, per miss, whether a block has earned a
/// cache frame.
///
/// # Examples
///
/// ```
/// use sievestore_sieve::{TwoTierConfig, TwoTierSieve};
/// use sievestore_types::Micros;
///
/// let cfg = TwoTierConfig::paper_default()
///     .with_imct_entries(1024)
///     .with_thresholds(2, 2);
/// let mut sieve = TwoTierSieve::new(cfg).unwrap();
/// let now = Micros::from_hours(1);
/// // Miss 2 graduates the block through the IMCT; misses 3-4 are the
/// // additional precise misses; the 4th qualifies it.
/// assert!(!sieve.on_miss(7, now));
/// assert!(!sieve.on_miss(7, now));
/// assert!(!sieve.on_miss(7, now));
/// assert!(sieve.on_miss(7, now));
/// ```
#[derive(Debug, Clone)]
pub struct TwoTierSieve {
    config: TwoTierConfig,
    imct: Imct,
    mct: Mct,
    misses_seen: u64,
    /// Latest subwindow any miss fell in; MCT pruning triggers when it
    /// advances, so prune timing is a function of trace time alone (not
    /// of how many misses this instance happened to observe — which
    /// keeps a sharded sieve's per-key state identical to a sequential
    /// one's).
    last_sub: u64,
    /// Diagnostics: how many misses graduated past the IMCT.
    graduated: u64,
    /// Diagnostics: how many allocations were granted.
    granted: u64,
}

impl TwoTierSieve {
    /// Creates a sieve.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `config` fails validation.
    pub fn new(config: TwoTierConfig) -> Result<Self, SieveError> {
        TwoTierSieve::for_shard(config, 0, 1)
    }

    /// Creates shard `shard` of a sieve split across `shards` parallel
    /// workers: the IMCT holds this shard's slice of the logical slot
    /// array ([`Imct::for_shard`]) and the MCT starts empty (it is
    /// per-key, so hash partitioning splits it trivially).
    ///
    /// Fed only the misses of keys with `shard_of(key, shards) == shard`,
    /// the shard reproduces the whole sieve's decisions for those keys
    /// exactly — see the sharded-replay design notes.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] if `config` fails validation
    /// or `shards` does not divide `config.imct_entries`.
    pub fn for_shard(
        config: TwoTierConfig,
        shard: usize,
        shards: usize,
    ) -> Result<Self, SieveError> {
        config.validate_sharding(shards)?;
        if shard >= shards {
            return Err(SieveError::InvalidConfig(format!(
                "shard index {shard} out of range for {shards} shards"
            )));
        }
        Ok(TwoTierSieve {
            imct: Imct::for_shard(config.imct_entries, shard, shards, config.window),
            mct: Mct::new(config.window),
            config,
            misses_seen: 0,
            last_sub: 0,
            graduated: 0,
            granted: 0,
        })
    }

    /// The sieve's configuration.
    pub fn config(&self) -> &TwoTierConfig {
        &self.config
    }

    /// Processes one miss at time `now`. Returns `true` if the block has
    /// now qualified for allocation (the paper's lazy n-th-miss rule).
    ///
    /// Qualification resets the block's MCT entry, so a block that gets
    /// allocated, evicted and misses again must re-earn its frame.
    ///
    /// Stale MCT entries are pruned at subwindow boundaries, before the
    /// first miss of each new subwindow is processed. Staleness is
    /// constant within a subwindow, so any key's visible MCT state
    /// depends only on the subwindow sequence of its own misses — not on
    /// interleaved misses of other keys.
    pub fn on_miss(&mut self, key: u64, now: Micros) -> bool {
        self.misses_seen += 1;
        let sub = self.imct.subwindow(now);
        if sub > self.last_sub {
            self.mct.prune(now);
            self.last_sub = sub;
        }
        if self.imct.record_at(key, sub) < self.config.t1 {
            obs_count!(SieveRejections, 1);
            return false;
        }
        self.graduated += 1;
        obs_count!(SieveGraduations, 1);
        // The miss that first graduates a block past the IMCT does not
        // count toward the *additional* t2 precise misses.
        let admitted = self
            .mct
            .graduate(key, sub)
            .is_some_and(|total| total >= self.config.t2);
        if admitted {
            self.granted += 1;
            self.mct.remove(key);
            obs_count!(SieveAdmissions, 1);
        } else {
            obs_count!(SieveRejections, 1);
        }
        obs_gauge_set!(MctTrackedBlocks, self.mct.len() as i64);
        admitted
    }

    /// Hints the CPU to fetch the metastate a coming
    /// [`TwoTierSieve::on_miss`] for `key` will touch. A hint only: no
    /// count, clock or decision ever depends on whether it was issued.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        self.imct.prefetch(key);
    }

    /// Total misses processed.
    pub fn misses_seen(&self) -> u64 {
        self.misses_seen
    }

    /// Misses that passed the IMCT threshold (reached the precise tier).
    pub fn graduated(&self) -> u64 {
        self.graduated
    }

    /// Allocations granted.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Number of blocks currently tracked precisely.
    pub fn mct_len(&self) -> usize {
        self.mct.len()
    }

    /// Metastate footprint in bytes (IMCT + MCT).
    pub fn memory_bytes(&self) -> usize {
        self.imct.memory_bytes() + self.mct.memory_bytes()
    }

    /// Explicitly prunes stale MCT entries.
    pub fn prune(&mut self, now: Micros) -> usize {
        self.mct.prune(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(t1: u32, t2: u32) -> TwoTierSieve {
        TwoTierSieve::new(
            TwoTierConfig::paper_default()
                .with_imct_entries(1 << 16)
                .with_thresholds(t1, t2),
        )
        .expect("valid config")
    }

    #[test]
    fn config_validation() {
        assert!(TwoTierConfig::paper_default().validate().is_ok());
        assert!(TwoTierConfig::paper_default()
            .with_imct_entries(0)
            .validate()
            .is_err());
        assert!(TwoTierConfig::paper_default()
            .with_thresholds(0, 4)
            .validate()
            .is_err());
        assert!(TwoTierSieve::new(TwoTierConfig::paper_default().with_thresholds(9, 0)).is_err());
    }

    #[test]
    fn subwindow_counts_beyond_the_inline_width_are_an_error_not_a_panic() {
        for subwindows in [0, WindowConfig::MAX_SUBWINDOWS + 1, 64] {
            // A struct literal, since `WindowConfig::new` would panic first.
            let window = WindowConfig {
                subwindows,
                ..WindowConfig::paper_default()
            };
            let cfg = TwoTierConfig::paper_default().with_window(window);
            assert!(matches!(cfg.validate(), Err(SieveError::InvalidConfig(_))));
            assert!(TwoTierSieve::new(cfg).is_err());
            assert!(TwoTierSieve::for_shard(cfg, 0, 2).is_err());
        }
    }

    #[test]
    fn thresholds_beyond_a_saturated_count_are_an_error_not_a_panic() {
        for (t1, t2) in [(256, 4), (9, 256), (u32::MAX, 1)] {
            let cfg = TwoTierConfig::paper_default().with_thresholds(t1, t2);
            assert!(matches!(cfg.validate(), Err(SieveError::InvalidConfig(_))));
            assert!(TwoTierSieve::new(cfg).is_err());
        }
        let top = TwoTierConfig::MAX_THRESHOLD;
        let cfg = TwoTierConfig::paper_default().with_thresholds(top, top);
        assert!(TwoTierSieve::new(cfg).is_ok());
    }

    #[test]
    fn paper_default_metastate_is_a_quarter_of_the_32_byte_layout() {
        // 2^20 slots x 8 B and an empty MCT: 8 MiB, where 32-byte slots
        // (and the boxed layout's `k * 4 + 16` formula) gave 32 MiB.
        let sieve = TwoTierSieve::new(TwoTierConfig::paper_default()).unwrap();
        assert_eq!(sieve.memory_bytes(), (1 << 20) * 8);
        assert_eq!(4 * sieve.memory_bytes(), (1 << 20) * (4 * 4 + 16));
    }

    #[test]
    fn a_threshold_of_255_is_reached_through_saturated_counts() {
        // One subwindow's count stops at 255; the decision it feeds still
        // flips at exactly the miss the u32 counts flipped at.
        let mut sieve = small(255, 255);
        let now = Micros::from_hours(1);
        for i in 1..255 + 255 {
            assert!(!sieve.on_miss(5, now), "miss {i}");
        }
        assert!(sieve.on_miss(5, now), "miss 510 allocates");
    }

    #[test]
    fn prefetch_hints_change_no_decision() {
        let cfg = TwoTierConfig::paper_default()
            .with_imct_entries(100)
            .with_thresholds(3, 2);
        let mut plain = TwoTierSieve::new(cfg).unwrap();
        let mut hinted = TwoTierSieve::new(cfg).unwrap();
        for i in 0..30_000u64 {
            let key = if i % 3 == 0 { i % 17 } else { i };
            let now = Micros::from_hours(i / 3000);
            // Hints for the key itself, for keys never missed, and none.
            match i % 4 {
                0 => hinted.prefetch(key),
                1 => (0..8).for_each(|j| hinted.prefetch(i.wrapping_mul(31) + j)),
                2 => hinted.prefetch(u64::MAX - i),
                _ => {}
            }
            assert_eq!(
                hinted.on_miss(key, now),
                plain.on_miss(key, now),
                "miss {i}"
            );
        }
        assert!(plain.granted() > 0);
        assert_eq!(hinted.granted(), plain.granted());
        assert_eq!(hinted.graduated(), plain.graduated());
        assert_eq!(hinted.mct_len(), plain.mct_len());
    }

    #[test]
    fn allocation_happens_on_expected_miss_count() {
        // t1 = 9, t2 = 4: the 13th miss in-window qualifies (miss 9
        // graduates the block, misses 10-13 are the additional precise
        // misses).
        let mut sieve = small(9, 4);
        let now = Micros::from_hours(1);
        for i in 1..=12 {
            assert!(!sieve.on_miss(5, now), "miss {i} must not allocate");
        }
        assert!(sieve.on_miss(5, now), "13th miss allocates");
        assert_eq!(sieve.granted(), 1);
    }

    #[test]
    fn qualification_resets_tracking() {
        let mut sieve = small(1, 2);
        let now = Micros::from_hours(1);
        assert!(!sieve.on_miss(3, now)); // graduates (zero entry)
        assert!(!sieve.on_miss(3, now)); // precise miss 1
        assert!(sieve.on_miss(3, now)); // precise miss 2: allocate
                                        // After allocation the precise entry is removed, so the block must
                                        // re-graduate and then re-earn t2 precise misses.
        assert!(!sieve.on_miss(3, now));
        assert!(!sieve.on_miss(3, now));
        assert!(sieve.on_miss(3, now));
        assert_eq!(sieve.granted(), 2);
    }

    #[test]
    fn cold_blocks_never_qualify() {
        let mut sieve = small(9, 4);
        // A million distinct one-touch blocks: none should allocate as
        // long as aliasing pressure stays moderate.
        let mut granted = 0;
        for key in 0..100_000u64 {
            if sieve.on_miss(key, Micros::from_hours(1)) {
                granted += 1;
            }
        }
        assert_eq!(sieve.granted(), granted);
        assert!(
            (granted as f64) < 100.0,
            "one-touch blocks granted {granted} allocations"
        );
    }

    #[test]
    fn window_expiry_blocks_slow_accumulators() {
        let mut sieve = small(2, 2);
        // Misses spaced 9 hours apart never accumulate in an 8-hour window.
        for i in 0..20u64 {
            let now = Micros::from_hours(9 * i);
            assert!(!sieve.on_miss(77, now), "spaced miss {i} allocated");
        }
    }

    #[test]
    fn aliasing_inflates_imct_but_mct_gatekeeps() {
        // One-slot IMCT: every block shares the imprecise count, so the
        // IMCT tier passes everything through almost immediately; the
        // precise MCT must still require t2 misses per actual block.
        let mut sieve = TwoTierSieve::new(
            TwoTierConfig::paper_default()
                .with_imct_entries(1)
                .with_thresholds(9, 4),
        )
        .unwrap();
        let now = Micros::from_hours(1);
        // 100 distinct blocks, one miss each: IMCT slot count soars, but no
        // individual block reaches 4 precise misses.
        for key in 0..100u64 {
            assert!(
                !sieve.on_miss(key, now),
                "aliased one-touch block allocated"
            );
        }
        assert!(sieve.graduated() > 0, "IMCT should graduate under aliasing");
        assert_eq!(sieve.granted(), 0);
        // A genuinely hot block still qualifies: one graduating miss plus
        // 4 additional precise misses.
        let mut alloc_at = 0;
        for i in 1..=5 {
            if sieve.on_miss(500, now) {
                alloc_at = i;
                break;
            }
        }
        assert_eq!(alloc_at, 5);
    }

    #[test]
    fn mct_population_is_bounded_by_graduated_blocks() {
        let mut sieve = small(9, 4);
        let now = Micros::from_hours(1);
        for key in 0..10_000u64 {
            sieve.on_miss(key, now);
        }
        assert!(
            sieve.mct_len() <= 10_000,
            "mct holds {} entries",
            sieve.mct_len()
        );
        assert!(sieve.memory_bytes() > 0);
        assert_eq!(sieve.misses_seen(), 10_000);
    }

    #[test]
    fn boundary_prune_is_time_driven() {
        // A stale MCT entry is dropped by the first miss of a later
        // subwindow, regardless of which key that miss is for.
        let mut sieve = small(1, 3);
        sieve.on_miss(1, Micros::from_hours(0));
        sieve.on_miss(1, Micros::from_hours(0));
        assert!(sieve.mct_len() > 0);
        // 20 hours later (10 subwindows), an unrelated key's miss prunes.
        sieve.on_miss(2, Micros::from_hours(20));
        assert_eq!(sieve.mct_len(), 1, "only key 2's fresh entry remains");
    }

    #[test]
    fn sharded_sieve_matches_whole_sieve_decisions() {
        let cfg = TwoTierConfig::paper_default()
            .with_imct_entries(1 << 8)
            .with_thresholds(3, 2);
        let shards = 4;
        let mut whole = TwoTierSieve::new(cfg).unwrap();
        let mut parts: Vec<TwoTierSieve> = (0..shards)
            .map(|s| TwoTierSieve::for_shard(cfg, s, shards).unwrap())
            .collect();
        // A deterministic mixed stream: repeated hot keys + cold singles,
        // spread over several subwindows.
        let mut granted = 0u64;
        for i in 0..20_000u64 {
            let key = if i % 3 == 0 { i % 17 } else { i };
            let now = Micros::from_hours(i / 4000);
            let s = sievestore_types::shard_of(key, shards);
            let whole_says = whole.on_miss(key, now);
            let part_says = parts[s].on_miss(key, now);
            assert_eq!(whole_says, part_says, "miss {i} key {key} diverged");
            granted += u64::from(whole_says);
        }
        assert!(granted > 0, "stream should grant some allocations");
        let part_granted: u64 = parts.iter().map(|p| p.granted()).sum();
        assert_eq!(whole.granted(), part_granted);
    }

    #[test]
    fn sharded_sieve_rejects_bad_split() {
        let cfg = TwoTierConfig::paper_default().with_imct_entries(100);
        assert!(TwoTierSieve::for_shard(cfg, 0, 3).is_err(), "3 ∤ 100");
        let cfg = TwoTierConfig::paper_default().with_imct_entries(1 << 8);
        assert!(TwoTierSieve::for_shard(cfg, 4, 4).is_err(), "index range");
        assert!(cfg.validate_sharding(0).is_err());
        assert!(cfg.validate_sharding(4).is_ok());
    }

    #[test]
    fn explicit_prune_drops_stale_state() {
        let mut sieve = small(1, 3);
        sieve.on_miss(1, Micros::from_hours(0));
        sieve.on_miss(1, Micros::from_hours(0));
        sieve.on_miss(1, Micros::from_hours(0));
        assert!(sieve.mct_len() > 0);
        let removed = sieve.prune(Micros::from_hours(20));
        assert_eq!(removed, 1);
        assert_eq!(sieve.mct_len(), 0);
    }
}
