//! Tuning (one of §7's forward-looking issues).
//!
//! The ADBA threshold `t` was hand-tuned to 10; on a different ensemble
//! the right value differs. [`AdaptiveThreshold`] is a feedback
//! controller that retunes `t` each epoch so the selected block set
//! tracks a target cache occupancy, staying inside the paper's observed
//! safe band (degradation below ~8, flat 8–20).
//!
//! §7's other question, scaling out, needs no type of its own: route
//! blocks with [`sievestore_types::shard_of`] and build each appliance
//! with [`SieveStoreBuilder::shard`](crate::SieveStoreBuilder::shard)
//! (`examples/sharded_scaling.rs`).

use sievestore_types::SieveError;

/// Feedback controller for SieveStore-D's epoch threshold.
///
/// After each epoch, feed it the number of blocks the current threshold
/// selected; it nudges the threshold so the selection tracks
/// `target_blocks` (typically the cache capacity), clamped to
/// `[min, max]`.
///
/// # Examples
///
/// ```
/// use sievestore::tuning::AdaptiveThreshold;
///
/// let mut t = AdaptiveThreshold::new(10, 8, 20, 10_000).unwrap();
/// // Selection far exceeded the cache: tighten.
/// assert_eq!(t.observe_epoch(40_000), 11);
/// // Selection far below half the target: loosen.
/// assert_eq!(t.observe_epoch(2_000), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveThreshold {
    current: u64,
    min: u64,
    max: u64,
    target_blocks: u64,
}

impl AdaptiveThreshold {
    /// Creates a controller starting at `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`SieveError::InvalidConfig`] unless
    /// `0 < min <= initial <= max` and `target_blocks > 0`.
    pub fn new(initial: u64, min: u64, max: u64, target_blocks: u64) -> Result<Self, SieveError> {
        if min == 0 || min > initial || initial > max {
            return Err(SieveError::InvalidConfig(format!(
                "need 0 < min <= initial <= max, got {min} <= {initial} <= {max}"
            )));
        }
        if target_blocks == 0 {
            return Err(SieveError::InvalidConfig(
                "target_blocks must be positive".into(),
            ));
        }
        Ok(AdaptiveThreshold {
            current: initial,
            min,
            max,
            target_blocks,
        })
    }

    /// The threshold to use for the next epoch.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Feeds back one epoch's selection size; returns the adjusted
    /// threshold. Over-selection (beyond the target) raises `t` one step;
    /// under-selection (below half the target) lowers it one step —
    /// deliberately slow, mirroring the paper's observation that the
    /// hit-rate is flat across a wide threshold band.
    pub fn observe_epoch(&mut self, selected_blocks: u64) -> u64 {
        if selected_blocks > self.target_blocks {
            self.current = (self.current + 1).min(self.max);
        } else if selected_blocks < self.target_blocks / 2 {
            self.current = (self.current - 1).max(self.min);
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_threshold_validation() {
        assert!(AdaptiveThreshold::new(10, 8, 20, 100).is_ok());
        assert!(AdaptiveThreshold::new(10, 0, 20, 100).is_err());
        assert!(AdaptiveThreshold::new(7, 8, 20, 100).is_err());
        assert!(AdaptiveThreshold::new(21, 8, 20, 100).is_err());
        assert!(AdaptiveThreshold::new(10, 8, 20, 0).is_err());
    }

    #[test]
    fn adaptive_threshold_tracks_target() {
        let mut t = AdaptiveThreshold::new(10, 8, 20, 1000).unwrap();
        // Persistent over-selection walks the threshold to its cap.
        for _ in 0..30 {
            t.observe_epoch(10_000);
        }
        assert_eq!(t.current(), 20);
        // Persistent under-selection walks it back to the floor.
        for _ in 0..30 {
            t.observe_epoch(10);
        }
        assert_eq!(t.current(), 8);
        // In-band selections leave it alone.
        let before = t.current();
        t.observe_epoch(800);
        assert_eq!(t.current(), before);
    }
}
