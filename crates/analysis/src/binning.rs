//! Percentile binning of the ranked popularity curve (Figure 2(a)).
//!
//! The paper sorts a day's blocks by descending popularity and groups
//! them into 10 000 equal-population bins (0.01 % of blocks each), then
//! plots each bin's mean access count against its percentile rank on
//! log-log axes. [`PopularityBins`] reproduces that reduction.

use sievestore_extsort::BlockCounts;

/// One equal-population bin of the ranked popularity curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinStat {
    /// Upper percentile edge of the bin (e.g. 1.0 = the top 1 %).
    pub percentile: f64,
    /// Mean access count of the bin's blocks.
    pub mean_count: f64,
    /// Maximum access count within the bin.
    pub max_count: u64,
    /// Minimum access count within the bin.
    pub min_count: u64,
}

/// The binned popularity curve of one day (or any count set).
///
/// # Examples
///
/// ```
/// use sievestore_analysis::{BlockCounts, PopularityBins};
///
/// let counts = BlockCounts::from_blocks((0..1000u64).flat_map(|b| {
///     std::iter::repeat(b).take(if b == 0 { 100 } else { 1 })
/// }));
/// let bins = PopularityBins::from_counts(&counts, 100);
/// // The first percentile bin contains the hot block.
/// assert!(bins.bins()[0].mean_count > bins.bins()[50].mean_count);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityBins {
    bins: Vec<BinStat>,
}

impl PopularityBins {
    /// The paper's bin count: 10 000 bins of 0.01 % each.
    pub const PAPER_BINS: usize = 10_000;

    /// Bins the ranked counts into at most `bins` equal-population bins
    /// (fewer when there are fewer distinct blocks than bins).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn from_counts(counts: &BlockCounts, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        let sorted = counts.sorted_desc();
        Self::from_sorted_desc(&sorted, bins)
    }

    /// Bins an already-sorted (descending) count vector.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn from_sorted_desc(sorted: &[u64], bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        let n = sorted.len();
        if n == 0 {
            return PopularityBins { bins: Vec::new() };
        }
        let bins = bins.min(n);
        let mut out = Vec::with_capacity(bins);
        for i in 0..bins {
            let lo = i * n / bins;
            let hi = ((i + 1) * n / bins).max(lo + 1).min(n);
            let slice = &sorted[lo..hi];
            let sum: u64 = slice.iter().sum();
            out.push(BinStat {
                percentile: hi as f64 / n as f64 * 100.0,
                mean_count: sum as f64 / slice.len() as f64,
                max_count: *slice.first().expect("nonempty bin"),
                min_count: *slice.last().expect("nonempty bin"),
            });
        }
        PopularityBins { bins: out }
    }

    /// The bins, ordered from most to least popular.
    pub fn bins(&self) -> &[BinStat] {
        &self.bins
    }

    /// The bin containing the given percentile (e.g. 1.0 for the bin at
    /// the top-1 % boundary), if any blocks were counted.
    pub fn bin_at_percentile(&self, percentile: f64) -> Option<&BinStat> {
        self.bins
            .iter()
            .find(|b| b.percentile >= percentile)
            .or_else(|| self.bins.last())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipfish_counts() -> BlockCounts {
        // Block b gets max(1000 / (b + 1), 1) accesses, 1000 blocks.
        BlockCounts::from_blocks((0..1000u64).flat_map(|b| {
            let reps = (1000 / (b + 1)).max(1) as usize;
            std::iter::repeat_n(b, reps)
        }))
    }

    #[test]
    fn bins_are_monotonically_nonincreasing_in_mean() {
        let bins = PopularityBins::from_counts(&zipfish_counts(), 50);
        let means: Vec<f64> = bins.bins().iter().map(|b| b.mean_count).collect();
        assert!(means.windows(2).all(|w| w[0] >= w[1]), "{means:?}");
    }

    #[test]
    fn percentiles_cover_zero_to_hundred() {
        let bins = PopularityBins::from_counts(&zipfish_counts(), 10);
        assert_eq!(bins.bins().len(), 10);
        assert!((bins.bins().last().unwrap().percentile - 100.0).abs() < 1e-9);
        assert!(bins.bins()[0].percentile > 0.0);
    }

    #[test]
    fn fewer_blocks_than_bins_collapses() {
        let counts = BlockCounts::from_blocks([1u64, 2, 3].into_iter());
        let bins = PopularityBins::from_counts(&counts, 100);
        assert_eq!(bins.bins().len(), 3);
    }

    #[test]
    fn empty_counts_give_no_bins() {
        let bins = PopularityBins::from_counts(&BlockCounts::new(), 10);
        assert!(bins.bins().is_empty());
        assert!(bins.bin_at_percentile(1.0).is_none());
    }

    #[test]
    fn bin_at_percentile_lookup() {
        let bins = PopularityBins::from_counts(&zipfish_counts(), 100);
        let top1 = bins.bin_at_percentile(1.0).unwrap();
        assert!(top1.percentile >= 1.0);
        assert!(top1.mean_count > 100.0, "top bin mean {}", top1.mean_count);
        let beyond = bins.bin_at_percentile(1000.0).unwrap();
        assert!((beyond.percentile - 100.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_bracket_mean() {
        let bins = PopularityBins::from_counts(&zipfish_counts(), 20);
        for b in bins.bins() {
            assert!(b.min_count as f64 <= b.mean_count);
            assert!(b.mean_count <= b.max_count as f64);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = PopularityBins::from_counts(&BlockCounts::new(), 0);
    }
}
