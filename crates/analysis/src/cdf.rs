//! Cumulative popularity distributions (Figures 2(b), 2(c), 3(a)–3(c)).
//!
//! For blocks ranked by descending access count, the CDF maps a block-rank
//! percentile to the cumulative fraction of accesses absorbed by all
//! blocks at or above that rank. The knee of this curve near the 1st
//! percentile is the paper's central workload observation; comparing the
//! curves of two servers, two volumes or two days exhibits the skew
//! *variation* of observation O2.

use sievestore_extsort::BlockCounts;

/// One sampled point of a popularity CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Block-rank percentile (0–100, most popular first).
    pub percentile: f64,
    /// Cumulative fraction of accesses covered (0–1).
    pub cumulative_fraction: f64,
}

/// A sampled popularity CDF.
///
/// # Examples
///
/// ```
/// use sievestore_analysis::{popularity_cdf, BlockCounts};
///
/// // One very hot block among many cold ones: the curve starts steep.
/// let counts = BlockCounts::from_blocks(
///     std::iter::repeat(0u64).take(90).chain(1..=10),
/// );
/// let cdf = popularity_cdf(&counts, 11);
/// assert!(cdf.points()[0].cumulative_fraction > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PopularityCdf {
    points: Vec<CdfPoint>,
}

impl PopularityCdf {
    /// The sampled points, in increasing percentile order.
    pub fn points(&self) -> &[CdfPoint] {
        &self.points
    }

    /// Cumulative access fraction at a block-rank percentile (linear
    /// interpolation between samples; 0 for an empty CDF).
    pub fn fraction_at(&self, percentile: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let p = percentile.clamp(0.0, 100.0);
        let mut prev = CdfPoint {
            percentile: 0.0,
            cumulative_fraction: 0.0,
        };
        for &pt in &self.points {
            if pt.percentile >= p {
                let span = pt.percentile - prev.percentile;
                if span <= 0.0 {
                    return pt.cumulative_fraction;
                }
                let w = (p - prev.percentile) / span;
                return prev.cumulative_fraction
                    + w * (pt.cumulative_fraction - prev.cumulative_fraction);
            }
            prev = pt;
        }
        self.points.last().expect("nonempty").cumulative_fraction
    }

    /// Restricts the CDF to percentiles at or below `max_percentile`
    /// (the paper's zoomed Figure 2(c) uses the top 5 %).
    pub fn zoomed(&self, max_percentile: f64) -> PopularityCdf {
        PopularityCdf {
            points: self
                .points
                .iter()
                .copied()
                .filter(|p| p.percentile <= max_percentile)
                .collect(),
        }
    }

    /// A scalar skew summary: the cumulative fraction at the 1st
    /// percentile (higher = more skewed).
    pub fn top1_share(&self) -> f64 {
        self.fraction_at(1.0)
    }
}

/// Computes the popularity CDF sampled at `samples` evenly-spaced
/// percentile points.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn popularity_cdf(counts: &BlockCounts, samples: usize) -> PopularityCdf {
    assert!(samples > 0, "need at least one sample");
    let sorted = counts.sorted_desc();
    if sorted.is_empty() {
        return PopularityCdf::default();
    }
    let total: u64 = counts.total_accesses();
    let n = sorted.len();
    let samples = samples.min(n);
    let mut points = Vec::with_capacity(samples);
    let mut cumulative = 0u64;
    let mut consumed = 0usize;
    for i in 0..samples {
        let upto = ((i + 1) * n / samples).max(consumed + 1).min(n);
        for &c in &sorted[consumed..upto] {
            cumulative += c;
        }
        consumed = upto;
        points.push(CdfPoint {
            percentile: upto as f64 / n as f64 * 100.0,
            cumulative_fraction: cumulative as f64 / total as f64,
        });
    }
    PopularityCdf { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn skewed() -> BlockCounts {
        // Block 0: 900 accesses; blocks 1..=99: 1 access each.
        BlockCounts::from_blocks(std::iter::repeat_n(0u64, 900).chain(1..=99))
    }

    fn flat() -> BlockCounts {
        BlockCounts::from_blocks((0..100u64).flat_map(|b| std::iter::repeat_n(b, 5)))
    }

    #[test]
    fn cdf_ends_at_one() {
        for counts in [skewed(), flat()] {
            let cdf = popularity_cdf(&counts, 20);
            let last = cdf.points().last().unwrap();
            assert!((last.percentile - 100.0).abs() < 1e-9);
            assert!((last.cumulative_fraction - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = popularity_cdf(&skewed(), 50);
        let pts = cdf.points();
        assert!(pts
            .windows(2)
            .all(|w| w[0].cumulative_fraction <= w[1].cumulative_fraction));
        assert!(pts.windows(2).all(|w| w[0].percentile < w[1].percentile));
    }

    #[test]
    fn skewed_beats_flat_at_the_top() {
        let s = popularity_cdf(&skewed(), 100);
        let f = popularity_cdf(&flat(), 100);
        assert!(s.top1_share() > 0.8, "skewed top-1% {}", s.top1_share());
        assert!(f.top1_share() < 0.05, "flat top-1% {}", f.top1_share());
    }

    #[test]
    fn interpolation_brackets_samples() {
        let cdf = popularity_cdf(&flat(), 10);
        // Flat distribution: fraction ~= percentile / 100.
        for p in [5.0, 25.0, 50.0, 95.0] {
            let f = cdf.fraction_at(p);
            assert!((f - p / 100.0).abs() < 0.06, "p={p} f={f}");
        }
        assert_eq!(cdf.fraction_at(-5.0), cdf.fraction_at(0.0));
        assert!((cdf.fraction_at(150.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zoom_restricts_domain() {
        let cdf = popularity_cdf(&skewed(), 100);
        let zoom = cdf.zoomed(5.0);
        assert!(!zoom.points().is_empty());
        assert!(zoom.points().iter().all(|p| p.percentile <= 5.0));
    }

    #[test]
    fn empty_counts_yield_empty_cdf() {
        let cdf = popularity_cdf(&BlockCounts::new(), 10);
        assert!(cdf.points().is_empty());
        assert_eq!(cdf.fraction_at(50.0), 0.0);
        assert_eq!(cdf.top1_share(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sample")]
    fn zero_samples_panics() {
        let _ = popularity_cdf(&BlockCounts::new(), 0);
    }

    proptest! {
        #[test]
        fn cdf_invariants_hold_for_random_workloads(
            counts in proptest::collection::vec(1u64..50, 1..500),
            samples in 1usize..64,
        ) {
            let blocks = counts
                .iter()
                .enumerate()
                .flat_map(|(b, &c)| std::iter::repeat_n(b as u64, c as usize));
            let counts = BlockCounts::from_blocks(blocks);
            let cdf = popularity_cdf(&counts, samples);
            let pts = cdf.points();
            prop_assert!(!pts.is_empty());
            prop_assert!((pts.last().unwrap().cumulative_fraction - 1.0).abs() < 1e-9);
            prop_assert!(pts.windows(2).all(|w| w[0].cumulative_fraction <= w[1].cumulative_fraction + 1e-12));
            // fraction_at is monotone.
            let mut last = 0.0;
            for p in 0..=10 {
                let f = cdf.fraction_at(p as f64 * 10.0);
                prop_assert!(f + 1e-12 >= last);
                last = f;
            }
        }
    }
}
