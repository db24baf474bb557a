//! Per-server composition of the ensemble hot set (Figure 3(d)) and
//! hot-set drift measures.
//!
//! Figure 3(d) plots, for each day, what fraction of the ensemble's
//! top-1 % blocks each server contributes — the day-to-day variation is
//! the paper's argument against any statically partitioned per-server
//! cache. The overlap helpers quantify hot-set drift: consecutive days
//! overlap strongly while distant days diverge (the property that makes
//! SieveStore-D's yesterday-predicts-today strategy work).

use std::collections::HashSet;

use sievestore_types::GlobalBlock;

use sievestore_extsort::BlockCounts;

/// Per-server share of a block selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerShare {
    /// Server index.
    pub server: usize,
    /// Number of selected blocks owned by the server.
    pub blocks: u64,
    /// Fraction of the selection owned by the server (0–1).
    pub fraction: f64,
}

/// Splits a block selection by owning server (Figure 3(d)'s stacked bar
/// for one day).
///
/// `servers` bounds the output length; blocks from servers at or beyond
/// it are ignored.
///
/// # Examples
///
/// ```
/// use sievestore_analysis::composition_by_server;
/// use sievestore_types::{BlockAddr, GlobalBlock, ServerId, VolumeId};
///
/// let block = |s, b| GlobalBlock::pack(ServerId::new(s), VolumeId::new(0), b).raw();
/// let selection = vec![block(0, 1), block(0, 2), block(1, 3)];
/// let shares = composition_by_server(&selection, 2);
/// assert_eq!(shares[0].blocks, 2);
/// assert!((shares[1].fraction - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn composition_by_server(selection: &[u64], servers: usize) -> Vec<ServerShare> {
    let mut counts = vec![0u64; servers];
    let mut total = 0u64;
    for &raw in selection {
        let s = GlobalBlock::from_raw(raw).server().as_usize();
        if s < servers {
            counts[s] += 1;
            total += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(server, blocks)| ServerShare {
            server,
            blocks,
            fraction: if total == 0 {
                0.0
            } else {
                blocks as f64 / total as f64
            },
        })
        .collect()
}

/// Containment overlap between two block sets: `|a ∩ b| / min(|a|, |b|)`.
/// 1.0 means the smaller set is fully contained; 0.0 means disjoint.
pub fn containment_overlap(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let set: HashSet<u64> = a.iter().copied().collect();
    let inter = b.iter().filter(|k| set.contains(k)).count();
    inter as f64 / a.len().min(b.len()) as f64
}

/// Jaccard similarity between two block sets: `|a ∩ b| / |a ∪ b|`.
pub fn jaccard_overlap(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let sa: HashSet<u64> = a.iter().copied().collect();
    let sb: HashSet<u64> = b.iter().copied().collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Hot-set drift over a sequence of per-day counts: for each pair of
/// consecutive days, the containment overlap of their top-`fraction`
/// selections.
pub fn consecutive_day_overlaps(days: &[BlockCounts], fraction: f64) -> Vec<f64> {
    let tops: Vec<Vec<u64>> = days.iter().map(|c| c.top_fraction(fraction).0).collect();
    tops.windows(2)
        .map(|w| containment_overlap(&w[0], &w[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_types::{ServerId, VolumeId};

    fn block(s: u8, b: u64) -> u64 {
        GlobalBlock::pack(ServerId::new(s), VolumeId::new(0), b).raw()
    }

    #[test]
    fn composition_counts_and_fractions() {
        let selection = vec![block(0, 1), block(2, 5), block(2, 6), block(2, 7)];
        let shares = composition_by_server(&selection, 3);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares[0].blocks, 1);
        assert_eq!(shares[1].blocks, 0);
        assert_eq!(shares[2].blocks, 3);
        assert!((shares[2].fraction - 0.75).abs() < 1e-12);
        let total: f64 = shares.iter().map(|s| s.fraction).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn composition_of_empty_selection() {
        let shares = composition_by_server(&[], 2);
        assert!(shares.iter().all(|s| s.blocks == 0 && s.fraction == 0.0));
    }

    #[test]
    fn out_of_range_servers_are_ignored() {
        let selection = vec![block(5, 1), block(0, 2)];
        let shares = composition_by_server(&selection, 2);
        assert_eq!(shares[0].blocks, 1);
        assert!((shares[0].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_measures() {
        let a = vec![1u64, 2, 3, 4];
        let b = vec![3u64, 4, 5, 6];
        assert!((containment_overlap(&a, &b) - 0.5).abs() < 1e-12);
        assert!((jaccard_overlap(&a, &b) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(containment_overlap(&a, &[]), 0.0);
        assert_eq!(jaccard_overlap(&[], &[]), 0.0);
        assert!((containment_overlap(&a, &a) - 1.0).abs() < 1e-12);
        assert!((jaccard_overlap(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn containment_uses_smaller_set() {
        let small = vec![1u64, 2];
        let large = vec![1u64, 2, 3, 4, 5, 6, 7, 8];
        assert!((containment_overlap(&small, &large) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn consecutive_overlaps_detect_drift() {
        // Three days whose hot sets shift by half each day.
        let day = |start: u64| {
            BlockCounts::from_blocks(
                (start..start + 10)
                    .flat_map(|b| std::iter::repeat_n(b, 100))
                    .chain(1000..2000), // cold tail
            )
        };
        let days = vec![day(0), day(5), day(10)];
        let overlaps = consecutive_day_overlaps(&days, 0.01);
        assert_eq!(overlaps.len(), 2);
        for o in overlaps {
            assert!((0.3..0.8).contains(&o), "overlap {o}");
        }
    }
}
