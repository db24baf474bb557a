//! Per-block access counting split across workers.
//!
//! Counting is a per-key reduction, so it splits cleanly across workers
//! by hash partition (the paper frames SieveStore-D's offline counting
//! as exactly this map-reduce shape): [`sharded_block_counts`] buckets a
//! block stream with [`sievestore_types::shard_of`] — the same partition
//! function the parallel replay engine routes work with — and
//! [`BlockCounts::merge`] recombines shard results into a table equal to
//! the single-pass one.

use sievestore_extsort::BlockCounts;
use sievestore_types::shard_of;

/// Counts a block stream split across `shards` hash partitions (keyed by
/// [`shard_of`], matching the replay engine's worker routing). Shard `s`
/// of the result counts exactly the keys with `shard_of(key, shards) ==
/// s`; merging all shards with [`BlockCounts::merge`] reproduces the
/// single-pass [`BlockCounts::from_blocks`] table.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn sharded_block_counts(blocks: impl Iterator<Item = u64>, shards: usize) -> Vec<BlockCounts> {
    assert!(shards > 0, "shard count must be nonzero");
    let mut parts = vec![BlockCounts::new(); shards];
    for b in blocks {
        parts[shard_of(b, shards)].record(b);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counts_merge_to_single_pass_table() {
        let blocks: Vec<u64> = (0..500u64).map(|i| i * i % 97).collect();
        let direct = BlockCounts::from_blocks(blocks.iter().copied());
        for shards in [1usize, 2, 4, 8] {
            let parts = sharded_block_counts(blocks.iter().copied(), shards);
            assert_eq!(parts.len(), shards);
            // Each shard holds only its own partition's keys.
            for (s, part) in parts.iter().enumerate() {
                for (k, _) in part.iter() {
                    assert_eq!(sievestore_types::shard_of(k, shards), s);
                }
            }
            // Merging in any order reproduces the single-pass table.
            let mut merged = BlockCounts::new();
            for part in parts.iter().rev() {
                merged.merge(part);
            }
            assert_eq!(merged, direct, "{shards} shards");
        }
    }
}
