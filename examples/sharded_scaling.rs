//! Scaling out: hash-sharded SieveStore appliances (§7 forward-work).
//!
//! Run with: `cargo run --release --example sharded_scaling`
//!
//! When one appliance's SSD or network saturates, blocks can be hashed
//! across several independent appliances — with the workspace's one
//! sharding: `shard_of` routes a block, `SieveStoreBuilder::shard(s, n)`
//! builds shard `s` with its slice of the capacity and of the sieve
//! metastate. Because a block's entire miss history lands on one shard,
//! sieving decisions are unchanged; capacity and IOPS scale with the
//! shard count.

use sievestore::{PolicySpec, SieveStore, SieveStoreBuilder};
use sievestore_sieve::TwoTierConfig;
use sievestore_trace::{EnsembleConfig, SyntheticTrace, TraceStreamConfig};
use sievestore_types::{shard_of, SieveError};

fn main() -> Result<(), SieveError> {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(7).with_days(3))?;
    let policy = PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 14));

    for shards in [1usize, 2, 4] {
        let mut nodes: Vec<SieveStore> = (0..shards)
            .map(|s| {
                SieveStoreBuilder::new()
                    .capacity_blocks(16_384)
                    .policy(policy.clone())
                    .shard(s, shards)
                    .build()
            })
            .collect::<Result<_, _>>()?;
        for req in trace.stream(TraceStreamConfig::default()).requests() {
            for (i, block) in req.blocks().enumerate() {
                let key = block.raw();
                let now = req.block_completion_time(i as u32);
                nodes[shard_of(key, shards)].access(key, req.kind, now);
            }
        }
        let hits: u64 = nodes.iter().map(|n| n.stats().hits()).sum();
        let accesses: u64 = nodes.iter().map(|n| n.stats().accesses()).sum();
        let allocs: u64 = nodes.iter().map(|n| n.stats().allocation_writes).sum();
        let loads: Vec<usize> = nodes.iter().map(SieveStore::len_blocks).collect();
        println!(
            "{shards} shard(s): hit ratio {:5.1}%  alloc-writes {allocs:>6}  resident/shard {loads:?}",
            100.0 * hits as f64 / accesses as f64,
        );
    }

    println!(
        "\nSharding preserves per-block sieving decisions exactly (same shard\n\
         sees every miss of a block), so hit ratios match the single-node\n\
         deployment while capacity and IOPS scale linearly."
    );
    Ok(())
}
