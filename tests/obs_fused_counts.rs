//! Hit/miss counters on the fused SieveStore-D path.
//!
//! Under in-memory counting the appliance, and so every replay worker,
//! reads each access's hit-or-miss answer from the epoch table's resident
//! bit and never calls `BatchCache::contains`; the counters that call
//! used to feed must still add up. On the `obs` build every routed block event is counted as
//! exactly one cache hit or miss; without the feature every counter stays
//! at zero and the identity holds trivially.
//!
//! Alone in this file: the registry is process-global, and a test binary
//! runs its tests on parallel threads.

use sievestore::PolicySpec;
use sievestore_sim::{simulate_sharded, SimConfig};
use sievestore_trace::{EnsembleConfig, SyntheticTrace};
use sievestore_types::obs::{self, CounterId};

#[test]
fn every_routed_event_is_one_cache_hit_or_miss() {
    let trace = SyntheticTrace::new(EnsembleConfig::tiny(23)).unwrap();
    let cfg = SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(4096);
    let before = obs::global().snapshot();
    obs::set_enabled(true);
    let (result, stats) =
        simulate_sharded(&trace, PolicySpec::SieveStoreD { threshold: 5 }, &cfg, 2).unwrap();
    obs::set_enabled(false);
    let after = obs::global().snapshot();
    let delta = |id| after.counter(id) - before.counter(id);

    let total = result.total();
    assert!(total.hits() > 0 && total.accesses() > total.hits());
    assert_eq!(
        delta(CounterId::CacheHits) + delta(CounterId::CacheMisses),
        delta(CounterId::ReplayEventsRouted)
    );
    if cfg!(feature = "obs") {
        assert_eq!(delta(CounterId::ReplayEventsRouted), stats.total_blocks());
        assert_eq!(delta(CounterId::CacheHits), total.hits());
    }
}
