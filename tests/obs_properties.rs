//! Property suite pinning the observability layer's algebra.
//!
//! The exporter's central claim is that snapshots are *mergeable*:
//! per-shard metric snapshots combine into the same totals in any order
//! and any grouping, exactly like the simulator's `DayMetrics`. These
//! properties pin that algebra (commutativity, associativity, identity),
//! the log-bucketing round trip behind it, the determinism of the JSON
//! serialization, and — end to end — that `Sharded(N)` replays export
//! byte-identical day-boundary snapshot logs to the sequential engine for
//! discrete policies.

use std::sync::Mutex;

use proptest::prelude::*;
use sievestore::PolicySpec;
use sievestore_sim::{simulate_with_snapshots, SimConfig};
use sievestore_trace::{EnsembleConfig, SyntheticTrace};
use sievestore_types::obs::{
    self, bucket_floor, bucket_of, CounterId, GaugeId, HistId, Histogram, HistogramSnapshot,
    MetricsSnapshot, Registry, HIST_BUCKETS,
};

/// Builds a snapshot by recording `values` into a fresh histogram.
fn hist_from(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// `a.merge(b)` without mutating either operand.
fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = *a;
    out.merge(b);
    out
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..40)
}

/// Arbitrary registry snapshots: every counter and every gauge
/// populated, and one histogram chosen dependently via `prop_flat_map`.
fn snapshot_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec(0u64..1 << 30, CounterId::ALL.len()),
        proptest::collection::vec(-1_000i64..1_000, GaugeId::ALL.len()),
        (0usize..HistId::ALL.len())
            .prop_flat_map(|idx| (Just(idx), proptest::collection::vec(any::<u64>(), 0..32))),
    )
        .prop_map(|(counters, gauges, (hist_idx, hist_values))| {
            let mut snap = MetricsSnapshot::empty();
            for (id, v) in CounterId::ALL.into_iter().zip(counters) {
                snap.set_counter(id, v);
            }
            for (id, v) in GaugeId::ALL.into_iter().zip(gauges) {
                snap.set_gauge(id, v);
            }
            snap.histogram_mut(HistId::ALL[hist_idx])
                .merge(&hist_from(&hist_values));
            snap
        })
}

fn merged_snap(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// `bucket_of`/`bucket_floor` round trip: every value lands in the
    /// bucket whose floor is at most the value, and strictly below the
    /// next bucket's floor.
    #[test]
    fn bucketing_brackets_every_value(v in any::<u64>()) {
        let b = bucket_of(v);
        prop_assert!(b < HIST_BUCKETS);
        prop_assert!(bucket_floor(b) <= v);
        if b + 1 < HIST_BUCKETS {
            prop_assert!(v < bucket_floor(b + 1), "{v} above bucket {b}");
        }
    }

    /// Histogram merge is commutative and counts are additive.
    #[test]
    fn hist_merge_commutes(a in values(), b in values()) {
        let (ha, hb) = (hist_from(&a), hist_from(&b));
        prop_assert_eq!(merged(&ha, &hb), merged(&hb, &ha));
        prop_assert_eq!(merged(&ha, &hb).count(), ha.count() + hb.count());
    }

    /// Histogram merge is associative, and merging per-part snapshots
    /// equals recording the concatenated stream into one histogram.
    #[test]
    fn hist_merge_associates_and_matches_concat(
        a in values(),
        b in values(),
        c in values(),
    ) {
        let (ha, hb, hc) = (hist_from(&a), hist_from(&b), hist_from(&c));
        prop_assert_eq!(merged(&merged(&ha, &hb), &hc), merged(&ha, &merged(&hb, &hc)));
        let concat: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(merged(&merged(&ha, &hb), &hc), hist_from(&concat));
    }

    /// The empty snapshot is the merge identity.
    #[test]
    fn hist_empty_is_identity(a in values()) {
        let ha = hist_from(&a);
        prop_assert_eq!(merged(&ha, &HistogramSnapshot::empty()), ha);
        prop_assert_eq!(merged(&HistogramSnapshot::empty(), &ha), ha);
    }

    /// Registry-snapshot merge is commutative and associative, and equal
    /// snapshots serialize to identical bytes regardless of merge order.
    #[test]
    fn snapshot_merge_commutes_and_associates(
        a in snapshot_strategy(),
        b in snapshot_strategy(),
        c in snapshot_strategy(),
    ) {
        prop_assert_eq!(merged_snap(&a, &b), merged_snap(&b, &a));
        prop_assert_eq!(
            merged_snap(&merged_snap(&a, &b), &c),
            merged_snap(&a, &merged_snap(&b, &c))
        );
        prop_assert_eq!(
            merged_snap(&a, &b).to_json_line(),
            merged_snap(&b, &a).to_json_line()
        );
    }

    /// The empty registry snapshot is the merge identity.
    #[test]
    fn snapshot_empty_is_identity(a in snapshot_strategy()) {
        prop_assert_eq!(merged_snap(&a, &MetricsSnapshot::empty()), a.clone());
        prop_assert_eq!(merged_snap(&MetricsSnapshot::empty(), &a), a);
        prop_assert!(MetricsSnapshot::empty().is_empty());
    }

    /// A private registry's snapshot reflects exactly what was recorded,
    /// and `reset` returns it to empty.
    #[test]
    fn registry_snapshot_roundtrip(
        n in 1u64..1_000,
        delta in -500i64..500,
        vs in values(),
    ) {
        let reg = Registry::new();
        reg.add(CounterId::ReplayBatchesSent, n);
        reg.adjust_gauge(GaugeId::NodeLiveConnections, delta);
        for &v in &vs {
            reg.record(HistId::ReplayChannelWaitNanos, v);
        }
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter(CounterId::ReplayBatchesSent), n);
        prop_assert_eq!(snap.gauge(GaugeId::NodeLiveConnections), delta);
        prop_assert_eq!(snap.histogram(HistId::ReplayChannelWaitNanos), &hist_from(&vs));
        reg.reset();
        prop_assert!(reg.snapshot().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// End to end: an N-worker replay of a discrete policy exports a
    /// day-boundary snapshot log byte-identical to the one-worker
    /// replay's — totals, per-day lines, header, all of it.
    #[test]
    fn sharded_day_snapshots_match_sequential(
        trace_seed in 0u64..1_000_000,
        shards in proptest::sample::select(vec![2usize, 4, 8]),
        threshold in 2u64..12,
    ) {
        let trace = SyntheticTrace::new(EnsembleConfig::tiny(trace_seed)).unwrap();
        let spec = PolicySpec::SieveStoreD { threshold };
        let base = SimConfig::paper_16gb(trace.config().scale.denominator())
            .with_capacity_blocks(4_096);
        let (_, seq_log) =
            simulate_with_snapshots(&trace, spec.clone(), &base).expect("one-worker run");
        let sharded_cfg = base.with_workers(shards);
        let (_, sharded_log) =
            simulate_with_snapshots(&trace, spec, &sharded_cfg).expect("sharded run");
        prop_assert_eq!(seq_log.to_jsonl(), sharded_log.to_jsonl());
        prop_assert_eq!(
            seq_log.days.last().map(|d| d.cumulative),
            sharded_log.days.last().map(|d| d.cumulative)
        );
    }
}

/// Serializes the tests that toggle the process-global runtime flag; the
/// node-only metric ids they probe are untouched by every other test in
/// this binary, so concurrent simulation tests cannot perturb them.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

#[test]
fn disabled_runtime_records_nothing_globally() {
    let _guard = GLOBAL_OBS.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(false);
    let before = obs::global().snapshot();
    obs::count(CounterId::ClientRetries, 5);
    obs::observe(HistId::NodeReadNanos, 123);
    let after = obs::global().snapshot();
    assert_eq!(
        before.counter(CounterId::ClientRetries),
        after.counter(CounterId::ClientRetries)
    );
    assert_eq!(
        before.histogram(HistId::NodeReadNanos),
        after.histogram(HistId::NodeReadNanos)
    );
}

#[test]
fn enabled_runtime_records_exact_deltas() {
    let _guard = GLOBAL_OBS.lock().unwrap_or_else(|p| p.into_inner());
    let before = obs::global().snapshot();
    obs::set_enabled(true);
    obs::count(CounterId::ClientRetries, 5);
    obs::observe(HistId::NodeReadNanos, 123);
    obs::set_enabled(false);
    let after = obs::global().snapshot();
    assert_eq!(
        after.counter(CounterId::ClientRetries),
        before.counter(CounterId::ClientRetries) + 5
    );
    assert_eq!(
        after.histogram(HistId::NodeReadNanos).count(),
        before.histogram(HistId::NodeReadNanos).count() + 1
    );
}
