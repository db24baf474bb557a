//! Zero-dependency observability: a lock-free metrics registry and
//! the structured events a node reports to its own sink.
//!
//! The replay engine processes tens of millions of block accesses per
//! second, so the only affordable instrumentation is the kind that costs
//! ~nothing when it is off. This module provides exactly that:
//!
//! * a **fixed-schema [`Registry`]** of atomic counters ([`CounterId`]),
//!   gauges ([`GaugeId`]) and log-bucketed histograms ([`HistId`]) —
//!   no locks, no allocation, no registration step; every metric is an
//!   enum-indexed slot in a static array;
//! * **[`MetricsSnapshot`]** — a plain-integer copy of the registry whose
//!   [`merge`](MetricsSnapshot::merge) is commutative and associative, so
//!   per-shard snapshots combine into the same totals in any order (the
//!   same contract `DayMetrics` follows in the simulator);
//! * **structured events** ([`Event`]) that a node delivers to the
//!   [`EventSink`] its configuration names — [`NoopSink`] by default, or
//!   a [`CapturingSink`] that tests assert on.
//!
//! # Cost model
//!
//! Instrumented call sites go through [`count`] / [`observe`] /
//! [`gauge_adjust`], which test one `AtomicBool` with a relaxed load and
//! branch away when runtime recording is off ([`set_enabled`], off by
//! default); with recording on, each is one relaxed `fetch_add`. There is
//! one build: every call site is compiled in, and none sits in the
//! replay's per-access loop — the simulator counts hits, misses and
//! allocation-writes exactly in `DayMetrics`, so the registry carries
//! only what no figure counts (node requests and faults, durable-tier
//! commits, replay channel and barrier timings).
//!
//! # Examples
//!
//! ```
//! use sievestore_types::obs::{self, CounterId, Registry};
//!
//! // Private registries are cheap and need no global state:
//! let reg = Registry::new();
//! reg.add(CounterId::NodeReads, 3);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter(CounterId::NodeReads), 3);
//!
//! // Snapshot merges are commutative:
//! let mut a = reg.snapshot();
//! let b = reg.snapshot();
//! a.merge(&b);
//! assert_eq!(a.counter(CounterId::NodeReads), 6);
//! # let _ = obs::enabled();
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------------

/// Monotonic counters tracked by a [`Registry`].
///
/// The set is a fixed schema: adding a metric means adding a variant
/// here (and to [`CounterId::ALL`]), which keeps the registry lock-free
/// and snapshot serialization deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Batches of request groups sent over worker channels.
    ReplayBatchesSent,
    /// Day boundaries crossed by the replay coordinator.
    ReplayDayBoundaries,
    /// Read requests served by a node (any path).
    NodeReads,
    /// Write requests served by a node (any path).
    NodeWrites,
    /// Requests served in degraded pass-through mode.
    NodeDegraded,
    /// Requests answered with a `Deadline` error.
    NodeDeadlineOverruns,
    /// Circuit-breaker trips into the open (degraded) state.
    NodeBreakerTrips,
    /// Circuit-breaker recoveries back to the closed (healthy) state.
    NodeBreakerRecoveries,
    /// Client-side transient-failure retries.
    ClientRetries,
    /// Client-side transparent reconnects.
    ClientReconnects,
    /// Dirty frames left stranded by a failed shutdown-flush round.
    NodeFlushFailures,
    /// Requests that found their shard's lock held and had to wait.
    NodeShardLockContended,
    /// Frames restored (warm) from durable media on recovery.
    DurableRecoveredFrames,
    /// Frames quarantined for failed checksums (torn/rotted media).
    DurableQuarantinedFrames,
    /// Dirty frames whose only copy was lost to corrupt media.
    DurableLostDirtyFrames,
    /// Frames whose checksum a scrub pass verified.
    DurableScrubbedFrames,
    /// Durable-media write/sync failures observed by the cache.
    DurableMediaErrors,
    /// Records appended to the durable metadata journal.
    DurableJournalRecords,
    /// Media syncs issued by durable group commits.
    DurableSyncs,
    /// Durable group commits (one landed group each).
    DurableCommits,
    /// Node windows released without leading a commit: another
    /// connection's commit had covered, or went on to cover, all they
    /// staged and saw.
    DurableCommitsShared,
}

impl CounterId {
    /// Every counter, in canonical (serialization) order.
    pub const ALL: [CounterId; 21] = [
        CounterId::ReplayBatchesSent,
        CounterId::ReplayDayBoundaries,
        CounterId::NodeReads,
        CounterId::NodeWrites,
        CounterId::NodeDegraded,
        CounterId::NodeDeadlineOverruns,
        CounterId::NodeBreakerTrips,
        CounterId::NodeBreakerRecoveries,
        CounterId::ClientRetries,
        CounterId::ClientReconnects,
        CounterId::NodeFlushFailures,
        CounterId::NodeShardLockContended,
        CounterId::DurableRecoveredFrames,
        CounterId::DurableQuarantinedFrames,
        CounterId::DurableLostDirtyFrames,
        CounterId::DurableScrubbedFrames,
        CounterId::DurableMediaErrors,
        CounterId::DurableJournalRecords,
        CounterId::DurableSyncs,
        CounterId::DurableCommits,
        CounterId::DurableCommitsShared,
    ];

    /// The counter's stable snake-case name (used in snapshots and JSON).
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::ReplayBatchesSent => "replay_batches_sent",
            CounterId::ReplayDayBoundaries => "replay_day_boundaries",
            CounterId::NodeReads => "node_reads",
            CounterId::NodeWrites => "node_writes",
            CounterId::NodeDegraded => "node_degraded",
            CounterId::NodeDeadlineOverruns => "node_deadline_overruns",
            CounterId::NodeBreakerTrips => "node_breaker_trips",
            CounterId::NodeBreakerRecoveries => "node_breaker_recoveries",
            CounterId::ClientRetries => "client_retries",
            CounterId::ClientReconnects => "client_reconnects",
            CounterId::NodeFlushFailures => "node_flush_failures",
            CounterId::NodeShardLockContended => "node_shard_lock_contended",
            CounterId::DurableRecoveredFrames => "durable_recovered_frames",
            CounterId::DurableQuarantinedFrames => "durable_quarantined_frames",
            CounterId::DurableLostDirtyFrames => "durable_lost_dirty_frames",
            CounterId::DurableScrubbedFrames => "durable_scrubbed_frames",
            CounterId::DurableMediaErrors => "durable_media_errors",
            CounterId::DurableJournalRecords => "durable_journal_records",
            CounterId::DurableSyncs => "durable_syncs",
            CounterId::DurableCommits => "durable_commits",
            CounterId::DurableCommitsShared => "durable_commits_shared",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Point-in-time gauges tracked by a [`Registry`].
///
/// Gauges are adjusted up and down by their owners. In snapshot merges
/// they *sum*, which is meaningful when each contributor owns a disjoint
/// share of the quantity (per-server live connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeId {
    /// TCP connections currently served by node servers.
    NodeLiveConnections,
}

impl GaugeId {
    /// Every gauge, in canonical (serialization) order.
    pub const ALL: [GaugeId; 1] = [GaugeId::NodeLiveConnections];

    /// The gauge's stable snake-case name.
    pub const fn name(self) -> &'static str {
        match self {
            GaugeId::NodeLiveConnections => "node_live_connections",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Log-bucketed histograms tracked by a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistId {
    /// Nanoseconds a replay worker waited on its input channel per recv.
    ReplayChannelWaitNanos,
    /// Nanoseconds the coordinator spent inside one day-boundary barrier.
    ReplayDayBarrierNanos,
    /// Node server read-request service time in nanoseconds.
    NodeReadNanos,
    /// Node server write-request service time in nanoseconds.
    NodeWriteNanos,
    /// Durable-store crash-recovery wall time in nanoseconds.
    DurableRecoveryNanos,
    /// Journal records made durable by one group commit.
    DurableGroupRecords,
    /// Nanoseconds a node window's replies waited, from the window's
    /// close until a durable commit covered them.
    DurableCommitWaitNanos,
}

impl HistId {
    /// Every histogram, in canonical (serialization) order.
    pub const ALL: [HistId; 7] = [
        HistId::ReplayChannelWaitNanos,
        HistId::ReplayDayBarrierNanos,
        HistId::NodeReadNanos,
        HistId::NodeWriteNanos,
        HistId::DurableRecoveryNanos,
        HistId::DurableGroupRecords,
        HistId::DurableCommitWaitNanos,
    ];

    /// The histogram's stable snake-case name.
    pub const fn name(self) -> &'static str {
        match self {
            HistId::ReplayChannelWaitNanos => "replay_channel_wait_ns",
            HistId::ReplayDayBarrierNanos => "replay_day_barrier_ns",
            HistId::NodeReadNanos => "node_read_ns",
            HistId::NodeWriteNanos => "node_write_ns",
            HistId::DurableRecoveryNanos => "durable_recovery_ns",
            HistId::DurableGroupRecords => "durable_group_records",
            HistId::DurableCommitWaitNanos => "durable_commit_wait_ns",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Buckets per histogram: bucket `0` holds zero values, bucket `i > 0`
/// holds values with `i` significant bits (`2^(i-1) ..= 2^i - 1`).
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value lands in (log2 bucketing, like `DayMetrics`' day
/// slots this is a pure function of the value, so merged histograms are
/// scheduling-independent).
///
/// # Examples
///
/// ```
/// use sievestore_types::obs::bucket_of;
/// assert_eq!(bucket_of(0), 0);
/// assert_eq!(bucket_of(1), 1);
/// assert_eq!(bucket_of(2), 2);
/// assert_eq!(bucket_of(3), 2);
/// assert_eq!(bucket_of(1024), 11);
/// ```
pub const fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The smallest value falling into `bucket` (inverse of [`bucket_of`]).
pub const fn bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// A lock-free, mergeable, log-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-integer copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A plain-integer copy of a [`Histogram`]; merges are element-wise sums
/// (commutative and associative).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`] for the bucketing).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub const fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Folds another snapshot in (element-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                map.entry(&bucket_floor(i), &n);
            }
        }
        map.finish()
    }
}

// ---------------------------------------------------------------------------
// Registry and snapshot
// ---------------------------------------------------------------------------

/// A lock-free metrics registry: one atomic slot per [`CounterId`] /
/// [`GaugeId`] / [`HistId`]. Constructible in `const` contexts, so it can
/// live in a `static` or as a cheap private instance.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicI64; GaugeId::ALL.len()],
    hists: [Histogram; HistId::ALL.len()],
}

impl Registry {
    /// An all-zero registry.
    pub const fn new() -> Self {
        Registry {
            counters: [const { AtomicU64::new(0) }; CounterId::ALL.len()],
            gauges: [const { AtomicI64::new(0) }; GaugeId::ALL.len()],
            hists: [const { Histogram::new() }; HistId::ALL.len()],
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()].load(Ordering::Relaxed)
    }

    /// Adjusts a gauge by `delta`.
    #[inline]
    pub fn adjust_gauge(&self, id: GaugeId, delta: i64) {
        self.gauges[id.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()].load(Ordering::Relaxed)
    }

    /// Records one histogram sample.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        self.hists[id.index()].record(value);
    }

    /// The live histogram for `id`.
    pub fn histogram(&self, id: HistId) -> &Histogram {
        &self.hists[id.index()]
    }

    /// A plain-integer copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::empty();
        for id in CounterId::ALL {
            snap.counters[id.index()] = self.counter(id);
        }
        for id in GaugeId::ALL {
            snap.gauges[id.index()] = self.gauge(id);
        }
        for id in HistId::ALL {
            snap.hists[id.index()] = self.hists[id.index()].snapshot();
        }
        snap
    }

    /// Zeroes every counter, gauge and histogram.
    pub fn reset(&self) {
        for counter in &self.counters {
            counter.store(0, Ordering::Relaxed);
        }
        for gauge in &self.gauges {
            gauge.store(0, Ordering::Relaxed);
        }
        for hist in &self.hists {
            hist.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// A plain-integer copy of a [`Registry`].
///
/// Merging sums every slot, so merges are commutative and associative:
/// per-shard snapshots combine into the same totals in any order, exactly
/// like the simulator's `DayMetrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::ALL.len()],
    gauges: [i64; GaugeId::ALL.len()],
    hists: [HistogramSnapshot; HistId::ALL.len()],
}

impl MetricsSnapshot {
    /// An all-zero snapshot.
    pub const fn empty() -> Self {
        MetricsSnapshot {
            counters: [0; CounterId::ALL.len()],
            gauges: [0; GaugeId::ALL.len()],
            hists: [HistogramSnapshot::empty(); HistId::ALL.len()],
        }
    }

    /// A counter's value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Sets a counter's value (snapshot assembly).
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        self.counters[id.index()] = value;
    }

    /// A gauge's value.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()]
    }

    /// Sets a gauge's value (snapshot assembly).
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.index()] = value;
    }

    /// A histogram's bucket counts.
    pub fn histogram(&self, id: HistId) -> &HistogramSnapshot {
        &self.hists[id.index()]
    }

    /// Mutable access to a histogram's bucket counts (snapshot assembly).
    pub fn histogram_mut(&mut self, id: HistId) -> &mut HistogramSnapshot {
        &mut self.hists[id.index()]
    }

    /// Whether every slot is zero.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(|h| h.count() == 0)
    }

    /// Folds another snapshot in: counters, gauges and histogram buckets
    /// all sum element-wise. Commutative and associative.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += *theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(&other.gauges) {
            *mine += *theirs;
        }
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// One deterministic JSON line: integers only, fixed key order
    /// (the canonical `ALL` orders), zero-valued entries skipped. Two
    /// snapshots with equal contents serialize to identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{v}", id.name()));
            }
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for id in GaugeId::ALL {
            let v = self.gauge(id);
            if v != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{v}", id.name()));
            }
        }
        out.push_str("},\"hists\":{");
        let mut first = true;
        for id in HistId::ALL {
            let h = self.histogram(id);
            if h.count() == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{{", id.name()));
            let mut first_bucket = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n != 0 {
                    if !first_bucket {
                        out.push(',');
                    }
                    first_bucket = false;
                    out.push_str(&format!("\"{}\":{n}", bucket_floor(i)));
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot::empty()
    }
}

// ---------------------------------------------------------------------------
// Global registry + runtime switch
// ---------------------------------------------------------------------------

static GLOBAL: Registry = Registry::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry instrumented hot paths write to.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Turns runtime metric recording on or off (off by default). With
/// recording off, every instrumented call site costs one relaxed atomic
/// load and a predictable branch.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether runtime metric recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to a global counter if recording is enabled.
#[inline]
pub fn count(id: CounterId, n: u64) {
    if enabled() {
        GLOBAL.add(id, n);
    }
}

/// Records a global histogram sample if recording is enabled.
#[inline]
pub fn observe(id: HistId, value: u64) {
    if enabled() {
        GLOBAL.record(id, value);
    }
}

/// Adjusts a global gauge if recording is enabled.
#[inline]
pub fn gauge_adjust(id: GaugeId, delta: i64) {
    if enabled() {
        GLOBAL.adjust_gauge(id, delta);
    }
}

// ---------------------------------------------------------------------------
// Structured events
// ---------------------------------------------------------------------------

/// One field value on a structured [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A short string field (state names, error classes).
    Str(&'static str),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A structured trace event: a static name plus a handful of typed
/// fields. Events are cheap to build (fields live in a small `Vec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dotted event name, e.g. `"node.breaker.transition"`.
    pub name: &'static str,
    /// Key/value fields in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// An event with no fields yet.
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder-style).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: FieldValue) -> Self {
        self.fields.push((key, value));
        self
    }

    /// The first field with `key`, if any.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A destination for structured [`Event`]s.
///
/// Sinks must be cheap and non-panicking: they run inline on the
/// emitting thread (the node's request handlers and engine).
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: &Event);
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn record(&self, _event: &Event) {}
}

/// Buffers every event in memory — the assertion surface for tests.
#[derive(Debug, Default)]
pub struct CapturingSink {
    events: Mutex<Vec<Event>>,
}

impl CapturingSink {
    /// An empty capturing sink.
    pub fn new() -> Self {
        CapturingSink::default()
    }

    /// A copy of every event captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("capturing sink poisoned").clone()
    }

    /// Drains and returns the captured events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("capturing sink poisoned"))
    }

    /// Captured events with the given name.
    pub fn named(&self, name: &str) -> Vec<Event> {
        self.events()
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }
}

impl EventSink for CapturingSink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("capturing sink poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let floor = bucket_floor(b);
            assert_eq!(bucket_of(floor), b, "floor of bucket {b} round-trips");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[10], 2); // 1000 has 10 significant bits
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn registry_counters_gauges_hists() {
        let reg = Registry::new();
        reg.add(CounterId::NodeReads, 2);
        reg.add(CounterId::NodeReads, 3);
        reg.adjust_gauge(GaugeId::NodeLiveConnections, 7);
        reg.adjust_gauge(GaugeId::NodeLiveConnections, -2);
        reg.record(HistId::NodeReadNanos, 100);
        assert_eq!(reg.counter(CounterId::NodeReads), 5);
        assert_eq!(reg.gauge(GaugeId::NodeLiveConnections), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::NodeReads), 5);
        assert_eq!(snap.gauge(GaugeId::NodeLiveConnections), 5);
        assert_eq!(snap.histogram(HistId::NodeReadNanos).count(), 1);
        assert!(!snap.is_empty());
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let reg = Registry::new();
        reg.add(CounterId::DurableSyncs, 4);
        reg.adjust_gauge(GaugeId::NodeLiveConnections, 3);
        reg.record(HistId::NodeWriteNanos, 9);
        let mut a = reg.snapshot();
        let b = reg.snapshot();
        a.merge(&b);
        assert_eq!(a.counter(CounterId::DurableSyncs), 8);
        assert_eq!(a.gauge(GaugeId::NodeLiveConnections), 6);
        assert_eq!(a.histogram(HistId::NodeWriteNanos).count(), 2);
    }

    #[test]
    fn json_line_is_deterministic_and_skips_zeros() {
        let mut snap = MetricsSnapshot::empty();
        assert_eq!(
            snap.to_json_line(),
            "{\"counters\":{},\"gauges\":{},\"hists\":{}}"
        );
        snap.set_counter(CounterId::NodeShardLockContended, 3);
        snap.set_counter(CounterId::NodeReads, 12);
        snap.set_gauge(GaugeId::NodeLiveConnections, -1);
        snap.histogram_mut(HistId::NodeReadNanos).buckets[3] = 2;
        let line = snap.to_json_line();
        assert_eq!(
            line,
            "{\"counters\":{\"node_reads\":12,\"node_shard_lock_contended\":3},\
             \"gauges\":{\"node_live_connections\":-1},\
             \"hists\":{\"node_read_ns\":{\"4\":2}}}"
        );
        // Equal snapshots serialize to identical bytes.
        assert_eq!(line, snap.clone().to_json_line());
    }

    #[test]
    fn global_recording_respects_the_runtime_flag() {
        // The global registry is shared across tests in this binary, so
        // assert on deltas of a counter this test owns exclusively.
        let before = global().counter(CounterId::ReplayDayBoundaries);
        let was = enabled();
        set_enabled(false);
        count(CounterId::ReplayDayBoundaries, 1);
        assert_eq!(global().counter(CounterId::ReplayDayBoundaries), before);
        set_enabled(true);
        count(CounterId::ReplayDayBoundaries, 2);
        assert_eq!(global().counter(CounterId::ReplayDayBoundaries), before + 2);
        set_enabled(was);
    }

    #[test]
    fn events_serialize_and_capture() {
        let event = Event::new("node.breaker.transition")
            .with("from", FieldValue::Str("healthy"))
            .with("to", FieldValue::Str("degraded"))
            .with("failures", FieldValue::U64(3));
        assert_eq!(event.field("to"), Some(&FieldValue::Str("degraded")));
        let sink = CapturingSink::new();
        sink.record(&event);
        sink.record(&Event::new("other"));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.named("node.breaker.transition").len(), 1);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }
}
