//! The per-shard request engine: one [`DataCache`] plus its circuit
//! breaker, deadline accounting and degraded counters.
//!
//! [`crate::server::NodeServer`] holds one `CacheEngine` per shard, each
//! behind its own mutex; a connection thread locks the shard that owns
//! the request's key and drives the request through this type. Every
//! read/write decision (breaker transitions, deadline overruns, degraded
//! pass-through, error classification) lives here, so a node answers the
//! same way whatever its shard count.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use sievestore_types::obs::{self, CounterId, Event, EventSink, FieldValue, HistId};
use sievestore_types::Micros;

use crate::backing::{BackingStore, Block};
use crate::durable::DurableStore;
use crate::protocol::{encode_read_into, ErrorCode, NodeMode, Reply};
use crate::server::NodeConfig;
use crate::store::DataCache;

/// Circuit-breaker state machine.
///
/// `Closed` (healthy) counts consecutive failures; at the threshold it
/// trips to `Open` (degraded pass-through) for a fixed number of
/// requests, then `HalfOpen` lets exactly one request probe the cache
/// path: success closes the breaker, failure re-opens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Breaker {
    Closed { failures: u32 },
    Open { remaining: u32 },
    HalfOpen,
}

impl Breaker {
    pub(crate) fn closed() -> Self {
        Breaker::Closed { failures: 0 }
    }

    pub(crate) fn open(config: &NodeConfig) -> Self {
        Breaker::Open {
            remaining: config.breaker_cooldown.max(1),
        }
    }

    pub(crate) fn mode(self) -> NodeMode {
        match self {
            Breaker::Closed { .. } => NodeMode::Healthy,
            Breaker::Open { .. } => NodeMode::Degraded,
            Breaker::HalfOpen => NodeMode::Probing,
        }
    }
}

/// Stable lowercase state names for structured breaker events.
pub(crate) fn mode_name(mode: NodeMode) -> &'static str {
    match mode {
        NodeMode::Healthy => "healthy",
        NodeMode::Degraded => "degraded",
        NodeMode::Probing => "probing",
    }
}

/// Classifies a backing-store failure for the wire. Backing hiccups are
/// transient from the client's point of view — the retry may hit a
/// healed device or the degraded path.
pub(crate) fn classify_backing(err: &io::Error) -> ErrorCode {
    match err.kind() {
        io::ErrorKind::InvalidData => ErrorCode::Fatal,
        _ => ErrorCode::Transient,
    }
}

/// A point-in-time copy of one engine's counters and health, merged
/// across shards at snapshot points (Stats replies, server accessors).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineSnapshot {
    pub stats: sievestore::ApplianceStats,
    pub resident_blocks: u64,
    pub degraded_reads: u64,
    pub degraded_writes: u64,
    pub mode: NodeMode,
}

impl EngineSnapshot {
    /// Folds another shard's snapshot in: counters add, and the node is
    /// as unhealthy as its worst shard.
    pub(crate) fn merge(&mut self, other: &EngineSnapshot) {
        self.stats.read_hits += other.stats.read_hits;
        self.stats.write_hits += other.stats.write_hits;
        self.stats.read_misses += other.stats.read_misses;
        self.stats.write_misses += other.stats.write_misses;
        self.stats.allocation_writes += other.stats.allocation_writes;
        self.stats.batch_allocations += other.stats.batch_allocations;
        self.resident_blocks += other.resident_blocks;
        self.degraded_reads += other.degraded_reads;
        self.degraded_writes += other.degraded_writes;
        let rank = |mode| match mode {
            NodeMode::Healthy => 0,
            NodeMode::Probing => 1,
            NodeMode::Degraded => 2,
        };
        if rank(other.mode) > rank(self.mode) {
            self.mode = other.mode;
        }
    }
}

/// The cache plus breaker; breaker transitions are judged atomically
/// with the cache operations because the shard's mutex covers both.
pub(crate) struct CacheEngine<B: BackingStore> {
    cache: DataCache<B>,
    breaker: Breaker,
    config: NodeConfig,
    /// Destination for structured breaker-transition events. Sinks run
    /// inline on request paths, so they must be cheap and non-blocking.
    sink: Arc<dyn EventSink>,
    degraded_reads: u64,
    degraded_writes: u64,
}

impl<B: BackingStore> CacheEngine<B> {
    pub(crate) fn new(
        cache: DataCache<B>,
        config: NodeConfig,
        sink: Arc<dyn EventSink>,
        breaker: Breaker,
    ) -> Self {
        CacheEngine {
            cache,
            breaker,
            config,
            sink,
            degraded_reads: 0,
            degraded_writes: 0,
        }
    }

    pub(crate) fn mode(&self) -> NodeMode {
        self.breaker.mode()
    }

    pub(crate) fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            stats: *self.cache.stats(),
            resident_blocks: self.cache.resident_blocks() as u64,
            degraded_reads: self.degraded_reads,
            degraded_writes: self.degraded_writes,
            mode: self.mode(),
        }
    }

    /// Serves one read, instrumented, appending its reply frame to `out`
    /// (enveloped under `corr`) straight from the block it read — a hit
    /// is one copy, cache frame → `out`. Never panics the connection
    /// over a backing failure: errors come back as the typed `0xFF`
    /// reply the caller must encode instead, with `out` left as it was.
    ///
    /// What the request staged on the durable tier is *not* committed:
    /// the caller lands it before the reply leaves.
    pub(crate) fn handle_read(
        &mut self,
        key: u64,
        now: Micros,
        corr: Option<u32>,
        out: &mut Vec<u8>,
    ) -> Result<(), Reply> {
        let observed = obs::enabled().then(Instant::now);
        let result = self.handle_read_inner(key, now, corr, out);
        obs::count(CounterId::NodeReads, 1);
        if let Some(started) = observed {
            obs::observe(HistId::NodeReadNanos, started.elapsed().as_nanos() as u64);
        }
        result
    }

    fn handle_read_inner(
        &mut self,
        key: u64,
        now: Micros,
        corr: Option<u32>,
        out: &mut Vec<u8>,
    ) -> Result<(), Reply> {
        match self.breaker.mode() {
            NodeMode::Degraded => {
                self.tick_degraded();
                match self.cache.read_bypass(key) {
                    Ok(data) => {
                        self.degraded_reads += 1;
                        obs::count(CounterId::NodeDegraded, 1);
                        encode_read_into(out, corr, false, &data);
                        Ok(())
                    }
                    Err(e) => Err(Reply::Error {
                        code: classify_backing(&e),
                        message: format!("degraded read failed: {e}"),
                    }),
                }
            }
            NodeMode::Healthy | NodeMode::Probing => {
                let started = Instant::now();
                let mark = out.len();
                let served = self.cache.read_staged_with(key, now, |data, outcome| {
                    encode_read_into(out, corr, outcome.hit, data);
                });
                match served {
                    Ok(()) => {
                        if started.elapsed() > self.config.request_deadline {
                            // The reply is already encoded: take it back.
                            out.truncate(mark);
                            self.record_failure();
                            obs::count(CounterId::NodeDeadlineOverruns, 1);
                            return Err(Reply::Error {
                                code: ErrorCode::Deadline,
                                message: format!(
                                    "read of block {key} overran the {:?} deadline",
                                    self.config.request_deadline
                                ),
                            });
                        }
                        self.record_success();
                        Ok(())
                    }
                    Err(e) => {
                        self.record_failure();
                        Err(Reply::Error {
                            code: classify_backing(&e),
                            message: format!("backing read failed: {e}"),
                        })
                    }
                }
            }
        }
    }

    /// Serves one write, instrumented; mirrors [`Self::handle_read`].
    pub(crate) fn handle_write(&mut self, key: u64, data: &Block, now: Micros) -> Reply {
        let observed = obs::enabled().then(Instant::now);
        let reply = self.handle_write_inner(key, data, now);
        obs::count(CounterId::NodeWrites, 1);
        if let Some(started) = observed {
            obs::observe(HistId::NodeWriteNanos, started.elapsed().as_nanos() as u64);
        }
        reply
    }

    fn handle_write_inner(&mut self, key: u64, data: &Block, now: Micros) -> Reply {
        match self.breaker.mode() {
            NodeMode::Degraded => {
                self.tick_degraded();
                match self.cache.write_bypass_staged(key, data) {
                    Ok(()) => {
                        self.degraded_writes += 1;
                        obs::count(CounterId::NodeDegraded, 1);
                        Reply::Write { hit: false }
                    }
                    Err(e) => Reply::Error {
                        code: classify_backing(&e),
                        message: format!("degraded write failed: {e}"),
                    },
                }
            }
            NodeMode::Healthy | NodeMode::Probing => {
                let started = Instant::now();
                match self.cache.write_staged(key, data, now) {
                    Ok(outcome) => {
                        if started.elapsed() > self.config.request_deadline {
                            self.record_failure();
                            obs::count(CounterId::NodeDeadlineOverruns, 1);
                            return Reply::Error {
                                code: ErrorCode::Deadline,
                                message: format!(
                                    "write of block {key} overran the {:?} deadline",
                                    self.config.request_deadline
                                ),
                            };
                        }
                        self.record_success();
                        Reply::Write { hit: outcome.hit }
                    }
                    Err(e) => {
                        self.record_failure();
                        Reply::Error {
                            code: classify_backing(&e),
                            message: format!("backing write failed: {e}"),
                        }
                    }
                }
            }
        }
    }

    /// The cache's durable store, for the seal and finish steps of a
    /// group landed outside this engine's lock.
    pub(crate) fn durable_mut(&mut self) -> Option<&mut DurableStore> {
        self.cache.durable_mut()
    }

    /// Whether the durable tier has no free slot for the next request to
    /// stage into: the caller first lands the open group, outside this lock.
    pub(crate) fn out_of_slots(&self) -> bool {
        self.cache.durable().is_some_and(DurableStore::out_of_slots)
    }

    /// Serves a Flush request against this engine's slice (staged).
    pub(crate) fn handle_flush(&mut self) -> Reply {
        match self.cache.flush_staged() {
            Ok(flushed) => Reply::Flush { flushed },
            Err(e) => Reply::Error {
                code: classify_backing(&e),
                message: format!("flush failed: {e}"),
            },
        }
    }

    /// Records a cache-path success; a successful probe (or a healthy
    /// request) closes the breaker.
    pub(crate) fn record_success(&mut self) {
        let from = self.breaker;
        self.breaker = Breaker::Closed { failures: 0 };
        self.on_transition(from);
    }

    /// Records a cache-path failure; at the threshold the breaker opens
    /// and dirty frames are flushed best-effort while the backing store
    /// may still be reachable.
    pub(crate) fn record_failure(&mut self) {
        let from = self.breaker;
        let failures = match self.breaker {
            Breaker::Closed { failures } => failures + 1,
            // A failed probe re-opens immediately.
            Breaker::HalfOpen => self.config.breaker_threshold,
            Breaker::Open { remaining } => {
                self.breaker = Breaker::Open { remaining };
                return;
            }
        };
        if failures >= self.config.breaker_threshold.max(1) {
            self.breaker = Breaker::Open {
                remaining: self.config.breaker_cooldown.max(1),
            };
            // Entering degraded mode: try to get dirty data to safety
            // while (or in case) the backing store still responds.
            self.flush_round("breaker_open");
        } else {
            self.breaker = Breaker::Closed { failures };
        }
        self.on_transition(from);
    }

    /// Consumes one degraded-mode request; at zero the breaker
    /// half-opens so the next request probes the cache path.
    pub(crate) fn tick_degraded(&mut self) {
        if let Breaker::Open { remaining } = self.breaker {
            let from = self.breaker;
            let remaining = remaining.saturating_sub(1);
            self.breaker = if remaining == 0 {
                Breaker::HalfOpen
            } else {
                Breaker::Open { remaining }
            };
            self.on_transition(from);
        }
    }

    /// Runs one best-effort flush round, surfacing what a silent swallow
    /// would hide: frames still dirty after the round are counted
    /// (`node_flush_failures`) and reported as one structured
    /// `node.flush.failed` event per round. Returns how many frames
    /// remain dirty.
    pub(crate) fn flush_round(&mut self, context: &'static str) -> u64 {
        let (flushed, still_dirty) = self.cache.flush_best_effort_staged();
        if still_dirty > 0 {
            obs::count(CounterId::NodeFlushFailures, still_dirty);
            self.sink.record(
                &Event::new("node.flush.failed")
                    .with("context", FieldValue::Str(context))
                    .with("flushed", FieldValue::U64(flushed))
                    .with("still_dirty", FieldValue::U64(still_dirty)),
            );
        }
        still_dirty
    }

    /// Shutdown sequence for this engine: bounded flush retries, then a
    /// clean durable shutdown mark (staged: the caller lands it).
    /// Best-effort — a dead backing must not hang or panic the caller.
    pub(crate) fn shutdown_flush(&mut self, retries: u32) {
        for _ in 0..=retries {
            if self.flush_round("shutdown") == 0 {
                break;
            }
        }
        // Mark the durable journal cleanly shut down so the next open
        // recovers warm. Should the mark never land, the next recovery
        // is merely colder (clean frames dropped), never incorrect.
        if let Some(store) = self.cache.durable_mut() {
            store.stage_shutdown();
        }
    }

    /// One bounded scrub pass, staged; quarantined frames are reported.
    pub(crate) fn scrub_pass(&mut self, batch: u32) {
        let pass = self.cache.scrub_staged(batch);
        if !pass.quarantined.is_empty() {
            self.sink.record(
                &Event::new("node.scrub.quarantined")
                    .with("frames", FieldValue::U64(pass.quarantined.len() as u64)),
            );
        }
    }

    /// Emits exactly one structured event per *mode* change (internal
    /// state updates that keep the mode, like a failure streak growing
    /// under threshold or the cooldown counting down, stay silent).
    fn on_transition(&self, from: Breaker) {
        let to = self.breaker;
        if from.mode() == to.mode() {
            return;
        }
        if to.mode() == NodeMode::Degraded {
            obs::count(CounterId::NodeBreakerTrips, 1);
        }
        if to.mode() == NodeMode::Healthy {
            obs::count(CounterId::NodeBreakerRecoveries, 1);
        }
        self.sink.record(
            &Event::new("node.breaker.transition")
                .with("from", FieldValue::Str(mode_name(from.mode())))
                .with("to", FieldValue::Str(mode_name(to.mode()))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use sievestore_types::obs::NoopSink;

    fn engine_with(config: NodeConfig, sink: Arc<dyn EventSink>) -> CacheEngine<MemBacking> {
        CacheEngine::new(
            DataCache::new(MemBacking::new(), sievestore::PolicySpec::Aod, 8).expect("valid cache"),
            config,
            sink,
            Breaker::closed(),
        )
    }

    #[test]
    fn breaker_opens_at_threshold_and_recovers_through_probe() {
        let config = NodeConfig {
            breaker_threshold: 3,
            breaker_cooldown: 2,
            ..NodeConfig::default()
        };
        let mut g = engine_with(config, Arc::new(NoopSink));
        assert_eq!(g.mode(), NodeMode::Healthy);
        // Two failures stay closed; the third opens.
        g.record_failure();
        g.record_failure();
        assert_eq!(g.mode(), NodeMode::Healthy);
        g.record_failure();
        assert_eq!(g.mode(), NodeMode::Degraded);
        // Cooldown drains per degraded request, then half-open.
        g.tick_degraded();
        assert_eq!(g.mode(), NodeMode::Degraded);
        g.tick_degraded();
        assert_eq!(g.mode(), NodeMode::Probing);
        // A successful probe closes the breaker.
        g.record_success();
        assert_eq!(g.mode(), NodeMode::Healthy);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let config = NodeConfig {
            breaker_threshold: 1,
            breaker_cooldown: 1,
            ..NodeConfig::default()
        };
        let mut g = engine_with(config, Arc::new(NoopSink));
        g.record_failure();
        assert_eq!(g.mode(), NodeMode::Degraded);
        g.tick_degraded();
        assert_eq!(g.mode(), NodeMode::Probing);
        g.record_failure();
        assert_eq!(g.mode(), NodeMode::Degraded);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let config = NodeConfig {
            breaker_threshold: 2,
            ..NodeConfig::default()
        };
        let mut g = engine_with(config, Arc::new(NoopSink));
        g.record_failure();
        g.record_success();
        g.record_failure();
        // Never two *consecutive* failures, so still healthy.
        assert_eq!(g.mode(), NodeMode::Healthy);
    }

    #[test]
    fn breaker_emits_exactly_one_event_per_mode_transition() {
        use sievestore_types::obs::CapturingSink;
        let sink = Arc::new(CapturingSink::new());
        let config = NodeConfig {
            breaker_threshold: 2,
            breaker_cooldown: 1,
            ..NodeConfig::default()
        };
        let mut g = engine_with(config, sink.clone());
        // Sub-threshold failure and already-closed success: no events.
        g.record_failure();
        g.record_success();
        g.record_success();
        assert!(sink.events().is_empty(), "mode never changed");
        // Trip: healthy -> degraded (two consecutive failures).
        g.record_failure();
        g.record_failure();
        // Cooldown: degraded -> probing, then probe success -> healthy.
        g.tick_degraded();
        g.record_success();
        let events = sink.take();
        let transitions: Vec<(String, String)> = events
            .iter()
            .map(|e| {
                (
                    e.field("from").expect("from").to_string(),
                    e.field("to").expect("to").to_string(),
                )
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                ("healthy".into(), "degraded".into()),
                ("degraded".into(), "probing".into()),
                ("probing".into(), "healthy".into()),
            ]
        );
        assert!(events.iter().all(|e| e.name == "node.breaker.transition"));
    }

    #[test]
    fn backing_errors_classify_as_transient_for_clients() {
        let hiccup = io::Error::other("injected fault");
        assert_eq!(classify_backing(&hiccup), ErrorCode::Transient);
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, "bad block");
        assert_eq!(classify_backing(&corrupt), ErrorCode::Fatal);
    }
}
