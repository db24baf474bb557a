//! The appliance's TCP front end.
//!
//! One [`NodeServer`] serves the wire protocol over TCP, one blocking
//! thread per connection — the physical organization of the paper's
//! Figure 4(c), with TCP standing in for iSCSI: a dozen initiators with
//! deep queues, not ten thousand sockets. The cache is striped over
//! `n` shards, each a `CacheEngine` (cache slice, breaker, degraded
//! counters) behind its own mutex; block `key` belongs to shard
//! [`shard_of`]`(key, n)`. [`NodeServerBuilder::serve`] and
//! [`NodeServerBuilder::serve_durable`] are the one-shard configuration,
//! [`NodeServerBuilder::serve_sharded`] the `n`-shard one
//! ([`ShardedNodeServer`]); all three run the same connection loop.
//!
//! # The lock rule
//!
//! A connection thread holds **at most one shard lock at a time**: a
//! `Read` or `Write` takes only its key's shard; `Stats` and `Flush`
//! visit the shards one after another in index order, as do the window
//! commit, the scrubber and shutdown. Nothing waits for a second shard
//! lock while holding a first, and a `Stats` reply is exact — every
//! counter is read under its lock. A durable shard's two media locks
//! ([`crate::durable`], "Group commit") come *before* its shard lock:
//! **no shard lock is held across a media write or sync, or waits for
//! one** — a commit takes it only to seal a group and release its slots.
//!
//! What stays global: the listener, the logical request clock (one
//! `fetch_add` per read/write, so sieving windows advance identically
//! whatever the shard count), the stop flag and the panic ledger.
//!
//! # Nothing polls
//!
//! A connection thread blocks in `read`; one wake-up hands it every
//! request the client had pipelined, it serves them all out of its read
//! buffer, writes their replies with one `write_all` and blocks again.
//! An idle node uses no CPU.
//!
//! # Fault handling
//!
//! The server never tears down a connection because the *backing store*
//! failed: backing errors become `0xFF` error replies carrying an
//! [`ErrorCode`], and a circuit breaker per shard tracks consecutive
//! failures. After [`NodeConfig::breaker_threshold`] consecutive
//! cache-path failures a shard flips into **degraded pass-through
//! mode**: its requests are served directly against the ensemble (dirty
//! frames stay authoritative), no frames are allocated, and dirty data
//! is flushed best-effort. After [`NodeConfig::breaker_cooldown`]
//! degraded requests the breaker half-opens and the next request probes
//! the cache path; success closes the breaker, failure re-opens it.
//! Requests that overrun [`NodeConfig::request_deadline`] are answered
//! with a `Deadline` error instead of stalling the reply stream.
//!
//! A panic on a connection thread — also one raised under a shard lock,
//! e.g. by the backing store — is recorded ([`NodeServer::worker_panics`])
//! and kills only that connection: the shard mutexes do not poison, and
//! the node keeps serving every shard.
//!
//! # Pipelining and group commit
//!
//! Connections accept both plain frames and correlation-id envelopes
//! (`0x10` requests answered with `0x90` replies); replies leave in
//! arrival order either way. A connection serves every request the
//! client has already pipelined — its *window* — and holds their
//! encoded replies; when its read buffer is drained (or 128 replies /
//! 64 KiB are held) it makes sure a commit covers everything staged on
//! each durable shard so far, and only then sends the replies, in one
//! `write_all`. If the shard's durable high-water mark already covers
//! it — another connection's commit did the work — that is two atomic
//! loads. Otherwise the thread lands the shard's open group itself,
//! outside the shard lock (frames written and synced, then one journal
//! append + sync, overlapping the previous group's) while other
//! connections are served: no reply — not a write's ack, not a read
//! that saw another connection's still-uncommitted write — leaves
//! before a commit that covers what it staged or saw. If the land
//! fails, or the wait alone overruns the request deadline, every reply
//! of the window that is not already an error becomes an error reply
//! and the breaker counts one failure; what did not land is retried,
//! first, by the next commit. A request that finds the durable tier out
//! of free slots lands the open group before it takes the shard lock,
//! and checks again once it has it: another connection may have staged
//! into the freed slots in between. It lands again for as long as
//! groups land, its own or another connection's, and fails only when a
//! land fails or no group landed at all.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sievestore_types::obs::{
    self, CounterId, Event, EventSink, FieldValue, GaugeId, HistId, NoopSink,
};
use sievestore_types::{shard_of, Micros};

use crate::backing::BackingStore;
use crate::durable::{CommitPipe, DurableStore};
use crate::engine::{classify_backing, Breaker, CacheEngine, EngineSnapshot};
use crate::protocol::{
    encode_reply_into, ErrorCode, Incoming, NodeMode, ReadBuffer, Reply, Request,
};
use crate::store::{DataCache, WritePolicy};

/// Resilience tuning for a [`NodeServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Budget per read/write request; overruns are answered with a
    /// `Deadline` error reply (and count as cache-path failures).
    pub request_deadline: Duration,
    /// Close connections idle longer than this between frames; `None`
    /// keeps idle connections forever. Clients reconnect transparently.
    pub idle_timeout: Option<Duration>,
    /// Consecutive cache-path failures before the breaker opens.
    pub breaker_threshold: u32,
    /// Degraded requests served before the breaker half-opens and
    /// probes the cache path again.
    pub breaker_cooldown: u32,
    /// Extra best-effort flush rounds for dirty frames on shutdown.
    pub shutdown_flush_retries: u32,
    /// Interval between background scrub passes over the durable
    /// segment; `None` disables the scrubber. Only meaningful for nodes
    /// with a durable store attached (see
    /// [`NodeServerBuilder::serve_durable`]).
    pub scrub_interval: Option<Duration>,
    /// Slots verified per scrub pass.
    pub scrub_batch: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            request_deadline: Duration::from_millis(250),
            idle_timeout: None,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            shutdown_flush_retries: 3,
            scrub_interval: None,
            scrub_batch: 256,
        }
    }
}

/// Connection-thread panic bookkeeping: shutdown must never hang (or
/// silently succeed) because a thread died mid-work.
struct PanicLedger {
    count: AtomicU64,
    first: Mutex<Option<String>>,
}

impl PanicLedger {
    fn new() -> Self {
        PanicLedger {
            count: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    /// Records one panic, keeping the first payload message so
    /// post-mortems (and `Debug` prints) can say *what* died, not just
    /// how many times.
    fn record(&self, payload: &(dyn std::any::Any + Send)) {
        self.count.fetch_add(1, Ordering::SeqCst);
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut first = self.first.lock();
        if first.is_none() {
            *first = Some(message);
        }
    }

    /// The first recorded panic message, if any.
    fn first_message(&self) -> Option<String> {
        self.first.lock().clone()
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Emits one `node.worker.panic` event if any panic was recorded.
    fn report(&self, sink: &dyn EventSink) {
        let count = self.count();
        if count == 0 {
            return;
        }
        sink.record(&Event::new("node.worker.panic").with("count", FieldValue::U64(count)));
    }
}

/// Shared server state.
struct Shared<B: BackingStore> {
    /// The cache, striped: block `key` belongs to
    /// `shards[shard_of(key, shards.len())]`. See the module docs for
    /// the lock rule.
    shards: Vec<Mutex<CacheEngine<B>>>,
    /// Each durable shard's media locks, taken before — never under —
    /// the shard's lock.
    pipes: Vec<Option<Arc<CommitPipe>>>,
    /// Whether any shard has a durable tier, i.e. whether a window's
    /// replies wait for a commit.
    durable: bool,
    config: NodeConfig,
    sink: Arc<dyn EventSink>,
    /// Microseconds of "trace time" per real microsecond can't be known
    /// here, so the server simply timestamps requests with an atomic
    /// logical clock advanced per request.
    clock_us: AtomicU64,
    live_conns: AtomicU64,
    panics: PanicLedger,
    stop: AtomicBool,
}

impl<B: BackingStore> Shared<B> {
    /// Locks shard `index`, counting the times a request had to wait
    /// for it (`node_shard_lock_contended`): the live signal for "is a
    /// shard lagging / would more stripes help".
    fn lock(&self, index: usize) -> impl std::ops::DerefMut<Target = CacheEngine<B>> + '_ {
        let shard = &self.shards[index];
        shard.try_lock().unwrap_or_else(|| {
            obs::count(CounterId::NodeShardLockContended, 1);
            shard.lock()
        })
    }

    /// Locks shard `index` to serve a read or write. On a durable node
    /// the request needs a free slot to stage into, and nothing that
    /// frees slots may run under the shard lock: the groups in flight
    /// return theirs as they finish; failing that, landing the open
    /// group does. Other connections may stage into the freed slots
    /// before this one re-locks, so every re-lock checks again, and the
    /// settle-and-land repeats while groups land — this call's own or
    /// another connection's. The request fails for want of a slot only
    /// when a land fails, or when no group landed at all.
    fn lock_for_request(
        &self,
        index: usize,
    ) -> impl std::ops::DerefMut<Target = CacheEngine<B>> + '_ {
        loop {
            let engine = self.lock(index);
            let pipe = match &self.pipes[index] {
                Some(pipe) if engine.out_of_slots() => pipe,
                _ => return engine,
            };
            drop(engine);
            let landed_before = pipe.durable_seq();
            pipe.settle();
            let engine = self.lock(index);
            if !engine.out_of_slots() {
                return engine;
            }
            drop(engine);
            match self.land(index) {
                Ok(true) => {}
                Ok(false) if pipe.durable_seq() > landed_before => {}
                _ => return self.lock(index),
            }
        }
    }

    /// Makes everything staged on shard `index` durable, under the shard
    /// lock only to seal the group and to release its slots.
    fn land(&self, index: usize) -> io::Result<bool> {
        let Some(pipe) = &self.pipes[index] else {
            return Ok(false);
        };
        pipe.land(&mut |on_store| {
            if let Some(store) = self.lock(index).durable_mut() {
                on_store(store);
            }
        })
    }

    /// [`Self::land`] on a window's clock: a failed land, or one that
    /// alone (waiting for another connection's included) overruns the
    /// request deadline, counts one cache-path failure and returns the
    /// reply that replaces every non-error reply of the window.
    fn commit(&self, index: usize) -> Result<(), Reply> {
        let started = Instant::now();
        let landed = self.land(index);
        if obs::enabled() {
            let waited = started.elapsed().as_nanos() as u64;
            obs::observe(HistId::DurableCommitWaitNanos, waited);
        }
        let failure = match landed {
            Err(e) => Reply::Error {
                code: classify_backing(&e),
                message: format!("durable commit failed: {e}"),
            },
            Ok(_) if started.elapsed() > self.config.request_deadline => {
                obs::count(CounterId::NodeDeadlineOverruns, 1);
                Reply::Error {
                    code: ErrorCode::Deadline,
                    message: format!(
                        "durable commit overran the {:?} deadline",
                        self.config.request_deadline
                    ),
                }
            }
            Ok(led) => {
                obs::count(CounterId::DurableCommitsShared, u64::from(!led));
                return Ok(());
            }
        };
        self.lock(index).record_failure();
        Err(failure)
    }

    /// Every shard's counters and health, merged; shards are visited
    /// one at a time in index order.
    fn snapshot(&self) -> EngineSnapshot {
        let mut merged = EngineSnapshot::default();
        for index in 0..self.shards.len() {
            merged.merge(&self.lock(index).snapshot());
        }
        merged
    }
}

/// Builds a [`NodeServer`] from one fluent configuration.
///
/// # Examples
///
/// ```
/// use sievestore::PolicySpec;
/// use sievestore_node::{DataCache, MemBacking, NodeClient, NodeServerBuilder};
///
/// # fn main() -> std::io::Result<()> {
/// let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 64)
///     .expect("valid appliance");
/// let server = NodeServerBuilder::new("127.0.0.1:0").serve(cache)?;
///
/// let mut client = NodeClient::connect(server.addr())?;
/// client.write_block(3, &[1u8; 512])?;
/// let (data, hit) = client.read_block(3)?;
/// assert_eq!(data[0], 1);
/// assert!(hit);
///
/// client.quit()?;
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct NodeServerBuilder {
    addr: String,
    config: NodeConfig,
    sink: Arc<dyn EventSink>,
    workers: usize,
}

impl NodeServerBuilder {
    /// Starts a builder binding `addr` (use port 0 for an ephemeral
    /// port) with the default [`NodeConfig`] and no event sink.
    pub fn new(addr: impl Into<String>) -> Self {
        NodeServerBuilder {
            addr: addr.into(),
            config: NodeConfig::default(),
            sink: Arc::new(NoopSink),
            workers: 0,
        }
    }

    /// Overrides the resilience configuration.
    #[must_use]
    pub fn config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a structured event sink receiving every circuit-breaker
    /// mode transition (`node.breaker.transition` events with
    /// `from`/`to` fields), flush failures, accept failures and
    /// connection-thread panics.
    ///
    /// The sink runs inline on request threads, so it must be cheap and
    /// non-blocking (see [`sievestore_types::obs::EventSink`]).
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the shard count for [`Self::serve_sharded`]; `0` (the
    /// default) sizes to the machine's available parallelism. Ignored
    /// by the one-shard entry points.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Spawns a one-shard server over an already-built cache.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve<B: BackingStore + 'static>(
        self,
        cache: DataCache<B>,
    ) -> io::Result<NodeServer<B>> {
        let breaker = Breaker::closed();
        NodeServer::start(&self.addr, vec![cache], self.config, self.sink, breaker)
    }

    /// Spawns a one-shard server over a durable frame store: opens (or
    /// formats) the media, runs crash recovery, warms the cache with
    /// the survivors and starts serving. Emits a
    /// `node.recovery.complete` event with the recovery counters.
    ///
    /// If the media is unrecoverable (wrong magic, bad geometry, dead
    /// device), the node does **not** refuse to start: it falls back to
    /// a memory-only cache, emits `node.recovery.failed`, and begins
    /// life with the breaker open — serving degraded pass-through
    /// against the backing store until the normal probe path closes the
    /// breaker. Returns `None` in place of the report in that case.
    ///
    /// When [`NodeConfig::scrub_interval`] is set, a background scrubber
    /// thread sweeps [`NodeConfig::scrub_batch`] slots per interval,
    /// quarantining rotted frames before they are ever served.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and invalid cache configuration.
    pub fn serve_durable<B: BackingStore + 'static>(
        self,
        backing: B,
        policy: sievestore::PolicySpec,
        capacity_blocks: usize,
        write_policy: WritePolicy,
        media: crate::durable::DurableMediaSet,
    ) -> io::Result<(NodeServer<B>, Option<crate::durable::RecoveryReport>)> {
        let NodeServerBuilder {
            addr, config, sink, ..
        } = self;
        let mut cache = DataCache::new(backing, policy, capacity_blocks)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            .with_write_policy(write_policy);
        let started = obs::enabled().then(Instant::now);
        match crate::durable::DurableStore::open(media, capacity_blocks) {
            Ok(recovery) => {
                let report = cache.attach_recovery(recovery);
                if let Some(t) = started {
                    obs::observe(HistId::DurableRecoveryNanos, t.elapsed().as_nanos() as u64);
                }
                sink.record(
                    &Event::new("node.recovery.complete")
                        .with("recovered", FieldValue::U64(report.recovered))
                        .with("quarantined", FieldValue::U64(report.quarantined))
                        .with("lost_dirty", FieldValue::U64(report.lost_dirty))
                        .with("journal_records", FieldValue::U64(report.journal_records))
                        .with("generation", FieldValue::U64(report.generation as u64)),
                );
                let server =
                    NodeServer::start(&addr, vec![cache], config, sink, Breaker::closed())?;
                Ok((server, Some(report)))
            }
            Err(err) => {
                obs::count(CounterId::DurableMediaErrors, 1);
                sink.record(
                    &Event::new("node.recovery.failed")
                        .with("error", FieldValue::Str(err.kind_name())),
                );
                // Unrecoverable media: serve memory-only, starting in
                // degraded pass-through; the probe path restores
                // healthy mode on its own.
                let breaker = Breaker::open(&config);
                let server = NodeServer::start(&addr, vec![cache], config, sink, breaker)?;
                Ok((server, None))
            }
        }
    }

    /// Spawns a server striped over [`Self::workers`] shards: each
    /// shard owns a disjoint cache slice keyed by
    /// [`sievestore_types::shard_of`] (the capacity split evenly, the
    /// remainder spread over the first shards) behind its own lock,
    /// over one shared handle to `backing`. A continuous policy is
    /// sliced with the cache
    /// ([`SieveStoreBuilder::shard`](sievestore::SieveStoreBuilder::shard),
    /// as sharded replay builds it): the shards' sieve tables sum to the
    /// configured one, and a block meets the sieve state it would meet
    /// in one whole cache. A discrete policy, which `shard` refuses, is
    /// built whole on every shard, over that shard's capacity slice.
    /// See the [module docs](self) for the lock rule.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and invalid cache configuration — which
    /// includes a shard count the policy cannot be sliced over (one that
    /// does not divide SieveStore-C's IMCT), as in sharded replay.
    pub fn serve_sharded<B: BackingStore + 'static>(
        self,
        backing: B,
        policy: sievestore::PolicySpec,
        capacity_blocks: usize,
        write_policy: WritePolicy,
    ) -> io::Result<ShardedNodeServer<B>> {
        let shards = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            n => n,
        };
        if capacity_blocks < shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("capacity {capacity_blocks} blocks cannot cover {shards} shards"),
            ));
        }
        let backing = Arc::new(backing);
        let caches = (0..shards)
            .map(|index| {
                let builder = sievestore::SieveStoreBuilder::new().policy(policy.clone());
                let builder = if policy.is_discrete() {
                    // Spread the capacity remainder so the slices sum exactly.
                    let slice =
                        capacity_blocks / shards + usize::from(index < capacity_blocks % shards);
                    builder.capacity_blocks(slice)
                } else {
                    builder
                        .capacity_blocks(capacity_blocks)
                        .shard(index, shards)
                };
                builder
                    .build()
                    .map(|store| {
                        DataCache::over(Arc::clone(&backing), store).with_write_policy(write_policy)
                    })
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
            })
            .collect::<io::Result<Vec<_>>>()?;
        NodeServer::start(
            &self.addr,
            caches,
            self.config,
            self.sink,
            Breaker::closed(),
        )
    }
}

/// A node striped over several shards, as built by
/// [`NodeServerBuilder::serve_sharded`]: the same server, with the one
/// ensemble handle shared by every shard's cache slice.
pub type ShardedNodeServer<B> = NodeServer<Arc<B>>;

/// A running SieveStore node.
///
/// # Examples
///
/// ```
/// use sievestore::PolicySpec;
/// use sievestore_node::{MemBacking, NodeClient, NodeServerBuilder, WritePolicy};
///
/// # fn main() -> std::io::Result<()> {
/// let server = NodeServerBuilder::new("127.0.0.1:0")
///     .workers(2)
///     .serve_sharded(MemBacking::new(), PolicySpec::Aod, 64, WritePolicy::WriteThrough)?;
///
/// let mut client = NodeClient::connect(server.addr())?;
/// client.write_block(3, &[1u8; 512])?;
/// let (data, hit) = client.read_block(3)?;
/// assert_eq!(data[0], 1);
/// assert!(hit);
///
/// client.quit()?;
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct NodeServer<B: BackingStore + 'static> {
    shared: Arc<Shared<B>>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    scrub_thread: Option<JoinHandle<()>>,
    /// Shutdown flush already ran (explicit `shutdown()`), so the
    /// `Drop` fallback must not repeat the rounds.
    flushed: bool,
}

impl<B: BackingStore + 'static> NodeServer<B> {
    fn start(
        addr: &str,
        caches: Vec<DataCache<B>>,
        config: NodeConfig,
        sink: Arc<dyn EventSink>,
        breaker: Breaker,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let pipes: Vec<_> = caches
            .iter()
            .map(|cache| cache.durable().map(DurableStore::pipe))
            .collect();
        let shared = Arc::new(Shared {
            durable: pipes.iter().any(Option::is_some),
            pipes,
            shards: caches
                .into_iter()
                .map(|cache| {
                    Mutex::new(CacheEngine::new(cache, config, Arc::clone(&sink), breaker))
                })
                .collect(),
            config,
            sink,
            clock_us: AtomicU64::new(0),
            live_conns: AtomicU64::new(0),
            panics: PanicLedger::new(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, accept_shared);
        });
        let scrub_thread = config.scrub_interval.map(|interval| {
            let scrub_shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                scrub_loop(scrub_shared, interval);
            })
        });
        Ok(NodeServer {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            scrub_thread,
            flushed: false,
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shards the cache is striped over.
    pub fn workers(&self) -> usize {
        self.shared.shards.len()
    }

    /// Aggregate appliance statistics, summed over the shards.
    pub fn stats(&self) -> sievestore::ApplianceStats {
        self.shared.snapshot().stats
    }

    /// The node's current health mode: the worst of any shard's mode.
    pub fn mode(&self) -> NodeMode {
        self.shared.snapshot().mode
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> u64 {
        self.shared.live_conns.load(Ordering::Relaxed)
    }

    /// Connection-thread panics caught so far. A panic kills only its
    /// connection and never wedges shutdown: it is recorded here and
    /// reported as one `node.worker.panic` event when the server stops.
    pub fn worker_panics(&self) -> u64 {
        self.shared.panics.count()
    }

    /// The first caught panic's message, for diagnostics.
    pub fn first_panic_message(&self) -> Option<String> {
        self.shared.panics.first_message()
    }

    /// Stops accepting connections, joins the accept thread and flushes
    /// dirty frames best-effort (with retries) so a write-back node does
    /// not strand the only copy of dirty data. In-flight connections
    /// finish their current request and then close.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.flush_on_shutdown();
    }

    fn stop_accepting(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.scrub_thread.take() {
            let _ = handle.join();
        }
    }

    /// Best-effort dirty-frame flush with bounded retries, shard by
    /// shard; failures must not panic or hang shutdown on a dead
    /// backing, but neither may they vanish silently — each failed round
    /// is counted (`node_flush_failures`) and emits one
    /// `node.flush.failed` event, and frames that never land remain
    /// journaled on the durable store (when attached) for the next
    /// incarnation to recover.
    fn flush_on_shutdown(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let retries = self.shared.config.shutdown_flush_retries;
        for (index, shard) in self.shared.shards.iter().enumerate() {
            // A panicking backing store mid-flush must not escape: this
            // runs from Drop, where an unwinding panic would abort.
            let result = catch_unwind(AssertUnwindSafe(|| {
                shard.lock().shutdown_flush(retries);
                let _ = self.shared.land(index);
            }));
            if let Err(payload) = result {
                self.shared.panics.record(payload.as_ref());
            }
        }
        self.shared.panics.report(self.shared.sink.as_ref());
    }
}

impl<B: BackingStore + 'static> Drop for NodeServer<B> {
    fn drop(&mut self) {
        // Best effort if shutdown() wasn't called: stop accepting and
        // still try to land dirty frames on the backing store.
        self.stop_accepting();
        self.flush_on_shutdown();
    }
}

/// Background scrubber: sweeps the durable segment in bounded passes so
/// bit rot is quarantined before a request can ever be served from it.
/// Sleeps in short ticks so shutdown is never delayed a full interval.
fn scrub_loop<B: BackingStore + 'static>(shared: Arc<Shared<B>>, interval: Duration) {
    let tick = Duration::from_millis(10).min(interval);
    let mut elapsed = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        let batch = shared.config.scrub_batch;
        let pass = catch_unwind(AssertUnwindSafe(|| {
            for (index, shard) in shared.shards.iter().enumerate() {
                shard.lock().scrub_pass(batch);
                let _ = shared.land(index);
            }
        }));
        if let Err(payload) = pass {
            shared.panics.record(payload.as_ref());
            break;
        }
    }
}

/// How long the acceptor waits after a failed `accept` before trying
/// again: persistent failures (`EMFILE`) must not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Shortest time between two `node.accept.failed` events of one error
/// kind.
const ACCEPT_EVENT_INTERVAL: Duration = Duration::from_secs(1);

/// Rate limiter for `node.accept.failed`: when each error kind was last
/// reported.
#[derive(Default)]
struct AcceptFailures {
    reported: Vec<(io::ErrorKind, Instant)>,
}

impl AcceptFailures {
    /// Reports a failed `accept` — at most one event per error kind per
    /// [`ACCEPT_EVENT_INTERVAL`] — and returns how long to back off.
    fn note(&mut self, err: &io::Error, now: Instant, sink: &dyn EventSink) -> Duration {
        let kind = err.kind();
        let due = match self.reported.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, last)) if now.duration_since(*last) < ACCEPT_EVENT_INTERVAL => false,
            Some((_, last)) => {
                *last = now;
                true
            }
            None => {
                self.reported.push((kind, now));
                true
            }
        };
        if due {
            let errno = err.raw_os_error().map_or(-1, i64::from);
            sink.record(&Event::new("node.accept.failed").with("errno", FieldValue::I64(errno)));
        }
        ACCEPT_BACKOFF
    }
}

fn accept_loop<B: BackingStore + 'static>(listener: TcpListener, shared: Arc<Shared<B>>) {
    let mut failures = AcceptFailures::default();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let conn_shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // A panic anywhere in the connection path is
                    // recorded (it kills only this connection) so
                    // shutdown can surface it instead of hanging or
                    // hiding it.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let _ = serve_connection(stream, &conn_shared);
                    }));
                    if let Err(payload) = result {
                        conn_shared.panics.record(payload.as_ref());
                    }
                });
            }
            Err(err) => {
                std::thread::sleep(failures.note(&err, Instant::now(), shared.sink.as_ref()));
            }
        }
    }
}

/// Whether a socket error is the idle timeout firing.
fn is_idle_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Decrements the live-connection gauge even if the connection path
/// unwinds.
struct ConnGuard<'a>(&'a AtomicU64);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
        obs::gauge_adjust(GaugeId::NodeLiveConnections, -1);
    }
}

/// Most replies a window holds before it is committed and sent even
/// though the client has more requests buffered.
const WINDOW_REPLIES: usize = 128;

/// Most reply bytes a window holds before it is committed and sent.
const WINDOW_BYTES: usize = 64 * 1024;

/// A connection's read buffer: room for many pipelined small frames,
/// and always for one frame of the largest legal size.
const READ_BUFFER: usize = 64 * 1024;

/// One connection's replies not yet sent — those of the requests the
/// client had already pipelined when the window opened — encoded back
/// to back in `out`.
#[derive(Default)]
struct Window {
    out: Vec<u8>,
    /// `(offset in out, correlation id, is an error)` per held reply:
    /// what a failed commit needs to rewrite every non-error reply.
    held: Vec<(usize, Option<u32>, bool)>,
}

impl Window {
    /// Holds `reply`.
    fn push(&mut self, corr: Option<u32>, reply: &Reply) {
        let error = matches!(reply, Reply::Error { .. });
        self.held.push((self.out.len(), corr, error));
        encode_reply_into(&mut self.out, corr, reply);
    }

    /// Holds the read reply `serve` appends to the output buffer, or
    /// the error it returns instead.
    fn push_read(
        &mut self,
        corr: Option<u32>,
        serve: impl FnOnce(&mut Vec<u8>) -> Result<(), Reply>,
    ) {
        let offset = self.out.len();
        match serve(&mut self.out) {
            Ok(()) => self.held.push((offset, corr, false)),
            Err(reply) => self.push(corr, &reply),
        }
    }

    fn is_full(&self) -> bool {
        self.held.len() >= WINDOW_REPLIES || self.out.len() >= WINDOW_BYTES
    }

    /// Commits the durable groups (so every mutation the held replies
    /// acknowledge or observed is durable), then sends the replies. No
    /// reply reaches the socket anywhere else.
    fn release<B: BackingStore>(
        &mut self,
        shared: &Shared<B>,
        stream: &mut TcpStream,
    ) -> io::Result<()> {
        if self.held.is_empty() {
            return Ok(());
        }
        if shared.durable {
            // Every shard commits, in index order, whatever the others
            // did; the window fails as one if any of them failed.
            let mut failure = None;
            for index in 0..shared.shards.len() {
                if let Err(reply) = shared.commit(index) {
                    failure.get_or_insert(reply);
                }
            }
            if let Some(failure) = failure {
                self.fail(&failure);
            }
        }
        let sent = stream.write_all(&self.out);
        self.out.clear();
        self.held.clear();
        sent
    }

    /// Replaces every held reply that is not already an error with
    /// `failure`, keeping order and correlation ids.
    fn fail(&mut self, failure: &Reply) {
        let replies = std::mem::take(&mut self.out);
        let mut ends = self.held.iter().skip(1).map(|&(offset, ..)| offset);
        for &(offset, corr, error) in &self.held {
            let end = ends.next().unwrap_or(replies.len());
            if error {
                self.out.extend_from_slice(&replies[offset..end]);
            } else {
                encode_reply_into(&mut self.out, corr, failure);
            }
        }
    }
}

fn serve_connection<B: BackingStore + 'static>(
    mut stream: TcpStream,
    shared: &Shared<B>,
) -> io::Result<()> {
    shared.live_conns.fetch_add(1, Ordering::Relaxed);
    obs::gauge_adjust(GaugeId::NodeLiveConnections, 1);
    let _guard = ConnGuard(&shared.live_conns);
    stream.set_nodelay(true).ok();
    // One timeout for both directions: a client that stops sending is
    // idle, and one that pipelines but never reads its replies must not
    // pin this thread in `write_all` for good either.
    stream.set_read_timeout(shared.config.idle_timeout).ok();
    stream.set_write_timeout(shared.config.idle_timeout).ok();
    let mut inbound = ReadBuffer::new(READ_BUFFER);
    let mut window = Window::default();
    loop {
        match inbound.fill(&mut stream) {
            Ok(n) if n > 0 => {}
            // EOF, or the idle timeout between frames: close quietly
            // (the client reconnects transparently on its next request).
            // A window is only still held here if the stream ended
            // mid-frame; its replies are owed all the same.
            Ok(_) => return window.release(shared, &mut stream),
            Err(e) if is_idle_timeout(&e) => return window.release(shared, &mut stream),
            Err(e) => return Err(e),
        }
        while let Some(incoming) = inbound.next_frame(Incoming::parse) {
            let (corr, request) = match incoming {
                Ok(Incoming::Plain(request)) => (None, request),
                Ok(Incoming::Piped(piped)) => (Some(piped.corr), piped.request),
                Err(e) => {
                    let reply = Reply::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    };
                    window.push(None, &reply);
                    return window.release(shared, &mut stream);
                }
            };
            if !serve_request(shared, &mut window, corr, request) {
                return window.release(shared, &mut stream);
            }
            if window.is_full() {
                window.release(shared, &mut stream)?;
            }
        }
        // The window closes when the client has nothing further
        // buffered (a pipelining client keeps the buffer full): one
        // commit and one socket write for all of it. The first bytes of
        // a frame keep it open — the rest is already on its way.
        if inbound.is_empty() {
            window.release(shared, &mut stream)?;
        }
    }
}

/// Serves one request into `window`, under at most one shard lock at a
/// time. Returns `false` for `Quit`.
fn serve_request<B: BackingStore>(
    shared: &Shared<B>,
    window: &mut Window,
    corr: Option<u32>,
    request: Request,
) -> bool {
    // Logical per-request clock: one millisecond of trace time per
    // read/write, globally ordered, keeps sieving windows moving
    // deterministically whatever the shard count.
    let tick = || Micros::new(shared.clock_us.fetch_add(1_000, Ordering::Relaxed));
    let owner = |key| shared.lock_for_request(shard_of(key, shared.shards.len()));
    match request {
        Request::Read { key } => {
            let now = tick();
            window.push_read(corr, |out| owner(key).handle_read(key, now, corr, out));
        }
        Request::Write { key, data } => {
            let now = tick();
            let reply = owner(key).handle_write(key, &data, now);
            window.push(corr, &reply);
        }
        Request::Stats => {
            let snap = shared.snapshot();
            let reply = Reply::Stats {
                read_hits: snap.stats.read_hits,
                write_hits: snap.stats.write_hits,
                read_misses: snap.stats.read_misses,
                write_misses: snap.stats.write_misses,
                allocation_writes: snap.stats.allocation_writes,
                resident_blocks: snap.resident_blocks,
                degraded_reads: snap.degraded_reads,
                degraded_writes: snap.degraded_writes,
                mode: snap.mode,
            };
            window.push(corr, &reply);
        }
        Request::Flush => {
            // Every shard flushes, in index order; the first failure is
            // the reply, as a single cache's flush reports its first.
            let mut total = 0;
            let mut failure = None;
            for index in 0..shared.shards.len() {
                match shared.lock(index).handle_flush() {
                    Reply::Flush { flushed } => total += flushed,
                    other => failure = failure.or(Some(other)),
                }
            }
            window.push(corr, &failure.unwrap_or(Reply::Flush { flushed: total }));
        }
        Request::Quit => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sievestore_types::obs::CapturingSink;

    #[test]
    fn accept_failures_back_off_and_report_once_per_kind_per_second() {
        let sink = CapturingSink::new();
        let mut failures = AcceptFailures::default();
        let t0 = Instant::now();
        let emfile = || io::Error::from_raw_os_error(24);
        // A burst of one kind: every failure backs off, one is reported.
        for ms in 0..50 {
            let wait = failures.note(&emfile(), t0 + Duration::from_millis(ms), &sink);
            assert_eq!(wait, ACCEPT_BACKOFF);
        }
        assert_eq!(sink.events().len(), 1);
        // Another kind is reported in its own right.
        let reset = io::Error::from(io::ErrorKind::ConnectionAborted);
        failures.note(&reset, t0 + Duration::from_millis(60), &sink);
        failures.note(&reset, t0 + Duration::from_millis(70), &sink);
        assert_eq!(sink.events().len(), 2);
        // A second later the persistent kind is reported again, once.
        failures.note(&emfile(), t0 + Duration::from_millis(1_000), &sink);
        failures.note(&emfile(), t0 + Duration::from_millis(1_010), &sink);
        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.name == "node.accept.failed"));
        assert_eq!(
            events[0].field("errno").expect("errno").to_string(),
            "24",
            "the OS error code rides along"
        );
    }

    #[test]
    fn a_failed_window_rewrites_every_reply_that_is_not_an_error() {
        let ok = Reply::Write { hit: true };
        let error = Reply::Error {
            code: ErrorCode::Fatal,
            message: "already failed".into(),
        };
        let failure = Reply::Error {
            code: ErrorCode::Transient,
            message: "durable commit failed".into(),
        };
        let mut window = Window::default();
        window.push(None, &ok);
        window.push(Some(7), &error);
        window.push_read(Some(8), |out| {
            crate::protocol::encode_read_into(out, Some(8), true, &[9; 512]);
            Ok(())
        });
        window.fail(&failure);
        let mut expect = Vec::new();
        encode_reply_into(&mut expect, None, &failure);
        encode_reply_into(&mut expect, Some(7), &error);
        encode_reply_into(&mut expect, Some(8), &failure);
        assert_eq!(window.out, expect);
    }
}
