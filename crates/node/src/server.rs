//! The appliance's TCP front end (single-lock flavor).
//!
//! One [`NodeServer`] owns a [`DataCache`] behind a mutex and serves the
//! wire protocol over TCP, one thread per connection — the physical
//! organization of the paper's Figure 4(c), with TCP standing in for
//! iSCSI. A background clock maps wall-clock time onto trace time so the
//! sieving windows advance. For the shared-nothing, thread-per-core
//! engine that removes the mutex from the hot path, see
//! [`crate::sharded::ShardedNodeServer`]; both are built with
//! [`NodeServerBuilder`].
//!
//! # Fault handling
//!
//! The server never tears down a connection because the *backing store*
//! failed: backing errors become `0xFF` error replies carrying an
//! [`ErrorCode`], and a circuit breaker tracks consecutive failures.
//! After [`NodeConfig::breaker_threshold`] consecutive cache-path
//! failures the node flips into **degraded pass-through mode**: requests
//! are served directly against the ensemble (dirty frames stay
//! authoritative), no frames are allocated, and dirty data is flushed
//! best-effort. After [`NodeConfig::breaker_cooldown`] degraded requests
//! the breaker half-opens and the next request probes the cache path;
//! success closes the breaker, failure re-opens it. Requests that
//! overrun [`NodeConfig::request_deadline`] are answered with a
//! `Deadline` error instead of stalling the reply stream.
//!
//! # Pipelining and group commit
//!
//! Connections accept both plain frames (strictly in-order replies) and
//! correlation-id envelopes (`0x10` requests answered with `0x90`
//! replies). A connection serves every request the client has already
//! pipelined — its *window* — and holds their replies; when no further
//! request is buffered it commits the durable tier's open group once
//! (one frame sync, one journal append + sync, whatever the window
//! staged) and only then sends the replies, in one `write_all`. The
//! store has one open group, so a connection's commit covers every
//! mutation any connection staged before it: no reply — not a write's
//! ack, not a read that saw another connection's still-uncommitted
//! write — leaves before a commit that covers what it observed. If the
//! commit fails, or alone overruns the request deadline, every reply of
//! the window that is not already an error becomes an error reply and
//! the breaker counts one failure; the group stays open and the next
//! window's commit retries it.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use sievestore_types::obs::{Event, EventSink, FieldValue, NoopSink};
use sievestore_types::{obs_count, obs_enabled, obs_gauge_adjust, obs_observe, Micros};

use crate::backing::BackingStore;
use crate::engine::{Breaker, CacheEngine};
use crate::protocol::{ErrorCode, Incoming, NodeMode, PipedReply, Reply, Request};
use crate::store::DataCache;

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

/// Worker-panic bookkeeping shared by both server flavors: shutdown
/// must never hang (or silently succeed) because a thread died mid-work.
pub(crate) struct PanicLedger {
    count: AtomicU64,
    first: Mutex<Option<String>>,
}

impl PanicLedger {
    pub(crate) fn new() -> Self {
        PanicLedger {
            count: AtomicU64::new(0),
            first: Mutex::new(None),
        }
    }

    /// Records one panic, keeping the first payload message so
    /// post-mortems (and `Debug` prints) can say *what* died, not just
    /// how many times.
    pub(crate) fn record(&self, payload: &(dyn std::any::Any + Send)) {
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
    pub(crate) fn first_message(&self) -> Option<String> {
        self.first.lock().clone()
    }

    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Emits one `node.worker.panic` event if any panic was recorded.
    pub(crate) fn report(&self, sink: &dyn EventSink) {
        let count = self.count();
        if count == 0 {
            return;
        }
        sink.record(&Event::new("node.worker.panic").with("count", FieldValue::U64(count)));
    }
}

/// Shared server state.
struct Shared<B: BackingStore> {
    engine: Mutex<CacheEngine<B>>,
    /// Whether the cache has a durable tier, i.e. whether a window's
    /// replies wait for a commit.
    durable: bool,
    config: NodeConfig,
    /// Microseconds of "trace time" per real microsecond can't be known
    /// here, so the server simply timestamps requests with an atomic
    /// logical clock advanced per request plus the caller-supplied base.
    clock_us: AtomicU64,
    live_conns: AtomicU64,
    panics: PanicLedger,
    stop: AtomicBool,
}

/// Builds either server flavor from one fluent configuration.
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
    /// `from`/`to` fields), flush failures and worker panics.
    ///
    /// The sink runs inline on request threads, so it must be cheap and
    /// non-blocking (see [`sievestore_types::obs::EventSink`]).
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the shard-worker count for [`Self::serve_sharded`]; `0`
    /// (the default) sizes to the machine's available parallelism.
    /// Ignored by the single-lock flavors.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Spawns the single-lock, thread-per-connection server over an
    /// already-built cache.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve<B: BackingStore + 'static>(
        self,
        cache: DataCache<B>,
    ) -> io::Result<NodeServer<B>> {
        NodeServer::start(&self.addr, cache, self.config, self.sink, Breaker::closed())
    }

    /// Spawns the single-lock server over a durable frame store: opens
    /// (or formats) the media, runs crash recovery, warms the cache with
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
        write_policy: crate::store::WritePolicy,
        media: crate::durable::DurableMediaSet,
    ) -> io::Result<(NodeServer<B>, Option<crate::durable::RecoveryReport>)> {
        let NodeServerBuilder {
            addr, config, sink, ..
        } = self;
        let mut cache = DataCache::new(backing, policy, capacity_blocks)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            .with_write_policy(write_policy);
        let started = obs_enabled!().then(std::time::Instant::now);
        match crate::durable::DurableStore::open(media, capacity_blocks) {
            Ok(recovery) => {
                let report = cache.attach_recovery(recovery);
                if let Some(t) = started {
                    obs_observe!(DurableRecoveryNanos, t.elapsed().as_nanos() as u64);
                }
                sink.record(
                    &Event::new("node.recovery.complete")
                        .with("recovered", FieldValue::U64(report.recovered))
                        .with("quarantined", FieldValue::U64(report.quarantined))
                        .with("lost_dirty", FieldValue::U64(report.lost_dirty))
                        .with("journal_records", FieldValue::U64(report.journal_records))
                        .with("generation", FieldValue::U64(report.generation as u64)),
                );
                let server = NodeServer::start(&addr, cache, config, sink, Breaker::closed())?;
                Ok((server, Some(report)))
            }
            Err(err) => {
                obs_count!(DurableMediaErrors, 1);
                sink.record(
                    &Event::new("node.recovery.failed")
                        .with("error", FieldValue::Str(err.kind_name())),
                );
                // Unrecoverable media: serve memory-only, starting in
                // degraded pass-through; the probe path restores
                // healthy mode on its own.
                let breaker = Breaker::open(&config);
                let server = NodeServer::start(&addr, cache, config, sink, breaker)?;
                Ok((server, None))
            }
        }
    }

    /// Spawns the shared-nothing, thread-per-core server: each worker
    /// owns a disjoint cache slice keyed by
    /// [`sievestore_types::shard_of`], cross-shard requests hop over
    /// bounded SPSC rings, and no lock sits on the request path. See
    /// [`crate::sharded::ShardedNodeServer`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures and invalid cache configuration.
    pub fn serve_sharded<B: BackingStore + 'static>(
        self,
        backing: B,
        policy: sievestore::PolicySpec,
        capacity_blocks: usize,
        write_policy: crate::store::WritePolicy,
    ) -> io::Result<crate::sharded::ShardedNodeServer<B>> {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            self.workers
        };
        crate::sharded::ShardedNodeServer::start(
            &self.addr,
            backing,
            policy,
            capacity_blocks,
            write_policy,
            workers,
            self.config,
            self.sink,
        )
    }
}

/// A running SieveStore node (single-lock flavor).
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
        cache: DataCache<B>,
        config: NodeConfig,
        sink: Arc<dyn EventSink>,
        breaker: Breaker,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            durable: cache.durable().is_some(),
            engine: Mutex::new(CacheEngine::new(cache, config, sink, breaker)),
            config,
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

    /// Aggregate appliance statistics.
    pub fn stats(&self) -> sievestore::ApplianceStats {
        *self.shared.engine.lock().cache.stats()
    }

    /// The node's current health mode.
    pub fn mode(&self) -> NodeMode {
        self.shared.engine.lock().mode()
    }

    /// Connections currently being served.
    pub fn live_connections(&self) -> u64 {
        self.shared.live_conns.load(Ordering::Relaxed)
    }

    /// Connection-thread panics caught so far. Panics never wedge
    /// shutdown: they are recorded here and reported as one
    /// `node.worker.panic` event when the server stops.
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

    /// Best-effort dirty-frame flush with bounded retries; failures must
    /// not panic or hang shutdown on a dead backing, but neither may
    /// they vanish silently — each failed round is counted
    /// (`node_flush_failures`) and emits one `node.flush.failed` event,
    /// and frames that never land remain journaled on the durable store
    /// (when attached) for the next incarnation to recover.
    fn flush_on_shutdown(&mut self) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let retries = self.shared.config.shutdown_flush_retries;
        // A panicking backing store mid-flush must not escape: this
        // runs from Drop, where an unwinding panic would abort.
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.shared.engine.lock().shutdown_flush(retries);
        }));
        if let Err(payload) = result {
            self.shared.panics.record(payload.as_ref());
        }
        self.shared
            .panics
            .report(self.shared.engine.lock().sink().as_ref());
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
            shared.engine.lock().scrub_pass(batch);
        }));
        if let Err(payload) = pass {
            shared.panics.record(payload.as_ref());
            break;
        }
    }
}

fn accept_loop<B: BackingStore + 'static>(listener: TcpListener, shared: Arc<Shared<B>>) {
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
            Err(_) => continue,
        }
    }
}

/// Whether a decode failure is the idle timeout firing between frames.
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
        obs_gauge_adjust!(NodeLiveConnections, -1);
    }
}

/// Most replies a window holds before it is committed and sent even
/// though the client has more requests buffered (≈ 64 KiB of reads).
const WINDOW_REPLIES: usize = 128;

/// One connection's replies not yet sent: those of the requests the
/// client had already pipelined when the window opened.
struct Window {
    held: Vec<(Option<u32>, Reply)>,
    out: Vec<u8>,
}

impl Window {
    /// Commits the durable group (so every mutation the held replies
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
            if let Err(failure) = shared.engine.lock().commit() {
                for (_, reply) in &mut self.held {
                    if !matches!(reply, Reply::Error { .. }) {
                        *reply = failure.clone();
                    }
                }
            }
        }
        self.out.clear();
        for (corr, reply) in self.held.drain(..) {
            match corr {
                None => reply.encode_into(&mut self.out),
                Some(corr) => PipedReply { corr, reply }.encode_into(&mut self.out),
            }
        }
        stream.write_all(&self.out)
    }
}

fn serve_connection<B: BackingStore + 'static>(
    mut stream: TcpStream,
    shared: &Arc<Shared<B>>,
) -> io::Result<()> {
    shared.live_conns.fetch_add(1, Ordering::Relaxed);
    obs_gauge_adjust!(NodeLiveConnections, 1);
    let _guard = ConnGuard(&shared.live_conns);
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(shared.config.idle_timeout).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut window = Window {
        held: Vec::new(),
        out: Vec::new(),
    };
    loop {
        let incoming = match Incoming::decode(&mut reader) {
            Ok(req) => req,
            // EOF, or the idle timeout between frames: close quietly
            // (the client reconnects transparently on its next request).
            // A window is only still held here if the stream ended
            // mid-frame; its replies are owed all the same.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof || is_idle_timeout(&e) => {
                return window.release(shared, &mut stream);
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                window.held.push((
                    None,
                    Reply::Error {
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                ));
                return window.release(shared, &mut stream);
            }
            Err(e) => return Err(e),
        };
        let (corr, request) = match incoming {
            Incoming::Plain(request) => (None, request),
            Incoming::Piped(piped) => (Some(piped.corr), piped.request),
        };
        // Logical per-request clock: one millisecond of trace time per
        // request keeps sieving windows moving deterministically.
        let now = Micros::new(shared.clock_us.fetch_add(1_000, Ordering::Relaxed));
        let reply = match request {
            Request::Read { key } => shared.engine.lock().handle_read(key, now),
            Request::Write { key, data } => shared.engine.lock().handle_write(key, &data, now),
            Request::Stats => {
                let engine = shared.engine.lock();
                let snap = engine.snapshot();
                Reply::Stats {
                    read_hits: snap.stats.read_hits,
                    write_hits: snap.stats.write_hits,
                    read_misses: snap.stats.read_misses,
                    write_misses: snap.stats.write_misses,
                    allocation_writes: snap.stats.allocation_writes,
                    resident_blocks: snap.resident_blocks,
                    degraded_reads: snap.degraded_reads,
                    degraded_writes: snap.degraded_writes,
                    mode: engine.mode(),
                }
            }
            Request::Flush => shared.engine.lock().handle_flush(),
            Request::Quit => return window.release(shared, &mut stream),
        };
        window.held.push((corr, reply));
        // The window closes when the client has nothing further
        // buffered (a pipelining client keeps the buffer full): one
        // commit and one socket write for all of it.
        if reader.buffer().is_empty() || window.held.len() >= WINDOW_REPLIES {
            window.release(shared, &mut stream)?;
        }
    }
}
