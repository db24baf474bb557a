//! Parallel sharded trace replay with deterministic, merge-identical
//! metrics.
//!
//! The sequential engine ([`crate::simulate`]) processes every block
//! access in trace order on one thread. This module hash-partitions the
//! block-id space across `n` worker shards with
//! [`sievestore_types::shard_of`] — the same partition function
//! [`sievestore_analysis`-style counting](sievestore_types::shard_of)
//! uses — so each worker owns a disjoint slice of the sieve metastate and
//! cache frames and sees its partition's accesses in global trace order
//! (a subsequence of the sequential stream).
//!
//! # Architecture
//!
//! * A **generator thread** ([`SyntheticTrace::stream`]) produces the
//!   trace as bounded request chunks — day *N + 1* generates while day
//!   *N* replays, and the whole pipeline never materializes a full day
//!   (with spill-mode generation, peak trace memory is one server-day).
//! * The **coordinator** (caller thread) consumes the stream, splits
//!   each request's blocks by shard, and pushes per-shard block-group
//!   batches into bounded per-shard work queues (backpressure keeps the
//!   pipeline memory-bounded).
//! * **Work-stealing**: each shard's queue is paired with a mutex over
//!   the shard's replay state. A message is popped *and processed while
//!   holding that state lock*, so the shard's FIFO event order — and
//!   therefore every simulated metric — is independent of which worker
//!   thread executes it. A worker that drains its own queue steals one
//!   message at a time from loaded siblings (`try_lock`, never blocking
//!   behind a busy owner), which attacks day-barrier imbalance without
//!   touching the determinism argument: scheduling chooses *who* runs a
//!   shard's next message, never *what order* the shard's messages run
//!   in.
//! * **Continuous policies** (AOD, WMNA, SieveStore-C, RandSieve-C) are
//!   built per shard via [`sievestore::SieveStoreBuilder::shard`]: the
//!   IMCT is slot-sliced so per-key sieve state is bit-identical to the
//!   whole sieve's, and the LRU capacity is split evenly. Day boundaries
//!   are no-ops for these policies, so workers run barrier-free.
//! * **Discrete policies** (SieveStore-D, RandSieve-BlkD, Ideal) keep
//!   per-shard bookkeeping (epoch access counts / accessed sets) *and* a
//!   per-shard epoch cache: each worker owns a [`BatchCache`] holding
//!   exactly its shard's slice of the global resident set. At each day
//!   boundary the coordinator gathers every shard's contribution,
//!   computes the selection the sequential policy would produce, and
//!   hands each worker its hash-partition of it to install locally —
//!   for SieveStore-D within capacity this is the contribution vectors
//!   handed straight back, with no merge at all. Each worker counts
//!   its install in its own share of the result, so the boundary's only
//!   blocking step is the contribution gather. Because the per-shard
//!   resident sets partition the global one, the summed
//!   allocated/retained/evicted counts equal the sequential install's
//!   exactly, and epoch rotation stays globally ordered.
//!
//! # Determinism
//!
//! Each shard fills its own [`SimResult`] through the sequential
//! engine's accounting functions, and per-day metrics merge with
//! commutative integer sums ([`crate::DayMetrics::merge`]), so the
//! merged report does not depend on worker scheduling — replaying the
//! same trace at any shard count is reproducible, and
//! [`ReplayMode::Sharded`]`(1)` is byte-identical to the sequential
//! engine for every policy. For `n > 1` the per-key
//! policy decisions are exact (hash-sliced metastate, global batch
//! state), which makes discrete policies byte-identical at any shard
//! count and continuous policies byte-identical whenever capacity is
//! ample (no evictions); a global LRU's eviction order is inherently
//! sequential, so under capacity pressure per-shard LRUs are an
//! approximation. RandSieve-C reseeds per shard (its RNG is consumed in
//! global miss order, which sharding cannot reproduce). Device
//! *occupancy* rounds sub-page remainders per request-shard fragment
//! rather than per request, so sharded page counts are an upper bound of
//! sequential ones (equal at one shard); all block-level metrics are
//! unaffected. See DESIGN.md §"Sharded replay" for the full argument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use crossbeam::thread;

use sievestore::policy::RandSieveBlkD;
use sievestore::{PolicySpec, SieveStore};
use sievestore_cache::BatchCache;
use sievestore_extsort::CountingConfig;
use sievestore_sieve::{random_block_selection, DiscreteSieve};
use sievestore_trace::{StreamMsg, SyntheticTrace};
use sievestore_types::{
    obs_count, obs_enabled, obs_observe, shard_of, Day, Micros, Minute, Request, RequestKind,
    SieveError, U64Set,
};

use crate::engine::{open_stream, validate_scenario, SimConfig};
use crate::metrics::SimResult;

/// How the engine walks the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// One thread, strict trace order (the reference engine).
    #[default]
    Sequential,
    /// Hash-partitioned replay across this many worker shards.
    Sharded(usize),
}

impl ReplayMode {
    /// The mode for a requested thread count: `0` or `1` select the
    /// sequential engine, anything larger shards across that many
    /// workers.
    pub fn threads(n: usize) -> Self {
        if n <= 1 {
            ReplayMode::Sequential
        } else {
            ReplayMode::Sharded(n)
        }
    }

    /// Number of replay worker threads this mode uses.
    pub fn worker_count(self) -> usize {
        match self {
            ReplayMode::Sequential => 1,
            ReplayMode::Sharded(n) => n,
        }
    }
}

/// Execution statistics of one sharded replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Block accesses routed to each shard.
    pub per_shard_blocks: Vec<u64>,
    /// Queue messages executed by a worker other than the shard's owner
    /// (work-stealing; 0 when the load stayed balanced).
    pub steals: u64,
}

impl ReplayStats {
    /// Total block accesses replayed.
    pub fn total_blocks(&self) -> u64 {
        self.per_shard_blocks.iter().sum()
    }

    /// Load imbalance: the busiest shard's share of blocks divided by the
    /// mean share (1.0 is perfectly balanced). Returns 1.0 when nothing
    /// was replayed.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_blocks();
        if total == 0 || self.per_shard_blocks.is_empty() {
            return 1.0;
        }
        let max = *self.per_shard_blocks.iter().max().expect("nonempty") as f64;
        let mean = total as f64 / self.per_shard_blocks.len() as f64;
        max / mean
    }
}

/// One request's blocks restricted to a single shard, with everything a
/// worker needs to mirror the sequential engine's accounting.
struct Group {
    minute: Minute,
    completion_minute: Minute,
    kind: RequestKind,
    /// `(block key, per-block access time)` in request order.
    blocks: Vec<(u64, Micros)>,
}

enum ToWorker {
    /// Replay these groups in order.
    Batch(Vec<Group>),
    /// Day boundary: send the shard's epoch contribution (discrete
    /// policies only).
    Boundary,
    /// Install this shard's partition of the day's epoch selection into
    /// the worker's local cache and count the install (discrete only).
    Install(Day, Vec<u64>),
}

/// Groups buffered per shard before a queue push: large enough that the
/// ~1 µs push is noise against the batch's ≥ 50 µs of worker time, small
/// enough that day-boundary drains stay short. Fixed by measurement
/// (DESIGN.md §5f has the candidates tried); it sets message granularity
/// only, never per-shard event order, so no simulated metric depends on
/// it.
const BATCH_GROUPS: usize = 1024;
/// In-flight batches per shard queue (backpressure bound).
const CHANNEL_DEPTH: usize = 8;

/// Buffer-recycling protocol: workers return every processed batch here
/// (groups cleared, `Vec` capacities intact) and the coordinator reuses
/// them for subsequent sends, so steady-state replay allocates no group
/// or batch buffers at all — only the warmup builds them.
struct BufferPool {
    groups: Vec<Group>,
    batches: Vec<Vec<Group>>,
    returns: Receiver<Vec<Group>>,
}

impl BufferPool {
    /// Harvests every batch the workers have returned so far.
    fn reclaim(&mut self) {
        while let Ok(mut batch) = self.returns.try_recv() {
            debug_assert!(batch.iter().all(|g| g.blocks.is_empty()));
            obs_count!(ReplayBatchesRecycled, 1);
            self.groups.append(&mut batch);
            self.batches.push(batch);
        }
    }

    /// A group with empty (possibly pre-sized) `blocks`, recycled when
    /// available.
    fn group(&mut self, req: &Request) -> Group {
        Group {
            minute: req.timestamp.minute(),
            completion_minute: req.completion_time().minute(),
            kind: req.kind,
            blocks: self.groups.pop().map(|g| g.blocks).unwrap_or_default(),
        }
    }

    /// An empty batch `Vec`, recycled when available.
    fn batch(&mut self) -> Vec<Group> {
        self.batches.pop().unwrap_or_default()
    }
}

/// Per-shard epoch bookkeeping for discrete policies: the *counting*
/// side of the policy. The shard's slice of the epoch cache sits beside
/// it in [`WorkerKind::Discrete`].
enum DiscreteBook {
    SieveD {
        sieve: DiscreteSieve<sievestore_extsort::EpochCounter>,
        /// Mints the next epoch's counter (each shard's spill counter
        /// claims its own subdirectory, so one config serves them all).
        counting: CountingConfig,
    },
    BlkD(U64Set),
    Ideal,
}

impl DiscreteBook {
    fn record(&mut self, key: u64) {
        match self {
            DiscreteBook::SieveD { sieve, .. } => sieve.record_access(key),
            DiscreteBook::BlkD(accessed) => {
                accessed.insert(key);
            }
            DiscreteBook::Ideal => {}
        }
    }

    /// The shard's epoch contribution, sorted ascending — for disjoint
    /// key partitions, sorting the concatenation of these reproduces the
    /// sequential policy's selection input exactly.
    fn contribution(&mut self) -> Vec<u64> {
        match self {
            DiscreteBook::SieveD { sieve, counting } => {
                let next = counting
                    .counter()
                    .expect("epoch counting backend failed to restart");
                sieve.end_epoch(next).expect("access counting failed")
            }
            DiscreteBook::BlkD(accessed) => {
                let mut v: Vec<u64> = accessed.iter().collect();
                v.sort_unstable();
                accessed.clear(); // keeps the table allocation for the next epoch
                v
            }
            DiscreteBook::Ideal => Vec::new(),
        }
    }
}

/// Coordinator-side epoch selection logic, mirroring each discrete
/// policy's `on_day_boundary` over the merged shard contributions.
enum BatchPlan {
    SieveD,
    BlkD {
        fraction: f64,
        seed: u64,
        epoch: u64,
    },
    Ideal {
        selections: Vec<Vec<u64>>,
    },
}

impl BatchPlan {
    /// The day's epoch selection, already split into per-shard installs.
    ///
    /// `contributions[s]` is shard `s`'s (sorted, duplicate-free, hash-
    /// disjoint) epoch contribution. The returned partition is exactly
    /// what the sequential policy's global `install_epoch` would keep —
    /// same dedupe, same in-order truncation at `capacity` — restricted
    /// to each shard's key ownership, so per-shard installs sum to the
    /// global transition (see module docs).
    fn select_sharded(
        &mut self,
        day: Day,
        contributions: Vec<Vec<u64>>,
        shards: usize,
        capacity: usize,
    ) -> Vec<Vec<u64>> {
        match self {
            BatchPlan::SieveD => {
                let total: usize = contributions.iter().map(Vec::len).sum();
                if total <= capacity {
                    // The sequential sieve would select the full sorted
                    // concatenation and nothing would be truncated, so
                    // the contributions are already the partition — the
                    // common case costs no merge at all.
                    contributions
                } else {
                    let mut all: Vec<u64> = contributions.into_iter().flatten().collect();
                    all.sort_unstable();
                    partition_selection(all, shards, capacity)
                }
            }
            BatchPlan::BlkD {
                fraction,
                seed,
                epoch,
            } => {
                let mut accessed: Vec<u64> = contributions.into_iter().flatten().collect();
                accessed.sort_unstable();
                *epoch += 1;
                let selection =
                    random_block_selection(accessed.into_iter(), *fraction, *seed ^ *epoch);
                partition_selection(selection, shards, capacity)
            }
            BatchPlan::Ideal { selections } => partition_selection(
                selections.get(day.as_usize()).cloned().unwrap_or_default(),
                shards,
                capacity,
            ),
        }
    }
}

/// Splits a global epoch selection into per-shard install lists,
/// replicating [`BatchCache::install_epoch`]'s semantics: duplicates are
/// kept once, and selection beyond `capacity` distinct keys is dropped
/// in iteration order. Installing `parts[s]` into shard `s`'s cache is
/// then exactly the global install restricted to that shard.
fn partition_selection(
    keys: impl IntoIterator<Item = u64>,
    shards: usize,
    capacity: usize,
) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
    let mut seen = U64Set::new();
    for key in keys {
        if seen.len() >= capacity {
            break;
        }
        if !seen.insert(key) {
            continue;
        }
        parts[shard_of(key, shards)].push(key);
    }
    parts
}

enum WorkerKind {
    Continuous(SieveStore),
    Discrete {
        shard: usize,
        book: DiscreteBook,
        /// This shard's slice of the global resident set. Sized to the
        /// full logical capacity so a partitioned install (≤ capacity
        /// keys in total across all shards) can never locally truncate.
        resident: BatchCache,
        contribute: Sender<(usize, Vec<u64>)>,
    },
}

/// One shard's replay state: its policy slice plus its private metrics.
/// Lives behind [`ShardRig::state`]; whichever worker holds that lock
/// processes the shard's next message.
struct ShardState {
    kind: WorkerKind,
    /// This shard's share of the merged result.
    result: SimResult,
    /// Processed batches go back to the coordinator for reuse.
    recycle: Sender<Vec<Group>>,
}

impl ShardState {
    /// Executes one queue message. The caller holds the shard's state
    /// lock, so messages of one shard always run serialized and in FIFO
    /// order — the whole determinism argument rests on this.
    fn process(&mut self, msg: ToWorker) {
        match msg {
            ToWorker::Batch(mut groups) => {
                for g in &mut groups {
                    self.process_group(g);
                    g.blocks.clear();
                }
                // Return the batch for reuse; the coordinator may
                // already be gone during the final drain.
                let _ = self.recycle.send(groups);
            }
            ToWorker::Boundary => {
                if let WorkerKind::Discrete {
                    shard,
                    book,
                    contribute,
                    ..
                } = &mut self.kind
                {
                    contribute
                        .send((*shard, book.contribution()))
                        .expect("coordinator outlives workers");
                }
            }
            ToWorker::Install(day, selection) => {
                if let WorkerKind::Discrete { resident, .. } = &mut self.kind {
                    let transition = resident.install_epoch(selection);
                    // The shard's share of the day's batch move; the
                    // merge sums the shares into the global count.
                    self.result
                        .record_batch_install(day, transition.allocated.len() as u64);
                }
            }
        }
    }

    /// Accounts the shard's fragment of one request exactly as the
    /// sequential engine accounts a whole one; page accounting therefore
    /// rounds per fragment (see module docs).
    fn process_group(&mut self, g: &Group) {
        let kind = &mut self.kind;
        if let WorkerKind::Continuous(store) = kind {
            // As in the sequential engine: overlap the metastate fetches.
            g.blocks.iter().for_each(|&(key, _)| store.prefetch(key));
        }
        self.result.record_request(
            g.minute,
            g.completion_minute,
            g.kind,
            g.blocks.iter().map(|&(key, t)| match kind {
                WorkerKind::Continuous(store) => {
                    let outcome = store.access(key, g.kind, t);
                    (outcome.is_hit(), outcome.is_allocation())
                }
                WorkerKind::Discrete { book, resident, .. } => {
                    book.record(key);
                    // Discrete misses never allocate mid-epoch.
                    (resident.contains(key), false)
                }
            }),
        );
    }
}

/// Pending messages for one shard; `closed` once the coordinator has
/// pushed the trace's last message.
struct ShardQueue {
    items: VecDeque<ToWorker>,
    closed: bool,
}

/// One shard's bounded work queue paired with its replay state. Any
/// worker may execute the shard's next message, but only while holding
/// `state` — and the pop happens under that same lock, so per-shard
/// FIFO order is independent of which thread runs it (see module docs).
struct ShardRig {
    queue: Mutex<ShardQueue>,
    /// Signals both directions on `queue`: workers wait here for work,
    /// the coordinator waits here for queue space.
    cond: Condvar,
    state: Mutex<ShardState>,
}

/// How long an idle worker parks before rescanning every queue for
/// stealable work.
const IDLE_WAIT: Duration = Duration::from_millis(1);
/// How long a backpressured push waits between worker-health checks.
const PUSH_WAIT: Duration = Duration::from_millis(50);

impl ShardRig {
    fn new(state: ShardState) -> Self {
        ShardRig {
            queue: Mutex::new(ShardQueue {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            state: Mutex::new(state),
        }
    }

    /// Enqueues one message, blocking while the queue holds
    /// [`CHANNEL_DEPTH`] messages (the backpressure bound that keeps
    /// replay memory fixed).
    ///
    /// # Errors
    ///
    /// Fails if a worker panicked mid-replay (poisoned shard state):
    /// with no worker left to drain, a full queue would otherwise block
    /// the coordinator forever.
    fn push(&self, msg: ToWorker) -> Result<(), SieveError> {
        let mut q = self.queue.lock().expect("queue lock");
        while q.items.len() >= CHANNEL_DEPTH {
            if self.state.is_poisoned() {
                return Err(worker_panicked());
            }
            q = self.cond.wait_timeout(q, PUSH_WAIT).expect("queue lock").0;
        }
        q.items.push_back(msg);
        self.cond.notify_all();
        Ok(())
    }

    /// Ships the pending `groups`, if any, leaving `replacement` in
    /// their place.
    fn push_batch(
        &self,
        groups: &mut Vec<Group>,
        replacement: Vec<Group>,
    ) -> Result<(), SieveError> {
        if groups.is_empty() {
            return Ok(());
        }
        obs_count!(ReplayBatchesSent, 1);
        self.push(ToWorker::Batch(std::mem::replace(groups, replacement)))
    }

    /// Marks the queue complete; workers exit once every queue is both
    /// closed and empty.
    fn close(&self) {
        self.queue.lock().expect("queue lock").closed = true;
        self.cond.notify_all();
    }

    /// Whether this shard can never produce work again.
    fn drained(&self) -> bool {
        let q = self.queue.lock().expect("queue lock");
        q.closed && q.items.is_empty()
    }
}

/// Pops and executes at most one message from `rig`; `false` if the
/// queue was empty or — steal attempts only, which never block behind a
/// busy owner — another worker holds the shard's state. The state lock is
/// taken *first* and held across both the pop and the processing — that
/// is the whole determinism argument — and exactly one message runs per
/// acquisition, so a stalled owner's stealers (or a stealing owner's
/// returns) interleave at message granularity instead of waiting out a
/// whole batch backlog.
fn try_process_one(rig: &ShardRig, steal: bool) -> bool {
    let mut state = if steal {
        match rig.state.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => return false,
            Err(TryLockError::Poisoned(e)) => panic!("shard state poisoned: {e}"),
        }
    } else {
        rig.state.lock().expect("shard state poisoned")
    };
    let msg = {
        let mut q = rig.queue.lock().expect("queue lock");
        match q.items.pop_front() {
            Some(msg) => {
                // Wake the coordinator (queue space freed) before the
                // potentially long processing step.
                rig.cond.notify_all();
                msg
            }
            None => return false,
        }
    };
    state.process(msg);
    true
}

/// One replay worker: drains its own shard's queue, then steals single
/// messages from loaded siblings, and exits once every queue is closed
/// and empty. `stall` is the imbalance test hook — it sleeps before
/// each own-queue attempt, outside all locks, so the worker's queue
/// backs up and siblings must steal to keep the replay moving.
fn worker_loop(id: usize, rigs: &[ShardRig], steals: &AtomicU64, stall: Option<Duration>) {
    let own = &rigs[id];
    loop {
        // Own queue first: in the balanced case this is the whole loop
        // and the state lock is uncontended.
        loop {
            if let Some(nap) = stall {
                std::thread::sleep(nap);
            }
            if !try_process_one(own, false) {
                break;
            }
        }
        // Steal sweep: at most one message from the first available
        // sibling, then back to the own queue (its backlog, if one
        // appeared meanwhile, has priority).
        let mut stole = false;
        for offset in 1..rigs.len() {
            let victim = &rigs[(id + offset) % rigs.len()];
            if try_process_one(victim, true) {
                steals.fetch_add(1, Ordering::Relaxed);
                stole = true;
                break;
            }
        }
        if stole {
            continue;
        }
        if rigs.iter().all(ShardRig::drained) {
            return;
        }
        // Nothing runnable anywhere right now: park briefly on the own
        // queue's condvar (pushes notify it) and rescan.
        let waited = obs_enabled!().then(std::time::Instant::now);
        let q = own.queue.lock().expect("queue lock");
        if q.items.is_empty() && !q.closed {
            let _ = own.cond.wait_timeout(q, IDLE_WAIT).expect("queue lock");
        }
        if let Some(started) = waited {
            obs_observe!(ReplayChannelWaitNanos, started.elapsed().as_nanos() as u64);
        }
    }
}

fn worker_panicked() -> SieveError {
    SieveError::InvalidConfig("replay worker panicked".into())
}

/// Receives one epoch contribution during the day-boundary gather,
/// watching for worker panics: the shard states live in coordinator-
/// owned rigs, so a dead worker does not disconnect the channel and a
/// plain `recv` could block forever.
fn recv_contribution(
    rx: &Receiver<(usize, Vec<u64>)>,
    rigs: &[ShardRig],
) -> Result<(usize, Vec<u64>), SieveError> {
    loop {
        match rx.try_recv() {
            Ok(pair) => return Ok(pair),
            Err(TryRecvError::Disconnected) => return Err(worker_panicked()),
            Err(TryRecvError::Empty) => {
                if rigs.iter().any(|r| r.state.is_poisoned()) {
                    return Err(worker_panicked());
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// Simulates one policy over the whole trace with `shards` parallel
/// workers, returning the merged result and the replay statistics.
///
/// # Errors
///
/// Returns [`SieveError::InvalidConfig`] for a zero shard count, an
/// invalid policy configuration, an unsatisfiable metastate split (e.g.
/// `shards` not dividing SieveStore-C's IMCT), or a worker panic.
pub fn simulate_sharded(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
) -> Result<(SimResult, ReplayStats), SieveError> {
    run_sharded(trace, None, spec, cfg, shards, None)
}

/// Sharded variant of [`crate::simulate_server`]: replays a single
/// server's slice of the trace.
///
/// # Errors
///
/// As [`simulate_sharded`].
pub fn simulate_server_sharded(
    trace: &SyntheticTrace,
    server_idx: usize,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
) -> Result<(SimResult, ReplayStats), SieveError> {
    run_sharded(trace, Some(server_idx), spec, cfg, shards, None)
}

/// Test hook: as [`simulate_sharded`], but worker `stall_worker` sleeps
/// `stall` before each of its own-queue messages, forcing the queue
/// imbalance that work-stealing exists to fix. Metrics must stay
/// byte-identical to the unstalled replay; only [`ReplayStats::steals`]
/// changes.
#[doc(hidden)]
pub fn simulate_sharded_with_stall(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
    stall_worker: usize,
    stall: Duration,
) -> Result<(SimResult, ReplayStats), SieveError> {
    run_sharded(trace, None, spec, cfg, shards, Some((stall_worker, stall)))
}

fn run_sharded(
    trace: &SyntheticTrace,
    server: Option<usize>,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
    stall: Option<(usize, Duration)>,
) -> Result<(SimResult, ReplayStats), SieveError> {
    if shards == 0 {
        return Err(SieveError::InvalidConfig(
            "replay shard count must be > 0".into(),
        ));
    }
    if cfg.capacity_blocks == 0 {
        return Err(SieveError::InvalidConfig(
            "cache capacity must be nonzero".into(),
        ));
    }
    validate_scenario(trace, server, cfg)?;
    let name: Arc<str> = Arc::from(spec.name());

    // Coordinator-side discrete state: the epoch selection plan. The
    // epoch caches themselves live on the workers, one hash-partition
    // each. `None` for continuous policies.
    let mut plan: Option<BatchPlan> = match &spec {
        // Its threshold is validated when the shards' books are built.
        PolicySpec::SieveStoreD { .. } => Some(BatchPlan::SieveD),
        PolicySpec::RandSieveBlkD { fraction, seed } => {
            // Validate exactly as the sequential builder would.
            RandSieveBlkD::new(*fraction, *seed)?;
            Some(BatchPlan::BlkD {
                fraction: *fraction,
                seed: *seed,
                epoch: 0,
            })
        }
        PolicySpec::IdealTop1 { selections } => Some(BatchPlan::Ideal {
            selections: selections.clone(),
        }),
        _ => None,
    };

    let (contrib_tx, contrib_rx) = channel::unbounded::<(usize, Vec<u64>)>();
    let (recycle_tx, recycle_rx) = channel::unbounded::<Vec<Group>>();
    let mut rigs = Vec::with_capacity(shards);
    for s in 0..shards {
        let kind = if plan.is_none() {
            WorkerKind::Continuous(cfg.store_builder(spec.clone()).shard(s, shards).build()?)
        } else {
            let book = match &spec {
                PolicySpec::SieveStoreD { threshold } => DiscreteBook::SieveD {
                    sieve: DiscreteSieve::new(cfg.counting.counter()?, *threshold)?,
                    counting: cfg.counting.clone(),
                },
                PolicySpec::RandSieveBlkD { .. } => DiscreteBook::BlkD(U64Set::new()),
                _ => DiscreteBook::Ideal,
            };
            WorkerKind::Discrete {
                shard: s,
                book,
                resident: BatchCache::new(cfg.capacity_blocks),
                contribute: contrib_tx.clone(),
            }
        };
        rigs.push(ShardRig::new(ShardState {
            kind,
            result: SimResult::empty(name.clone(), trace, cfg),
            recycle: recycle_tx.clone(),
        }));
    }
    drop(contrib_tx);
    drop(recycle_tx);

    let steals = AtomicU64::new(0);
    let mut per_shard_blocks = vec![0u64; shards];

    let scope_result = thread::scope(|scope| {
        for id in 0..shards {
            let rigs = &rigs;
            let steals = &steals;
            let nap = stall.and_then(|(worker, nap)| (worker == id).then_some(nap));
            scope.spawn(move |_| worker_loop(id, rigs, steals, nap));
        }

        // The coordinator body runs on this thread; its error (stream
        // failure or worker panic) is captured so the queues still
        // close and the scope still joins before it propagates.
        let coordinate = || -> Result<(), SieveError> {
            let mut stream = open_stream(trace, server, cfg);
            let mut pending: Vec<Vec<Group>> = (0..shards).map(|_| Vec::new()).collect();
            let mut scratch: Vec<Vec<(u64, Micros)>> = (0..shards).map(|_| Vec::new()).collect();
            let mut pool = BufferPool {
                groups: Vec::new(),
                batches: Vec::new(),
                returns: recycle_rx,
            };
            while let Some(msg) = stream.next_msg() {
                match msg {
                    StreamMsg::StartDay(day) => {
                        obs_count!(ReplayDayBoundaries, 1);
                        if let Some(plan) = plan.as_mut() {
                            let barrier_started = obs_enabled!().then(std::time::Instant::now);
                            // Boundary barrier: drain in-flight work and
                            // gather every shard's epoch contribution —
                            // the gather is the only blocking step. Each
                            // shard then installs its partition of the
                            // merged selection into its local epoch
                            // cache, asynchronously.
                            for (rig, groups) in rigs.iter().zip(&mut pending) {
                                rig.push_batch(groups, Vec::new())?;
                                rig.push(ToWorker::Boundary)?;
                            }
                            let mut contributions: Vec<Vec<u64>> =
                                (0..shards).map(|_| Vec::new()).collect();
                            for _ in 0..shards {
                                let (shard, contribution) = recv_contribution(&contrib_rx, &rigs)?;
                                contributions[shard] = contribution;
                            }
                            let parts = plan.select_sharded(
                                day,
                                contributions,
                                shards,
                                cfg.capacity_blocks,
                            );
                            for (rig, part) in rigs.iter().zip(parts) {
                                rig.push(ToWorker::Install(day, part))?;
                            }
                            if let Some(started) = barrier_started {
                                obs_observe!(
                                    ReplayDayBarrierNanos,
                                    started.elapsed().as_nanos() as u64
                                );
                            }
                        }
                    }
                    StreamMsg::Chunk(requests) => {
                        for req in &requests {
                            pool.reclaim();
                            route_request(req, shards, &mut scratch);
                            for s in 0..shards {
                                if scratch[s].is_empty() {
                                    continue;
                                }
                                per_shard_blocks[s] += scratch[s].len() as u64;
                                obs_count!(ReplayEventsRouted, scratch[s].len() as u64);
                                // Swap the routed blocks into a recycled
                                // group: the group's cleared buffer
                                // becomes the next request's scratch, so
                                // neither side ever reallocates.
                                let mut group = pool.group(req);
                                std::mem::swap(&mut group.blocks, &mut scratch[s]);
                                pending[s].push(group);
                                if pending[s].len() >= BATCH_GROUPS {
                                    rigs[s].push_batch(&mut pending[s], pool.batch())?;
                                }
                            }
                        }
                        stream.recycle(requests);
                    }
                    StreamMsg::Failed(e) => return Err(e),
                }
            }
            for (rig, groups) in rigs.iter().zip(&mut pending) {
                rig.push_batch(groups, Vec::new())?;
            }
            Ok(())
        };
        let result = coordinate();
        // Close every queue — on success *and* on error — so the
        // workers drain and exit and the scope can join.
        for rig in &rigs {
            rig.close();
        }
        result
    });
    // A worker panic unwinds through the scope (its queue state is
    // unrecoverable); surface it as a replay error.
    scope_result.map_err(|_| worker_panicked())??;

    let mut merged = SimResult::empty(name, trace, cfg);
    for rig in rigs {
        let state = rig.state.into_inner().map_err(|_| worker_panicked())?;
        merged.absorb(&state.result);
    }
    if cfg.charge_batch_moves {
        // Charged on the merged per-day totals — total first, then one
        // page-rounding — so the occupancy series matches the sequential
        // charge at any shard count.
        for day in 0..merged.days.len() {
            merged.charge_batch_moves(Day::new(day as u16));
        }
    }
    Ok((
        merged,
        ReplayStats {
            per_shard_blocks,
            steals: steals.load(Ordering::Relaxed),
        },
    ))
}

/// Splits one request's blocks into per-shard `(key, access time)` runs,
/// preserving request order within each shard.
fn route_request(req: &Request, shards: usize, scratch: &mut [Vec<(u64, Micros)>]) {
    for (i, key) in req.blocks().enumerate() {
        let raw = key.raw();
        scratch[shard_of(raw, shards)].push((raw, req.block_completion_time(i as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use sievestore_sieve::TwoTierConfig;
    use sievestore_trace::EnsembleConfig;

    fn tiny() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(11)).unwrap()
    }

    fn cfg(trace: &SyntheticTrace, capacity: usize) -> SimConfig {
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(capacity)
    }

    #[test]
    fn threads_helper_picks_mode() {
        assert_eq!(ReplayMode::threads(0), ReplayMode::Sequential);
        assert_eq!(ReplayMode::threads(1), ReplayMode::Sequential);
        assert_eq!(ReplayMode::threads(4), ReplayMode::Sharded(4));
        assert_eq!(ReplayMode::Sharded(4).worker_count(), 4);
        assert_eq!(ReplayMode::default(), ReplayMode::Sequential);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let trace = tiny();
        let err = simulate_sharded(&trace, PolicySpec::Aod, &cfg(&trace, 1024), 0);
        assert!(err.is_err());
    }

    #[test]
    fn one_shard_matches_sequential_exactly_including_occupancy() {
        let trace = tiny();
        let c = cfg(&trace, 4096);
        for spec in [
            PolicySpec::Aod,
            PolicySpec::SieveStoreD { threshold: 5 },
            PolicySpec::RandSieveC {
                probability: 0.01,
                seed: 3,
            },
        ] {
            let seq = simulate(&trace, spec.clone(), &c).unwrap();
            let (sharded, stats) = simulate_sharded(&trace, spec, &c, 1).unwrap();
            assert_eq!(seq.days, sharded.days);
            assert_eq!(stats.per_shard_blocks.len(), 1);
            for m in 0..seq
                .occupancy
                .len_minutes()
                .max(sharded.occupancy.len_minutes())
            {
                let minute = Minute::new(m as u32);
                assert_eq!(
                    seq.occupancy.load(minute),
                    sharded.occupancy.load(minute),
                    "minute {m}"
                );
            }
        }
    }

    #[test]
    fn discrete_metrics_are_identical_at_any_shard_count() {
        let trace = tiny();
        let c = cfg(&trace, 16384).with_charge_batch_moves(true);
        let seq = simulate(&trace, PolicySpec::SieveStoreD { threshold: 5 }, &c).unwrap();
        for shards in [2usize, 4, 8] {
            let (sharded, stats) =
                simulate_sharded(&trace, PolicySpec::SieveStoreD { threshold: 5 }, &c, shards)
                    .unwrap();
            assert_eq!(seq.days, sharded.days, "{shards} shards");
            assert_eq!(stats.per_shard_blocks.len(), shards);
            assert_eq!(stats.total_blocks(), seq.total().accesses());
            assert!(stats.imbalance() >= 1.0);
        }
    }

    #[test]
    fn batch_move_charge_is_identical_at_any_shard_count() {
        // The spread is charged on the merged per-day totals, so the
        // write load it adds cannot depend on how the installs were
        // partitioned.
        let trace = tiny();
        let spec = PolicySpec::SieveStoreD { threshold: 5 };
        let plain = cfg(&trace, 16384);
        let charged = plain.clone().with_charge_batch_moves(true);
        let added = |charged: &SimResult, plain: &SimResult| {
            charged.occupancy.total_write_bytes() - plain.occupancy.total_write_bytes()
        };
        let want = added(
            &simulate(&trace, spec.clone(), &charged).unwrap(),
            &simulate(&trace, spec.clone(), &plain).unwrap(),
        );
        assert!(want > 0.0);
        for shards in [1usize, 2, 4] {
            let got = added(
                &simulate_sharded(&trace, spec.clone(), &charged, shards)
                    .unwrap()
                    .0,
                &simulate_sharded(&trace, spec.clone(), &plain, shards)
                    .unwrap()
                    .0,
            );
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn continuous_sieve_matches_with_ample_capacity() {
        let trace = tiny();
        let c = cfg(&trace, 1 << 20);
        let spec =
            PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 12));
        let seq = simulate(&trace, spec.clone(), &c).unwrap();
        for shards in [2usize, 4] {
            let (sharded, _) = simulate_sharded(&trace, spec.clone(), &c, shards).unwrap();
            assert_eq!(seq.days, sharded.days, "{shards} shards");
        }
    }

    #[test]
    fn server_slice_replays_shard_identically() {
        let trace = tiny();
        // Ample capacity: continuous-policy equality needs the
        // no-eviction regime (see module docs).
        let c = cfg(&trace, 1 << 20);
        let seq = crate::engine::simulate_server(&trace, 0, PolicySpec::Wmna, &c).unwrap();
        let (sharded, _) = simulate_server_sharded(&trace, 0, PolicySpec::Wmna, &c, 4).unwrap();
        assert_eq!(seq.days, sharded.days);
    }

    #[test]
    fn partition_selection_matches_a_global_install() {
        // Duplicates plus more distinct keys than capacity: the
        // partition must keep exactly what one global `install_epoch`
        // would — same dedupe, same in-order truncation.
        let capacity = 8;
        let shards = 3;
        let selection: Vec<u64> = vec![5, 9, 5, 1, 14, 2, 2, 7, 21, 33, 8, 40, 41, 42];
        let mut global = BatchCache::new(capacity);
        let global_install = global.install_epoch(selection.clone());

        let parts = partition_selection(selection, shards, capacity);
        assert_eq!(parts.len(), shards);
        let mut installed: Vec<u64> = Vec::new();
        for (s, part) in parts.into_iter().enumerate() {
            for &key in &part {
                assert_eq!(shard_of(key, shards), s, "key {key} routed wrong");
            }
            // Full logical capacity, as in the sharded engine: local
            // installs never truncate.
            let mut local = BatchCache::new(capacity);
            installed.extend(local.install_epoch(part).allocated);
        }
        installed.sort_unstable();
        let mut expected = global_install.allocated.clone();
        expected.sort_unstable();
        assert_eq!(installed, expected);
        assert_eq!(installed.len(), capacity);
    }

    #[test]
    fn imbalance_of_empty_stats_is_one() {
        assert_eq!(ReplayStats::default().imbalance(), 1.0);
        let stats = ReplayStats {
            per_shard_blocks: vec![30, 10],
            steals: 0,
        };
        assert_eq!(stats.total_blocks(), 40);
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
    }
}
