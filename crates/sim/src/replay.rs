//! The replay engine: sharded trace replay with deterministic,
//! merge-identical metrics.
//!
//! Every `simulate*` entry point runs here, at [`SimConfig::workers`]
//! workers. The engine hash-partitions the block-id space across `n`
//! worker shards with [`sievestore_types::shard_of`] — the partition
//! function the analysis pipeline's counting uses — so each worker owns a
//! disjoint slice of the sieve metastate and cache frames and sees its
//! partition's accesses in global trace order (a subsequence of the
//! stream). At one worker that is the whole stream, in order.
//!
//! # Architecture
//!
//! * A **generator thread** ([`SyntheticTrace::stream`]) produces the
//!   trace as bounded request chunks — day *N + 1* generates while day
//!   *N* replays, and the whole pipeline never materializes a full day
//!   (with spill-mode generation, peak trace memory is one server-day).
//! * The **coordinator** (caller thread) consumes the stream and appends
//!   each request's blocks to the owning shard's pending **flat batch**:
//!   one header per request fragment (`minute`, `completion_minute`,
//!   `kind`, `len`) plus every fragment's `(block key, access time)`
//!   pairs back to back — two allocations per batch however many
//!   fragments it carries, freed by the worker. A batch of
//!   `BATCH_GROUPS` fragments goes down the shard's bounded queue
//!   (backpressure keeps the pipeline memory-bounded).
//! * **Each worker owns its shard**: the shard's replay state is moved
//!   into the worker thread, which drains that one queue until the
//!   coordinator hangs up and returns its share of the result through
//!   the join. The hand-off is the only synchronisation and per-shard
//!   FIFO is stream order, so no simulated metric depends on scheduling.
//!   A dead worker drops its channel ends, which turns the coordinator's
//!   next blocking `send` or `recv` on it into an error.
//! * **Every worker is one [`SieveStore`]**, the appliance itself. A
//!   continuous policy's (AOD, WMNA, SieveStore-C, RandSieve-C) is built
//!   per shard via [`sievestore::SieveStoreBuilder::shard`] — IMCT
//!   slot-sliced, so per-key sieve state is the whole sieve's; capacity
//!   split evenly — and runs barrier-free. A discrete policy's
//!   (SieveStore-D, RandSieve-BlkD, Ideal) is built whole, at the full
//!   logical capacity, and holds its shard's slice of the resident set.
//!   At each day boundary the coordinator gathers every store's
//!   [contribution](SieveStore::epoch_contribution), the boundary's only
//!   blocking step, splits the selection with
//!   [`PolicySpec::select_sharded`] — what the appliance's own
//!   `day_boundary` calls with one part — and each worker
//!   [installs](SieveStore::install_epoch) its part. `Install` follows
//!   `Boundary` on the shard's FIFO, so SieveStore-D's counter is seeded
//!   before the new epoch's first access, each a one-slot probe hinted
//!   `AHEAD` entries down the batch. Routing costs no division per block
//!   ([`shard_index`]).
//!
//! # Determinism
//!
//! Each shard fills its own [`SimResult`] through the accounting core
//! on `SimResult` and the shares merge with commutative integer sums
//! ([`crate::DayMetrics::merge`]), so a replay is reproducible at any
//! shard count. One worker is the appliance driven over the stream in
//! order, occupancy included, for every policy (pinned against a
//! hand-written loop in the tests here and in `tests/sharded_replay.rs`).
//! For `n > 1` per-key policy decisions are exact (hash-sliced
//! metastate, global batch state): discrete policies are byte-identical
//! at any shard count, continuous ones whenever capacity is ample — a
//! global LRU's eviction order is inherently sequential, so under
//! capacity pressure per-shard LRUs are an approximation, and RandSieve-C
//! reseeds per shard (its RNG is consumed in global miss order). Device
//! *occupancy* rounds sub-page remainders per request-shard fragment
//! rather than per request, so page counts at `n > 1` are an upper bound
//! of one worker's; block-level metrics are unaffected. DESIGN.md §5b has
//! the full argument.

use std::sync::Arc;

use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::thread;

use sievestore::{PolicySpec, SieveStore};
use sievestore_trace::{StreamMsg, SyntheticTrace, TraceStream};
use sievestore_types::obs::{self, CounterId, HistId};
use sievestore_types::{shard_index, Day, Micros, Minute, Request, RequestKind, SieveError};

use crate::engine::SimConfig;
use crate::metrics::SimResult;

/// Execution statistics of one sharded replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Block accesses routed to each shard.
    pub per_shard_blocks: Vec<u64>,
    /// Always 0; kept for the repo benchmark's `sim.replay.steals` probe.
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

/// One request's fragment on a single shard: what a worker needs to
/// account the next `len` entries of its batch's `blocks`.
struct Group {
    minute: Minute,
    completion_minute: Minute,
    kind: RequestKind,
    len: u32,
}

/// One shard's request fragments in stream order, stored flat.
#[derive(Default)]
struct Batch {
    groups: Vec<Group>,
    /// Every group's `(block key, per-block access time)` pairs, back to
    /// back, each group's in request order.
    blocks: Vec<(u64, Micros)>,
    /// How many of `blocks` the `groups` cover; the rest belong to the
    /// request being routed.
    grouped: usize,
}

impl Batch {
    /// Each group, in stream order, with `blocks` from the group's first
    /// entry on: its own `len` entries, then what the worker reaches next.
    fn fragments(&self) -> impl Iterator<Item = (&Group, &[(u64, Micros)])> {
        let mut rest = &self.blocks[..];
        self.groups.iter().map(move |g| {
            let upcoming = rest;
            rest = &rest[g.len as usize..];
            (g, upcoming)
        })
    }
}

enum ToWorker {
    /// Replay these groups in order.
    Batch(Batch),
    /// Day boundary: send the shard's epoch contribution (discrete
    /// policies only).
    Boundary,
    /// Install this shard's partition of the day's epoch selection into
    /// the worker's local cache and count the install (discrete only).
    Install(Day, Vec<u64>),
}

/// Groups buffered per shard before a queue push: large enough that the
/// ~1 µs push is noise against the batch's ≈ 0.2 ms of worker time (a
/// full batch averages ≈ 8 000 block events at ≈ 28 ns each), small
/// enough that day-boundary drains stay short. Fixed by measurement
/// (DESIGN.md §5f has the candidates tried); it sets message granularity
/// only, never per-shard event order, so no simulated metric depends on
/// it.
const BATCH_GROUPS: usize = 1024;
/// In-flight batches per shard queue (backpressure bound).
const CHANNEL_DEPTH: usize = 8;
/// How many entries down its batch's flat `blocks` array a discrete
/// worker hints the counter slot it will touch: fixed by measurement
/// (DESIGN.md §5f has the candidates tried), and no metric depends on it.
const AHEAD: usize = 8;

/// A discrete shard's answer to [`ToWorker::Boundary`].
type Contribution = Result<Vec<u64>, SieveError>;

/// One shard's replay state: its store plus its private metrics. Owned
/// by the shard's worker thread for the whole replay.
struct ShardState {
    store: SieveStore,
    /// A discrete shard's answer to [`ToWorker::Boundary`]: capacity 1
    /// and one contribution per boundary, each gathered before the next
    /// boundary is sent, so this send never blocks. `None` for a
    /// continuous shard.
    reply: Option<Sender<Contribution>>,
    /// This shard's share of the merged result.
    result: SimResult,
}

impl ShardState {
    /// Executes one queue message.
    fn process(&mut self, msg: ToWorker) {
        match msg {
            ToWorker::Batch(batch) => {
                for (g, upcoming) in batch.fragments() {
                    self.process_group(g, upcoming);
                }
            }
            ToWorker::Boundary => {
                if let Some(reply) = &self.reply {
                    // The gather end is only ever gone on the coordinator's
                    // own error path, which hangs up this worker's queue next.
                    let _ = reply.send(self.store.epoch_contribution());
                }
            }
            ToWorker::Install(day, selection) => {
                // The shard's share of the day's batch move; the merge
                // sums the shares into the global count.
                if let Some(transition) = self.store.install_epoch(selection) {
                    let moved = transition.allocated.len() as u64;
                    self.result.record_batch_install(day, moved);
                }
            }
        }
    }

    /// Accounts the shard's fragment of one request — the first `g.len`
    /// entries of `upcoming` — as one request; page accounting therefore
    /// rounds per fragment (see module docs).
    fn process_group(&mut self, g: &Group, upcoming: &[(u64, Micros)]) {
        let store = &mut self.store;
        let blocks = &upcoming[..g.len as usize];
        // A continuous shard starts every block's metastate fetch before
        // the first access needs one, so the cache misses overlap; a
        // discrete one hints the counter slot `AHEAD` accesses early.
        let discrete = self.reply.is_some();
        if !discrete {
            blocks.iter().for_each(|&(key, _)| store.prefetch(key));
        }
        let (mut hits, mut allocated) = (0u64, 0u64);
        for (i, &(key, t)) in blocks.iter().enumerate() {
            if discrete {
                if let Some(&(soon, _)) = upcoming.get(i + AHEAD) {
                    store.prefetch(soon);
                }
            }
            let outcome = store.access(key, g.kind, t);
            hits += u64::from(outcome.is_hit());
            allocated += u64::from(outcome.is_allocation());
        }
        let len = u64::from(g.len);
        let result = &mut self.result;
        result.record_request(g.minute, g.completion_minute, g.kind, len, hits, allocated);
    }
}

/// One replay worker: owns `state`, drains the shard's queue in order
/// until the coordinator hangs up, and returns the shard's result.
fn run_worker(mut state: ShardState, queue: Receiver<ToWorker>) -> SimResult {
    loop {
        let idle_since = obs::enabled().then(std::time::Instant::now);
        let Ok(msg) = queue.recv() else {
            return state.result;
        };
        if let Some(started) = idle_since {
            obs::observe(
                HistId::ReplayChannelWaitNanos,
                started.elapsed().as_nanos() as u64,
            );
        }
        state.process(msg);
    }
}

fn worker_panicked() -> SieveError {
    SieveError::InvalidConfig("replay worker panicked".into())
}

/// Hands `msg` to a shard's worker, blocking while its queue holds
/// [`CHANNEL_DEPTH`] messages (the backpressure bound that keeps replay
/// memory fixed). Fails if the worker panicked: unwinding dropped its
/// end of the queue, so the send returns instead of blocking forever.
fn push(queue: &Sender<ToWorker>, msg: ToWorker) -> Result<(), SieveError> {
    queue.send(msg).map_err(|_| worker_panicked())
}

/// Ships a shard's pending batch, if any, leaving an empty one in its place.
fn ship(queue: &Sender<ToWorker>, pending: &mut Batch) -> Result<(), SieveError> {
    if pending.groups.is_empty() {
        return Ok(());
    }
    obs::count(CounterId::ReplayBatchesSent, 1);
    push(queue, ToWorker::Batch(std::mem::take(pending)))
}

/// The day-boundary gather, the boundary's only blocking step: every
/// shard's epoch contribution, in shard order. A shard's counting failure
/// comes back as is; a panicked worker's contribution sender was dropped
/// by unwinding, so its receive fails instead of blocking forever.
fn gather(from: &[Receiver<Contribution>]) -> Result<Vec<Vec<u64>>, SieveError> {
    from.iter()
        .map(|shard| shard.recv().map_err(|_| worker_panicked())?)
        .collect()
}

/// Simulates one policy over the whole trace with `shards` parallel
/// workers, returning the merged result and the replay statistics.
///
/// # Errors
///
/// Returns [`SieveError::InvalidConfig`] for a zero shard count, an
/// invalid policy configuration, an unsatisfiable metastate split (e.g.
/// `shards` not dividing SieveStore-C's IMCT) or a worker panic, and the
/// counting backend's own error when epoch counting fails.
pub fn simulate_sharded(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
) -> Result<(SimResult, ReplayStats), SieveError> {
    run_sharded(trace, None, spec, cfg, shards)
}

/// The replay loop behind every entry point: `server` selects one
/// server's slice of the trace, `None` the whole ensemble.
pub(crate) fn run_sharded(
    trace: &SyntheticTrace,
    server: Option<usize>,
    spec: PolicySpec,
    cfg: &SimConfig,
    shards: usize,
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
    let name: Arc<str> = Arc::from(spec.name());

    // The oracle's selections stay with the coordinator, which selects
    // for every shard.
    let shard_spec = match &spec {
        PolicySpec::IdealTop1 { .. } => PolicySpec::IdealTop1 { selections: vec![] },
        other => other.clone(),
    };
    let mut states = Vec::with_capacity(shards);
    // Discrete policies: one contribution channel per shard, its sender
    // inside the worker-owned state. Empty for continuous policies.
    let mut contributions = Vec::new();
    for s in 0..shards {
        let (store, reply) = if spec.is_discrete() {
            let (reply, contribution) = channel::bounded(1);
            contributions.push(contribution);
            // Whole, at the full logical capacity, so a partitioned
            // install (at most that many keys across all shards) never
            // truncates locally.
            (cfg.store_builder(shard_spec.clone()).build()?, Some(reply))
        } else {
            let store = cfg.store_builder(shard_spec.clone()).shard(s, shards);
            (store.build()?, None)
        };
        states.push(ShardState {
            store,
            reply,
            result: SimResult::empty(name.clone(), trace, cfg),
        });
    }
    let stream = open_stream(trace, server, cfg);

    let joined = thread::scope(|scope| {
        let (queues, workers): (Vec<_>, Vec<_>) = states
            .into_iter()
            .map(|state| {
                let (queue, worker_end) = channel::bounded(CHANNEL_DEPTH);
                (queue, scope.spawn(move |_| run_worker(state, worker_end)))
            })
            .unzip();

        let routed = coordinate(stream, &spec, cfg.capacity_blocks, &queues, &contributions);
        // Hang up every queue and join every worker before the
        // coordinator's result propagates — on success *and* on error —
        // so the workers drain and exit and nothing stays blocked.
        drop(queues);
        let parts: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        routed.map(|per_shard_blocks| (per_shard_blocks, parts))
    });
    let (per_shard_blocks, parts) = joined.map_err(|_| worker_panicked())??;

    let mut merged = SimResult::empty(name, trace, cfg);
    for part in parts {
        merged.absorb(&part.map_err(|_| worker_panicked())?);
    }
    Ok((
        merged,
        ReplayStats {
            per_shard_blocks,
            steals: 0,
        },
    ))
}

/// The stream every replay path consumes: the whole ensemble, or one
/// server's slice of it.
fn open_stream(trace: &SyntheticTrace, server: Option<usize>, cfg: &SimConfig) -> TraceStream {
    match server {
        Some(idx) => trace.stream_server(idx, cfg.trace_stream.clone()),
        None => trace.stream(cfg.trace_stream.clone()),
    }
}

/// The coordinator, on the caller's thread: routes the stream into the
/// shards' queues and, for a discrete policy (one with `contributions`),
/// runs the day-boundary barrier. Returns the blocks routed per shard.
fn coordinate(
    mut stream: TraceStream,
    spec: &PolicySpec,
    capacity: usize,
    queues: &[Sender<ToWorker>],
    contributions: &[Receiver<Contribution>],
) -> Result<Vec<u64>, SieveError> {
    let mut pending: Vec<Batch> = queues.iter().map(|_| Batch::default()).collect();
    let mut per_shard_blocks = vec![0u64; queues.len()];
    let index = shard_index(queues.len());
    let mut epoch = 0u64;
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(day) => {
                obs::count(CounterId::ReplayDayBoundaries, 1);
                if !contributions.is_empty() {
                    let barrier_started = obs::enabled().then(std::time::Instant::now);
                    // Boundary barrier: drain in-flight work and gather
                    // every shard's epoch contribution. Each shard then
                    // installs its partition of the merged selection into
                    // its local epoch cache, asynchronously.
                    for (queue, batch) in queues.iter().zip(&mut pending) {
                        ship(queue, batch)?;
                        push(queue, ToWorker::Boundary)?;
                    }
                    epoch += 1;
                    let parts = spec.select_sharded(epoch, day, gather(contributions)?, capacity);
                    for (queue, part) in queues.iter().zip(parts) {
                        push(queue, ToWorker::Install(day, part))?;
                    }
                    if let Some(started) = barrier_started {
                        obs::observe(
                            HistId::ReplayDayBarrierNanos,
                            started.elapsed().as_nanos() as u64,
                        );
                    }
                }
            }
            StreamMsg::Chunk(requests) => {
                for req in &requests {
                    route_request(req, index, &mut pending, &mut per_shard_blocks);
                    for (queue, batch) in queues.iter().zip(&mut pending) {
                        if batch.groups.len() >= BATCH_GROUPS {
                            ship(queue, batch)?;
                        }
                    }
                }
                stream.recycle(requests);
            }
            StreamMsg::Failed(e) => return Err(e),
        }
    }
    for (queue, batch) in queues.iter().zip(&mut pending) {
        ship(queue, batch)?;
    }
    Ok(per_shard_blocks)
}

/// Appends `req`'s blocks to the pending batch of each shard that owns
/// some of them — one group per such shard, blocks in request order —
/// and counts them into `per_shard_blocks`. No division per block: the
/// shard comes from `index`, the times from one division per request.
fn route_request(
    req: &Request,
    index: impl Fn(u64) -> usize,
    pending: &mut [Batch],
    per_shard_blocks: &mut [u64],
) {
    for (key, at) in req.blocks().zip(req.block_completion_times()) {
        pending[index(key.raw())].blocks.push((key.raw(), at));
    }
    for (batch, routed) in pending.iter_mut().zip(per_shard_blocks) {
        let len = batch.blocks.len() - batch.grouped;
        if len == 0 {
            continue;
        }
        batch.grouped = batch.blocks.len();
        batch.groups.push(Group {
            minute: req.timestamp.minute(),
            completion_minute: req.completion_time().minute(),
            kind: req.kind,
            len: len as u32,
        });
        *routed += len as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::snapshot::SnapshotLog;
    use proptest::prelude::*;
    use sievestore_sieve::TwoTierConfig;
    use sievestore_trace::EnsembleConfig;
    use sievestore_types::{shard_of, BlockAddr, ServerId, VolumeId};

    fn tiny() -> SyntheticTrace {
        SyntheticTrace::new(EnsembleConfig::tiny(11)).unwrap()
    }

    fn cfg(trace: &SyntheticTrace, capacity: usize) -> SimConfig {
        SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(capacity)
    }

    /// The reference the engine is held to: the appliance driven over
    /// the stream in order, each whole request accounted as it comes —
    /// no routing, batching, workers or merge.
    fn reference(
        trace: &SyntheticTrace,
        server: Option<usize>,
        spec: PolicySpec,
        c: &SimConfig,
    ) -> SimResult {
        let mut result = SimResult::empty(Arc::from(spec.name()), trace, c);
        let mut store = c.store_builder(spec).build().unwrap();
        let mut stream = open_stream(trace, server, c);
        while let Some(msg) = stream.next_msg() {
            match msg {
                StreamMsg::StartDay(day) => {
                    if let Some(transition) = store.day_boundary(day) {
                        result.record_batch_install(day, transition.allocated.len() as u64);
                    }
                }
                StreamMsg::Chunk(chunk) => chunk.iter().for_each(|req| {
                    let (mut hits, mut allocated) = (0u64, 0u64);
                    for (i, key) in req.blocks().enumerate() {
                        let t = req.block_completion_time(i as u32);
                        let outcome = store.access(key.raw(), req.kind, t);
                        hits += u64::from(outcome.is_hit());
                        allocated += u64::from(outcome.is_allocation());
                    }
                    let (minute, completion) =
                        (req.timestamp.minute(), req.completion_time().minute());
                    let blocks = u64::from(req.len_blocks);
                    result.record_request(minute, completion, req.kind, blocks, hits, allocated);
                }),
                StreamMsg::Failed(e) => panic!("stream failed: {e}"),
            }
        }
        result
    }

    #[test]
    fn zero_shards_is_rejected() {
        let trace = tiny();
        let c = cfg(&trace, 1024);
        assert!(simulate_sharded(&trace, PolicySpec::Aod, &c, 0).is_err());
        assert!(simulate(&trace, PolicySpec::Aod, &c.with_workers(0)).is_err());
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
            let want = reference(&trace, None, spec.clone(), &c);
            let (sharded, stats) = simulate_sharded(&trace, spec, &c, 1).unwrap();
            assert_eq!(want.days, sharded.days);
            assert_eq!(stats.per_shard_blocks.len(), 1);
            for m in 0..want
                .occupancy
                .len_minutes()
                .max(sharded.occupancy.len_minutes())
            {
                let minute = Minute::new(m as u32);
                assert_eq!(
                    want.occupancy.load(minute),
                    sharded.occupancy.load(minute),
                    "minute {m}"
                );
            }
        }
    }

    #[test]
    fn discrete_metrics_are_identical_at_any_shard_count() {
        let trace = tiny();
        let c = cfg(&trace, 16384);
        let spec = PolicySpec::SieveStoreD { threshold: 5 };
        let want = reference(&trace, None, spec.clone(), &c);
        for shards in [2usize, 4, 8] {
            let (sharded, stats) = simulate_sharded(&trace, spec.clone(), &c, shards).unwrap();
            assert_eq!(want.days, sharded.days, "{shards} shards");
            assert_eq!(stats.per_shard_blocks.len(), shards);
            assert_eq!(stats.total_blocks(), want.total().accesses());
            assert!(stats.imbalance() >= 1.0);
        }
    }

    #[test]
    fn continuous_sieve_matches_with_ample_capacity() {
        let trace = tiny();
        let c = cfg(&trace, 1 << 20);
        let spec =
            PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 12));
        let want = reference(&trace, None, spec.clone(), &c);
        for shards in [2usize, 4] {
            let (sharded, _) = simulate_sharded(&trace, spec.clone(), &c, shards).unwrap();
            assert_eq!(want.days, sharded.days, "{shards} shards");
        }
    }

    #[test]
    fn server_slice_replays_shard_identically() {
        let trace = tiny();
        // Ample capacity: continuous-policy equality needs the
        // no-eviction regime (see module docs).
        let c = cfg(&trace, 1 << 20);
        let want = reference(&trace, Some(0), PolicySpec::Wmna, &c);
        for workers in [1, 4] {
            let c = c.clone().with_workers(workers);
            let got = crate::engine::simulate_server(&trace, 0, PolicySpec::Wmna, &c).unwrap();
            assert_eq!(want.days, got.days, "{workers} workers");
        }
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

    #[test]
    fn push_to_a_dead_worker_is_an_error_not_a_hang() {
        let (queue, worker_end) = channel::bounded(1);
        push(&queue, ToWorker::Boundary).expect("live worker end");
        drop(worker_end); // what a panicking worker's unwind does
        assert!(push(&queue, ToWorker::Boundary).is_err(), "full queue");
    }

    #[test]
    fn gather_from_a_dead_worker_is_an_error_not_a_hang() {
        let (alive, first) = channel::bounded(1);
        let (dead, second) = channel::bounded::<Contribution>(1);
        alive.send(Ok(vec![7])).unwrap();
        drop(dead);
        assert!(gather(&[first, second]).is_err());
    }

    #[test]
    fn counting_backend_failure_is_an_error_not_a_panic() {
        // The spill root turns into a regular file after the store is
        // built, so the epoch's spill log cannot be read back.
        let path = std::env::temp_dir().join(format!("sieve-book-{}", std::process::id()));
        let mut store = sievestore::SieveStoreBuilder::new()
            .capacity_blocks(16)
            .policy(PolicySpec::SieveStoreD { threshold: 2 })
            .counting(sievestore_extsort::CountingConfig::spill(&path))
            .build()
            .unwrap();
        store.access(9, RequestKind::Read, Micros::new(0));
        std::fs::remove_dir_all(&path).unwrap();
        std::fs::write(&path, b"not a directory").unwrap();
        let failed = store.epoch_contribution();
        std::fs::remove_file(&path).ok();
        let original = failed
            .as_ref()
            .expect_err("spill root is a file")
            .to_string();
        // ...and the gather hands the shard's own error on unchanged.
        let (reply, contribution) = channel::bounded(1);
        reply.send(failed).unwrap();
        assert_eq!(gather(&[contribution]).unwrap_err().to_string(), original);
        assert_ne!(original, worker_panicked().to_string());
    }

    /// One single-group read batch over `keys`, all at minute 0 of `day`.
    fn batch_of(day: u16, keys: &[u64]) -> ToWorker {
        let at = Day::new(day).start();
        ToWorker::Batch(Batch {
            groups: vec![Group {
                minute: at.minute(),
                completion_minute: at.minute(),
                kind: RequestKind::Read,
                len: keys.len() as u32,
            }],
            blocks: keys.iter().map(|&key| (key, at)).collect(),
            grouped: keys.len(),
        })
    }

    #[test]
    fn a_discrete_worker_contributes_then_installs_its_part() {
        let trace = tiny();
        let capacity = 2;
        let c = cfg(&trace, capacity);
        let (reply, contribution) = channel::bounded(1);
        let spec = PolicySpec::SieveStoreD { threshold: 2 };
        let mut shard = ShardState {
            store: c.store_builder(spec.clone()).build().unwrap(),
            reply: Some(reply),
            result: SimResult::empty(Arc::from(spec.name()), &trace, &c),
        };
        // Epoch 0 earns three keys a frame; the cache has room for two.
        shard.process(batch_of(0, &[5, 9, 5, 7, 9, 7, 3]));
        assert_eq!(shard.result.day(Day::new(0)).read_hits, 0);
        // The coordinator's order on this shard's FIFO: Boundary (the
        // counter is drained), then Install, then the new epoch's batches.
        shard.process(ToWorker::Boundary);
        let selected = contribution.recv().unwrap().unwrap();
        assert_eq!(selected, vec![5, 7, 9]);
        shard.process(ToWorker::Install(Day::new(1), selected));
        assert_eq!(shard.result.day(Day::new(1)).batch_allocations, 2);
        // Key 9 was selected but truncated at capacity.
        shard.process(batch_of(1, &[5, 7, 9, 3, 5]));
        let day1 = shard.result.day(Day::new(1));
        assert_eq!((day1.read_hits, day1.read_misses), (3, 2));
        // Only key 5 was touched twice in the new epoch.
        shard.process(ToWorker::Boundary);
        assert_eq!(contribution.recv().unwrap().unwrap(), vec![5]);
    }

    /// Groups each shard receives during the busiest day of `trace`.
    fn max_groups_in_a_day(trace: &SyntheticTrace, shards: usize) -> usize {
        let mut stream = trace.stream(Default::default());
        let mut pending: Vec<Batch> = (0..shards).map(|_| Batch::default()).collect();
        let (mut most, mut routed) = (0, vec![0; shards]);
        while let Some(msg) = stream.next_msg() {
            match msg {
                StreamMsg::StartDay(_) => pending.iter_mut().for_each(|b| *b = Batch::default()),
                StreamMsg::Chunk(requests) => {
                    for req in &requests {
                        route_request(req, shard_index(shards), &mut pending, &mut routed);
                    }
                    most = most.max(pending.iter().map(|b| b.groups.len()).max().unwrap());
                }
                StreamMsg::Failed(e) => panic!("stream failed: {e}"),
            }
        }
        most
    }

    #[test]
    fn batches_shipped_mid_day_change_nothing() {
        let trace = tiny();
        let c = cfg(&trace, 1 << 20);
        assert!(
            max_groups_in_a_day(&trace, 2) > 2 * BATCH_GROUPS,
            "the trace must fill several batches per shard within one day"
        );
        for spec in [PolicySpec::SieveStoreD { threshold: 5 }, PolicySpec::Wmna] {
            let want = reference(&trace, None, spec.clone(), &c);
            let (sharded, _) = simulate_sharded(&trace, spec, &c, 2).unwrap();
            assert_eq!(want.days, sharded.days);
            assert_eq!(
                SnapshotLog::from_result(&want).to_jsonl(),
                SnapshotLog::from_result(&sharded).to_jsonl()
            );
        }
    }

    proptest! {
        /// Walking each shard's flat batch gives back every request's
        /// blocks on that shard, in request order, at their per-block
        /// completion times — one non-empty group per touched shard.
        #[test]
        fn flat_batches_reproduce_every_request(
            raw in proptest::collection::vec((0u64..1 << 20, 1u32..=64, any::<bool>()), 1..40),
            shards in 1usize..=8,
        ) {
            let requests: Vec<Request> = raw.iter().enumerate().map(|(i, &(block, len, write))| {
                let kind = if write { RequestKind::Write } else { RequestKind::Read };
                let start = BlockAddr::new(ServerId::new(0), VolumeId::new(0), block);
                Request::new(Micros::from_secs(40 * i as u64), start, len, kind)
                    .with_response_time(Micros::new(977 * u64::from(len)))
            }).collect();
            let mut pending: Vec<Batch> = (0..shards).map(|_| Batch::default()).collect();
            let mut per_shard_blocks = vec![0u64; shards];
            for req in &requests {
                route_request(req, shard_index(shards), &mut pending, &mut per_shard_blocks);
            }
            let total: u64 = requests.iter().map(|r| u64::from(r.len_blocks)).sum();
            prop_assert_eq!(per_shard_blocks.iter().sum::<u64>(), total);
            for (s, batch) in pending.iter().enumerate() {
                let grouped: u64 = batch.groups.iter().map(|g| u64::from(g.len)).sum();
                prop_assert_eq!(grouped, per_shard_blocks[s]);
                prop_assert_eq!(batch.blocks.len() as u64, per_shard_blocks[s]);
                let mut fragments = batch.fragments();
                for req in &requests {
                    let want: Vec<(u64, Micros)> = req
                        .blocks()
                        .enumerate()
                        .filter(|(_, key)| shard_of(key.raw(), shards) == s)
                        .map(|(i, key)| (key.raw(), req.block_completion_time(i as u32)))
                        .collect();
                    if want.is_empty() {
                        continue; // an untouched shard gets no group at all
                    }
                    let (g, upcoming) = fragments.next().expect("one group per touched shard");
                    prop_assert_eq!(&upcoming[..g.len as usize], &want[..]);
                    prop_assert_eq!(g.minute, req.timestamp.minute());
                    prop_assert_eq!(g.completion_minute, req.completion_time().minute());
                    prop_assert_eq!(g.kind, req.kind);
                }
                prop_assert!(fragments.next().is_none());
            }
        }
    }
}
