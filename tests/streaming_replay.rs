//! Differential tests for the streaming replay pipeline.
//!
//! Every engine entry point now consumes the generate-as-you-go trace
//! stream instead of materializing `day_requests`; these tests pin that
//! nothing moved in the transition:
//!
//! * the stream's request sequence is byte-identical to the materialized
//!   per-day sort, for every chunk size and in spill-to-disk mode, and
//!   matches committed golden digests (`tiny(42)`, and the benchmark's
//!   `msr_like()` stream at 1/32768);
//! * replay figures (per-day metrics *and* day-snapshot JSONL bytes) are
//!   invariant under the stream shape, the counting backend (in-memory
//!   vs spill), the shard count (1, 2, 4), the eviction policy (LRU and
//!   SIEVE) and the policy family (discrete and continuous);
//! * streams sharing one spill dir run side by side without touching
//!   each other's runs.

use std::path::PathBuf;

use sievestore::PolicySpec;
use sievestore_extsort::CountingConfig;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{
    simulate, simulate_sharded, simulate_with_snapshots, EvictionPolicy, SimConfig, SnapshotLog,
};
use sievestore_trace::{EnsembleConfig, Scale, StreamMsg, SyntheticTrace, TraceStreamConfig};
use sievestore_types::{mix64, Day, Request, RequestKind};

/// Large enough that no policy under the tiny traces ever evicts, so
/// continuous policies are also shard-count invariant (see
/// `tests/sharded_replay.rs` for the regime argument).
const AMPLE_CAPACITY: usize = 1 << 20;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Order-sensitive digest step: every field of the request feeds the
/// accumulator, so any reorder, drop, duplicate or field corruption in a
/// sequence changes the folded value.
fn fold_request(acc: u64, r: &Request) -> u64 {
    let mut acc = mix64(acc ^ r.timestamp.as_u64());
    acc = mix64(acc ^ u64::from(r.start.server.index()));
    acc = mix64(acc ^ u64::from(r.start.volume.index()));
    acc = mix64(acc ^ r.start.block);
    acc = mix64(acc ^ u64::from(r.len_blocks));
    acc = mix64(acc ^ matches!(r.kind, RequestKind::Write) as u64);
    mix64(acc ^ r.response_time.as_u64())
}

fn digest<'a>(requests: impl IntoIterator<Item = &'a Request>) -> u64 {
    requests.into_iter().fold(0, fold_request)
}

/// Drains a stream into (day-marker sequence, request digest).
fn drain(trace: &SyntheticTrace, config: TraceStreamConfig) -> (Vec<Day>, u64) {
    let mut stream = trace.stream(config);
    let mut days = Vec::new();
    let mut acc = 0u64;
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(day) => days.push(day),
            StreamMsg::Chunk(chunk) => {
                acc = chunk.iter().fold(acc, fold_request);
                stream.recycle(chunk);
            }
            StreamMsg::Failed(e) => panic!("stream failed: {e}"),
        }
    }
    (days, acc)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sievestore-streaming-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny_trace(seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(EnsembleConfig::tiny(seed)).expect("tiny trace")
}

fn cfg(trace: &SyntheticTrace) -> SimConfig {
    SimConfig::paper_16gb(trace.config().scale.denominator()).with_capacity_blocks(AMPLE_CAPACITY)
}

/// The stream is the materialized per-day sort, chunk boundaries and
/// backing store notwithstanding — and both match a pinned golden digest,
/// so a bug that shifts generator *and* materializer together still trips.
#[test]
fn stream_matches_materialized_and_golden_digest() {
    let trace = tiny_trace(42);
    let expected_days: Vec<Day> = (0..trace.days()).map(Day::new).collect();
    let all: Vec<Request> = expected_days
        .iter()
        .flat_map(|&d| trace.day_requests(d))
        .collect();
    let materialized = digest(&all);

    let shapes: Vec<(&str, TraceStreamConfig)> = vec![
        ("default", TraceStreamConfig::default()),
        (
            "chunk-7",
            TraceStreamConfig::default()
                .with_chunk_requests(7)
                .with_depth(1),
        ),
        (
            "chunk-4096",
            TraceStreamConfig::default().with_chunk_requests(4096),
        ),
        (
            "spill",
            TraceStreamConfig::default()
                .with_chunk_requests(33)
                .with_spill_dir(scratch_dir("golden").join("trace")),
        ),
    ];
    for (name, shape) in shapes {
        let (days, got) = drain(&trace, shape);
        assert_eq!(days, expected_days, "{name}: day markers diverged");
        assert_eq!(got, materialized, "{name}: request sequence diverged");
    }

    // Golden digest for EnsembleConfig::tiny(42). If this moves, the
    // generator's output changed for everyone — including the committed
    // CI baselines — and the change must be deliberate.
    assert_eq!(materialized, GOLDEN_TINY_42);
    std::fs::remove_dir_all(scratch_dir("golden")).ok();
}

/// Pinned by `stream_matches_materialized_and_golden_digest`.
const GOLDEN_TINY_42: u64 = 0xD915_971A_5A97_99D8;

/// Two streams on one spill dir, drained at the same time: each spills
/// into a directory of its own, so each delivers the golden sequence.
#[test]
fn concurrent_streams_share_a_spill_dir() {
    let trace = tiny_trace(42);
    let dir = scratch_dir("shared-spill");
    let shape = TraceStreamConfig::default()
        .with_chunk_requests(64)
        .with_depth(1)
        .with_spill_dir(dir.join("trace"));
    let digests: Vec<u64> = std::thread::scope(|scope| {
        let drains: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| drain(&trace, shape.clone()).1))
            .collect();
        drains.into_iter().map(|d| d.join().unwrap()).collect()
    });
    assert_eq!(digests, [GOLDEN_TINY_42; 2]);
    let leftover = std::fs::read_dir(dir.join("trace")).unwrap().count();
    assert_eq!(leftover, 0, "each stream removes its own spill dir");
    std::fs::remove_dir_all(dir).ok();
}

/// The benchmark's trace model, `EnsembleConfig::msr_like()` at scale
/// 1/32768 with seed 1, streamed in memory and spilled. The benchmark's
/// replay goldens are built on this stream; pinning it here makes a
/// generator change trip the tier-1 tests too.
#[test]
fn msr_like_stream_matches_golden_digest() {
    let trace = SyntheticTrace::new(
        EnsembleConfig::msr_like()
            .with_scale(Scale::new(32768).expect("valid scale"))
            .with_seed(1),
    )
    .expect("msr_like trace");
    let dir = scratch_dir("msr-like");
    let shapes = [
        ("in-memory", TraceStreamConfig::default()),
        (
            "spill",
            TraceStreamConfig::default().with_spill_dir(dir.join("trace")),
        ),
    ];
    for (name, shape) in shapes {
        let (days, got) = drain(&trace, shape);
        assert_eq!(days.len(), trace.days() as usize, "{name}: day markers");
        assert_eq!(
            got, GOLDEN_MSR_LIKE_32768_1,
            "{name}: msr_like stream digest {got:#018X} moved"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Pinned by `msr_like_stream_matches_golden_digest`.
const GOLDEN_MSR_LIKE_32768_1: u64 = 0x9874_D3A3_6E76_32E4;

/// Replay figures are invariant under the stream shape and the counting
/// backend: per-day metrics and the exported day-snapshot bytes must not
/// know how the requests were delivered or where epoch counts lived.
#[test]
fn replay_is_invariant_under_stream_shape_and_counting_backend() {
    let trace = tiny_trace(7);
    let base = cfg(&trace);
    let spec = PolicySpec::SieveStoreD { threshold: 10 };
    let (reference, reference_log) =
        simulate_with_snapshots(&trace, spec.clone(), &base).expect("reference run");

    let spill_root = scratch_dir("shape");
    let variants: Vec<(&str, SimConfig)> = vec![
        (
            "tiny-chunks",
            base.clone().with_trace_stream(
                TraceStreamConfig::default()
                    .with_chunk_requests(13)
                    .with_depth(1),
            ),
        ),
        (
            "spilled-trace",
            base.clone().with_trace_stream(
                TraceStreamConfig::default()
                    .with_chunk_requests(257)
                    .with_spill_dir(spill_root.join("trace")),
            ),
        ),
        (
            "spilled-counting",
            base.clone()
                .with_counting(CountingConfig::spill(spill_root.join("counts"))),
        ),
        (
            // The spill backend cannot hold the resident bit: sharded
            // workers fall back to probing their epoch cache, and a budget
            // this small drains the hot map many times an epoch.
            "spilled-counting-sharded",
            base.clone()
                .with_workers(2)
                .with_counting(CountingConfig::spill(spill_root.join("counts3")).with_budget(64)),
        ),
        (
            "spilled-everything",
            base.clone()
                .with_trace_stream(
                    TraceStreamConfig::default()
                        .with_chunk_requests(101)
                        .with_spill_dir(spill_root.join("trace2")),
                )
                .with_counting(CountingConfig::spill(spill_root.join("counts2"))),
        ),
    ];
    for (name, variant) in variants {
        let (result, log) =
            simulate_with_snapshots(&trace, spec.clone(), &variant).expect("variant run");
        assert_eq!(reference.days, result.days, "{name}: day metrics diverged");
        assert_eq!(
            reference_log.to_jsonl(),
            log.to_jsonl(),
            "{name}: snapshot bytes diverged"
        );
    }
    std::fs::remove_dir_all(&spill_root).ok();
}

/// A spill-counted discrete replay cleans up after itself: every epoch's
/// counter directory is gone once `simulate` returns, the last epoch's
/// (dropped without being finished) included, at one worker and at two.
#[test]
fn spill_counting_leaves_no_counter_directories() {
    let trace = tiny_trace(42);
    let root = scratch_dir("spill-leak");
    for workers in [1, 2] {
        let config = cfg(&trace)
            .with_workers(workers)
            .with_counting(CountingConfig::spill(&root));
        simulate(&trace, PolicySpec::SieveStoreD { threshold: 10 }, &config).expect("replay");
        let left: Vec<String> = std::fs::read_dir(&root)
            .expect("spill root")
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("epoch-"))
            .collect();
        assert!(left.is_empty(), "{workers} worker(s) left {left:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The satellite matrix: discrete and continuous policies, LRU and SIEVE
/// eviction, shard counts 1/2/4 — all must reproduce the one-worker
/// metrics and day-snapshot bytes exactly under the streaming pipeline
/// (`tests/sharded_replay.rs` holds one worker to the appliance itself).
#[test]
fn sharded_streaming_matches_sequential_across_policies_and_eviction() {
    let trace = tiny_trace(11);
    let specs: Vec<PolicySpec> = vec![
        PolicySpec::SieveStoreD { threshold: 10 },
        PolicySpec::RandSieveBlkD {
            fraction: 0.01,
            seed: 0xB10C,
        },
        PolicySpec::SieveStoreC(TwoTierConfig::paper_default().with_imct_entries(1 << 14)),
        PolicySpec::Aod,
    ];
    for eviction in [EvictionPolicy::Lru, EvictionPolicy::Sieve] {
        let base = cfg(&trace).with_eviction(eviction);
        for spec in &specs {
            let sequential = simulate(&trace, spec.clone(), &base).expect("sequential");
            let sequential_jsonl = SnapshotLog::from_result(&sequential).to_jsonl();
            for shards in SHARD_COUNTS {
                let (sharded, stats) =
                    simulate_sharded(&trace, spec.clone(), &base, shards).expect("sharded");
                assert_eq!(
                    sequential.days, sharded.days,
                    "{spec:?} under {eviction} diverged at {shards} shards"
                );
                assert_eq!(
                    sequential_jsonl,
                    SnapshotLog::from_result(&sharded).to_jsonl(),
                    "{spec:?} under {eviction}: snapshot bytes diverged at {shards} shards"
                );
                assert_eq!(
                    stats.total_blocks(),
                    sequential.total().accesses(),
                    "{spec:?} under {eviction}: routing dropped blocks at {shards} shards"
                );
            }
        }
    }
}
