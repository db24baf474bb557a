//! Striped server integration: the shard count must be semantically
//! transparent. A serial client sees byte-identical responses from the
//! one-shard and n-shard configurations under a deterministic policy,
//! the retry/breaker semantics survive unchanged, concurrent mixed
//! traffic stays ordered, fresh and exactly counted, and a panic under a
//! shard lock surfaces through `worker_panics()`, kills only its
//! connection and never wedges shutdown.

use std::io;
use std::time::Duration;

use sievestore::PolicySpec;
use sievestore_node::{
    BackingStore, Block, ClientConfig, DataCache, DurableMediaSet, FaultInjectingBacking,
    FaultPlan, MemBacking, NodeClient, NodeConfig, NodeMode, NodeServer, NodeServerBuilder,
    OpResult, PipedReply, PipedRequest, PipelinedClient, Reply, Request, RetryPolicy, WritePolicy,
};
use sievestore_sieve::TwoTierConfig;

fn block(fill: u8) -> [u8; 512] {
    [fill; 512]
}

/// Polls `cond` until it holds or a 5s deadline passes. The client can
/// observe a torn connection before the server thread's `catch_unwind`
/// finishes bookkeeping, so panic-counter asserts must wait.
fn wait_for(cond: impl Fn() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        retry: RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        },
        ..ClientConfig::default()
    }
}

/// Deterministic mixed workload: returns (is_write, key) pairs covering
/// every shard, with rereads so hits accrue.
fn workload(ops: usize, keys: u64) -> Vec<(bool, u64)> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..ops)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 32).is_multiple_of(3), state % keys)
        })
        .collect()
}

#[test]
fn sharded_round_trip_and_worker_gauges() {
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(2)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteThrough,
        )
        .expect("bind");
    assert_eq!(server.workers(), 2);

    let mut client = NodeClient::connect(server.addr()).expect("connect");
    for key in 0..16u64 {
        client.write_block(key, &block(key as u8)).expect("write");
    }
    for key in 0..16u64 {
        let (data, hit) = client.read_block(key).expect("read");
        assert!(hit, "key {key} resident after write");
        assert_eq!(data[0], key as u8);
    }
    assert_eq!(server.live_connections(), 1);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.read_hits, 16, "stats aggregate across all shards");
    assert_eq!(stats.write_misses, 16);
    assert_eq!(stats.resident_blocks, 16);

    client.quit().expect("quit");
    server.shutdown();
}

/// The shard counts every differential below runs at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The acceptance-level differential: with the deterministic
/// allocate-on-demand policy and no evictions, the sharded server must
/// answer every request byte-identically to the one-shard server —
/// same payloads, same hit bits, same final counters.
#[test]
fn sharded_matches_legacy_byte_for_byte_under_aod() {
    let ops = workload(400, 64);
    let drive = |addr| -> Vec<(bool, [u8; 512])> {
        let mut client = NodeClient::connect(addr).expect("connect");
        let out = ops
            .iter()
            .map(|&(is_write, key)| {
                if is_write {
                    let hit = client.write_block(key, &block(key as u8)).expect("write");
                    (hit, block(key as u8))
                } else {
                    let (data, hit) = client.read_block(key).expect("read");
                    (hit, data)
                }
            })
            .collect();
        client.quit().expect("quit");
        out
    };

    let legacy = {
        let cache =
            DataCache::new(MemBacking::new(), PolicySpec::Aod, 512).expect("valid appliance");
        NodeServerBuilder::new("127.0.0.1:0")
            .serve(cache)
            .expect("bind")
    };
    let legacy_replies = drive(legacy.addr());

    for workers in SHARD_COUNTS {
        let sharded = NodeServerBuilder::new("127.0.0.1:0")
            .workers(workers)
            .serve_sharded(
                MemBacking::new(),
                PolicySpec::Aod,
                512,
                WritePolicy::WriteThrough,
            )
            .expect("bind");
        let sharded_replies = drive(sharded.addr());
        for (i, (a, b)) in legacy_replies.iter().zip(&sharded_replies).enumerate() {
            assert_eq!(
                a.0, b.0,
                "{workers} shards: hit bit at op {i} ({:?})",
                ops[i]
            );
            assert_eq!(
                a.1, b.1,
                "{workers} shards: payload at op {i} ({:?})",
                ops[i]
            );
        }
        assert_eq!(
            legacy.stats(),
            sharded.stats(),
            "{workers} shards: final counters identical"
        );
        sharded.shutdown();
    }
    legacy.shutdown();
}

/// Sieve policies keep per-shard admission state, so hit bits may differ
/// across shard counts — but the data plane must still be correct:
/// payloads identical to the single-lock server on every op.
#[test]
fn sharded_matches_legacy_payloads_under_sieve_policy() {
    let policy = || {
        PolicySpec::SieveStoreC(
            TwoTierConfig::paper_default()
                .with_imct_entries(1 << 10)
                .with_thresholds(2, 1),
        )
    };
    let ops = workload(600, 96);
    let drive = |addr| -> Vec<[u8; 512]> {
        let mut client = NodeClient::connect(addr).expect("connect");
        let out = ops
            .iter()
            .map(|&(is_write, key)| {
                if is_write {
                    client.write_block(key, &block(key as u8)).expect("write");
                    block(key as u8)
                } else {
                    client.read_block(key).expect("read").0
                }
            })
            .collect();
        client.quit().expect("quit");
        out
    };

    let legacy = {
        let cache = DataCache::new(MemBacking::new(), policy(), 256).expect("valid appliance");
        NodeServerBuilder::new("127.0.0.1:0")
            .serve(cache)
            .expect("bind")
    };
    let legacy_replies = drive(legacy.addr());
    legacy.shutdown();

    for workers in SHARD_COUNTS {
        let sharded = NodeServerBuilder::new("127.0.0.1:0")
            .workers(workers)
            .serve_sharded(MemBacking::new(), policy(), 256, WritePolicy::WriteThrough)
            .expect("bind");
        let sharded_replies = drive(sharded.addr());
        for (i, (a, b)) in legacy_replies.iter().zip(&sharded_replies).enumerate() {
            assert_eq!(a, b, "{workers} shards: payload at op {i} ({:?})", ops[i]);
        }
        sharded.shutdown();
    }
}

/// `serve_sharded` slices a continuous policy's sieve with the cache
/// (`SieveStoreBuilder::shard`, as sharded replay does), so the shards'
/// IMCTs sum to the configured table and a block meets the counters it
/// would meet in one whole sieve. With a table small enough to alias
/// (256 slots under 2 048 keys) and capacity enough never to evict, one
/// connection replaying one tape reads the same counters at every shard
/// count — and a count that cannot be sliced that way (3 does not
/// divide 256) is refused, where a full-size table per shard would
/// quietly alias differently from the whole sieve.
#[test]
fn sieved_counters_are_shard_count_invariant() {
    let ops = workload(6_000, 2_048);
    let serve = |workers| {
        let policy = PolicySpec::SieveStoreC(
            TwoTierConfig::paper_default()
                .with_imct_entries(1 << 8)
                .with_thresholds(2, 1),
        );
        NodeServerBuilder::new("127.0.0.1:0")
            .workers(workers)
            .serve_sharded(MemBacking::new(), policy, 4_096, WritePolicy::WriteThrough)
    };
    let refused = serve(3).err().expect("3 shards cannot slice 256 slots");
    assert_eq!(refused.kind(), io::ErrorKind::InvalidInput, "{refused}");
    let counters = SHARD_COUNTS.map(|workers| {
        let server = serve(workers).expect("bind");
        let mut client = NodeClient::connect(server.addr()).expect("connect");
        for &(is_write, key) in &ops {
            if is_write {
                client.write_block(key, &block(key as u8)).expect("write");
            } else {
                client.read_block(key).expect("read");
            }
        }
        let stats = client.stats().expect("stats");
        client.quit().expect("quit");
        server.shutdown();
        assert!(stats.allocation_writes > 0, "the sieve admitted something");
        assert!(stats.allocation_writes < stats.read_misses + stats.write_misses);
        stats
    });
    assert_eq!(counters[0], counters[1], "1 shard against 2");
    assert_eq!(counters[0], counters[2], "1 shard against 4");
}

/// The existing client fault semantics — bounded retries, per-shard
/// breaker trip into degraded pass-through, probe-back recovery — hold
/// at every shard count. Hammering one key keeps every fault on a
/// single shard so the trip threshold behaves exactly as with one.
#[test]
fn sharded_preserves_retry_and_breaker_semantics() {
    for workers in SHARD_COUNTS {
        let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0xB4));
        let handle = backing.handle();
        let config = NodeConfig {
            breaker_threshold: 3,
            breaker_cooldown: 4,
            ..NodeConfig::default()
        };
        let server = NodeServerBuilder::new("127.0.0.1:0")
            .workers(workers)
            .config(config)
            .serve_sharded(backing, PolicySpec::Aod, 64, WritePolicy::WriteThrough)
            .expect("bind");

        let mut client = NodeClient::connect_with(server.addr(), fast_client()).expect("connect");
        client.write_block(0, &block(0x42)).expect("seed");

        // One transient fault on an uncached key (cache hits never reach
        // the backing): absorbed by a client retry, breaker stays closed.
        handle.fail_next(1);
        client.read_block(100).expect("retried read");
        assert!(client.retries() >= 1);
        assert_eq!(server.mode(), NodeMode::Healthy);

        // Sustained faults: retried reads of one uncached key keep every
        // failure on a single shard, tripping its breaker; the seeded key
        // still serves correct bytes (from cache or pass-through).
        handle.fail_next(3);
        client.read_block(50).expect("degraded read");
        assert_eq!(server.mode(), NodeMode::Degraded, "worst-rank mode");
        let (data, _) = client.read_block(0).expect("read during degradation");
        assert_eq!(data[0], 0x42);

        // Spend the tripped shard's cooldown; the probe then finds a
        // healed backing and closes its breaker.
        for _ in 0..8 {
            client.read_block(50).expect("recovery read");
        }
        assert_eq!(server.mode(), NodeMode::Healthy, "{workers} shards");

        client.quit().expect("quit");
        server.shutdown();
    }
}

#[test]
fn pipelined_client_saturates_sharded_server() {
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(3)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            256,
            WritePolicy::WriteThrough,
        )
        .expect("bind");

    let mut client = PipelinedClient::connect(server.addr(), 16).expect("connect");
    let mut done = Vec::new();
    for key in 0..96u64 {
        done.extend(client.write(key, &block(key as u8)).expect("write"));
    }
    for key in 0..96u64 {
        done.extend(client.read(key).expect("read"));
    }
    done.extend(client.drain().expect("drain"));
    assert_eq!(done.len(), 192);

    let mut read_hits = 0u64;
    for c in done {
        match c.result {
            Ok(OpResult::Read { hit, data }) => {
                assert_eq!(data[0], c.key as u8, "payload for key {}", c.key);
                read_hits += hit as u64;
            }
            Ok(OpResult::Write { .. }) => {}
            Err(e) => panic!("op on key {} failed: {e}", c.key),
        }
    }
    assert_eq!(read_hits, 96, "all reads hit after the write pass");
    assert_eq!(server.stats().read_hits, 96);

    client.quit().expect("quit");
    server.shutdown();
}

/// A backing store whose reads of one key blow up, for the satellite (f)
/// regression: worker panics must be counted, carry their message, and
/// never wedge `shutdown()`.
struct PanickingBacking {
    inner: MemBacking,
    panic_key: u64,
}

impl BackingStore for PanickingBacking {
    fn read_block(&self, key: u64) -> io::Result<Block> {
        assert!(key != self.panic_key, "intentional backing panic");
        self.inner.read_block(key)
    }

    fn write_block(&self, key: u64, data: &Block) -> io::Result<()> {
        self.inner.write_block(key, data)
    }
}

#[test]
fn legacy_server_survives_worker_panic_and_shuts_down() {
    let backing = PanickingBacking {
        inner: MemBacking::new(),
        panic_key: 7,
    };
    let cache = DataCache::new(backing, PolicySpec::Aod, 64).expect("valid appliance");
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .serve(cache)
        .expect("bind");

    let no_retry = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };
    let mut client = NodeClient::connect_with(server.addr(), no_retry).expect("connect");
    client.write_block(1, &block(1)).expect("healthy write");
    let err = client
        .read_block(7)
        .expect_err("panicking read kills the connection");
    assert!(err.is_transient(), "client sees a transport error: {err}");

    wait_for(|| server.worker_panics() == 1, "panic ledger update");
    let msg = server
        .first_panic_message()
        .expect("panic message captured");
    assert!(msg.contains("intentional backing panic"), "got {msg:?}");

    // The node keeps serving other connections after one died.
    let mut again = NodeClient::connect_with(server.addr(), no_retry).expect("reconnect");
    let (data, hit) = again.read_block(1).expect("read after panic");
    assert!(hit);
    assert_eq!(data[0], 1);
    again.quit().expect("quit");

    server.shutdown();
}

/// One rule at every shard count: a panic under a shard lock is
/// recorded, kills only its connection, and the node keeps serving
/// every shard — the panicked one included.
#[test]
fn sharded_server_propagates_worker_panic_and_shuts_down() {
    let backing = PanickingBacking {
        inner: MemBacking::new(),
        panic_key: 7,
    };
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(2)
        .serve_sharded(backing, PolicySpec::Aod, 64, WritePolicy::WriteThrough)
        .expect("bind");

    let no_retry = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };
    let mut client = NodeClient::connect_with(server.addr(), no_retry).expect("connect");
    // One key on the shard about to panic, one on the other.
    let shard = |key| sievestore_types::shard_of(key, 2);
    let same = (8u64..).find(|&k| shard(k) == shard(7)).expect("a key");
    let other = (8u64..).find(|&k| shard(k) != shard(7)).expect("a key");
    for key in [same, other] {
        client
            .write_block(key, &block(key as u8))
            .expect("healthy write");
    }
    let err = client
        .read_block(7)
        .expect_err("panicking read kills the connection");
    assert!(err.is_transient(), "client sees a transport error: {err}");

    wait_for(|| server.worker_panics() == 1, "panic ledger update");
    let msg = server
        .first_panic_message()
        .expect("panic message captured");
    assert!(msg.contains("intentional backing panic"), "got {msg:?}");

    // A second connection reads keys of both shards: the lock the
    // panic unwound through is not poisoned.
    let mut again = NodeClient::connect_with(server.addr(), no_retry).expect("reconnect");
    for key in [same, other] {
        let (data, hit) = again.read_block(key).expect("read after panic");
        assert!(hit, "key {key} still resident");
        assert_eq!(data[0], key as u8);
    }
    again.quit().expect("quit");
    assert_eq!(server.worker_panics(), 1);

    server.shutdown();
}

/// Regression: a plain flush in ordering slot 0 and a piped flush with
/// corr 0 on the same connection produce colliding (conn, slot, corr)
/// keys; fan-out aggregation must match the full op token or one flush
/// absorbs completions belonging to the other and the counts cross.
#[test]
fn concurrent_plain_and_piped_flushes_aggregate_separately() {
    use std::io::{BufReader, BufWriter, Write};
    use std::net::TcpStream;

    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(3)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteBack,
        )
        .expect("bind");

    // Dirty one frame per key across every shard: read to allocate,
    // write-hit to dirty.
    let mut client = NodeClient::connect(server.addr()).expect("connect");
    for key in 0..12u64 {
        client.read_block(key).expect("prime residency");
        client.write_block(key, &block(key as u8)).expect("dirty");
    }
    client.quit().expect("quit");

    // Same connection, same batch: a plain flush (first request, so
    // ordering slot 0) and a piped flush with corr 0.
    let stream = TcpStream::connect(server.addr()).expect("connect raw");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut batch = Vec::new();
    Request::Flush.encode_into(&mut batch);
    PipedRequest {
        corr: 0,
        request: Request::Flush,
    }
    .encode_into(&mut batch);
    writer.write_all(&batch).expect("write batch");
    writer.flush().expect("flush batch");

    // The plain flush fanned out first (rings are FIFO), so it collects
    // every dirty frame; the piped flush chasing it finds nothing left.
    let plain = Reply::decode(&mut reader).expect("plain flush reply");
    assert!(
        matches!(plain, Reply::Flush { flushed: 12 }),
        "plain flush must aggregate all 12 dirty frames, got {plain:?}"
    );
    let piped = PipedReply::decode(&mut reader).expect("piped flush reply");
    assert_eq!(piped.corr, 0);
    assert!(
        matches!(piped.reply, Reply::Flush { flushed: 0 }),
        "piped flush must not steal the plain flush's completions, got {:?}",
        piped.reply
    );

    // The connection stays serviceable afterwards.
    let mut probe = Vec::new();
    PipedRequest {
        corr: 9,
        request: Request::Read { key: 3 },
    }
    .encode_into(&mut probe);
    writer.write_all(&probe).expect("write probe");
    writer.flush().expect("flush probe");
    let reply = PipedReply::decode(&mut reader).expect("probe reply");
    assert_eq!(reply.corr, 9);
    assert!(matches!(reply.reply, Reply::Read { hit: true, .. }));

    Request::Quit.encode(&mut writer).expect("quit");
    writer.flush().ok();
    server.shutdown();
}

/// Regression: a client that pipelines requests but never reads replies
/// must not pin its connection thread forever — once the kernel's socket
/// buffers fill, the server's `write_all` blocks, and the idle timeout
/// (which bounds writes as well as reads) reaps the connection. Every
/// builder entry point runs the one connection loop, so all three are
/// held to it.
#[test]
fn stalled_reader_with_write_backlog_is_reaped() {
    let builder = || {
        NodeServerBuilder::new("127.0.0.1:0").config(NodeConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..NodeConfig::default()
        })
    };
    let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 64).expect("valid appliance");
    stalled_reader_is_reaped(builder().serve(cache).expect("bind"), "serve");
    let (durable, _) = builder()
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteThrough,
            DurableMediaSet::in_memory(),
        )
        .expect("bind");
    stalled_reader_is_reaped(durable, "serve_durable");
    let sharded = builder()
        .workers(2)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteThrough,
        )
        .expect("bind");
    stalled_reader_is_reaped(sharded, "serve_sharded");
}

fn stalled_reader_is_reaped<B: BackingStore + 'static>(server: NodeServer<B>, flavor: &str) {
    use std::io::Write;
    use std::net::TcpStream;

    // Pipeline far more reply bytes than the kernel socket buffers can
    // absorb and never read any of them. The writer gets its own
    // thread: once the server stops reading (it is stuck writing) and
    // then kills the connection, the writes fail — that is expected.
    let stream = TcpStream::connect(server.addr()).expect("connect");
    wait_for(
        || server.live_connections() == 1,
        &format!("{flavor}: connection being served"),
    );
    let writer_stream = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let mut s = writer_stream;
        let mut frame = Vec::new();
        for corr in 0..32_000u32 {
            frame.clear();
            PipedRequest {
                corr,
                request: Request::Read { key: 1 },
            }
            .encode_into(&mut frame);
            if s.write_all(&frame).is_err() {
                break;
            }
        }
    });

    wait_for(
        || server.live_connections() == 0,
        &format!("{flavor}: stalled connection reaped"),
    );
    writer.join().expect("writer thread");
    drop(stream);
    server.shutdown();
}

/// The benchmark's correctness check, in-tree: 8 connections over 4
/// shards send mixed plain and enveloped reads and writes, one writer
/// per key, every payload carrying its key and version. Every read must
/// come back intact and no older than the last write any connection had
/// seen acknowledged when the read was sent; plain replies must arrive
/// in request order; and the final `Stats` must count exactly the
/// operations issued — it reads every shard under its lock.
#[test]
fn concurrent_mixed_traffic_is_ordered_fresh_and_exactly_counted() {
    use std::collections::{HashMap, VecDeque};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    const CONNS: u64 = 8;
    const KEYS: u64 = 128;
    const ROUNDS: u64 = 60;
    const BATCH: u64 = 16;

    fn versioned(key: u64, version: u64) -> Block {
        let mut data = [0u8; 512];
        data[..8].copy_from_slice(&key.to_le_bytes());
        data[8..16].copy_from_slice(&version.to_le_bytes());
        for (i, byte) in data.iter_mut().enumerate().skip(16) {
            *byte = (key ^ version).wrapping_mul(31).wrapping_add(i as u64) as u8;
        }
        data
    }
    /// The version an intact payload of `key` carries (0: never written).
    fn version_of(key: u64, data: &Block) -> Option<u64> {
        if data == &[0u8; 512] {
            return Some(0);
        }
        let version = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        (data == &versioned(key, version)).then_some(version)
    }

    #[derive(Clone, Copy)]
    enum Sent {
        Read { key: u64, min_version: u64 },
        Write { key: u64, version: u64 },
        Stats,
    }

    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(4)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            2 * KEYS as usize,
            WritePolicy::WriteThrough,
        )
        .expect("bind");
    let addr = server.addr();
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(Barrier::new(CONNS as usize));

    let threads: Vec<_> = (0..CONNS)
        .map(|conn| {
            let acked = Arc::clone(&acked);
            let start = Arc::clone(&start);
            std::thread::spawn(move || -> (u64, u64) {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(conn + 1);
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut versions: HashMap<u64, u64> = HashMap::new();
                let (mut reads, mut writes, mut seen_total) = (0u64, 0u64, 0u64);
                start.wait();
                for round in 0..ROUNDS {
                    let mut batch = Vec::new();
                    let mut plain: VecDeque<Sent> = VecDeque::new();
                    let mut piped: HashMap<u32, Sent> = HashMap::new();
                    for i in 0..BATCH {
                        let r = next();
                        let (request, sent) = if i == 0 && round % 8 == 0 {
                            (Request::Stats, Sent::Stats)
                        } else if r % 3 == 0 {
                            // This connection is the only writer of the
                            // keys congruent to its index.
                            let key = (r >> 8) % (KEYS / CONNS) * CONNS + conn;
                            let version = versions.entry(key).or_insert(0);
                            *version += 1;
                            writes += 1;
                            let data = Box::new(versioned(key, *version));
                            let version = *version;
                            (Request::Write { key, data }, Sent::Write { key, version })
                        } else {
                            let key = (r >> 8) % KEYS;
                            let min_version = acked[key as usize].load(Ordering::SeqCst);
                            reads += 1;
                            (Request::Read { key }, Sent::Read { key, min_version })
                        };
                        if (r >> 40) % 2 == 0 {
                            request.encode_into(&mut batch);
                            plain.push_back(sent);
                        } else {
                            let corr = (round * BATCH + i) as u32;
                            PipedRequest { corr, request }.encode_into(&mut batch);
                            piped.insert(corr, sent);
                        }
                    }
                    stream.write_all(&batch).expect("send batch");
                    for _ in 0..BATCH {
                        let mut len = [0u8; 4];
                        stream.read_exact(&mut len).expect("reply length");
                        let mut frame = len.to_vec();
                        frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
                        stream.read_exact(&mut frame[4..]).expect("reply payload");
                        let (sent, reply) = if frame[4] == 0x90 {
                            let reply = PipedReply::decode(&mut &frame[..]).expect("envelope");
                            let sent = piped.remove(&reply.corr).expect("a corr we sent");
                            (sent, reply.reply)
                        } else {
                            // Plain replies come back in request order.
                            let reply = Reply::decode(&mut &frame[..]).expect("plain reply");
                            (plain.pop_front().expect("a plain request"), reply)
                        };
                        match (sent, reply) {
                            (Sent::Read { key, min_version }, Reply::Read { data, .. }) => {
                                let version = version_of(key, &data)
                                    .unwrap_or_else(|| panic!("conn {conn}: key {key} torn"));
                                assert!(
                                    version >= min_version,
                                    "conn {conn}: key {key} read v{version} after v{min_version} was acked"
                                );
                            }
                            (Sent::Write { key, version }, Reply::Write { .. }) => {
                                acked[key as usize].fetch_max(version, Ordering::SeqCst);
                            }
                            (
                                Sent::Stats,
                                Reply::Stats {
                                    read_hits,
                                    write_hits,
                                    read_misses,
                                    write_misses,
                                    ..
                                },
                            ) => {
                                let total = read_hits + write_hits + read_misses + write_misses;
                                assert!(total >= seen_total, "conn {conn}: stats went backwards");
                                seen_total = total;
                            }
                            (_, other) => panic!("conn {conn}: mismatched reply {other:?}"),
                        }
                    }
                    assert!(plain.is_empty() && piped.is_empty());
                }
                Request::Quit.encode(&mut stream).expect("quit");
                (reads, writes)
            })
        })
        .collect();
    let (mut reads, mut writes) = (0, 0);
    for thread in threads {
        let (r, w) = thread.join().expect("connection thread");
        reads += r;
        writes += w;
    }

    let mut client = NodeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.read_hits + stats.read_misses,
        reads,
        "every read counted once"
    );
    assert_eq!(
        stats.write_hits + stats.write_misses,
        writes,
        "every write counted once"
    );
    client.quit().expect("quit");
    assert_eq!(server.worker_panics(), 0);
    server.shutdown();
}

/// A backing store whose read of one key waits at a gate, holding its
/// shard's lock for as long as the test wants.
struct GatedBacking {
    inner: MemBacking,
    gate_key: u64,
    entered: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl BackingStore for GatedBacking {
    fn read_block(&self, key: u64) -> io::Result<Block> {
        if key == self.gate_key {
            self.entered.lock().unwrap().send(()).expect("test waits");
            self.release.lock().unwrap().recv().expect("test releases");
        }
        self.inner.read_block(key)
    }

    fn write_block(&self, key: u64, data: &Block) -> io::Result<()> {
        self.inner.write_block(key, data)
    }
}

/// The observability that replaced the worker queue gauge: a request
/// that finds its shard's lock held is counted before it blocks, and is
/// served once the holder lets go.
#[test]
fn a_request_that_waits_for_its_shard_lock_is_counted() {
    use sievestore_types::obs::{self, CounterId};

    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel();
    let shard = |key| sievestore_types::shard_of(key, 2);
    let neighbour = (8u64..).find(|&k| shard(k) == shard(7)).expect("a key");
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(2)
        .serve_sharded(
            GatedBacking {
                inner: MemBacking::new(),
                gate_key: 7,
                entered: std::sync::Mutex::new(entered_tx),
                release: std::sync::Mutex::new(release_rx),
            },
            PolicySpec::Aod,
            64,
            WritePolicy::WriteThrough,
        )
        .expect("bind");
    obs::set_enabled(true);
    let contended = || obs::global().counter(CounterId::NodeShardLockContended);
    let before = contended();

    // Connection A misses on the gated key: its thread now sits in the
    // backing store, under the shard's lock.
    let addr = server.addr();
    let holder = std::thread::spawn(move || {
        let mut a = NodeClient::connect(addr).expect("connect a");
        a.read_block(7).expect("gated read");
        a.quit().expect("quit a");
    });
    entered_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a holds the shard lock");

    // Connection B asks the same shard for another key and must wait.
    let waiter = std::thread::spawn(move || {
        let mut b = NodeClient::connect(addr).expect("connect b");
        b.write_block(neighbour, &block(0xB0))
            .expect("write behind the lock");
        b.quit().expect("quit b");
    });
    wait_for(|| contended() > before, "b's wait to be counted");
    release_tx.send(()).expect("release the gate");
    holder.join().expect("connection a");
    waiter.join().expect("connection b");
    server.shutdown();
}
