//! Pipelined protocol integration: many requests in flight per
//! connection must complete correctly, out-of-order-tolerant via
//! correlation ids, and leave the cache in exactly the state a serial
//! client would — while preserving the retry/breaker fault semantics of
//! the serial path.

use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sievestore::PolicySpec;
use sievestore_node::protocol::split_frame;
use sievestore_node::{
    BackingStore, ClientConfig, DataCache, DurableMediaSet, ErrorCode, FaultHandle,
    FaultInjectingBacking, FaultPlan, Incoming, MemBacking, NodeClient, NodeConfig, NodeMode,
    NodeServer, NodeServerBuilder, OpResult, PipedReply, PipedRequest, PipelinedClient, Reply,
    Request, RetryPolicy, WritePolicy,
};
use sievestore_types::NodeError;

fn block(fill: u8) -> [u8; 512] {
    [fill; 512]
}

/// A fast deterministic retry schedule for fault tests.
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

#[test]
fn pipelined_writes_and_reads_round_trip() {
    let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 64).expect("valid appliance");
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .serve(cache)
        .expect("bind");
    let mut client = PipelinedClient::connect(server.addr(), 8).expect("connect");

    let mut completions = Vec::new();
    for key in 0..32u64 {
        completions.extend(client.write(key, &block(key as u8)).expect("submit write"));
    }
    completions.extend(client.drain().expect("drain writes"));
    assert_eq!(completions.len(), 32, "every write completes exactly once");
    for c in &completions {
        assert!(
            matches!(c.result, Ok(OpResult::Write { .. })),
            "write of key {} failed: {:?}",
            c.key,
            c.result
        );
    }

    let mut completions = Vec::new();
    for key in 0..32u64 {
        completions.extend(client.read(key).expect("submit read"));
    }
    completions.extend(client.drain().expect("drain reads"));
    assert_eq!(completions.len(), 32);
    for c in completions {
        match c.result {
            Ok(OpResult::Read { hit, data }) => {
                assert!(hit, "key {} resident after write", c.key);
                assert_eq!(data[0], c.key as u8, "payload for key {}", c.key);
            }
            other => panic!("read of key {} returned {other:?}", c.key),
        }
    }

    assert_eq!(client.in_flight(), 0);
    client.quit().expect("quit");
    server.shutdown();
}

/// The differential check for satellite (c): the same logical workload
/// driven serially and pipelined must leave byte-identical cache state —
/// identical appliance counters and identical data on every key.
#[test]
fn pipelined_and_serial_clients_reach_identical_cache_state() {
    let spawn = || {
        let cache =
            DataCache::new(MemBacking::new(), PolicySpec::Aod, 128).expect("valid appliance");
        NodeServerBuilder::new("127.0.0.1:0")
            .serve(cache)
            .expect("bind")
    };
    let serial_server = spawn();
    let piped_server = spawn();

    // Workload: populate, re-read hot keys, probe cold keys, overwrite.
    let writes: Vec<u64> = (0..24).collect();
    let rereads: Vec<u64> = (0..24).chain(0..8).collect();
    let cold: Vec<u64> = (100..108).collect();
    let overwrites: Vec<u64> = (5..10).collect();

    // Serial client.
    {
        let mut c = NodeClient::connect(serial_server.addr()).expect("connect");
        for &k in &writes {
            c.write_block(k, &block(k as u8)).expect("write");
        }
        for &k in &rereads {
            c.read_block(k).expect("read");
        }
        for &k in &cold {
            c.read_block(k).expect("cold read");
        }
        for &k in &overwrites {
            c.write_block(k, &block(0xA0 | k as u8)).expect("overwrite");
        }
        c.quit().expect("quit");
    }

    // Pipelined client, window 6, same logical order.
    {
        let mut c = PipelinedClient::connect(piped_server.addr(), 6).expect("connect");
        for &k in &writes {
            c.write(k, &block(k as u8)).expect("write");
        }
        for &k in &rereads {
            c.read(k).expect("read");
        }
        for &k in &cold {
            c.read(k).expect("cold read");
        }
        for &k in &overwrites {
            c.write(k, &block(0xA0 | k as u8)).expect("overwrite");
        }
        let done = c.drain().expect("drain");
        assert!(done.iter().all(|c| c.result.is_ok()));
        c.quit().expect("quit");
    }

    assert_eq!(
        serial_server.stats(),
        piped_server.stats(),
        "serial and pipelined workloads must produce identical counters"
    );
    assert_eq!(serial_server.mode(), piped_server.mode());

    // Every key holds identical bytes on both nodes.
    let mut a = NodeClient::connect(serial_server.addr()).expect("connect");
    let mut b = NodeClient::connect(piped_server.addr()).expect("connect");
    for k in writes.iter().chain(&cold) {
        let (da, _) = a.read_block(*k).expect("read a");
        let (db, _) = b.read_block(*k).expect("read b");
        assert_eq!(da, db, "key {k} diverged between serial and pipelined");
    }
    a.quit().expect("quit");
    b.quit().expect("quit");
    serial_server.shutdown();
    piped_server.shutdown();
}

/// Raw wire check: enveloped requests echo the client-chosen correlation
/// id on the matching reply, and a batch written as one TCP segment
/// comes back as one reply per request.
#[test]
fn piped_envelopes_echo_correlation_ids() {
    let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 64).expect("valid appliance");
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .serve(cache)
        .expect("bind");

    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    // Batch two envelopes with deliberately non-sequential corr ids into
    // a single write.
    let mut batch = Vec::new();
    PipedRequest {
        corr: 0xDEAD_BEEF,
        request: Request::Write {
            key: 9,
            data: Box::new(block(0x99)),
        },
    }
    .encode_into(&mut batch);
    PipedRequest {
        corr: 7,
        request: Request::Read { key: 9 },
    }
    .encode_into(&mut batch);
    writer.write_all(&batch).expect("write batch");
    writer.flush().expect("flush");

    let first = PipedReply::decode(&mut reader).expect("first reply");
    assert_eq!(first.corr, 0xDEAD_BEEF);
    let second = PipedReply::decode(&mut reader).expect("second reply");
    assert_eq!(second.corr, 7);
    match second.reply {
        sievestore_node::Reply::Read { hit, data } => {
            assert!(hit);
            assert_eq!(data[0], 0x99);
        }
        other => panic!("expected read reply, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn pipelined_client_retries_transient_faults_in_place() {
    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0x91));
    let handle = backing.handle();
    let cache = DataCache::new(backing, PolicySpec::Aod, 64).expect("valid appliance");
    // High threshold: the breaker must stay closed so the retry itself
    // is what absorbs the fault.
    let config = NodeConfig {
        breaker_threshold: 100,
        ..NodeConfig::default()
    };
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .serve(cache)
        .expect("bind");

    let mut client =
        PipelinedClient::connect_with(server.addr(), fast_client(), 4).expect("connect");
    handle.fail_next(1);
    client.read(3).expect("submit");
    let done = client.drain().expect("drain");
    assert_eq!(done.len(), 1);
    assert!(done[0].result.is_ok(), "retry absorbs the transient fault");
    assert!(client.retries() >= 1, "the fault cost at least one retry");

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn pipelined_op_fails_individually_when_retries_exhausted() {
    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0x92));
    let handle = backing.handle();
    let cache = DataCache::new(backing, PolicySpec::Aod, 64).expect("valid appliance");
    let config = NodeConfig {
        breaker_threshold: 100,
        ..NodeConfig::default()
    };
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .serve(cache)
        .expect("bind");

    let no_retry = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };
    let mut client = PipelinedClient::connect_with(server.addr(), no_retry, 4).expect("connect");

    // One doomed read between two healthy ops: only the faulted op may
    // fail; its neighbors complete normally.
    client.write(1, &block(0x11)).expect("submit write");
    let before = client.drain().expect("drain write");
    assert!(before.iter().all(|c| c.result.is_ok()));

    handle.fail_next(1);
    client.read(2).expect("submit doomed read");
    client.read(1).expect("submit healthy read");
    let done = client.drain().expect("drain");
    assert_eq!(done.len(), 2);
    let doomed = done.iter().find(|c| c.key == 2).expect("doomed present");
    let healthy = done.iter().find(|c| c.key == 1).expect("healthy present");
    assert!(doomed.result.is_err(), "faulted op surfaces its own error");
    assert!(healthy.result.is_ok(), "neighboring op is untouched");

    client.quit().expect("quit");
    server.shutdown();
}

/// What a [`scripted_node`] saw on the connection it served.
#[derive(Default)]
struct Served {
    /// Requests answered.
    frames: u64,
    /// `read()` calls that delivered at least one whole request.
    reads: u64,
    /// Whether the connection ended with a `Quit` frame, not a bare close.
    quit: bool,
}

/// A scripted node. Given `drop_first_after`, it reads at most that many
/// bytes of its first connection and drops it unanswered (the unread
/// rest turns the close into a reset). It then serves one connection the
/// way the real server does: every complete frame of each `read()` is
/// answered, all of a read's replies in one write.
fn scripted_node(drop_first_after: Option<usize>) -> (SocketAddr, JoinHandle<Served>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let node = std::thread::spawn(move || {
        if let Some(limit) = drop_first_after {
            let (mut doomed, _) = listener.accept().expect("accept the doomed connection");
            let _ = doomed.read(&mut vec![0u8; limit]);
        }
        let (mut stream, _) = listener.accept().expect("accept");
        let mut served = Served::default();
        let (mut inbound, mut replies) = (Vec::new(), Vec::new());
        let mut chunk = vec![0u8; 1 << 16];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return served,
                Ok(n) => inbound.extend_from_slice(&chunk[..n]),
            }
            let mut at = 0;
            while let Some((consumed, payload)) = split_frame(&inbound[at..]).expect("framing") {
                let incoming = Incoming::parse(&inbound[at..][payload]).expect("well-formed");
                at += consumed;
                let piped = match incoming {
                    Incoming::Piped(piped) => piped,
                    Incoming::Plain(Request::Quit) => {
                        served.quit = true;
                        return served;
                    }
                    Incoming::Plain(other) => panic!("unexpected plain {other:?}"),
                };
                let reply = match piped.request {
                    Request::Read { .. } => Reply::Read {
                        hit: false,
                        data: Box::new(block(0)),
                    },
                    Request::Write { .. } => Reply::Write { hit: false },
                    _ => Reply::Error {
                        code: ErrorCode::Protocol,
                        message: "unexpected request".into(),
                    },
                };
                let corr = piped.corr;
                PipedReply { corr, reply }.encode_into(&mut replies);
                served.frames += 1;
            }
            inbound.drain(..at);
            if !replies.is_empty() {
                served.reads += 1;
                stream.write_all(&replies).expect("write replies");
                replies.clear();
            }
        }
    });
    (addr, node)
}

/// The window survives steady state: the client writes only when it is
/// about to block and then settles every reply that arrived, so a full
/// window refills in one write and the node finds the whole window in
/// one `read()`. (A client that blocks for exactly one reply per submit
/// decays into one request per syscall — 1.3 frames per read at window
/// 8.) At window 1 there is exactly one request per read. The goodbye is
/// a `Quit` frame on the wire at either window.
#[test]
fn the_window_stays_full_in_steady_state() {
    const OPS: u64 = 10_000;
    for (window, at_least) in [(1, 1.0), (8, 4.0)] {
        let (addr, node) = scripted_node(None);
        let mut client = PipelinedClient::connect(addr, window).expect("connect");
        let mut done = Vec::new();
        for key in 0..OPS {
            done.extend(client.read(key).expect("submit"));
        }
        done.extend(client.quit().expect("quit"));
        let served = node.join().expect("scripted node");

        assert!(done.iter().all(|c| c.result.is_ok()));
        let mut keys: Vec<u64> = done.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        assert!(keys.into_iter().eq(0..OPS), "every op completes once");
        assert_eq!(served.frames, OPS, "and was sent once");
        let per_read = served.frames as f64 / served.reads as f64;
        assert!(
            (at_least..=window as f64).contains(&per_read),
            "window {window}: {per_read:.2} frames per server read"
        );
        assert!(served.quit, "window {window}: no Quit frame on the wire");
    }
}

/// A connection lost in the middle of a multi-frame write: the node
/// takes 1 KiB — not two whole frames — of the first window's one write
/// and resets. The client reconnects transparently and re-sends the
/// window once, under the same correlation ids: every op completes
/// exactly once and no reply is left over. (The client once sent a
/// window twice after a reconnect and lost the op being submitted.)
#[test]
fn pipelined_client_survives_connection_loss_mid_submit() {
    let (addr, node) = scripted_node(Some(1024));
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(2)),
        ..fast_client()
    };
    let mut client = PipelinedClient::connect_with(addr, config, 16).expect("connect");
    let mut done = Vec::new();
    for key in 0..48u64 {
        done.extend(client.write(key, &block(key as u8)).expect("submit"));
    }
    done.extend(client.drain().expect("drain after transparent reconnect"));

    assert_eq!(done.len(), 48, "every op completes exactly once");
    for c in &done {
        assert!(c.result.is_ok(), "key {} failed: {:?}", c.key, c.result);
    }
    let mut keys: Vec<u64> = done.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 48, "no op completed twice");
    assert!(client.reconnects() >= 1, "the connection loss was observed");
    assert_eq!(client.stale_replies(), 0, "the window was re-sent once");

    client.quit().expect("quit");
    let served = node.join().expect("scripted node");
    assert_eq!(served.frames, 48, "nothing was sent twice");
}

/// A transport failure keeps its cause at every window. A node that
/// takes the connection and never answers makes every read time out:
/// under a one-attempt policy the operation fails with that bare
/// `io::Error` kind, under a larger budget with `RetriesExhausted`
/// around it — from `NodeClient` (window 1) and in each `Completion` of
/// a pipelined window alike.
#[test]
fn a_silent_node_fails_each_op_with_the_timeout_it_hit() {
    // Never accepted: the kernel completes the handshakes and buffers
    // what the clients write.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let timed_out = |error: &NodeError| {
        matches!(error, NodeError::Transport(e)
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut))
    };
    for retry in [RetryPolicy::none(), RetryPolicy::default()] {
        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            retry,
            ..ClientConfig::default()
        };
        let check = |error: &NodeError| match error {
            NodeError::RetriesExhausted { attempts, last } if retry.attempts > 1 => {
                assert_eq!(*attempts, retry.attempts);
                assert!(timed_out(last), "{last:?}");
            }
            bare => assert!(retry.attempts == 1 && timed_out(bare), "{bare:?}"),
        };
        let mut serial = NodeClient::connect_with(addr, config).expect("connect");
        check(&serial.read_block(1).expect_err("nobody answers"));

        let mut piped = PipelinedClient::connect_with(addr, config, 8).expect("connect");
        for key in 0..3 {
            assert!(piped.read(key).expect("submit").is_empty());
        }
        let done = piped.drain().expect("drain");
        assert_eq!(done.len(), 3);
        for c in &done {
            check(c.result.as_ref().expect_err("nobody answers"));
        }
    }
}

/// `stats()` and `flush()` ride the pipelined path: called with writes
/// still in flight (not even written yet) they settle the window first,
/// so their counts include it, and leave those writes' completions for
/// the next `drain()`. `quit()` ends the connection at once at either
/// window; the node does not wait out an idle timeout (it has none).
#[test]
fn control_ops_settle_the_window_and_keep_its_completions() {
    let cache = DataCache::new(MemBacking::new(), PolicySpec::Aod, 64)
        .expect("valid appliance")
        .with_write_policy(WritePolicy::WriteBack);
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .serve(cache)
        .expect("bind");
    let mut client = PipelinedClient::connect(server.addr(), 8).expect("connect");

    for key in 0..5u64 {
        let early = client.write(key, &block(key as u8)).expect("submit");
        assert!(early.is_empty(), "the window is not full: nothing is sent");
    }
    assert_eq!(client.in_flight(), 5);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.write_hits + stats.write_misses, 5, "{stats:?}");
    assert_eq!(client.in_flight(), 0);

    let mut done = client.drain().expect("drain");
    assert_eq!(done.len(), 5, "the settled writes' completions were kept");

    for key in 5..8u64 {
        client.write(key, &block(key as u8)).expect("submit");
    }
    assert_eq!(client.flush().expect("flush"), 8, "all eight were dirty");
    done.extend(client.drain().expect("drain"));
    assert_eq!(done.len(), 8);
    for c in &done {
        assert!(matches!(c.result, Ok(OpResult::Write { .. })), "{c:?}");
    }

    let serial = NodeClient::connect(server.addr()).expect("connect");
    let gone = |expected| {
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.live_connections() != expected {
            assert!(Instant::now() < deadline, "connection still live");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    gone(2);
    client.quit().expect("quit at window 8");
    gone(1);
    serial.quit().expect("quit at window 1");
    gone(0);
    server.shutdown();
}

/// Fault smoke: sustained faults trip the breaker while a pipelined
/// client is driving, degraded pass-through keeps serving correct data,
/// and the node probes back to healthy — on one shard, and on the
/// four-shard node, whose mode is its worst shard's.
#[test]
fn breaker_trips_and_recovers_under_pipelined_load() {
    let config = NodeConfig {
        breaker_threshold: 3,
        breaker_cooldown: 4,
        ..NodeConfig::default()
    };
    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0x93));
    let handle = backing.handle();
    let cache = DataCache::new(backing, PolicySpec::Aod, 64).expect("valid appliance");
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .serve(cache)
        .expect("bind");
    trip_and_recover(server, &handle);

    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0x93));
    let handle = backing.handle();
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(4)
        .config(config)
        .serve_sharded(backing, PolicySpec::Aod, 64, WritePolicy::WriteThrough)
        .expect("bind");
    trip_and_recover(server, &handle);
}

fn trip_and_recover<B: BackingStore + 'static>(server: NodeServer<B>, handle: &FaultHandle) {
    let shards = server.workers();
    let mut client =
        PipelinedClient::connect_with(server.addr(), fast_client(), 4).expect("connect");
    client.write(1, &block(0x5A)).expect("seed");
    client.drain().expect("drain seed");

    // Three consecutive failures open the breaker; the retried request
    // then completes via degraded pass-through. The key must be
    // uncached so every attempt reaches the (faulting) backing store,
    // and on the seeded key's shard, whose breaker the reads below
    // then pass through and probe.
    let shard = |key| sievestore_types::shard_of(key, shards);
    let cold = (2..).find(|&key| shard(key) == shard(1)).expect("a key");
    handle.fail_next(3);
    client.read(cold).expect("submit");
    let done = client.drain().expect("drain");
    assert!(done.iter().all(|c| c.result.is_ok()));
    assert_eq!(server.mode(), NodeMode::Degraded, "{shards} shards");

    // Degraded reads still return correct bytes.
    client.read(1).expect("submit degraded");
    let done = client.drain().expect("drain degraded");
    match &done[0].result {
        Ok(OpResult::Read { data, .. }) => assert_eq!(data[0], 0x5A),
        other => panic!("degraded read failed: {other:?}"),
    }

    // Spend the cooldown; the probe finds a healed backing and closes
    // the breaker.
    for _ in 0..8 {
        client.read(1).expect("submit recovery");
        client.drain().expect("drain recovery");
    }
    assert_eq!(server.mode(), NodeMode::Healthy, "{shards} shards");

    // The node still serves the seeded bytes end to end.
    let mut check = NodeClient::connect(server.addr()).expect("connect");
    let (data, _) = check.read_block(1).expect("read after recovery");
    assert_eq!(data[0], 0x5A, "{shards} shards");
    check.quit().expect("quit check");
    client.quit().expect("quit");
    server.shutdown();
}

/// A payload naming its key and the version written.
fn stamped(key: u64, version: u64) -> [u8; 512] {
    let mut data = [0u8; 512];
    data[..8].copy_from_slice(&key.to_le_bytes());
    data[8..16].copy_from_slice(&version.to_le_bytes());
    data
}

/// A durable node with few free slots, under connections that stage
/// into them concurrently: a request that landed a group to free slots
/// may find them taken again by the time it re-locks the shard. It must
/// land again, not fail the write — with client retries off, one
/// "durable segment out of slots" reply fails the op here.
#[test]
fn concurrent_connections_never_run_a_durable_node_out_of_slots() {
    const CONNS: u64 = 4;
    const KEYS: u64 = 1024;
    const OPS: u64 = 10_000;
    let config = NodeConfig {
        request_deadline: Duration::from_secs(5),
        ..NodeConfig::default()
    };
    let (server, report) = NodeServerBuilder::new("127.0.0.1:0")
        .config(config)
        .serve_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            WritePolicy::WriteBack,
            DurableMediaSet::in_memory(),
        )
        .expect("bind");
    report.expect("fresh media formats");
    let addr = server.addr();
    let no_retry = ClientConfig {
        retry: RetryPolicy::none(),
        ..ClientConfig::default()
    };

    // Connection `conn` owns the keys `conn, conn + CONNS, ...`, so the
    // last write it submitted to a key is the one that must read back.
    let written: Vec<Vec<(u64, u64)>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNS)
            .map(|conn| {
                s.spawn(move || {
                    let mut client =
                        PipelinedClient::connect_with(addr, no_retry, 16).expect("connect");
                    let mut latest = vec![None; (KEYS / CONNS) as usize];
                    let mut completions = Vec::new();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ conn;
                    for version in 1..=OPS {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let slot = (rng >> 33) % (KEYS / CONNS);
                        let key = slot * CONNS + conn;
                        if rng >> 63 == 1 {
                            completions.extend(
                                client
                                    .write(key, &stamped(key, version))
                                    .expect("submit write"),
                            );
                            latest[slot as usize] = Some(version);
                        } else {
                            completions.extend(client.read(key).expect("submit read"));
                        }
                    }
                    completions.extend(client.quit().expect("quit"));
                    assert_eq!(completions.len() as u64, OPS);
                    let failed: Vec<_> = completions.iter().filter(|c| c.result.is_err()).collect();
                    assert!(
                        failed.is_empty(),
                        "connection {conn}: {} of {OPS} ops failed, first {:?}",
                        failed.len(),
                        failed[0]
                    );
                    latest
                        .iter()
                        .enumerate()
                        .filter_map(|(slot, v)| v.map(|v| (slot as u64 * CONNS + conn, v)))
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });

    let mut client = NodeClient::connect(addr).expect("connect reader");
    for (key, version) in written.into_iter().flatten() {
        let (data, _) = client.read_block(key).expect("read back");
        assert_eq!(data, stamped(key, version), "key {key}");
    }
    client.quit().expect("quit");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Group commit: a window's replies leave only after the covering commit.
// ---------------------------------------------------------------------------

mod group_commit {
    use std::io::{ErrorKind, Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use sievestore::PolicySpec;
    use sievestore_node::{
        DataCache, DurableMediaSet, ErrorCode, Media, MemBacking, NodeConfig, NodeMode, NodeServer,
        NodeServerBuilder, PipedReply, PipedRequest, Reply, Request, WritePolicy,
    };
    use sievestore_types::Micros;

    use super::block;

    /// What the test tells the durable media to do, and what it saw.
    #[derive(Default)]
    struct Script {
        syncs: AtomicU64,
        fail_syncs: AtomicBool,
        sync_delay_ms: AtomicU64,
        /// When armed, the next sync reports that it was entered and
        /// then waits to be released.
        gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    }

    struct ScriptedMedia {
        inner: Box<dyn Media>,
        script: Arc<Script>,
    }

    impl Media for ScriptedMedia {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> std::io::Result<()> {
            self.inner.write_at(offset, data)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            if let Some((entered, release)) = self.script.gate.lock().unwrap().take() {
                entered.send(()).expect("test is waiting for the sync");
                release.recv().expect("test releases the sync");
            }
            std::thread::sleep(Duration::from_millis(
                self.script.sync_delay_ms.load(Ordering::SeqCst),
            ));
            if self.script.fail_syncs.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected sync failure"));
            }
            self.script.syncs.fetch_add(1, Ordering::SeqCst);
            self.inner.sync()
        }
        fn len(&self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.truncate(len)
        }
    }

    /// A durable write-back server on scripted file media under `dir`.
    fn serve(dir: &std::path::Path, config: NodeConfig) -> (NodeServer<MemBacking>, Arc<Script>) {
        std::fs::remove_dir_all(dir).ok();
        let script = Arc::new(Script::default());
        let set = DurableMediaSet::open_dir(dir).expect("media dir");
        let wrap = |inner: Box<dyn Media>| -> Box<dyn Media> {
            Box::new(ScriptedMedia {
                inner,
                script: Arc::clone(&script),
            })
        };
        let media = DurableMediaSet {
            frames: wrap(set.frames),
            journal_a: wrap(set.journal_a),
            journal_b: wrap(set.journal_b),
        };
        let (server, report) = NodeServerBuilder::new("127.0.0.1:0")
            .config(config)
            .serve_durable(
                MemBacking::new(),
                PolicySpec::Aod,
                64,
                WritePolicy::WriteBack,
                media,
            )
            .expect("bind");
        report.expect("fresh media formats");
        (server, script)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sievestore-group-{tag}-{}", std::process::id()))
    }

    /// One pipelined window: `keys.len()` enveloped writes in a single
    /// socket write; returns the replies in arrival order.
    fn write_window(stream: &mut TcpStream, keys: std::ops::Range<u64>, fill: u8) -> Vec<Reply> {
        let mut frames = Vec::new();
        for key in keys.clone() {
            PipedRequest {
                corr: key as u32,
                request: Request::Write {
                    key,
                    data: Box::new(block(fill.wrapping_add(key as u8))),
                },
            }
            .encode_into(&mut frames);
        }
        stream.write_all(&frames).expect("send window");
        keys.map(|_| PipedReply::decode(stream).expect("reply").reply)
            .collect()
    }

    #[test]
    fn a_window_whose_commit_fails_acks_nothing_and_a_committed_one_survives_restart() {
        let dir = temp_dir("fail");
        let config = NodeConfig {
            breaker_threshold: 100, // keep the breaker out of this test
            ..NodeConfig::default()
        };
        let (server, script) = serve(&dir, config);
        let mut stream = TcpStream::connect(server.addr()).expect("connect");

        // Every sync fails: the window's eight writes were staged, the
        // commit could not cover them, so not one of them is acked.
        script.fail_syncs.store(true, Ordering::SeqCst);
        let replies = write_window(&mut stream, 0..8, 0x10);
        assert_eq!(replies.len(), 8);
        for reply in &replies {
            assert!(
                matches!(
                    reply,
                    Reply::Error {
                        code: ErrorCode::Transient,
                        ..
                    }
                ),
                "an uncommitted write was answered with {reply:?}"
            );
        }

        // The media heals; the next window commits (carrying the failed
        // group with it) and is acknowledged in full.
        script.fail_syncs.store(false, Ordering::SeqCst);
        let replies = write_window(&mut stream, 8..16, 0x80);
        assert!(
            replies.iter().all(|r| matches!(r, Reply::Write { .. })),
            "{replies:?}"
        );
        Request::Quit.encode(&mut stream).expect("quit");
        drop(stream);
        server.shutdown();

        // Restart on the same files: every acknowledged write is there,
        // at exactly its payload.
        let (mut cache, report) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            DurableMediaSet::open_dir(&dir).expect("reopen media"),
        )
        .expect("recover");
        assert_eq!((report.quarantined, report.lost_dirty), (0, 0));
        for key in 8..16u64 {
            let (data, _) = cache.read(key, Micros::from_secs(key)).expect("read back");
            assert_eq!(data, block(0x80u8.wrapping_add(key as u8)), "key {key}");
        }
        // The unacknowledged window was in flight: all or nothing of
        // each write, never anything else.
        for key in 0..8u64 {
            let (data, _) = cache
                .read(key, Micros::from_secs(100 + key))
                .expect("read back");
            assert!(
                data == block(0x10 + key as u8) || data == block(0),
                "key {key} reads {:#x}",
                data[0]
            );
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_read_of_another_connections_uncommitted_write_waits_for_the_commit() {
        let dir = temp_dir("order");
        let (server, script) = serve(&dir, NodeConfig::default());
        let syncs_before = script.syncs.load(Ordering::SeqCst);

        // Connection A: one whole write, then the first bytes of a
        // second frame — its window stays open (more is buffered), so
        // the write is staged and nothing commits.
        let mut a = TcpStream::connect(server.addr()).expect("connect a");
        let mut first = Vec::new();
        PipedRequest {
            corr: 1,
            request: Request::Write {
                key: 5,
                data: Box::new(block(0xAA)),
            },
        }
        .encode_into(&mut first);
        let mut second = Vec::new();
        PipedRequest {
            corr: 2,
            request: Request::Write {
                key: 6,
                data: Box::new(block(0xBB)),
            },
        }
        .encode_into(&mut second);
        first.extend_from_slice(&second[..3]);
        a.write_all(&first).expect("send a's open window");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().write_misses + server.stats().write_hits == 0 {
            assert!(
                Instant::now() < deadline,
                "a's write never reached the engine"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            script.syncs.load(Ordering::SeqCst),
            syncs_before,
            "a's window is open: nothing has been synced"
        );

        // Connection B reads the key. The engine serves it a's staged
        // payload; the reply may leave only after a commit that covers
        // that write. Hold the commit's first sync and look.
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        *script.gate.lock().unwrap() = Some((entered_tx, release_rx));
        let mut b = TcpStream::connect(server.addr()).expect("connect b");
        Request::Read { key: 5 }
            .encode(&mut b)
            .expect("send b's read");
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("b's reply waits on a commit");
        b.set_nonblocking(true).expect("nonblocking");
        let mut probe = [0u8; 1];
        match b.peek(&mut probe) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("b's reply left before the covering sync: {other:?}"),
        }
        b.set_nonblocking(false).expect("blocking");
        release_tx.send(()).expect("release the sync");
        match Reply::decode(&mut b).expect("b's reply") {
            Reply::Read { hit, data } => {
                assert!(hit);
                assert_eq!(*data, block(0xAA), "b saw a's staged write");
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(
            script.syncs.load(Ordering::SeqCst) > syncs_before,
            "a's frame was synced before b's reply"
        );

        // A completes its second frame and gets both acks.
        a.write_all(&second[3..]).expect("finish a's window");
        for corr in [1u32, 2] {
            let piped = PipedReply::decode(&mut a).expect("a's reply");
            assert_eq!(piped.corr, corr);
            assert!(matches!(piped.reply, Reply::Write { .. }), "{piped:?}");
        }
        let mut rest = [0u8; 1];
        a.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        assert!(
            matches!(a.read(&mut rest), Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "exactly two replies for a"
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_commit_that_overruns_the_deadline_fails_the_window() {
        let dir = temp_dir("deadline");
        let config = NodeConfig {
            request_deadline: Duration::from_millis(20),
            breaker_threshold: 1, // one failure opens the breaker
            ..NodeConfig::default()
        };
        let (server, script) = serve(&dir, config);
        sievestore_types::obs::set_enabled(true);
        let overruns = || {
            sievestore_types::obs::global()
                .counter(sievestore_types::obs::CounterId::NodeDeadlineOverruns)
        };
        let overruns_before = overruns();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");

        // The engine calls are fast; the sync that makes them durable is
        // not. The deadline covers it: the whole window fails, once.
        script.sync_delay_ms.store(60, Ordering::SeqCst);
        let replies = write_window(&mut stream, 0..3, 0x30);
        for reply in &replies {
            assert!(
                matches!(
                    reply,
                    Reply::Error {
                        code: ErrorCode::Deadline,
                        ..
                    }
                ),
                "a write whose commit overran was answered with {reply:?}"
            );
        }
        assert_eq!(
            server.mode(),
            NodeMode::Degraded,
            "the overrun counted as one cache-path failure"
        );
        assert!(overruns() > overruns_before);

        // With the media fast again the same connection is served.
        script.sync_delay_ms.store(0, Ordering::SeqCst);
        let replies = write_window(&mut stream, 3..6, 0x30);
        assert!(
            replies.iter().all(|r| matches!(r, Reply::Write { .. })),
            "{replies:?}"
        );
        Request::Quit.encode(&mut stream).expect("quit");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sends one plain write and waits for its acknowledgement.
    fn write_acked(stream: &mut TcpStream, key: u64, fill: u8) {
        Request::Write {
            key,
            data: Box::new(block(fill)),
        }
        .encode(stream)
        .expect("send write");
        match Reply::decode(stream).expect("write reply") {
            Reply::Write { .. } => {}
            other => panic!("write of key {key} answered with {other:?}"),
        }
    }

    #[test]
    fn a_read_hit_is_served_while_another_connections_commit_is_in_its_sync() {
        let dir = temp_dir("overlap");
        let (server, script) = serve(&dir, NodeConfig::default());
        let mut b = TcpStream::connect(server.addr()).expect("connect b");
        write_acked(&mut b, 9, 0x99);
        let hits_before = server.stats().read_hits;

        // A's window is one write; its land is held inside its first
        // sync — the frame device's, under no shard lock.
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        *script.gate.lock().unwrap() = Some((entered_tx, release_rx));
        let mut a = TcpStream::connect(server.addr()).expect("connect a");
        Request::Write {
            key: 5,
            data: Box::new(block(0xAA)),
        }
        .encode(&mut a)
        .expect("send a's write");
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a's commit reaches its first sync");

        // B reads an unrelated, resident key: the engine serves the hit
        // while A is still inside that sync...
        Request::Read { key: 9 }
            .encode(&mut b)
            .expect("send b's read");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().read_hits == hits_before {
            assert!(
                Instant::now() < deadline,
                "b's read waited for a's commit to leave the engine"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...but B's reply is held: the shard has a staged write that no
        // commit covers yet, and B cannot know it did not see it.
        b.set_nonblocking(true).expect("nonblocking");
        let mut probe = [0u8; 1];
        match b.peek(&mut probe) {
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            other => panic!("b's reply left before a commit covered it: {other:?}"),
        }
        b.set_nonblocking(false).expect("blocking");
        release_tx.send(()).expect("release the sync");
        match Reply::decode(&mut b).expect("b's reply") {
            Reply::Read { hit, data } => {
                assert!(hit);
                assert_eq!(*data, block(0x99));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(matches!(
            Reply::decode(&mut a).expect("a's reply"),
            Reply::Write { .. }
        ));
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Four connections, each rewriting its own eight resident keys in
    /// windows of eight, all released together round after round, over
    /// media whose every sync takes 2 ms; with `flusher`, a fifth
    /// connection sends `Flush` all the while. Every acknowledged write
    /// must survive `shutdown()` + reopen at exactly its payload.
    /// Returns `(windows, commits)`.
    fn contended_burst(tag: &str, config: NodeConfig, flusher: bool) -> (u64, u64) {
        const CONNS: u64 = 4;
        const ROUNDS: u64 = 6;
        let dir = temp_dir(tag);
        let (server, script) = serve(&dir, config);
        let addr = server.addr();
        let mut setup = TcpStream::connect(addr).expect("connect");
        for key in 0..CONNS * 8 {
            write_acked(&mut setup, key, 0x01);
        }
        script.sync_delay_ms.store(2, Ordering::SeqCst);
        let syncs_before = script.syncs.load(Ordering::SeqCst);
        let stop = Arc::new(AtomicBool::new(false));
        let flushing = flusher.then(|| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect flusher");
                while !stop.load(Ordering::SeqCst) {
                    Request::Flush.encode(&mut stream).expect("send flush");
                    let reply = Reply::decode(&mut stream).expect("flush reply");
                    assert!(matches!(reply, Reply::Flush { .. }), "{reply:?}");
                }
            })
        });
        let start = Arc::new(std::sync::Barrier::new(CONNS as usize));
        let writers: Vec<_> = (0..CONNS)
            .map(|conn| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect writer");
                    for round in 0..ROUNDS {
                        start.wait();
                        let fill = (0x10 * (conn + 1) + round) as u8;
                        let replies = write_window(&mut stream, conn * 8..conn * 8 + 8, fill);
                        assert!(
                            replies
                                .iter()
                                .all(|r| matches!(r, Reply::Write { hit: true })),
                            "connection {conn} round {round}: {replies:?}"
                        );
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer");
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(flushing) = flushing {
            flushing.join().expect("flusher");
        }
        // Every window staged eight frames: a commit is two syncs.
        let commits = (script.syncs.load(Ordering::SeqCst) - syncs_before) / 2;
        script.sync_delay_ms.store(0, Ordering::SeqCst);
        drop(setup);
        server.shutdown();

        let (mut cache, report) = DataCache::new_durable(
            MemBacking::new(),
            PolicySpec::Aod,
            64,
            DurableMediaSet::open_dir(&dir).expect("reopen media"),
        )
        .expect("recover");
        assert_eq!((report.quarantined, report.lost_dirty), (0, 0));
        // The backing store is a fresh one: the durable tier alone
        // holds the acknowledged payloads, flushed meanwhile or not.
        for conn in 0..CONNS {
            let fill = (0x10 * (conn + 1) + ROUNDS - 1) as u8;
            for key in conn * 8..conn * 8 + 8 {
                let (data, _) = cache.read(key, Micros::from_secs(key)).expect("read back");
                assert_eq!(data, block(fill.wrapping_add(key as u8)), "key {key}");
            }
        }
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
        (CONNS * ROUNDS, commits)
    }

    #[test]
    fn windows_of_several_connections_share_commits_and_every_ack_survives_restart() {
        let (windows, commits) = contended_burst("share", NodeConfig::default(), false);
        assert!(
            commits < windows,
            "{windows} windows of 4 connections took {commits} commits: none was shared"
        );
    }

    #[test]
    fn flush_and_the_scrubber_run_beside_landing_groups_without_deadlock() {
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let config = NodeConfig {
                scrub_interval: Some(Duration::from_millis(1)),
                ..NodeConfig::default()
            };
            done_tx
                .send(contended_burst("scrubflush", config, true))
                .ok();
        });
        let (windows, _) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("landers, a flusher and the scrubber deadlocked (or one of them panicked)");
        assert_eq!(windows, 24);
    }
}
