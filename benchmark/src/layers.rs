//! Per-layer probes: each times one layer alone, from outside, through
//! its public functions, over the workload's own event stream (the head
//! of the trace for the replay workloads, the request tape for the
//! serving ones) — never over synthetic `mix64` keys.
//!
//! Every traced run of every workload runs every probe, so a layer's
//! number exists on the workload that bypasses it too: that is the
//! control cell the "no change" prediction is read from.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sievestore::{AccessOutcome, PolicySpec, SieveStoreBuilder};
use sievestore_cache::{BatchCache, LruCache, SieveCache};
use sievestore_extsort::{AccessCounter, CountingConfig};
use sievestore_node::protocol::split_frame;
use sievestore_node::{
    Block, DataCache, DurableMediaSet, DurableStore, Incoming, MemBacking, NodeServerBuilder,
    PipedReply, PipedRequest, Reply, Request, WritePolicy,
};
use sievestore_sieve::{Imct, Mct, TwoTierConfig, TwoTierSieve};
use sievestore_ssd::{OccupancyTracker, SsdSpec};
use sievestore_types::{Day, Micros, RequestKind, U64Map};

use crate::payload;
use crate::report::RunOutput;
use crate::wire::{Pace, Phase, TapeOp, WireConn};
use crate::Args;

/// One block access of a workload's input.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub key: u64,
    pub write: bool,
    pub now: Micros,
}

impl Event {
    fn kind(&self) -> RequestKind {
        if self.write {
            RequestKind::Write
        } else {
            RequestKind::Read
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64)
}

/// Sieve probes need a few hundred thousand misses to time; a workload
/// whose policy rarely misses has its short miss stream cycled.
const MIN_SIEVE_OPS: usize = 1 << 18;

/// Frames encoded and parsed by the protocol probes.
const PROTOCOL_FRAMES: usize = 100_000;

/// What replaying `events` through one appliance showed.
struct ApplianceProbe {
    access_ns: f64,
    misses: Vec<Event>,
    evictions: u64,
    boundary_ms: f64,
}

fn probe_appliance(
    events: &[Event],
    spec: PolicySpec,
    capacity: usize,
) -> Result<ApplianceProbe, String> {
    let mut store = SieveStoreBuilder::new()
        .capacity_blocks(capacity)
        .policy(spec)
        .build()
        .map_err(|e| e.to_string())?;
    let mut misses = Vec::new();
    let mut evictions = 0u64;
    let ((), ns) = timed(|| {
        for e in events {
            match store.access(e.key, e.kind(), e.now) {
                AccessOutcome::Hit => {}
                AccessOutcome::BypassMiss => misses.push(*e),
                AccessOutcome::AllocatedMiss { evicted } => {
                    misses.push(*e);
                    evictions += u64::from(evicted.is_some());
                }
            }
        }
    });
    let next_day = Day::new(events.last().map_or(0, |e| e.now.day().index()) + 1);
    let (_, boundary_ns) = timed(|| black_box(store.day_boundary(next_day)));
    Ok(ApplianceProbe {
        access_ns: ns / events.len().max(1) as f64,
        misses,
        evictions,
        boundary_ms: boundary_ns / 1e6,
    })
}

/// `core.appliance.*` for workloads without a replay pipeline to take
/// them from: the event stream through one appliance per policy.
pub fn appliance_metrics(
    events: &[Event],
    capacity: usize,
    out: &mut RunOutput,
) -> Result<(), String> {
    let c = probe_appliance(
        events,
        PolicySpec::SieveStoreC(TwoTierConfig::paper_default()),
        capacity,
    )?;
    let d = probe_appliance(events, PolicySpec::SieveStoreD { threshold: 10 }, capacity)?;
    out.metric("core.appliance.access_ns_per_event.c", c.access_ns, "ns");
    out.metric("core.appliance.access_ns_per_event.d", d.access_ns, "ns");
    out.metric("core.appliance.day_boundary_ms", d.boundary_ms, "ms");
    Ok(())
}

/// Runs every layer probe over `events`; `spec` and `capacity` are the
/// workload's own policy and cache size (they decide which accesses are
/// the miss stream the sieve sees).
pub fn probe_all(
    events: &[Event],
    spec: PolicySpec,
    capacity: usize,
    args: &Args,
    out: &mut RunOutput,
) -> Result<(), String> {
    if events.is_empty() {
        return Err("layer probes need a nonempty event stream".into());
    }
    let n = events.len() as f64;
    let own = probe_appliance(events, spec, capacity)?;
    out.metric(
        "cache.evictions_per_kaccess",
        own.evictions as f64 * 1000.0 / n,
        "count",
    );

    // sieve: the miss stream of the workload's own policy.
    let misses: Vec<Event> = if own.misses.is_empty() {
        events.to_vec()
    } else {
        own.misses
            .iter()
            .cycle()
            .take(own.misses.len().max(MIN_SIEVE_OPS))
            .copied()
            .collect()
    };
    let m = misses.len() as f64;
    let config = TwoTierConfig::paper_default();
    let mut sieve = TwoTierSieve::new(config).map_err(|e| e.to_string())?;
    let (granted, ns) = timed(|| {
        misses
            .iter()
            .filter(|e| sieve.on_miss(e.key, e.now))
            .count()
    });
    black_box(granted);
    out.metric("sieve.two_tier.on_miss_ns", ns / m, "ns");
    out.metric(
        "sieve.two_tier.admit_ratio",
        sieve.granted() as f64 / sieve.misses_seen().max(1) as f64,
        "ratio",
    );
    out.metric(
        "sieve.two_tier.graduate_ratio",
        sieve.graduated() as f64 / sieve.misses_seen().max(1) as f64,
        "ratio",
    );
    out.metric(
        "sieve.two_tier.memory_bytes",
        sieve.memory_bytes() as f64,
        "B",
    );
    let mut imct = Imct::new(config.imct_entries, config.window);
    let (sum, ns) = timed(|| {
        misses
            .iter()
            .map(|e| u64::from(imct.record_miss(e.key, e.now)))
            .sum::<u64>()
    });
    black_box(sum);
    out.metric("sieve.imct.record_miss_ns", ns / m, "ns");
    let mut mct = Mct::new(config.window);
    let (sum, ns) = timed(|| {
        misses
            .iter()
            .map(|e| u64::from(mct.record_miss(e.key, e.now)))
            .sum::<u64>()
    });
    black_box(sum);
    out.metric("sieve.mct.record_miss_ns", ns / m, "ns");

    // cache: touch over the whole stream, insert over the miss stream.
    let mut lru = LruCache::new(capacity);
    let (_, insert_ns) = timed(|| {
        for e in &misses {
            if !lru.contains(e.key) {
                black_box(lru.insert(e.key));
            }
        }
    });
    let (hits, touch_ns) = timed(|| events.iter().filter(|e| lru.touch(e.key)).count());
    black_box(hits);
    out.metric("cache.lru.touch_ns", touch_ns / n, "ns");
    out.metric("cache.lru.insert_ns", insert_ns / m, "ns");
    let mut sieve_cache = SieveCache::new(capacity);
    let (_, insert_ns) = timed(|| {
        for e in &misses {
            if !sieve_cache.contains(e.key) {
                black_box(sieve_cache.insert(e.key));
            }
        }
    });
    let (hits, touch_ns) = timed(|| events.iter().filter(|e| sieve_cache.touch(e.key)).count());
    black_box(hits);
    out.metric("cache.sieve.touch_ns", touch_ns / n, "ns");
    out.metric("cache.sieve.insert_ns", insert_ns / m, "ns");

    // extsort + the epoch cache: count one epoch, select, install twice
    // (the second install meets a resident set and retains most of it).
    let mut counter = CountingConfig::InMemory
        .counter()
        .map_err(|e| e.to_string())?;
    let (_, ns) = timed(|| {
        for e in events {
            counter.record(e.key);
        }
    });
    out.metric("extsort.counter.record_ns", ns / n, "ns");
    let (selection, ns) = timed(|| counter.finish_selection(10));
    let selection = selection.map_err(|e| e.to_string())?;
    out.metric("extsort.counter.finish_ms", ns / 1e6, "ms");
    let mut batch = BatchCache::new(capacity);
    let half = &selection[..selection.len() / 2];
    let (_, ns) = timed(|| {
        black_box(batch.install_epoch(half.iter().copied()));
        black_box(batch.install_epoch(selection.iter().copied()));
    });
    out.metric("cache.batch.install_epoch_ms", ns / 2e6, "ms");

    // ssd + types.
    let last_minute = events
        .iter()
        .map(|e| e.now.minute().as_usize())
        .max()
        .unwrap_or(0);
    let mut occupancy = OccupancyTracker::new(SsdSpec::x25e(), last_minute + 1);
    let (_, ns) = timed(|| {
        for e in events {
            if e.write {
                occupancy.record_write_pages(e.now.minute(), 1);
            } else {
                occupancy.record_read_pages(e.now.minute(), 1);
            }
        }
    });
    black_box(occupancy.drives_for_coverage(0.999));
    out.metric("ssd.occupancy.record_ns", ns / n, "ns");
    let mut map: U64Map<u32> = U64Map::new();
    let (_, ns) = timed(|| {
        for (i, e) in events.iter().enumerate() {
            map.insert(e.key, i as u32);
        }
    });
    out.metric("types.u64map.insert_ns", ns / n, "ns");
    let (sum, ns) = timed(|| {
        events
            .iter()
            .map(|e| u64::from(*map.get(e.key).expect("inserted above")))
            .sum::<u64>()
    });
    black_box(sum);
    out.metric("types.u64map.get_ns", ns / n, "ns");

    probe_protocol(events, out)?;
    probe_store(events, capacity, out)?;
    probe_durable(events, &args.out_dir, args.smoke, out)?;
    probe_rtt(events, capacity, args.smoke, out)
}

/// node.protocol: encode and parse the workload's own frames.
fn probe_protocol(events: &[Event], out: &mut RunOutput) -> Result<(), String> {
    let frames = &events[..events.len().min(PROTOCOL_FRAMES)];
    let n = frames.len() as f64;
    let mut block: Box<Block> = Box::new([0; 512]);
    let requests: Vec<PipedRequest> = frames
        .iter()
        .enumerate()
        .map(|(i, e)| PipedRequest {
            corr: i as u32,
            request: if e.write {
                payload::fill(e.key, 1, &mut block);
                Request::Write {
                    key: e.key,
                    data: block.clone(),
                }
            } else {
                Request::Read { key: e.key }
            },
        })
        .collect();
    let replies: Vec<PipedReply> = frames
        .iter()
        .enumerate()
        .map(|(i, e)| PipedReply {
            corr: i as u32,
            reply: if e.write {
                Reply::Write { hit: true }
            } else {
                payload::fill(e.key, 1, &mut block);
                Reply::Read {
                    hit: true,
                    data: block.clone(),
                }
            },
        })
        .collect();
    // Sized up front: growing the buffer would be timed as encoding.
    let mut buf = Vec::with_capacity(frames.len() * 540);
    let (_, ns) = timed(|| {
        for r in &requests {
            r.encode_into(&mut buf);
        }
    });
    out.metric("node.protocol.encode_req_ns", ns / n, "ns");
    let (parsed, ns) = timed(|| parse_all(&buf, |p| Incoming::parse(p).map(|_| ())));
    let parsed_requests = parsed.map_err(|e| e.to_string())?;
    out.metric("node.protocol.parse_req_ns", ns / n, "ns");
    buf.clear();
    let (_, ns) = timed(|| {
        for r in &replies {
            r.encode_into(&mut buf);
        }
    });
    out.metric("node.protocol.encode_reply_ns", ns / n, "ns");
    let (parsed, ns) = timed(|| parse_all(&buf, |p| PipedReply::parse(p).map(|_| ())));
    let parsed_replies = parsed.map_err(|e| e.to_string())?;
    out.metric("node.protocol.parse_reply_ns", ns / n, "ns");
    out.check(
        parsed_requests == frames.len() && parsed_replies == frames.len(),
        || {
            format!(
                "protocol round trip lost frames: {parsed_requests}/{parsed_replies} of {}",
                frames.len()
            )
        },
    );
    Ok(())
}

fn parse_all(
    buf: &[u8],
    mut parse: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<usize> {
    let mut pos = 0;
    let mut frames = 0;
    while let Some((consumed, range)) = split_frame(&buf[pos..])? {
        parse(&buf[pos + range.start..pos + range.end])?;
        pos += consumed;
        frames += 1;
    }
    Ok(frames)
}

/// The first `limit` distinct keys of the stream, in order of appearance.
fn distinct_keys(events: &[Event], limit: usize) -> Vec<u64> {
    let mut seen: U64Map<()> = U64Map::new();
    let mut keys = Vec::new();
    for e in events {
        if keys.len() == limit {
            break;
        }
        if seen.insert(e.key, ()).is_none() {
            keys.push(e.key);
        }
    }
    keys
}

/// node.store: the data cache in process, no TCP.
fn probe_store(events: &[Event], capacity: usize, out: &mut RunOutput) -> Result<(), String> {
    const OPS: usize = 200_000;
    let resident = distinct_keys(events, capacity);
    let mut cache =
        DataCache::new(MemBacking::new(), PolicySpec::Aod, capacity).map_err(|e| e.to_string())?;
    let mut block: Block = [0; 512];
    let io = |e: std::io::Error| e.to_string();
    for &key in &resident {
        payload::fill(key, 1, &mut block);
        cache.write(key, &block, Micros::new(0)).map_err(io)?;
    }
    let mut wrong = 0usize;
    let (result, ns) = timed(|| -> std::io::Result<()> {
        for (i, &key) in resident.iter().cycle().take(OPS).enumerate() {
            let (data, outcome) = cache.read(key, Micros::new(i as u64))?;
            wrong += usize::from(!outcome.hit || payload::check(key, &data) != Some(1));
        }
        Ok(())
    });
    result.map_err(io)?;
    out.metric("node.store.read_hit_ns", ns / OPS as f64, "ns");
    let (result, ns) = timed(|| -> std::io::Result<()> {
        for (i, &key) in resident.iter().cycle().take(OPS).enumerate() {
            payload::fill(key, 2, &mut block);
            wrong += usize::from(!cache.write(key, &block, Micros::new(i as u64))?.hit);
        }
        Ok(())
    });
    result.map_err(io)?;
    out.metric("node.store.write_hit_ns", ns / OPS as f64, "ns");
    // Misses: never-seen keys under the paper's sieve, so each one pays
    // the sieve and a backing read and none is admitted.
    let mut sieved = DataCache::new(
        MemBacking::new(),
        PolicySpec::SieveStoreC(TwoTierConfig::paper_default()),
        capacity,
    )
    .map_err(|e| e.to_string())?;
    let (result, ns) = timed(|| -> std::io::Result<()> {
        for i in 0..OPS as u64 {
            let (_, outcome) = sieved.read((1 << 62) | i, Micros::new(i))?;
            wrong += usize::from(outcome.hit);
        }
        Ok(())
    });
    result.map_err(io)?;
    out.metric("node.store.read_miss_ns", ns / OPS as f64, "ns");
    out.check(wrong == 0, || {
        format!("{wrong} in-process cache operations went wrong")
    });
    Ok(())
}

/// node.durable: the frame store alone, on files and in memory, and a
/// recovery of what it wrote.
fn probe_durable(
    events: &[Event],
    out_dir: &Path,
    smoke: bool,
    out: &mut RunOutput,
) -> Result<(), String> {
    const SLOTS: usize = 1024;
    let keys = distinct_keys(events, SLOTS);
    let file_puts = if smoke { 32 } else { 256 };
    let dir = out_dir.join(format!("probe-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut block: Block = [0; 512];
    let mut put_all = |media: DurableMediaSet, puts: usize| -> Result<f64, String> {
        let mut store = DurableStore::open(media, SLOTS)
            .map_err(|e| e.to_string())?
            .store;
        let (result, ns) = timed(|| -> std::io::Result<()> {
            for &key in keys.iter().cycle().take(puts) {
                payload::fill(key, 1, &mut block);
                store.put(key, &block, true)?;
            }
            Ok(())
        });
        result.map_err(|e| e.to_string())?;
        Ok(ns / 1e3 / puts as f64)
    };
    let open_dir = || DurableMediaSet::open_dir(&dir).map_err(|e| e.to_string());
    out.metric(
        "node.durable.put_us.file",
        put_all(open_dir()?, file_puts)?,
        "us",
    );
    out.metric(
        "node.durable.put_us.mem",
        put_all(DurableMediaSet::in_memory(), 16 * file_puts)?,
        "us",
    );
    let (recovery, ns) =
        timed(|| DurableStore::open(open_dir()?, SLOTS).map_err(|e| e.to_string()));
    let recovery = recovery?;
    out.metric("node.durable.recovery_ms", ns / 1e6, "ms");
    let expected = keys.len().min(file_puts);
    let intact = recovery
        .frames
        .iter()
        .filter(|f| f.dirty && payload::check(f.key, &f.data[..]) == Some(1))
        .count();
    out.check(intact == expected, || {
        format!("recovery returned {intact} intact dirty frames of {expected} written")
    });
    drop(recovery);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

/// Depth-1 round trips against both server flavours: one connection,
/// one request outstanding, read hits only.
fn probe_rtt(
    events: &[Event],
    capacity: usize,
    smoke: bool,
    out: &mut RunOutput,
) -> Result<(), String> {
    let keys = distinct_keys(events, capacity.min(1024));
    let tape: Arc<[TapeOp]> = keys.iter().map(|&key| TapeOp { key, read: true }).collect();
    let phase = Phase {
        pace: Pace::Closed { depth: 1 },
        duration: Duration::from_millis(if smoke { 100 } else { 700 }),
        window: Duration::from_millis(if smoke { 100 } else { 700 }),
    };
    let io = |e: std::io::Error| e.to_string();
    let mut measure = |addr, name: &str| -> Result<(), String> {
        let mut conn = WireConn::connect(addr, 0, 1, Arc::clone(&tape)).map_err(io)?;
        let mut failed = conn.prefill(&keys, 32).map_err(io)?;
        let outcome = conn.run_phase(&phase, Instant::now(), None).map_err(io)?;
        failed += outcome.failed;
        let p50 = outcome.windows[0]
            .latency_ns
            .quantile(0.5)
            .ok_or("depth-1 probe completed nothing")?;
        out.metric(name, p50 / 1e3, "us");
        out.attempted += outcome.attempted + keys.len() as u64;
        out.failed += failed;
        Ok(())
    };
    let sharded = NodeServerBuilder::new("127.0.0.1:0")
        .workers(2)
        .serve_sharded(
            MemBacking::new(),
            PolicySpec::Aod,
            capacity.max(2),
            WritePolicy::WriteThrough,
        )
        .map_err(io)?;
    let result = measure(sharded.addr(), "node.sharded.rtt_us.depth1");
    sharded.shutdown();
    result?;
    let cache =
        DataCache::new(MemBacking::new(), PolicySpec::Aod, capacity).map_err(|e| e.to_string())?;
    let legacy = NodeServerBuilder::new("127.0.0.1:0")
        .serve(cache)
        .map_err(io)?;
    let result = measure(legacy.addr(), "node.server.rtt_us.depth1");
    legacy.shutdown();
    result
}
