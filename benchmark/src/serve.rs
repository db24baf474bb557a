//! The two serving workloads, driven over loopback TCP by the raw wire
//! driver: two connections, one generator thread each (the box has two
//! cores; server workers, connections and generator threads are all
//! fixed at 2, never derived from the core count).
//!
//! * `serve_hot_read` — the shared-nothing server with every key
//!   resident: each request hits, so time is accept/decode/cross-shard
//!   hop/engine/encode/socket write. The durable tier and the backing
//!   store are idle.
//! * `serve_durable_mix` — the durable write-back server under
//!   SieveStore-C with half the requests writes over 16x the cache: the
//!   same protocol, engine and data-cache layers, with the cost moved to
//!   journal and frame flushes, eviction and backing bypass.
//!
//! Three phases per run: an open loop at a `mid` and at a `hi` rate
//! frozen below, then a closed loop (depth 8 per connection). The open
//! phases come first and restart the tape, so they send the same
//! requests to the same prefilled server on every run of a seed: the hit
//! ratio and SSD-write counts taken over them do not depend on how fast
//! the box happened to be. Every reply is checked against the per-key
//! payload, every acknowledged write is read back at the end, and
//! `serve_durable_mix` reads them back once more from a cache reopened
//! on the media after shutdown.

use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sievestore::{ApplianceStats, PolicySpec};
use sievestore_node::{
    DataCache, DurableMediaSet, MemBacking, NodeConfig, NodeServer, NodeServerBuilder,
    PipelinedClient, ShardedNodeServer, WritePolicy,
};
use sievestore_sieve::TwoTierConfig;
use sievestore_types::Micros;

use crate::calib::{reference_seconds, Calibrator};
use crate::counting::{counting_media, CountingBacking, MediaCounts};
use crate::host::{cpu_seconds, peak_rss_mib};
use crate::layers::{self, Event};
use crate::payload;
use crate::replay;
use crate::report::RunOutput;
use crate::span::Tracer;
use crate::stats::{median, undisturbed_rate};
use crate::wire::{Pace, Phase, PhaseOutcome, TapeOp, Traffic, WireConn};
use crate::Args;

const CONNS: usize = 2;
const WORKERS: usize = 2;
const DEPTH: usize = 8;
const TAPE_LEN: usize = 1 << 20;
/// Requests kept in flight while prefilling and reading back.
const BULK_DEPTH: usize = 64;
/// Set-ups per run. A serving set-up takes milliseconds (thread starts,
/// connects, a prefill), so it takes more of them than the replay
/// workloads' three for their median to hold still.
const SETUPS: usize = 7;

type Backing = Arc<CountingBacking<MemBacking>>;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotRead,
    DurableMix,
}

/// One workload's frozen parameters. The open-loop rates are about 25 %
/// and 50 % of the closed-loop rate measured on the commit that added
/// the benchmark, rounded to two digits; they do not follow the code.
struct Plan {
    traffic: Traffic,
    capacity: usize,
    policy: PolicySpec,
    write_policy: WritePolicy,
    durable: bool,
    mid_rps: u64,
    hi_rps: u64,
    p99_limit_us: f64,
}

impl Kind {
    fn plan(self) -> Plan {
        match self {
            Kind::HotRead => Plan {
                traffic: Traffic {
                    keys: 4096,
                    zipf_s: 0.9,
                    read_pct: 90,
                },
                capacity: 4096,
                policy: PolicySpec::Aod,
                write_policy: WritePolicy::WriteThrough,
                durable: false,
                mid_rps: 150_000,
                hi_rps: 300_000,
                p99_limit_us: 1_000.0,
            },
            Kind::DurableMix => Plan {
                traffic: Traffic {
                    keys: 65_536,
                    zipf_s: 0.9,
                    read_pct: 50,
                },
                capacity: 4096,
                policy: PolicySpec::SieveStoreC(
                    TwoTierConfig::paper_default().with_imct_entries(1 << 16),
                ),
                write_policy: WritePolicy::WriteBack,
                durable: true,
                mid_rps: 1_900,
                hi_rps: 3_800,
                p99_limit_us: 20_000.0,
            },
        }
    }
}

enum Server {
    Sharded(ShardedNodeServer<Backing>),
    Legacy(NodeServer<Backing>),
}

impl Server {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Server::Sharded(s) => s.addr(),
            Server::Legacy(s) => s.addr(),
        }
    }

    fn stats(&self) -> ApplianceStats {
        match self {
            Server::Sharded(s) => s.stats(),
            Server::Legacy(s) => s.stats(),
        }
    }

    /// Waits for the closed connections to be let go, then shuts down
    /// (which flushes dirty frames and marks the journal clean).
    fn shutdown(self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let live = |s: &Server| match s {
            Server::Sharded(s) => s.live_connections(),
            Server::Legacy(s) => s.live_connections(),
        };
        while live(&self) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        match self {
            Server::Sharded(s) => s.shutdown(),
            Server::Legacy(s) => s.shutdown(),
        }
    }
}

/// A started, connected and prefilled server with its instruments.
struct Rig {
    server: Server,
    conns: Vec<WireConn>,
    backing: Backing,
    media: Arc<MediaCounts>,
    dir: Option<PathBuf>,
}

impl Rig {
    fn teardown(self) {
        drop(self.conns);
        self.server.shutdown();
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn tapes(plan: &Plan, seed: u64) -> Vec<Arc<[TapeOp]>> {
    (0..CONNS)
        .map(|conn| plan.traffic.tape(seed, conn, CONNS, TAPE_LEN))
        .collect()
}

/// Starts the workload's server (or another flavour for the bursts).
fn start_server(
    plan: &Plan,
    workers: Option<usize>,
    backing: Backing,
    media: Option<DurableMediaSet>,
) -> Result<Server, String> {
    // The deadline is a resilience knob, not part of what is measured: a
    // flush stalled by the host would turn into failed requests.
    let config = NodeConfig {
        request_deadline: Duration::from_secs(5),
        ..NodeConfig::default()
    };
    let builder = NodeServerBuilder::new("127.0.0.1:0").config(config);
    match (media, workers) {
        (Some(media), _) => builder
            .serve_durable(
                backing,
                plan.policy.clone(),
                plan.capacity,
                plan.write_policy,
                media,
            )
            .map(|(server, _)| Server::Legacy(server)),
        (None, Some(workers)) => builder
            .workers(workers)
            .serve_sharded(
                backing,
                plan.policy.clone(),
                plan.capacity,
                plan.write_policy,
            )
            .map(Server::Sharded),
        (None, None) => DataCache::new(backing, plan.policy.clone(), plan.capacity)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))
            .and_then(|cache| builder.serve(cache.with_write_policy(plan.write_policy)))
            .map(Server::Legacy),
    }
    .map_err(io_err)
}

/// Connects the generator connections and writes version 1 of every key.
fn connect_and_prefill(
    addr: std::net::SocketAddr,
    plan: &Plan,
    tapes: &[Arc<[TapeOp]>],
) -> Result<(Vec<WireConn>, u64), String> {
    let keys: Vec<u64> = (0..plan.traffic.keys).collect();
    let mut conns = Vec::new();
    for (i, tape) in tapes.iter().enumerate() {
        conns.push(WireConn::connect(addr, i, tapes.len(), Arc::clone(tape)).map_err(io_err)?);
    }
    let failed = on_each_conn(&mut conns, |conn| conn.prefill(&keys, BULK_DEPTH))?
        .iter()
        .sum();
    Ok((conns, failed))
}

/// One set-up: media open, server start, connect, prefill.
fn set_up(
    plan: &Plan,
    tapes: &[Arc<[TapeOp]>],
    args: &Args,
    instance: usize,
) -> Result<(Rig, Duration, u64), String> {
    let dir = plan.durable.then(|| {
        args.out_dir
            .join(format!("media-{}-{instance}", std::process::id()))
    });
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let started = Instant::now();
    let backing: Backing = Arc::new(CountingBacking::new(MemBacking::new()));
    let media = Arc::new(MediaCounts::default());
    let media_set = match &dir {
        Some(dir) => Some(counting_media(
            DurableMediaSet::open_dir(dir).map_err(io_err)?,
            &media,
        )),
        None => None,
    };
    let server = start_server(plan, Some(WORKERS), Arc::clone(&backing), media_set)?;
    let (conns, failed) = connect_and_prefill(server.addr(), plan, tapes)?;
    let took = started.elapsed();
    Ok((
        Rig {
            server,
            conns,
            backing,
            media,
            dir,
        },
        took,
        failed,
    ))
}

/// What one phase measured, all connections merged.
struct PhaseRun {
    outcome: PhaseOutcome,
    phase: Phase,
    stats: (ApplianceStats, ApplianceStats),
    cpu_cores: f64,
    /// The machine's speed just before and just after the phase.
    speed: (f64, f64),
}

/// Runs `phases` in order on every connection at once. `traced[i]` says
/// whether phase `i` records spans (into one tracer per connection).
fn run_phases(
    rig: &mut Rig,
    phases: &[Phase],
    traced: &[bool],
    epoch: Instant,
    calibrator: &mut Calibrator,
) -> Result<(Vec<PhaseRun>, Tracer), String> {
    let barrier = Barrier::new(rig.conns.len() + 1);
    let start = Mutex::new(Instant::now());
    let server = &rig.server;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .map(|conn| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || -> std::io::Result<(Vec<PhaseOutcome>, Tracer)> {
                    let mut tracer = Tracer::new(epoch);
                    let mut outcomes = Vec::new();
                    // A connection that failed keeps meeting the others at
                    // the barriers, or they would wait for it for ever.
                    let mut failure = None;
                    conn.rewind();
                    for (phase, &traced) in phases.iter().zip(traced) {
                        barrier.wait();
                        if failure.is_none() {
                            let at = *start.lock().expect("start time lock");
                            match conn.run_phase(phase, at, traced.then_some(&mut tracer)) {
                                Ok(outcome) => outcomes.push(outcome),
                                Err(e) => failure = Some(e),
                            }
                        }
                        barrier.wait();
                    }
                    failure.map_or(Ok((outcomes, tracer)), Err)
                })
            })
            .collect();
        let mut runs = Vec::new();
        let mut speed_before = calibrator.speed();
        for phase in phases {
            let (stats_before, cpu_before) = (server.stats(), cpu_seconds());
            let began = Instant::now();
            *start.lock().expect("start time lock") = began + Duration::from_millis(2);
            barrier.wait();
            barrier.wait();
            let wall = began.elapsed().as_secs_f64();
            let cpu_cores = (cpu_seconds() - cpu_before) / wall;
            let speed_after = calibrator.speed();
            runs.push(PhaseRun {
                outcome: PhaseOutcome::default(),
                phase: *phase,
                stats: (stats_before, server.stats()),
                cpu_cores,
                speed: (speed_before, speed_after),
            });
            speed_before = speed_after;
        }
        let mut tracer = Tracer::new(epoch);
        for handle in handles {
            let (outcomes, conn_tracer) = handle
                .join()
                .expect("generator thread panicked")
                .map_err(io_err)?;
            for (run, outcome) in runs.iter_mut().zip(&outcomes) {
                run.outcome.merge(outcome);
            }
            tracer.absorb(conn_tracer);
        }
        Ok((runs, tracer))
    })
}

impl PhaseRun {
    /// Windows worth reporting: the first is the phase settling in.
    fn steady_windows(&self) -> &[crate::wire::Window] {
        let windows = &self.outcome.windows;
        if windows.len() >= 3 {
            &windows[1..]
        } else {
            windows
        }
    }

    /// Requests per second, median of the steady windows.
    fn qps(&self) -> f64 {
        let rates: Vec<f64> = self
            .steady_windows()
            .iter()
            .map(|w| w.completed as f64 / self.phase.window.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Latency quantile in µs: computed per steady window that has at
    /// least ten samples beyond it, median across those windows; with no
    /// such window, over the windows merged. Also the sample count used.
    fn latency_us(&self, q: f64) -> Option<(f64, u64)> {
        let per_window: Vec<(f64, u64)> = self
            .steady_windows()
            .iter()
            .filter(|w| w.latency_ns.samples_beyond(q) >= 10)
            .filter_map(|w| Some((w.latency_ns.quantile(q)? / 1e3, w.latency_ns.count())))
            .collect();
        if !per_window.is_empty() {
            let values: Vec<f64> = per_window.iter().map(|(v, _)| *v).collect();
            return Some((median(&values), per_window.iter().map(|(_, n)| n).sum()));
        }
        let mut all = crate::hist::Histogram::new();
        for w in self.steady_windows() {
            all.merge(&w.latency_ns);
        }
        Some((all.quantile(q)? / 1e3, all.count()))
    }

    /// Whether the open loop kept up: nothing failed, nothing was left
    /// unsent, and the replies still missing at the end are under 1 %.
    fn kept_up(&self) -> bool {
        let o = &self.outcome;
        o.failed == 0 && o.unsent == 0 && o.late * 100 <= o.attempted
    }
}

fn phases(plan: &Plan, seconds: f64, shares: [f64; 3], smoke: bool) -> Vec<Phase> {
    let window = Duration::from_secs_f64(if smoke { 0.1 } else { 1.0 });
    let interval = |rps: u64| Pace::Open {
        interval_ns: 1_000_000_000 * CONNS as u64 / rps,
    };
    [
        interval(plan.mid_rps),
        interval(plan.hi_rps),
        Pace::Closed { depth: DEPTH },
    ]
    .into_iter()
    .zip(shares)
    .map(|(pace, share)| {
        // Whole windows only, two at least.
        let windows = ((seconds * share) / window.as_secs_f64()).floor().max(2.0);
        Phase {
            pace,
            duration: window.mul_f64(windows),
            window,
        }
    })
    .collect()
}

/// Runs `work` on every connection at once, one thread each.
fn on_each_conn<T: Send>(
    conns: &mut [WireConn],
    work: impl Fn(&mut WireConn) -> std::io::Result<T> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(|| work(conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("connection thread panicked")
                    .map_err(io_err)
            })
            .collect()
    })
}

/// Reads every key back over the wire; returns (read, failed).
fn read_back(rig: &mut Rig, plan: &Plan) -> Result<(u64, u64), String> {
    let keys: Vec<u64> = (0..plan.traffic.keys).collect();
    let counts = on_each_conn(&mut rig.conns, |conn| conn.read_back(&keys, BULK_DEPTH))?;
    Ok(counts
        .iter()
        .fold((0, 0), |(n, f), (read, failed)| (n + read, f + failed)))
}

/// Shuts the server down, reopens a cache on the media it left and reads
/// every acknowledged write back at its exact version.
fn verify_after_restart(rig: Rig, plan: &Plan, out: &mut RunOutput) -> Result<(), String> {
    let acknowledged: Vec<(u64, u64)> = rig.conns.iter().flat_map(WireConn::acknowledged).collect();
    let Rig {
        server,
        conns,
        backing,
        dir,
        ..
    } = rig;
    drop(conns);
    server.shutdown();
    let dir = dir.expect("durable workloads have a media directory");
    let media = DurableMediaSet::open_dir(&dir).map_err(io_err)?;
    let (mut cache, report) =
        DataCache::new_durable(backing, plan.policy.clone(), plan.capacity, media)
            .map_err(|e| e.to_string())?;
    let cache_ref = &mut cache;
    let mut wrong = 0u64;
    for (i, &(key, version)) in acknowledged.iter().enumerate() {
        let (data, _) = cache_ref.read(key, Micros::new(i as u64)).map_err(io_err)?;
        wrong += u64::from(payload::check(key, &data) != Some(version));
    }
    out.note(format!(
        "restart: {} frames recovered ({} quarantined, clean shutdown {}), {} acknowledged writes read back, {wrong} wrong",
        report.recovered, report.quarantined, report.clean_shutdown, acknowledged.len()
    ));
    out.attempted += acknowledged.len() as u64;
    out.failed += wrong;
    drop(cache);
    std::fs::remove_dir_all(&dir).map_err(io_err)
}

fn delta(stats: &(ApplianceStats, ApplianceStats)) -> ApplianceStats {
    let (a, b) = stats;
    ApplianceStats {
        read_hits: b.read_hits - a.read_hits,
        write_hits: b.write_hits - a.write_hits,
        read_misses: b.read_misses - a.read_misses,
        write_misses: b.write_misses - a.write_misses,
        allocation_writes: b.allocation_writes - a.allocation_writes,
        batch_allocations: b.batch_allocations - a.batch_allocations,
    }
}

fn note_phase(out: &mut RunOutput, label: &str, run: &PhaseRun) {
    let rates: Vec<String> = run
        .outcome
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.completed as f64 / run.phase.window.as_secs_f64()))
        .collect();
    let quantile = |q| {
        run.latency_us(q)
            .map_or("-".to_string(), |(v, n)| format!("{v:.1} us (n={n})"))
    };
    out.note(format!(
        "{label}: attempted {} failed {} unsent {} late {} | p50 {} p99 {} | req/s per window: {}",
        run.outcome.attempted,
        run.outcome.failed,
        run.outcome.unsent,
        run.outcome.late,
        quantile(0.5),
        quantile(0.99),
        rates.join(" ")
    ));
}

pub fn run(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    if args.trace {
        run_traced(kind, name, args)
    } else {
        run_end_to_end(kind, name, args)
    }
}

fn run_end_to_end(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    let plan = kind.plan();
    let tapes = tapes(&plan, args.seed);
    let mut out = RunOutput::default();
    let mut calibrator = Calibrator::new();
    let mut speed = calibrator.speed();
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for instance in 0..if args.smoke { 1 } else { SETUPS } {
        if let Some(earlier) = rig.take() {
            earlier.teardown();
            speed = calibrator.speed();
        }
        let (fresh, took, failed) = set_up(&plan, &tapes, args, instance)?;
        let after = calibrator.speed();
        setups.push(reference_seconds(took.as_secs_f64(), speed, after));
        speed = after;
        out.attempted += plan.traffic.keys;
        out.failed += failed;
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one set-up");
    out.note(format!(
        "{name}: seed {}, {} keys, capacity {}, {} % reads, open loop at {} and {} req/s, p99 limit {} us",
        args.seed, plan.traffic.keys, plan.capacity, plan.traffic.read_pct, plan.mid_rps, plan.hi_rps, plan.p99_limit_us
    ));

    // The closed loop runs as a series of one-window phases, so the
    // machine's speed is sampled between every two of them.
    let three = phases(&plan, args.seconds, [0.2, 0.2, 0.6], args.smoke);
    let slices = (three[2].duration.as_secs_f64() / three[2].window.as_secs_f64()).round() as usize;
    let mut phases = vec![three[0], three[1]];
    phases.extend(std::iter::repeat_n(
        Phase {
            duration: three[2].window,
            ..three[2]
        },
        slices,
    ));
    let traced = vec![false; phases.len()];
    let (runs, _) = run_phases(&mut rig, &phases, &traced, Instant::now(), &mut calibrator)?;
    for run in &runs {
        out.attempted += run.outcome.attempted;
        out.failed += run.outcome.failed + run.outcome.unsent;
    }
    let (mid, hi, closed) = (&runs[0], &runs[1], &runs[2..]);
    note_phase(&mut out, "mid", mid);
    note_phase(&mut out, "hi", hi);
    // The first slice is the loop settling in.
    let steady = if closed.len() >= 3 {
        &closed[1..]
    } else {
        closed
    };
    let rates: Vec<f64> = steady
        .iter()
        .map(|run| run.qps() / ((run.speed.0 + run.speed.1) / 2.0))
        .collect();
    out.note(format!(
        "closed, {} slices, raw req/s @ machine speed: {}",
        closed.len(),
        closed
            .iter()
            .map(|run| format!("{:.0}@{:.2}", run.qps(), (run.speed.0 + run.speed.1) / 2.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let (read, failed) = read_back(&mut rig, &plan)?;
    out.attempted += read;
    out.failed += failed;

    // Counted over the open phases: a fixed number of fixed requests.
    let served = delta(&(mid.stats.0, hi.stats.1));
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_ref_s", undisturbed_rate(&rates), "1/s");
    out.metric("hit_ratio", served.hit_ratio(), "ratio");
    out.metric(
        "ssd_writes_per_kaccess",
        (served.allocation_writes + served.write_hits) as f64 * 1000.0
            / served.accesses().max(1) as f64,
        "count",
    );
    if plan.durable {
        verify_after_restart(rig, &plan, &mut out)?;
    } else {
        rig.teardown();
    }
    Ok(out)
}

/// The head of the tapes, interleaved as the server sees them, on the
/// server's logical clock (one millisecond per request).
fn events_of(tapes: &[Arc<[TapeOp]>], limit: usize) -> Vec<Event> {
    (0..limit)
        .map(|i| {
            let op = tapes[i % tapes.len()][(i / tapes.len()) % TAPE_LEN];
            Event {
                key: op.key,
                write: !op.read,
                now: Micros::new(i as u64 * 1_000),
            }
        })
        .collect()
}

/// A closed-loop burst of the workload's traffic against a fresh server
/// of another flavour; returns requests per second and the failures.
fn burst(
    plan: &Plan,
    workers: Option<usize>,
    tapes: &[Arc<[TapeOp]>],
    phase: &Phase,
) -> Result<(f64, u64), String> {
    let backing: Backing = Arc::new(CountingBacking::new(MemBacking::new()));
    let server = start_server(plan, workers, Arc::clone(&backing), None)?;
    let (conns, mut failed) = connect_and_prefill(server.addr(), plan, tapes)?;
    let mut rig = Rig {
        server,
        conns,
        backing,
        media: Arc::new(MediaCounts::default()),
        dir: None,
    };
    let result = run_phases(
        &mut rig,
        std::slice::from_ref(phase),
        &[false],
        Instant::now(),
        &mut Calibrator::new(),
    );
    rig.teardown();
    let (runs, _) = result?;
    failed += runs[0].outcome.failed;
    Ok((runs[0].qps(), failed))
}

/// The same closed-loop traffic through `PipelinedClient`, one thread
/// per connection; returns requests per second and the failures.
fn client_burst(
    plan: &Plan,
    tapes: &[Arc<[TapeOp]>],
    duration: Duration,
) -> Result<(f64, u64), String> {
    let backing: Backing = Arc::new(CountingBacking::new(MemBacking::new()));
    let server = start_server(plan, Some(WORKERS), backing, None)?;
    let addr = server.addr();
    let (conns, mut failed) = connect_and_prefill(addr, plan, tapes)?;
    drop(conns);
    let began = Instant::now();
    let totals = std::thread::scope(|scope| {
        let handles: Vec<_> = tapes
            .iter()
            .map(|tape| {
                scope.spawn(move || -> Result<(u64, u64), String> {
                    let mut client =
                        PipelinedClient::connect(addr, DEPTH).map_err(|e| e.to_string())?;
                    let mut block = [0u8; 512];
                    let (mut done, mut failed) = (0u64, 0u64);
                    let mut settle = |completions: Vec<sievestore_node::Completion>| {
                        done += completions.len() as u64;
                        failed += completions.iter().filter(|c| c.result.is_err()).count() as u64;
                    };
                    for op in tape.iter().cycle() {
                        if began.elapsed() >= duration {
                            break;
                        }
                        let finished = if op.read {
                            client.read(op.key)
                        } else {
                            payload::fill(op.key, 2, &mut block);
                            client.write(op.key, &block)
                        };
                        settle(finished.map_err(|e| e.to_string())?);
                    }
                    settle(client.quit().map_err(|e| e.to_string())?);
                    Ok((done, failed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    });
    let wall = began.elapsed().as_secs_f64();
    server.shutdown();
    let totals = totals?;
    failed += totals.iter().map(|(_, f)| f).sum::<u64>();
    Ok((
        totals.iter().map(|(n, _)| n).sum::<u64>() as f64 / wall,
        failed,
    ))
}

/// The tape through a data cache in this process: no sockets, no server
/// threads. Returns ns per request and the appliance's counters.
fn in_process(
    plan: &Plan,
    policy: PolicySpec,
    media: Option<DurableMediaSet>,
    events: &[Event],
) -> Result<(f64, ApplianceStats), String> {
    let backing = MemBacking::new();
    let mut cache = match media {
        Some(media) => {
            DataCache::new_durable(backing, policy, plan.capacity, media).map(|(cache, _)| cache)
        }
        None => DataCache::new(backing, policy, plan.capacity),
    }
    .map_err(|e| e.to_string())?
    .with_write_policy(plan.write_policy);
    let mut block = [0u8; 512];
    for key in 0..plan.traffic.keys {
        payload::fill(key, 1, &mut block);
        cache.write(key, &block, Micros::new(0)).map_err(io_err)?;
    }
    let before = *cache.stats();
    let started = Instant::now();
    for e in events {
        if e.write {
            payload::fill(e.key, 2, &mut block);
            cache.write(e.key, &block, e.now).map_err(io_err)?;
        } else {
            std::hint::black_box(cache.read(e.key, e.now).map_err(io_err)?);
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / events.len().max(1) as f64;
    Ok((ns, delta(&(before, *cache.stats()))))
}

fn run_traced(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    let plan = kind.plan();
    let tapes = tapes(&plan, args.seed);
    let mut out = RunOutput::default();
    let mut calibrator = Calibrator::new();
    out.metric(
        "bench.calib_ms",
        calibrator.seconds().iter().sum::<f64>() * 1e3,
        "ms",
    );
    let epoch = Instant::now();
    let (mut rig, _, prefill_failed) = set_up(&plan, &tapes, args, 0)?;
    out.attempted += plan.traffic.keys;
    out.failed += prefill_failed;

    // The two open-loop rates, then the closed loop twice: plain, and
    // with a span around every call the generator makes into a layer.
    let three = phases(&plan, args.seconds, [0.25, 0.25, 0.15], args.smoke);
    let four = [three[0], three[1], three[2], three[2]];
    let storage_before = (rig.media.snapshot(), rig.backing.snapshot());
    let (runs, tracer) = run_phases(
        &mut rig,
        &four,
        &[false, false, false, true],
        epoch,
        &mut calibrator,
    )?;
    let media = rig.media.snapshot().since(&storage_before.0);
    let backing = rig.backing.snapshot().since(&storage_before.1);
    // Before the bursts and probes allocate servers and tables of their own.
    out.metric("proc.peak_rss_mib", peak_rss_mib(), "MiB");
    for (label, run) in ["mid", "hi", "closed", "closed traced"].iter().zip(&runs) {
        note_phase(&mut out, label, run);
        out.attempted += run.outcome.attempted;
        out.failed += run.outcome.failed + run.outcome.unsent;
    }
    let (read, failed) = read_back(&mut rig, &plan)?;
    out.attempted += read;
    out.failed += failed;
    let [mid, hi, plain, spanned] = &runs[..] else {
        unreachable!("four phases ran");
    };

    // Self times: the traced wall is the generator threads' time in the
    // traced phase (two threads, each for the whole phase).
    let wall_ns = tracer.layer_time("bench.gen.batch").total_ns;
    let residual_ns = tracer.residual_ns(wall_ns);
    out.notes
        .extend(tracer.write(&args.out_dir, name, wall_ns).map_err(io_err)?);
    out.metric(
        "bench.trace_overhead_frac",
        plain.qps() / spanned.qps() - 1.0,
        "frac",
    );
    out.metric(
        "bench.residual_frac",
        residual_ns as f64 / wall_ns.max(1) as f64,
        "frac",
    );

    // Open-loop latency against the frozen limit, and the highest rate
    // that met it with no growing backlog.
    let mut rate_ok = 0;
    for (label, run, rps) in [("mid", mid, plan.mid_rps), ("hi", hi, plan.hi_rps)] {
        let p50 = run.latency_us(0.5).ok_or("open loop completed nothing")?.0;
        let p99 = run.latency_us(0.99).ok_or("open loop completed nothing")?.0;
        out.metric(
            format!("serve.p50_over_limit.{label}"),
            p50 / plan.p99_limit_us,
            "frac",
        );
        out.metric(
            format!("serve.p99_over_limit.{label}"),
            p99 / plan.p99_limit_us,
            "frac",
        );
        if p99 <= plan.p99_limit_us && run.kept_up() {
            rate_ok = rps;
        }
        let interval_ns = 1e9 * CONNS as f64 / rps as f64;
        out.metric(
            format!("bench.gen.lag_p99_intervals.{label}"),
            run.outcome.lag_ns.quantile(0.99).unwrap_or(0.0) / interval_ns,
            "ratio",
        );
    }
    out.metric("serve.rate_ok_rps", rate_ok as f64, "1/s");
    out.metric("node.cpu_cores.mid", mid.cpu_cores, "cores");

    // Storage boundaries, over the four phases.
    let requests: u64 = runs.iter().map(|r| r.outcome.completed()).sum();
    let wall: f64 = runs.iter().map(|r| r.phase.duration.as_secs_f64()).sum();
    let per_kreq = |n: u64| n as f64 * 1000.0 / requests.max(1) as f64;
    let user_bytes: u64 = runs.iter().map(|r| r.outcome.written_bytes).sum();
    out.metric(
        "node.durable.syncs_per_kreq",
        per_kreq(media.syncs),
        "count",
    );
    out.metric(
        "node.durable.media_bytes_per_user_byte",
        media.bytes_written as f64 / user_bytes.max(1) as f64,
        "ratio",
    );
    out.metric(
        "node.durable.sync_time_frac",
        media.sync_ns as f64 / 1e9 / wall,
        "frac",
    );
    out.metric(
        "node.backing.reads_per_kreq",
        per_kreq(backing.reads),
        "count",
    );
    out.metric(
        "node.backing.writes_per_kreq",
        per_kreq(backing.writes),
        "count",
    );
    out.metric(
        "node.backing.time_frac",
        backing.busy_ns as f64 / 1e9 / wall,
        "frac",
    );
    if plan.durable {
        verify_after_restart(rig, &plan, &mut out)?;
    } else {
        rig.teardown();
    }

    // The same requests without the network: what serving adds.
    let events = events_of(&tapes, if args.smoke { 20_000 } else { 400_000 });
    let in_process_events = &events[..events.len() / if plan.durable { 40 } else { 1 }];
    let dir = args.out_dir.join(format!("inproc-{}", std::process::id()));
    let media_set = match plan.durable {
        true => Some(DurableMediaSet::open_dir(&dir).map_err(io_err)?),
        false => None,
    };
    let (in_process_ns, _) = in_process(&plan, plan.policy.clone(), media_set, in_process_events)?;
    if plan.durable {
        std::fs::remove_dir_all(&dir).map_err(io_err)?;
    }
    let served_ns = 1e9 / plain.qps();
    out.metric(
        "node.net_overhead_frac",
        1.0 - in_process_ns / served_ns,
        "frac",
    );

    match kind {
        Kind::DurableMix => {
            // Allocation-writes the sieve refuses, against allocate-on-demand
            // on the same requests (exact: no threads, no clock).
            let memory_only = Plan {
                durable: false,
                ..kind.plan()
            };
            let (_, sieved) = in_process(&memory_only, plan.policy.clone(), None, &events)?;
            let (_, unsieved) = in_process(&memory_only, PolicySpec::Aod, None, &events)?;
            out.metric(
                "node.sieve.alloc_writes_avoided_frac",
                1.0 - sieved.allocation_writes as f64 / unsieved.allocation_writes.max(1) as f64,
                "frac",
            );
        }
        Kind::HotRead => {
            // Server flavours and the client library under this traffic.
            let burst_phase = Phase {
                pace: Pace::Closed { depth: DEPTH },
                duration: three[2].window.mul_f64(3.0),
                window: three[2].window,
            };
            for (metric, workers) in [
                ("node.sharded.qps.w1", Some(1)),
                ("node.sharded.qps.w2", Some(2)),
                ("node.server.qps.legacy", None),
            ] {
                let (qps, failed) = burst(&plan, workers, &tapes, &burst_phase)?;
                out.metric(metric, qps, "1/s");
                out.failed += failed;
            }
            let (client_qps, failed) = client_burst(&plan, &tapes, burst_phase.duration)?;
            out.failed += failed;
            out.metric(
                "node.client.overhead_frac",
                1.0 - client_qps / plain.qps(),
                "frac",
            );
        }
    }

    out.metric(
        "trace.stream.drain_ns_per_event",
        replay::drain_ns_per_event(args)?,
        "ns",
    );
    layers::appliance_metrics(&events, plan.capacity, &mut out)?;
    layers::probe_all(&events, plan.policy.clone(), plan.capacity, args, &mut out)?;
    Ok(out)
}
