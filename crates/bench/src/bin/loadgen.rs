//! Saturating ensemble load generator for the node serving path.
//!
//! Drives the node server at two shard counts — one shard (`one-shard`)
//! and `--workers` shards (`sharded`), the same implementation both
//! times — with the same multi-connection, pipelined, Zipf-skewed
//! read/write mix over loopback TCP, and reports QPS plus latency
//! quantiles per run as `BENCH_node.json`
//! ([`sievestore_bench::node_json`]).
//!
//! ```sh
//! cargo run -p sievestore-bench --release --bin loadgen -- \
//!     --out results/BENCH_node.json
//! cargo run -p sievestore-bench --release --bin loadgen -- \
//!     --check ci/BENCH_node.json --tolerance 0.25 --min-speedup 1.0
//! ```
//!
//! With `--check`, fresh QPS is compared per run against the committed
//! baseline; a drop of more than `--tolerance` fails the run. With
//! `--min-speedup X`, the run additionally enforces that striping the
//! cache does not cost throughput, tiered by what the host can
//! physically demonstrate: on >= 4 cores the sharded run must reach `X`
//! times the one-shard run, on 2–3 cores it must not be slower, and on a
//! single core — where every thread time-slices — only a
//! catastrophic-overhead bound (half of one shard) is asserted.
//! `--smoke-faults` runs a fault-injection smoke instead of the timed
//! benchmark: the breaker must trip under injected faults and probe back
//! to healthy while a pipelined client is driving.
//!
//! When `GITHUB_STEP_SUMMARY` is set (GitHub Actions), a markdown table
//! of QPS and latency quantiles per run is appended.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore::PolicySpec;
use sievestore_bench::node_json::{
    compare_node_reports, NodeBenchReport, NodeRunReport, NODE_SCHEMA, ONE_SHARD, SHARDED,
};
use sievestore_node::{
    ClientConfig, FaultInjectingBacking, FaultPlan, MemBacking, NodeClient, NodeMode,
    NodeServerBuilder, PipelinedClient, RetryPolicy, WritePolicy,
};
use sievestore_trace::Zipf;
use sievestore_types::obs::{Histogram, HistogramSnapshot};

const USAGE: &str = "\
usage: loadgen [--connections N] [--depth D] [--read-pct P] [--keys K]
               [--zipf S] [--workers W] [--ops N] [--seed S] [--out FILE]
               [--check BASELINE] [--tolerance T] [--min-speedup X]
               [--write-baseline] [--smoke-faults]

options:
  --connections N  concurrent client connections (default 32)
  --depth D        pipeline depth per connection (default 8)
  --read-pct P     read share of the workload in percent (default 70)
  --keys K         distinct keys addressed (default 4096)
  --zipf S         Zipf skew exponent, 0 = uniform (default 0.9)
  --workers W      shards of the sharded run (default 4)
  --ops N          total requests per timed run (default 100000)
  --seed S         workload seed (default 0x10AD)
  --out FILE       where to write the report (default BENCH_node.json)
  --check FILE     compare QPS against a committed baseline report; exit
                   nonzero on regression beyond --tolerance
  --tolerance T    allowed fractional QPS regression for --check
                   (default 0.25)
  --min-speedup X  striping gate: enforce the sharded-over-one-shard QPS
                   ratio, tiered by core count (>= 4 cores: X;
                   2-3: not slower; 1: overhead bounded at 50 %)
  --write-baseline also refresh the committed ci/BENCH_node.json
  --smoke-faults   run the breaker fault smoke instead of the benchmark";

/// The committed CI baseline `--write-baseline` refreshes.
const CI_BASELINE: &str = "ci/BENCH_node.json";

struct Workload {
    connections: usize,
    depth: usize,
    read_pct: u32,
    keys: u64,
    zipf: f64,
    ops: u64,
    seed: u64,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut wl = Workload {
        connections: 32,
        depth: 8,
        read_pct: 70,
        keys: 4096,
        zipf: 0.9,
        ops: 100_000,
        seed: 0x10AD,
    };
    let mut workers: usize = 4;
    let mut out = "BENCH_node.json".to_string();
    let mut check: Option<String> = None;
    let mut tolerance: f64 = 0.25;
    let mut min_speedup: Option<f64> = None;
    let mut write_baseline = false;
    let mut smoke_faults = false;

    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--connections" => {
                wl.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?;
                if wl.connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--depth" => {
                wl.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("bad --depth: {e}"))?;
                if wl.depth == 0 {
                    return Err("--depth must be at least 1".into());
                }
            }
            "--read-pct" => {
                wl.read_pct = value("--read-pct")?
                    .parse()
                    .map_err(|e| format!("bad --read-pct: {e}"))?;
                if wl.read_pct > 100 {
                    return Err("--read-pct must be in [0, 100]".into());
                }
            }
            "--keys" => {
                wl.keys = value("--keys")?
                    .parse()
                    .map_err(|e| format!("bad --keys: {e}"))?;
                if wl.keys == 0 {
                    return Err("--keys must be at least 1".into());
                }
            }
            "--zipf" => {
                wl.zipf = value("--zipf")?
                    .parse()
                    .map_err(|e| format!("bad --zipf: {e}"))?;
            }
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--ops" => {
                wl.ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("bad --ops: {e}"))?;
                if wl.ops == 0 {
                    return Err("--ops must be at least 1".into());
                }
            }
            "--seed" => {
                wl.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => out = value("--out")?,
            "--check" => check = Some(value("--check")?),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&tolerance) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
            }
            "--min-speedup" => {
                let ratio: f64 = value("--min-speedup")?
                    .parse()
                    .map_err(|e| format!("bad --min-speedup: {e}"))?;
                if ratio < 1.0 {
                    return Err("--min-speedup must be at least 1.0".into());
                }
                min_speedup = Some(ratio);
            }
            "--write-baseline" => write_baseline = true,
            "--smoke-faults" => smoke_faults = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    if smoke_faults {
        return fault_smoke(workers);
    }

    println!(
        "loadgen | {} conns x depth {}, {} % reads, {} keys (zipf {}), {} ops, seed {:#x}",
        wl.connections, wl.depth, wl.read_pct, wl.keys, wl.zipf, wl.ops, wl.seed
    );

    let runs = [(ONE_SHARD, 1), (SHARDED, workers)]
        .into_iter()
        .map(|(mode, shards)| {
            let server = NodeServerBuilder::new("127.0.0.1:0")
                .workers(shards)
                .serve_sharded(
                    MemBacking::new(),
                    PolicySpec::Aod,
                    wl.keys as usize,
                    WritePolicy::WriteThrough,
                )
                .map_err(|e| e.to_string())?;
            let run = drive(mode, shards, server.addr(), &wl)?;
            server.shutdown();
            Ok(run)
        })
        .collect::<Result<Vec<_>, String>>()?;

    let report = NodeBenchReport {
        connections: wl.connections,
        depth: wl.depth,
        read_pct: wl.read_pct,
        keys: wl.keys,
        zipf: wl.zipf,
        seed: wl.seed,
        ops: wl.ops,
        runs,
    };
    let text = report.to_json();
    assert!(text.contains(NODE_SCHEMA));
    write_report(&out, &text)?;
    println!("report written to {out}");
    if write_baseline {
        write_report(CI_BASELINE, &text)?;
        println!("baseline refreshed at {CI_BASELINE}");
    }

    let baseline = match &check {
        Some(path) => {
            let baseline_text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading baseline {path}: {e}"))?;
            Some(
                NodeBenchReport::from_json(&baseline_text)
                    .map_err(|e| format!("parsing baseline {path}: {e}"))?,
            )
        }
        None => None,
    };

    // The markdown summary goes up regardless of whether the gates below
    // pass: failed runs are exactly the ones whose numbers matter.
    write_step_summary(&report, baseline.as_ref());

    if let Some(baseline) = &baseline {
        match compare_node_reports(&report, baseline, tolerance) {
            Ok(lines) => {
                println!(
                    "baseline check passed (tolerance {:.0} %):",
                    tolerance * 100.0
                );
                for line in lines {
                    println!("  {line}");
                }
            }
            Err(failures) => {
                for failure in &failures {
                    eprintln!("  {failure}");
                }
                eprintln!(
                    "performance gate failed: {} configuration(s) regressed beyond {:.0} %",
                    failures.len(),
                    tolerance * 100.0
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    if let Some(min_speedup) = min_speedup {
        let speedup = report.speedup().ok_or("both runs were just timed")?;
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // Tiered by what the host can physically show, mirroring the
        // replay scaling gate: >= 4 cores must reach the asked ratio,
        // 2-3 cores must not lose to one shard, and on a single core —
        // where connection threads time-slice with the client threads —
        // only a catastrophic overhead bound holds.
        let (floor, criterion) = if cores >= 4 {
            (
                min_speedup,
                format!("{workers} shards must reach {min_speedup:.2}x one shard"),
            )
        } else if cores >= 2 {
            (1.0, format!("{workers} shards must not be slower than one"))
        } else {
            (0.5, "overhead bounded at 50 %".to_string())
        };
        if speedup < floor {
            eprintln!(
                "striping gate failed on {cores} core(s) ({criterion}): \
                 {workers} shards are {speedup:.2}x one shard — floor {floor:.2}x"
            );
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "striping gate passed on {cores} core(s) ({criterion}): \
             {workers} shards are {speedup:.2}x one shard"
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Times one shard count: prefills every key (so steady-state reads
/// hit), then fans `connections` pipelined clients out and measures the
/// wall clock over exactly `ops` requests.
fn drive(
    mode: &str,
    workers: usize,
    addr: std::net::SocketAddr,
    wl: &Workload,
) -> Result<NodeRunReport, String> {
    // Prefill outside the timed window: with allocate-on-demand and
    // capacity == keys, every key is resident and the timed phase
    // measures the serving path, not cold misses.
    {
        let mut client =
            PipelinedClient::connect(addr, 64).map_err(|e| format!("prefill connect: {e}"))?;
        for key in 0..wl.keys {
            client
                .write(key, &[key as u8; 512])
                .map_err(|e| format!("prefill write: {e}"))?;
        }
        let done = client.drain().map_err(|e| format!("prefill drain: {e}"))?;
        if let Some(bad) = done.iter().find(|c| c.result.is_err()) {
            return Err(format!("prefill op on key {} failed", bad.key));
        }
        client.quit().map_err(|e| format!("prefill quit: {e}"))?;
    }

    let zipf = Zipf::new(wl.keys, wl.zipf)?;
    let barrier = Arc::new(Barrier::new(wl.connections + 1));
    let errors = Arc::new(AtomicU64::new(0));
    let per_conn = wl.ops / wl.connections as u64;
    let remainder = wl.ops % wl.connections as u64;

    let mut threads = Vec::with_capacity(wl.connections);
    for conn in 0..wl.connections {
        let barrier = Arc::clone(&barrier);
        let errors = Arc::clone(&errors);
        let quota = per_conn + u64::from((conn as u64) < remainder);
        let depth = wl.depth;
        let read_pct = wl.read_pct;
        let seed = wl.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        threads.push(std::thread::spawn(
            move || -> Result<HistogramSnapshot, String> {
                let mut client = PipelinedClient::connect(addr, depth)
                    .map_err(|e| format!("conn {conn} connect: {e}"))?;
                let mut rng = SmallRng::seed_from_u64(seed);
                let hist = Histogram::new();
                let settle = |done: Vec<sievestore_node::Completion>| {
                    for c in done {
                        if c.result.is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        hist.record(c.latency.as_micros() as u64);
                    }
                };
                barrier.wait();
                for _ in 0..quota {
                    let key = zipf.sample(&mut rng) - 1;
                    let done = if rng.random_range(0..100u32) < read_pct {
                        client.read(key)
                    } else {
                        client.write(key, &[key as u8; 512])
                    }
                    .map_err(|e| format!("conn {conn} submit: {e}"))?;
                    settle(done);
                }
                settle(
                    client
                        .drain()
                        .map_err(|e| format!("conn {conn} drain: {e}"))?,
                );
                client
                    .quit()
                    .map_err(|e| format!("conn {conn} quit: {e}"))?;
                Ok(hist.snapshot())
            },
        ));
    }

    barrier.wait();
    let started = Instant::now();
    let mut merged = HistogramSnapshot::empty();
    for thread in threads {
        let snap = thread.join().map_err(|_| "connection thread panicked")??;
        merged.merge(&snap);
    }
    let wall_secs = started.elapsed().as_secs_f64();

    if errors.load(Ordering::Relaxed) > 0 {
        return Err(format!(
            "{} request(s) failed during the {mode} run",
            errors.load(Ordering::Relaxed)
        ));
    }
    if merged.count() != wl.ops {
        return Err(format!(
            "{mode} run completed {} of {} requests",
            merged.count(),
            wl.ops
        ));
    }

    let q = |quantile: f64| merged.quantile_floor(quantile).unwrap_or(0);
    let run = NodeRunReport {
        mode: mode.into(),
        workers,
        wall_secs,
        qps: wl.ops as f64 / wall_secs,
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
        p999_us: q(0.999),
    };
    println!(
        "{:>8} ({} workers): {:>9.0} req/s | p50 {} µs, p95 {} µs, p99 {} µs, p99.9 {} µs",
        run.mode, run.workers, run.qps, run.p50_us, run.p95_us, run.p99_us, run.p999_us
    );
    Ok(run)
}

/// The CI fault smoke: a pipelined client drives the sharded server
/// while injected backing faults trip a shard's breaker; every
/// request must still complete, and the breaker must probe back to
/// healthy.
fn fault_smoke(workers: usize) -> Result<ExitCode, String> {
    let backing = FaultInjectingBacking::new(MemBacking::new(), FaultPlan::new(0x5EED));
    let handle = backing.handle();
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(workers)
        .serve_sharded(backing, PolicySpec::Aod, 1024, WritePolicy::WriteThrough)
        .map_err(|e| e.to_string())?;

    let config = ClientConfig {
        retry: RetryPolicy {
            attempts: 8,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(8),
        },
        ..ClientConfig::default()
    };
    let mut client =
        PipelinedClient::connect_with(server.addr(), config, 8).map_err(|e| e.to_string())?;

    client.write(1, &[0x5A; 512]).map_err(|e| e.to_string())?;
    client.drain().map_err(|e| e.to_string())?;

    // Sustained faults on an uncached key trip its shard's breaker; the
    // pipelined retries ride through into degraded pass-through.
    handle.fail_next(3);
    client.read(999).map_err(|e| e.to_string())?;
    let done = client.drain().map_err(|e| e.to_string())?;
    if done.iter().any(|c| c.result.is_err()) {
        return Err("request failed while the breaker tripped".into());
    }
    if server.mode() != NodeMode::Degraded {
        return Err(format!(
            "breaker did not trip (mode {:?} after sustained faults)",
            server.mode()
        ));
    }
    println!("fault smoke: breaker tripped into degraded pass-through");

    // Spend the cooldown; the probe finds the healed backing.
    for _ in 0..16 {
        client.read(999).map_err(|e| e.to_string())?;
        client.drain().map_err(|e| e.to_string())?;
        if server.mode() == NodeMode::Healthy {
            break;
        }
    }
    if server.mode() != NodeMode::Healthy {
        return Err(format!(
            "breaker did not recover (mode {:?} after cooldown)",
            server.mode()
        ));
    }
    println!("fault smoke: breaker probed back to healthy under pipelined load");

    // The node still serves correct bytes end to end.
    let mut check = NodeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let (data, _) = check.read_block(1).map_err(|e| e.to_string())?;
    if data[0] != 0x5A {
        return Err("data corrupted across the fault cycle".into());
    }
    check.quit().map_err(|e| e.to_string())?;
    client.quit().map_err(|e| e.to_string())?;
    server.shutdown();
    println!("fault smoke passed");
    Ok(ExitCode::SUCCESS)
}

fn write_report(path: &str, text: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("creating {parent:?}: {e}"))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

/// Appends a markdown QPS/latency table to `$GITHUB_STEP_SUMMARY` when
/// the environment provides one (GitHub Actions), including deltas
/// against the `--check` baseline when available. Best-effort: summary
/// failures never fail the benchmark.
fn write_step_summary(report: &NodeBenchReport, baseline: Option<&NodeBenchReport>) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut md = String::from("### Node serving throughput\n\n");
    md.push_str(&format!(
        "`{}` requests, {} connections x depth {}, {} % reads, {} keys (zipf {})\n\n",
        report.ops, report.connections, report.depth, report.read_pct, report.keys, report.zipf
    ));
    md.push_str("| mode | workers | req/s | p50 µs | p95 µs | p99 µs | p99.9 µs | vs baseline |\n");
    md.push_str("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |\n");
    for run in &report.runs {
        let delta = baseline
            .and_then(|b| b.run_with_mode(&run.mode))
            .map(|b| format!("{:+.1} %", (run.qps / b.qps - 1.0) * 100.0))
            .unwrap_or_else(|| "—".into());
        md.push_str(&format!(
            "| {} | {} | {:.0} | {} | {} | {} | {} | {} |\n",
            run.mode, run.workers, run.qps, run.p50_us, run.p95_us, run.p99_us, run.p999_us, delta
        ));
    }
    if let Some(speedup) = report.speedup() {
        md.push_str(&format!("\nsharded over one shard: **{speedup:.2}x**\n"));
    }
    let _ = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()));
}
