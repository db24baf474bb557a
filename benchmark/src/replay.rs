//! The two replay workloads.
//!
//! * `replay_seq_c` — the sequential engine under the paper's headline
//!   continuous policy: IMCT/MCT and LRU do most of the work; no routing,
//!   channels, epoch counting or day-barrier work.
//! * `replay_shard_d` — the sharded engine (2 workers) under
//!   SieveStore-D: the two-tier sieve and LRU are idle; time goes to the
//!   trace stream, routing/batching/channels, the day barrier, epoch
//!   counting and `BatchCache::install_epoch`.
//!
//! Both check every timed rep against a reference made in set-up by a
//! different code path: `replay_seq_c` against the benchmark's own
//! hand-rolled loop over `SieveStore::access`, `replay_shard_d` against
//! the sequential engine.

use std::time::{Duration, Instant};

use sievestore::{ApplianceStats, PolicySpec, SieveStoreBuilder};
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{simulate, simulate_sharded, DayMetrics, ReplayStats, SimConfig, SimResult};
use sievestore_trace::{EnsembleConfig, Scale, StreamMsg, SyntheticTrace};
use sievestore_types::RequestKind;

use crate::calib::{reference_seconds, Calibrator};
use crate::digest::digest_days;
use crate::host::peak_rss_mib;
use crate::layers::{self, Event};
use crate::report::RunOutput;
use crate::span::Tracer;
use crate::stats::{median, undisturbed_rate};
use crate::{golden_digest, Args};

/// Worker threads of the sharded engine: fixed, not derived from the
/// host's core count, so numbers compare across boxes.
const SHARDS: usize = 2;

/// Block accesses kept from the head of the trace as the layer probes'
/// input.
const PROBE_EVENTS: usize = 2_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SeqC,
    ShardD,
}

impl Kind {
    fn scale(self, smoke: bool) -> u32 {
        match (self, smoke) {
            (_, true) => 1 << 15,
            (Kind::SeqC, false) => 4096,
            (Kind::ShardD, false) => 2048,
        }
    }

    fn policy(self) -> PolicySpec {
        match self {
            Kind::SeqC => policy_c(),
            Kind::ShardD => policy_d(),
        }
    }
}

fn policy_c() -> PolicySpec {
    PolicySpec::SieveStoreC(TwoTierConfig::paper_default())
}

fn policy_d() -> PolicySpec {
    PolicySpec::SieveStoreD { threshold: 10 }
}

struct Fixture {
    trace: SyntheticTrace,
    cfg: SimConfig,
    scale: u32,
}

fn fixture(kind: Kind, args: &Args) -> Result<Fixture, String> {
    fixture_at(kind.scale(args.smoke), args)
}

fn fixture_at(scale: u32, args: &Args) -> Result<Fixture, String> {
    let trace = SyntheticTrace::new(
        EnsembleConfig::msr_like()
            .with_scale(Scale::new(scale).map_err(|e| e.to_string())?)
            .with_seed(args.seed),
    )
    .map_err(|e| e.to_string())?;
    Ok(Fixture {
        trace,
        cfg: SimConfig::paper_16gb(scale),
        scale,
    })
}

fn digest_result(result: &SimResult, trace: &SyntheticTrace) -> u64 {
    digest_days(
        &result.policy,
        result.capacity_blocks,
        &result.days,
        trace.days() as usize,
    )
}

/// What the benchmark's own replay loop produced and where its time went.
pub struct HandRolled {
    pub digest: u64,
    pub events: u64,
    pub wall: Duration,
}

const REP: &str = "bench.rep";

/// Replays the trace through `SieveStore::access` directly: the stream,
/// the appliance and nothing else. Per-day counters come from
/// differencing the appliance's running totals at each day marker, so
/// the loop carries no metrics code of its own. With a tracer, every
/// call into a layer is a span under this rep's root span.
pub fn hand_rolled(
    trace: &SyntheticTrace,
    spec: PolicySpec,
    cfg: &SimConfig,
    rep: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<HandRolled, String> {
    let name = spec.name();
    let started = Instant::now();
    let mut store = SieveStoreBuilder::new()
        .capacity_blocks(cfg.capacity_blocks)
        .policy(spec)
        .eviction(cfg.eviction)
        .counting(cfg.counting.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut stream = trace.stream(cfg.trace_stream.clone());
    let mut days: Vec<DayMetrics> = Vec::new();
    let mut day_open = false;
    let mut before = *store.stats();
    let mut close = |name: &'static str, start: Instant| {
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.close(name, Some(REP), rep, start, true);
        }
    };
    loop {
        let t = Instant::now();
        let msg = stream.next_msg();
        close("trace.stream.next_msg", t);
        match msg {
            None => break,
            Some(StreamMsg::Failed(e)) => return Err(e.to_string()),
            Some(StreamMsg::StartDay(day)) => {
                if day_open {
                    days.push(day_delta(&before, store.stats()));
                    before = *store.stats();
                }
                day_open = true;
                let t = Instant::now();
                store.day_boundary(day);
                close("core.appliance.day_boundary", t);
            }
            Some(StreamMsg::Chunk(chunk)) => {
                let t = Instant::now();
                for req in &chunk {
                    for (i, key) in req.blocks().enumerate() {
                        store.access(key.raw(), req.kind, req.block_completion_time(i as u32));
                    }
                }
                close("core.appliance.access", t);
                let t = Instant::now();
                stream.recycle(chunk);
                close("trace.stream.recycle", t);
            }
        }
    }
    if day_open {
        days.push(day_delta(&before, store.stats()));
    }
    let wall = started.elapsed();
    if let Some(tracer) = tracer {
        tracer.close(REP, None, rep, started, true);
    }
    Ok(HandRolled {
        digest: digest_days(name, cfg.capacity_blocks, &days, trace.days() as usize),
        events: store.stats().accesses(),
        wall,
    })
}

/// One day's counters from the appliance totals before and after it. The
/// appliance counts batch installs as allocation-writes too; the engine's
/// `allocation_writes` holds the continuous ones only.
fn day_delta(before: &ApplianceStats, after: &ApplianceStats) -> DayMetrics {
    let batch = after.batch_allocations - before.batch_allocations;
    DayMetrics {
        read_hits: after.read_hits - before.read_hits,
        write_hits: after.write_hits - before.write_hits,
        read_misses: after.read_misses - before.read_misses,
        write_misses: after.write_misses - before.write_misses,
        allocation_writes: after.allocation_writes - before.allocation_writes - batch,
        batch_allocations: batch,
    }
}

fn engine_rep(
    kind: Kind,
    fx: &Fixture,
) -> Result<(SimResult, Option<ReplayStats>, Duration), String> {
    let started = Instant::now();
    let (result, stats) = match kind {
        Kind::SeqC => (
            simulate(&fx.trace, kind.policy(), &fx.cfg).map_err(|e| e.to_string())?,
            None,
        ),
        Kind::ShardD => {
            let (r, s) = simulate_sharded(&fx.trace, kind.policy(), &fx.cfg, SHARDS)
                .map_err(|e| e.to_string())?;
            (r, Some(s))
        }
    };
    Ok((result, stats, started.elapsed()))
}

/// One set-up: the trace model and the reference digest.
fn set_up(kind: Kind, args: &Args) -> Result<(Fixture, u64, Duration), String> {
    let started = Instant::now();
    let fx = fixture(kind, args)?;
    let reference = match kind {
        Kind::SeqC => hand_rolled(&fx.trace, kind.policy(), &fx.cfg, 0, None)?.digest,
        Kind::ShardD => {
            let seq = simulate(&fx.trace, kind.policy(), &fx.cfg).map_err(|e| e.to_string())?;
            digest_result(&seq, &fx.trace)
        }
    };
    Ok((fx, reference, started.elapsed()))
}

pub fn run(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    if args.trace {
        run_traced(kind, name, args)
    } else {
        run_end_to_end(kind, name, args)
    }
}

fn run_end_to_end(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut calibrator = Calibrator::new();
    // A speed sample sits between every two timed pieces, so each piece
    // is converted with the samples on either side of it.
    let mut speed = calibrator.speed();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..args.repeats() {
        let (fx, reference, took) = set_up(kind, args)?;
        let after = calibrator.speed();
        setups.push(reference_seconds(took.as_secs_f64(), speed, after));
        speed = after;
        if let Some((_, earlier)) = &last {
            out.check(*earlier == reference, || {
                format!(
                    "reference digest changed between set-ups: {earlier:016x} vs {reference:016x}"
                )
            });
        }
        last = Some((fx, reference));
    }
    let (fx, reference) = last.expect("at least one set-up");
    out.note(format!(
        "{name}: scale 1/{}, seed {}, reference digest {reference:016x}",
        fx.scale, args.seed
    ));
    if let Some(golden) = golden_digest(name, fx.scale, args.seed) {
        out.check(golden == reference, || {
            format!("digest {reference:016x} differs from golden {golden:016x}")
        });
    }

    // Timed reps until the next one would overrun the budget.
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let mut rates = Vec::new();
    let mut raw = Vec::new();
    let mut final_result = None;
    let mut slowest = Duration::ZERO;
    while rates.len() < args.repeats() || timed.elapsed() + slowest <= budget {
        let (result, _, wall) = engine_rep(kind, &fx)?;
        let after = calibrator.speed();
        let digest = digest_result(&result, &fx.trace);
        out.check(digest == reference, || {
            format!(
                "rep {} digest {digest:016x} differs from reference {reference:016x}",
                rates.len()
            )
        });
        let events = result.total().accesses() as f64;
        raw.push(format!(
            "{:.0}@{:.2}",
            events / wall.as_secs_f64(),
            (speed + after) / 2.0
        ));
        rates.push(events / reference_seconds(wall.as_secs_f64(), speed, after));
        speed = after;
        slowest = slowest.max(wall);
        final_result = Some(result);
    }
    let result = final_result.expect("at least one rep");
    let total = result.total();
    out.note(format!(
        "{} timed reps, raw events/s @ machine speed: {}",
        rates.len(),
        raw.join(" ")
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_ref_s", undisturbed_rate(&rates), "1/s");
    out.metric("hit_ratio", total.captured_fraction(), "ratio");
    out.metric(
        "ssd_writes_per_kaccess",
        total.ssd_write_blocks() as f64 * 1000.0 / total.accesses() as f64,
        "count",
    );
    Ok(out)
}

/// `trace.stream.drain_ns_per_event` for a workload that replays no
/// trace of its own: a small trace from the same seed, drained alone.
pub fn drain_ns_per_event(args: &Args) -> Result<f64, String> {
    let fx = fixture_at(if args.smoke { 1 << 15 } else { 1 << 13 }, args)?;
    let (_, drained, wall) = drain(&fx)?;
    Ok(wall.as_nanos() as f64 / drained.max(1) as f64)
}

/// Drains the trace stream alone, keeping the head of it as probe input.
fn drain(fx: &Fixture) -> Result<(Vec<Event>, u64, Duration), String> {
    let started = Instant::now();
    let mut stream = fx.trace.stream(fx.cfg.trace_stream.clone());
    let mut events = Vec::with_capacity(PROBE_EVENTS);
    let mut total = 0u64;
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(_) => {}
            StreamMsg::Failed(e) => return Err(e.to_string()),
            StreamMsg::Chunk(chunk) => {
                for req in &chunk {
                    total += u64::from(req.len_blocks);
                    if events.len() < PROBE_EVENTS {
                        for (i, key) in req.blocks().enumerate() {
                            events.push(Event {
                                key: key.raw(),
                                write: req.kind == RequestKind::Write,
                                now: req.block_completion_time(i as u32),
                            });
                        }
                    }
                }
                stream.recycle(chunk);
            }
        }
    }
    events.truncate(PROBE_EVENTS);
    Ok((events, total, started.elapsed()))
}

fn run_traced(kind: Kind, name: &str, args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let fx = fixture(kind, args)?;
    let reps = args.repeats() as u64;
    let calib_ms = Calibrator::new().seconds().iter().sum::<f64>() * 1e3;
    out.metric("bench.calib_ms", calib_ms, "ms");
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);

    // The workload's own pipeline, from the benchmark's files: untraced
    // for the baseline, then with a span around every call into a layer.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut digests = Vec::new();
    let mut events = 0;
    let mut traced_wall = Duration::ZERO;
    for rep in 0..reps {
        let plain = hand_rolled(&fx.trace, kind.policy(), &fx.cfg, rep, None)?;
        untraced.push(plain.wall.as_secs_f64());
        let spanned = hand_rolled(&fx.trace, kind.policy(), &fx.cfg, rep, Some(&mut tracer))?;
        traced.push(spanned.wall.as_secs_f64());
        traced_wall += spanned.wall;
        events = spanned.events;
        digests.extend([plain.digest, spanned.digest]);
    }
    let own = tracer.layer_time("core.appliance.access");
    let wait = tracer.layer_time("trace.stream.next_msg");
    let boundary = tracer.layer_time("core.appliance.day_boundary");
    let wall_ns = traced_wall.as_nanos() as u64;
    let residual_ns = tracer.residual_ns(wall_ns);
    out.notes.extend(
        tracer
            .write(&args.out_dir, name, wall_ns)
            .map_err(|e| e.to_string())?,
    );

    // The engine on the same input, for what it adds over the bare loop,
    // and the other policy through the bare loop for its access cost.
    let mut engine = Vec::new();
    let mut drives = 0;
    for _ in 0..reps {
        let started = Instant::now();
        let result = simulate(&fx.trace, kind.policy(), &fx.cfg).map_err(|e| e.to_string())?;
        engine.push(started.elapsed().as_secs_f64());
        digests.push(digest_result(&result, &fx.trace));
        drives = result.occupancy.drives_for_coverage(0.999);
    }
    out.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("hand-rolled and engine digests disagree: {digests:016x?}")
    });
    // The other policy through the bare loop, once, for its access cost.
    let other_policy = match kind {
        Kind::SeqC => policy_d(),
        Kind::ShardD => policy_c(),
    };
    let mut other_tracer = Tracer::new(epoch);
    let other_run = hand_rolled(&fx.trace, other_policy, &fx.cfg, 0, Some(&mut other_tracer))?;
    let own_ns = own.total_ns as f64 / (events * reps).max(1) as f64;
    let other_ns = other_tracer.layer_time("core.appliance.access").total_ns as f64
        / other_run.events.max(1) as f64;
    let (c_ns, d_ns, d_boundary) = match kind {
        Kind::SeqC => (
            own_ns,
            other_ns,
            other_tracer.layer_time("core.appliance.day_boundary"),
        ),
        Kind::ShardD => (other_ns, own_ns, boundary),
    };

    let (sharded_wall, replay_stats) = if kind == Kind::ShardD {
        let mut walls = Vec::new();
        let mut stats = None;
        for _ in 0..reps {
            let (result, s, wall) = engine_rep(kind, &fx)?;
            out.check(digest_result(&result, &fx.trace) == digests[0], || {
                "sharded digest differs from the sequential one".to_string()
            });
            // The sharded engine rounds pages per request fragment, so its
            // device load is an upper bound of the sequential engine's.
            let sharded_drives = result.occupancy.drives_for_coverage(0.999);
            out.check(sharded_drives >= drives, || {
                format!("sharded occupancy needs {sharded_drives} drives, under the sequential {drives}")
            });
            drives = sharded_drives;
            walls.push(wall.as_secs_f64());
            stats = s;
        }
        (Some(median(&walls)), stats)
    } else {
        (None, None)
    };
    // Before the probes allocate tables of their own.
    out.metric("proc.peak_rss_mib", peak_rss_mib(), "MiB");
    let (probe_events, drained, drain_wall) = drain(&fx)?;
    out.metric(
        "trace.stream.drain_ns_per_event",
        drain_wall.as_nanos() as f64 / drained.max(1) as f64,
        "ns",
    );
    out.metric(
        "trace.stream.wait_frac",
        wait.total_ns as f64 / wall_ns as f64,
        "frac",
    );
    out.metric("core.appliance.access_ns_per_event.c", c_ns, "ns");
    out.metric("core.appliance.access_ns_per_event.d", d_ns, "ns");
    out.metric(
        "core.appliance.day_boundary_ms",
        d_boundary.total_ns as f64 / 1e6 / d_boundary.calls.max(1) as f64,
        "ms",
    );
    out.metric("ssd.drives_needed", f64::from(drives), "count");
    out.metric(
        "sim.engine.overhead_frac",
        1.0 - median(&untraced) / median(&engine),
        "frac",
    );
    out.metric(
        "sim.replay.parallel_efficiency",
        sharded_wall.map_or(0.0, |w| median(&engine) / (SHARDS as f64 * w)),
        "frac",
    );
    out.metric(
        "sim.replay.imbalance",
        replay_stats.as_ref().map_or(0.0, ReplayStats::imbalance),
        "ratio",
    );
    out.metric(
        "sim.replay.steals",
        replay_stats.as_ref().map_or(0.0, |s| s.steals as f64),
        "count",
    );
    out.metric(
        "bench.trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
        "frac",
    );
    out.metric(
        "bench.residual_frac",
        residual_ns as f64 / wall_ns as f64,
        "frac",
    );
    layers::probe_all(
        &probe_events,
        kind.policy(),
        fx.cfg.capacity_blocks,
        args,
        &mut out,
    )?;
    Ok(out)
}
