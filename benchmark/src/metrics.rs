//! The metric catalogue: every name this benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names (a test holds the two
//! together); the catalogue also decides what a traced run fills in for
//! a layer the workload does not have.

use crate::report::RunOutput;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("hit_ratio", "ratio"),
    ("ssd_writes_per_kaccess", "count"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.stream.drain_ns_per_event", "ns"),
    ("trace.stream.wait_frac", "frac"),
    ("core.appliance.access_ns_per_event.c", "ns"),
    ("core.appliance.access_ns_per_event.d", "ns"),
    ("core.appliance.day_boundary_ms", "ms"),
    ("sieve.two_tier.on_miss_ns", "ns"),
    ("sieve.imct.record_miss_ns", "ns"),
    ("sieve.mct.record_miss_ns", "ns"),
    ("sieve.two_tier.admit_ratio", "ratio"),
    ("sieve.two_tier.graduate_ratio", "ratio"),
    ("sieve.two_tier.memory_bytes", "B"),
    ("cache.lru.touch_ns", "ns"),
    ("cache.lru.insert_ns", "ns"),
    ("cache.sieve.touch_ns", "ns"),
    ("cache.sieve.insert_ns", "ns"),
    ("cache.evictions_per_kaccess", "count"),
    ("cache.batch.install_epoch_ms", "ms"),
    ("extsort.counter.record_ns", "ns"),
    ("extsort.counter.finish_ms", "ms"),
    ("sim.engine.overhead_frac", "frac"),
    ("sim.replay.parallel_efficiency", "frac"),
    ("sim.replay.imbalance", "ratio"),
    ("sim.replay.steals", "count"),
    ("ssd.occupancy.record_ns", "ns"),
    ("ssd.drives_needed", "count"),
    ("types.u64map.get_ns", "ns"),
    ("types.u64map.insert_ns", "ns"),
    ("node.protocol.encode_req_ns", "ns"),
    ("node.protocol.parse_req_ns", "ns"),
    ("node.protocol.encode_reply_ns", "ns"),
    ("node.protocol.parse_reply_ns", "ns"),
    ("node.store.read_hit_ns", "ns"),
    ("node.store.write_hit_ns", "ns"),
    ("node.store.read_miss_ns", "ns"),
    ("node.net_overhead_frac", "frac"),
    ("node.sharded.rtt_us.depth1", "us"),
    ("node.server.rtt_us.depth1", "us"),
    ("node.sharded.qps.w1", "1/s"),
    ("node.sharded.qps.w2", "1/s"),
    ("node.server.qps.legacy", "1/s"),
    ("node.cpu_cores.mid", "cores"),
    ("node.durable.put_us.file", "us"),
    ("node.durable.put_us.mem", "us"),
    ("node.durable.recovery_ms", "ms"),
    ("node.durable.syncs_per_kreq", "count"),
    ("node.durable.media_bytes_per_user_byte", "ratio"),
    ("node.durable.sync_time_frac", "frac"),
    ("node.backing.reads_per_kreq", "count"),
    ("node.backing.writes_per_kreq", "count"),
    ("node.backing.time_frac", "frac"),
    ("node.sieve.alloc_writes_avoided_frac", "frac"),
    ("node.client.overhead_frac", "frac"),
    ("serve.p50_over_limit.mid", "frac"),
    ("serve.p99_over_limit.mid", "frac"),
    ("serve.p50_over_limit.hi", "frac"),
    ("serve.p99_over_limit.hi", "frac"),
    ("serve.rate_ok_rps", "1/s"),
    ("bench.gen.lag_p99_intervals.mid", "ratio"),
    ("bench.gen.lag_p99_intervals.hi", "ratio"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.residual_frac", "frac"),
    ("bench.calib_ms", "ms"),
    ("proc.peak_rss_mib", "MiB"),
];

fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Orders `out`'s metrics as the catalogue lists them and checks that
/// the run reported exactly the catalogue.
///
/// A traced run measures every time-valued metric on every workload
/// (the probes see to that). A count, ratio or share of a layer the
/// workload does not pass through is 0 — the "none" of the prediction
/// table — and is filled in here.
pub fn finish(out: &mut RunOutput, traced: bool) -> Result<(), String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    if let Some((stray, _, _)) = out
        .metrics
        .iter()
        .find(|(name, _, _)| !catalogue.iter().any(|(n, _)| n == name))
    {
        return Err(format!("metric '{stray}' is not in the catalogue"));
    }
    let mut ordered = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, reported_unit)) => {
                if *reported_unit != unit {
                    return Err(format!(
                        "metric '{name}' reported in {reported_unit}, catalogued in {unit}"
                    ));
                }
                if !value.is_finite() {
                    return Err(format!("metric '{name}' is not a finite number"));
                }
                ordered.push((name.to_string(), *value, unit));
            }
            None if traced && !is_time(unit) => ordered.push((name.to_string(), 0.0, unit)),
            None => return Err(format!("metric '{name}' was not measured")),
        }
    }
    out.metrics = ordered;
    Ok(())
}
