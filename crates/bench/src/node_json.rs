//! The machine-readable serving benchmark report (`BENCH_node.json`)
//! and the CI gates that consume it.
//!
//! `loadgen` drives the node server at one shard and at several with
//! the same pipelined workload and writes one of these per invocation:
//! QPS plus latency quantiles per shard count. CI gates twice — a
//! ±tolerance QPS floor against the committed baseline
//! ([`compare_node_reports`]) and a sharded/one-shard ratio floor
//! ([`speedup_gate`]).
//!
//! JSON plumbing is shared with the replay report (see
//! [`crate::replay_json::Json`]); the workspace carries no serde.

use crate::replay_json::Json;

/// Schema tag written into every serving report.
pub const NODE_SCHEMA: &str = "sievestore-node-bench/v1";

/// [`NodeRunReport::mode`] of the one-shard run.
pub const ONE_SHARD: &str = "one-shard";

/// [`NodeRunReport::mode`] of the run striped over several shards.
pub const SHARDED: &str = "sharded";

/// One timed server configuration inside a [`NodeBenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRunReport {
    /// [`ONE_SHARD`] or [`SHARDED`] — one server, two shard counts.
    pub mode: String,
    /// Shards the cache was striped over.
    pub workers: usize,
    /// Wall-clock seconds for the timed window.
    pub wall_secs: f64,
    /// Requests completed per second (the gated figure).
    pub qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile request latency, microseconds.
    pub p999_us: u64,
}

/// The full `BENCH_node.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBenchReport {
    /// Concurrent client connections.
    pub connections: usize,
    /// Pipeline depth (requests in flight per connection).
    pub depth: usize,
    /// Read share of the workload, percent.
    pub read_pct: u32,
    /// Distinct keys addressed.
    pub keys: u64,
    /// Zipf skew exponent (0 = uniform).
    pub zipf: f64,
    /// Workload seed.
    pub seed: u64,
    /// Requests completed per timed run.
    pub ops: u64,
    /// One entry per shard count.
    pub runs: Vec<NodeRunReport>,
}

impl NodeBenchReport {
    /// Serializes to the committed JSON format.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::Str(NODE_SCHEMA.into())),
            ("connections".into(), Json::Num(self.connections as f64)),
            ("depth".into(), Json::Num(self.depth as f64)),
            ("read_pct".into(), Json::Num(self.read_pct as f64)),
            ("keys".into(), Json::Num(self.keys as f64)),
            ("zipf".into(), Json::Num(self.zipf)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("ops".into(), Json::Num(self.ops as f64)),
            (
                "runs".into(),
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("mode".into(), Json::Str(r.mode.clone())),
                                ("workers".into(), Json::Num(r.workers as f64)),
                                ("wall_secs".into(), Json::Num(r.wall_secs)),
                                ("qps".into(), Json::Num(r.qps)),
                                ("p50_us".into(), Json::Num(r.p50_us as f64)),
                                ("p95_us".into(), Json::Num(r.p95_us as f64)),
                                ("p99_us".into(), Json::Num(r.p99_us as f64)),
                                ("p999_us".into(), Json::Num(r.p999_us as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Parses a report document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong schema tag, or
    /// missing fields.
    pub fn from_json(text: &str) -> Result<NodeBenchReport, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema tag")?;
        if schema != NODE_SCHEMA {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let runs = doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("missing runs array")?
            .iter()
            .map(|r| {
                let f = |key: &str| {
                    r.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("run missing numeric field '{key}'"))
                };
                Ok(NodeRunReport {
                    mode: r
                        .get("mode")
                        .and_then(Json::as_str)
                        .ok_or("run missing mode")?
                        .to_string(),
                    workers: f("workers")? as usize,
                    wall_secs: f("wall_secs")?,
                    qps: f("qps")?,
                    p50_us: f("p50_us")? as u64,
                    p95_us: f("p95_us")? as u64,
                    p99_us: f("p99_us")? as u64,
                    p999_us: f("p999_us")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(NodeBenchReport {
            connections: num("connections")? as usize,
            depth: num("depth")? as usize,
            read_pct: num("read_pct")? as u32,
            keys: num("keys")? as u64,
            zipf: doc.get("zipf").and_then(Json::as_f64).unwrap_or(0.0),
            seed: num("seed")? as u64,
            ops: num("ops")? as u64,
            runs,
        })
    }

    /// The run entry of a mode, if present.
    pub fn run_with_mode(&self, mode: &str) -> Option<&NodeRunReport> {
        self.runs.iter().find(|r| r.mode == mode)
    }

    /// Sharded QPS over one-shard QPS, if both runs are present.
    pub fn speedup(&self) -> Option<f64> {
        let one = self.run_with_mode(ONE_SHARD)?;
        let sharded = self.run_with_mode(SHARDED)?;
        (one.qps > 0.0).then(|| sharded.qps / one.qps)
    }
}

/// Gates `current` against `baseline`: the workloads must match and
/// every baseline run must be present with QPS no more than
/// `tolerance` below baseline (e.g. `0.2` = −20 %). Returns the per-run
/// comparison lines on success and the failures on error. Faster runs
/// always pass.
///
/// # Errors
///
/// One message per regressed or missing configuration.
pub fn compare_node_reports(
    current: &NodeBenchReport,
    baseline: &NodeBenchReport,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut failures = Vec::new();
    if current.connections != baseline.connections
        || current.depth != baseline.depth
        || current.read_pct != baseline.read_pct
        || current.keys != baseline.keys
        || current.seed != baseline.seed
    {
        failures.push(format!(
            "workload mismatch: current {}c/{}d/{}r/{}k/{:#x} vs baseline {}c/{}d/{}r/{}k/{:#x}",
            current.connections,
            current.depth,
            current.read_pct,
            current.keys,
            current.seed,
            baseline.connections,
            baseline.depth,
            baseline.read_pct,
            baseline.keys,
            baseline.seed
        ));
    }
    for base in &baseline.runs {
        let Some(run) = current.run_with_mode(&base.mode) else {
            failures.push(format!("missing run for mode '{}'", base.mode));
            continue;
        };
        let floor = base.qps * (1.0 - tolerance);
        let ratio = run.qps / base.qps;
        let line = format!(
            "{} ({} workers): {:.0} req/s p99 {} µs vs baseline {:.0} ({:+.1} %)",
            run.mode,
            run.workers,
            run.qps,
            run.p99_us,
            base.qps,
            (ratio - 1.0) * 100.0
        );
        if run.qps < floor {
            failures.push(format!("REGRESSION {line} — floor {floor:.0}"));
        } else {
            lines.push(line);
        }
    }
    if failures.is_empty() {
        Ok(lines)
    } else {
        Err(failures)
    }
}

/// Gates the cost of striping: sharded QPS must be at least
/// `min_speedup` × one-shard QPS. A `min_speedup` of 0 disables the
/// gate (single-core runners cannot demonstrate parallel speedup).
///
/// # Errors
///
/// A message naming the measured and required speedups.
pub fn speedup_gate(report: &NodeBenchReport, min_speedup: f64) -> Result<String, String> {
    if min_speedup <= 0.0 {
        return Ok("speedup gate disabled".into());
    }
    let speedup = report
        .speedup()
        .ok_or("report lacks both a one-shard and a sharded run")?;
    let line = format!("sharded over one shard {speedup:.2}x (floor {min_speedup:.2}x)");
    if speedup < min_speedup {
        Err(format!("GATE FAILED {line}"))
    } else {
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> NodeBenchReport {
        NodeBenchReport {
            connections: 256,
            depth: 16,
            read_pct: 70,
            keys: 4096,
            zipf: 0.9,
            seed: 0x10AD,
            ops: 200_000,
            runs: vec![
                NodeRunReport {
                    mode: ONE_SHARD.into(),
                    workers: 1,
                    wall_secs: 2.0,
                    qps: 100_000.0,
                    p50_us: 400,
                    p95_us: 900,
                    p99_us: 1500,
                    p999_us: 4000,
                },
                NodeRunReport {
                    mode: SHARDED.into(),
                    workers: 4,
                    wall_secs: 0.8,
                    qps: 250_000.0,
                    p50_us: 200,
                    p95_us: 500,
                    p99_us: 800,
                    p999_us: 2500,
                },
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report();
        let text = r.to_json();
        assert!(text.contains(NODE_SCHEMA));
        let back = NodeBenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = report().to_json().replace(NODE_SCHEMA, "other/v9");
        assert!(NodeBenchReport::from_json(&text).is_err());
    }

    #[test]
    fn comparison_passes_within_tolerance_and_on_speedups() {
        let base = report();
        let mut current = report();
        current.runs[0].qps = 90_000.0; // −10 %
        current.runs[1].qps = 400_000.0; // +60 %
        let lines = compare_node_reports(&current, &base, 0.2).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("-10.0 %"));
    }

    #[test]
    fn comparison_fails_on_regression_missing_run_and_mismatch() {
        let base = report();
        let mut slow = report();
        slow.runs[1].qps = 150_000.0; // −40 %
        let failures = compare_node_reports(&slow, &base, 0.2).unwrap_err();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("REGRESSION"));

        let mut missing = report();
        missing.runs.pop();
        assert!(compare_node_reports(&missing, &base, 0.2).is_err());

        let mut mismatched = report();
        mismatched.connections = 128;
        assert!(compare_node_reports(&mismatched, &base, 0.2).is_err());
    }

    #[test]
    fn speedup_gate_enforces_floor_and_can_be_disabled() {
        let r = report();
        assert!((r.speedup().unwrap() - 2.5).abs() < 1e-9);
        assert!(speedup_gate(&r, 2.0).is_ok());
        assert!(speedup_gate(&r, 3.0).is_err());
        assert!(speedup_gate(&r, 0.0).is_ok());

        let mut half = report();
        half.runs.retain(|run| run.mode == ONE_SHARD);
        assert!(speedup_gate(&half, 2.0).is_err());
        assert!(speedup_gate(&half, 0.0).is_ok());
    }
}
