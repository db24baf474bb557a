//! `compare A.json B.json`: the `BENCHMARK.json` bounds applied to two
//! result sets, one row per (workload, end-to-end metric).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{median, spread};

/// The benchmark's own spec, embedded at build time so `compare` applies
/// the bounds this binary was built with.
const SPEC: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds() -> Result<Vec<Bound>, String> {
    let spec = Json::parse(SPEC)?;
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                higher_is_better: match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => return Err(format!("bad 'better': {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// (workload, metric) → the values of a set's runs, in run order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let set = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let mut samples = Samples::new();
    for run in set
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no runs"))?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

/// Judges set `b` against set `a` for one metric. The change is the
/// share of `a`'s median by which `b`'s median moved, positive when it
/// moved the good way.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let moved = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let gain = if bound.higher_is_better {
        moved
    } else {
        -moved
    };
    let verdict = if noise > bound.bound {
        Verdict::Unresolved
    } else if gain < -bound.bound {
        Verdict::Worse
    } else if gain > noise && gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (gain, noise, verdict)
}

/// Prints the table; `Ok(false)` when any row is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds()?;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gain", "spread", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), values_a) in &a {
        let Some(bound) = bounds.iter().find(|m| &m.name == metric) else {
            continue;
        };
        let Some(values_b) = b.get(&(workload.clone(), metric.clone())) else {
            return Err(format!("{path_b} has no {metric} for {workload}"));
        };
        let (gain, noise, verdict) = judge(values_a, values_b, bound);
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{workload:<18} {metric:<24} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
            median(values_a),
            median(values_b),
            gain * 100.0,
            noise * 100.0,
            bound.bound * 100.0,
            match verdict {
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::WithinBound => "within bound",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            }
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn bound(higher: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let up = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(judge(&steady, &up, &bound(true, 0.1)).2, Verdict::Better);
        assert_eq!(judge(&steady, &up, &bound(false, 0.1)).2, Verdict::Worse);
        assert_eq!(judge(&up, &steady, &bound(true, 0.1)).2, Verdict::Worse);
        assert_eq!(
            judge(&steady, &steady, &bound(true, 0.1)).2,
            Verdict::WithinBound
        );
        let slightly = [104.0, 105.0, 103.0, 104.0, 104.5];
        assert_eq!(
            judge(&slightly, &steady, &bound(true, 0.1)).2,
            Verdict::WithinBound
        );
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&noisy, &up, &bound(true, 0.1)).2, Verdict::Unresolved);
    }

    /// `BENCHMARK.json` and the catalogue in `metrics.rs` name the same
    /// metrics with the same units, and the workloads match.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let spec = Json::parse(SPEC).unwrap();
        for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(list)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{list}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(bounds().unwrap().iter().all(|b| b.bound <= 0.25));
    }
}
