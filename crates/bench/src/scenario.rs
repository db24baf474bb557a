//! Adversarial-scenario degradation harness and its regression gate.
//!
//! The paper evaluates SieveStore on a steady-state week; the ROADMAP's
//! "scenario diversity" item asks how the policies *degrade* when the
//! workload turns hostile. This module replays the four preset
//! scenarios from [`sievestore_trace::scenario`] — flash crowd, hot-set
//! inversion, mid-run failover, churn burst — through the four
//! figure-relevant policies (AOD, WMNA, SieveStore-D, SieveStore-C)
//! under both eviction policies, and reports each policy's degradation
//! curve against its own steady-state run on the identical trace:
//!
//! * hit-ratio delta (whole-trace and worst single day),
//! * sieve selection churn (blocks batch-installed after the initial
//!   fill — how hard the adversary shakes the discrete selection),
//! * allocation-writes avoided vs. the unsieved AOD baseline (does the
//!   sieve's write-endurance win survive the adversary?).
//!
//! The report (`sievestore-scenario-report/v1`) carries full provenance
//! (trace seed, scale, days, replay threads, eviction matrix, scenario
//! seeds and labels), so a run is reproducible from the artifact alone.
//! [`check_scenarios`] is the CI gate: it fails when any policy's
//! degradation curve falls more than a tolerance below the committed
//! baseline (`ci/SCENARIOS.json`) — improvements always pass.

use std::fmt::Write as _;
use std::path::Path;

use sievestore::PolicySpec;
use sievestore_sieve::TwoTierConfig;
use sievestore_sim::{
    simulate_many, EvictionPolicy, ScenarioConfig, ScenarioStage, SimConfig, SimResult, SnapshotLog,
};
use sievestore_types::{mix64, SieveError};

use crate::replay_json::Json;
use crate::{imct_entries_for_scale, Harness};

/// Schema tag of the scenario degradation report.
pub const SCENARIO_SCHEMA: &str = "sievestore-scenario-report/v1";

/// The preset scenario ids, in report order.
pub const SCENARIO_IDS: [&str; 4] = [
    "flash_crowd",
    "hot_set_inversion",
    "failover",
    "churn_burst",
];

/// The policies whose degradation the report tracks (the Ideal oracle is
/// excluded by design: its per-day selections are computed on the
/// *steady* materialized trace and would be meaningless here).
const SCENARIO_POLICIES: [&str; 4] = ["AOD", "WMNA", "SieveStore-D", "SieveStore-C"];

const EVICTIONS: [EvictionPolicy; 2] = [EvictionPolicy::Lru, EvictionPolicy::Sieve];

/// Builds the preset [`ScenarioConfig`] for one id, parameterized by the
/// trace (the disruption lands mid-trace regardless of day count, and
/// the scenario seed is derived from the trace seed so two harnesses
/// over the same trace agree).
///
/// # Panics
///
/// Panics on an id not in [`SCENARIO_IDS`].
pub fn preset(id: &str, trace_seed: u64, days: u16) -> ScenarioConfig {
    let mid = (days / 2).clamp(1, days.saturating_sub(1).max(1));
    let seed = mix64(trace_seed ^ mix64(id.len() as u64 ^ u64::from(id.as_bytes()[0])));
    let config = ScenarioConfig::new(seed);
    match id {
        // Late-morning spike: 5% of chunks get 6× their traffic for two
        // hours — the crowd set is hot enough to reward fast adaptation.
        "flash_crowd" => config.with_stage(ScenarioStage::FlashCrowd {
            day: mid,
            start_minute: 600,
            duration_minutes: 120,
            amplification: 6,
            crowd_fraction: 0.05,
        }),
        // The learned hot set goes cold overnight: every address mirrors
        // across its volume midpoint from mid-trace on.
        "hot_set_inversion" => config.with_stage(ScenarioStage::HotSetInversion { from_day: mid }),
        // Server 0 dies mid-trace; its load re-shards onto the
        // survivors, polluting their working sets with a foreign one.
        "failover" => config.with_stage(ScenarioStage::Failover {
            from_day: mid,
            server: 0,
        }),
        // Six-hour surge of never-before-seen blocks: 35% of chunks
        // redirected to fresh day-salted addresses.
        "churn_burst" => config.with_stage(ScenarioStage::ChurnBurst {
            day: mid,
            start_minute: 480,
            duration_minutes: 360,
            fraction: 0.35,
        }),
        other => panic!("unknown scenario id '{other}'"),
    }
}

/// One (scenario, policy, eviction) cell of the degradation report.
#[derive(Debug, Clone)]
struct Cell {
    policy: &'static str,
    eviction: EvictionPolicy,
    steady_hit_ratio: f64,
    scenario_hit_ratio: f64,
    worst_day_delta: f64,
    steady_selection_churn: u64,
    scenario_selection_churn: u64,
    allocation_writes: u64,
    allocation_writes_avoided: i64,
    per_day_hit_ratio: Vec<f64>,
}

impl Cell {
    fn hit_ratio_delta(&self) -> f64 {
        self.scenario_hit_ratio - self.steady_hit_ratio
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("policy".into(), Json::Str(self.policy.into())),
            ("eviction".into(), Json::Str(self.eviction.to_string())),
            ("steady_hit_ratio".into(), Json::Num(self.steady_hit_ratio)),
            (
                "scenario_hit_ratio".into(),
                Json::Num(self.scenario_hit_ratio),
            ),
            ("hit_ratio_delta".into(), Json::Num(self.hit_ratio_delta())),
            ("worst_day_delta".into(), Json::Num(self.worst_day_delta)),
            (
                "steady_selection_churn".into(),
                Json::Num(self.steady_selection_churn as f64),
            ),
            (
                "scenario_selection_churn".into(),
                Json::Num(self.scenario_selection_churn as f64),
            ),
            (
                "allocation_writes".into(),
                Json::Num(self.allocation_writes as f64),
            ),
            (
                "allocation_writes_avoided".into(),
                Json::Num(self.allocation_writes_avoided as f64),
            ),
            (
                "per_day_hit_ratio".into(),
                Json::Arr(
                    self.per_day_hit_ratio
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Blocks batch-installed after the initial epoch fill: day 1's boundary
/// installs the first selection from an empty cache (bootstrap, not
/// churn), so churn sums from day 2 on. Zero for continuous policies.
fn selection_churn(result: &SimResult) -> u64 {
    result
        .days
        .iter()
        .skip(2)
        .map(|d| d.batch_allocations)
        .sum()
}

/// Worst single-day capture degradation vs. the steady run, skipping the
/// empty-cache bootstrap day 0 and empty days.
fn worst_day_delta(steady: &SimResult, scenario: &SimResult) -> f64 {
    steady
        .days
        .iter()
        .zip(&scenario.days)
        .skip(1)
        .filter(|(s, c)| s.accesses() > 0 && c.accesses() > 0)
        .map(|(s, c)| c.captured_fraction() - s.captured_fraction())
        .fold(0.0f64, f64::min)
}

/// The four scenario policies under one eviction, simulated against one
/// scenario (or the steady state, with the default empty scenario).
fn run_matrix(
    h: &Harness,
    eviction: EvictionPolicy,
    scenario: &ScenarioConfig,
) -> Result<Vec<SimResult>, SieveError> {
    let scale = h.scale();
    let cfg = h
        .sim_config(SimConfig::paper_16gb(scale))
        .with_eviction(eviction)
        .with_scenario(scenario.clone());
    let two_tier = TwoTierConfig::paper_default().with_imct_entries(imct_entries_for_scale(scale));
    simulate_many(
        h.trace(),
        vec![
            PolicySpec::Aod,
            PolicySpec::Wmna,
            PolicySpec::SieveStoreD { threshold: 10 },
            PolicySpec::SieveStoreC(two_tier),
        ],
        &cfg,
    )
}

/// Runs the scenario suite (the preset ids in `ids`), writing per-policy
/// day-snapshot JSONL under `<out>/scenarios/<id>/` and the degradation
/// report to `<out>/scenario_report.json`. Returns the rendered table.
///
/// # Errors
///
/// Propagates simulation-construction and file-write errors, and rejects
/// unknown ids as [`SieveError::InvalidConfig`].
pub fn run_scenarios(h: &mut Harness, ids: &[&str]) -> Result<String, SieveError> {
    for id in ids {
        if !SCENARIO_IDS.contains(id) {
            return Err(SieveError::InvalidConfig(format!(
                "unknown scenario id '{id}'"
            )));
        }
    }
    let trace_seed = h.trace().config().seed;
    let days = h.trace().days();
    let root = h.results_dir().join("scenarios");
    std::fs::create_dir_all(&root)?;

    // Steady-state reference: one matrix per eviction, shared by every
    // scenario's deltas.
    let steady: Vec<Vec<SimResult>> = EVICTIONS
        .iter()
        .map(|&ev| run_matrix(h, ev, &ScenarioConfig::default()))
        .collect::<Result<_, _>>()?;

    let mut scenario_objs = Vec::new();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<18} {:<13} {:<6} {:>8} {:>8} {:>8} {:>9} {:>12} {:>13}",
        "scenario",
        "policy",
        "evict",
        "steady",
        "scen",
        "delta",
        "worst-day",
        "sel-churn",
        "allocs-avoid"
    );
    for &id in ids {
        let scenario = preset(id, trace_seed, days);
        let dir = root.join(id);
        std::fs::create_dir_all(&dir)?;
        let mut cells = Vec::new();
        for (ei, &eviction) in EVICTIONS.iter().enumerate() {
            let results = run_matrix(h, eviction, &scenario)?;
            let aod_allocs = results[0].total().total_allocation_writes();
            for (pi, result) in results.iter().enumerate() {
                let slug = SCENARIO_POLICIES[pi].to_ascii_lowercase().replace('-', "_");
                let path = dir.join(format!("snapshots_{slug}_{eviction}.jsonl"));
                std::fs::write(&path, SnapshotLog::from_result(result).to_jsonl())?;
                let steady_run = &steady[ei][pi];
                let cell = Cell {
                    policy: SCENARIO_POLICIES[pi],
                    eviction,
                    steady_hit_ratio: steady_run.total().captured_fraction(),
                    scenario_hit_ratio: result.total().captured_fraction(),
                    worst_day_delta: worst_day_delta(steady_run, result),
                    steady_selection_churn: selection_churn(steady_run),
                    scenario_selection_churn: selection_churn(result),
                    allocation_writes: result.total().total_allocation_writes(),
                    allocation_writes_avoided: aod_allocs as i64
                        - result.total().total_allocation_writes() as i64,
                    per_day_hit_ratio: result.days.iter().map(|d| d.captured_fraction()).collect(),
                };
                let _ = writeln!(
                    table,
                    "{:<18} {:<13} {:<6} {:>7.2}% {:>7.2}% {:>+7.2}% {:>+8.2}% {:>12} {:>13}",
                    id,
                    cell.policy,
                    eviction.to_string(),
                    100.0 * cell.steady_hit_ratio,
                    100.0 * cell.scenario_hit_ratio,
                    100.0 * cell.hit_ratio_delta(),
                    100.0 * cell.worst_day_delta,
                    cell.scenario_selection_churn,
                    cell.allocation_writes_avoided,
                );
                cells.push(cell);
            }
        }
        scenario_objs.push(Json::Obj(vec![
            ("id".into(), Json::Str(id.into())),
            ("label".into(), Json::Str(scenario.label())),
            (
                "scenario_seed".into(),
                Json::Str(format!("{:#x}", scenario.seed)),
            ),
            (
                "policies".into(),
                Json::Arr(cells.iter().map(Cell::to_json).collect()),
            ),
        ]));
    }

    let report = Json::Obj(vec![
        ("schema".into(), Json::Str(SCENARIO_SCHEMA.into())),
        ("provenance".into(), provenance(h)),
        ("scenarios".into(), Json::Arr(scenario_objs)),
    ]);
    let report_path = h.results_dir().join("scenario_report.json");
    std::fs::write(&report_path, report.to_pretty())?;
    let _ = writeln!(table, "report: {}", report_path.display());
    let _ = writeln!(
        table,
        "day snapshots: {}/<id>/snapshots_*.jsonl",
        root.display()
    );
    Ok(table)
}

/// Full provenance of a harness run: everything needed to regenerate
/// the report bit-for-bit from a clean checkout.
pub fn provenance(h: &Harness) -> Json {
    Json::Obj(vec![
        (
            "trace_seed".into(),
            Json::Str(format!("{:#x}", h.trace().config().seed)),
        ),
        ("scale".into(), Json::Num(h.scale() as f64)),
        ("days".into(), Json::Num(h.trace().days() as f64)),
        (
            "servers".into(),
            Json::Num(h.trace().config().servers.len() as f64),
        ),
        ("threads".into(), Json::Num(h.threads() as f64)),
        ("eviction".into(), Json::Str(h.eviction().to_string())),
        ("spill".into(), Json::Bool(h.spill_dir().is_some())),
    ])
}

fn entry_f64(entry: &Json, key: &str) -> Result<f64, String> {
    entry
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Iterates a report's (scenario id, policy cell) pairs.
fn cells(report: &Json) -> Result<Vec<(String, String, &Json)>, String> {
    let mut out = Vec::new();
    let scenarios = report
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("report has no 'scenarios' array")?;
    for sc in scenarios {
        let id = sc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("scenario entry has no 'id'")?;
        for cell in sc
            .get("policies")
            .and_then(Json::as_array)
            .ok_or("scenario entry has no 'policies' array")?
        {
            let policy = cell
                .get("policy")
                .and_then(Json::as_str)
                .ok_or("policy cell has no 'policy'")?;
            let eviction = cell
                .get("eviction")
                .and_then(Json::as_str)
                .ok_or("policy cell has no 'eviction'")?;
            out.push((id.to_string(), format!("{policy}/{eviction}"), cell));
        }
    }
    Ok(out)
}

/// The CI regression gate: compares a freshly generated report against
/// the committed baseline and fails when any policy's degradation curve
/// fell more than `tolerance` (absolute hit-ratio points) below it.
///
/// Checked per (scenario, policy, eviction), lower-is-worse:
/// `scenario_hit_ratio`, `hit_ratio_delta`, and `worst_day_delta`.
/// Improvements pass; a baseline cell missing from the current report
/// fails; mismatched provenance (seed/scale/days) fails — the reports
/// would not be comparable.
///
/// # Errors
///
/// Returns a message listing every regression found.
pub fn check_scenarios(current: &Json, baseline: &Json, tolerance: f64) -> Result<String, String> {
    for key in ["trace_seed", "scale", "days"] {
        let cur = current.get("provenance").and_then(|p| p.get(key)).cloned();
        let base = baseline.get("provenance").and_then(|p| p.get(key)).cloned();
        if cur != base {
            return Err(format!(
                "provenance mismatch on '{key}': current {cur:?} vs baseline {base:?} — \
                 regenerate the baseline at the same seed/scale"
            ));
        }
    }
    let current_cells = cells(current)?;
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (id, policy, base_cell) in cells(baseline)? {
        let Some((_, _, cur_cell)) = current_cells
            .iter()
            .find(|(cid, cpol, _)| *cid == id && *cpol == policy)
        else {
            failures.push(format!("{id} {policy}: missing from current report"));
            continue;
        };
        for metric in ["scenario_hit_ratio", "hit_ratio_delta", "worst_day_delta"] {
            let base = entry_f64(base_cell, metric).map_err(|e| format!("{id} {policy}: {e}"))?;
            let cur = entry_f64(cur_cell, metric).map_err(|e| format!("{id} {policy}: {e}"))?;
            if cur < base - tolerance {
                failures.push(format!(
                    "{id} {policy}: {metric} regressed to {cur:.4} (baseline {base:.4}, \
                     tolerance {tolerance})"
                ));
            }
            checked += 1;
        }
    }
    if checked == 0 && failures.is_empty() {
        return Err("baseline contains no policy cells".into());
    }
    if failures.is_empty() {
        Ok(format!(
            "{checked} degradation metrics within tolerance {tolerance}"
        ))
    } else {
        Err(failures.join("\n"))
    }
}

/// Loads and parses a scenario report file.
///
/// # Errors
///
/// Returns a message on I/O or parse failure, or a schema mismatch.
pub fn load_report(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let report = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    match report.get("schema").and_then(Json::as_str) {
        Some(SCENARIO_SCHEMA) => Ok(report),
        other => Err(format!(
            "{}: expected schema {SCENARIO_SCHEMA}, found {other:?}",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_against_the_smoke_trace() {
        let dir =
            std::env::temp_dir().join(format!("sievestore-scn-presets-{}", std::process::id()));
        let h = Harness::smoke(&dir).unwrap();
        for id in SCENARIO_IDS {
            let scenario = preset(id, h.trace().config().seed, h.trace().days());
            scenario.validate(h.trace().config()).unwrap();
            assert!(!scenario.is_empty());
        }
        // Distinct ids draw distinct seeds.
        let a = preset("flash_crowd", 1, 8);
        let b = preset("churn_burst", 1, 8);
        assert_ne!(a.seed, b.seed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failover_scenario_reports_degradation_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sievestore-scn-run-{}", std::process::id()));
        let mut h = Harness::smoke(&dir).unwrap();
        let table = run_scenarios(&mut h, &["failover"]).unwrap();
        assert!(table.contains("failover"), "{table}");
        let report = load_report(&dir.join("scenario_report.json")).unwrap();
        // 4 policies × 2 evictions under the one scenario.
        let cells = cells(&report).unwrap();
        assert_eq!(cells.len(), 8);
        for (_, _, cell) in &cells {
            let steady = entry_f64(cell, "steady_hit_ratio").unwrap();
            let scen = entry_f64(cell, "scenario_hit_ratio").unwrap();
            assert!((0.0..=1.0).contains(&steady));
            assert!((0.0..=1.0).contains(&scen));
            // Losing a server's learned working set mid-trace cannot
            // *help* the cache on this trace.
            let delta = entry_f64(cell, "hit_ratio_delta").unwrap();
            assert!(delta <= 0.01, "failover improved the hit ratio? {delta}");
            let worst = entry_f64(cell, "worst_day_delta").unwrap();
            assert!(worst <= 0.0);
        }
        // Provenance is complete.
        let prov = report.get("provenance").unwrap();
        assert_eq!(
            prov.get("trace_seed").and_then(Json::as_str),
            Some("0x51ee5704")
        );
        assert_eq!(prov.get("scale").and_then(Json::as_f64), Some(8192.0));
        // A report checked against itself always passes.
        let summary = check_scenarios(&report, &report, 0.0).unwrap();
        assert!(summary.contains("24 degradation metrics"), "{summary}");
        // Per-policy day snapshots landed.
        for eviction in ["lru", "sieve"] {
            let path = dir
                .join("scenarios/failover")
                .join(format!("snapshots_sievestore_d_{eviction}.jsonl"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with("{\"schema\":\"sievestore-day-snapshot/v1\""));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tiny_report(hit_ratio: f64) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCENARIO_SCHEMA.into())),
            (
                "provenance".into(),
                Json::Obj(vec![
                    ("trace_seed".into(), Json::Str("0x1".into())),
                    ("scale".into(), Json::Num(8192.0)),
                    ("days".into(), Json::Num(8.0)),
                ]),
            ),
            (
                "scenarios".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("id".into(), Json::Str("failover".into())),
                    (
                        "policies".into(),
                        Json::Arr(vec![Json::Obj(vec![
                            ("policy".into(), Json::Str("SieveStore-D".into())),
                            ("eviction".into(), Json::Str("lru".into())),
                            ("scenario_hit_ratio".into(), Json::Num(hit_ratio)),
                            ("hit_ratio_delta".into(), Json::Num(-0.02)),
                            ("worst_day_delta".into(), Json::Num(-0.05)),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn injected_hit_ratio_degradation_beyond_tolerance_fails_the_gate() {
        let baseline = tiny_report(0.90);
        // Degraded run: hit ratio fell 5 points; tolerance is 2.
        let degraded = tiny_report(0.85);
        let err = check_scenarios(&degraded, &baseline, 0.02).unwrap_err();
        assert!(err.contains("scenario_hit_ratio regressed"), "{err}");
        // Within tolerance passes.
        check_scenarios(&tiny_report(0.89), &baseline, 0.02).unwrap();
        // Improvements always pass, even at zero tolerance.
        check_scenarios(&tiny_report(0.95), &baseline, 0.0).unwrap();
    }

    #[test]
    fn gate_rejects_missing_cells_and_mismatched_provenance() {
        let baseline = tiny_report(0.9);
        let mut empty = tiny_report(0.9);
        if let Json::Obj(entries) = &mut empty {
            for (k, v) in entries.iter_mut() {
                if k == "scenarios" {
                    *v = Json::Arr(vec![]);
                }
            }
        }
        let err = check_scenarios(&empty, &baseline, 0.02).unwrap_err();
        assert!(err.contains("missing from current report"), "{err}");
        // Reversed roles: a baseline with no cells is an error, not a pass.
        let err = check_scenarios(&baseline, &empty, 0.02).unwrap_err();
        assert!(err.contains("no policy cells"), "{err}");
        // Seed mismatch refuses to compare.
        let mut other_seed = tiny_report(0.9);
        if let Json::Obj(entries) = &mut other_seed {
            for (k, v) in entries.iter_mut() {
                if k == "provenance" {
                    *v = Json::Obj(vec![
                        ("trace_seed".into(), Json::Str("0x2".into())),
                        ("scale".into(), Json::Num(8192.0)),
                        ("days".into(), Json::Num(8.0)),
                    ]);
                }
            }
        }
        let err = check_scenarios(&other_seed, &baseline, 0.02).unwrap_err();
        assert!(err.contains("provenance mismatch"), "{err}");
    }
}
