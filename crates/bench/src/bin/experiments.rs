//! Regenerates every table and figure of the SieveStore paper.
//!
//! ```text
//! cargo run -p sievestore-bench --release --bin experiments -- all
//! cargo run -p sievestore-bench --release --bin experiments -- fig5 fig6 --scale 128
//! ```
//!
//! Text tables print to stdout; CSV series land in `results/`.

use std::process::ExitCode;

use sievestore_bench::{
    cost, extensions, policies, scenario, sens, shadow, summary, workload, Harness,
};

const USAGE: &str = "\
usage: experiments [--scale N|full] [--seed S] [--out DIR] <id>...

ids:
  table1 fig2a fig2b fig2c fig3a fig3b fig3c fig3d
  table2 table3 fig5 fig6 fig7 fig8 fig9 sec5_3 sens summary
  belady latency per_server   (extensions beyond the paper's figures)
  shadow     continuous policies under LRU and SIEVE eviction, side by
             side, with per-policy day-snapshot JSONL under <out>/shadow/
  scenarios  adversarial workload suite (flash crowd, hot-set inversion,
             failover, churn burst) x four policies x both evictions;
             writes <out>/scenario_report.json and per-scenario
             day-snapshot JSONL under <out>/scenarios/
  all        every experiment above

options:
  --scale N    trace scale denominator (default 256; smaller = higher
               fidelity); 'full' is an alias for 1 — pair it with --spill
               so memory stays bounded
  --seed S     master RNG seed (default 0x51EE5704)
  --out DIR    CSV output directory (default results/)
  --threads N  replay each simulation with N sharded workers (default 1,
               at least 1; discrete policies are bit-identical at any N)
  --eviction P continuous caches replace frames with policy P: 'lru'
               (default) or 'sieve' (visited bit on hit); discrete
               policies use the epoch-batch cache regardless
  --obs        enable runtime metrics recording; writes one day-boundary
               snapshot JSONL per policy run plus the registry totals
               (obs_metrics.json) to the output dir (hot-path counters
               need a build with --features obs)
  --spill DIR  bound memory: stream trace generation through spill files
               under DIR and count discrete epochs with the spill-backed
               counter (bit-identical figures; required for --scale full
               on ordinary hosts)
  --check-scenarios FILE
               after running the scenario suite, gate the fresh
               <out>/scenario_report.json against the committed baseline
               FILE (ci/SCENARIOS.json in CI); exits nonzero when any
               policy's degradation curve regressed beyond tolerance
               (implies the 'scenarios' id)
  --scenario-tolerance T
               absolute hit-ratio tolerance for --check-scenarios
               (default 0.02)
  --write-scenario-baseline FILE
               copy the fresh scenario report to FILE (re-baselining;
               implies the 'scenarios' id)";

const ALL: [&str; 22] = [
    "table1",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "sec5_3",
    "belady",
    "latency",
    "per_server",
    "sens",
    "shadow",
    "scenarios",
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: u32 = 256;
    let mut seed: u64 = 0x51EE_5704;
    let mut out_dir = "results".to_string();
    let mut threads: usize = 1;
    let mut eviction = sievestore_sim::EvictionPolicy::default();
    let mut obs = false;
    let mut spill: Option<String> = None;
    let mut check_scenarios: Option<String> = None;
    let mut scenario_tolerance: f64 = 0.02;
    let mut write_scenario_baseline: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                scale = if value == "full" {
                    1
                } else {
                    value.parse().map_err(|e| format!("bad --scale: {e}"))?
                };
            }
            "--seed" => {
                seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                out_dir = iter.next().ok_or("--out needs a value")?;
            }
            "--threads" => {
                threads = iter
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--eviction" => {
                eviction = iter
                    .next()
                    .ok_or("--eviction needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --eviction: {e}"))?;
            }
            "--obs" => obs = true,
            "--spill" => spill = Some(iter.next().ok_or("--spill needs a value")?),
            "--check-scenarios" => {
                check_scenarios = Some(iter.next().ok_or("--check-scenarios needs a file")?);
            }
            "--scenario-tolerance" => {
                scenario_tolerance = iter
                    .next()
                    .ok_or("--scenario-tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scenario-tolerance: {e}"))?;
            }
            "--write-scenario-baseline" => {
                write_scenario_baseline = Some(
                    iter.next()
                        .ok_or("--write-scenario-baseline needs a file")?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            id => ids.push(id.to_string()),
        }
    }
    // The scenario-gate flags imply the suite that produces the report.
    if (check_scenarios.is_some() || write_scenario_baseline.is_some())
        && !ids.iter().any(|i| i == "scenarios" || i == "all")
    {
        ids.push("scenarios".to_string());
    }
    if ids.is_empty() && !obs {
        return Err("no experiment ids given".into());
    }
    if obs {
        sievestore_types::obs::set_enabled(true);
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
        ids.push("summary".to_string());
    }

    let mut harness = Harness::new(scale, seed, &out_dir)
        .map_err(|e| e.to_string())?
        .with_threads(threads)
        .with_eviction(eviction);
    if let Some(dir) = &spill {
        harness = harness.with_spill(dir);
    }
    println!(
        "SieveStore experiments | 13-server ensemble, {} days, scale 1/{scale}, seed {seed:#x}, \
         {} replay thread(s), eviction {}{}",
        harness.trace().days(),
        harness.threads(),
        harness.eviction(),
        if spill.is_some() { ", spill mode" } else { "" }
    );
    println!("CSV output: {out_dir}/\n");

    for id in &ids {
        let started = std::time::Instant::now();
        let output = dispatch(&mut harness, id).map_err(|e| format!("{id}: {e}"))?;
        println!(
            "=== {id} ({:.1}s) ===\n{output}",
            started.elapsed().as_secs_f64()
        );
    }

    if obs {
        let paths = harness
            .write_day_snapshots()
            .map_err(|e| format!("writing day snapshots: {e}"))?;
        println!("=== obs ===");
        for path in &paths {
            println!("day snapshots: {}", path.display());
        }
        let metrics = sievestore_types::obs::global().snapshot().to_json_line();
        let metrics_path = std::path::Path::new(&out_dir).join("obs_metrics.json");
        std::fs::write(&metrics_path, format!("{metrics}\n"))
            .map_err(|e| format!("writing {}: {e}", metrics_path.display()))?;
        println!("registry totals: {}", metrics_path.display());
    }

    // Every run records its provenance next to its outputs, so any
    // artifact directory is reproducible without the invoking command
    // line.
    let prov_path = std::path::Path::new(&out_dir).join("provenance.json");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    std::fs::write(&prov_path, scenario::provenance(&harness).to_pretty())
        .map_err(|e| format!("writing {}: {e}", prov_path.display()))?;

    let report_path = std::path::Path::new(&out_dir).join("scenario_report.json");
    if let Some(target) = &write_scenario_baseline {
        std::fs::copy(&report_path, target)
            .map_err(|e| format!("copying scenario baseline to {target}: {e}"))?;
        println!("scenario baseline written: {target}");
    }
    if let Some(baseline_path) = &check_scenarios {
        let current = scenario::load_report(&report_path)?;
        let baseline = scenario::load_report(std::path::Path::new(baseline_path))?;
        let summary = scenario::check_scenarios(&current, &baseline, scenario_tolerance)
            .map_err(|msg| format!("scenario regression vs {baseline_path}:\n{msg}"))?;
        println!("scenario gate: {summary}");
    }
    Ok(())
}

fn dispatch(h: &mut Harness, id: &str) -> Result<String, String> {
    let result = match id {
        "table1" => workload::table1(h),
        "fig2a" => workload::fig2a(h),
        "fig2b" | "fig2c" => workload::fig2bc(h),
        "fig3a" => workload::fig3a(h),
        "fig3b" => workload::fig3b(h),
        "fig3c" => workload::fig3c(h),
        "fig3d" => workload::fig3d(h),
        "table2" => policies::table2_exp(h),
        "table3" => Ok(policies::table3()),
        "fig5" => policies::fig5(h),
        "fig6" => policies::fig6(h),
        "fig7" => policies::fig7(h),
        "fig8" => cost::fig8(h),
        "fig9" => cost::fig9(h),
        "sec5_3" => cost::sec5_3(h),
        "belady" => extensions::belady(h),
        "latency" => extensions::latency(h),
        "per_server" => extensions::per_server_sim(h),
        "sens" => sens::sensitivity(h),
        "shadow" => shadow::shadow(h),
        "scenarios" => scenario::run_scenarios(h, &scenario::SCENARIO_IDS),
        "summary" => summary::summary(h),
        other => return Err(format!("unknown experiment id '{other}'")),
    };
    result.map_err(|e| e.to_string())
}
