//! The repo benchmark: four workloads over the replay and serving
//! pipelines, end-to-end metrics with tracing off and per-layer metrics
//! from a separate traced run. See `benchmark/README.md`.
//!
//! ```text
//! sievestore-benchmark run --workload W --seed S --seconds N --trace 0|1
//! sievestore-benchmark run [--seed S] [--runs K] [--out FILE]   # all workloads
//! sievestore-benchmark compare A.json B.json
//! ```
//!
//! The crates are linked as libraries and every layer is measured from
//! outside, by timing calls into public functions.

mod calib;
mod compare;
mod counting;
mod digest;
mod hist;
mod host;
mod json;
mod layers;
mod metrics;
mod payload;
mod replay;
mod report;
mod serve;
mod span;
mod stats;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::LazyLock;

use json::Json;

/// The four workloads; the names are part of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "replay_seq_c",
    "replay_shard_d",
    "serve_hot_read",
    "serve_durable_mix",
];

/// The seed a run uses when none is given; the goldens are for it.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "\
usage: sievestore-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                                [--smoke] [--runs K] [--out FILE]
       sievestore-benchmark compare A.json B.json

run      With --workload: runs that workload in this process, prints every
         metric by name with its unit, and ends with one JSON object
         {correct, attempted, failed, metrics}. --trace 0 (default) gives
         the end-to-end metrics, --trace 1 the per-layer metrics.
         Without --workload: runs all four, each in a child process of its
         own (so peak RSS is per workload), --runs K times with seeds
         S, S+1, ...; --out writes the result set for `compare`.
         --smoke shrinks every workload to a fraction of a second.
compare  Applies the BENCHMARK.json bounds to two result sets, one row per
         (workload, end-to-end metric): better / worse / within bound /
         unresolved (run-to-run spread wider than the bound).";

/// Parsed `run` arguments.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: u64,
    pub out: Option<PathBuf>,
    /// Where traces and temporary media go: `benchmark/out`, inside the
    /// checkout whatever the working directory is.
    pub out_dir: PathBuf,
}

impl Args {
    /// How often a timed piece (a set-up, a traced rep) is repeated so
    /// that what is reported is the median of a sample; also the fewest
    /// timed reps of a replay workload.
    pub fn repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// The golden replay digest for `workload` at this scale and seed, if
/// `goldens.json` (keyed `workload@1/scale#seed`) has one.
pub fn golden_digest(workload: &str, scale: u32, seed: u64) -> Option<u64> {
    static GOLDENS: LazyLock<Json> = LazyLock::new(|| {
        Json::parse(include_str!("../goldens.json")).expect("goldens.json parses")
    });
    let hex = GOLDENS
        .get(&format!("{workload}@1/{scale}#{seed}"))?
        .as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

fn parse_run(mut iter: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut seconds_given = false;
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}' (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("bad --runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let mut out = match name {
        "replay_seq_c" => replay::run(replay::Kind::SeqC, name, args),
        "replay_shard_d" => replay::run(replay::Kind::ShardD, name, args),
        "serve_hot_read" => serve::run(serve::Kind::HotRead, name, args),
        "serve_durable_mix" => serve::run(serve::Kind::DurableMix, name, args),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    metrics::finish(&mut out, args.trace)?;
    out.print(name);
    // The result line carries `correct`; a run that measured and printed
    // exits 0 so the caller reads it.
    Ok(true)
}

/// Runs every workload `--runs` times, each run a child process, and
/// collects the result objects into one set.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for name in WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!(
                    "{name} (seed {seed}) exited with {}",
                    output.status
                ));
            }
            let last = stdout
                .lines()
                .last()
                .ok_or(format!("{name} printed nothing"))?;
            let result = Json::parse(last).map_err(|e| format!("{name} result line: {e}"))?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            rows.push(Json::obj([
                ("workload", Json::Str(name.to_string())),
                ("seed", Json::Num(seed as f64)),
                ("trace", Json::Num(f64::from(u8::from(args.trace)))),
                ("result", result),
            ]));
        }
    }
    if let Some(path) = &args.out {
        let set = Json::obj([("runs", Json::Arr(rows))]);
        std::fs::write(path, set.render() + "\n").map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("# result set written to {}", path.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("run") => parse_run(argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_one(&name, &args),
            None => run_all(&args),
        }),
        Some("compare") => match (argv.next(), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => compare::run(&a, &b),
            _ => Err("compare takes exactly two result sets".into()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err("expected a subcommand".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong output or a regression: the result was printed, the
        // exit code says it did not pass.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
