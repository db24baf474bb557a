//! Drives the built binary end to end at smoke size: every workload,
//! both trace modes, the result-set file and `compare`.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sievestore-benchmark");

fn out_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.json", std::process::id()))
}

/// Runs all four workloads at smoke size; returns the printed output.
fn smoke(trace: &str, out: &PathBuf) -> String {
    let started = std::time::Instant::now();
    let output = Command::new(BIN)
        .args(["run", "--smoke", "--trace", trace, "--out"])
        .arg(out)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    if trace == "0" {
        assert!(
            started.elapsed().as_secs() < 10,
            "smoke took {:?}",
            started.elapsed()
        );
    }
    stdout
}

#[test]
fn every_workload_runs_checks_its_outputs_and_compares_with_itself() {
    let set = out_file("smoke-e2e");
    let stdout = smoke("0", &set);
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 4, "one result line per workload:\n{stdout}");
    for line in &results {
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
        for metric in [
            "setup_s",
            "ops_per_ref_s",
            "hit_ratio",
            "ssd_writes_per_kaccess",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\"")),
                "{metric} missing: {line}"
            );
        }
    }

    let compared = Command::new(BIN)
        .arg("compare")
        .args([&set, &set])
        .output()
        .unwrap();
    let table = String::from_utf8(compared.stdout).unwrap();
    assert!(compared.status.success(), "{table}");
    assert_eq!(table.lines().count(), 1 + 4 * 4, "{table}");
    assert!(!table.contains("WORSE"), "{table}");
    std::fs::remove_file(set).unwrap();
}

#[test]
fn traced_runs_report_every_layer_and_write_their_spans() {
    let set = out_file("smoke-traced");
    let stdout = smoke("1", &set);
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 4, "{stdout}");
    for line in &results {
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"bench.trace_overhead_frac\""), "{line}");
        assert!(
            !line.contains("\"setup_s\""),
            "traced runs report per-layer metrics only"
        );
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    for workload in [
        "replay_seq_c",
        "replay_shard_d",
        "serve_hot_read",
        "serve_durable_mix",
    ] {
        let trace = std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl"))).unwrap();
        assert!(
            trace.lines().any(|l| l.contains("\"type\": \"span\"")),
            "{workload}"
        );
        assert!(
            trace
                .lines()
                .last()
                .unwrap()
                .contains("\"type\": \"residual\""),
            "{workload}"
        );
    }
    std::fs::remove_file(set).unwrap();
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["frobnicate"],
    ] {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""));
    }
}
