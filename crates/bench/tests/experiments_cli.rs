//! The `experiments` binary's argument handling, driven as a user runs it.

use std::process::Command;

#[test]
fn zero_threads_is_an_error() {
    let out_dir = std::env::temp_dir().join(format!("sievestore-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--threads", "0", "--out"])
        .arg(&out_dir)
        .arg("table3")
        .output()
        .expect("experiments runs");
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(!out.status.success(), "--threads 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}
