//! The benchmark's own test: `--check` runs every workload at a small
//! size, end to end and traced, and fails unless every correctness check
//! passes with zero failed operations.

use std::process::Command;

#[test]
fn check_mode_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_routerbench"))
        .arg("--check")
        .output()
        .expect("run routerbench --check");
    assert!(
        out.status.success(),
        "routerbench --check failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_routerbench"))
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run routerbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
