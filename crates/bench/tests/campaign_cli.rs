//! Bad command-line input to `expt-conformance` and `expt-campaign` is a
//! usage error, not a panic: a malformed number, a flag missing its value,
//! an unknown flag, two dimension flags at once and (for the sharded
//! runner) a missing `--dir` all print the usage line and exit with status 2
//! before any scenario runs.

use std::process::Command;

/// Runs `exe` with each argument list and asserts a usage error.
fn assert_usage_errors(exe: &str, name: &str, cases: &[&[&str]]) {
    for args in cases {
        let output = Command::new(exe)
            .args(*args)
            .current_dir(std::env::temp_dir())
            .output()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{name} {args:?}: expected exit status 2, stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name} {args:?} panicked: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: no usage line: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{name} {args:?}: campaign started"
        );
    }
}

#[test]
fn conformance_bad_arguments_exit_with_usage_and_status_2() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_expt-conformance"),
        "expt-conformance",
        &[
            &["--scenarios", "abc"],
            &["--seed", "-1"],
            &["--threads", "1.5"],
            &["--scenarios"],
            &["--scenarios", "5", "--report"],
            &["--no-such-flag"],
            &["--vc-sweep", "--fault-sweep"],
            &["--buffer-depths", "--scenarios", "5", "--bursty-sweep"],
        ],
    );
}

#[test]
fn campaign_bad_arguments_exit_with_usage_and_status_2() {
    // Every case but the last names a directory, so the usage error is the
    // only thing between the arguments and a campaign run; none is created.
    let dir = "campaign-cli-never-created";
    assert_usage_errors(
        env!("CARGO_BIN_EXE_expt-campaign"),
        "expt-campaign",
        &[
            &["--dir", dir, "--scenarios", "abc"],
            &["--dir", dir, "--workers", "-2"],
            &["--dir", dir, "--shards"],
            &["--dir"],
            &["--dir", dir, "--no-such-flag"],
            &["--dir", dir, "--vc-sweep", "--bursty-sweep"],
            &["--scenarios", "5"],
        ],
    );
    assert!(!std::env::temp_dir().join(dir).exists());
}
