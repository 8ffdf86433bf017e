//! Bad command-line input to `expt-dse` is a usage error, not a panic: a
//! malformed number, a zero restart or scratch-sample count, a flag missing
//! its value and an unknown flag all print the usage line and exit with
//! status 2 before any exploration starts.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_expt-dse");

#[test]
fn bad_arguments_exit_with_usage_and_status_2() {
    let cases: [&[&str]; 8] = [
        &["--candidates", "abc"],
        &["--candidates", "-5"],
        &["--restarts", "0"],
        &["--scratch-sample", "0"],
        &["--seed"],
        &["--candidates", "10", "--out"],
        &["--spot", "1.5"],
        &["--no-such-flag"],
    ];
    for args in cases {
        let output = Command::new(EXE)
            .args(args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("expt-dse runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: expected exit status 2, stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(
            stderr.contains("usage: expt-dse"),
            "{args:?}: no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: exploration started");
    }
}
