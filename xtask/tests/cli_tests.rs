//! The `xtask` binary refuses to pass vacuously: a mistyped root or flag
//! exits 2 instead of reporting "no findings" over nothing checked. CI's
//! lint step relies on the other two codes: 1 with one line per finding,
//! 0 on a clean tree.

use std::process::{Command, Output};

/// Runs the binary with `args` from the workspace root.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(xtask::workspace_root())
        .output()
        .expect("the xtask binary must start")
}

/// Runs the binary with `args` from the workspace root; returns its exit
/// code and stderr.
fn xtask(args: &[&str]) -> (Option<i32>, String) {
    let out = run(args);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_root_with_no_sources_exits_2() {
    let (code, err) = xtask(&["lint", "/nonexistent"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("no .rs file"), "{err}");
}

#[test]
fn an_unknown_flag_exits_2_with_the_usage_line() {
    let (code, err) = xtask(&["schedule", "--jsn", "/nonexistent"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`--jsn`") && err.contains("usage:"), "{err}");
}

#[test]
fn a_flag_the_task_does_not_take_is_no_root() {
    let (code, err) = xtask(&["lint", "--json"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("`--json`") && err.contains("usage:"), "{err}");
}

#[test]
fn seeded_findings_exit_1_with_one_line_each() {
    let fixtures = "xtask/tests/fixtures/schedule";
    let out = run(&["schedule", fixtures]);
    assert_eq!(out.status.code(), Some(1));
    let root = xtask::workspace_root().join(fixtures);
    let analysis = xtask::analyze_workspace(&root).expect("fixture tree must be readable");
    let expected: Vec<String> = analysis.findings.iter().map(|f| f.to_string()).collect();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines, expected);
    assert_eq!(lines.len(), 21);
    for line in lines {
        let (at, _) = line
            .split_once(" schedule-asymmetry: ")
            .expect("lint-style line");
        let (file, n) = at.rsplit_once(':').expect("file:line");
        assert!(file.ends_with(".rs") && n.parse::<u32>().is_ok(), "{line}");
    }
}

#[test]
fn a_clean_workspace_exits_0_with_no_json_findings() {
    let out = run(&["schedule", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_end().ends_with(r#""findings":[]}"#), "{stdout}");
}
