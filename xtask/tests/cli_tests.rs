//! The `xtask` binary refuses to pass vacuously: a mistyped root or flag
//! exits 2 instead of reporting "no findings" over nothing checked.

use std::process::Command;

/// Runs the binary with `args` from the workspace root; returns its exit
/// code and stderr.
fn xtask(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .current_dir(xtask::workspace_root())
        .output()
        .expect("the xtask binary must start");
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
