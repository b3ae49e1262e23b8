//! The `dmbfs-bench reproduce` command line, driven as a process.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dmbfs-bench"));
    cmd.args(args);
    for name in ["DMBFS_SCALE", "DMBFS_SOURCES", "DMBFS_RESULT_DIR"] {
        cmd.env_remove(name);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("dmbfs-bench runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory for one test's documents.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmbfs-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_id_exits_2_naming_it_and_listing_the_experiments() {
    let out = reproduce(&["reproduce", "fig99_nothing"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("fig99_nothing"), "{err}");
    assert!(
        err.contains("strong_scaling") && err.contains("headline_summary"),
        "{err}"
    );
}

#[test]
fn bad_scale_exits_2_naming_the_knob_before_anything_runs() {
    let dir = temp_dir("bad-scale");
    let out = reproduce(
        &["reproduce", "architectural_trends"],
        &[
            ("DMBFS_SCALE", "abc"),
            ("DMBFS_RESULT_DIR", dir.to_str().unwrap()),
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("DMBFS_SCALE") && err.contains("abc"), "{err}");
    assert!(!dir.exists(), "nothing is written on a usage error");
}

#[test]
fn missing_command_exits_2() {
    assert_eq!(reproduce(&[], &[]).status.code(), Some(2));
    assert_eq!(
        reproduce(&["architectural_trends"], &[]).status.code(),
        Some(2)
    );
}

#[test]
fn architectural_trends_reproduces_the_committed_document() {
    let dir = temp_dir("trends");
    let out = reproduce(
        &["reproduce", "architectural_trends"],
        &[("DMBFS_RESULT_DIR", dir.to_str().unwrap())],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let read = |path: &Path| -> Value {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let fresh = read(&dir.join("architectural_trends.json"));
    let committed = read(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/architectural_trends.json"),
    );
    assert_eq!(fresh, committed);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## architectural_trends"), "{stdout}");
    assert!(stdout.contains("speedup_over_one_d_flat"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
