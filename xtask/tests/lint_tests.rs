//! Self-test for the rank-safety lint pass: a fixture tree under
//! `tests/fixtures/` seeds violation patterns for every rule (plus a
//! fully-suppressed file), and the real workspace must come back clean —
//! the same invocation CI runs as a required job.

use std::path::{Path, PathBuf};

use xtask::{lint_workspace, workspace_root};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every seeded violation is reported with its rule name and exact
/// file:line, and nothing else fires — in particular, the allow-annotated
/// `allowed.rs` contributes zero findings.
#[test]
fn seeded_fixture_violations_are_reported_with_rule_and_location() {
    let findings = lint_workspace(&fixtures_root()).expect("fixture tree must be readable");
    let got: Vec<(String, u32, &str)> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let expected = vec![
        (
            "crates/fixture/src/raw_spawn.rs".to_string(),
            4,
            "no-raw-spawn",
        ),
        (
            "crates/fixture/src/timed.rs".to_string(),
            6,
            "timed-regions-only",
        ),
        (
            "crates/fixture/src/world_run.rs".to_string(),
            5,
            "world-run-boundary",
        ),
    ];
    assert_eq!(got, expected, "full findings: {findings:#?}");
}

/// Findings render as `file:line rule-name: message`, the format CI logs.
#[test]
fn findings_render_in_file_line_rule_format() {
    let findings = lint_workspace(&fixtures_root()).expect("fixture tree must be readable");
    let world_run = findings
        .iter()
        .find(|f| f.rule == "world-run-boundary")
        .expect("the world-run fixture must fire");
    let rendered = world_run.to_string();
    assert!(
        rendered.starts_with("crates/fixture/src/world_run.rs:5 world-run-boundary: "),
        "unexpected rendering: {rendered}"
    );
    assert!(
        rendered.contains("run_ranks"),
        "message should point at the fix"
    );
}

/// The real workspace carries no violations: the boundary rules hold, and
/// every deliberate crossing is annotated. This is the clean-run gate CI
/// enforces via `cargo run -p xtask -- lint`.
#[test]
fn real_workspace_is_lint_clean() {
    let findings = lint_workspace(&workspace_root()).expect("workspace must be readable");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean, found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
