//! Self-test for the static collective-schedule checker: a fixture tree
//! under `tests/fixtures/schedule/` seeds one file per defect class (plus
//! a negative fixture of the safe patterns), and the real workspace must
//! come back clean — the same invocation CI runs via
//! `cargo run -p xtask -- schedule`.

use std::path::{Path, PathBuf};

use xtask::schedule::{SCHEDULE_ASYMMETRY, SCHEDULE_UNPAIRED_EXCHANGE};
use xtask::{analyze_workspace, workspace_root};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/schedule")
}

/// Every seeded defect is reported with its rule name and exact
/// file:line, and nothing else fires — in particular the safe-pattern
/// file (allreduce-decided branch, balanced rotation) contributes zero.
#[test]
fn seeded_schedule_defects_are_reported_with_rule_and_location() {
    let analysis = analyze_workspace(&fixtures_root()).expect("fixture tree must be readable");
    let got: Vec<(String, u32, &str)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let expected = vec![
        // The divergent condition enters through the call site; the
        // report lands on the branch inside the helper.
        (
            "crates/bfs/src/crossfn.rs".to_string(),
            5,
            SCHEDULE_ASYMMETRY,
        ),
        (
            "crates/bfs/src/diverge.rs".to_string(),
            5,
            SCHEDULE_ASYMMETRY,
        ),
        // A start with no wait on any path: reported at the function.
        (
            "crates/bfs/src/unpaired.rs".to_string(),
            4,
            SCHEDULE_UNPAIRED_EXCHANGE,
        ),
        // Each iteration nets +1 in-flight: reported at the loop.
        (
            "crates/bfs/src/unpaired.rs".to_string(),
            9,
            SCHEDULE_UNPAIRED_EXCHANGE,
        ),
        // Rank-local data decides the branch; no replication proof.
        (
            "crates/bfs/src/unsafe_branch.rs".to_string(),
            7,
            SCHEDULE_ASYMMETRY,
        ),
    ];
    assert_eq!(got, expected, "full findings: {:#?}", analysis.findings);
}

/// The real workspace carries no schedule findings: every config-decided
/// branch is annotated with its replication proof, and the exchange
/// rotations balance. This is the clean-run gate CI enforces.
#[test]
fn real_workspace_is_schedule_clean() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace must be readable");
    assert!(
        analysis.findings.is_empty(),
        "the workspace must be schedule-clean, found:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Exactly the four drivers in `crates/bfs` surface as entry points, each
/// with a non-empty schedule — the machine-readable report the
/// conformance test consumes. A driver added or lost fails here.
#[test]
fn real_workspace_extracts_the_driver_entry_points() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace must be readable");
    let mut names: Vec<&str> = analysis.entries.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "bfs1d_run",
            "bfs2d_run",
            "pbgl_like_bfs_with",
            "reference_mpi_bfs_with"
        ]
    );
    for e in &analysis.entries {
        let name = &e.name;
        let mut rendered = String::new();
        xtask::schedule::render(&e.schedule, 0, &mut rendered);
        assert!(
            !rendered.trim().is_empty() && rendered.trim() != "(empty)",
            "driver {name} must extract a non-empty schedule"
        );
        assert!(
            e.file.starts_with("crates/bfs/src/"),
            "driver {name} must live in crates/bfs, got {}",
            e.file
        );
    }
}
