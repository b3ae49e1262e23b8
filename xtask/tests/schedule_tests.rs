//! Self-test for the static collective-schedule checker: a fixture tree
//! under `tests/fixtures/schedule/` seeds one file per defect class (plus
//! a negative fixture of the safe patterns), and the real workspace must
//! come back clean — the same invocation CI runs via
//! `cargo run -p xtask -- schedule`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::lexer::{ident, is_punct, lex, Tok, TokKind};
use xtask::schedule::{ARMS_DIFFER, COLLECTIVES, EARLY_EXIT, LOOP_HEAD, SCHEDULE_ASYMMETRY};
use xtask::{analyze_workspace, workspace_root};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/schedule")
}

/// Every seeded defect is reported with its rule name, exact file:line
/// and reason, and nothing else fires — in particular the safe-pattern
/// file (allreduce-decided branch, balanced rotation, a closure's
/// divergent return after its collectives) contributes zero.
#[test]
fn seeded_schedule_defects_are_reported_with_rule_and_location() {
    let analysis = analyze_workspace(&fixtures_root()).expect("fixture tree must be readable");
    let got: Vec<(String, u32, &str, &str)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule, f.message.as_str()))
        .collect();
    let at = |file: &str, line, why| {
        let file = format!("crates/bfs/src/{file}");
        (file, line, SCHEDULE_ASYMMETRY, why)
    };
    let expected = vec![
        // One fixture per finding class: loop head, early return in a
        // function and through a call, `break`, closure argument and
        // path-call binding, each at the branch or loop it concerns.
        at("classes.rs", 7, LOOP_HEAD),
        at("classes.rs", 14, EARLY_EXIT),
        at("classes.rs", 25, EARLY_EXIT),
        at("classes.rs", 33, EARLY_EXIT),
        at("classes.rs", 42, ARMS_DIFFER),
        at("classes.rs", 54, ARMS_DIFFER),
        // A rank-divergent `return` inside a closure that skips a later
        // collective of the same closure: handed to `pool.install`, and
        // bound to a name and called.
        at("closure_exit.rs", 8, EARLY_EXIT),
        at("closure_exit.rs", 17, EARLY_EXIT),
        // The divergent condition enters through the call site; the
        // report lands on the branch inside the helper.
        at("crossfn.rs", 5, ARMS_DIFFER),
        at("diverge.rs", 5, ARMS_DIFFER),
        // `let .. else` and `?` on a rank-derived value, and a labelled
        // `break` out of a collective-carrying outer loop.
        at("exits.rs", 6, EARLY_EXIT),
        at("exits.rs", 13, EARLY_EXIT),
        at("exits.rs", 23, EARLY_EXIT),
        // A collective in the right operand of `||`, and a name bound by a
        // path pattern (`let Level::Deep(d) = ..`) deciding the branch.
        at("operators.rs", 6, ARMS_DIFFER),
        at("operators.rs", 13, ARMS_DIFFER),
        // Every rank-guarded branch whose arms differ, `if` and `match`
        // alike; the allreduce-decided direction switch stays silent.
        at("symmetry.rs", 4, ARMS_DIFFER),
        at("symmetry.rs", 9, ARMS_DIFFER),
        at("symmetry.rs", 19, ARMS_DIFFER),
        at("symmetry.rs", 22, ARMS_DIFFER),
        at("symmetry.rs", 29, ARMS_DIFFER),
        // Rank-local data decides the branch; no replication proof.
        at("unsafe_branch.rs", 7, ARMS_DIFFER),
    ];
    assert_eq!(got, expected, "full findings: {:#?}", analysis.findings);
}

/// The real workspace carries no schedule findings: every config-decided
/// branch is annotated with its replication proof. This is the clean-run
/// gate CI enforces.
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

/// Each driver's schedule, pinned as JSON without file or line, so a
/// change to what any driver issues shows up here and an unrelated edit
/// to its file does not. The 2D driver's schedule opens with its two
/// communicator splits (each followed by the split's inner allgather) and
/// the setup barrier: the schedule covers the whole run, as the per-rank
/// collective log does.
#[test]
fn real_workspace_driver_schedules_are_pinned() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace must be readable");
    let baseline = r#"["barrier",{"loop":[{"loop":"allreduce"},"allreduce"]},"barrier"]"#;
    let expected = [
        ("reference_mpi_bfs_with", baseline),
        ("pbgl_like_bfs_with", baseline),
        (
            "bfs1d_run",
            r#"["barrier","allreduce",{"loop":[{"alt":["allgatherv_wire",["ialltoallv_wire","ialltoallv_wire_wait"]]},"allreduce"]},"barrier"]"#,
        ),
        (
            "bfs2d_run",
            r#"["split","allgatherv","split","allgatherv","barrier","barrier","allreduce",{"loop":[{"alt":["sendrecv_wire","alltoallv"]},"allgatherv_wire","ialltoallv_wire","ialltoallv_wire_wait","allreduce"]},"barrier"]"#,
        ),
    ];
    for (name, json) in expected {
        let e = analysis
            .entry(name)
            .unwrap_or_else(|| panic!("entry {name} extracted"));
        let mut got = String::new();
        xtask::schedule::to_json(&e.schedule, &mut got);
        assert_eq!(got, json, "schedule of {name}");
    }
}

/// Index of the `}` matching the `{` at `open`.
fn close_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced braces");
}

/// The public collectives of `Comm` and `PendingExchange`, read from their
/// `impl` blocks: every `pub fn` whose body enters a collective (`enter`,
/// `enter_typed`, `enter_wire`) or calls a public one that does.
fn comm_collectives(src: &str) -> BTreeSet<String> {
    let toks = lex(src).toks;
    let ident = |k: usize| ident(toks.get(k));
    let punct = |k: usize, c: char| is_punct(toks.get(k), c);
    // (name, is `pub`, names the body calls)
    let mut fns: Vec<(String, bool, Vec<String>)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident(i) != Some("impl") || !matches!(ident(i + 1), Some("Comm" | "PendingExchange")) {
            i += 1;
            continue;
        }
        let open = (i..).find(|&k| punct(k, '{')).expect("impl block");
        let end = close_brace(&toks, open);
        let mut k = open + 1;
        while k < end {
            if ident(k) != Some("fn") {
                k += 1;
                continue;
            }
            let body = (k..).find(|&b| punct(b, '{')).expect("fn body");
            let body_end = close_brace(&toks, body);
            let calls = (body..body_end)
                .filter(|&b| punct(b + 1, '(') || (punct(b + 1, ':') && punct(b + 2, ':')))
                .filter_map(ident)
                .map(str::to_string)
                .collect();
            let name = ident(k + 1).expect("fn name").to_string();
            fns.push((name, ident(k - 1) == Some("pub"), calls));
            k = body_end;
        }
        i = end;
    }
    let mut found: BTreeSet<String> = ["enter", "enter_typed", "enter_wire"]
        .map(String::from)
        .into();
    loop {
        let before = found.len();
        for (name, _, calls) in &fns {
            if calls.iter().any(|c| found.contains(c)) {
                found.insert(name.clone());
            }
        }
        if found.len() == before {
            break;
        }
    }
    fns.into_iter()
        .filter(|(name, public, _)| *public && found.contains(name))
        .map(|(name, ..)| name)
        .collect()
}

/// The schedule checker's collective table names exactly the public
/// collectives `crates/comm` defines, and every fingerprint it predicts is
/// a `CollectiveKind` name: adding or removing a collective without
/// updating the table fails here, instead of the new call quietly escaping
/// the check.
#[test]
fn collective_table_matches_the_comm_crate() {
    let comm = workspace_root().join("crates/comm/src");
    let src = std::fs::read_to_string(comm.join("comm.rs")).expect("comm.rs");
    let table: BTreeSet<String> = COLLECTIVES.iter().map(|(m, _)| m.to_string()).collect();
    assert_eq!(comm_collectives(&src), table);
    assert_eq!(table.len(), 10);
    let kinds = std::fs::read_to_string(comm.join("verify.rs")).expect("verify.rs");
    for (method, fingerprints) in COLLECTIVES {
        for f in *fingerprints {
            assert!(
                kinds.contains(&format!("=> \"{f}\",")),
                "`{method}` predicts `{f}`, which is no CollectiveKind name"
            );
        }
    }
}
