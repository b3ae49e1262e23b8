//! Self-test for the rank-safety lint pass: a fixture tree under
//! `tests/fixtures/` seeds violation patterns for every rule (plus a
//! fully-suppressed file), and the real workspace must come back clean —
//! the same invocation CI runs as a required job.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::lexer::{lex, Tok, TokKind};
use xtask::rules::COLLECTIVES;
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
            "crates/fixture/src/post_deposit.rs".to_string(),
            5,
            "no-post-deposit-mutation",
        ),
        (
            "crates/fixture/src/post_deposit.rs".to_string(),
            12,
            "no-post-deposit-mutation",
        ),
        (
            "crates/fixture/src/raw_spawn.rs".to_string(),
            4,
            "no-raw-spawn",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            5,
            "collective-symmetry",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            7,
            "collective-symmetry",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            12,
            "collective-symmetry",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            20,
            "collective-symmetry",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            23,
            "collective-symmetry",
        ),
        (
            "crates/fixture/src/symmetry.rs".to_string(),
            30,
            "collective-symmetry",
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

/// The real workspace carries no violations: every deliberate asymmetry is
/// annotated, and the boundary rules hold. This is the clean-run gate CI
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
    let ident = |k: usize| match toks.get(k).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| t.kind == TokKind::Punct(c));
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

/// The lint's and the schedule checker's one collective table names
/// exactly the public collectives `crates/comm` defines, and every
/// fingerprint it predicts is a `CollectiveKind` name: adding or removing
/// a collective without updating the table fails here, instead of the new
/// call quietly escaping both checks.
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
