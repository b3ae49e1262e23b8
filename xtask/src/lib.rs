//! Workspace maintenance tasks, chiefly the rank-safety lint pass
//! (`cargo run -p xtask -- lint`).
//!
//! The lint pass is a hand-rolled lexer plus token-pattern rules — no
//! external dependencies, so the offline vendored build keeps working. It
//! enforces three named repo invariants (documented with examples in
//! `docs/verification.md`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `world-run-boundary`  | `World::run*` only in `crates/runtime` + `crates/comm` |
//! | `no-raw-spawn`        | `thread::spawn` only in `crates/comm` + `crates/runtime` |
//! | `timed-regions-only`  | `Instant::now` in rank closures only via `ctx.timed` |
//!
//! The schedule pass ([`schedule`], `cargo run -p xtask -- schedule`)
//! adds one: `schedule-asymmetry` (every rank issues the same collectives
//! in the same order).

pub mod cfg;
pub mod lexer;
pub mod rules;
pub mod schedule;

pub use rules::Finding;
pub use schedule::{analyze_sources, analyze_workspace, Analysis};

use std::path::{Path, PathBuf};

/// Directory names never descended into during the scan: vendored stubs,
/// build output, and the passes' own seeded-violation fixtures.
const SKIP_DIRS: &[&str] = &["third_party", "target", "fixtures", ".git"];

/// The workspace sub-trees the lint pass covers. `third_party/` is
/// deliberately absent: vendored code keeps its upstream idioms.
const SCAN_ROOTS: &[&str] = &["crates", "src", "xtask/src"];

/// Lints every `.rs` file under the standard scan roots of `root`
/// (the workspace root). Findings come back sorted by path, then line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (path, src) in read_sources(root, SCAN_ROOTS, |_| true)? {
        findings.extend(lint_source(&path, &src));
    }
    Ok(findings)
}

/// Lints a single source string as if it lived at workspace-relative
/// `path` (the path decides which rules apply). Exposed for tests.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    rules::check_file(path, &lexer::lex(src))
}

/// Reads every `.rs` file under the sub-trees `subs` of `root` whose
/// workspace-relative path (forward slashes) passes `keep`, as
/// `(path, source)` pairs sorted by path. Finding none is an error: a
/// mistyped root must fail, not pass with nothing checked.
pub fn read_sources(
    root: &Path,
    subs: &[&str],
    keep: impl Fn(&str) -> bool,
) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in subs {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut sources = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if keep(&rel) {
            sources.push((rel, std::fs::read_to_string(&file)?));
        }
    }
    if sources.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .rs file under {}", root.display()),
        ));
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(sources)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root, taken as the parent of the `xtask` crate directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask must live one level below the workspace root")
        .to_path_buf()
}
