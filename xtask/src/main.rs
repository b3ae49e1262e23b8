//! `cargo run -p xtask -- <task>` — workspace maintenance entry point.
//!
//! Tasks:
//! - `lint [root]`: run the rank-safety lint pass over the workspace
//!   (default root: the directory containing this workspace). Prints one
//!   `file:line rule-name: message` per finding and exits non-zero when
//!   any survive.
//! - `schedule [root] [--json]`: run the static collective-schedule
//!   checker. Prints findings lint-style, then the extracted schedule per
//!   driver entry point (indented text, or JSON with `--json`). Exits
//!   non-zero when any finding survives.
//!
//! Both exit 2, with the usage line, on an argument they do not take, and
//! exit 2 when the root holds no `.rs` file to check.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <lint [root] | schedule [root] [--json]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((task, rest)) = args.split_first() else {
        return usage(None);
    };
    let mut root = None;
    let mut json = false;
    for arg in rest {
        if task == "schedule" && arg == "--json" && !json {
            json = true;
        } else if !arg.starts_with('-') && root.is_none() {
            root = Some(PathBuf::from(arg));
        } else {
            return usage(Some(arg));
        }
    }
    let root = root.unwrap_or_else(xtask::workspace_root);
    match task.as_str() {
        "lint" => lint(&root),
        "schedule" => schedule(&root, json),
        _ => usage(Some(task)),
    }
}

fn usage(unexpected: Option<&str>) -> ExitCode {
    if let Some(arg) = unexpected {
        eprintln!("xtask: unexpected argument `{arg}`");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn lint(root: &Path) -> ExitCode {
    match xtask::lint_workspace(root) {
        Ok(findings) if findings.is_empty() => {
            eprintln!("xtask lint: no findings");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!(
                "xtask lint: {} finding{} (suppress a deliberate violation with \
                 `// lint: allow(rule-name)` on or above the offending line)",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: failed to read workspace sources: {e}");
            ExitCode::from(2)
        }
    }
}

fn schedule(root: &Path, json: bool) -> ExitCode {
    let analysis = match xtask::analyze_workspace(root) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("xtask schedule: failed to read workspace sources: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        let mut out = String::from("{\"entries\":{");
        for (i, e) in analysis.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"file\":\"{}\",\"line\":{},\"schedule\":",
                e.name, e.file, e.line
            ));
            xtask::schedule::to_json(&e.schedule, &mut out);
            out.push('}');
        }
        out.push_str("},\"findings\":[");
        for (i, f) in analysis.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\"}}",
                f.file, f.line, f.rule
            ));
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
        for e in &analysis.entries {
            println!("entry {} ({}:{}):", e.name, e.file, e.line);
            let mut s = String::new();
            xtask::schedule::render(&e.schedule, 1, &mut s);
            print!("{s}");
        }
    }
    let (findings, entries) = (analysis.findings.len(), analysis.entries.len());
    if findings == 0 {
        let s = if entries == 1 { "" } else { "s" };
        eprintln!("xtask schedule: no findings, {entries} entry point{s}");
        ExitCode::SUCCESS
    } else {
        let s = if findings == 1 { "" } else { "s" };
        eprintln!(
            "xtask schedule: {findings} finding{s} (suppress a deliberate violation with \
             `// lint: allow(rule-name)`, or prove a branch replicated with \
             `// schedule: replicated`)"
        );
        ExitCode::FAILURE
    }
}
