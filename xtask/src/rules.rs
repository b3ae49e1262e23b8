//! The three rank-safety lint rules, each a token-pattern over the lexed
//! stream from [`crate::lexer`]. Every rule reports `file:line rule-name:
//! message` findings; suppression is via `// lint: allow(rule-name)` on the
//! same line or the line above (see `docs/verification.md` for the
//! catalogue with examples).

use crate::lexer::{ident, is_punct, Lexed, TokKind};

/// One lint finding, already resolved to a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes) of the offending file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule name, e.g. `world-run-boundary`.
    pub rule: &'static str,
    /// Human-readable explanation of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule: `World::run` / `World::run_with_watchdog` call sites may live only in
/// `crates/runtime` and `crates/comm`; everything else goes through the
/// shared driver.
pub const WORLD_RUN_BOUNDARY: &str = "world-run-boundary";
/// Rule: `thread::spawn` may appear only in `crates/comm` and
/// `crates/runtime` (and the vendored `third_party`, which is not scanned).
pub const NO_RAW_SPAWN: &str = "no-raw-spawn";
/// Rule: inside a `run_ranks` rank closure, wall-clock timing must go
/// through `ctx.timed` rather than raw `Instant::now`.
pub const TIMED_REGIONS_ONLY: &str = "timed-regions-only";

/// True when `rule` applies to the file at workspace-relative `path`
/// (forward-slash separators).
pub fn rule_applies(rule: &str, path: &str) -> bool {
    let in_comm = path.starts_with("crates/comm/");
    let in_runtime = path.starts_with("crates/runtime/");
    match rule {
        WORLD_RUN_BOUNDARY | NO_RAW_SPAWN => !in_comm && !in_runtime,
        TIMED_REGIONS_ONLY => !in_runtime,
        _ => false,
    }
}

/// Runs every applicable rule over one lexed file.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    if rule_applies(WORLD_RUN_BOUNDARY, path) {
        world_run_boundary(path, lexed, &mut findings);
    }
    if rule_applies(NO_RAW_SPAWN, path) {
        no_raw_spawn(path, lexed, &mut findings);
    }
    if rule_applies(TIMED_REGIONS_ONLY, path) {
        timed_regions_only(path, lexed, &mut findings);
    }
    // Drop suppressed findings, dedupe repeats on the same line, and order
    // by position for stable output.
    findings.retain(|f| !lexed.allowed(f.line, f.rule));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

/// Matches `World :: run*` anywhere in the stream.
fn world_run_boundary(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if ident(toks.get(i)) != Some("World") {
            continue;
        }
        if !is_punct(toks.get(i + 1), ':') || !is_punct(toks.get(i + 2), ':') {
            continue;
        }
        let Some(name) = ident(toks.get(i + 3)) else {
            continue;
        };
        if name == "run" || name.starts_with("run_") {
            out.push(Finding {
                file: path.to_string(),
                line: toks[i].line,
                rule: WORLD_RUN_BOUNDARY,
                message: format!(
                    "`World::{name}` outside crates/runtime and crates/comm — launch ranks \
                     through `dmbfs_runtime::run_ranks` so every run shares the driver"
                ),
            });
        }
    }
}

/// Matches `thread :: spawn` anywhere in the stream.
fn no_raw_spawn(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if ident(toks.get(i)) != Some("thread") {
            continue;
        }
        if !is_punct(toks.get(i + 1), ':') || !is_punct(toks.get(i + 2), ':') {
            continue;
        }
        if ident(toks.get(i + 3)) == Some("spawn") {
            out.push(Finding {
                file: path.to_string(),
                line: toks[i].line,
                rule: NO_RAW_SPAWN,
                message: "raw `thread::spawn` outside crates/comm and crates/runtime — rank \
                          threads and worker pools must come from the runtime"
                    .to_string(),
            });
        }
    }
}

/// Matches `Instant :: now` lexically inside the parenthesized argument
/// extent of any `run_ranks(…)` call.
fn timed_regions_only(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut i = 0;
    while i < toks.len() {
        if ident(toks.get(i)) != Some("run_ranks") || !is_punct(toks.get(i + 1), '(') {
            i += 1;
            continue;
        }
        // Walk the argument extent, tracking paren depth.
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct('(') => depth += 1,
                TokKind::Punct(')') => depth -= 1,
                TokKind::Ident(ref s)
                    if s == "Instant"
                        && is_punct(toks.get(j + 1), ':')
                        && is_punct(toks.get(j + 2), ':')
                        && ident(toks.get(j + 3)) == Some("now") =>
                {
                    out.push(Finding {
                        file: path.to_string(),
                        line: toks[j].line,
                        rule: TIMED_REGIONS_ONLY,
                        message: "`Instant::now` inside a `run_ranks` rank closure — use \
                                  `ctx.timed(name, ..)` so the region reaches stats and traces"
                            .to_string(),
                    });
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &lex(src))
    }

    #[test]
    fn world_run_fires_outside_the_boundary() {
        let src = "fn main() { let r = World::run(4, |c| c.rank()); }";
        let f = run("crates/bfs/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, WORLD_RUN_BOUNDARY);
        assert_eq!(f[0].line, 1);
        // …and run_with_watchdog too, but not inside the comm crate.
        let src2 = "let r = World::run_with_watchdog(4, limit, f);";
        assert_eq!(run("src/main.rs", src2).len(), 1);
        assert!(run("crates/comm/src/world.rs", src2).is_empty());
        assert!(run("crates/runtime/src/lib.rs", src2).is_empty());
    }

    #[test]
    fn raw_spawn_fires_outside_comm_and_runtime() {
        let src = "let h = std::thread::spawn(move || work());";
        let f = run("crates/bfs/src/one_d.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, NO_RAW_SPAWN);
        assert!(run("crates/comm/src/world.rs", src).is_empty());
    }

    #[test]
    fn instant_now_fires_only_inside_run_ranks() {
        let outside = "fn t() { let s = Instant::now(); }";
        assert!(run("crates/bfs/src/one_d.rs", outside).is_empty());
        let inside = "run_ranks(cfg, |ctx| {\n  let t0 = Instant::now();\n  work()\n});";
        let f = run("crates/bfs/src/one_d.rs", inside);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, TIMED_REGIONS_ONLY);
        assert_eq!(f[0].line, 2);
        // The runtime crate implements ctx.timed itself, so it is exempt.
        assert!(run("crates/runtime/src/lib.rs", inside).is_empty());
    }

    #[test]
    fn findings_dedupe_per_line_and_sort() {
        // Reported rule by rule, so the spawns on line 1 come out last.
        let src = "thread::spawn(a); thread::spawn(b);\nWorld::run(2, f);";
        let f = run("crates/bfs/src/lib.rs", src);
        let rules: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(rules, vec![(1, NO_RAW_SPAWN), (2, WORLD_RUN_BOUNDARY)]);
    }

    #[test]
    fn allow_comment_suppresses_a_finding() {
        let src = "\
fn f() {
    // lint: allow(no-raw-spawn)
    thread::spawn(a);
    thread::spawn(b); // lint: allow(no-raw-spawn)
    thread::spawn(c);
    World::run(2, g); // lint: allow(no-raw-spawn)
}";
        let f = run("crates/bfs/src/lib.rs", src);
        let rules: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
        // Only the unannotated spawn survives, and an allow names one rule:
        // it does not hide a different rule's finding on its line.
        assert_eq!(rules, vec![(5, NO_RAW_SPAWN), (6, WORLD_RUN_BOUNDARY)]);
    }
}
