//! The five rank-safety lint rules, each a token-pattern over the lexed
//! stream from [`crate::lexer`]. Every rule reports `file:line rule-name:
//! message` findings; suppression is via `// lint: allow(rule-name)` on the
//! same line or the line above (see `docs/verification.md` for the
//! catalogue with examples).

use crate::lexer::{Lexed, Tok, TokKind};

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
/// Rule: collectives must not sit inside rank-guarded branches
/// (`if rank == …` / `match rank`) — every rank of the group must reach
/// them, or the call deadlocks the rendezvous.
pub const COLLECTIVE_SYMMETRY: &str = "collective-symmetry";
/// Rule: a payload received from a `*_wire` collective must not be mutated
/// through `bytes_mut` — every payload, whatever its size, crosses the
/// board as an `Arc` loan shared with the sender, so the runtime panics on
/// the write while any other holder is alive; the lint catches the shape
/// at review time (see `docs/zero-copy.md`).
pub const NO_POST_DEPOSIT_MUTATION: &str = "no-post-deposit-mutation";

/// The names of every `Comm` collective entry point; a `.name(` call on a
/// comm-like receiver inside a rank-guarded block is asymmetric.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "alltoallv",
    "alltoallv_wire",
    "ialltoallv_wire",
    "wait",
    "allgatherv",
    "allgatherv_wire",
    "allgather",
    "allreduce",
    "broadcast",
    "gather",
    "gatherv",
    "sendrecv",
    "sendrecv_wire",
    "split",
];

/// Collective names that are also everyday method names (`str::split`,
/// `Iterator`-adjacent `gather` helpers). For these, the receiver directly
/// before the `.` must itself look comm-like (`comm`, `row_comm`, …) or be
/// a call result (`)`), otherwise the match is skipped.
const AMBIGUOUS_COLLECTIVES: &[&str] = &["split", "gather"];

/// `wait` completes a nonblocking exchange (`PendingExchange::wait`) and is
/// collective — but it is also how barriers, condvars, and child processes
/// park, none of which rendezvous on the board. It only counts when the
/// receiver looks like a pending exchange: an identifier mentioning
/// `pending` or `exchange`, or a call result (`)`), which catches the
/// chained `comm.ialltoallv_wire(bufs).wait()` form.
const EXCHANGE_WAIT: &str = "wait";

/// True when `rule` applies to the file at workspace-relative `path`
/// (forward-slash separators).
pub fn rule_applies(rule: &str, path: &str) -> bool {
    let in_comm = path.starts_with("crates/comm/");
    let in_runtime = path.starts_with("crates/runtime/");
    match rule {
        WORLD_RUN_BOUNDARY => !in_comm && !in_runtime,
        NO_RAW_SPAWN => !in_comm && !in_runtime,
        TIMED_REGIONS_ONLY => !in_runtime,
        COLLECTIVE_SYMMETRY => true,
        // The comm crate is the loan machinery itself: it mutates payloads
        // before the seal (verifier checksums, fault flips) by design.
        NO_POST_DEPOSIT_MUTATION => !in_comm,
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
    if rule_applies(COLLECTIVE_SYMMETRY, path) {
        collective_symmetry(path, lexed, &mut findings);
    }
    if rule_applies(NO_POST_DEPOSIT_MUTATION, path) {
        no_post_deposit_mutation(path, lexed, &mut findings);
    }
    // Drop suppressed findings, dedupe repeats on the same line, and order
    // by position for stable output.
    findings.retain(|f| !lexed.allowed(f.line, f.rule));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

fn ident(tok: Option<&Tok>) -> Option<&str> {
    match tok.map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
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

/// A brace frame for the collective-symmetry scan.
struct Frame {
    /// This block's body only runs on a subset of ranks.
    guarded: bool,
    /// The block is the body of an `if`/`else if` whose guard chain is
    /// rank-guarded — its `else` continuation inherits the guard.
    guarded_if: bool,
}

/// True when the token slice looks like a rank comparison: an identifier
/// mentioning `rank` plus a `==` or `!=` operator.
fn is_rank_comparison(toks: &[Tok]) -> bool {
    let mentions_rank = toks
        .iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if s.to_ascii_lowercase().contains("rank")));
    if !mentions_rank {
        return false;
    }
    toks.windows(2).any(|w| {
        matches!(
            (&w[0].kind, &w[1].kind),
            (TokKind::Punct('='), TokKind::Punct('=')) | (TokKind::Punct('!'), TokKind::Punct('='))
        )
    })
}

/// True when a `match` scrutinee selects on a rank value.
fn is_rank_scrutinee(toks: &[Tok]) -> bool {
    toks.iter()
        .any(|t| matches!(&t.kind, TokKind::Ident(s) if s.to_ascii_lowercase().contains("rank")))
}

/// Finds the index of the `{` that opens the block after a condition or
/// scrutinee starting at `from`, skipping over parenthesized/bracketed
/// sub-expressions. Returns `None` when the file ends first.
fn find_block_open(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
            TokKind::Punct('{') if depth == 0 => return Some(j),
            // A `;` at depth 0 means this `if`/`match` never opened a block
            // (e.g. lexing a macro fragment); give up on it.
            TokKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Flags `.collective(` calls inside rank-guarded `if`/`match` blocks.
fn collective_symmetry(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut stack: Vec<Frame> = Vec::new();
    // Set when the block about to open inherits a guard from the `else` of
    // a rank-guarded `if`.
    let mut inherit_else = false;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Ident(s) if s == "if" || s == "match" => {
                let Some(open) = find_block_open(toks, i + 1) else {
                    i += 1;
                    continue;
                };
                let head = &toks[i + 1..open];
                let guarded = if s == "if" {
                    inherit_else || is_rank_comparison(head)
                } else {
                    is_rank_scrutinee(head)
                };
                inherit_else = false;
                stack.push(Frame {
                    guarded,
                    guarded_if: s == "if" && guarded,
                });
                i = open + 1;
            }
            TokKind::Ident(s) if s == "else" => {
                // `else {` of a guarded if: the alternative branch also
                // runs on a rank subset. `else if` is handled by the `if`
                // arm above via `inherit_else`.
                if inherit_else && is_punct(toks.get(i + 1), '{') {
                    stack.push(Frame {
                        guarded: true,
                        guarded_if: true,
                    });
                    inherit_else = false;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokKind::Punct('{') => {
                stack.push(Frame {
                    guarded: false,
                    guarded_if: false,
                });
                inherit_else = false;
                i += 1;
            }
            TokKind::Punct('}') => {
                let closed = stack.pop();
                // An `else` directly after a guarded if-block inherits.
                inherit_else =
                    closed.is_some_and(|f| f.guarded_if) && ident(toks.get(i + 1)) == Some("else");
                i += 1;
            }
            TokKind::Punct('.') => {
                if stack.iter().any(|f| f.guarded) {
                    if let Some(name) = ident(toks.get(i + 1)) {
                        if COLLECTIVES.contains(&name)
                            && is_punct(toks.get(i + 2), '(')
                            && receiver_plausible(toks, i, name)
                        {
                            out.push(Finding {
                                file: path.to_string(),
                                line: toks[i + 1].line,
                                rule: COLLECTIVE_SYMMETRY,
                                message: format!(
                                    "collective `{name}` inside a rank-guarded branch — every \
                                     rank of the group must reach it or the rendezvous hangs; \
                                     if the asymmetry is intentional, annotate with \
                                     `// lint: allow(collective-symmetry)`"
                                ),
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// For ambiguous names (`split`, `gather`) the receiver before the `.`
/// must look comm-like — an identifier mentioning `comm` or a call result
/// `)` — so `line.split(',')` never fires.
fn receiver_plausible(toks: &[Tok], dot: usize, name: &str) -> bool {
    if name == EXCHANGE_WAIT {
        if dot == 0 {
            return false;
        }
        return match &toks[dot - 1].kind {
            TokKind::Ident(s) => {
                let l = s.to_ascii_lowercase();
                l.contains("pending") || l.contains("exchange")
            }
            TokKind::Punct(')') => true,
            _ => false,
        };
    }
    if !AMBIGUOUS_COLLECTIVES.contains(&name) {
        return true;
    }
    if dot == 0 {
        return false;
    }
    match &toks[dot - 1].kind {
        TokKind::Ident(s) => s.to_ascii_lowercase().contains("comm"),
        TokKind::Punct(')') => true,
        _ => false,
    }
}

/// Flags `.bytes_mut(` calls on payloads that came back from a `*_wire`
/// collective. Taint flows forward through the file: a `let` binding whose
/// initializer contains a wire-collective call (any identifier ending in
/// `_wire` followed by `(`) — or mentions an already-tainted binding, which
/// carries the taint through `pending.wait()` results, `clone()`s, and
/// `&mut recv[i]` aliases — is wire-received, and mutating it after the
/// board crossing is the use-after-deposit shape the loan path forbids
/// (`WireBuf::bytes_mut` panics on a shared payload at runtime — but only
/// while another holder is alive, which depends on ring retirement timing,
/// so this rule is what catches the pattern for every payload size).
fn no_post_deposit_mutation(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let mut tainted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `let [mut] name = <initializer> ;` — taint `name` when the
        // initializer roots at a wire collective or a tainted binding.
        // (Tuple/struct patterns are skipped; the receive idiom binds one
        // name.)
        if ident(toks.get(i)) == Some("let") {
            let mut j = i + 1;
            if ident(toks.get(j)) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ident(toks.get(j)) {
                if is_punct(toks.get(j + 1), '=') && !is_punct(toks.get(j + 2), '=') {
                    let mut depth = 0i64;
                    let mut k = j + 2;
                    let mut taints = false;
                    while k < toks.len() {
                        match &toks[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                depth += 1
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                depth -= 1
                            }
                            TokKind::Punct(';') if depth <= 0 => break,
                            TokKind::Ident(s)
                                if (s.ends_with("_wire") && is_punct(toks.get(k + 1), '('))
                                    || tainted.iter().any(|t| t == s) =>
                            {
                                taints = true;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if taints && name != "_" {
                        tainted.push(name.to_string());
                    }
                }
            }
            i += 1;
            continue;
        }
        if matches!(&toks[i].kind, TokKind::Punct('.'))
            && ident(toks.get(i + 1)) == Some("bytes_mut")
            && is_punct(toks.get(i + 2), '(')
            && receiver_is_wire_received(toks, i, &tainted)
        {
            out.push(Finding {
                file: path.to_string(),
                line: toks[i + 1].line,
                rule: NO_POST_DEPOSIT_MUTATION,
                message: "`bytes_mut` on a payload received from a wire collective — every \
                          payload crosses the board as an `Arc` loan shared with the sender \
                          (the runtime panics on this write); mutate before the deposit, or \
                          copy out with `bytes().to_vec()` (docs/zero-copy.md)"
                    .to_string(),
            });
        }
        i += 1;
    }
}

/// Walks the receiver chain left from the `.` at `dot` — over `[index]`
/// groups, `(call)` groups, and `.field` / `.method` segments — until the
/// root identifier. True when the root is a tainted binding, or the chain
/// itself contains a `*_wire` call (`comm.alltoallv_wire(b)[0].bytes_mut()`).
fn receiver_is_wire_received(toks: &[Tok], dot: usize, tainted: &[String]) -> bool {
    let mut k = dot;
    loop {
        if k == 0 {
            return false;
        }
        match &toks[k - 1].kind {
            TokKind::Punct(']') => match matching_open(toks, k - 1, '[', ']') {
                Some(open) => k = open,
                None => return false,
            },
            TokKind::Punct(')') => match matching_open(toks, k - 1, '(', ')') {
                Some(open) => k = open,
                None => return false,
            },
            TokKind::Ident(s) => {
                if tainted.iter().any(|t| t == s) || s.ends_with("_wire") {
                    return true;
                }
                if k >= 2 && matches!(&toks[k - 2].kind, TokKind::Punct('.')) {
                    k -= 2; // step over `.segment` to its own receiver
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Index of the `open_c` that matches the `close_c` at `close`, scanning
/// backwards over nested groups.
fn matching_open(toks: &[Tok], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 1usize;
    let mut k = close;
    while k > 0 {
        k -= 1;
        match &toks[k].kind {
            TokKind::Punct(c) if *c == close_c => depth += 1,
            TokKind::Punct(c) if *c == open_c => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
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
    fn guarded_collectives_fire_with_else_chains() {
        let src = "\
fn f(comm: &Comm) {
    if comm.rank() == 0 {
        comm.barrier();
    } else if comm.rank() == 1 {
        comm.allreduce(&x, ops::sum);
    } else {
        comm.broadcast(0, &mut y);
    }
}";
        let f = run("crates/bfs/src/lib.rs", src);
        let rules: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![
                (3, COLLECTIVE_SYMMETRY),
                (5, COLLECTIVE_SYMMETRY),
                (7, COLLECTIVE_SYMMETRY)
            ]
        );
    }

    #[test]
    fn match_on_rank_guards_its_arms() {
        let src = "\
match comm.rank() {
    0 => { comm.gatherv(&v, 0); }
    _ => {}
}";
        let f = run("crates/bfs/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unguarded_and_non_rank_branches_are_clean() {
        let src = "\
fn f(comm: &Comm) {
    comm.barrier();
    if depth == 0 {
        comm.allreduce(&x, ops::sum);
    }
    if comm.rank() == 0 {
        println!(\"root\");
    }
    for part in line.split(',') {
        use_part(part);
    }
}";
        assert!(run("crates/bfs/src/lib.rs", src).is_empty());
    }

    #[test]
    fn ambiguous_names_need_a_comm_receiver() {
        let guarded = |body: &str| format!("fn f() {{ if my_rank == 0 {{ {body} }} }}");
        assert!(run("src/lib.rs", &guarded("let p = line.split(',');")).is_empty());
        assert_eq!(
            run("src/lib.rs", &guarded("let sub = comm.split(c, k);")).len(),
            1
        );
        assert_eq!(
            run("src/lib.rs", &guarded("let sub = ctx.comm().split(c, k);")).len(),
            1
        );
    }

    #[test]
    fn split_exchange_pair_is_guarded_like_any_collective() {
        let guarded = |body: &str| format!("fn f() {{ if comm.rank() == 0 {{ {body} }} }}");
        // A rank-guarded start deadlocks the deposit rendezvous.
        assert_eq!(
            run(
                "src/lib.rs",
                &guarded("let pending = comm.ialltoallv_wire(bufs);")
            )
            .len(),
            1
        );
        // …and so does a rank-guarded wait, whether on a binding or chained.
        assert_eq!(run("src/lib.rs", &guarded("pending.wait();")).len(), 1);
        assert_eq!(
            run(
                "src/lib.rs",
                &guarded("let exchange = start(); exchange.wait();")
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "src/lib.rs",
                &guarded("let bufs = comm.ialltoallv_wire(out).wait();")
            )
            .len(),
            1,
            "chained start+wait on one line dedupes to a single finding"
        );
        // Non-exchange waits never fire: barriers, condvars, children.
        assert!(run("src/lib.rs", &guarded("barrier.wait();")).is_empty());
        assert!(run("src/lib.rs", &guarded("self.cvar.wait(g);")).is_empty());
        assert!(run("src/lib.rs", &guarded("child.wait();")).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_a_finding() {
        let src = "\
fn f(comm: &Comm) {
    if comm.rank() == 0 {
        // lint: allow(collective-symmetry)
        comm.barrier();
        comm.allreduce(&x, ops::sum); // lint: allow(collective-symmetry)
        comm.broadcast(0, &mut y);
    }
}";
        let f = run("crates/bfs/src/lib.rs", src);
        assert_eq!(f.len(), 1, "only the unannotated call survives: {f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn post_deposit_mutation_fires_on_received_payloads() {
        // Direct: mutate an element of the received vector.
        let src = "\
fn f(comm: &Comm, bufs: Vec<WireBuf>) {
    let recv = comm.alltoallv_wire(bufs);
    recv[0].bytes_mut()[0] = 0xFF;
}";
        let f = run("crates/bfs/src/one_d.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (3, NO_POST_DEPOSIT_MUTATION));

        // Taint flows through an alias and through a pending-exchange wait.
        let src = "\
fn g(comm: &Comm, bufs: Vec<WireBuf>) {
    let pending = comm.ialltoallv_wire(bufs);
    let recv = pending.wait();
    let mut theirs = recv[1].clone();
    theirs.bytes_mut().push(0);
}";
        let f = run("crates/bfs/src/one_d.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);

        // Chained receive with no binding at all.
        let src = "fn h(comm: &Comm, b: Vec<WireBuf>) { comm.allgatherv_wire(b)[0].bytes_mut(); }";
        assert_eq!(run("crates/bfs/src/one_d.rs", src).len(), 1);
    }

    #[test]
    fn pre_deposit_mutation_and_comm_internals_are_clean() {
        // Building a payload mutates freely before the collective sees it.
        let src = "\
fn f(comm: &Comm, mut buf: WireBuf) {
    buf.bytes_mut().push(7);
    let _ = comm.alltoallv_wire(vec![buf]);
}";
        assert!(run("crates/bfs/src/one_d.rs", src).is_empty());
        // Reading the received bytes is always fine.
        let src = "\
fn g(comm: &Comm, bufs: Vec<WireBuf>) {
    let recv = comm.alltoallv_wire(bufs);
    decode(recv[0].bytes());
}";
        assert!(run("crates/bfs/src/one_d.rs", src).is_empty());
        // The comm crate seals and fault-flips pre-deposit by design.
        let src =
            "fn s(recv: &mut [WireBuf]) { let r = self.alltoallv_wire(b); r[0].bytes_mut(); }";
        assert!(run("crates/comm/src/comm.rs", src).is_empty());
    }

    #[test]
    fn findings_dedupe_per_line_and_sort() {
        let src = "if rank == 0 { comm.barrier(); comm.barrier(); }\nWorld::run(2, f);";
        let f = run("crates/bfs/src/lib.rs", src);
        let rules: Vec<(u32, &str)> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![(1, COLLECTIVE_SYMMETRY), (2, WORLD_RUN_BOUNDARY)]
        );
    }
}
