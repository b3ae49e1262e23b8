//! A small control-flow IR over the lint lexer, for the collective-
//! schedule checker (`cargo run -p xtask -- schedule`).
//!
//! The parser recovers just enough structure from the token stream to
//! reason about *which collectives a function can emit, in what order*:
//! per-function bodies as statement trees of collective ops, calls
//! (with closure-literal arguments attached for higher-order
//! substitution), branches, loops, and the `let`/assignment spine needed
//! to classify branch conditions as rank-invariant or not. Everything
//! else — arithmetic, types, generics — is deliberately summarized into
//! [`ExprFacts`]: the identifier roots an expression's value derives
//! from, plus whether it mentions a rank source or is rooted at a
//! replicated-result collective.
//!
//! It is not a Rust parser. Where the grammar is ambiguous at token
//! level the parser degrades conservatively (events keep their source
//! order; unknown constructs contribute no events), which is the right
//! failure mode for a checker whose findings gate CI: see
//! `docs/static-analysis.md` for the accepted imprecision.

use crate::lexer::{Lexed, Tok, TokKind};

/// One parsed function (or method) definition.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when any.
    pub qual: Option<String>,
    /// Parameter names in declaration order (`self` included for
    /// methods; destructured patterns contribute their first identifier).
    pub params: Vec<String>,
    /// Statement tree of the body.
    pub body: Vec<Stmt>,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// A closure literal: parameters plus body statements. Closure bodies
/// are analyzed in the enclosing function's scope.
#[derive(Debug)]
pub struct Closure {
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    pub line: u32,
}

/// Classification facts about one expression span.
#[derive(Debug, Default, Clone)]
pub struct ExprFacts {
    /// Identifiers the value derives from (receivers and free variables;
    /// method/field names and path constants are excluded).
    pub roots: Vec<String>,
    /// Mentions a rank source: a `.rank()` call or a rank-named root.
    pub rank: bool,
    /// The whole expression is a call to a replicated-result collective
    /// (`allreduce`, `allgather(v)`, `broadcast`): its value is identical
    /// on every rank regardless of the inputs.
    pub repl_root: bool,
}

/// One arm of a branch: pattern-bound names plus the arm body.
#[derive(Debug)]
pub struct Arm {
    pub bound: Vec<String>,
    pub body: Vec<Stmt>,
}

/// IR statements. Expression-level events (collective ops, calls,
/// nested branches in argument position) are flattened into evaluation
/// order around the statement that contains them.
#[derive(Debug)]
pub enum Stmt {
    /// A collective primitive call site (`comm.barrier()`,
    /// `pending.wait()`, …). `name` is the method name as written.
    Op {
        name: String,
        line: u32,
    },
    /// A call that may resolve to another function in the workspace.
    Call {
        name: String,
        /// `Type` of a `Type::name(..)` path call (with `Self` already
        /// resolved to the enclosing impl type).
        qual: Option<String>,
        /// Receiver identifier of a method call (`self`, `comm`, …).
        recv: Option<String>,
        /// Closure-literal arguments by position.
        closures: Vec<(usize, Closure)>,
        /// Facts per top-level argument (closure slots are empty).
        args: Vec<ExprFacts>,
        line: u32,
    },
    /// `if` / `if let` / `match` (with the full `else if` chain folded
    /// into `arms`, and an implicit empty arm when no `else` exists).
    Branch {
        cond: ExprFacts,
        arms: Vec<Arm>,
        line: u32,
    },
    /// `for` / `while` / `while let` / `loop`. `head` is the iterated or
    /// tested expression; `bound` the loop-pattern names.
    Loop {
        head: Option<ExprFacts>,
        bound: Vec<String>,
        body: Vec<Stmt>,
        line: u32,
    },
    /// `let` binding (non-closure). `names` are the pattern-bound names.
    Let {
        names: Vec<String>,
        value: ExprFacts,
        line: u32,
    },
    /// `let name = |..| ..;` — a named local closure.
    LetClosure {
        name: String,
        closure: Closure,
        line: u32,
    },
    /// Mutation of a named local: `x = ..`, `x += ..`, or a method call
    /// on `x` in statement position (potential interior mutation).
    Assign {
        name: String,
        value: ExprFacts,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    Return {
        line: u32,
    },
}

/// Method names treated as collective primitives, with the receiver
/// heuristics of the lint rules: `wait` only on a pending/exchange-like
/// receiver, `split`/`gather` only on a comm-like receiver.
const PRIMITIVES: &[&str] = &[
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

/// Collectives whose result is replicated: every rank computes the same
/// value from them, so data derived from their results is rank-invariant
/// (the `[u64;3]`-allreduce pattern of the direction-optimizing hybrid).
pub const REPLICATED_RESULT: &[&str] = &["allreduce", "allgather", "allgatherv", "broadcast"];

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "in",
    "as", "move", "mut", "ref", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait",
    "where", "unsafe", "async", "const", "static", "type", "self", "Self", "super", "crate", "dyn",
    "box", "true", "false",
];

fn ident(tok: Option<&Tok>) -> Option<&str> {
    match tok.map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(tok: Option<&Tok>, c: char) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Index just past the close bracket matching the open bracket at
/// `open` (which must be `(`, `[`, or `{`). Counts all three kinds so
/// nested mixed brackets stay balanced.
fn matching(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skips a `<..>` generics span starting at `i` (which points at `<`).
/// Returns the index past the matching `>`; bails out at obvious
/// non-generic boundaries so a stray comparison cannot swallow a file.
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('{') | TokKind::Punct(';') => return i,
            _ => {}
        }
        j += 1;
    }
    i
}

/// True when `name` looks like a rank-derived identifier (`rank`,
/// `my_rank`, `rank_id`) without catching `ranks` (a replicated count).
fn rank_named(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l == "rank" || l.ends_with("_rank") || l.starts_with("rank_")
}

/// Receiver plausibility for the ambiguous primitive names, mirroring
/// the lint rules: `wait` needs a pending/exchange-like receiver,
/// `split`/`gather` a comm-like one (or a call-result receiver).
fn primitive_receiver_ok(toks: &[Tok], dot: usize, name: &str) -> bool {
    let recv = dot.checked_sub(1).map(|k| &toks[k].kind);
    match name {
        "wait" => match recv {
            Some(TokKind::Ident(s)) => {
                let l = s.to_ascii_lowercase();
                l.contains("pending") || l.contains("exchange")
            }
            Some(TokKind::Punct(')')) => true,
            _ => false,
        },
        "split" | "gather" => match recv {
            Some(TokKind::Ident(s)) => s.to_ascii_lowercase().contains("comm"),
            Some(TokKind::Punct(')')) => true,
            _ => false,
        },
        _ => true,
    }
}

/// Parses every function definition in a lexed file, including methods
/// in `impl`/`trait` blocks, nested modules, and nested `fn` items.
pub fn parse_file(lexed: &Lexed) -> Vec<FnDef> {
    let mut out = Vec::new();
    parse_items(&lexed.toks, 0, lexed.toks.len(), None, &mut out);
    out
}

/// Walks items in `toks[lo..hi]` under the impl/trait type `qual`.
fn parse_items(toks: &[Tok], lo: usize, hi: usize, qual: Option<&str>, out: &mut Vec<FnDef>) {
    let mut i = lo;
    // Set while the pending attributes include `#[cfg(test)]`; a module
    // under it holds unit tests, not drivers — skip it wholesale so test
    // helpers never surface as schedule entry points.
    let mut cfg_test = false;
    while i < hi {
        let is_attr = matches!(&toks[i].kind, TokKind::Punct('#'));
        match &toks[i].kind {
            // Attribute: skip `#[ .. ]` / `#![ .. ]`.
            TokKind::Punct('#') => {
                let mut j = i + 1;
                if is_punct(toks.get(j), '!') {
                    j += 1;
                }
                if is_punct(toks.get(j), '[') {
                    let end = matching(toks, j);
                    cfg_test |= toks[j..end.min(toks.len())]
                        .windows(2)
                        .any(|w| ident(Some(&w[0])) == Some("cfg") && is_punct(Some(&w[1]), '('))
                        && toks[j..end.min(toks.len())]
                            .iter()
                            .any(|t| ident(Some(t)) == Some("test"));
                    i = end;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident(s) if s == "fn" => {
                i = parse_fn(toks, i, qual, out);
            }
            TokKind::Ident(s) if s == "impl" || s == "trait" => {
                // Header up to `{`: the subject type is the first type
                // ident after generics — or the ident after `for` in
                // `impl Trait for Type`.
                let mut j = i + 1;
                if is_punct(toks.get(j), '<') {
                    j = skip_generics(toks, j);
                }
                let mut subject: Option<String> = None;
                let mut after_for = false;
                while j < hi && !is_punct(toks.get(j), '{') {
                    if is_punct(toks.get(j), ';') {
                        break; // `impl Trait for Type;`-like degenerate
                    }
                    if let Some(name) = ident(toks.get(j)) {
                        if name == "for" {
                            after_for = true;
                            subject = None;
                        } else if subject.is_none()
                            && (after_for || name.chars().next().is_some_and(|c| c.is_uppercase()))
                        {
                            subject = Some(name.to_string());
                        }
                    }
                    j += 1;
                }
                if is_punct(toks.get(j), '{') {
                    let end = matching(toks, j);
                    parse_items(toks, j + 1, end - 1, subject.as_deref(), out);
                    i = end;
                } else {
                    i = j + 1;
                }
            }
            TokKind::Ident(s) if s == "mod" => {
                // `mod name { items }` — recurse; `mod name;` — skip.
                let mut j = i + 1;
                while j < hi && !is_punct(toks.get(j), '{') && !is_punct(toks.get(j), ';') {
                    j += 1;
                }
                if is_punct(toks.get(j), '{') {
                    let end = matching(toks, j);
                    if !cfg_test {
                        parse_items(toks, j + 1, end - 1, None, out);
                    }
                    i = end;
                } else {
                    i = j + 1;
                }
            }
            // Skip other braced items wholesale so their contents are
            // not misread as functions.
            TokKind::Ident(s) if s == "struct" || s == "enum" || s == "union" => {
                let mut j = i + 1;
                while j < hi && !is_punct(toks.get(j), '{') && !is_punct(toks.get(j), ';') {
                    j += 1;
                }
                i = if is_punct(toks.get(j), '{') {
                    matching(toks, j)
                } else {
                    j + 1
                };
            }
            _ => i += 1,
        }
        if !is_attr {
            cfg_test = false;
        }
    }
}

/// Parses one `fn` starting at index `i` (the `fn` keyword). Appends the
/// definition (and any nested `fn`s) to `out`; returns the index past
/// the body.
fn parse_fn(toks: &[Tok], i: usize, qual: Option<&str>, out: &mut Vec<FnDef>) -> usize {
    let line = toks[i].line;
    let Some(name) = ident(toks.get(i + 1)) else {
        return i + 1;
    };
    let name = name.to_string();
    let mut j = i + 2;
    if is_punct(toks.get(j), '<') {
        j = skip_generics(toks, j);
    }
    if !is_punct(toks.get(j), '(') {
        return j;
    }
    let params_end = matching(toks, j);
    let params = parse_params(&toks[j + 1..params_end - 1]);
    // Signature tail (return type, where clause) up to the body.
    let mut k = params_end;
    while k < toks.len() && !is_punct(toks.get(k), '{') && !is_punct(toks.get(k), ';') {
        k += 1;
    }
    if !is_punct(toks.get(k), '{') {
        return k + 1; // trait method declaration without body
    }
    let end = matching(toks, k);
    let mut body = Vec::new();
    parse_stmts(toks, k + 1, end - 1, qual, out, &mut body);
    out.push(FnDef {
        name,
        qual: qual.map(str::to_string),
        params,
        body,
        line,
    });
    end
}

/// Parameter names from the token span inside a `fn`'s parens: per
/// top-level comma, the first identifier of the pattern (before `:`),
/// with `&`/`mut`/lifetimes stripped; `self` kept as-is.
fn parse_params(toks: &[Tok]) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    let flush = |lo: usize, hi: usize, params: &mut Vec<String>| {
        let mut seen_colon = false;
        for t in &toks[lo..hi] {
            match &t.kind {
                TokKind::Punct(':') => seen_colon = true,
                TokKind::Ident(s) if !seen_colon => {
                    if s == "mut" || s == "ref" {
                        continue;
                    }
                    params.push(s.clone());
                    return;
                }
                _ => {}
            }
        }
    };
    for (k, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct('(')
            | TokKind::Punct('[')
            | TokKind::Punct('{')
            | TokKind::Punct('<') => depth += 1,
            TokKind::Punct(')')
            | TokKind::Punct(']')
            | TokKind::Punct('}')
            | TokKind::Punct('>') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => {
                flush(start, k, &mut params);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        flush(start, toks.len(), &mut params);
    }
    params
}

/// Pattern-bound names: lowercase-initial identifiers that are not path
/// segments, keywords, or literals. `Some(k)` binds `k`; `Codec::Raw`
/// binds nothing.
fn pattern_bound(toks: &[Tok], lo: usize, hi: usize) -> Vec<String> {
    let mut bound = Vec::new();
    for k in lo..hi {
        if let TokKind::Ident(s) = &toks[k].kind {
            if KEYWORDS.contains(&s.as_str()) || s == "_" {
                continue;
            }
            if !s
                .chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
            {
                continue;
            }
            // Path segment (`mod::name`) or struct-field shorthand key.
            if k > lo && is_punct(toks.get(k - 1), ':') {
                continue;
            }
            if is_punct(toks.get(k + 1), ':') && is_punct(toks.get(k + 2), ':') {
                continue;
            }
            bound.push(s.clone());
        }
    }
    bound
}

/// Classification facts for the expression span `toks[lo..hi]`.
/// Closure-literal bodies inside the span are included in the scan (their
/// parameters are locally bound, so they are excluded from the roots).
fn expr_facts(toks: &[Tok], lo: usize, hi: usize) -> ExprFacts {
    let mut f = ExprFacts::default();
    // Whole-expression replicated-collective call:
    // `recv.allreduce( .. )` spanning the full range.
    if hi > lo + 3 {
        for k in lo..hi.min(lo + 6) {
            if is_punct(toks.get(k), '.')
                && ident(toks.get(k + 1)).is_some_and(|n| REPLICATED_RESULT.contains(&n))
                && is_punct(toks.get(k + 2), '(')
                && matching(toks, k + 2) >= hi
            {
                f.repl_root = true;
            }
        }
    }
    // Closure parameters bound inside the span do not root data outside.
    let mut shadowed: Vec<String> = Vec::new();
    let mut k = lo;
    while k < hi {
        if let TokKind::Punct('|') = toks[k].kind {
            // Possible closure head: `|a, b|` with a simple param list.
            let mut m = k + 1;
            let mut ok = true;
            let mut names = Vec::new();
            while m < hi && !is_punct(toks.get(m), '|') {
                match &toks[m].kind {
                    TokKind::Ident(s) => {
                        if !KEYWORDS.contains(&s.as_str()) {
                            names.push(s.clone());
                        }
                    }
                    TokKind::Punct(',')
                    | TokKind::Punct('&')
                    | TokKind::Punct('(')
                    | TokKind::Punct(')')
                    | TokKind::Punct(':')
                    | TokKind::Punct('[')
                    | TokKind::Punct(']')
                    | TokKind::Punct('<')
                    | TokKind::Punct('>') => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
                m += 1;
            }
            if ok && m < hi && is_punct(toks.get(m), '|') {
                shadowed.extend(names);
                k = m + 1;
                continue;
            }
        }
        k += 1;
    }
    for k in lo..hi {
        let TokKind::Ident(s) = &toks[k].kind else {
            continue;
        };
        if KEYWORDS.contains(&s.as_str()) {
            if s == "self" && is_punct(toks.get(k + 1), '.') {
                // `self.field` roots at self.
                f.roots.push("self".to_string());
            }
            continue;
        }
        // Method/field name or macro name: not a data root.
        if k > lo && is_punct(toks.get(k - 1), '.') {
            if s == "rank" && is_punct(toks.get(k + 1), '(') {
                f.rank = true;
            }
            continue;
        }
        if is_punct(toks.get(k + 1), '!') {
            continue; // macro
        }
        // Path segments (`Type::CONST`, `mod::func`): replicated
        // compile-time names, not data roots.
        if (k > lo && is_punct(toks.get(k - 1), ':'))
            || (is_punct(toks.get(k + 1), ':') && is_punct(toks.get(k + 2), ':'))
        {
            continue;
        }
        if shadowed.contains(s) {
            continue;
        }
        if rank_named(s) {
            f.rank = true;
            continue;
        }
        f.roots.push(s.clone());
    }
    f.roots.sort();
    f.roots.dedup();
    f
}

/// Parses statements/events in `toks[lo..hi]` (a block body without its
/// braces, or an expression span), appending to `body`. Nested `fn`
/// items are appended to `defs`.
fn parse_stmts(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
) {
    let mut i = lo;
    while i < hi {
        match &toks[i].kind {
            TokKind::Punct('#') => {
                let mut j = i + 1;
                if is_punct(toks.get(j), '!') {
                    j += 1;
                }
                i = if is_punct(toks.get(j), '[') {
                    matching(toks, j)
                } else {
                    i + 1
                };
            }
            TokKind::Ident(s) if s == "fn" => {
                i = parse_fn(toks, i, qual, defs);
            }
            TokKind::Ident(s) if s == "let" => {
                i = parse_let(toks, i, hi, qual, defs, body);
            }
            TokKind::Ident(s) if s == "if" || s == "match" => {
                i = parse_branch(toks, i, hi, qual, defs, body);
            }
            TokKind::Ident(s) if s == "while" || s == "for" || s == "loop" => {
                i = parse_loop(toks, i, hi, qual, defs, body);
            }
            TokKind::Ident(s) if s == "break" => {
                body.push(Stmt::Break { line: toks[i].line });
                i += 1;
            }
            TokKind::Ident(s) if s == "continue" => {
                body.push(Stmt::Continue { line: toks[i].line });
                i += 1;
            }
            TokKind::Ident(s) if s == "return" => {
                body.push(Stmt::Return { line: toks[i].line });
                i += 1;
            }
            // Free-standing block.
            TokKind::Punct('{') => {
                let end = matching(toks, i);
                parse_stmts(toks, i + 1, end - 1, qual, defs, body);
                i = end;
            }
            _ => {
                i = parse_expr_events(toks, i, hi, qual, defs, body, true);
            }
        }
    }
}

/// Parses a `let` statement at `i`: emits RHS events in evaluation
/// order, then the binding record. Returns the index past the `;`.
fn parse_let(
    toks: &[Tok],
    i: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
) -> usize {
    let line = toks[i].line;
    // Pattern: up to the `=` at depth 0 (ignoring `==`); `let PAT;` and
    // `let PAT: T;` (no initializer) end at `;`.
    let mut depth = 0i64;
    let mut eq = None;
    let mut j = i + 1;
    while j < hi {
        match toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            // Everything before the initializer's `=` is pattern/type
            // position, where `<=`/`>=` cannot occur at depth 0 — but a
            // generic ascription (`let x: Vec<Vec<u64>> = ..`) puts `>`
            // right before it, so only `==` (and macro `!`) disqualify.
            TokKind::Punct('=')
                if depth == 0
                    && !is_punct(toks.get(j + 1), '=')
                    && !is_punct(toks.get(j.wrapping_sub(1)), '=')
                    && !is_punct(toks.get(j.wrapping_sub(1)), '!') =>
            {
                eq = Some(j);
                break;
            }
            TokKind::Punct(';') if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let Some(eq) = eq else {
        return statement_end(toks, i, hi);
    };
    // Pattern names: strip a `: Type` ascription if present.
    let mut pat_hi = eq;
    let mut d = 0i64;
    for k in i + 1..eq {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => d -= 1,
            TokKind::Punct(':') if d == 0 && !is_punct(toks.get(k + 1), ':') => {
                pat_hi = k;
                break;
            }
            _ => {}
        }
    }
    let names = pattern_bound(toks, i + 1, pat_hi);
    let end = statement_end(toks, eq + 1, hi);
    let rhs_hi = if end > eq + 1 && is_punct(toks.get(end - 1), ';') {
        end - 1
    } else {
        end
    };

    // `let name = |..| ..;` — a named closure.
    let mut c = eq + 1;
    if ident(toks.get(c)) == Some("move") {
        c += 1;
    }
    if is_punct(toks.get(c), '|') && names.len() == 1 {
        if let Some((closure, _)) = parse_closure(toks, c, rhs_hi, qual, defs) {
            body.push(Stmt::LetClosure {
                name: names[0].clone(),
                closure,
                line,
            });
            return end;
        }
    }

    // Events inside the initializer, in evaluation order.
    let mut j = eq + 1;
    while j < rhs_hi {
        j = parse_expr_events(toks, j, rhs_hi, qual, defs, body, false);
    }
    body.push(Stmt::Let {
        names,
        value: expr_facts(toks, eq + 1, rhs_hi),
        line,
    });
    end
}

/// Index just past the `;` ending the statement starting at `i` (depth-
/// aware), or past the closing brace of a trailing block expression.
fn statement_end(toks: &[Tok], i: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < hi {
        match toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j; // enclosing block closed first
                }
            }
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    hi
}

/// Parses an `if`/`if let`/`match` construct at `i`, folding any `else`
/// chain into one [`Stmt::Branch`]. Returns the index past the construct.
fn parse_branch(
    toks: &[Tok],
    i: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
) -> usize {
    let line = toks[i].line;
    let is_match = ident(toks.get(i)) == Some("match");
    let mut cond = ExprFacts::default();
    let mut arms: Vec<Arm> = Vec::new();
    let mut has_default = false;

    let mut cursor = i;
    loop {
        // cursor points at `if` or `match` (first round) or `if` of an
        // `else if` continuation.
        let kw_is_match = ident(toks.get(cursor)) == Some("match");
        let mut head_lo = cursor + 1;
        let mut bound = Vec::new();
        if !kw_is_match && ident(toks.get(head_lo)) == Some("let") {
            // `if let PAT = expr` — bind the pattern, classify the expr.
            let mut depth = 0i64;
            let mut eq = None;
            let mut k = head_lo + 1;
            while k < hi {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                    TokKind::Punct('=') if depth == 0 && !is_punct(toks.get(k + 1), '=') => {
                        eq = Some(k);
                        break;
                    }
                    TokKind::Punct('{') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if let Some(eq) = eq {
                bound = pattern_bound(toks, head_lo + 1, eq);
                head_lo = eq + 1;
            }
        }
        let Some(open) = find_block_open(toks, head_lo, hi) else {
            return cursor + 1;
        };
        let head = expr_facts(toks, head_lo, open);
        cond.roots.extend(head.roots);
        cond.rank |= head.rank;
        cond.repl_root |= head.repl_root;
        let end = matching(toks, open);

        if kw_is_match {
            parse_match_arms(toks, open + 1, end - 1, qual, defs, &mut arms, &mut cond);
            // A `match` is exhaustive by construction.
            has_default = true;
            cursor = end;
            break;
        }

        let mut arm_body = Vec::new();
        parse_stmts(toks, open + 1, end - 1, qual, defs, &mut arm_body);
        arms.push(Arm {
            bound,
            body: arm_body,
        });
        // else / else if continuation.
        if ident(toks.get(end)) == Some("else") {
            if ident(toks.get(end + 1)) == Some("if") {
                cursor = end + 1;
                continue;
            }
            if is_punct(toks.get(end + 1), '{') {
                let eend = matching(toks, end + 1);
                let mut else_body = Vec::new();
                parse_stmts(toks, end + 2, eend - 1, qual, defs, &mut else_body);
                arms.push(Arm {
                    bound: Vec::new(),
                    body: else_body,
                });
                has_default = true;
                cursor = eend;
                break;
            }
        }
        cursor = end;
        break;
    }
    if !has_default && !is_match {
        arms.push(Arm {
            bound: Vec::new(),
            body: Vec::new(),
        });
    }
    cond.roots.sort();
    cond.roots.dedup();
    body.push(Stmt::Branch { cond, arms, line });
    cursor
}

/// Splits match-arm bodies between `lo..hi` (the inside of the match
/// braces). Guards (`PAT if g =>`) contribute their roots to `cond`.
fn parse_match_arms(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    arms: &mut Vec<Arm>,
    cond: &mut ExprFacts,
) {
    let mut i = lo;
    while i < hi {
        // Pattern span up to `=>` at depth 0.
        let mut depth = 0i64;
        let mut arrow = None;
        let mut j = i;
        while j < hi {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct('=') if depth == 0 && is_punct(toks.get(j + 1), '>') => {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        // Guard: `PAT if guard =>`.
        let mut pat_hi = arrow;
        for k in i..arrow {
            if ident(toks.get(k)) == Some("if") {
                let g = expr_facts(toks, k + 1, arrow);
                cond.roots.extend(g.roots);
                cond.rank |= g.rank;
                pat_hi = k;
                break;
            }
        }
        let bound = pattern_bound(toks, i, pat_hi);
        // Arm body: a block, or an expression up to `,` at depth 0.
        let body_lo = arrow + 2;
        let mut arm_body = Vec::new();
        let next = if is_punct(toks.get(body_lo), '{') {
            let end = matching(toks, body_lo);
            parse_stmts(toks, body_lo + 1, end - 1, qual, defs, &mut arm_body);
            // Skip an optional trailing comma.
            if is_punct(toks.get(end), ',') {
                end + 1
            } else {
                end
            }
        } else {
            let mut depth = 0i64;
            let mut k = body_lo;
            while k < hi {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let mut m = body_lo;
            while m < k {
                m = parse_expr_events(toks, m, k, qual, defs, &mut arm_body, false);
            }
            k + 1
        };
        arms.push(Arm {
            bound,
            body: arm_body,
        });
        i = next;
    }
}

/// Parses `while` / `while let` / `for` / `loop` at `i`.
fn parse_loop(
    toks: &[Tok],
    i: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
) -> usize {
    let line = toks[i].line;
    let kw = ident(toks.get(i)).unwrap_or_default().to_string();
    let mut head_lo = i + 1;
    let mut bound = Vec::new();
    if kw == "while" && ident(toks.get(head_lo)) == Some("let") {
        let mut k = head_lo + 1;
        let mut depth = 0i64;
        while k < hi {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('=') if depth == 0 && !is_punct(toks.get(k + 1), '=') => {
                    bound = pattern_bound(toks, head_lo + 1, k);
                    head_lo = k + 1;
                    break;
                }
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
    } else if kw == "for" {
        // `for PAT in expr {`
        let mut k = head_lo;
        while k < hi && ident(toks.get(k)) != Some("in") {
            k += 1;
        }
        if k < hi {
            bound = pattern_bound(toks, head_lo, k);
            head_lo = k + 1;
        }
    }
    let Some(open) = (if kw == "loop" {
        if is_punct(toks.get(i + 1), '{') {
            Some(i + 1)
        } else {
            None
        }
    } else {
        find_block_open(toks, head_lo, hi)
    }) else {
        return i + 1;
    };
    let head = if kw == "loop" {
        None
    } else {
        Some(expr_facts(toks, head_lo, open))
    };
    let end = matching(toks, open);
    let mut loop_body = Vec::new();
    parse_stmts(toks, open + 1, end - 1, qual, defs, &mut loop_body);
    body.push(Stmt::Loop {
        head,
        bound,
        body: loop_body,
        line,
    });
    end
}

/// First `{` at depth 0 after `from` (skipping bracketed spans), or
/// `None` when a `;` intervenes or the range ends.
fn find_block_open(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = from;
    while j < hi {
        match toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => return Some(j),
            TokKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses a closure literal at `i` (pointing at the opening `|`).
/// Returns the closure and the index past its body.
fn parse_closure(
    toks: &[Tok],
    i: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
) -> Option<(Closure, usize)> {
    let line = toks[i].line;
    // `||` lexes as two `|` puncts.
    let (params, body_lo) = if is_punct(toks.get(i + 1), '|') {
        (Vec::new(), i + 2)
    } else {
        let mut j = i + 1;
        let mut depth = 0i64;
        while j < hi {
            match toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct('|') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return None;
        }
        (parse_params(&toks[i + 1..j]), j + 1)
    };
    let mut body = Vec::new();
    let next = if is_punct(toks.get(body_lo), '{') {
        let end = matching(toks, body_lo);
        parse_stmts(toks, body_lo + 1, end - 1, qual, defs, &mut body);
        end
    } else {
        // Expression body: up to `,` / `)` / `;` at depth 0.
        let mut depth = 0i64;
        let mut k = body_lo;
        while k < hi {
            match toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(',') | TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let mut m = body_lo;
        while m < k {
            m = parse_expr_events(toks, m, k, qual, defs, &mut body, false);
        }
        k
    };
    Some((Closure { params, body, line }, next))
}

/// Scans expression tokens from `i`, emitting events (ops, calls,
/// nested control flow) in evaluation order. Returns the index to
/// resume from. When `stmt_position` is set, a leading `recv.method(..)`
/// chain is additionally recorded as a potential mutation of `recv`.
#[allow(clippy::too_many_arguments)]
fn parse_expr_events(
    toks: &[Tok],
    i: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
    stmt_position: bool,
) -> usize {
    if i >= hi {
        return hi;
    }
    match &toks[i].kind {
        TokKind::Ident(s) if s == "if" || s == "match" => {
            return parse_branch(toks, i, hi, qual, defs, body);
        }
        TokKind::Ident(s) if s == "while" || s == "for" || s == "loop" => {
            return parse_loop(toks, i, hi, qual, defs, body);
        }
        TokKind::Ident(s) if s == "break" => {
            body.push(Stmt::Break { line: toks[i].line });
            return i + 1;
        }
        TokKind::Ident(s) if s == "continue" => {
            body.push(Stmt::Continue { line: toks[i].line });
            return i + 1;
        }
        TokKind::Ident(s) if s == "return" => {
            body.push(Stmt::Return { line: toks[i].line });
            return i + 1;
        }
        _ => {}
    }

    // Statement-position assignment: `name = expr ;` / `name += expr ;`.
    if stmt_position {
        if let Some(name) = ident(toks.get(i)) {
            if !KEYWORDS.contains(&name) {
                // Direct assignment.
                let mut k = i + 1;
                // Compound assignment `name op= expr`.
                if matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Punct(c)) if "+-*/%&|^".contains(*c))
                {
                    k += 1;
                }
                if is_punct(toks.get(k), '=') && !is_punct(toks.get(k + 1), '=') {
                    let end = statement_end(toks, k + 1, hi);
                    let rhs_hi = if end > k + 1 && is_punct(toks.get(end - 1), ';') {
                        end - 1
                    } else {
                        end
                    };
                    let mut j = k + 1;
                    while j < rhs_hi {
                        j = parse_expr_events(toks, j, rhs_hi, qual, defs, body, false);
                    }
                    body.push(Stmt::Assign {
                        name: name.to_string(),
                        value: expr_facts(toks, k + 1, rhs_hi),
                        line: toks[i].line,
                    });
                    return end;
                }
                // Statement-position method call on a local: record as a
                // potential interior mutation (matters only under a
                // divergent guard), then fall through to event scanning.
                // Guard on a true statement boundary — the scan re-enters
                // mid-expression (`bufs[grid.rank_of(..)].push(..)` lands
                // here at `grid`), and a spurious record would let loop
                // fixpoints poison an untouched binding.
                let at_stmt_start = i == 0
                    || is_punct(toks.get(i - 1), ';')
                    || is_punct(toks.get(i - 1), '{')
                    || is_punct(toks.get(i - 1), '}');
                if at_stmt_start
                    && is_punct(toks.get(i + 1), '.')
                    && ident(toks.get(i + 2)).is_some()
                {
                    body.push(Stmt::Assign {
                        name: name.to_string(),
                        value: ExprFacts::default(),
                        line: toks[i].line,
                    });
                }
            }
        }
    }

    // Closure literal in expression position.
    if is_punct(toks.get(i), '|')
        || (ident(toks.get(i)) == Some("move") && is_punct(toks.get(i + 1), '|'))
    {
        let at = if is_punct(toks.get(i), '|') { i } else { i + 1 };
        if let Some((closure, next)) = parse_closure(toks, at, hi, qual, defs) {
            // A bare closure not attached to a call: keep its body events
            // out of the schedule (it is a value, not an execution), but
            // record it as an anonymous local so nothing is lost silently.
            let line = closure.line;
            body.push(Stmt::LetClosure {
                name: String::new(),
                closure,
                line,
            });
            return next;
        }
    }

    // Macro invocation: skip its argument span entirely.
    if ident(toks.get(i)).is_some() && is_punct(toks.get(i + 1), '!') {
        let j = i + 2;
        if matches!(
            toks.get(j).map(|t| &t.kind),
            Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) | Some(TokKind::Punct('{'))
        ) {
            return matching(toks, j);
        }
        return j;
    }

    // Call detection: `name (`, `name::<T> (`, `recv.name (`, `Type::name (`.
    if let Some(name) = ident(toks.get(i)) {
        if !KEYWORDS.contains(&name) {
            let is_method = i > 0 && is_punct(toks.get(i - 1), '.');
            // Path qualifier directly before: `Qual::name(`.
            let path_qual =
                if i >= 3 && is_punct(toks.get(i - 1), ':') && is_punct(toks.get(i - 2), ':') {
                    ident(toks.get(i - 3)).map(|q| {
                        if q == "Self" {
                            qual.unwrap_or(q).to_string()
                        } else {
                            q.to_string()
                        }
                    })
                } else {
                    None
                };
            let mut after = i + 1;
            if is_punct(toks.get(after), ':')
                && is_punct(toks.get(after + 1), ':')
                && is_punct(toks.get(after + 2), '<')
            {
                after = skip_generics(toks, after + 2);
            }
            if is_punct(toks.get(after), '(') {
                let close = matching(toks, after);
                let line = toks[i].line;
                if is_method
                    && PRIMITIVES.contains(&name)
                    && primitive_receiver_ok(toks, i - 1, name)
                {
                    // Argument events first (evaluation order), then the op.
                    // Closure arguments of a primitive are reduce operators:
                    // their bodies must not communicate, so they are scanned
                    // like ordinary argument expressions.
                    scan_call_args(toks, after + 1, close - 1, qual, defs, body, None);
                    body.push(Stmt::Op {
                        name: name.to_string(),
                        line,
                    });
                    return close;
                }
                let recv = if is_method {
                    i.checked_sub(2)
                        .and_then(|k| ident(toks.get(k)).map(str::to_string))
                } else {
                    None
                };
                let mut closures = Vec::new();
                let args = scan_call_args(
                    toks,
                    after + 1,
                    close - 1,
                    qual,
                    defs,
                    body,
                    Some(&mut closures),
                );
                body.push(Stmt::Call {
                    name: name.to_string(),
                    qual: path_qual,
                    recv,
                    closures,
                    args,
                    line,
                });
                return close;
            }
        }
    }

    i + 1
}

/// Scans the argument span of a call: per top-level argument, emits
/// nested events into `body` and collects [`ExprFacts`]. Closure-literal
/// arguments are parsed and pushed into `closures` (when given) instead
/// of being scanned as events.
#[allow(clippy::too_many_arguments)]
fn scan_call_args(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    qual: Option<&str>,
    defs: &mut Vec<FnDef>,
    body: &mut Vec<Stmt>,
    mut closures: Option<&mut Vec<(usize, Closure)>>,
) -> Vec<ExprFacts> {
    let mut facts = Vec::new();
    let mut depth = 0i64;
    let mut arg_lo = lo;
    let mut arg_idx = 0usize;
    let mut k = lo;
    let flush = |lo: usize,
                 hi: usize,
                 idx: usize,
                 defs: &mut Vec<FnDef>,
                 body: &mut Vec<Stmt>,
                 closures: &mut Option<&mut Vec<(usize, Closure)>>,
                 facts: &mut Vec<ExprFacts>| {
        if lo >= hi {
            return;
        }
        // Closure-literal argument?
        let mut c = lo;
        if ident(toks.get(c)) == Some("move") {
            c += 1;
        }
        if is_punct(toks.get(c), '|') {
            let mut sink = Vec::new();
            if let Some((cl, _)) = parse_closure(toks, c, hi, qual, &mut sink) {
                defs.append(&mut sink);
                if let Some(cs) = closures.as_deref_mut() {
                    cs.push((idx, cl));
                    facts.push(ExprFacts::default());
                    return;
                }
                // Primitive-call operator closure: value-only.
                facts.push(ExprFacts::default());
                return;
            }
        }
        let mut m = lo;
        while m < hi {
            m = parse_expr_events(toks, m, hi, qual, defs, body, false);
        }
        facts.push(expr_facts(toks, lo, hi));
    };
    while k < hi {
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => {
                flush(arg_lo, k, arg_idx, defs, body, &mut closures, &mut facts);
                arg_idx += 1;
                arg_lo = k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    flush(arg_lo, hi, arg_idx, defs, body, &mut closures, &mut facts);
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file(&lex(src))
    }

    fn ops(body: &[Stmt]) -> Vec<String> {
        let mut out = Vec::new();
        collect_ops(body, &mut out);
        out
    }

    fn collect_ops(body: &[Stmt], out: &mut Vec<String>) {
        for s in body {
            match s {
                Stmt::Op { name, .. } => out.push(name.clone()),
                Stmt::Branch { arms, .. } => {
                    for a in arms {
                        collect_ops(&a.body, out);
                    }
                }
                Stmt::Loop { body, .. } => collect_ops(body, out),
                Stmt::Call { closures, .. } => {
                    for (_, c) in closures {
                        collect_ops(&c.body, out);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn functions_and_methods_are_parsed_with_params() {
        let src = r#"
            pub fn free(a: u64, mut b: &[u64]) -> u64 { a }
            impl Widget {
                fn method(&self, x: usize) {}
            }
            impl Display for Widget {
                fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }
            }
        "#;
        let defs = parse(src);
        let names: Vec<(Option<&str>, &str)> = defs
            .iter()
            .map(|d| (d.qual.as_deref(), d.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free"),
                (Some("Widget"), "method"),
                (Some("Widget"), "fmt"),
            ]
        );
        assert_eq!(defs[0].params, vec!["a", "b"]);
        assert_eq!(defs[1].params, vec!["self", "x"]);
    }

    #[test]
    fn collective_ops_are_extracted_in_order() {
        let src = r#"
            fn level(comm: &Comm, bufs: Vec<WireBuf>) {
                let pending = comm.ialltoallv_wire(bufs);
                let recv = pending.wait();
                comm.allreduce(recv.len(), |a, b| a + b);
            }
        "#;
        let defs = parse(src);
        assert_eq!(
            ops(&defs[0].body),
            vec!["ialltoallv_wire", "wait", "allreduce"]
        );
    }

    #[test]
    fn branches_capture_arms_and_condition_roots() {
        let src = r#"
            fn pick(comm: &Comm, bottom_up: bool, bits: WireBuf) {
                if bottom_up {
                    comm.allgatherv_wire(bits);
                } else {
                    comm.alltoallv_wire(vec![bits]);
                }
            }
        "#;
        let defs = parse(src);
        let Stmt::Branch { cond, arms, .. } = &defs[0].body[0] else {
            panic!("expected branch, got {:?}", defs[0].body);
        };
        assert_eq!(cond.roots, vec!["bottom_up"]);
        assert!(!cond.rank);
        assert_eq!(arms.len(), 2);
        assert_eq!(ops(&arms[0].body), vec!["allgatherv_wire"]);
        assert_eq!(ops(&arms[1].body), vec!["alltoallv_wire"]);
    }

    #[test]
    fn rank_conditions_are_flagged() {
        let src = r#"
            fn guarded(comm: &Comm) {
                if comm.rank() == 0 {
                    comm.barrier();
                }
            }
        "#;
        let defs = parse(src);
        let Stmt::Branch { cond, arms, .. } = &defs[0].body[0] else {
            panic!("expected branch");
        };
        assert!(cond.rank, "`.rank()` in the condition must be detected");
        assert_eq!(arms.len(), 2, "implicit empty else arm");
    }

    #[test]
    fn loops_nest_and_loop_carried_ops_are_kept() {
        let src = r#"
            fn overlapped(comm: &Comm, k: usize) {
                let mut pending = comm.ialltoallv_wire(encode(0));
                for c in 1..k {
                    let wire = pending.wait();
                    pending = comm.ialltoallv_wire(encode(c));
                    decode(wire);
                }
                let wire = pending.wait();
            }
        "#;
        let defs = parse(src);
        let body = &defs[0].body;
        assert!(
            body.iter().any(
                |s| matches!(s, Stmt::Let { names, .. } if names == &vec!["pending".to_string()])
            ),
            "pending binding"
        );
        let Some(Stmt::Loop {
            body: lb, bound, ..
        }) = body.iter().find(|s| matches!(s, Stmt::Loop { .. }))
        else {
            panic!("expected loop");
        };
        assert_eq!(bound, &vec!["c".to_string()]);
        assert_eq!(ops(lb), vec!["wait", "ialltoallv_wire"]);
        assert_eq!(
            ops(body),
            vec!["ialltoallv_wire", "wait", "ialltoallv_wire", "wait"]
        );
    }

    #[test]
    fn closure_arguments_attach_to_their_call() {
        let src = r#"
            fn drive(ctx: &RankCtx, source: u64) {
                ctx.timed(source, || {
                    rank_bfs(ctx.comm(), source);
                });
            }
        "#;
        let defs = parse(src);
        let Some(Stmt::Call { name, closures, .. }) = defs[0]
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Call { name, .. } if name == "timed"))
        else {
            panic!("expected timed call");
        };
        assert_eq!(name, "timed");
        assert_eq!(closures.len(), 1);
        assert_eq!(closures[0].0, 1, "closure is the second argument");
        assert!(closures[0]
            .1
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Call { name, .. } if name == "rank_bfs")));
    }

    #[test]
    fn match_arms_split_with_guards_feeding_the_condition() {
        let src = r#"
            fn fold(comm: &Comm, mode: Mode, bufs: Vec<WireBuf>) {
                match mode {
                    Mode::Off => {
                        comm.alltoallv(bufs);
                    }
                    Mode::Wire if fancy => comm.alltoallv_wire(bufs),
                    _ => {}
                }
            }
        "#;
        let defs = parse(src);
        let Stmt::Branch { cond, arms, .. } = &defs[0].body[0] else {
            panic!("expected branch");
        };
        assert!(cond.roots.contains(&"mode".to_string()));
        assert!(cond.roots.contains(&"fancy".to_string()), "guard root");
        assert_eq!(arms.len(), 3);
        assert_eq!(ops(&arms[0].body), vec!["alltoallv"]);
        assert_eq!(ops(&arms[1].body), vec!["alltoallv_wire"]);
        assert!(ops(&arms[2].body).is_empty());
    }

    #[test]
    fn let_bindings_record_names_and_replicated_roots() {
        let src = r#"
            fn decide(comm: &Comm, seed: [u64; 3]) {
                let [a, mut b, c] = comm.allreduce(seed, add3);
                let n = per_rank_len();
            }
        "#;
        let defs = parse(src);
        let lets: Vec<&Stmt> = defs[0]
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::Let { .. }))
            .collect();
        let Stmt::Let { names, value, .. } = lets[0] else {
            unreachable!()
        };
        assert_eq!(names, &vec!["a", "b", "c"]);
        assert!(value.repl_root, "allreduce result is replicated");
        let Stmt::Let { names, value, .. } = lets[1] else {
            unreachable!()
        };
        assert_eq!(names, &vec!["n"]);
        assert!(!value.repl_root);
    }

    #[test]
    fn wait_needs_a_pending_receiver_and_split_a_comm_receiver() {
        let src = r#"
            fn not_ops(s: &str, barrier: &Barrier) {
                let parts = s.split(',');
                barrier.wait();
            }
            fn real_ops(comm: &Comm, pending: PendingExchange) {
                let row_comm = comm.split(0, 1);
                let bufs = pending.wait();
            }
        "#;
        let defs = parse(src);
        assert!(ops(&defs[0].body).is_empty());
        assert_eq!(ops(&defs[1].body), vec!["split", "wait"]);
    }
}
