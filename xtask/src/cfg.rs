//! A small control-flow IR over the lint lexer, for the collective-
//! schedule checker (`cargo run -p xtask -- schedule`).
//!
//! The parser recovers just enough structure from the token stream to
//! reason about *which collectives a function can emit, in what order*:
//! per-function bodies as statement trees of collective ops, calls
//! (with closure-literal arguments attached, so the checker can run each
//! where its callee calls it), branches, loops, early exits, and the
//! `let`/assignment spine needed to classify branch conditions as
//! rank-invariant or not. Everything else — arithmetic, types, generics —
//! is deliberately summarized into [`ExprFacts`]: the identifier roots an
//! expression's value derives from, plus whether it mentions a rank source
//! or is rooted at a replicated-result collective.
//!
//! Early exits are explicit: `return`, and `break` / `continue` with the
//! number of loops they leave (a label names an outer one). `let PAT = e
//! else { .. };` and `e?` become branches on `e` whose other arm is the
//! `else` body or a `return`.
//!
//! One scanner, `Parser::find`, locates every top-level token the
//! grammar needs (a statement's `;`, a block's `{`, a `let`'s `=`, a match
//! arm's `=>`, the commas between arguments or parameters) by bracket
//! depth. It is not a Rust parser. Where the grammar is ambiguous at token
//! level the parser degrades conservatively (events keep their source
//! order; unknown constructs contribute no events), which is the right
//! failure mode for a checker whose findings gate CI: see
//! `docs/static-analysis.md` for the accepted imprecision.

use crate::lexer::{ident, is_punct, Lexed, Tok, TokKind};
use crate::schedule::is_collective_call;

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
    /// (`allreduce`, `allgather`): its value is identical on every rank
    /// regardless of the inputs.
    pub repl_root: bool,
}

/// One arm of a branch: pattern-bound names plus the arm body.
#[derive(Debug, Default)]
pub struct Arm {
    pub bound: Vec<String>,
    pub body: Vec<Stmt>,
}

/// An arm that binds nothing.
fn arm(body: Vec<Stmt>) -> Arm {
    let bound = Vec::new();
    Arm { bound, body }
}

/// IR statements. Expression-level events (collective ops, calls,
/// nested branches in argument position) are flattened into evaluation
/// order around the statement that contains them.
#[derive(Debug)]
pub enum Stmt {
    /// A collective primitive call site (`comm.barrier()`,
    /// `pending.wait()`, …). `name` is the method name as written.
    Op { name: String, line: u32 },
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
    /// `let .. else` and `e?` are branches too (see the module docs).
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
    /// An early exit: `return` (`0`), or `break` / `continue` leaving
    /// that many enclosing loops (`1` unless its label names an outer
    /// loop).
    Exit(usize),
}

/// Collectives whose result is replicated: every rank computes the same
/// value from them, so data derived from their results is rank-invariant
/// (the `[u64;3]`-allreduce pattern of the direction-optimizing hybrid).
pub const REPLICATED_RESULT: &[&str] = &["allreduce", "allgather"];

const KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "in",
    "as", "move", "mut", "ref", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait",
    "where", "unsafe", "async", "const", "static", "type", "self", "Self", "super", "crate", "dyn",
    "box", "true", "false",
];

/// True when `name` looks like a rank-derived identifier (`rank`,
/// `my_rank`, `rank_id`) without catching `ranks` (a replicated count).
fn rank_named(name: &str) -> bool {
    let l = name.to_ascii_lowercase();
    l == "rank" || l.ends_with("_rank") || l.starts_with("rank_")
}

/// Parses every function definition in a lexed file, including methods
/// in `impl`/`trait` blocks, nested modules, and nested `fn` items.
pub fn parse_file(lexed: &Lexed) -> Vec<FnDef> {
    let mut p = Parser {
        toks: &lexed.toks,
        lexed,
        qual: None,
        defs: Vec::new(),
        loops: Vec::new(),
    };
    p.items(0, lexed.toks.len());
    p.defs
}

/// A call's argument facts, and its closure-literal arguments by position.
type Args = (Vec<ExprFacts>, Vec<(usize, Closure)>);

/// The parse of one file.
struct Parser<'a> {
    toks: &'a [Tok],
    lexed: &'a Lexed,
    /// The `impl`/`trait` type of the items being parsed.
    qual: Option<String>,
    /// Every function parsed so far, nested ones included.
    defs: Vec<FnDef>,
    /// The labels of the loops around the current token in the body being
    /// parsed, innermost last.
    loops: Vec<Option<String>>,
}

impl<'a> Parser<'a> {
    fn ident(&self, k: usize) -> Option<&'a str> {
        ident(self.toks.get(k))
    }

    fn punct(&self, k: usize, c: char) -> bool {
        is_punct(self.toks.get(k), c)
    }

    /// True when the token at `k` is one of the punctuation marks `set`.
    fn at(&self, k: usize, set: &str) -> bool {
        matches!(self.toks.get(k).map(|t| &t.kind), Some(TokKind::Punct(c)) if set.contains(*c))
    }

    /// The first `k` in `lo..hi` at bracket depth 0 where `hit(k)` holds;
    /// `None` when there is none, or when a bracket opened before `lo`
    /// closes first. In a parameter list (`types`), `<` and `>` are
    /// brackets too, except the `>` of `->`.
    fn find(
        &self,
        lo: usize,
        hi: usize,
        types: bool,
        hit: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut depth = 0i64;
        for k in lo..hi {
            if depth == 0 && hit(k) {
                return Some(k);
            }
            match self.toks[k].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                TokKind::Punct('<') if types => depth += 1,
                TokKind::Punct('>') if types && !self.punct(k.wrapping_sub(1), '-') => depth -= 1,
                TokKind::Punct(')' | ']' | '}') => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return None;
            }
        }
        None
    }

    /// Index just past the close bracket matching the open bracket at
    /// `open` (`(`, `[` or `{`; the three kinds nest alike).
    fn matching(&self, open: usize) -> usize {
        let len = self.toks.len();
        let close = self.find(open + 1, len, false, |k| self.at(k, ")]}"));
        close.map_or(len, |k| k + 1)
    }

    /// The spans between the top-level commas of `lo..hi`. A closure
    /// literal's parameter list (`|a, b|`) separates nothing.
    fn split(&self, lo: usize, hi: usize, types: bool) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = lo;
        while start < hi {
            let from = self.closure_head(start, hi).map_or(start, |(_, body)| body);
            let end = self
                .find(from, hi, types, |k| self.at(k, ","))
                .unwrap_or(hi);
            spans.push((start, end));
            start = end + 1;
        }
        spans
    }

    /// Index just past the `;` ending the statement starting at `i`, or
    /// the index of the bracket that closes the enclosing block first.
    fn statement_end(&self, i: usize, hi: usize) -> usize {
        match self.find(i, hi, false, |k| self.at(k, ";)]}")) {
            Some(k) => k + usize::from(self.punct(k, ';')),
            None => hi,
        }
    }

    /// [`Self::statement_end`] from `lo`, paired with the end of the
    /// expression (the terminating `;` excluded).
    fn rhs_span(&self, lo: usize, hi: usize) -> (usize, usize) {
        let end = self.statement_end(lo, hi);
        (end, end - usize::from(end > lo && self.punct(end - 1, ';')))
    }

    /// The first top-level `{` from `from`, unless a `;` comes first.
    fn block_open(&self, from: usize, hi: usize) -> Option<usize> {
        let open = self.find(from, hi, false, |k| self.at(k, "{;"));
        open.filter(|&k| self.punct(k, '{'))
    }

    /// Index past the `<..>` generics span at `i`, or `i` when none opens
    /// there. Bails out at a top-level `{` or `;` so a stray comparison
    /// cannot swallow a file.
    fn generics(&self, i: usize) -> usize {
        if !self.punct(i, '<') {
            return i;
        }
        let close = |k: usize| self.punct(k, '>') && !self.punct(k - 1, '-');
        let end = self.find(i + 1, self.toks.len(), true, |k| {
            close(k) || self.at(k, "{;")
        });
        end.filter(|&k| close(k)).map_or(i, |k| k + 1)
    }

    /// Index past the `#[ .. ]` / `#![ .. ]` attribute whose `#` is at `i`
    /// (just past a `#` that opens none).
    fn attribute_end(&self, i: usize) -> usize {
        let j = i + 1 + usize::from(self.punct(i + 1, '!'));
        if self.punct(j, '[') {
            self.matching(j)
        } else {
            i + 1
        }
    }

    /// Pattern-bound names: lowercase-initial identifiers that are not path
    /// segments, keywords, or literals. `Some(k)` binds `k`; `Codec::Raw`
    /// binds nothing.
    fn bound(&self, lo: usize, hi: usize) -> Vec<String> {
        let binds = |k: usize, s: &str| {
            !KEYWORDS.contains(&s)
                && s != "_"
                && s.starts_with(|c: char| c.is_lowercase() || c == '_')
                // Path segment (`mod::name`) or struct-field shorthand key.
                && !(k > lo && self.punct(k - 1, ':'))
                && !(self.punct(k + 1, ':') && self.punct(k + 2, ':'))
        };
        (lo..hi)
            .filter_map(|k| self.ident(k).filter(|s| binds(k, s)))
            .map(str::to_string)
            .collect()
    }

    /// Classification facts for the expression span `lo..hi`.
    /// Closure-literal bodies inside the span are included in the scan (their
    /// parameters are locally bound, so they are excluded from the roots).
    fn facts(&self, lo: usize, hi: usize) -> ExprFacts {
        let mut f = ExprFacts::default();
        // Whole-expression replicated-collective call:
        // `recv.allreduce( .. )` spanning the full range.
        if hi > lo + 3 {
            f.repl_root = (lo..hi.min(lo + 6)).any(|k| {
                self.punct(k, '.')
                    && self
                        .ident(k + 1)
                        .is_some_and(|n| REPLICATED_RESULT.contains(&n))
                    && self.punct(k + 2, '(')
                    && self.matching(k + 2) >= hi
            });
        }
        // Closure parameters bound inside the span do not root data
        // outside: every name in a simple parameter list (`|a, b: &[T]|`).
        let mut shadowed: Vec<&str> = Vec::new();
        let mut k = lo;
        while k < hi {
            k = match self.closure_head(k, hi) {
                Some(((a, b), body))
                    if (a..b).all(|m| self.ident(m).is_some() || self.at(m, ",&():[]<>")) =>
                {
                    shadowed.extend(
                        (a..b)
                            .filter_map(|m| self.ident(m))
                            .filter(|s| !KEYWORDS.contains(s)),
                    );
                    body
                }
                _ => k + 1,
            };
        }
        for k in lo..hi {
            let Some(s) = self.ident(k) else {
                continue;
            };
            if KEYWORDS.contains(&s) {
                if s == "self" && self.punct(k + 1, '.') {
                    // `self.field` roots at self.
                    f.roots.push("self".to_string());
                }
                continue;
            }
            // Method/field name or macro name: not a data root.
            if k > lo && self.punct(k - 1, '.') {
                f.rank |= s == "rank" && self.punct(k + 1, '(');
                continue;
            }
            // Path segments (`Type::CONST`, `mod::func`) are replicated
            // compile-time names, not data roots.
            let path = (k > lo && self.punct(k - 1, ':'))
                || (self.punct(k + 1, ':') && self.punct(k + 2, ':'));
            if self.punct(k + 1, '!') || path || shadowed.contains(&s) {
                continue;
            }
            if rank_named(s) {
                f.rank = true;
            } else {
                f.roots.push(s.to_string());
            }
        }
        f.roots.sort();
        f.roots.dedup();
        f
    }

    /// Walks items in `lo..hi` under the impl/trait type `self.qual`.
    fn items(&mut self, lo: usize, hi: usize) {
        let mut i = lo;
        // Set while the pending attributes include `#[cfg(test)]`; a module
        // under it holds unit tests, not drivers — skip it wholesale so test
        // helpers never surface as schedule entry points.
        let mut cfg_test = false;
        while i < hi {
            let is_attr = self.punct(i, '#');
            match self.ident(i) {
                // Attribute: skip `#[ .. ]` / `#![ .. ]`.
                _ if is_attr => {
                    let end = self.attribute_end(i);
                    let attr = |k| (i..end).any(|j| self.ident(j) == Some(k));
                    cfg_test |= attr("cfg") && attr("test");
                    i = end;
                }
                Some("fn") => i = self.function(i),
                // `impl`/`trait` blocks and `mod`s (unless under
                // `#[cfg(test)]`) recurse; other braced items are skipped
                // wholesale so their contents are not misread as functions.
                Some(kw @ ("impl" | "trait" | "mod" | "struct" | "enum" | "union")) => {
                    let j = self
                        .find(i + 1, hi, false, |k| self.at(k, "{;"))
                        .unwrap_or(hi);
                    let end = if self.punct(j, '{') {
                        self.matching(j)
                    } else {
                        j + 1
                    };
                    let nested = match kw {
                        "impl" | "trait" => Some(self.subject(i + 1, j)),
                        "mod" if !cfg_test => Some(None),
                        _ => None,
                    };
                    if let Some(qual) = nested.filter(|_| end > j + 1) {
                        let outer = std::mem::replace(&mut self.qual, qual);
                        self.items(j + 1, end - 1);
                        self.qual = outer;
                    }
                    i = end;
                }
                _ => i += 1,
            }
            if !is_attr {
                cfg_test = false;
            }
        }
    }

    /// The subject type of the `impl`/`trait` header `lo..hi`: the first
    /// type name after its generics, or the name after `for` in
    /// `impl Trait for Type`.
    fn subject(&self, lo: usize, hi: usize) -> Option<String> {
        let lo = self.generics(lo);
        let after_for = (lo..hi)
            .rfind(|&k| self.ident(k) == Some("for"))
            .map(|k| k + 1);
        let mut names = (after_for.unwrap_or(lo)..hi).filter_map(|k| self.ident(k));
        let typed = |n: &&str| after_for.is_some() || n.starts_with(char::is_uppercase);
        names.find(typed).map(str::to_string)
    }

    /// Parses one `fn` starting at index `i` (the `fn` keyword). Appends the
    /// definition (and any nested `fn`s) to `self.defs`; returns the index
    /// past the body.
    fn function(&mut self, i: usize) -> usize {
        let line = self.toks[i].line;
        let Some(name) = self.ident(i + 1) else {
            return i + 1;
        };
        let j = self.generics(i + 2);
        if !self.punct(j, '(') {
            return j;
        }
        let params_end = self.matching(j);
        let params = self.params(j + 1, params_end - 1);
        // Signature tail (return type, where clause) up to the body.
        let k = self.find(params_end, self.toks.len(), false, |k| self.at(k, "{;"));
        let Some(k) = k.filter(|&k| self.punct(k, '{')) else {
            return k.map_or(self.toks.len(), |k| k + 1); // trait method declaration without body
        };
        let end = self.matching(k);
        let loops = std::mem::take(&mut self.loops);
        let body = self.block(k + 1, end - 1);
        self.loops = loops;
        self.defs.push(FnDef {
            name: name.to_string(),
            qual: self.qual.clone(),
            params,
            body,
            line,
        });
        end
    }

    /// Parameter names in the span of a parameter list: per top-level
    /// comma, the first identifier of the pattern (before `:`), with
    /// `&`/`mut`/lifetimes stripped; `self` kept as-is.
    fn params(&self, lo: usize, hi: usize) -> Vec<String> {
        self.split(lo, hi, true)
            .into_iter()
            .filter_map(|(a, b)| {
                (a..b)
                    .take_while(|&k| !self.punct(k, ':'))
                    .find_map(|k| self.ident(k).filter(|s| *s != "mut" && *s != "ref"))
                    .map(str::to_string)
            })
            .collect()
    }

    /// Parses the statements of `lo..hi` (a block body without its braces).
    fn block(&mut self, lo: usize, hi: usize) -> Vec<Stmt> {
        let mut body = Vec::new();
        self.stmts(lo, hi, &mut body);
        body
    }

    /// Parses statements/events in `lo..hi` (a block body without its
    /// braces, or an expression span), appending to `body`. Nested `fn`
    /// items are appended to `self.defs`.
    fn stmts(&mut self, lo: usize, hi: usize, body: &mut Vec<Stmt>) {
        let mut i = lo;
        while i < hi {
            i = match self.ident(i) {
                _ if self.punct(i, '#') => self.attribute_end(i),
                Some("fn") => self.function(i),
                Some("let") => self.let_stmt(i, hi, body),
                // Free-standing block.
                _ if self.punct(i, '{') => {
                    let end = self.matching(i);
                    self.stmts(i + 1, end - 1, body);
                    end
                }
                // Control flow and expression statements.
                _ => self.expr(i, hi, body, true),
            };
        }
    }

    /// The events of the expression span `lo..hi`, in evaluation order.
    fn events(&mut self, lo: usize, hi: usize, body: &mut Vec<Stmt>) {
        let mut i = lo;
        while i < hi {
            i = self.expr(i, hi, body, false);
        }
    }

    /// Parses a `let` statement at `i`: emits RHS events in evaluation
    /// order, then the binding record. Returns the index past the `;`.
    fn let_stmt(&mut self, i: usize, hi: usize, body: &mut Vec<Stmt>) -> usize {
        let line = self.toks[i].line;
        // Pattern: up to the `=` at depth 0; `let PAT;` and `let PAT: T;`
        // (no initializer) end at `;`. Before the initializer, `<=`/`>=`
        // cannot occur at depth 0 — but a generic ascription
        // (`let x: Vec<Vec<u64>> = ..`) puts `>` right before it, so only
        // `==` (and macro `!`) disqualify.
        let at = |k: usize| {
            let eq = self.punct(k, '=') && !self.punct(k + 1, '=');
            self.punct(k, ';') || (eq && !self.at(k.wrapping_sub(1), "=!"))
        };
        let Some(eq) = self
            .find(i + 1, hi, false, at)
            .filter(|&k| self.punct(k, '='))
        else {
            return self.statement_end(i, hi);
        };
        // Pattern names: strip a `: Type` ascription if present. A path
        // (`Level::Deep(d)`) is no ascription: both its `:` are skipped.
        let colon = |k: usize| {
            self.punct(k, ':') && !self.punct(k + 1, ':') && !self.punct(k.wrapping_sub(1), ':')
        };
        let pat_hi = self.find(i + 1, eq, false, colon).unwrap_or(eq);
        let names = self.bound(i + 1, pat_hi);
        let (end, rhs_hi) = self.rhs_span(eq + 1, hi);
        if names.len() == 1 {
            if let Some((closure, _)) = self.closure(eq + 1, rhs_hi) {
                let name = names[0].clone();
                body.push(Stmt::LetClosure {
                    name,
                    closure,
                    line,
                });
                return end;
            }
        }
        // `let PAT = value else { .. };` — the `else` of an `if`
        // initializer follows its `}` instead.
        let diverge = |k: usize| {
            self.ident(k) == Some("else") && self.punct(k + 1, '{') && !self.punct(k - 1, '}')
        };
        let value_hi = self.find(eq + 1, rhs_hi, false, diverge).unwrap_or(rhs_hi);
        self.events(eq + 1, value_hi, body);
        let value = self.facts(eq + 1, value_hi);
        if value_hi < rhs_hi {
            let otherwise = self.block(value_hi + 2, self.matching(value_hi + 1) - 1);
            let (cond, arms) = (value.clone(), vec![arm(otherwise), arm(Vec::new())]);
            body.push(Stmt::Branch { cond, arms, line });
        }
        body.push(Stmt::Let { names, value, line });
        end
    }

    /// Parses an `if`/`if let`/`match` construct at `i`, folding any `else`
    /// chain into one [`Stmt::Branch`]. Returns the index past the construct.
    fn branch(&mut self, i: usize, hi: usize, out: &mut Vec<Stmt>) -> usize {
        let line = self.toks[i].line;
        let mut cond = ExprFacts::default();
        let mut arms: Vec<Arm> = Vec::new();
        let mut has_default = false;
        // `cursor` points at `if` or `match` (first round) or at the `if`
        // of an `else if` continuation.
        let mut cursor = i;
        loop {
            // `if let PAT = expr` — bind the pattern, classify the expr.
            let (bound, head_lo) = self.let_head(cursor + 1, hi);
            let Some(open) = self.block_open(head_lo, hi) else {
                return cursor + 1;
            };
            let head = self.facts(head_lo, open);
            cond.roots.extend(head.roots);
            cond.rank |= head.rank;
            cond.repl_root |= head.repl_root;
            let end = self.matching(open);
            if self.ident(cursor) == Some("match") {
                self.match_arms(open + 1, end - 1, &mut arms, &mut cond);
                // A `match` is exhaustive by construction.
                has_default = true;
                cursor = end;
                break;
            }
            let body = self.block(open + 1, end - 1);
            arms.push(Arm { bound, body });
            cursor = end;
            // else / else if continuation.
            if self.ident(end) == Some("else") {
                if self.ident(end + 1) == Some("if") {
                    cursor = end + 1;
                    continue;
                }
                if self.punct(end + 1, '{') {
                    cursor = self.matching(end + 1);
                    arms.push(arm(self.block(end + 2, cursor - 1)));
                    has_default = true;
                }
            }
            break;
        }
        if !has_default {
            arms.push(arm(Vec::new()));
        }
        cond.roots.sort();
        cond.roots.dedup();
        out.push(Stmt::Branch { cond, arms, line });
        cursor
    }

    /// Splits match-arm bodies between `lo..hi` (the inside of the match
    /// braces). Guards (`PAT if g =>`) contribute their roots to `cond`.
    fn match_arms(&mut self, lo: usize, hi: usize, arms: &mut Vec<Arm>, cond: &mut ExprFacts) {
        let mut i = lo;
        while i < hi {
            // Pattern span up to `=>` at depth 0.
            let arrow = |k: usize| self.punct(k, '=') && self.punct(k + 1, '>');
            let Some(arrow) = self.find(i, hi, false, arrow) else {
                break;
            };
            // Guard: `PAT if guard =>`.
            let pat_hi = (i..arrow)
                .find(|&k| self.ident(k) == Some("if"))
                .unwrap_or(arrow);
            if pat_hi < arrow {
                let g = self.facts(pat_hi + 1, arrow);
                cond.roots.extend(g.roots);
                cond.rank |= g.rank;
            }
            let bound = self.bound(i, pat_hi);
            // Arm body: a block (with an optional trailing comma), or an
            // expression up to `,` at depth 0.
            let body_lo = arrow + 2;
            let mut body = Vec::new();
            i = if self.punct(body_lo, '{') {
                let end = self.matching(body_lo);
                self.stmts(body_lo + 1, end - 1, &mut body);
                end + usize::from(self.punct(end, ','))
            } else {
                let k = self
                    .find(body_lo, hi, false, |k| self.at(k, ","))
                    .unwrap_or(hi);
                self.events(body_lo, k, &mut body);
                k + 1
            };
            arms.push(Arm { bound, body });
        }
    }

    /// For a condition head at `lo` that reads `let PAT = expr` (`if let`,
    /// `while let`): the names `PAT` binds and the start of `expr`. Any other
    /// head binds nothing and starts at `lo`.
    fn let_head(&self, lo: usize, hi: usize) -> (Vec<String>, usize) {
        if self.ident(lo) != Some("let") {
            return (Vec::new(), lo);
        }
        let at = |k| self.punct(k, '{') || (self.punct(k, '=') && !self.punct(k + 1, '='));
        match self.find(lo + 1, hi, false, at) {
            Some(k) if self.punct(k, '=') => (self.bound(lo + 1, k), k + 1),
            _ => (Vec::new(), lo),
        }
    }

    /// Parses `while` / `while let` / `for` / `loop` at `i`, under its
    /// label when one precedes it (`'outer: for ..`).
    fn loop_stmt(&mut self, i: usize, hi: usize, body: &mut Vec<Stmt>) -> usize {
        let line = self.toks[i].line;
        let kw = self.ident(i);
        let (mut bound, mut head_lo) = self.let_head(i + 1, hi);
        if kw == Some("for") {
            // `for PAT in expr {`
            if let Some(k) = (head_lo..hi).find(|&k| self.ident(k) == Some("in")) {
                bound = self.bound(head_lo, k);
                head_lo = k + 1;
            }
        }
        let open = if kw == Some("loop") {
            Some(i + 1).filter(|&k| self.punct(k, '{'))
        } else {
            self.block_open(head_lo, hi)
        };
        let Some(open) = open else {
            return i + 1;
        };
        let head = (kw != Some("loop")).then(|| self.facts(head_lo, open));
        let end = self.matching(open);
        let label = i.checked_sub(2).filter(|_| self.punct(i - 1, ':'));
        self.loops
            .push(label.and_then(|k| self.lexed.lifetimes.get(&k).cloned()));
        let loop_body = self.block(open + 1, end - 1);
        self.loops.pop();
        body.push(Stmt::Loop {
            head,
            bound,
            body: loop_body,
            line,
        });
        end
    }

    /// For a closure literal at `i` (`|..|`, `||`, or either after
    /// `move`): its parameter span and the index its body starts at. A `|`
    /// right after an operand (`done || x`, `f(a) | b`) is an operator.
    fn closure_head(&self, i: usize, hi: usize) -> Option<((usize, usize), usize)> {
        let i = i + usize::from(self.ident(i) == Some("move"));
        if !self.punct(i, '|') || self.operand_end(i.wrapping_sub(1)) {
            return None;
        }
        // `||` lexes as two `|` puncts.
        if self.punct(i + 1, '|') {
            return Some(((i + 1, i + 1), i + 2));
        }
        let j = self.find(i + 1, hi, true, |k| self.punct(k, '|'))?;
        Some(((i + 1, j), j + 1))
    }

    /// True when the token at `k` ends an operand: a name, a literal, or a
    /// closing `)` / `]`.
    fn operand_end(&self, k: usize) -> bool {
        match self.toks.get(k).map(|t| &t.kind) {
            Some(TokKind::Ident(name)) => !KEYWORDS.contains(&name.as_str()),
            Some(TokKind::Num | TokKind::Str | TokKind::Char) => true,
            _ => self.at(k, ")]"),
        }
    }

    /// Parses a closure literal at `i` (see [`Self::closure_head`]).
    /// Returns the closure and the index past its body.
    fn closure(&mut self, i: usize, hi: usize) -> Option<(Closure, usize)> {
        let ((params_lo, params_hi), body_lo) = self.closure_head(i, hi)?;
        let line = self.toks[i].line;
        let params = self.params(params_lo, params_hi);
        // A `break` in the body cannot leave a loop around the closure.
        let loops = std::mem::take(&mut self.loops);
        let mut body = Vec::new();
        let next = if self.punct(body_lo, '{') {
            let end = self.matching(body_lo);
            self.stmts(body_lo + 1, end - 1, &mut body);
            end
        } else {
            // Expression body: up to `,` / `;` or the enclosing close.
            let k = self.find(body_lo, hi, false, |k| self.at(k, ",;)]}"));
            let k = k.unwrap_or(hi);
            self.events(body_lo, k, &mut body);
            k
        };
        self.loops = loops;
        Some((Closure { params, body, line }, next))
    }

    /// The start of the postfix chain (`a.b(c)[i]`, `f::<T>(x)`) that
    /// ends just before `end`: the operand of a `?` at `end`.
    fn operand_start(&self, end: usize) -> usize {
        let mut depth = 0usize;
        let mut k = end;
        while k > 0 {
            match self.toks[k - 1].kind {
                TokKind::Punct(')' | ']') => depth += 1,
                TokKind::Punct('(' | '[') if depth > 0 => depth -= 1,
                TokKind::Ident(_) | TokKind::Num | TokKind::Str => {}
                _ if depth > 0 || self.at(k - 1, ".:?") => {}
                _ => break,
            }
            k -= 1;
        }
        k
    }

    /// Scans expression tokens from `i`, emitting events (ops, calls,
    /// nested control flow) in evaluation order. Returns the index to
    /// resume from. When `stmt_position` is set, a leading `recv.method(..)`
    /// chain is additionally recorded as a potential mutation of `recv`.
    fn expr(&mut self, i: usize, hi: usize, body: &mut Vec<Stmt>, stmt_position: bool) -> usize {
        if i >= hi {
            return hi;
        }
        let toks = self.toks;
        let line = toks[i].line;
        match self.ident(i) {
            Some("if" | "match") => return self.branch(i, hi, body),
            Some("while" | "for" | "loop") => return self.loop_stmt(i, hi, body),
            Some("break" | "continue") => {
                // A label names the loop left; no label, the innermost.
                let label = self.lexed.lifetimes.get(&(i + 1));
                let named = |l: &Option<String>| label.is_some() && l.as_ref() == label;
                let up = self.loops.iter().rev().position(named);
                body.push(Stmt::Exit(up.map_or(1, |up| up + 1)));
                return i + 1;
            }
            Some("return") => {
                body.push(Stmt::Exit(0));
                return i + 1;
            }
            _ => {}
        }
        // `e?` returns early when `e` holds an error: a branch on `e`.
        if self.punct(i, '?') {
            let cond = self.facts(self.operand_start(i), i);
            let arms = vec![arm(vec![Stmt::Exit(0)]), arm(Vec::new())];
            body.push(Stmt::Branch { cond, arms, line });
            return i + 1;
        }

        // Statement-position assignment: `name = expr ;` / `name += expr ;`.
        if let Some(name) = self
            .ident(i)
            .filter(|n| stmt_position && !KEYWORDS.contains(n))
        {
            // Compound assignment `name op= expr`.
            let k = i + 1 + usize::from(self.at(i + 1, "+-*/%&|^"));
            if self.punct(k, '=') && !self.punct(k + 1, '=') {
                let (end, rhs_hi) = self.rhs_span(k + 1, hi);
                self.events(k + 1, rhs_hi, body);
                let value = self.facts(k + 1, rhs_hi);
                let name = name.to_string();
                body.push(Stmt::Assign { name, value, line });
                return end;
            }
            // Statement-position method call on a local: record as a
            // potential interior mutation (matters only under a
            // divergent guard), then fall through to event scanning.
            // Guard on a true statement boundary — the scan re-enters
            // mid-expression (`bufs[grid.rank_of(..)].push(..)` lands
            // here at `grid`), and a spurious record would let loop
            // fixpoints poison an untouched binding.
            if (i == 0 || self.at(i - 1, ";{}"))
                && self.punct(i + 1, '.')
                && self.ident(i + 2).is_some()
            {
                let (name, value) = (name.to_string(), ExprFacts::default());
                body.push(Stmt::Assign { name, value, line });
            }
        }

        // Closure literal in expression position.
        if let Some((closure, next)) = self.closure(i, hi) {
            // A bare closure not attached to a call: keep its body events
            // out of the schedule (it is a value, not an execution), but
            // record it as an anonymous local so nothing is lost silently.
            let (name, line) = (String::new(), closure.line);
            body.push(Stmt::LetClosure {
                name,
                closure,
                line,
            });
            return next;
        }

        // Macro invocation: skip its argument span entirely.
        if self.ident(i).is_some() && self.punct(i + 1, '!') {
            let j = i + 2;
            return if self.at(j, "([{") {
                self.matching(j)
            } else {
                j
            };
        }

        // Call detection: `name (`, `name::<T> (`, `recv.name (`, `Type::name (`.
        let Some(name) = self.ident(i).filter(|n| !KEYWORDS.contains(n)) else {
            return i + 1;
        };
        let is_method = i > 0 && self.punct(i - 1, '.');
        // Path qualifier directly before: `Qual::name(`.
        let path = i >= 3 && self.punct(i - 1, ':') && self.punct(i - 2, ':');
        let qual = path
            .then(|| self.ident(i - 3))
            .flatten()
            .map(|q| match &self.qual {
                Some(own) if q == "Self" => own.clone(),
                _ => q.to_string(),
            });
        let mut after = i + 1;
        if self.punct(after, ':') && self.punct(after + 1, ':') && self.punct(after + 2, '<') {
            after = self.generics(after + 2);
        }
        if !self.punct(after, '(') {
            return i + 1;
        }
        let close = self.matching(after);
        if is_method && is_collective_call(toks, i - 1, name) {
            // Argument events first (evaluation order), then the op.
            // Closure arguments of a primitive are reduce operators: their
            // bodies must not communicate, so they stay values.
            self.args(after + 1, close - 1, body);
            let name = name.to_string();
            body.push(Stmt::Op { name, line });
            return close;
        }
        let recv = is_method.then(|| self.ident(i.wrapping_sub(2))).flatten();
        let recv = recv.map(str::to_string);
        let (args, closures) = self.args(after + 1, close - 1, body);
        body.push(Stmt::Call {
            name: name.to_string(),
            qual,
            recv,
            closures,
            args,
            line,
        });
        close
    }

    /// Scans the argument span of a call: per top-level argument, emits
    /// nested events into `body` and collects [`ExprFacts`]. A closure-
    /// literal argument is parsed and kept with its position instead of
    /// being scanned as events.
    fn args(&mut self, lo: usize, hi: usize, body: &mut Vec<Stmt>) -> Args {
        let mut facts = Vec::new();
        let mut closures = Vec::new();
        for (idx, (a, b)) in self.split(lo, hi, false).into_iter().enumerate() {
            if let Some((closure, _)) = self.closure(a, b) {
                closures.push((idx, closure));
                facts.push(ExprFacts::default());
            } else {
                self.events(a, b, body);
                facts.push(self.facts(a, b));
            }
        }
        (facts, closures)
    }
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
    fn closure_parameter_commas_and_arrow_types_keep_positions() {
        let src = r#"
            fn drive(f: impl Fn(&[u64]) -> u64, mut step: impl FnMut(u64, u64) -> (u64, u64)) {
                run(f, |a, b| match a {
                    A => comm.barrier(),
                    B => b,
                });
            }
        "#;
        let defs = parse(src);
        assert_eq!(defs[0].params, ["f", "step"]);
        let Some(Stmt::Call { closures, .. }) = defs[0]
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Call { name, .. } if name == "run"))
        else {
            panic!("expected run call");
        };
        assert_eq!(closures.len(), 1);
        assert_eq!(closures[0].0, 1, "closure is the second argument");
        assert_eq!(closures[0].1.params, ["a", "b"]);
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

    #[test]
    fn early_exits_carry_the_loops_they_leave() {
        let src = r#"
            fn exits(comm: &Comm) -> Result<(), E> {
                'outer: for a in 0..4 {
                    for b in 0..4 {
                        break 'outer;
                        continue;
                    }
                }
                let Some(x) = pick(comm.rank()) else { return Ok(()); };
                check(x)?;
                Ok(())
            }
        "#;
        let defs = parse(src);
        let body = &defs[0].body;
        let Stmt::Loop { body: outer, .. } = &body[0] else {
            panic!("expected the outer loop, got {:?}", body[0]);
        };
        let Stmt::Loop { body: inner, .. } = &outer[0] else {
            panic!("expected the inner loop");
        };
        assert!(matches!(inner[..], [Stmt::Exit(2), Stmt::Exit(1)]));
        // `let .. else`: the initializer's call, the branch with the
        // `else` body as one arm, then the binding.
        let kinds: Vec<&str> = body[1..]
            .iter()
            .map(|s| match s {
                Stmt::Call { name, .. } => name.as_str(),
                Stmt::Branch { arms, .. } if matches!(arms[0].body[..], [Stmt::Exit(0), ..]) => {
                    "exit-branch"
                }
                Stmt::Let { .. } => "let",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "rank",
                "pick",
                "exit-branch",
                "let",
                "check",
                "exit-branch",
                "Ok"
            ]
        );
        let Stmt::Branch { cond, .. } = &body[6] else {
            unreachable!()
        };
        assert_eq!(cond.roots, ["check", "x"], "`?` decides on its operand");
    }

    #[test]
    fn generic_bounds_and_array_returns_keep_the_body() {
        let src = r#"
            fn step<F: Fn(u64) -> u64, const N: usize>(comm: &Comm, f: F) -> [u64; N] {
                comm.barrier();
            }
        "#;
        let defs = parse(src);
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].params, ["comm", "f"]);
        assert_eq!(ops(&defs[0].body), ["barrier"]);
    }
}
