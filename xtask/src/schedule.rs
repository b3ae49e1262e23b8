//! The static collective-schedule checker (`cargo run -p xtask --
//! schedule`).
//!
//! Built on the control-flow IR of [`crate::cfg`], this pass computes an
//! interprocedural *collective-schedule summary* per function: the
//! ordered symbolic sequence of collectives (kind × wire-ness, a
//! nonblocking start and its wait as two ops) each rank can emit, with
//! every branch either proven schedule-equivalent across its arms or
//! proven *decided by replicated data*. The safe-branch rule is the `[u64; 3]`-allreduce
//! pattern of the direction-optimizing hybrid: a branch condition is safe
//! iff it derives from a prior collective's replicated result
//! (`allreduce` / `allgather`) or from rank-invariant
//! configuration; anything rooted in `.rank()` or rank-named data makes
//! the branch divergent, and divergent arms with different schedules are
//! exactly the silent-deadlock shape the MPI-style matching discipline of
//! Buluç–Madduri (arXiv:1104.4518) forbids.
//!
//! One rule reports findings ([`SCHEDULE_ASYMMETRY`]), and a
//! machine-readable schedule comes out per driver entry point — every
//! `run_ranks` rank closure, named by its enclosing function. The entry
//! schedules feed the dynamic conformance test in `crates/bfs`, which
//! diffs them against the whole collective sequence every rank of a real
//! run records (`Comm::take_schedule`; see `docs/static-analysis.md`).
//!
//! Calls resolve by inlining: every function is checked with its
//! parameters replicated, and each check inlines every callee it can
//! resolve with that call site's argument classes, so a rank-divergent
//! argument is reported at the callee's branch from the caller's check.
//! The callee's early exits are checked at the same inline site.
//!
//! The pass covers the source of every workspace crate, `crates/comm`
//! included: a collective's implementation is held to the same rule as
//! its callers. Unpaired nonblocking exchanges need no rule here —
//! `PendingExchange` is `#[must_use]` and its `wait` consumes it.

use crate::cfg::{self, Closure, ExprFacts, FnDef, Stmt};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules::Finding;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::rc::Rc;

/// Rule: every rank must issue the same collective sequence — a branch
/// with schedule-different arms must be decided by replicated data.
pub const SCHEDULE_ASYMMETRY: &str = "schedule-asymmetry";

/// Marker op: `return` — exits the enclosing function (or rank closure).
/// A callee's or closure's exits resolve inside it: each inline site
/// checks them with its own argument classes, in the body's own file,
/// and then strips them, so the caller's check never sees them.
const RETURN: &str = "@return";
/// Marker op: `break` / `continue` — exits the innermost enclosing loop,
/// so it is schedule-relevant only when that loop carries collectives.
const BREAK: &str = "@break";

/// The one collective catalogue: every public collective of `Comm` and
/// `PendingExchange` by method name, with the fingerprint names (the
/// runtime's `CollectiveKind::name`) one call records, in order. `split`
/// records itself and then its `allgather` of every rank's `(color, key)`;
/// `alltoallv_wire` is a start immediately followed by its wait.
/// `xtask/tests/schedule_tests.rs` holds it to `crates/comm/src/comm.rs`.
pub const COLLECTIVES: &[(&str, &[&str])] = &[
    ("barrier", &["barrier"]),
    ("alltoallv", &["alltoallv"]),
    (
        "alltoallv_wire",
        &["ialltoallv_wire", "ialltoallv_wire_wait"],
    ),
    ("ialltoallv_wire", &["ialltoallv_wire"]),
    ("wait", &["ialltoallv_wire_wait"]),
    ("allgather", &["allgatherv"]),
    ("allgatherv_wire", &["allgatherv_wire"]),
    ("allreduce", &["allreduce"]),
    ("sendrecv_wire", &["sendrecv_wire"]),
    ("split", &["split", "allgatherv"]),
];

/// The fingerprint names a call of method `name` records; empty for a
/// method that is not in [`COLLECTIVES`].
fn fingerprints(name: &str) -> &'static [&'static str] {
    COLLECTIVES
        .iter()
        .find(|(method, _)| *method == name)
        .map_or(&[], |&(_, kinds)| kinds)
}

/// True when the `.name(` call whose `.` is at `dot` is a collective. Two
/// catalogue names are everyday method names too, so they count only on a
/// plausible receiver — the identifier before the `.`, or a call result
/// `)` (`comm.ialltoallv_wire(bufs).wait()`): `wait` on one mentioning
/// `pending` or `exchange` (barriers, condvars and child processes park
/// with `wait`, none on the board), `split` on one mentioning `comm`
/// (never `line.split(',')`).
pub fn is_collective_call(toks: &[Tok], dot: usize, name: &str) -> bool {
    let hints: &[&str] = match name {
        "wait" => &["pending", "exchange"],
        "split" => &["comm"],
        _ => return !fingerprints(name).is_empty(),
    };
    match dot.checked_sub(1).map(|k| &toks[k].kind) {
        Some(TokKind::Ident(s)) => {
            let s = s.to_ascii_lowercase();
            hints.iter().any(|hint| s.contains(hint))
        }
        Some(TokKind::Punct(')')) => true,
        _ => false,
    }
}

/// Rank-invariance classification of a value or branch condition.
///
/// A small may-lattice: `div` means possibly rank-divergent, `deps` is
/// the set of enclosing-function parameters the value derives from
/// (resolved where the function is inlined) and of closure parameters
/// (resolved where the closure is called, see [`Lambda`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Class {
    div: bool,
    deps: u64,
}

impl Class {
    const REPL: Class = Class {
        div: false,
        deps: 0,
    };
    const DIV: Class = Class { div: true, deps: 0 };

    fn dep(i: usize) -> Class {
        Class {
            div: false,
            deps: 1u64 << i.min(63),
        }
    }

    fn join(self, other: Class) -> Class {
        Class {
            div: self.div || other.div,
            deps: self.deps | other.deps,
        }
    }
}

/// A schedule-summary node. Lines are advisory (for reporting) and
/// ignored by equivalence.
#[derive(Clone, Debug)]
pub enum Node {
    /// One collective, named by its dynamic fingerprint kind (plus the
    /// `@return` / `@break` markers).
    Op(&'static str, u32),
    Seq(Vec<Node>),
    /// Branch alternatives. `cond` is the joined class of every condition
    /// along the `if`/`else if`/`match` chain.
    Alt {
        arms: Vec<Node>,
        cond: Class,
        line: u32,
    },
    /// Zero-or-more repetitions. `head` is the loop condition's class
    /// (`None` for `loop`).
    Loop {
        body: Box<Node>,
        head: Option<Class>,
        line: u32,
    },
    /// Unresolved call, expanded interprocedurally. `args` are the
    /// argument classes at the site (receiver prepended for methods).
    /// `path` marks a `Type::name(..)` call, whose first argument is a
    /// method's `self`; `qual` also resolves `self.name(..)`.
    Call {
        name: String,
        qual: Option<String>,
        has_recv: bool,
        path: bool,
        args: Vec<Class>,
        closures: Vec<(usize, Lambda)>,
        line: u32,
    },
    /// Call through a function parameter (higher-order): substituted with
    /// the closure the caller passed in that position, its parameters
    /// bound to the classes of these arguments.
    ParamCall(usize, Vec<Class>, u32),
}

/// A closure literal's summary. Its parameters are the dependency bits
/// `base..base + arity` of the enclosing function's classes (past that
/// function's own parameters and those of any enclosing closure), so a
/// call through the parameter it is passed to can bind them to that
/// call's argument classes.
#[derive(Clone, Debug)]
pub struct Lambda {
    base: usize,
    arity: usize,
    body: Node,
}

impl Node {
    fn empty() -> Node {
        Node::Seq(Vec::new())
    }

    fn is_empty(&self) -> bool {
        matches!(self, Node::Seq(v) if v.is_empty())
    }
}

/// A driver entry point: a `run_ranks` rank closure, with its expanded
/// schedule (markers stripped).
#[derive(Debug)]
pub struct Entry {
    /// The enclosing function's name.
    pub name: String,
    pub file: String,
    pub line: u32,
    pub schedule: Node,
}

struct FnInfo {
    file_idx: usize,
    def: FnDef,
}

struct FileInfo {
    path: String,
    lexed: Lexed,
}

/// The result of analyzing a workspace or source set.
pub struct Analysis {
    files: Vec<FileInfo>,
    fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<(String, String), usize>,
    /// Raw (pre-entry) summaries, index-aligned with `fns`.
    summaries: Vec<Node>,
    /// Entry closures found during summarization: (fn index, name, line,
    /// unexpanded closure summary).
    raw_entries: Vec<(usize, String, u32, Node)>,
    pub entries: Vec<Entry>,
    pub findings: Vec<Finding>,
}

/// Analyzes the workspace rooted at `root`: every `crates/*/src` tree
/// and the root `src`. Test trees stay out — they provoke asymmetric
/// schedules on purpose.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let product = |path: &str| path.starts_with("src/") || path.split('/').nth(2) == Some("src");
    Ok(analyze_sources(crate::read_sources(
        root,
        &["crates", "src"],
        product,
    )?))
}

/// Analyzes a set of `(workspace-relative path, source)` pairs. Exposed
/// for the fixture tests.
pub fn analyze_sources(sources: Vec<(String, String)>) -> Analysis {
    let mut a = Analysis {
        files: Vec::new(),
        fns: Vec::new(),
        by_name: HashMap::new(),
        by_qual: HashMap::new(),
        summaries: Vec::new(),
        raw_entries: Vec::new(),
        entries: Vec::new(),
        findings: Vec::new(),
    };
    for (path, src) in sources {
        let lexed = lex(&src);
        let defs = cfg::parse_file(&lexed);
        let file_idx = a.files.len();
        a.files.push(FileInfo { path, lexed });
        for def in defs {
            let idx = a.fns.len();
            a.by_name.entry(def.name.clone()).or_default().push(idx);
            if let Some(q) = &def.qual {
                a.by_qual.insert((q.clone(), def.name.clone()), idx);
            }
            a.fns.push(FnInfo { file_idx, def });
        }
    }
    // Phase 1: per-function summaries (local dataflow).
    for idx in 0..a.fns.len() {
        let (node, entries) = summarize_fn(&a, idx);
        a.summaries.push(node);
        for (name, line, node) in entries {
            a.raw_entries.push((idx, name, line, node));
        }
    }
    // Phase 2: checks + entry expansion.
    run_checks(&mut a);
    a
}

impl Analysis {
    pub fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    fn file_of(&self, fn_idx: usize) -> &FileInfo {
        &self.files[self.fns[fn_idx].file_idx]
    }
}

// ---------------------------------------------------------------------------
// Phase 1: summarization with local rank-invariance dataflow.
// ---------------------------------------------------------------------------

struct Summarizer<'a> {
    a: &'a Analysis,
    fn_idx: usize,
    lexed: &'a Lexed,
    /// Enclosing `impl` type, for `self.method()` resolution.
    qual: Option<String>,
    /// Local value classes (params seeded as `Dep(i)`).
    env: HashMap<String, Class>,
    /// Named local closures, inlined at their call sites.
    local_closures: HashMap<String, Lambda>,
    /// The first dependency bit free for a closure literal's parameters.
    closure_base: usize,
    /// Entries discovered in this function.
    entries: Vec<(String, u32, Node)>,
}

fn summarize_fn(a: &Analysis, fn_idx: usize) -> (Node, Vec<(String, u32, Node)>) {
    let info = &a.fns[fn_idx];
    let lexed = &a.files[info.file_idx].lexed;
    let mut s = Summarizer {
        a,
        fn_idx,
        lexed,
        qual: info.def.qual.clone(),
        env: HashMap::new(),
        local_closures: HashMap::new(),
        closure_base: info.def.params.len(),
        entries: Vec::new(),
    };
    for (i, p) in info.def.params.iter().enumerate() {
        s.env.insert(p.clone(), Class::dep(i));
    }
    let node = s.block(&info.def.body, Class::REPL);
    (node, s.entries)
}

impl Summarizer<'_> {
    /// Class of an expression from its facts under the current env.
    fn class_of(&self, f: &ExprFacts) -> Class {
        if f.repl_root {
            return Class::REPL;
        }
        let mut c = if f.rank { Class::DIV } else { Class::REPL };
        for root in &f.roots {
            c = c.join(self.class_of_name(root));
        }
        c
    }

    /// A name the dataflow does not bind (a type or const path, a
    /// module constant, a static) resolves replicated: per-rank data can
    /// only enter a function through its parameters, `.rank()` calls, or
    /// rank-named bindings.
    fn class_of_name(&self, name: &str) -> Class {
        self.env.get(name).copied().unwrap_or(Class::REPL)
    }

    /// Summarizes a statement list under branch/loop context `ctx` (the
    /// joined class of every enclosing condition — assignments inherit
    /// it, because *which* value gets assigned depends on the branch).
    fn block(&mut self, stmts: &[Stmt], ctx: Class) -> Node {
        let mut out = Vec::new();
        for stmt in stmts {
            self.stmt(stmt, ctx, &mut out);
        }
        Node::Seq(out)
    }

    fn stmt(&mut self, stmt: &Stmt, ctx: Class, out: &mut Vec<Node>) {
        match stmt {
            Stmt::Op { name, line } => {
                for &f in fingerprints(name) {
                    out.push(Node::Op(f, *line));
                }
            }
            Stmt::Call {
                name,
                qual,
                recv,
                closures,
                args,
                line,
            } => {
                // A `run_ranks` call with a closure literal is a driver
                // entry point: the closure is the per-rank schedule, and
                // the spawn machinery itself is not modeled (the
                // world-run-boundary lint guarantees this is the only
                // spawn surface).
                if name == "run_ranks" {
                    if let Some((_, c)) = closures.first() {
                        let node = self.closure(c).body;
                        let ename = self.a.fns[self.fn_idx].def.name.clone();
                        self.entries.push((ename, *line, node));
                    }
                    return;
                }
                // Call through a named local closure: inline it as a call
                // with no name, which never resolves, so expansion runs it
                // like any unknown callee's closure: its exits checked at
                // this site, its returns confined to it.
                if recv.is_none() && qual.is_none() {
                    if let Some(l) = self.local_closures.get(name) {
                        out.push(Node::Call {
                            name: String::new(),
                            qual: None,
                            has_recv: false,
                            path: false,
                            args: Vec::new(),
                            closures: vec![(0, l.clone())],
                            line: *line,
                        });
                        return;
                    }
                    // Call through a function parameter (higher-order).
                    if let Some(i) = self.a.fns[self.fn_idx]
                        .def
                        .params
                        .iter()
                        .position(|p| p == name)
                    {
                        let args = args.iter().map(|f| self.class_of(f)).collect();
                        out.push(Node::ParamCall(i, args, *line));
                        return;
                    }
                }
                let mut arg_classes = Vec::new();
                if let Some(r) = recv {
                    arg_classes.push(self.class_of_name(r));
                }
                for f in args {
                    arg_classes.push(self.class_of(f));
                }
                let closures: Vec<(usize, Lambda)> = closures
                    .iter()
                    .map(|(i, c)| (*i, self.closure(c)))
                    .collect();
                out.push(Node::Call {
                    name: name.clone(),
                    path: qual.is_some(),
                    // `self.method()` resolves within the enclosing impl.
                    qual: qual.clone().or_else(|| {
                        (recv.as_deref() == Some("self"))
                            .then(|| self.qual.clone())
                            .flatten()
                    }),
                    has_recv: recv.is_some(),
                    args: arg_classes,
                    closures,
                    line: *line,
                });
            }
            Stmt::Branch { cond, arms, line } => {
                let cond_class = if self.lexed.is_replicated(*line) {
                    Class::REPL
                } else {
                    self.class_of(cond)
                };
                let scrutinee = self.class_of(cond);
                let outer = self.env.clone();
                let mut arm_nodes = Vec::new();
                let mut merged = outer.clone();
                for arm in arms {
                    self.env = outer.clone();
                    for b in &arm.bound {
                        self.env.insert(b.clone(), scrutinee);
                    }
                    arm_nodes.push(self.block(&arm.body, ctx.join(cond_class)));
                    for (k, v) in &self.env {
                        let m = merged.entry(k.clone()).or_insert(*v);
                        *m = m.join(*v);
                    }
                }
                self.env = merged;
                if arm_nodes.iter().all(Node::is_empty) {
                    return;
                }
                out.push(Node::Alt {
                    arms: arm_nodes,
                    cond: cond_class,
                    line: *line,
                });
            }
            Stmt::Loop {
                head,
                bound,
                body,
                line,
            } => {
                let head_class = if self.lexed.is_replicated(*line) {
                    Some(Class::REPL)
                } else {
                    head.as_ref().map(|h| self.class_of(h))
                };
                let hc = head_class.unwrap_or(Class::REPL);
                // Two passes for a loop-carried fixpoint on the env.
                for pass in 0..2 {
                    for b in bound {
                        self.env.insert(b.clone(), hc);
                    }
                    let node = self.block(body, ctx.join(hc));
                    if pass == 1 && !node.is_empty() {
                        out.push(Node::Loop {
                            body: Box::new(node),
                            head: head_class,
                            line: *line,
                        });
                    }
                }
            }
            Stmt::Let { names, value, line } => {
                let c = if self.lexed.is_replicated(*line) {
                    Class::REPL
                } else {
                    self.class_of(value).join(ctx)
                };
                for n in names {
                    self.env.insert(n.clone(), c);
                }
            }
            Stmt::LetClosure { name, closure, .. } => {
                let lambda = self.closure(closure);
                if !name.is_empty() {
                    self.local_closures.insert(name.clone(), lambda);
                }
            }
            Stmt::Assign { name, value, line } => {
                let c = if self.lexed.is_replicated(*line) {
                    Class::REPL
                } else {
                    let old = self.class_of_name(name);
                    old.join(self.class_of(value)).join(ctx)
                };
                self.env.insert(name.clone(), c);
            }
            Stmt::Break { line } => {
                out.push(Node::Op(BREAK, *line));
            }
            Stmt::Return { line } => {
                out.push(Node::Op(RETURN, *line));
            }
        }
    }

    /// Summarizes a closure body in the enclosing scope, its parameters
    /// bound to fresh dependency bits. A call through a higher-order
    /// parameter binds them to its argument classes; anywhere else (a
    /// named local closure, an unresolved callee such as `pool.install`
    /// or an iterator adapter, a rank closure) they stay unbound and
    /// resolve replicated, and the conformance test backstops that.
    fn closure(&mut self, c: &Closure) -> Lambda {
        let saved: Vec<(String, Option<Class>)> = c
            .params
            .iter()
            .map(|p| (p.clone(), self.env.get(p).copied()))
            .collect();
        let base = self.closure_base;
        self.closure_base += c.params.len();
        for (j, p) in c.params.iter().enumerate() {
            self.env.insert(p.clone(), Class::dep(base + j));
        }
        let body = self.block(&c.body, Class::REPL);
        self.closure_base = base;
        for (p, old) in saved {
            match old {
                Some(v) => {
                    self.env.insert(p, v);
                }
                None => {
                    self.env.remove(&p);
                }
            }
        }
        Lambda {
            base,
            arity: c.params.len(),
            body,
        }
    }
}

// ---------------------------------------------------------------------------
// Phase 2: interprocedural expansion + checks.
// ---------------------------------------------------------------------------

/// Expansion context: the function whose summary is being expanded, with
/// its parameter classes already resolved to replicated/divergent and the
/// closures substituted for higher-order parameters. The default context
/// — every parameter replicated, none substituted — roots a check.
#[derive(Clone, Default)]
struct Ctx {
    /// Resolved class per dependency bit (true = divergent): the
    /// function's parameters, then those of the closures being expanded.
    param_div: Vec<bool>,
    /// Closures per higher-order parameter index.
    subst: HashMap<usize, Subst>,
}

/// A closure passed for a higher-order parameter, expanded where the
/// callee calls that parameter: in the caller's context, with its
/// parameters resolved from the call's arguments.
#[derive(Clone)]
struct Subst {
    lambda: Lambda,
    ctx: Rc<Ctx>,
    file: String,
}

struct Expander<'a> {
    a: &'a Analysis,
    stack: Vec<usize>,
    /// `(file, line, message)` of each [`SCHEDULE_ASYMMETRY`] finding,
    /// kept sorted and unique by the set.
    findings: BTreeSet<(String, u32, String)>,
}

fn run_checks(a: &mut Analysis) {
    let mut ex = Expander {
        a,
        stack: Vec::new(),
        findings: BTreeSet::new(),
    };
    // Per-function root checks: every function gets its summary expanded
    // with its parameters replicated and checked for divergent-branch
    // asymmetry. A divergent argument is caught where a caller's own
    // check inlines the function with that call site's argument classes.
    for idx in 0..ex.a.fns.len() {
        let file = ex.a.file_of(idx).path.clone();
        let expanded = ex.expand(&ex.a.summaries[idx].clone(), &Ctx::default(), &file);
        ex.check_exits(&expanded, &file, false, false);
    }
    // Entries: expand each rank closure; its schedule is the whole run.
    let mut entries = Vec::new();
    for (fn_idx, name, line, node) in ex.a.raw_entries.clone() {
        let file = ex.a.file_of(fn_idx).path.clone();
        let expanded = ex.expand(&node, &Ctx::default(), &file);
        ex.check_exits(&expanded, &file, false, false);
        entries.push(Entry {
            name,
            file,
            line,
            schedule: strip_markers(expanded),
        });
    }
    let findings = std::mem::take(&mut ex.findings);
    a.entries = entries;
    // Drop the findings an allow-directive suppresses.
    a.findings = findings
        .into_iter()
        .filter(|(file, line, _)| {
            !a.files
                .iter()
                .find(|f| f.path == *file)
                .is_some_and(|f| f.lexed.allowed(*line, SCHEDULE_ASYMMETRY))
        })
        .map(|(file, line, message)| Finding {
            file,
            line,
            rule: SCHEDULE_ASYMMETRY,
            message,
        })
        .collect();
}

impl Expander<'_> {
    fn report(&mut self, file: &str, line: u32, msg: &str) {
        self.findings
            .insert((file.to_string(), line, msg.to_string()));
    }

    fn expand(&mut self, node: &Node, ctx: &Ctx, file: &str) -> Node {
        match node {
            Node::Op(n, l) => Node::Op(n, *l),
            Node::Seq(v) => {
                let out: Vec<Node> = v
                    .iter()
                    .map(|n| self.expand(n, ctx, file))
                    .filter(|n| !n.is_empty())
                    .collect();
                flatten(out)
            }
            Node::ParamCall(i, args, _) => {
                let Some(s) = ctx.subst.get(i) else {
                    return Node::empty();
                };
                let mut closure_ctx = (*s.ctx).clone();
                for (j, c) in args.iter().enumerate().take(s.lambda.arity) {
                    let bit = (s.lambda.base + j).min(63);
                    if closure_ctx.param_div.len() <= bit {
                        closure_ctx.param_div.resize(bit + 1, false);
                    }
                    closure_ctx.param_div[bit] |= resolve_class(*c, &ctx.param_div);
                }
                let body = self.expand(&s.lambda.body, &closure_ctx, &s.file);
                self.check_exits(&body, &s.file, false, false);
                strip_markers(body)
            }
            Node::Call {
                name,
                qual,
                has_recv,
                path,
                args,
                closures,
                ..
            } => {
                let target = resolve_in(self.a, name, qual.as_deref(), args.len(), file);
                let Some(target) = target.filter(|t| !self.stack.contains(t)) else {
                    // Unknown callee: assume it invokes each closure
                    // argument once, in order (`pool.install`, iterator
                    // adapters; raw spawns are lint-banned), with its
                    // parameters unbound. A recursive call is cut, its
                    // closures still checked. A `return` exits only its
                    // closure: the closure's early exits are checked
                    // here, against the ops that follow inside it, before
                    // the returns are stripped.
                    let bodies: Vec<Node> = closures
                        .iter()
                        .map(|(_, l)| {
                            let body = self.expand(&l.body, ctx, file);
                            self.check_exits(&body, file, false, false);
                            strip_returns(body)
                        })
                        .filter(|n| !n.is_empty())
                        .collect();
                    return if target.is_some() {
                        Node::empty()
                    } else {
                        flatten(bodies)
                    };
                };
                // Parameter classes at this site.
                let callee = &self.a.fns[target].def;
                let mut param_div = vec![false; callee.params.len()];
                for (p, c) in bind_args(callee, *has_recv, *path, args) {
                    param_div[p] = resolve_class(c, &ctx.param_div);
                }
                let self_slot = usize::from(has_self(callee));
                let mut subst = HashMap::new();
                let caller_ctx = Rc::new(ctx.clone());
                for (arg_pos, lambda) in closures {
                    let p = arg_pos + self_slot;
                    if calls_param(&self.a.summaries[target], p) {
                        let (ctx, file) = (caller_ctx.clone(), file.to_string());
                        let lambda = lambda.clone();
                        subst.insert(p, Subst { lambda, ctx, file });
                    } else {
                        // Never called through the parameter: checked here.
                        self.expand(&lambda.body, ctx, file);
                    }
                }
                let callee_ctx = Ctx { param_div, subst };
                self.stack.push(target);
                let callee_file = self.a.file_of(target).path.clone();
                let out = self.expand(&self.a.summaries[target].clone(), &callee_ctx, &callee_file);
                self.stack.pop();
                // The callee's early exits, checked with this site's
                // parameter classes before the inline boundary hides them.
                self.check_exits(&out, &callee_file, false, false);
                strip_markers(out)
            }
            Node::Alt { arms, cond, line } => {
                let div = resolve_class(*cond, &ctx.param_div);
                let arms: Vec<Node> = arms.iter().map(|n| self.expand(n, ctx, file)).collect();
                // Equivalent arms collapse; the branch is schedule-neutral.
                if arms.iter().all(|n| equivalent(n, &arms[0])) {
                    return arms.into_iter().next().unwrap_or_else(Node::empty);
                }
                if div {
                    // Only arms that differ in *collectives* are reported
                    // here; divergent early exits are handled by
                    // check_exits with following-op context.
                    let shapes: Vec<Vec<&'static str>> = arms.iter().map(|n| op_names(n)).collect();
                    if shapes.iter().any(|s| *s != shapes[0]) {
                        self.report(
                            file,
                            *line,
                            "branch condition derives from rank-divergent data but its arms \
                             emit different collective schedules; decide the branch with a \
                             replicated value (a prior allreduce/allgather result or \
                             rank-invariant config), or annotate the proof with \
                             `// schedule: replicated`",
                        );
                    }
                }
                Node::Alt {
                    arms,
                    cond: if div { Class::DIV } else { Class::REPL },
                    line: *line,
                }
            }
            Node::Loop { body, head, line } => {
                let body = self.expand(body, ctx, file);
                if body.is_empty() {
                    return Node::empty();
                }
                if let Some(h) = head {
                    if resolve_class(*h, &ctx.param_div) && !op_names(&body).is_empty() {
                        self.report(
                            file,
                            *line,
                            "loop condition derives from rank-divergent data but the body \
                             emits collectives: ranks would run different iteration counts \
                             and the collective schedules diverge",
                        );
                    }
                }
                Node::Loop {
                    body: Box::new(body),
                    head: head.map(|h| {
                        if resolve_class(h, &ctx.param_div) {
                            Class::DIV
                        } else {
                            Class::REPL
                        }
                    }),
                    line: *line,
                }
            }
        }
    }

    /// Divergent early exits: a `return` under a divergent condition is
    /// asymmetric iff collectives follow anywhere later in the function
    /// (including remaining loop iterations); a `break`/`continue` iff
    /// the innermost enclosing loop carries collectives. Either way some
    /// ranks would leave while others rendezvous.
    fn check_exits(&mut self, node: &Node, file: &str, ops_after: bool, loop_ops: bool) {
        match node {
            Node::Op(..) | Node::ParamCall(..) | Node::Call { .. } => {}
            Node::Seq(v) => {
                // Right-to-left: does any real op follow position i?
                let mut follow = vec![ops_after; v.len()];
                let mut acc = ops_after;
                for i in (0..v.len()).rev() {
                    follow[i] = acc;
                    acc = acc || !op_names(&v[i]).is_empty();
                }
                for (i, n) in v.iter().enumerate() {
                    self.check_exits(n, file, follow[i], loop_ops);
                }
            }
            Node::Alt { arms, cond, line } => {
                for a in arms {
                    self.check_exits(a, file, ops_after, loop_ops);
                }
                if *cond == Class::DIV {
                    let exits: Vec<bool> = arms
                        .iter()
                        .map(|a| {
                            (contains_return(a) && (ops_after || loop_ops))
                                || (contains_unscoped_break(a) && loop_ops)
                        })
                        .collect();
                    if exits.iter().any(|e| *e != exits[0]) {
                        self.report(
                            file,
                            *line,
                            "rank-divergent branch exits early on some arms while \
                             collectives follow: exiting ranks abandon the rendezvous",
                        );
                    }
                }
            }
            Node::Loop { body, .. } => {
                let body_ops = !op_names(body).is_empty();
                self.check_exits(body, file, ops_after || body_ops, body_ops);
            }
        }
    }
}

/// Resolves a call to a function index: qualified path, then unique
/// name, then unique parameter-count match, then unique match within the
/// caller's own file. Ambiguity resolves to `None` — hiding a callee's
/// collectives is safer than inlining the wrong function, and the
/// dynamic conformance test backstops the blind spot.
fn resolve_in(
    a: &Analysis,
    name: &str,
    qual: Option<&str>,
    argc: usize,
    caller_file: &str,
) -> Option<usize> {
    if let Some(q) = qual {
        if let Some(&idx) = a.by_qual.get(&(q.to_string(), name.to_string())) {
            return Some(idx);
        }
    }
    let candidates = a.by_name.get(name)?;
    if candidates.len() == 1 {
        return Some(candidates[0]);
    }
    let by_argc: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| a.fns[i].def.params.len() == argc)
        .collect();
    if by_argc.len() == 1 {
        return Some(by_argc[0]);
    }
    let pool = if by_argc.is_empty() {
        candidates.as_slice()
    } else {
        by_argc.as_slice()
    };
    let local: Vec<usize> = pool
        .iter()
        .copied()
        .filter(|&i| a.files[a.fns[i].file_idx].path == caller_file)
        .collect();
    if local.len() == 1 {
        return Some(local[0]);
    }
    None
}

/// Whether a summary calls its higher-order parameter `p`, directly or
/// from a closure it passes on.
fn calls_param(node: &Node, p: usize) -> bool {
    match node {
        Node::ParamCall(i, ..) => *i == p,
        Node::Op(..) => false,
        Node::Seq(v) | Node::Alt { arms: v, .. } => v.iter().any(|n| calls_param(n, p)),
        Node::Loop { body, .. } => calls_param(body, p),
        Node::Call { closures, .. } => closures.iter().any(|(_, l)| calls_param(&l.body, p)),
    }
}

fn has_self(f: &FnDef) -> bool {
    f.params.first().is_some_and(|p| p == "self")
}

/// Pairs the argument classes of a call site with the callee parameters
/// they bind, as `(parameter index, class)`. A method's `self` takes the
/// receiver slot, or the first argument of a path call
/// (`Type::method(obj, ..)`); on a chained call with no named receiver
/// (`f().method(..)`) the arguments shift past `self`, and a receiver on
/// a callee without `self` is dropped.
fn bind_args<'a>(
    callee: &'a FnDef,
    has_recv: bool,
    path: bool,
    args: &'a [Class],
) -> impl Iterator<Item = (usize, Class)> + 'a {
    let (skip, offset) = match (has_self(callee), has_recv) {
        (true, false) if !path => (0, 1),
        (false, true) => (1, 0),
        _ => (0, 0),
    };
    args.iter()
        .skip(skip)
        .enumerate()
        .map(move |(i, c)| (i + offset, *c))
        .filter(|&(p, _)| p < callee.params.len())
}

/// Resolves a class to divergent (true) or replicated, given which
/// dependency bits are divergent.
fn resolve_class(c: Class, caller_div: &[bool]) -> bool {
    if c.div {
        return true;
    }
    for i in 0..64 {
        if c.deps & (1u64 << i) != 0 && caller_div.get(i).copied().unwrap_or(false) {
            return true;
        }
    }
    false
}

fn flatten(v: Vec<Node>) -> Node {
    let mut out = Vec::new();
    for n in v {
        match n {
            Node::Seq(inner) => out.extend(match flatten(inner) {
                Node::Seq(x) => x,
                other => vec![other],
            }),
            other => out.push(other),
        }
    }
    if out.len() == 1 {
        out.into_iter().next().unwrap()
    } else {
        Node::Seq(out)
    }
}

/// The real collective ops of a node, in order (markers excluded,
/// branches flattened — used for quick "does this differ" shape checks).
fn op_names(node: &Node) -> Vec<&'static str> {
    let mut out = Vec::new();
    fn walk(n: &Node, out: &mut Vec<&'static str>) {
        match n {
            Node::Op(name, _) if !name.starts_with('@') => out.push(*name),
            Node::Op(..) => {}
            Node::Seq(v) => v.iter().for_each(|n| walk(n, out)),
            Node::Alt { arms, .. } => arms.iter().for_each(|n| walk(n, out)),
            Node::Loop { body, .. } => walk(body, out),
            Node::Call { closures, .. } => closures.iter().for_each(|(_, l)| walk(&l.body, out)),
            Node::ParamCall(..) => {}
        }
    }
    walk(node, &mut out);
    out
}

fn contains_return(node: &Node) -> bool {
    match node {
        Node::Op(RETURN, _) => true,
        Node::Op(..) | Node::ParamCall(..) | Node::Call { .. } => false,
        Node::Seq(v) => v.iter().any(contains_return),
        Node::Alt { arms, .. } => arms.iter().any(contains_return),
        Node::Loop { body, .. } => contains_return(body),
    }
}

/// A `break`/`continue` not consumed by a `Loop` inside this subtree —
/// i.e. one that exits a loop *enclosing* the subtree.
fn contains_unscoped_break(node: &Node) -> bool {
    match node {
        Node::Op(BREAK, _) => true,
        Node::Op(..) | Node::ParamCall(..) | Node::Call { .. } => false,
        Node::Seq(v) => v.iter().any(contains_unscoped_break),
        Node::Alt { arms, .. } => arms.iter().any(contains_unscoped_break),
        Node::Loop { .. } => false,
    }
}

/// Removes `@return` markers — applied to a closure body, whose returns
/// resolve inside it and never escape the closure.
fn strip_returns(node: Node) -> Node {
    match node {
        Node::Op(RETURN, _) => Node::empty(),
        Node::Op(..) | Node::Call { .. } | Node::ParamCall(..) => node,
        Node::Seq(v) => Node::Seq(v.into_iter().map(strip_returns).collect()),
        Node::Alt { arms, cond, line } => Node::Alt {
            arms: arms.into_iter().map(strip_returns).collect(),
            cond,
            line,
        },
        Node::Loop { body, head, line } => Node::Loop {
            body: Box::new(strip_returns(*body)),
            head,
            line,
        },
    }
}

/// Structural schedule equivalence, ignoring source lines. Markers are
/// significant: an arm that exits early is *not* equivalent to one that
/// falls through (check_exits decides whether that matters).
fn equivalent(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Op(x, _), Node::Op(y, _)) => x == y,
        (Node::Seq(x), Node::Seq(y)) | (Node::Alt { arms: x, .. }, Node::Alt { arms: y, .. }) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| equivalent(a, b))
        }
        (Node::Loop { body: x, .. }, Node::Loop { body: y, .. }) => equivalent(x, y),
        (Node::Call { name: x, .. }, Node::Call { name: y, .. }) => x == y,
        (Node::ParamCall(x, ..), Node::ParamCall(y, ..)) => x == y,
        _ => false,
    }
}

/// Removes `@return`/`@break` markers and normalizes the tree: sequences
/// flatten, empties drop, single-child sequences unwrap.
pub fn strip_markers(node: Node) -> Node {
    fn walk(n: Node) -> Option<Node> {
        match n {
            Node::Op(name, _) if name.starts_with('@') => None,
            Node::Op(..) => Some(n),
            Node::Seq(v) => {
                let out: Vec<Node> = v.into_iter().filter_map(walk).collect();
                match flatten(out) {
                    n if n.is_empty() => None,
                    n => Some(n),
                }
            }
            Node::Alt { arms, cond, line } => {
                let arms: Vec<Node> = arms
                    .into_iter()
                    .map(|a| walk(a).unwrap_or_else(Node::empty))
                    .collect();
                if arms.iter().all(Node::is_empty) {
                    return None;
                }
                Some(Node::Alt { arms, cond, line })
            }
            Node::Loop { body, head, line } => {
                let body = walk(*body)?;
                Some(Node::Loop {
                    body: Box::new(body),
                    head,
                    line,
                })
            }
            Node::Call { .. } | Node::ParamCall(..) => None,
        }
    }
    walk(node).unwrap_or_else(Node::empty)
}

// ---------------------------------------------------------------------------
// Rendering + conformance matching.
// ---------------------------------------------------------------------------

/// Renders a schedule as indented text.
pub fn render(node: &Node, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match node {
        Node::Op(name, _) => {
            out.push_str(&pad);
            out.push_str(name);
            out.push('\n');
        }
        Node::Seq(v) => {
            if v.is_empty() {
                out.push_str(&pad);
                out.push_str("(empty)\n");
            }
            for n in v {
                render(n, indent, out);
            }
        }
        Node::Alt { arms, .. } => {
            out.push_str(&pad);
            out.push_str("alt:\n");
            for (i, a) in arms.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&format!("- arm {i}:\n"));
                render(a, indent + 1, out);
            }
        }
        Node::Loop { body, .. } => {
            out.push_str(&pad);
            out.push_str("loop:\n");
            render(body, indent + 1, out);
        }
        Node::Call { name, .. } => {
            out.push_str(&pad);
            out.push_str(&format!("call {name} (unresolved)\n"));
        }
        Node::ParamCall(i, ..) => {
            out.push_str(&pad);
            out.push_str(&format!("call param#{i}\n"));
        }
    }
}

/// Renders a schedule as JSON (hand-rolled — xtask stays
/// zero-dependency). Ops are strings; `{"alt": [..]}` and
/// `{"loop": [..]}` wrap alternatives and repetition.
pub fn to_json(node: &Node, out: &mut String) {
    let list = |v: &[Node], out: &mut String| {
        out.push('[');
        for (i, n) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            to_json(n, out);
        }
        out.push(']');
    };
    match node {
        Node::Op(name, _) => {
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        Node::Seq(v) => list(v, out),
        Node::Alt { arms, .. } => {
            out.push_str("{\"alt\":");
            list(arms, out);
            out.push('}');
        }
        Node::Loop { body, .. } => {
            out.push_str("{\"loop\":");
            to_json(body, out);
            out.push('}');
        }
        Node::Call { .. } | Node::ParamCall(..) => out.push_str("\"<unresolved>\""),
    }
}

/// Regex-style matching of an observed fingerprint sequence against a
/// schedule: `Alt` = alternation, `Loop` = zero-or-more whole-body
/// repetitions. Returns true iff the whole sequence is consumed.
pub fn matches(node: &Node, observed: &[&str]) -> bool {
    let mut start = BTreeSet::new();
    start.insert(0usize);
    advance(node, &start, observed).contains(&observed.len())
}

fn advance(node: &Node, at: &BTreeSet<usize>, seq: &[&str]) -> BTreeSet<usize> {
    match node {
        Node::Op(name, _) => {
            if name.starts_with('@') {
                return at.clone();
            }
            at.iter()
                .filter(|&&p| p < seq.len() && seq[p] == *name)
                .map(|&p| p + 1)
                .collect()
        }
        Node::Seq(v) => {
            let mut cur = at.clone();
            for n in v {
                if cur.is_empty() {
                    break;
                }
                cur = advance(n, &cur, seq);
            }
            cur
        }
        Node::Alt { arms, .. } => {
            let mut out = BTreeSet::new();
            for a in arms {
                out.extend(advance(a, at, seq));
            }
            out
        }
        Node::Loop { body, .. } => {
            let mut out = at.clone();
            let mut frontier = at.clone();
            loop {
                let next: BTreeSet<usize> = advance(body, &frontier, seq)
                    .difference(&out)
                    .copied()
                    .collect();
                if next.is_empty() {
                    break;
                }
                out.extend(next.iter().copied());
                frontier = next;
            }
            out
        }
        Node::Call { .. } | Node::ParamCall(..) => at.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> Analysis {
        analyze_sources(vec![("crates/bfs/src/t.rs".to_string(), src.to_string())])
    }

    fn rules_at(a: &Analysis) -> Vec<(&str, u32)> {
        a.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn rank_divergent_branch_with_different_arms_is_flagged() {
        let a = analyze(
            r#"
            fn bad(comm: &Comm, bufs: Vec<Vec<u64>>) {
                if comm.rank() == 0 {
                    comm.alltoallv(bufs);
                } else {
                    comm.barrier();
                }
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 3)]);
    }

    #[test]
    fn replicated_decision_from_an_allreduce_is_safe() {
        let a = analyze(
            r#"
            fn good(comm: &Comm, mine: u64, bufs: Vec<WireBuf>) {
                let total = comm.allreduce(mine, |a, b| a + b);
                if total > 4 {
                    comm.allgatherv_wire(bufs.pop().unwrap());
                } else {
                    comm.alltoallv_wire(bufs);
                }
            }
            "#,
        );
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    #[test]
    fn closure_parameters_take_the_classes_of_the_higher_order_call() {
        // `level_loop` calls its `step` with a value derived from `mode`
        // (or from the rank); the closure's arms issue different
        // collectives, so the step's match is as divergent as that value.
        let src = |mode: &str, arg: &str| {
            format!(
                r#"
            fn level_loop(comm: &Comm, mode: u64, mut step: impl FnMut(u64)) {{
                let total = comm.allreduce(1u64, |a, b| a + b);
                let d = decide(mode, total);
                step({arg});
            }}
            fn drive(comm: &Comm) {{
                level_loop(comm, {mode}, |d| match d {{
                    0 => comm.barrier(),
                    _ => {{}}
                }});
            }}
            "#
            )
        };
        let a = analyze(&src("7", "d"));
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        let a = analyze(&src("comm.rank() as u64", "d"));
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 8)]);
        let a = analyze(&src("7", "comm.rank() as u64"));
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 8)]);
    }

    #[test]
    fn cross_function_divergence_resolves_through_call_sites() {
        let a = analyze(
            r#"
            fn helper(comm: &Comm, flag: bool) {
                if flag {
                    comm.barrier();
                }
            }
            fn caller(comm: &Comm) {
                helper(comm, comm.rank() == 0);
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 3)]);
    }

    /// An early exit a divergent argument decides is reported once, in
    /// the file of the body that holds it: a callee's `return` or `break`
    /// from the call site that inlines it, a closure's where it is called.
    #[test]
    fn divergent_early_exits_are_reported_in_their_own_file() {
        let ret = "fn step(flag: bool, comm: &Comm) {\n    if flag {\n        return;\n    }\n    comm.barrier();\n}\n";
        let brk = "fn step(flag: bool, comm: &Comm) {\n    for _ in 0..3 {\n        if flag {\n            break;\n        }\n        comm.barrier();\n    }\n}\n";
        let drive = "fn drive(comm: &Comm) {\n    step(comm.rank() == 0, comm);\n}\n";
        let each = "fn each(comm: &Comm, f: impl Fn(bool)) {\n    f(comm.rank() == 0);\n}\n";
        let pass = "fn drive(comm: &Comm) {\n    each(comm, |flag| {\n        for _ in 0..3 {\n            if flag {\n                break;\n            }\n            comm.barrier();\n        }\n    });\n}\n";
        for (callee, caller, at) in [
            (ret, drive, ("callee.rs", 2)),
            (brk, drive, ("callee.rs", 3)),
            (each, pass, ("caller.rs", 4)),
        ] {
            let files = [("callee.rs", callee), ("caller.rs", caller)];
            let a = analyze_sources(files.map(|(p, s)| (p.to_string(), s.to_string())).to_vec());
            let found: Vec<(&str, u32)> = a
                .findings
                .iter()
                .map(|f| (f.file.as_str(), f.line))
                .collect();
            assert_eq!(found, vec![at], "{callee}{caller}");
        }
    }

    /// A receiver call, a path call passing the receiver as its first
    /// argument, and an associated function: each binds the rank test to
    /// `flag`, so each is reported at the callee's branch.
    #[test]
    fn method_arguments_bind_in_every_call_form() {
        for (call, line) in [
            ("l.step(comm.rank() == 0, comm)", 4),
            ("Lvl::step(l, comm.rank() == 0, comm)", 4),
            ("Lvl::make(comm.rank() == 0, comm)", 9),
        ] {
            let a = analyze(&format!(
                r#"
            impl Lvl {{
                fn step(&self, flag: bool, comm: &Comm) {{
                    if flag {{
                        comm.barrier();
                    }}
                }}
                fn make(flag: bool, comm: &Comm) {{
                    if flag {{
                        comm.barrier();
                    }}
                }}
            }}
            fn drive(comm: &Comm, l: &Lvl) {{
                {call};
            }}
            "#
            ));
            assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, line)], "{call}");
        }
    }

    #[test]
    fn guarded_collectives_fire_with_else_chains() {
        let a = analyze(
            r#"
            fn f(comm: &Comm) {
                if comm.rank() == 0 {
                    comm.barrier();
                } else if comm.rank() == 1 {
                    comm.allreduce(&x, ops::sum);
                } else {
                    comm.allgather(y);
                }
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 3)]);
    }

    #[test]
    fn match_on_rank_guards_its_arms() {
        let a = analyze(
            r#"
            fn f(comm: &Comm) {
                match comm.rank() {
                    0 => { comm.allgather(v); }
                    _ => {}
                }
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 3)]);
    }

    #[test]
    fn unguarded_and_non_rank_branches_are_clean() {
        let a = analyze(
            r#"
            fn f(comm: &Comm) {
                comm.barrier();
                if depth == 0 {
                    comm.allreduce(&x, ops::sum);
                }
                if comm.rank() == 0 {
                    println!("root");
                }
                for part in line.split(',') {
                    use_part(part);
                }
            }
            "#,
        );
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
    }

    /// Findings of `body` placed under a rank guard.
    fn guarded(body: &str) -> Vec<(&'static str, u32)> {
        let a = analyze(&format!(
            "fn f(comm: &Comm) {{ if comm.rank() == 0 {{ {body} }} }}"
        ));
        a.findings.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn ambiguous_names_need_a_comm_receiver() {
        assert!(guarded("let p = line.split(',');").is_empty());
        // `gather` is no collective, whatever the receiver.
        assert!(guarded("let g = comm.gather(n);").is_empty());
        let flagged = vec![(SCHEDULE_ASYMMETRY, 1)];
        assert_eq!(guarded("let sub = comm.split(c, k);"), flagged);
        assert_eq!(guarded("let sub = ctx.comm().split(c, k);"), flagged);
    }

    #[test]
    fn split_exchange_pair_is_guarded_like_any_collective() {
        let flagged = vec![(SCHEDULE_ASYMMETRY, 1)];
        assert_eq!(guarded("pending.wait();"), flagged);
        assert_eq!(guarded("let exchange = start(); exchange.wait();"), flagged);
        assert_eq!(
            guarded("let bufs = comm.ialltoallv_wire(out).wait();"),
            flagged
        );
        // Non-exchange waits never fire: barriers, condvars, children.
        assert!(guarded("barrier.wait();").is_empty());
        assert!(guarded("self.cvar.wait(g);").is_empty());
        assert!(guarded("child.wait();").is_empty());
    }

    #[test]
    fn divergent_break_out_of_a_collective_loop_is_flagged() {
        let a = analyze(
            r#"
            fn bad(comm: &Comm, n: usize) {
                for i in 0..n {
                    if comm.rank() == 0 {
                        break;
                    }
                    comm.barrier();
                }
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 4)]);
    }

    #[test]
    fn entries_are_extracted_and_match_observed_sequences() {
        let a = analyze(
            r#"
            pub fn drive(cfg: &RunConfig) {
                let run = run_ranks(cfg, |ctx| {
                    let comm = ctx.comm();
                    loop {
                        comm.alltoallv(vec![]);
                        let done = comm.allreduce(1u64, |a, b| a + b);
                        if done == 0 {
                            break;
                        }
                    }
                });
            }
            "#,
        );
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
        let e = a.entry("drive").expect("entry named by its function");
        assert!(matches(
            &e.schedule,
            &["alltoallv", "allreduce", "alltoallv", "allreduce"]
        ));
        assert!(matches(&e.schedule, &[]));
        assert!(!matches(&e.schedule, &["alltoallv"]), "allreduce missing");
    }

    #[test]
    fn higher_order_timed_pattern_substitutes_the_closure() {
        let a = analyze(
            r#"
            impl RankCtx {
                pub fn timed(&self, detail: u64, f: impl FnOnce() -> R) -> R {
                    self.comm.barrier();
                    let out = f();
                    self.comm.barrier();
                    out
                }
            }
            fn drive(cfg: &RunConfig) {
                let run = run_ranks(cfg, |ctx| {
                    ctx.timed(0, || {
                        ctx.comm().allreduce(1u64, |a, b| a + b);
                    });
                });
            }
            "#,
        );
        let e = a.entry("drive").expect("entry");
        assert!(
            matches(&e.schedule, &["barrier", "allreduce", "barrier"]),
            "schedule: {:?}",
            e.schedule
        );
    }

    #[test]
    fn comm_internals_are_checked_like_any_crate() {
        let a = analyze_sources(vec![(
            "crates/comm/src/algorithms.rs".to_string(),
            r#"
            fn ring(comm: &Comm, data: Vec<u64>) {
                if comm.rank() == 0 {
                    comm.sendrecv_wire(1, data);
                }
            }
            "#
            .to_string(),
        )]);
        assert_eq!(rules_at(&a), vec![(SCHEDULE_ASYMMETRY, 3)]);
    }

    #[test]
    fn allow_directive_suppresses_a_schedule_finding() {
        let a = analyze(
            r#"
            fn deliberate(comm: &Comm) {
                // lint: allow(schedule-asymmetry)
                if comm.rank() == 0 {
                    comm.barrier();
                }
                if comm.rank() == 1 { comm.allreduce(&x, ops::sum); } // lint: allow(schedule-asymmetry)
                if comm.rank() == 2 {
                    comm.allgather(y);
                }
            }
            "#,
        );
        assert_eq!(
            rules_at(&a),
            vec![(SCHEDULE_ASYMMETRY, 8)],
            "only the unannotated branch survives"
        );
    }

    #[test]
    fn json_rendering_is_stable() {
        let a = analyze(
            r#"
            fn drive(cfg: &RunConfig) {
                let run = run_ranks(cfg, |ctx| {
                    let comm = ctx.comm();
                    comm.barrier();
                    loop {
                        comm.allreduce(1u64, |a, b| a + b);
                        break;
                    }
                });
            }
            "#,
        );
        let e = a.entry("drive").expect("entry");
        let mut s = String::new();
        to_json(&e.schedule, &mut s);
        assert_eq!(s, r#"["barrier",{"loop":"allreduce"}]"#);
    }
}
