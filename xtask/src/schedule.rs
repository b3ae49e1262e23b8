//! The static collective-schedule checker (`cargo run -p xtask --
//! schedule`).
//!
//! Built on the control-flow IR of [`crate::cfg`], this pass computes an
//! interprocedural *collective-schedule summary* per function: the
//! ordered symbolic sequence of collectives (kind × wire-ness ×
//! start/wait pairing) each rank can emit, with every branch either
//! proven schedule-equivalent across its arms or proven *decided by
//! replicated data*. The safe-branch rule is the `[u64; 3]`-allreduce
//! pattern of the direction-optimizing hybrid: a branch condition is safe
//! iff it derives from a prior collective's replicated result
//! (`allreduce` / `allgather(v)` / `broadcast`) or from rank-invariant
//! configuration; anything rooted in `.rank()` or rank-named data makes
//! the branch divergent, and divergent arms with different schedules are
//! exactly the silent-deadlock shape the MPI-style matching discipline of
//! Buluç–Madduri (arXiv:1104.4518) forbids.
//!
//! Three reports come out (rule names in [`SCHEDULE_ASYMMETRY`],
//! [`SCHEDULE_UNPAIRED_EXCHANGE`], [`SCHEDULE_RESET_PLACEMENT`]):
//! asymmetric schedules, unpaired `ialltoallv_wire` start/wait pairs
//! (loop-carried rotation included), and a machine-readable schedule per
//! driver entry point — every `run_ranks` rank closure, named by a
//! `// schedule: entry(name)` directive or the enclosing function. The
//! entry schedules feed the dynamic conformance test in `crates/bfs`,
//! which diffs them against the fingerprint sequence a real run captures
//! (`Comm::capture_schedule`; see `docs/static-analysis.md`).
//!
//! `crates/comm` is summarized but exempt from findings: it *implements*
//! the collectives, so its internals legitimately branch on rank.

use crate::cfg::{self, Closure, ExprFacts, FnDef, Stmt};
use crate::lexer::{lex, Lexed};
use crate::rules::Finding;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// Rule: every rank must issue the same collective sequence — a branch
/// with schedule-different arms must be decided by replicated data.
pub const SCHEDULE_ASYMMETRY: &str = "schedule-asymmetry";
/// Rule: every `ialltoallv_wire` start must pair with exactly one wait,
/// on every path, including across loop iterations.
pub const SCHEDULE_UNPAIRED_EXCHANGE: &str = "schedule-unpaired-exchange";
/// Rule: a `// schedule: reset` point must sit in straight-line code of
/// its entry (not under a branch or loop) so the static capture window
/// is well defined.
pub const SCHEDULE_RESET_PLACEMENT: &str = "schedule-reset-placement";

/// Marker op: the accounting-reset point (`RankCtx::reset_accounting`);
/// an entry's schedule starts after its last top-level occurrence,
/// mirroring the dynamic capture's `schedule_clear`.
const RESET: &str = "@reset";
/// Marker op: `return` — exits the enclosing function (or rank closure).
/// Stripped at inline boundaries: a callee's `return` resolves inside the
/// callee, whose own per-function check covers internal divergence.
const RETURN: &str = "@return";
/// Marker op: `break` / `continue` — exits the innermost enclosing loop,
/// so it is schedule-relevant only when that loop carries collectives.
const BREAK: &str = "@break";

/// Rank-invariance classification of a value or branch condition.
///
/// A small may-lattice: `div` means possibly rank-divergent, `deps` is
/// the set of enclosing-function parameters the value derives from
/// (resolved through call sites), `unknown` marks roots the dataflow
/// could not see (module constants, statics) — resolved as replicated,
/// because per-rank data can only enter a function through its
/// parameters, `.rank()` calls, or rank-named bindings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Class {
    div: bool,
    deps: u64,
    unknown: bool,
}

impl Class {
    const REPL: Class = Class {
        div: false,
        deps: 0,
        unknown: false,
    };
    const DIV: Class = Class {
        div: true,
        deps: 0,
        unknown: false,
    };
    const UNKNOWN: Class = Class {
        div: false,
        deps: 0,
        unknown: true,
    };

    fn dep(i: usize) -> Class {
        Class {
            div: false,
            deps: 1u64 << i.min(63),
            unknown: false,
        }
    }

    fn join(self, other: Class) -> Class {
        Class {
            div: self.div || other.div,
            deps: self.deps | other.deps,
            unknown: self.unknown || other.unknown,
        }
    }
}

/// A schedule-summary node. Lines are advisory (for reporting) and
/// ignored by equivalence.
#[derive(Clone, Debug)]
pub enum Node {
    /// One collective, named by its dynamic fingerprint kind (plus the
    /// `@reset` / `@exit` markers).
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
    Call {
        name: String,
        qual: Option<String>,
        has_recv: bool,
        args: Vec<Class>,
        closures: Vec<(usize, Node)>,
        line: u32,
    },
    /// Call through a function parameter (higher-order): substituted with
    /// the closure the caller passed in that position.
    ParamCall(usize, u32),
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
/// schedule (markers stripped, reset applied).
#[derive(Debug)]
pub struct Entry {
    /// `// schedule: entry(name)` argument, or the enclosing function's
    /// name when the directive is absent.
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
    /// Findings are suppressed and comm-exempted per file.
    exempt: bool,
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

/// The crates the schedule pass covers; only `src/` trees — tests
/// intentionally provoke asymmetric schedules.
const SCHEDULE_ROOTS: &[&str] = &[
    "crates/bfs/src",
    "crates/comm/src",
    "crates/runtime/src",
    "crates/graph/src",
    "crates/matrix/src",
];

/// Analyzes the workspace rooted at `root` (see `SCHEDULE_ROOTS` for
/// the scan scope).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut sources = Vec::new();
    for sub in SCHEDULE_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect(&dir, root, &mut sources)?;
        }
    }
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(analyze_sources(sources))
}

fn collect(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
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
        let exempt = path.starts_with("crates/comm/");
        a.files.push(FileInfo {
            path,
            lexed,
            exempt,
        });
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

/// Maps a source-level primitive method name to the dynamic fingerprint
/// sequence it produces. `split` fingerprints itself and then delegates
/// to an `allgather` (one `allgatherv` fingerprint); `allgather`
/// delegates to `allgatherv`; `wait` is the exchange completion, and
/// `alltoallv_wire` is a start immediately followed by its wait.
fn fingerprints(method: &str) -> &'static [&'static str] {
    match method {
        "barrier" => &["barrier"],
        "alltoallv" => &["alltoallv"],
        "alltoallv_wire" => &["ialltoallv_wire", "ialltoallv_wire_wait"],
        "ialltoallv_wire" => &["ialltoallv_wire"],
        "wait" => &["ialltoallv_wire_wait"],
        "allgatherv" => &["allgatherv"],
        "allgatherv_wire" => &["allgatherv_wire"],
        "allgather" => &["allgatherv"],
        "allreduce" => &["allreduce"],
        "broadcast" => &["broadcast"],
        "gather" => &["gather"],
        "gatherv" => &["gatherv"],
        "sendrecv" => &["sendrecv"],
        "sendrecv_wire" => &["sendrecv_wire"],
        "split" => &["split", "allgatherv"],
        _ => &[],
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
    local_closures: HashMap<String, Node>,
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

    fn class_of_name(&self, name: &str) -> Class {
        if let Some(c) = self.env.get(name) {
            return *c;
        }
        if name.chars().next().is_some_and(|ch| ch.is_uppercase()) {
            return Class::REPL; // type/const path
        }
        Class::UNKNOWN
    }

    /// Summarizes a statement list under branch/loop context `ctx` (the
    /// joined class of every enclosing condition — assignments inherit
    /// it, because *which* value gets assigned depends on the branch).
    fn block(&mut self, stmts: &[Stmt], ctx: Class) -> Node {
        let mut out = Vec::new();
        for stmt in stmts {
            if self.lexed.schedule_directive(stmt_line(stmt), "reset") {
                out.push(Node::Op(RESET, stmt_line(stmt)));
            }
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
                        let node = self.closure(c);
                        let ename = self
                            .lexed
                            .schedule_arg(*line, "entry")
                            .unwrap_or_else(|| self.a.fns[self.fn_idx].def.name.clone());
                        self.entries.push((ename, *line, node));
                    }
                    return;
                }
                // Call through a named local closure: inline its summary.
                if recv.is_none() && qual.is_none() {
                    if let Some(n) = self.local_closures.get(name) {
                        out.push(n.clone());
                        return;
                    }
                    // Call through a function parameter (higher-order).
                    if let Some(i) = self.a.fns[self.fn_idx]
                        .def
                        .params
                        .iter()
                        .position(|p| p == name)
                    {
                        out.push(Node::ParamCall(i, *line));
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
                let closures: Vec<(usize, Node)> = closures
                    .iter()
                    .map(|(i, c)| (*i, self.closure(c)))
                    .collect();
                // `self.method()` resolves within the enclosing impl.
                let qual = qual.clone().or_else(|| {
                    (recv.as_deref() == Some("self"))
                        .then(|| self.qual.clone())
                        .flatten()
                });
                out.push(Node::Call {
                    name: name.clone(),
                    qual,
                    has_recv: recv.is_some(),
                    args: arg_classes,
                    closures,
                    line: *line,
                });
            }
            Stmt::Branch { cond, arms, line } => {
                let cond_class = if self.lexed.schedule_directive(*line, "replicated") {
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
                let head_class = if self.lexed.schedule_directive(*line, "replicated") {
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
                let c = if self.lexed.schedule_directive(*line, "replicated") {
                    Class::REPL
                } else {
                    self.class_of(value).join(ctx)
                };
                for n in names {
                    self.env.insert(n.clone(), c);
                }
            }
            Stmt::LetClosure { name, closure, .. } => {
                // A `return` inside the closure exits the closure, not
                // the enclosing function; `break`/`continue` stay
                // correctly scoped by their own `Loop` nodes.
                let node = strip_returns(self.closure(closure));
                if !name.is_empty() {
                    self.local_closures.insert(name.clone(), node);
                }
            }
            Stmt::Assign { name, value, line } => {
                let c = if self.lexed.schedule_directive(*line, "replicated") {
                    Class::REPL
                } else {
                    let old = self.class_of_name(name);
                    old.join(self.class_of(value)).join(ctx)
                };
                self.env.insert(name.clone(), c);
            }
            Stmt::Break { line } | Stmt::Continue { line } => {
                out.push(Node::Op(BREAK, *line));
            }
            Stmt::Return { line } => {
                out.push(Node::Op(RETURN, *line));
            }
        }
    }

    /// Summarizes a closure body in the enclosing scope. Closure
    /// parameters are bound as replicated: per-rank data reaching a
    /// closure flows through captures (tracked) or collective results;
    /// the conformance test backstops the approximation.
    fn closure(&mut self, c: &Closure) -> Node {
        let saved: Vec<(String, Option<Class>)> = c
            .params
            .iter()
            .map(|p| (p.clone(), self.env.get(p).copied()))
            .collect();
        for p in &c.params {
            self.env.insert(p.clone(), Class::REPL);
        }
        let node = self.block(&c.body, Class::REPL);
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
        node
    }
}

fn stmt_line(stmt: &Stmt) -> u32 {
    match stmt {
        Stmt::Op { line, .. }
        | Stmt::Call { line, .. }
        | Stmt::Branch { line, .. }
        | Stmt::Loop { line, .. }
        | Stmt::Let { line, .. }
        | Stmt::LetClosure { line, .. }
        | Stmt::Assign { line, .. }
        | Stmt::Break { line }
        | Stmt::Continue { line }
        | Stmt::Return { line } => *line,
    }
}

// ---------------------------------------------------------------------------
// Phase 2: interprocedural expansion + checks.
// ---------------------------------------------------------------------------

/// Expansion context: the function whose summary is being expanded, with
/// its parameter classes already resolved to replicated/divergent and the
/// closures substituted for higher-order parameters.
#[derive(Clone)]
struct Ctx {
    /// Resolved class per parameter (true = divergent).
    param_div: Vec<bool>,
    /// Expanded closure bodies per parameter index.
    subst: HashMap<usize, Node>,
}

struct Expander<'a> {
    a: &'a Analysis,
    stack: Vec<usize>,
    findings: BTreeSet<(String, u32, &'static str, String)>,
    /// Memo for demand-driven param resolution: fn -> per-param divergent.
    param_memo: HashMap<usize, Vec<bool>>,
    param_stack: Vec<usize>,
}

fn run_checks(a: &mut Analysis) {
    let mut ex = Expander {
        a,
        stack: Vec::new(),
        findings: BTreeSet::new(),
        param_memo: HashMap::new(),
        param_stack: Vec::new(),
    };
    // Per-function root checks: every function outside crates/comm gets
    // its summary expanded (parameters resolved by joining every call
    // site in the workspace) and checked for divergent-branch asymmetry
    // and unpaired exchanges.
    for idx in 0..ex.a.fns.len() {
        if ex.a.file_of(idx).exempt {
            continue;
        }
        let ctx = Ctx {
            param_div: ex.demand_params(idx),
            subst: HashMap::new(),
        };
        let file = ex.a.file_of(idx).path.clone();
        let expanded = ex.expand(&ex.a.summaries[idx].clone(), &ctx, &file);
        let fn_line = ex.a.fns[idx].def.line;
        ex.check_pairing(&expanded, &file, fn_line);
        ex.check_exits(&expanded, &file, false, false);
    }
    // Entries: expand each rank closure and apply the reset window.
    let mut entries = Vec::new();
    for (fn_idx, name, line, node) in ex.a.raw_entries.clone() {
        let ctx = Ctx {
            param_div: ex.demand_params(fn_idx),
            subst: HashMap::new(),
        };
        let file = ex.a.file_of(fn_idx).path.clone();
        let expanded = ex.expand(&node, &ctx, &file);
        ex.check_pairing(&expanded, &file, line);
        ex.check_exits(&expanded, &file, false, false);
        let schedule = ex.apply_reset(expanded, &file);
        entries.push(Entry {
            name,
            file,
            line,
            schedule: strip_markers(schedule),
        });
    }
    let findings = ex.findings.clone();
    drop(ex);
    a.entries = entries;
    // Resolve suppressions per file, then sort.
    let mut out = Vec::new();
    for (file, line, rule, message) in findings {
        let allowed = a
            .files
            .iter()
            .find(|f| f.path == file)
            .is_some_and(|f| f.lexed.allowed(line, rule));
        if !allowed {
            out.push(Finding {
                file,
                line,
                rule,
                message,
            });
        }
    }
    out.sort_by(|x, y| (&x.file, x.line, x.rule).cmp(&(&y.file, y.line, y.rule)));
    out.dedup();
    a.findings = out;
}

impl Expander<'_> {
    fn report(&mut self, file: &str, line: u32, rule: &'static str, msg: String) {
        self.findings.insert((file.to_string(), line, rule, msg));
    }

    /// Demand-driven parameter resolution: a parameter is divergent iff
    /// some call site anywhere in the workspace passes it rank-divergent
    /// data (transitively through the caller's own parameters). With no
    /// visible call site the parameter resolves replicated — out-of-scope
    /// callers (CLI, tests) pass configuration, and the conformance test
    /// backstops the assumption.
    fn demand_params(&mut self, fn_idx: usize) -> Vec<bool> {
        if let Some(v) = self.param_memo.get(&fn_idx) {
            return v.clone();
        }
        if self.param_stack.contains(&fn_idx) {
            return vec![false; self.a.fns[fn_idx].def.params.len()];
        }
        self.param_stack.push(fn_idx);
        let nparams = self.a.fns[fn_idx].def.params.len();
        let mut div = vec![false; nparams];
        // Walk every summary (and entry closure) looking for call sites
        // that resolve to `fn_idx`.
        let mut sites: Vec<(usize, Vec<Class>, bool)> = Vec::new();
        for caller in 0..self.a.fns.len() {
            collect_sites(
                &self.a.summaries[caller],
                caller,
                fn_idx,
                self.a,
                &mut sites,
            );
        }
        // Entry closures live in their enclosing fn's scope, so call
        // sites inside them resolve through that fn's parameters.
        for (fidx, _, _, node) in &self.a.raw_entries {
            collect_sites(node, *fidx, fn_idx, self.a, &mut sites);
        }
        for (caller, args, has_recv) in sites {
            let caller_div = self.demand_params(caller);
            // Align: callee `self` param consumes the receiver slot.
            let has_self = self.a.fns[fn_idx]
                .def
                .params
                .first()
                .is_some_and(|p| p == "self");
            let offset = match (has_self, has_recv) {
                (true, true) | (false, false) => 0usize,
                // Method without receiver slot or receiver without self:
                // shift by one (Type::method(a) / free fn via method pos).
                (true, false) => 1,
                (false, true) => {
                    // Receiver present but callee has no self: drop it.
                    for (i, c) in args.iter().skip(1).enumerate() {
                        if i < nparams && resolve_class(*c, &caller_div) {
                            div[i] = true;
                        }
                    }
                    continue;
                }
            };
            for (i, c) in args.iter().enumerate() {
                let p = i + offset;
                if p < nparams && resolve_class(*c, &caller_div) {
                    div[p] = true;
                }
            }
        }
        self.param_stack.pop();
        self.param_memo.insert(fn_idx, div.clone());
        div
    }

    /// See [`resolve_in`].
    fn resolve(
        &self,
        name: &str,
        qual: Option<&str>,
        argc: usize,
        caller_file: &str,
    ) -> Option<usize> {
        resolve_in(self.a, name, qual, argc, caller_file)
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
            Node::ParamCall(i, _) => ctx.subst.get(i).cloned().unwrap_or_else(Node::empty),
            Node::Call {
                name,
                qual,
                has_recv,
                args,
                closures,
                line,
            } => {
                let target = self.resolve(name, qual.as_deref(), args.len(), file);
                // Expand closure arguments in the *caller's* context.
                let expanded_closures: Vec<(usize, Node)> = closures
                    .iter()
                    .map(|(i, n)| (*i, self.expand(n, ctx, file)))
                    .collect();
                let Some(target) = target else {
                    // Unknown callee: assume it invokes each closure
                    // argument once, in order (`pool.install`, iterator
                    // adapters; raw spawns are lint-banned).
                    return flatten(
                        expanded_closures
                            .into_iter()
                            .map(|(_, n)| strip_returns(n))
                            .filter(|n| !n.is_empty())
                            .collect(),
                    );
                };
                if self.stack.contains(&target) {
                    return Node::empty();
                }
                // Parameter classes at this site.
                let has_self = self.a.fns[target]
                    .def
                    .params
                    .first()
                    .is_some_and(|p| p == "self");
                let nparams = self.a.fns[target].def.params.len();
                let offset = match (has_self, *has_recv) {
                    (true, true) | (false, false) => 0usize,
                    (true, false) => 1,
                    (false, true) => 0, // receiver dropped below
                };
                let args_aligned: Vec<Class> = if !has_self && *has_recv {
                    args.iter().skip(1).copied().collect()
                } else {
                    args.to_vec()
                };
                let mut param_div = vec![false; nparams];
                for (i, c) in args_aligned.iter().enumerate() {
                    let p = i + offset;
                    if p < nparams {
                        param_div[p] = self.resolve_ctx(*c, ctx);
                    }
                }
                let mut subst = HashMap::new();
                for (arg_pos, n) in expanded_closures {
                    let p = arg_pos + if has_self && *has_recv { 1 } else { offset };
                    subst.insert(p, strip_returns(n));
                }
                let callee_ctx = Ctx { param_div, subst };
                self.stack.push(target);
                let callee_file = self.a.file_of(target).path.clone();
                let out = self.expand(&self.a.summaries[target].clone(), &callee_ctx, &callee_file);
                self.stack.pop();
                let _ = line;
                // Collectives implemented inside `crates/comm` are
                // internally symmetric by contract (backed by its own
                // tests); neutralize their branch conditions so callers
                // are not charged for comm's rank-dependent internals.
                if self.a.file_of(target).exempt {
                    neutralize(out)
                } else {
                    strip_returns(out)
                }
            }
            Node::Alt { arms, cond, line } => {
                let div = self.resolve_ctx(*cond, ctx);
                let arms: Vec<Node> = arms.iter().map(|n| self.expand(n, ctx, file)).collect();
                // Equivalent arms collapse; the branch is schedule-neutral.
                if arms.iter().all(|n| equivalent(n, &arms[0])) {
                    return arms.into_iter().next().unwrap_or_else(Node::empty);
                }
                if div && !self.a.files.iter().any(|f| f.path == *file && f.exempt) {
                    // Only arms that differ in *collectives* are reported
                    // here; divergent early exits are handled by
                    // check_exits with following-op context.
                    let shapes: Vec<Vec<&'static str>> = arms.iter().map(|n| op_names(n)).collect();
                    if shapes.iter().any(|s| *s != shapes[0]) {
                        self.report(
                            file,
                            *line,
                            SCHEDULE_ASYMMETRY,
                            "branch condition derives from rank-divergent data but its arms \
                             emit different collective schedules; decide the branch with a \
                             replicated value (a prior allreduce/allgather result or \
                             rank-invariant config), or annotate the proof with \
                             `// schedule: replicated`"
                                .to_string(),
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
                    if self.resolve_ctx(*h, ctx)
                        && !op_names(&body).is_empty()
                        && !self.a.files.iter().any(|f| f.path == *file && f.exempt)
                    {
                        self.report(
                            file,
                            *line,
                            SCHEDULE_ASYMMETRY,
                            "loop condition derives from rank-divergent data but the body \
                             emits collectives: ranks would run different iteration counts \
                             and the collective schedules diverge"
                                .to_string(),
                        );
                    }
                }
                Node::Loop {
                    body: Box::new(body),
                    head: head.map(|h| {
                        if self.resolve_ctx(h, ctx) {
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

    /// Resolves a class to divergent / replicated under the expansion
    /// context (parameter deps looked up, unknown roots replicated).
    fn resolve_ctx(&mut self, c: Class, ctx: &Ctx) -> bool {
        if c.div {
            return true;
        }
        if c.deps != 0 {
            for i in 0..64 {
                if c.deps & (1 << i) != 0 && ctx.param_div.get(i).copied().unwrap_or(false) {
                    return true;
                }
            }
        }
        false
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
                            SCHEDULE_ASYMMETRY,
                            "rank-divergent branch exits early on some arms while \
                             collectives follow: exiting ranks abandon the rendezvous"
                                .to_string(),
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

    /// Start/wait pairing over the expanded tree: total balance zero,
    /// zero per loop iteration, equal across branch arms, and never
    /// negative (a wait with nothing in flight).
    fn check_pairing(&mut self, node: &Node, file: &str, fn_line: u32) {
        let (net, min) = self.pairing(node, file);
        if net != 0 {
            self.report(
                file,
                fn_line,
                SCHEDULE_UNPAIRED_EXCHANGE,
                format!(
                    "{} ialltoallv_wire start{} left without a matching wait on this path",
                    net.abs(),
                    if net.abs() == 1 { "" } else { "s" }
                ),
            );
        } else if min < 0 {
            self.report(
                file,
                fn_line,
                SCHEDULE_UNPAIRED_EXCHANGE,
                "a wait can run with no exchange in flight on this path".to_string(),
            );
        }
    }

    /// Returns `(net, min_prefix)` of start(+1)/wait(−1) over the node.
    fn pairing(&mut self, node: &Node, file: &str) -> (i64, i64) {
        match node {
            Node::Op("ialltoallv_wire", _) => (1, 1),
            Node::Op("ialltoallv_wire_wait", _) => (-1, -1),
            Node::Op(..) | Node::ParamCall(..) | Node::Call { .. } => (0, 0),
            Node::Seq(v) => {
                let mut net = 0i64;
                let mut min = 0i64;
                for n in v {
                    let (cn, cm) = self.pairing(n, file);
                    min = min.min(net + cm);
                    net += cn;
                }
                (net, min)
            }
            Node::Alt { arms, line, .. } => {
                let parts: Vec<(i64, i64)> = arms.iter().map(|n| self.pairing(n, file)).collect();
                if parts.iter().any(|(n, _)| *n != parts[0].0) {
                    self.report(
                        file,
                        *line,
                        SCHEDULE_UNPAIRED_EXCHANGE,
                        "branch arms leave different numbers of exchanges in flight".to_string(),
                    );
                }
                let net = parts.first().map(|(n, _)| *n).unwrap_or(0);
                let min = parts.iter().map(|(_, m)| *m).min().unwrap_or(0);
                (net, min)
            }
            Node::Loop { body, line, .. } => {
                let (bn, bm) = self.pairing(body, file);
                if bn != 0 {
                    self.report(
                        file,
                        *line,
                        SCHEDULE_UNPAIRED_EXCHANGE,
                        format!(
                            "each loop iteration changes the in-flight exchange count \
                             by {bn}; iterations must start and wait equally (the \
                             double-buffer rotation waits for the previous start)"
                        ),
                    );
                }
                (0, bm.min(0))
            }
        }
    }

    /// Applies the `@reset` capture window: the schedule starts after the
    /// last top-level reset, mirroring the dynamic `schedule_clear`. A
    /// reset under a branch or loop has no well-defined window and is
    /// reported.
    fn apply_reset(&mut self, node: Node, file: &str) -> Node {
        let seq = match node {
            Node::Seq(v) => v,
            other => vec![other],
        };
        let last = seq.iter().rposition(|n| matches!(n, Node::Op(RESET, _)));
        // Any reset *below* the top level is a placement error.
        for n in &seq {
            if !matches!(n, Node::Op(RESET, _)) {
                if let Some(line) = find_nested_reset(n) {
                    self.report(
                        file,
                        line,
                        SCHEDULE_RESET_PLACEMENT,
                        "accounting reset under a branch or loop: the captured schedule \
                         window is ambiguous; hoist the reset to straight-line code of \
                         the rank closure"
                            .to_string(),
                    );
                }
            }
        }
        match last {
            Some(i) => Node::Seq(seq.into_iter().skip(i + 1).collect()),
            None => Node::Seq(seq),
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

fn collect_sites(
    node: &Node,
    caller: usize,
    target: usize,
    a: &Analysis,
    out: &mut Vec<(usize, Vec<Class>, bool)>,
) {
    match node {
        Node::Seq(v) => {
            for n in v {
                collect_sites(n, caller, target, a, out);
            }
        }
        Node::Alt { arms, .. } => {
            for n in arms {
                collect_sites(n, caller, target, a, out);
            }
        }
        Node::Loop { body, .. } => collect_sites(body, caller, target, a, out),
        Node::Call {
            name,
            qual,
            has_recv,
            args,
            closures,
            ..
        } => {
            let caller_file = &a.files[a.fns[caller].file_idx].path;
            if resolve_in(a, name, qual.as_deref(), args.len(), caller_file) == Some(target) {
                out.push((caller, args.clone(), *has_recv));
            }
            for (_, n) in closures {
                collect_sites(n, caller, target, a, out);
            }
        }
        Node::Op(..) | Node::ParamCall(..) => {}
    }
}

/// Marks every branch/loop condition in the subtree replicated and drops
/// exit markers — applied to expanded `crates/comm` internals, whose
/// rank-dependent control flow is the *implementation* of a symmetric
/// collective, not a schedule hazard for the caller.
fn neutralize(node: Node) -> Node {
    match node {
        Node::Op(RETURN, _) | Node::Op(BREAK, _) => Node::empty(),
        Node::Op(..) | Node::Call { .. } | Node::ParamCall(..) => node,
        Node::Seq(v) => Node::Seq(v.into_iter().map(neutralize).collect()),
        Node::Alt { arms, line, .. } => Node::Alt {
            arms: arms.into_iter().map(neutralize).collect(),
            cond: Class::REPL,
            line,
        },
        Node::Loop { body, line, .. } => Node::Loop {
            body: Box::new(neutralize(*body)),
            head: Some(Class::REPL),
            line,
        },
    }
}

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
            Node::Call { closures, .. } => closures.iter().for_each(|(_, n)| walk(n, out)),
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

/// Removes `@return` markers — applied when a callee or closure body is
/// inlined: its returns resolve inside it and never escape the boundary.
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

fn find_nested_reset(node: &Node) -> Option<u32> {
    match node {
        Node::Op(RESET, line) => Some(*line),
        Node::Op(..) | Node::ParamCall(..) | Node::Call { .. } => None,
        Node::Seq(v) => v.iter().find_map(find_nested_reset),
        Node::Alt { arms, .. } => arms.iter().find_map(find_nested_reset),
        Node::Loop { body, .. } => find_nested_reset(body),
    }
}

/// Structural schedule equivalence, ignoring source lines. Markers are
/// significant: an arm that exits early is *not* equivalent to one that
/// falls through (check_exits decides whether that matters).
fn equivalent(a: &Node, b: &Node) -> bool {
    fn eq(a: &Node, b: &Node) -> bool {
        match (a, b) {
            (Node::Op(x, _), Node::Op(y, _)) => x == y,
            (Node::Seq(x), Node::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| eq(a, b))
            }
            (Node::Alt { arms: x, .. }, Node::Alt { arms: y, .. }) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| eq(a, b))
            }
            (Node::Loop { body: x, .. }, Node::Loop { body: y, .. }) => eq(x, y),
            (Node::Call { name: x, .. }, Node::Call { name: y, .. }) => x == y,
            (Node::ParamCall(x, _), Node::ParamCall(y, _)) => x == y,
            _ => false,
        }
    }
    eq(a, b)
}

/// Removes `@reset`/`@exit` markers and normalizes the tree: sequences
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
        Node::ParamCall(i, _) => {
            out.push_str(&pad);
            out.push_str(&format!("call param#{i}\n"));
        }
    }
}

/// Renders a schedule as JSON (hand-rolled — xtask stays
/// zero-dependency). Ops are strings; `{"alt": [..]}` and
/// `{"loop": [..]}` wrap alternatives and repetition.
pub fn to_json(node: &Node, out: &mut String) {
    match node {
        Node::Op(name, _) => {
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        Node::Seq(v) => {
            out.push('[');
            for (i, n) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                to_json(n, out);
            }
            out.push(']');
        }
        Node::Alt { arms, .. } => {
            out.push_str("{\"alt\":[");
            for (i, a) in arms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                to_json(a, out);
            }
            out.push_str("]}");
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

    #[test]
    fn unpaired_start_and_loop_imbalance_are_flagged() {
        let a = analyze(
            r#"
            fn leak(comm: &Comm, bufs: Vec<WireBuf>) {
                let pending = comm.ialltoallv_wire(bufs);
            }
            fn rotate_ok(comm: &Comm, k: usize) {
                let mut pending = comm.ialltoallv_wire(encode(0));
                for c in 1..k {
                    let wire = pending.wait();
                    pending = comm.ialltoallv_wire(encode(c));
                }
                let wire = pending.wait();
            }
            "#,
        );
        assert_eq!(rules_at(&a), vec![(SCHEDULE_UNPAIRED_EXCHANGE, 2)]);
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
                // schedule: entry(demo)
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
        let e = a.entry("demo").expect("entry extracted");
        assert!(matches(
            &e.schedule,
            &["alltoallv", "allreduce", "alltoallv", "allreduce"]
        ));
        assert!(matches(&e.schedule, &[]));
        assert!(!matches(&e.schedule, &["alltoallv"]), "allreduce missing");
    }

    #[test]
    fn reset_truncates_the_captured_window() {
        let a = analyze(
            r#"
            fn drive(cfg: &RunConfig) {
                let run = run_ranks(cfg, |ctx| {
                    let comm = ctx.comm();
                    let sub = comm.split(0, 1);
                    // schedule: reset
                    comm.barrier();
                    comm.alltoallv(vec![]);
                });
            }
            "#,
        );
        let e = a.entry("drive").expect("implicit entry name");
        assert!(matches(&e.schedule, &["barrier", "alltoallv"]));
        assert!(
            !matches(
                &e.schedule,
                &["split", "allgatherv", "barrier", "alltoallv"]
            ),
            "pre-reset collectives must be excluded"
        );
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
    fn comm_internals_are_exempt_from_findings() {
        let a = analyze_sources(vec![(
            "crates/comm/src/algorithms.rs".to_string(),
            r#"
            fn ring(comm: &Comm, data: Vec<u64>) {
                if comm.rank() == 0 {
                    comm.sendrecv(1, data);
                }
            }
            "#
            .to_string(),
        )]);
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
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
            }
            "#,
        );
        assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
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
