//! The static collective-schedule checker (`cargo run -p xtask --
//! schedule`).
//!
//! One walk over the statement trees of [`crate::cfg`] builds the
//! *collective schedule* of each body — the ordered sequence of
//! collectives (kind × wire-ness, a nonblocking start and its wait as two
//! ops) every rank can emit — and checks it as it goes: every branch is
//! either proven schedule-equivalent across its arms or proven *decided
//! by replicated data*. The safe-branch rule is the `[u64; 3]`-allreduce
//! pattern of the direction-optimizing hybrid: a branch condition is safe
//! iff it derives from a prior collective's replicated result
//! (`allreduce` / `allgather`) or from rank-invariant configuration;
//! anything rooted in `.rank()` or rank-named data makes the branch
//! divergent, and divergent arms with different schedules are exactly the
//! silent-deadlock shape the MPI-style matching discipline of
//! Buluç–Madduri (arXiv:1104.4518) forbids.
//!
//! One rule reports findings ([`SCHEDULE_ASYMMETRY`]), and a
//! machine-readable schedule comes out per driver entry point — every
//! `run_ranks` rank closure, named by its enclosing function. The entry
//! schedules feed the dynamic conformance test in `crates/bfs`, which
//! diffs them against the whole collective sequence every rank of a real
//! run records (`Comm::take_schedule`; see `docs/static-analysis.md`).
//!
//! The walk binds each local to one bit: possibly rank-divergent, or not.
//! Every function is checked on its own with its parameters replicated,
//! and each call it can resolve is inlined: the callee's body is walked
//! at the call with its parameters bound to the classes of the call's
//! arguments, so a rank-divergent argument is reported at the callee's
//! branch, and the callee's early exits are checked at the same site. A
//! closure argument is bound to the parameter it fills and walked where
//! the callee calls that parameter, its own parameters bound to that
//! call's arguments.
//!
//! The pass covers the source of every workspace crate, `crates/comm`
//! included: a collective's implementation is held to the same rule as
//! its callers. Unpaired nonblocking exchanges need no rule here —
//! `PendingExchange` is `#[must_use]` and its `wait` consumes it.

use crate::cfg::{self, Closure, ExprFacts, FnDef, Stmt};
use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules::Finding;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::rc::Rc;

/// Rule: every rank must issue the same collective sequence — a branch
/// with schedule-different arms must be decided by replicated data.
pub const SCHEDULE_ASYMMETRY: &str = "schedule-asymmetry";

/// Why a branch is reported: its condition is rank-divergent and its arms
/// issue different collectives.
pub const ARMS_DIFFER: &str = "branch condition derives from rank-divergent data but its arms \
    emit different collective schedules; decide the branch with a replicated value (a prior \
    allreduce/allgather result or rank-invariant config), or annotate the proof with \
    `// schedule: replicated`";

/// Why a branch is reported: its condition is rank-divergent and some of
/// its arms leave early (`return`, `break`, `continue`, `?`, `let .. else`)
/// past collectives the others reach.
pub const EARLY_EXIT: &str = "rank-divergent branch exits early on some arms while \
    collectives follow: exiting ranks abandon the rendezvous";

/// Why a loop is reported: its head is rank-divergent and its body issues
/// collectives.
pub const LOOP_HEAD: &str = "loop condition derives from rank-divergent data but the body \
    emits collectives: ranks would run different iteration counts and the collective \
    schedules diverge";

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

/// A schedule node: a regular expression over collectives. Lines are
/// advisory (for reporting) and ignored by equivalence.
#[derive(Clone, Debug)]
pub enum Node {
    /// One collective, named by its dynamic fingerprint kind.
    Op(&'static str),
    Seq(Vec<Node>),
    /// Branch alternatives. `div` when the joined condition of the
    /// `if`/`else if`/`match` chain is possibly rank-divergent.
    Alt {
        arms: Vec<Node>,
        div: bool,
        line: u32,
    },
    /// Zero-or-more repetitions of the body.
    Loop(Box<Node>),
    /// An early exit: `return` (`0`), or a `break` / `continue` leaving
    /// that many loops. Exits are checked and removed where the body that
    /// holds them ends, so no entry's schedule holds one.
    Exit(usize),
}

impl Node {
    fn empty() -> Node {
        Node::Seq(Vec::new())
    }

    fn is_empty(&self) -> bool {
        matches!(self, Node::Seq(v) if v.is_empty())
    }
}

/// A driver entry point: a `run_ranks` rank closure, with its schedule.
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
#[derive(Default)]
pub struct Analysis {
    files: Vec<FileInfo>,
    fns: Vec<FnInfo>,
    by_name: HashMap<String, Vec<usize>>,
    by_qual: HashMap<(String, String), usize>,
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
    let mut a = Analysis::default();
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
    let mut w = Walker {
        a: &a,
        root: 0,
        stack: Vec::new(),
        silent: false,
        findings: BTreeSet::new(),
        entries: Vec::new(),
    };
    // Every function is checked on its own, with its parameters
    // replicated; a divergent argument is caught where a caller's check
    // inlines the function with that call's argument classes.
    for (idx, f) in a.fns.iter().enumerate() {
        w.root = idx;
        let node = w.block(&f.def.body, &mut Scope::new(idx), false);
        w.check_exits(&node, idx, false, &mut Vec::new());
    }
    let (entries, findings) = (w.entries, w.findings);
    a.entries = entries;
    a.findings = findings
        .into_iter()
        .map(|(file, line, message)| Finding {
            file,
            line,
            rule: SCHEDULE_ASYMMETRY,
            message: message.to_string(),
        })
        .collect();
    a
}

impl Analysis {
    pub fn entry(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// The bindings a body is walked under.
#[derive(Clone)]
struct Scope<'a> {
    /// The function the body belongs to: its file, its impl type and the
    /// parameters a call can go through.
    fn_idx: usize,
    /// The class of each local: true when possibly rank-divergent. A name
    /// not bound here (a type or const path, a module constant, a static)
    /// is replicated: per-rank data only enters a function through its
    /// parameters, `.rank()` calls and rank-named bindings.
    env: HashMap<&'a str, bool>,
    /// The closures callable by name: named local closures, and closure
    /// arguments bound to the callee parameters they fill.
    funs: HashMap<&'a str, Rc<Fun<'a>>>,
}

impl Scope<'_> {
    fn new(fn_idx: usize) -> Self {
        let (env, funs) = (HashMap::new(), HashMap::new());
        Scope { fn_idx, env, funs }
    }
}

/// A closure callable by name, with the bindings where it was written.
struct Fun<'a> {
    closure: &'a Closure,
    scope: Scope<'a>,
    /// Set when a call runs it.
    called: Cell<bool>,
}

impl<'a> Fun<'a> {
    fn new(closure: &'a Closure, scope: Scope<'a>) -> Rc<Self> {
        let called = Cell::new(false);
        Rc::new(Fun {
            closure,
            scope,
            called,
        })
    }
}

struct Walker<'a> {
    a: &'a Analysis,
    /// The function whose own check is running: only it records entries.
    root: usize,
    /// The callees being inlined, outermost first; a call back into one
    /// of them is cut.
    stack: Vec<usize>,
    /// Set while a walk only settles bindings (a loop's first pass, a
    /// closure literal's effect where it is written): calls are not
    /// followed, and nothing is reported or recorded.
    silent: bool,
    /// `(file, line, message)` of each [`SCHEDULE_ASYMMETRY`] finding,
    /// kept sorted and unique by the set.
    findings: BTreeSet<(String, u32, &'static str)>,
    entries: Vec<Entry>,
}

/// The class of an expression under `s`.
fn class_of(f: &ExprFacts, s: &Scope) -> bool {
    !f.repl_root && (f.rank || f.roots.iter().any(|r| s.env.get(r.as_str()) == Some(&true)))
}

impl<'a> Walker<'a> {
    fn file(&self, fn_idx: usize) -> &'a FileInfo {
        &self.a.files[self.a.fns[fn_idx].file_idx]
    }

    /// Records a finding, unless an allow-directive suppresses it.
    fn report(&mut self, fn_idx: usize, line: u32, why: &'static str) {
        let file = self.file(fn_idx);
        if !self.silent && !file.lexed.allowed(line, SCHEDULE_ASYMMETRY) {
            self.findings.insert((file.path.clone(), line, why));
        }
    }

    /// The schedule of a statement list under branch/loop context `ctx`
    /// (the joined class of every enclosing condition — assignments
    /// inherit it, because *which* value gets assigned depends on the
    /// branch).
    fn block(&mut self, stmts: &'a [Stmt], s: &mut Scope<'a>, ctx: bool) -> Node {
        let mut out = Vec::new();
        for stmt in stmts {
            self.stmt(stmt, s, ctx, &mut out);
        }
        flatten(out)
    }

    fn stmt(&mut self, stmt: &'a Stmt, s: &mut Scope<'a>, ctx: bool, out: &mut Vec<Node>) {
        let replicated = |line| self.file(s.fn_idx).lexed.is_replicated(line);
        match stmt {
            Stmt::Op { name, .. } => out.extend(fingerprints(name).iter().map(|&f| Node::Op(f))),
            Stmt::Call { closures, .. } => {
                if !self.silent {
                    self.call(stmt, s, out);
                }
                for (_, c) in closures {
                    self.effects(c, s);
                }
            }
            Stmt::Branch { cond, arms, line } => {
                let scrutinee = class_of(cond, s);
                let div = scrutinee && !replicated(*line);
                let outer = s.env.clone();
                let mut merged = outer.clone();
                let mut nodes = Vec::new();
                for arm in arms {
                    s.env = outer.clone();
                    s.env
                        .extend(arm.bound.iter().map(|b| (b.as_str(), scrutinee)));
                    nodes.push(self.block(&arm.body, s, ctx || div));
                    for (&k, &v) in &s.env {
                        *merged.entry(k).or_default() |= v;
                    }
                }
                s.env = merged;
                // Equivalent arms collapse: the branch is schedule-neutral.
                if nodes.iter().all(|n| equivalent(n, &nodes[0])) {
                    out.extend(nodes.into_iter().next());
                    return;
                }
                // Only arms that differ in collectives are reported here;
                // divergent early exits are `check_exits`' part, with the
                // ops that follow in view.
                if div && nodes.iter().any(|n| op_names(n) != op_names(&nodes[0])) {
                    self.report(s.fn_idx, *line, ARMS_DIFFER);
                }
                let (arms, line) = (nodes, *line);
                out.push(Node::Alt { arms, div, line });
            }
            Stmt::Loop {
                head,
                bound,
                body,
                line,
            } => {
                let div = !replicated(*line) && head.as_ref().is_some_and(|h| class_of(h, s));
                // Two passes settle the loop-carried bindings; the second
                // is the one that counts.
                let silent = self.silent;
                let mut node = Node::empty();
                for settle in [true, false] {
                    self.silent = silent || settle;
                    s.env.extend(bound.iter().map(|b| (b.as_str(), div)));
                    node = self.block(body, s, ctx || div);
                }
                if node.is_empty() {
                    return;
                }
                if div && has_ops(&node) {
                    self.report(s.fn_idx, *line, LOOP_HEAD);
                }
                out.push(Node::Loop(Box::new(node)));
            }
            Stmt::Let { names, value, line } => {
                let c = !replicated(*line) && (ctx || class_of(value, s));
                s.env.extend(names.iter().map(|n| (n.as_str(), c)));
            }
            Stmt::LetClosure { name, closure, .. } => {
                let scope = s.clone();
                self.effects(closure, s);
                if !name.is_empty() {
                    s.funs.insert(name, Fun::new(closure, scope));
                }
            }
            Stmt::Assign { name, value, line } => {
                let old = s.env.get(name.as_str()) == Some(&true);
                let c = !replicated(*line) && (old || ctx || class_of(value, s));
                s.env.insert(name, c);
            }
            Stmt::Exit(loops) => out.push(Node::Exit(*loops)),
        }
    }

    /// Walks a call: a rank closure, a closure called by name, an inlined
    /// callee or an unknown one.
    fn call(&mut self, call: &'a Stmt, s: &mut Scope<'a>, out: &mut Vec<Node>) {
        let Stmt::Call {
            name,
            qual,
            recv,
            closures,
            args,
            line,
        } = call
        else {
            return;
        };
        let a = self.a;
        // A `run_ranks` call with a closure literal is a driver entry
        // point: the closure is the per-rank schedule, and the spawn
        // machinery itself is not modeled (the world-run-boundary lint
        // guarantees this is the only spawn surface).
        if name == "run_ranks" {
            let own = s.fn_idx == self.root && !self.stack.contains(&self.root);
            if let Some((_, c)) = closures.first().filter(|_| own) {
                let schedule = self.closure(c, &mut s.clone(), &[]);
                self.entries.push(Entry {
                    name: a.fns[self.root].def.name.clone(),
                    file: self.file(self.root).path.clone(),
                    line: *line,
                    schedule,
                });
            }
            return;
        }
        let recv_class = recv.iter().map(|r| s.env.get(r.as_str()) == Some(&true));
        let classes: Vec<bool> = recv_class
            .chain(args.iter().map(|f| class_of(f, s)))
            .collect();
        if recv.is_none() && qual.is_none() {
            // A named local closure, or a closure argument called through
            // the parameter it fills: walked here, its parameters bound
            // to this call's argument classes. A parameter bound to no
            // closure runs nothing the walk can see.
            if let Some(f) = s.funs.get(name.as_str()).cloned() {
                f.called.set(true);
                out.push(self.closure(f.closure, &mut f.scope.clone(), &classes));
                return;
            }
            if a.fns[s.fn_idx].def.params.contains(name) {
                return;
            }
        }
        // `self.method()` resolves within the enclosing impl.
        let own = a.fns[s.fn_idx].def.qual.as_ref();
        let own = own.filter(|_| recv.as_deref() == Some("self"));
        let qual_or_self = qual.as_ref().or(own).map(String::as_str);
        let file = &self.file(s.fn_idx).path;
        let target = resolve_in(a, name, qual_or_self, classes.len(), file);
        let Some(t) = target.filter(|t| !self.stack.contains(t)) else {
            // Unknown callee: assume it invokes each closure argument once,
            // in order (`pool.install`, iterator adapters; raw spawns are
            // lint-banned), with its parameters replicated. A recursive
            // call is cut, its closures still checked.
            for (_, c) in closures {
                let node = self.closure(c, &mut s.clone(), &[]);
                if target.is_none() {
                    out.push(node);
                }
            }
            return;
        };
        // Bind the arguments to the callee's parameters. A method's `self`
        // takes the receiver, or the first argument of a path call
        // (`Type::method(obj, ..)`); on a chained call with no named
        // receiver (`f().method(..)`) the arguments shift past `self`, and
        // a receiver on a callee without `self` is dropped.
        let callee = &a.fns[t].def;
        let has_self = callee.params.first().is_some_and(|p| p == "self");
        let (skip, shift) = match (has_self, recv.is_some()) {
            (true, false) if qual.is_none() => (0, 1),
            (false, true) => (1, 0),
            _ => (0, 0),
        };
        let param = |i: usize| {
            i.checked_sub(skip)
                .and_then(|i| callee.params.get(i + shift))
        };
        let mut inner = Scope::new(t);
        for (i, &c) in classes.iter().enumerate() {
            if let Some(p) = param(i) {
                inner.env.insert(p, c);
            }
        }
        let mut bound = Vec::new();
        for (j, closure) in closures {
            let f = Fun::new(closure, s.clone());
            if let Some(p) = param(j + usize::from(recv.is_some())) {
                inner.funs.insert(p, f.clone());
            }
            bound.push(f);
        }
        self.stack.push(t);
        let node = self.block(&callee.body, &mut inner, false);
        self.stack.pop();
        // The callee's early exits, checked with this call's argument
        // classes before the inline boundary hides them.
        self.check_exits(&node, t, false, &mut Vec::new());
        out.push(strip_exits(node));
        // A closure the callee never calls through its parameter is still
        // checked, here.
        for f in bound.iter().filter(|f| !f.called.get()) {
            self.closure(f.closure, &mut s.clone(), &[]);
        }
    }

    /// Walks a closure's body on `s`, its parameters bound to `classes`
    /// (replicated past their end). A `return` leaves only the closure:
    /// its early exits are checked here, and none escapes.
    fn closure(&mut self, c: &'a Closure, s: &mut Scope<'a>, classes: &[bool]) -> Node {
        for (j, p) in c.params.iter().enumerate() {
            s.env.insert(p, classes.get(j) == Some(&true));
        }
        let node = self.block(&c.body, s, false);
        if !self.silent {
            self.check_exits(&node, s.fn_idx, false, &mut Vec::new());
        }
        strip_exits(node)
    }

    /// Applies a closure literal's effect on the bindings around it (an
    /// assignment to a captured local) where it is written: its body is
    /// walked silently on `s`, its parameters replicated and restored
    /// after.
    fn effects(&mut self, c: &'a Closure, s: &mut Scope<'a>) {
        let saved: Vec<_> = c
            .params
            .iter()
            .map(|p| (p, s.env.remove(p.as_str())))
            .collect();
        let silent = std::mem::replace(&mut self.silent, true);
        self.closure(c, s, &[]);
        self.silent = silent;
        for (p, old) in saved {
            s.env.remove(p.as_str());
            s.env.extend(old.map(|v| (p.as_str(), v)));
        }
    }

    /// Divergent early exits in one body's schedule (its exits still in
    /// place): a rank-divergent branch is reported when its arms differ in
    /// leaving early — a `return` while collectives follow anywhere later
    /// in the body (remaining loop iterations included), or a `break` /
    /// `continue` out of a loop that carries collectives. Some ranks would
    /// leave while others rendezvous. `loops` holds whether each enclosing
    /// loop carries collectives, innermost last.
    fn check_exits(&mut self, node: &Node, fn_idx: usize, ops_after: bool, loops: &mut Vec<bool>) {
        match node {
            Node::Seq(v) => {
                for (i, n) in v.iter().enumerate() {
                    let after = ops_after || v[i + 1..].iter().any(has_ops);
                    self.check_exits(n, fn_idx, after, loops);
                }
            }
            Node::Alt { arms, div, line } => {
                for a in arms {
                    self.check_exits(a, fn_idx, ops_after, loops);
                }
                let exits: Vec<bool> = arms
                    .iter()
                    .map(|a| leaves(a, ops_after, loops, 0))
                    .collect();
                if *div && exits.iter().any(|e| *e != exits[0]) {
                    self.report(fn_idx, *line, EARLY_EXIT);
                }
            }
            Node::Loop(body) => {
                let body_ops = has_ops(body);
                loops.push(body_ops);
                self.check_exits(body, fn_idx, ops_after || body_ops, loops);
                loops.pop();
            }
            Node::Op(_) | Node::Exit(_) => {}
        }
    }
}

/// Whether `node`, nested `inner` loops deep in the arm being checked,
/// holds an exit that skips collectives: a `return` while `ops_after`, or
/// a `break` / `continue` out of an enclosing loop (`loops`, innermost
/// last) that carries collectives.
fn leaves(node: &Node, ops_after: bool, loops: &[bool], inner: usize) -> bool {
    match node {
        Node::Exit(0) => ops_after,
        Node::Exit(n) => (n - 1)
            .checked_sub(inner)
            .is_some_and(|up| loops.iter().rev().nth(up) == Some(&true)),
        Node::Seq(v) | Node::Alt { arms: v, .. } => {
            v.iter().any(|n| leaves(n, ops_after, loops, inner))
        }
        Node::Loop(body) => leaves(body, ops_after, loops, inner + 1),
        Node::Op(_) => false,
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
    file: &str,
) -> Option<usize> {
    if let Some(&idx) = qual.and_then(|q| a.by_qual.get(&(q.to_string(), name.to_string()))) {
        return Some(idx);
    }
    let candidates = a.by_name.get(name)?;
    let keep = |pool: &[usize], f: &dyn Fn(&FnInfo) -> bool| -> Vec<usize> {
        pool.iter().copied().filter(|&i| f(&a.fns[i])).collect()
    };
    let by_argc = keep(candidates, &|f| f.def.params.len() == argc);
    let pool = if by_argc.is_empty() {
        candidates
    } else {
        &by_argc
    };
    let local = keep(pool, &|f| a.files[f.file_idx].path == file);
    let unique = [candidates, &by_argc, &local]
        .into_iter()
        .find(|c| c.len() == 1);
    unique.map(|c| c[0])
}

/// A sequence of `v`: nested sequences (flat themselves) spliced in, so
/// empty ones drop; a single node unwrapped.
fn flatten(v: Vec<Node>) -> Node {
    let mut out = Vec::new();
    for n in v {
        match n {
            Node::Seq(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    if out.len() == 1 {
        out.pop().unwrap()
    } else {
        Node::Seq(out)
    }
}

/// The collectives of a node, in order (exits excluded, branches
/// flattened — used for quick "does this differ" shape checks).
fn op_names(node: &Node) -> Vec<&'static str> {
    match node {
        Node::Op(name) => vec![name],
        Node::Seq(v) | Node::Alt { arms: v, .. } => v.iter().flat_map(op_names).collect(),
        Node::Loop(body) => op_names(body),
        Node::Exit(_) => Vec::new(),
    }
}

/// Whether a node issues any collective.
fn has_ops(node: &Node) -> bool {
    match node {
        Node::Op(_) => true,
        Node::Seq(v) | Node::Alt { arms: v, .. } => v.iter().any(has_ops),
        Node::Loop(body) => has_ops(body),
        Node::Exit(_) => false,
    }
}

/// Structural schedule equivalence, ignoring lines and classes. Exits
/// are significant: an arm that exits early is *not* equivalent to one
/// that falls through (`check_exits` decides whether that matters).
fn equivalent(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Op(x), Node::Op(y)) => x == y,
        (Node::Exit(x), Node::Exit(y)) => x == y,
        (Node::Seq(x), Node::Seq(y)) | (Node::Alt { arms: x, .. }, Node::Alt { arms: y, .. }) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| equivalent(a, b))
        }
        (Node::Loop(x), Node::Loop(y)) => equivalent(x, y),
        _ => false,
    }
}

/// Removes the exits of a body where it ends, and normalizes the tree:
/// sequences flatten, empties drop, single-child sequences unwrap.
fn strip_exits(node: Node) -> Node {
    fn walk(n: Node) -> Option<Node> {
        match n {
            Node::Exit(_) => None,
            Node::Op(_) => Some(n),
            Node::Seq(v) => {
                Some(flatten(v.into_iter().filter_map(walk).collect())).filter(|n| !n.is_empty())
            }
            Node::Alt { arms, div, line } => {
                let arms: Vec<Node> = arms
                    .into_iter()
                    .map(|a| walk(a).unwrap_or_else(Node::empty))
                    .collect();
                let kept = arms.iter().any(|a| !a.is_empty());
                kept.then_some(Node::Alt { arms, div, line })
            }
            Node::Loop(body) => walk(*body).map(|b| Node::Loop(Box::new(b))),
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
        Node::Op(name) => out.push_str(&format!("{pad}{name}\n")),
        Node::Seq(v) if v.is_empty() => out.push_str(&format!("{pad}(empty)\n")),
        Node::Seq(v) => v.iter().for_each(|n| render(n, indent, out)),
        Node::Alt { arms, .. } => {
            out.push_str(&format!("{pad}alt:\n"));
            for (i, a) in arms.iter().enumerate() {
                out.push_str(&format!("{pad}- arm {i}:\n"));
                render(a, indent + 1, out);
            }
        }
        Node::Loop(body) => {
            out.push_str(&format!("{pad}loop:\n"));
            render(body, indent + 1, out);
        }
        Node::Exit(_) => {}
    }
}

/// Renders a schedule as JSON (hand-rolled — xtask stays
/// zero-dependency). Ops are strings; `{"alt": [..]}` and
/// `{"loop": [..]}` wrap alternatives and repetition. An exit issues no
/// collective: `[]`.
pub fn to_json(node: &Node, out: &mut String) {
    match node {
        Node::Op(name) => out.push_str(&format!("\"{name}\"")),
        Node::Seq(v) | Node::Alt { arms: v, .. } => {
            let alt = matches!(node, Node::Alt { .. });
            out.push_str(if alt { "{\"alt\":[" } else { "[" });
            for (i, n) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                to_json(n, out);
            }
            out.push_str(if alt { "]}" } else { "]" });
        }
        Node::Loop(body) => {
            out.push_str("{\"loop\":");
            to_json(body, out);
            out.push('}');
        }
        Node::Exit(_) => out.push_str("[]"),
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
        Node::Op(name) => at
            .iter()
            .filter(|&&p| p < seq.len() && seq[p] == *name)
            .map(|&p| p + 1)
            .collect(),
        Node::Seq(v) => v.iter().fold(at.clone(), |cur, n| advance(n, &cur, seq)),
        Node::Alt { arms, .. } => arms.iter().flat_map(|a| advance(a, at, seq)).collect(),
        Node::Loop(body) => {
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
        Node::Exit(_) => at.clone(),
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

    /// `let .. else` and `?` are branches on their value: an `else` arm
    /// that issues a collective and returns differs in both arm shape and
    /// exit, and a replicated value decides either safely.
    #[test]
    fn let_else_and_try_branch_on_their_value() {
        let why = |src: &str| -> Vec<(u32, &'static str)> {
            let a = analyze(src);
            let w = |m: &str| {
                [ARMS_DIFFER, EARLY_EXIT, LOOP_HEAD]
                    .into_iter()
                    .find(|k| *k == m)
            };
            a.findings
                .iter()
                .map(|f| (f.line, w(&f.message).unwrap()))
                .collect()
        };
        let diverging = "fn f(comm: &Comm) {\n    let Some(x) = pick(comm.rank()) else {\n        comm.barrier();\n        return;\n    };\n    comm.barrier();\n}\n";
        assert_eq!(why(diverging), vec![(2, ARMS_DIFFER), (2, EARLY_EXIT)]);
        let replicated = "fn f(comm: &Comm) {\n    let Some(x) = pick(comm.allreduce(1u64, |a, b| a + b)) else {\n        return;\n    };\n    comm.barrier();\n}\n";
        assert!(why(replicated).is_empty());
        let tried = "fn f(comm: &Comm, n: u64) -> Result<(), E> {\n    n.checked()?;\n    comm.rank().checked()?;\n    comm.barrier();\n    Ok(())\n}\n";
        assert_eq!(why(tried), vec![(3, EARLY_EXIT)]);
    }

    /// A labelled `break` or `continue` is checked against the loop its
    /// label names: reported when that loop issues collectives, silent
    /// when it names the collective-free inner loop.
    #[test]
    fn labelled_exits_leave_the_loop_they_name() {
        for (label, kw, found) in [
            ("'outer", "break", true),
            ("'outer", "continue", true),
            ("'inner", "break", false),
        ] {
            let a = analyze(&format!(
                "fn f(comm: &Comm, n: usize) {{\n    'outer: for _ in 0..n {{\n        'inner: for _ in 0..4 {{\n            if comm.rank() == 0 {{\n                {kw} {label};\n            }}\n        }}\n        comm.barrier();\n    }}\n}}\n"
            ));
            let want = if found {
                vec![(SCHEDULE_ASYMMETRY, 4)]
            } else {
                vec![]
            };
            assert_eq!(rules_at(&a), want, "{kw} {label}");
        }
    }
}
