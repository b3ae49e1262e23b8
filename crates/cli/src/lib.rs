//! # dmbfs-cli — command-line front end
//!
//! Subcommands (see `dmbfs help`):
//!
//! * `generate` — write a benchmark graph (R-MAT / Erdős–Rényi / web
//!   crawl) to the binary edge-list format, optionally Graph 500-prepared
//!   (symmetrized + shuffled).
//! * `stats` — instance characterization: degrees, components, diameter.
//! * `bfs` — run any BFS variant from a file, validate, report TEPS.
//! * `teps` — the Graph 500 protocol: many sampled sources, harmonic-mean
//!   TEPS.
//! * `convert` — binary ↔ Matrix Market.
//! * `chaos` — sweep the deterministic fault grid (algorithm × fault kind
//!   × rank × level × direction) with a short rendezvous watchdog
//!   and ledger whether each injected fault was detected with a typed
//!   root-cause report — see `docs/fault-injection.md`.
//!
//! The argument grammar is deliberately tiny (`--key value` pairs after a
//! subcommand); an option the subcommand does not accept is an error.
//! Everything is also available as a library call for tests.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::shared::shared_bfs;
use dmbfs_bfs::teps::teps_edges;
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::{CommStats, FailureKind, VerifyFailure};
use dmbfs_graph::components::{connected_components, sample_sources};
use dmbfs_graph::gen::{erdos_renyi, rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::stats::{approx_diameter, degree_stats};
use dmbfs_graph::{io, CsrGraph, EdgeList, Grid2D, RandomPermutation};
use dmbfs_runtime::{
    DirectionMode, FailStopExit, FaultKind, FaultPlan, FaultSpec, FaultTrigger, InjectedFault,
};
use dmbfs_trace::RankTrace;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parses `argv[1..]` into [`Args`].
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
    let mut it = argv.into_iter();
    let command = it.next().ok_or_else(|| err(USAGE))?;
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    let mut rest: Vec<String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        if let Some(key) = rest[i].strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .ok_or_else(|| err(format!("missing value for --{key}")))?
                .clone();
            options.insert(key.to_string(), value);
            i += 2;
        } else {
            positional.push(std::mem::take(&mut rest[i]));
            i += 1;
        }
    }
    Ok(Args {
        command,
        positional,
        options,
    })
}

impl Args {
    fn opt_u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    fn opt_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// `--validate`, `--prepared`: exactly `true` or `false`, so a typo
    /// cannot quietly switch a step off.
    fn opt_bool(&self, key: &str, default: bool) -> Result<bool, CliError> {
        match self.options.get(key).map(String::as_str) {
            None => Ok(default),
            Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(other) => Err(err(format!("--{key} expects true|false, got '{other}'"))),
        }
    }

    fn require(&self, key: &str) -> Result<String, CliError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| err(format!("missing required option --{key}")))
    }

    fn input_file(&self) -> Result<String, CliError> {
        self.positional
            .first()
            .cloned()
            .ok_or_else(|| err("missing input file argument"))
    }

    /// `--ranks`, `--threads` or `--sources`, rejecting zero at parse
    /// time: a run over no ranks, threads or sources has nothing to
    /// measure, and the library would only meet it with an `assert!`.
    fn opt_count(&self, key: &str, default: u64) -> Result<usize, CliError> {
        match self.opt_u64(key, default)? {
            0 => Err(err(format!("--{key} expects a positive count, got 0"))),
            n => Ok(n as usize),
        }
    }

    /// `--scale S`: the generated graph has `2^S` vertices. R-MAT needs
    /// `S < 63` and a web crawl community needs `2^S ≥ 2`, so anything
    /// outside `1..=MAX_SCALE` is an error rather than a wrapped shift, a
    /// truncated `u32` or a generator `assert!`.
    fn opt_scale(&self, default: u64) -> Result<u32, CliError> {
        match self.opt_u64("scale", default)? {
            s @ 1..=MAX_SCALE => Ok(s as u32),
            s => Err(err(format!("--scale expects 1..={MAX_SCALE}, got {s}"))),
        }
    }

    /// Rejects every option not in `accepted`, naming each, so a typo or
    /// a retired flag fails instead of silently running something else.
    fn reject_unknown(&self, accepted: &[&str]) -> Result<(), CliError> {
        let unknown: Vec<String> = self
            .options
            .keys()
            .filter(|k| !accepted.contains(&k.as_str()))
            .map(|k| format!("--{k}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        Err(err(format!(
            "unknown option {} for `{}` (see `dmbfs help`)",
            unknown.join(", "),
            self.command
        )))
    }
}

/// Largest `--scale` a generator accepts.
const MAX_SCALE: u64 = 62;

/// The options `bfs` and `teps` share (see [`SearchOpts`]).
const SEARCH_FLAGS: &[&str] = &[
    "algorithm",
    "ranks",
    "threads",
    "direction",
    "fault",
    "trace",
    "trace-format",
];

/// Usage text.
pub const USAGE: &str = "\
dmbfs — distributed-memory BFS toolkit (Buluç & Madduri, SC'11)

USAGE:
  dmbfs generate --model rmat|er|webcrawl --scale S [--edge-factor E]
                 [--seed X] [--prepared true] --out FILE
  dmbfs stats FILE
  dmbfs bfs FILE [--algorithm serial|shared|direction|1d|2d] [--ranks P]
                 [--threads T] [--source V] [--validate true]
                 [--direction topdown|bottomup|hybrid (1d only)]
                 [--fault SPEC[;SPEC]]
                 [--trace FILE] [--trace-format chrome|jsonl]
  dmbfs teps FILE [--algorithm ...] [--ranks P] [--threads T] [--sources N]
                  [--direction ...]
                  [--fault SPEC[;SPEC]]
                  [--trace FILE] [--trace-format chrome|jsonl]
  dmbfs convert FILE --to bin|mm --out FILE
  dmbfs chaos [--scale S] [--edge-factor E] [--ranks P] [--seed X]
              [--algorithms 1d,2d] [--kinds panic,failstop,delay,corrupt]
              [--inject-ranks R,R] [--levels L,L]
              [--directions topdown,hybrid (hybrid: 1d only)]
              [--timeout-secs T] [--delay-ms MS] [--out FILE]
  dmbfs help

Fault SPEC grammar (also the DMBFS_FAULTS environment variable):
  <kind>@r<rank>:<site>[:coll=<collective>]
  kind ∈ panic | failstop | delay=MS | corrupt=SEED
  site ∈ opN (Nth collective on that rank) | levelL (first collective at
  BFS level ≥ L); see docs/fault-injection.md.
";

/// Executes a parsed command, returning the report to print.
pub fn run(args: &Args) -> Result<String, CliError> {
    type Command = fn(&Args) -> Result<String, CliError>;
    let (command, accepted): (Command, Vec<&str>) = match args.command.as_str() {
        "generate" => (
            cmd_generate,
            vec!["model", "scale", "edge-factor", "seed", "prepared", "out"],
        ),
        "stats" => (cmd_stats, vec![]),
        "bfs" => (cmd_bfs, [SEARCH_FLAGS, &["source", "validate"]].concat()),
        "teps" => (cmd_teps, [SEARCH_FLAGS, &["sources"]].concat()),
        "convert" => (cmd_convert, vec!["to", "out"]),
        "chaos" => (
            cmd_chaos,
            vec![
                "scale",
                "edge-factor",
                "ranks",
                "seed",
                "algorithms",
                "kinds",
                "inject-ranks",
                "levels",
                "directions",
                "timeout-secs",
                "delay-ms",
                "out",
            ],
        ),
        "help" | "--help" | "-h" => return Ok(USAGE.to_string()),
        other => return Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    };
    args.reject_unknown(&accepted)?;
    command(args)
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let model = args.opt_str("model", "rmat");
    let scale = args.opt_scale(14)?;
    let ef = args.opt_u64("edge-factor", 16)?;
    let seed = args.opt_u64("seed", 1)?;
    let out = args.require("out")?;
    let prepared = args.opt_bool("prepared", true)?;
    let mut el: EdgeList = match model.as_str() {
        "rmat" => rmat(&RmatConfig::graph500_ef(scale, ef, seed)),
        "er" => {
            let n = 1u64 << scale;
            erdos_renyi(n, ef * n, seed)
        }
        "webcrawl" => webcrawl(&WebCrawlConfig::uk_union_like(1 << scale.min(20), seed)),
        other => return Err(err(format!("unknown model '{other}'"))),
    };
    if prepared {
        el.canonicalize_undirected();
        let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xD5BF);
        el = perm.apply_edge_list(&el);
    }
    io::save_binary(&el, &out)?;
    Ok(format!(
        "wrote {} ({} vertices, {} stored edges, prepared = {prepared})",
        out,
        el.num_vertices,
        el.len()
    ))
}

fn load(args: &Args) -> Result<CsrGraph, CliError> {
    let path = args.input_file()?;
    let el = if path.ends_with(".mtx") {
        io::read_matrix_market(std::fs::File::open(&path)?)?
    } else {
        io::load_binary(&path)?
    };
    Ok(CsrGraph::from_edge_list(&el))
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let d = degree_stats(&g);
    let cc = connected_components(&g);
    let giant = cc.sizes[cc.largest() as usize];
    let src = sample_sources(&g, 1, 1)
        .first()
        .copied()
        .unwrap_or_default();
    let diameter = approx_diameter(&g, src);
    let mut out = String::new();
    writeln!(out, "vertices            {}", d.n).unwrap();
    writeln!(out, "stored adjacencies  {}", d.m).unwrap();
    writeln!(out, "mean degree         {:.2}", d.mean).unwrap();
    writeln!(out, "max degree          {}", d.max).unwrap();
    writeln!(out, "isolated vertices   {}", d.isolated).unwrap();
    writeln!(
        out,
        "top-1% edge share   {:.1}%",
        100.0 * d.top1pct_edge_share
    )
    .unwrap();
    writeln!(out, "components          {}", cc.num_components).unwrap();
    writeln!(out, "giant component     {giant}").unwrap();
    writeln!(out, "approx diameter     {diameter}").unwrap();
    Ok(out)
}

/// `--fault SPEC[;SPEC...]`, falling back to the `DMBFS_FAULTS` environment
/// variable: the deterministic fault-injection schedule armed on the world
/// communicator of a distributed run. Every kind is detected without
/// further flags: a fail-stopped or delayed rank is named by the rendezvous
/// watchdog (`DMBFS_COMM_TIMEOUT_SECS`), and corruption by the end-to-end
/// wire checksums an armed plan turns on. See docs/fault-injection.md.
fn fault_plan_from_args(args: &Args) -> Result<FaultPlan, CliError> {
    match args.options.get("fault") {
        Some(spec) => spec.parse::<FaultPlan>().map_err(err),
        None => FaultPlan::from_env().map_err(err),
    }
}

/// Renders a distributed run's panic payload for the user: the typed
/// reports ([`InjectedFault`], [`FailStopExit`], [`VerifyFailure`]) print
/// their structured diagnostics; anything else falls back to the string
/// payload.
fn describe_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        return f.to_string();
    }
    if let Some(f) = payload.downcast_ref::<FailStopExit>() {
        return f.0.to_string();
    }
    if let Some(f) = payload.downcast_ref::<VerifyFailure>() {
        return f.to_string();
    }
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Runs a distributed invocation that has live faults armed. The injected
/// rank's death (or the board diagnostic it provokes) unwinds out of
/// `World::run` as a panic; here it is caught and reported as a readable
/// CLI error carrying the typed root cause, with the default per-thread
/// panic banner silenced for the duration. An empty plan runs the closure
/// bare — healthy runs see no wrapper at all.
fn run_reporting_faults<T>(
    faults: &FaultPlan,
    f: impl FnOnce() -> Result<T, CliError>,
) -> Result<T, CliError> {
    if faults.is_empty() {
        return f();
    }
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(prev_hook);
    match result {
        Ok(r) => r,
        Err(payload) => Err(err(format!(
            "fault detected: {}",
            describe_payload(payload.as_ref())
        ))),
    }
}

/// `--trace FILE [--trace-format chrome|jsonl]`: where (and how) to write
/// the structured span trace of a run. See docs/observability.md.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TraceOpts {
    path: String,
    format: TraceFormat,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
}

impl TraceOpts {
    /// Parses the trace flags; `None` when `--trace` is absent.
    fn from_args(args: &Args) -> Result<Option<Self>, CliError> {
        let format = match args.opt_str("trace-format", "chrome").as_str() {
            "chrome" => TraceFormat::Chrome,
            "jsonl" => TraceFormat::Jsonl,
            other => {
                return Err(err(format!(
                    "--trace-format expects chrome|jsonl, got '{other}'"
                )))
            }
        };
        match args.options.get("trace") {
            Some(path) => Ok(Some(TraceOpts {
                path: path.clone(),
                format,
            })),
            None if args.options.contains_key("trace-format") => {
                Err(err("--trace-format requires --trace FILE"))
            }
            None => Ok(None),
        }
    }

    /// Serializes and writes the per-rank traces, returning a report line.
    fn write(&self, traces: &[RankTrace]) -> Result<String, CliError> {
        let doc = match self.format {
            TraceFormat::Chrome => dmbfs_trace::to_chrome_trace(traces),
            TraceFormat::Jsonl => dmbfs_trace::to_jsonl(traces),
        };
        std::fs::write(&self.path, doc)?;
        let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
        let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
        let mut line = format!(
            "trace: {} spans from {} ranks written to {}",
            spans,
            traces.len(),
            self.path
        );
        if dropped > 0 {
            line.push_str(&format!(" ({dropped} spans dropped: ring full)"));
        }
        Ok(line)
    }
}

/// The flags `bfs` and `teps` share. [`SearchOpts::from_args`] parses
/// and cross-checks them before any search runs, so an unknown algorithm
/// or a flag the algorithm cannot honor is a [`CliError`], never a panic
/// inside a search.
#[derive(Clone, Debug)]
struct SearchOpts {
    algorithm: String,
    ranks: usize,
    threads: usize,
    /// `--direction topdown|bottomup|hybrid`: the traversal-direction
    /// policy of the 1D driver (the only distributed driver with a
    /// bottom-up step). See docs/direction-optimizing.md.
    direction: DirectionMode,
    /// Span tracing; it never changes the computed result.
    trace: Option<TraceOpts>,
    faults: FaultPlan,
}

impl SearchOpts {
    fn from_args(args: &Args) -> Result<Self, CliError> {
        let algorithm = args.opt_str("algorithm", "2d");
        if !matches!(
            algorithm.as_str(),
            "serial" | "shared" | "direction" | "1d" | "2d"
        ) {
            return Err(err(format!(
                "unknown algorithm '{algorithm}' (expected serial|shared|direction|1d|2d)"
            )));
        }
        let direction = args
            .opt_str("direction", "topdown")
            .parse::<DirectionMode>()
            .map_err(err)?;
        let trace = TraceOpts::from_args(args)?;
        let faults = fault_plan_from_args(args)?;
        let distributed = matches!(algorithm.as_str(), "1d" | "2d");
        for (flag, set) in [
            ("--trace", trace.is_some()),
            ("--fault", !faults.is_empty()),
        ] {
            if set && !distributed {
                return Err(err(format!(
                    "{flag} requires a distributed algorithm (1d|2d), got '{algorithm}'"
                )));
            }
        }
        // Only the 1D driver has a distributed bottom-up step; the serial
        // `direction` algorithm has its own heuristic and the 2D SpMSV driver
        // is top-down by construction.
        if direction != DirectionMode::TopDown && algorithm != "1d" {
            return Err(err(format!(
                "--direction {} requires the 1d algorithm (only the 1D driver has a \
                 distributed bottom-up step), got '{algorithm}'",
                direction.name()
            )));
        }
        Ok(Self {
            ranks: args.opt_count("ranks", 4)?,
            threads: args.opt_count("threads", 1)?,
            algorithm,
            direction,
            trace,
            faults,
        })
    }

    /// One-line description of the effective process/thread layout — the
    /// flat-vs-hybrid distinction of §6 ("Flat MPI" vs "Hybrid"). The 2D
    /// algorithm reports the realized grid, which may round `--ranks` down
    /// to the closest-square decomposition.
    fn mode_line(&self) -> String {
        let (algorithm, ranks, threads) = (&self.algorithm, self.ranks, self.threads);
        let kind = if threads > 1 { "hybrid" } else { "flat" };
        match algorithm.as_str() {
            "serial" | "shared" | "direction" => {
                format!("mode {algorithm}: single process (--ranks/--threads not used)")
            }
            "2d" => {
                let grid = Grid2D::closest_square(ranks);
                format!(
                    "mode {kind}: {} ranks ({}x{} grid) x {threads} thread(s)/rank",
                    grid.size(),
                    grid.rows(),
                    grid.cols(),
                )
            }
            _ => format!("mode {kind}: {ranks} ranks x {threads} thread(s)/rank"),
        }
    }

    /// The ` direction X` suffix of the report header. Only the 1D driver
    /// honors `--direction`, so only its header carries the tag — the
    /// other algorithms stay byte-identical to their pre-direction output.
    fn direction_note(&self) -> String {
        if self.algorithm == "1d" {
            format!(" direction {}", self.direction.name())
        } else {
            String::new()
        }
    }

    /// One search from `source`: the BFS output, the runner's own
    /// barrier-to-barrier seconds when it measures them (the distributed
    /// drivers do; the single-process variants return `None`), the per-rank
    /// span traces (empty unless tracing), and the per-rank comm stats
    /// (empty for the single-process variants).
    #[allow(clippy::type_complexity)]
    fn search(
        &self,
        g: &CsrGraph,
        source: u64,
    ) -> (
        dmbfs_bfs::BfsOutput,
        Option<f64>,
        Vec<RankTrace>,
        Vec<CommStats>,
    ) {
        let (ranks, threads) = (self.ranks, self.threads);
        match self.algorithm.as_str() {
            "serial" => (serial_bfs(g, source), None, Vec::new(), Vec::new()),
            "shared" => (shared_bfs(g, source), None, Vec::new(), Vec::new()),
            "direction" => (
                dmbfs_bfs::direction::direction_optimizing_bfs(g, source).output,
                None,
                Vec::new(),
                Vec::new(),
            ),
            "1d" => {
                let cfg = Bfs1dConfig::hybrid(ranks, threads)
                    .with_direction(self.direction)
                    .with_trace(self.trace.is_some())
                    .with_faults(self.faults);
                let run = bfs1d_run(g, source, &cfg);
                (
                    run.output,
                    Some(run.seconds),
                    run.per_rank_trace,
                    run.per_rank_stats,
                )
            }
            "2d" => {
                let grid = Grid2D::closest_square(ranks);
                let cfg = Bfs2dConfig::hybrid(grid, threads)
                    .with_trace(self.trace.is_some())
                    .with_faults(self.faults);
                let run = bfs2d_run(g, source, &cfg);
                (
                    run.output,
                    Some(run.seconds),
                    run.per_rank_trace,
                    run.per_rank_stats,
                )
            }
            other => unreachable!("SearchOpts::from_args admitted algorithm '{other}'"),
        }
    }
}

fn cmd_bfs(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let opts = SearchOpts::from_args(args)?;
    let validate = args.opt_bool("validate", true)?;
    let source = match args.options.get("source") {
        Some(v) => v.parse().map_err(|_| err("--source expects a vertex id"))?,
        None => sample_sources(&g, 1, 7)
            .first()
            .copied()
            .ok_or_else(|| err("graph has no usable source"))?,
    };
    if source >= g.num_vertices() {
        return Err(err(format!(
            "source {source} out of range (n = {})",
            g.num_vertices()
        )));
    }
    let t0 = Instant::now();
    let (out, _, traces, stats) =
        run_reporting_faults(&opts.faults, || Ok(opts.search(&g, source)))?;
    let secs = t0.elapsed().as_secs_f64();
    if validate {
        validate_bfs(&g, source, &out.parents, out.levels())
            .map_err(|e| err(format!("validation failed: {e}")))?;
    }
    let edges = teps_edges(&g, &out);
    let mut report = format!(
        "{}\nalgorithm {}{} source {source}: reached {} of {} vertices, depth {}, \
         {} edges, {:.1} ms, {:.2} MTEPS ({})",
        opts.mode_line(),
        opts.algorithm,
        opts.direction_note(),
        out.num_reached(),
        g.num_vertices(),
        out.depth(),
        edges,
        secs * 1e3,
        edges as f64 / secs / 1e6,
        if validate {
            "validated"
        } else {
            "not validated"
        },
    );
    if !stats.is_empty() {
        let loaned: u64 = stats.iter().map(|s| s.loaned_bytes()).sum();
        let copied: u64 = stats.iter().map(|s| s.copied_bytes()).sum();
        report.push_str(&format!(
            "\nwire: loaned_bytes {loaned} copied_bytes {copied}"
        ));
    }
    if let Some(trace) = &opts.trace {
        report.push('\n');
        report.push_str(&trace.write(&traces)?);
    }
    Ok(report)
}

fn cmd_teps(args: &Args) -> Result<String, CliError> {
    let g = load(args)?;
    let opts = SearchOpts::from_args(args)?;
    let num_sources = args.opt_count("sources", 16)?;
    // Each sampled root runs in its own World with its own stats and trace
    // sink: `benchmark_bfs_detailed` keeps the per-search instrumentation
    // namespaced by source, and the distributed runners' internal
    // barrier-to-barrier seconds feed the TEPS statistics (the harness
    // timer would otherwise fold World setup/teardown into search time).
    let (report, details) = run_reporting_faults(&opts.faults, || {
        Ok(dmbfs_bfs::teps::benchmark_bfs_detailed(
            &g,
            num_sources,
            5,
            |s| {
                let (out, seconds, traces, _) = opts.search(&g, s);
                (out, seconds, traces)
            },
        ))
    })?;
    let mut out = format!(
        "{}\nalgorithm {}{}: {} sources, {:.2} MTEPS aggregate, \
         {:.2} MTEPS harmonic mean, {:.1} ms mean search time",
        opts.mode_line(),
        opts.algorithm,
        opts.direction_note(),
        report.runs.len(),
        report.mteps(),
        report.harmonic_mean_teps / 1e6,
        report.mean_seconds * 1e3,
    );
    if let Some(trace) = &opts.trace {
        // Searches ran sequentially from a per-search epoch; lay them end
        // to end (1 ms apart) on one timeline before exporting.
        let runs: Vec<Vec<RankTrace>> = details.into_iter().map(|(_, t)| t).collect();
        let merged = dmbfs_trace::merge_sequential(&runs, 1_000_000);
        out.push('\n');
        out.push_str(&trace.write(&merged)?);
    }
    Ok(out)
}

fn cmd_convert(args: &Args) -> Result<String, CliError> {
    let g_path = args.input_file()?;
    let to = args.require("to")?;
    let out = args.require("out")?;
    let el = if g_path.ends_with(".mtx") {
        io::read_matrix_market(std::fs::File::open(&g_path)?)?
    } else {
        io::load_binary(&g_path)?
    };
    match to.as_str() {
        "bin" => io::save_binary(&el, &out)?,
        "mm" => io::write_matrix_market(&el, std::fs::File::create(&out)?)?,
        other => return Err(err(format!("unknown target format '{other}'"))),
    }
    Ok(format!("wrote {out} ({} edges) as {to}", el.len()))
}

/// Splits a `--flag a,b,c` list, trimming and dropping empty entries.
fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// One cell of the chaos-matrix ledger: what was injected, how the run
/// ended, and whether the failure report carried a typed root cause that
/// named the injected rank.
#[derive(Serialize)]
struct ChaosCell {
    algorithm: String,
    kind: String,
    rank: usize,
    level: i64,
    /// Traversal-direction policy the cell ran under. Hybrid cells route
    /// the fault through the bottom-up path's `allgatherv_wire` bitmap
    /// broadcast instead of the top-down alltoallv exchange.
    direction: String,
    detection: String,
    typed: bool,
    named_rank: bool,
    collective: Option<String>,
    millis: f64,
    detail: String,
}

/// The `results/chaos_matrix.json` document: sweep parameters, one row per
/// grid cell, and the detection tallies the CI smoke job asserts on.
#[derive(Serialize)]
struct ChaosMatrix {
    scale: u32,
    edge_factor: u64,
    ranks: usize,
    source: u64,
    seed: u64,
    timeout_secs: u64,
    delay_ms: u64,
    total_cells: usize,
    typed: usize,
    named_rank: usize,
    untyped_watchdogs: usize,
    completed: usize,
    typed_rate: f64,
    cells: Vec<ChaosCell>,
}

/// How one chaos cell ended. `typed` means the panic payload was a
/// structured report ([`InjectedFault`], [`FailStopExit`], or
/// [`VerifyFailure`]) rather than a bare watchdog string; `named_rank`
/// means that report pointed at the rank the fault was actually injected
/// into.
struct CellOutcome {
    detection: &'static str,
    typed: bool,
    named_rank: bool,
    collective: Option<String>,
    detail: String,
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or_default().to_string()
}

/// Classifies the panic payload a chaos cell died with. Mirrors the
/// priority order of the runtime's own root-cause selection: an injected
/// payload is the ground truth, a structured board diagnostic is a
/// detection, and a bare watchdog string is an escape (the fault was
/// noticed, but not typed).
fn classify_payload(payload: &(dyn std::any::Any + Send), injected: usize) -> CellOutcome {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        return CellOutcome {
            detection: "injected-panic",
            typed: true,
            named_rank: f.rank == injected,
            collective: Some(f.collective.name().to_string()),
            detail: f.to_string(),
        };
    }
    if let Some(f) = payload.downcast_ref::<FailStopExit>() {
        return CellOutcome {
            detection: "injected-failstop",
            typed: true,
            named_rank: f.0.rank == injected,
            collective: Some(f.0.collective.name().to_string()),
            detail: f.0.to_string(),
        };
    }
    if let Some(f) = payload.downcast_ref::<VerifyFailure>() {
        // Name the collective the group was parked in: prefer a pending op
        // at the failure epoch, then whatever the detecting rank recorded,
        // then any recorded op at all.
        let collective = f
            .pending
            .iter()
            .flatten()
            .find(|op| op.epoch == f.epoch)
            .or_else(|| {
                f.labels
                    .iter()
                    .position(|&w| w == f.detected_by)
                    .and_then(|local| f.pending.get(local).and_then(Option::as_ref))
            })
            .or_else(|| f.pending.iter().flatten().next())
            .map(|op| op.kind.to_string());
        let (detection, named_rank) = match f.kind {
            FailureKind::Corruption => ("verify-corruption", f.corrupt_source == Some(injected)),
            FailureKind::Watchdog => ("verify-watchdog", f.laggards().contains(&injected)),
            FailureKind::Mismatch => ("verify-mismatch", f.laggards().contains(&injected)),
        };
        return CellOutcome {
            detection,
            typed: true,
            named_rank,
            collective,
            detail: first_line(&f.to_string()),
        };
    }
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    let detection = if msg.contains("collective watchdog") {
        "watchdog-untyped"
    } else {
        "panic-other"
    };
    CellOutcome {
        detection,
        typed: false,
        named_rank: false,
        collective: None,
        detail: first_line(&msg),
    }
}

/// `dmbfs chaos`: sweep the deterministic fault grid — algorithm × fault
/// kind × injected rank × BFS level × traversal direction — over one
/// internally generated R-MAT instance, always with a short rendezvous
/// watchdog, and ledger how every cell was detected.
/// See docs/fault-injection.md.
fn cmd_chaos(args: &Args) -> Result<String, CliError> {
    let scale = args.opt_scale(12)?;
    let ef = args.opt_u64("edge-factor", 16)?;
    let ranks = args.opt_u64("ranks", 4)? as usize;
    if ranks < 2 {
        return Err(err(
            "--ranks must be at least 2: chaos injects into a peer group",
        ));
    }
    let seed = args.opt_u64("seed", 1)?;
    let timeout_secs = args.opt_u64("timeout-secs", 2)?;
    if timeout_secs == 0 {
        return Err(err("--timeout-secs must be positive"));
    }
    // Long enough that every delay fault outlives the watchdog, so
    // the delayed rank is reported as the laggard instead of just slowing
    // the run down.
    let delay_ms = args.opt_u64("delay-ms", timeout_secs * 1000 + 500)?;
    let out_path = args.opt_str("out", "results/chaos_matrix.json");

    let algorithms = split_list(&args.opt_str("algorithms", "1d,2d"));
    for a in &algorithms {
        if !matches!(a.as_str(), "1d" | "2d") {
            return Err(err(format!(
                "--algorithms expects 1d|2d entries, got '{a}'"
            )));
        }
    }
    if algorithms.is_empty() {
        return Err(err("--algorithms must name at least one of 1d,2d"));
    }
    if algorithms.iter().any(|a| a == "2d") && Grid2D::closest_square(ranks).size() != ranks {
        return Err(err(format!(
            "--ranks {ranks} does not factor into a 2D grid; pick a rank count the \
             closest-square decomposition keeps whole (e.g. 4) so the injected world \
             ranks exist in both algorithms"
        )));
    }
    let kinds = split_list(&args.opt_str("kinds", "panic,failstop,delay,corrupt"));
    for k in &kinds {
        if !matches!(k.as_str(), "panic" | "failstop" | "delay" | "corrupt") {
            return Err(err(format!(
                "--kinds expects panic|failstop|delay|corrupt entries, got '{k}'"
            )));
        }
    }
    if kinds.is_empty() {
        return Err(err("--kinds must name at least one fault kind"));
    }
    let default_ranks = format!("0,{}", ranks - 1);
    let mut inject_ranks = Vec::new();
    for t in split_list(&args.opt_str("inject-ranks", &default_ranks)) {
        let r: usize = t
            .parse()
            .map_err(|_| err(format!("--inject-ranks expects rank numbers, got '{t}'")))?;
        if r >= ranks {
            return Err(err(format!(
                "--inject-ranks {r} out of range (P = {ranks})"
            )));
        }
        if !inject_ranks.contains(&r) {
            inject_ranks.push(r);
        }
    }
    let mut levels = Vec::new();
    for t in split_list(&args.opt_str("levels", "1,2")) {
        let l: i64 = t
            .parse()
            .map_err(|_| err(format!("--levels expects level numbers, got '{t}'")))?;
        levels.push(l);
    }
    if inject_ranks.is_empty() || levels.is_empty() {
        return Err(err("--inject-ranks and --levels must be non-empty"));
    }
    // Direction slices: top-down exercises the alltoallv exchange, hybrid
    // additionally routes levels through the bitmap-broadcast/bottom-up
    // path, so faults landing there get detection coverage too.
    let mut directions = Vec::new();
    for t in split_list(&args.opt_str("directions", "topdown")) {
        let d: DirectionMode = t.parse().map_err(err)?;
        if !directions.contains(&d) {
            directions.push(d);
        }
    }
    if directions.is_empty() {
        return Err(err("--directions must name at least one direction"));
    }
    if directions.iter().any(|&d| d != DirectionMode::TopDown)
        && algorithms.iter().any(|a| a == "2d")
    {
        return Err(err(
            "--directions beyond topdown require --algorithms 1d: only the 1D \
             driver has a distributed bottom-up step",
        ));
    }

    let mut el = rmat(&RmatConfig::graph500_ef(scale, ef, seed));
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xD5BF);
    el = perm.apply_edge_list(&el);
    let g = CsrGraph::from_edge_list(&el);
    let source = sample_sources(&g, 1, 7)
        .first()
        .copied()
        .ok_or_else(|| err("generated graph has no usable source"))?;

    let timeout = Duration::from_secs(timeout_secs);
    let total =
        algorithms.len() * kinds.len() * inject_ranks.len() * levels.len() * directions.len();
    let mut report = String::new();
    writeln!(
        report,
        "chaos: R-MAT scale {scale} (edge factor {ef}), {ranks} ranks, source {source}"
    )
    .unwrap();
    writeln!(
        report,
        "grid: {} algorithm(s) x {} kind(s) x {} rank(s) x {} level(s) \
         x {} direction(s) = {total} cells, watchdog {timeout_secs} s",
        algorithms.len(),
        kinds.len(),
        inject_ranks.len(),
        levels.len(),
        directions.len(),
    )
    .unwrap();

    // Every cell deliberately kills one rank, so the default panic hook
    // would print a banner per cell; silence it for the sweep and restore
    // it afterwards.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut cells: Vec<ChaosCell> = Vec::new();
    let mut cell_idx = 0u64;
    for alg in &algorithms {
        for kind_s in &kinds {
            for &inj_rank in &inject_ranks {
                for &level in &levels {
                    for &dir in &directions {
                        cell_idx += 1;
                        let kind = match kind_s.as_str() {
                            "panic" => FaultKind::Panic,
                            "failstop" => FaultKind::FailStop,
                            "delay" => FaultKind::Delay { millis: delay_ms },
                            _ => FaultKind::CorruptWire {
                                seed: seed ^ cell_idx.wrapping_mul(0x9E37_79B9),
                            },
                        };
                        let plan = FaultPlan::none().with_fault(FaultSpec {
                            rank: inj_rank,
                            trigger: FaultTrigger::AtLevel(level),
                            collective: None,
                            kind,
                        });
                        let t0 = Instant::now();
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            if alg == "1d" {
                                let cfg = Bfs1dConfig::flat(ranks)
                                    .with_direction(dir)
                                    .with_watchdog(timeout)
                                    .with_faults(plan);
                                bfs1d_run(&g, source, &cfg).output
                            } else {
                                let cfg = Bfs2dConfig::flat(Grid2D::closest_square(ranks))
                                    .with_watchdog(timeout)
                                    .with_faults(plan);
                                bfs2d_run(&g, source, &cfg).output
                            }
                        }));
                        let millis = t0.elapsed().as_secs_f64() * 1e3;
                        let outcome = match &result {
                            Ok(_) => CellOutcome {
                                detection: "completed",
                                typed: false,
                                named_rank: false,
                                collective: None,
                                detail: "run finished; the scheduled fault never fired".to_string(),
                            },
                            Err(payload) => classify_payload(payload.as_ref(), inj_rank),
                        };
                        writeln!(
                            report,
                            "  {alg:>2} {kind_s:<8} r{inj_rank} level{level} {:<8} \
                             -> {:<18} [{}{}] {millis:.0} ms",
                            dir.name(),
                            outcome.detection,
                            if outcome.named_rank {
                                "rank named"
                            } else {
                                "rank NOT named"
                            },
                            match &outcome.collective {
                                Some(c) => format!(", {c}"),
                                None => String::new(),
                            },
                        )
                        .unwrap();
                        cells.push(ChaosCell {
                            algorithm: alg.clone(),
                            kind: kind_s.clone(),
                            rank: inj_rank,
                            level,
                            direction: dir.name().to_string(),
                            detection: outcome.detection.to_string(),
                            typed: outcome.typed,
                            named_rank: outcome.named_rank,
                            collective: outcome.collective,
                            millis,
                            detail: outcome.detail,
                        });
                    }
                }
            }
        }
    }
    std::panic::set_hook(prev_hook);

    let typed = cells.iter().filter(|c| c.typed).count();
    let named_rank = cells.iter().filter(|c| c.named_rank).count();
    let untyped_watchdogs = cells
        .iter()
        .filter(|c| c.detection == "watchdog-untyped")
        .count();
    let completed = cells.iter().filter(|c| c.detection == "completed").count();
    let matrix = ChaosMatrix {
        scale,
        edge_factor: ef,
        ranks,
        source,
        seed,
        timeout_secs,
        delay_ms,
        total_cells: cells.len(),
        typed,
        named_rank,
        untyped_watchdogs,
        completed,
        typed_rate: typed as f64 / cells.len().max(1) as f64,
        cells,
    };
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(&matrix)
        .map_err(|e| err(format!("ledger serialization failed: {e:?}")))?;
    std::fs::write(&out_path, json)?;
    writeln!(
        report,
        "detection: {typed}/{} typed, {named_rank}/{} named the injected rank; \
         {untyped_watchdogs} untyped watchdog(s), {completed} never-fired cell(s)",
        matrix.total_cells, matrix.total_cells,
    )
    .unwrap();
    writeln!(report, "ledger: {out_path}").unwrap();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        parse_args(parts.iter().map(|s| s.to_string())).unwrap()
    }

    /// A fresh directory per call: tests run on parallel threads and each
    /// removes its directory when done, so they must not share one.
    fn tmpdir() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dmbfs-cli-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parser_splits_options_and_positionals() {
        let a = args(&["bfs", "graph.bin", "--ranks", "8", "--algorithm", "1d"]);
        assert_eq!(a.command, "bfs");
        assert_eq!(a.positional, vec!["graph.bin"]);
        assert_eq!(a.options["ranks"], "8");
        assert_eq!(a.options["algorithm"], "1d");
    }

    #[test]
    fn parser_rejects_missing_value() {
        let result = parse_args(["bfs".to_string(), "--ranks".to_string()]);
        assert!(result.is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_stats_bfs_components_pipeline() {
        let dir = tmpdir();
        let file = dir.join("g.bin");
        let file_s = file.to_str().unwrap();

        let msg = run(&args(&[
            "generate", "--model", "rmat", "--scale", "9", "--seed", "3", "--out", file_s,
        ]))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let stats = run(&args(&["stats", file_s])).unwrap();
        assert!(stats.contains("vertices            512"), "{stats}");
        assert!(stats.contains("components"), "{stats}");

        for algorithm in ["serial", "shared", "direction", "1d", "2d"] {
            let msg = run(&args(&[
                "bfs",
                file_s,
                "--algorithm",
                algorithm,
                "--ranks",
                "4",
            ]))
            .unwrap();
            assert!(msg.contains("validated"), "{algorithm}: {msg}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_reports_effective_flat_and_hybrid_mode() {
        let dir = tmpdir();
        let file = dir.join("mode.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "8", "--seed", "5", "--out", file_s,
        ]))
        .unwrap();

        let flat = run(&args(&["bfs", file_s, "--algorithm", "1d", "--ranks", "4"])).unwrap();
        assert!(
            flat.contains("mode flat: 4 ranks x 1 thread(s)/rank"),
            "{flat}"
        );

        let hybrid = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "2d",
            "--ranks",
            "4",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(
            hybrid.contains("mode hybrid: 4 ranks (2x2 grid) x 2 thread(s)/rank"),
            "{hybrid}"
        );

        let serial = run(&args(&["bfs", file_s, "--algorithm", "serial"])).unwrap();
        assert!(serial.contains("mode serial: single process"), "{serial}");

        let teps = run(&args(&[
            "teps",
            file_s,
            "--algorithm",
            "1d",
            "--ranks",
            "2",
            "--threads",
            "2",
            "--sources",
            "2",
        ]))
        .unwrap();
        assert!(
            teps.contains("mode hybrid: 2 ranks x 2 thread(s)/rank"),
            "{teps}"
        );

        assert!(run(&args(&["bfs", file_s, "--threads", "0"])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn convert_round_trips_through_matrix_market() {
        let dir = tmpdir();
        let bin = dir.join("c.bin");
        let mm = dir.join("c.mtx");
        let back = dir.join("c2.bin");
        run(&args(&[
            "generate",
            "--model",
            "er",
            "--scale",
            "7",
            "--out",
            bin.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "convert",
            bin.to_str().unwrap(),
            "--to",
            "mm",
            "--out",
            mm.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "convert",
            mm.to_str().unwrap(),
            "--to",
            "bin",
            "--out",
            back.to_str().unwrap(),
        ]))
        .unwrap();
        let a = io::load_binary(&bin).unwrap();
        let mut b = io::load_binary(&back).unwrap();
        let mut a2 = a.clone();
        a2.dedup();
        b.dedup();
        assert_eq!(a2, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_rejects_bad_source() {
        let dir = tmpdir();
        let file = dir.join("s.bin");
        run(&args(&[
            "generate",
            "--model",
            "rmat",
            "--scale",
            "7",
            "--out",
            file.to_str().unwrap(),
        ]))
        .unwrap();
        let result = run(&args(&[
            "bfs",
            file.to_str().unwrap(),
            "--source",
            "999999",
        ]));
        assert!(result.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_codec_and_sieve_flags() {
        // Adaptive encoding with the sieve is the only wire policy; the
        // flags that chose another fail like any unknown option (exit 2).
        let (dir, file) = small_graph();
        for (flag, value) in [("--codec", "raw"), ("--sieve", "false")] {
            let e = run(&args(&["bfs", &file, flag, value])).unwrap_err().0;
            assert!(
                e.contains(&format!("unknown option {flag} for `bfs`")),
                "{flag}: {e}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_trace_flags_write_both_formats() {
        let dir = tmpdir();
        let file = dir.join("tr.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "8", "--out", file_s,
        ]))
        .unwrap();

        let chrome = dir.join("tr.chrome.json");
        let msg = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "2d",
            "--ranks",
            "4",
            "--trace",
            chrome.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(msg.contains("trace: "), "{msg}");
        let doc = std::fs::read_to_string(&chrome).unwrap();
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        match &v["traceEvents"] {
            serde_json::Value::Seq(events) => assert!(events.len() > 4, "{msg}"),
            other => panic!("traceEvents must be an array, got {other:?}"),
        }

        let jsonl = dir.join("tr.jsonl");
        run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "1d",
            "--ranks",
            "4",
            "--trace",
            jsonl.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]))
        .unwrap();
        let doc = std::fs::read_to_string(&jsonl).unwrap();
        let traces = dmbfs_trace::from_jsonl(&doc).unwrap();
        assert_eq!(traces.len(), 4);
        assert!(traces.iter().all(|t| !t.spans.is_empty()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_flags_reject_bad_combinations() {
        let dir = tmpdir();
        let file = dir.join("trbad.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "7", "--out", file_s,
        ]))
        .unwrap();
        let out = dir.join("t.json");
        let out_s = out.to_str().unwrap();

        // --trace-format without --trace
        let bad = run(&args(&["bfs", file_s, "--trace-format", "chrome"]));
        assert!(bad.unwrap_err().0.contains("requires --trace"));
        // unknown format
        let bad = run(&args(&[
            "bfs",
            file_s,
            "--trace",
            out_s,
            "--trace-format",
            "xml",
        ]));
        assert!(bad.unwrap_err().0.contains("chrome|jsonl"));
        // tracing a single-process algorithm
        let bad = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "serial",
            "--trace",
            out_s,
        ]));
        assert!(bad.unwrap_err().0.contains("distributed algorithm"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn teps_trace_merges_searches_on_one_timeline() {
        let dir = tmpdir();
        let file = dir.join("tt.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "8", "--out", file_s,
        ]))
        .unwrap();
        let jsonl = dir.join("tt.jsonl");
        let msg = run(&args(&[
            "teps",
            file_s,
            "--algorithm",
            "1d",
            "--ranks",
            "2",
            "--sources",
            "2",
            "--trace",
            jsonl.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]))
        .unwrap();
        assert!(msg.contains("MTEPS"), "{msg}");
        let traces = dmbfs_trace::from_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
        assert_eq!(traces.len(), 2, "merged down to one trace per rank");
        for t in &traces {
            let searches = t
                .spans
                .iter()
                .filter(|s| s.kind == dmbfs_trace::SpanKind::Search)
                .count();
            assert_eq!(searches, 2, "both sampled roots present in rank {}", t.rank);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_fault_flag_reports_the_injected_rank() {
        let dir = tmpdir();
        let file = dir.join("fault.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "8", "--out", file_s,
        ]))
        .unwrap();

        // An injected panic surfaces as a readable error naming the rank.
        let e = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "1d",
            "--ranks",
            "4",
            "--fault",
            "panic@r2:op3",
        ]))
        .unwrap_err()
        .0;
        assert!(e.contains("fault detected"), "{e}");
        assert!(e.contains("injected panic at rank 2"), "{e}");

        // Corruption needs no extra flag: the armed plan checksums every
        // wire payload, and the receivers convict the sender.
        let e = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "1d",
            "--fault",
            "corrupt=7@r1:level1",
        ]))
        .unwrap_err()
        .0;
        assert!(e.contains("fault detected: wire corruption"), "{e}");
        assert!(e.contains("payload from rank 1"), "{e}");

        // Faults are gated to distributed algorithms, like --trace.
        let e = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "serial",
            "--fault",
            "panic@r0:op1",
        ]))
        .unwrap_err()
        .0;
        assert!(e.contains("distributed algorithm"), "{e}");

        // Malformed specs are rejected at parse time.
        assert!(run(&args(&["bfs", file_s, "--fault", "explode@r0:op1"])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_sweep_detects_every_injected_fault() {
        let dir = tmpdir();
        let out = dir.join("chaos.json");
        let out_s = out.to_str().unwrap();
        let msg = run(&args(&[
            "chaos",
            "--scale",
            "8",
            "--ranks",
            "4",
            "--algorithms",
            "1d",
            "--kinds",
            "panic,corrupt",
            "--inject-ranks",
            "1",
            "--levels",
            "1",
            "--timeout-secs",
            "1",
            "--out",
            out_s,
        ]))
        .unwrap();
        // 2 kinds, one cell each.
        assert!(msg.contains("2/2 typed"), "{msg}");
        assert!(msg.contains("0 untyped watchdog(s)"), "{msg}");

        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(v["total_cells"] == 2i64, "{v:?}");
        assert!(v["typed"] == 2i64, "{v:?}");
        assert!(v["named_rank"] == 2i64, "{v:?}");
        assert!(v["untyped_watchdogs"] == 0i64, "{v:?}");
        assert!(v["typed_rate"] == 1.0, "{v:?}");
        assert!(v["cells"][0]["detection"] == "injected-panic", "{v:?}");
        assert!(v["cells"][1]["detection"] == "verify-corruption", "{v:?}");

        // Flag validation.
        assert!(run(&args(&["chaos", "--kinds", "meteor"])).is_err());
        assert!(run(&args(&["chaos", "--ranks", "1"])).is_err());
        assert!(run(&args(&["chaos", "--inject-ranks", "9"])).is_err());
        assert!(run(&args(&["chaos", "--algorithms", "3d"])).is_err());
        assert!(run(&args(&["chaos", "--timeout-secs", "0"])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bfs_direction_flag_runs_and_is_gated_to_1d() {
        let dir = tmpdir();
        let file = dir.join("dir.bin");
        let file_s = file.to_str().unwrap();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "9", "--out", file_s,
        ]))
        .unwrap();

        for direction in ["topdown", "bottomup", "hybrid"] {
            let msg = run(&args(&[
                "bfs",
                file_s,
                "--algorithm",
                "1d",
                "--ranks",
                "4",
                "--direction",
                direction,
            ]))
            .unwrap();
            assert!(msg.contains("validated"), "{direction}: {msg}");
            assert!(
                msg.contains(&format!("algorithm 1d direction {direction}")),
                "{direction}: {msg}"
            );
        }

        // Hybrid composes with the rest of the exchange/observer stack.
        let traced = dir.join("dir.jsonl");
        let msg = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "1d",
            "--ranks",
            "4",
            "--direction",
            "hybrid",
            "--trace",
            traced.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]))
        .unwrap();
        assert!(msg.contains("validated"), "{msg}");
        let traces = dmbfs_trace::from_jsonl(&std::fs::read_to_string(&traced).unwrap()).unwrap();
        assert!(
            traces[0]
                .spans
                .iter()
                .any(|s| s.kind == dmbfs_trace::SpanKind::Direction),
            "hybrid trace carries per-level direction spans"
        );

        // Only the 1D driver has a bottom-up step.
        for alg in ["serial", "shared", "direction", "2d"] {
            let e = run(&args(&[
                "bfs",
                file_s,
                "--algorithm",
                alg,
                "--ranks",
                "4",
                "--direction",
                "hybrid",
            ]))
            .unwrap_err()
            .0;
            assert!(e.contains("requires the 1d algorithm"), "{alg}: {e}");
        }
        // ...but an explicit --direction topdown is a no-op everywhere.
        let msg = run(&args(&[
            "bfs",
            file_s,
            "--algorithm",
            "2d",
            "--ranks",
            "4",
            "--direction",
            "topdown",
        ]))
        .unwrap();
        assert!(msg.contains("validated"), "{msg}");
        assert!(run(&args(&["bfs", file_s, "--direction", "sideways"])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_hybrid_direction_faults_in_bitmap_broadcast_are_typed() {
        let dir = tmpdir();
        let out = dir.join("chaos-dir.json");
        let out_s = out.to_str().unwrap();
        // Forced bottom-up from level 1 on: the first collective at
        // level ≥ 1 is the bitmap-broadcast allgather (or the heuristic
        // allreduce), so the injected faults land inside the bottom-up
        // machinery rather than the alltoallv exchange.
        let msg = run(&args(&[
            "chaos",
            "--scale",
            "8",
            "--ranks",
            "4",
            "--algorithms",
            "1d",
            "--kinds",
            "panic,corrupt",
            "--inject-ranks",
            "2",
            "--levels",
            "1",
            "--directions",
            "bottomup,hybrid",
            "--timeout-secs",
            "1",
            "--out",
            out_s,
        ]))
        .unwrap();
        assert!(msg.contains("4/4 typed"), "{msg}");
        assert!(msg.contains("4/4 named the injected rank"), "{msg}");

        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(v["typed"] == 4i64, "{v:?}");
        assert!(v["named_rank"] == 4i64, "{v:?}");
        let cells = match &v["cells"] {
            serde_json::Value::Seq(cells) => cells,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert_eq!(cells.len(), 4);
        for c in cells {
            assert!(
                c["direction"] == "bottomup" || c["direction"] == "hybrid",
                "{c:?}"
            );
            assert!(c["typed"] == true, "{c:?}");
            assert!(c["named_rank"] == true, "{c:?}");
        }
        // At least one cell names the bitmap broadcast's collective.
        assert!(
            cells
                .iter()
                .any(|c| c["collective"] == "allgatherv_wire" || c["collective"] == "allgatherv"),
            "some fault should be pinned to the bottom-up allgather: {cells:?}"
        );

        // hybrid directions are rejected when the sweep includes 2d.
        let e = run(&args(&[
            "chaos",
            "--scale",
            "8",
            "--ranks",
            "4",
            "--directions",
            "hybrid",
        ]))
        .unwrap_err()
        .0;
        assert!(e.contains("--algorithms 1d"), "{e}");
        assert!(run(&args(&["chaos", "--directions", "sideways"])).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn teps_command_reports_rates() {
        let dir = tmpdir();
        let file = dir.join("t.bin");
        run(&args(&[
            "generate",
            "--model",
            "rmat",
            "--scale",
            "8",
            "--out",
            file.to_str().unwrap(),
        ]))
        .unwrap();
        let msg = run(&args(&[
            "teps",
            file.to_str().unwrap(),
            "--sources",
            "3",
            "--algorithm",
            "1d",
        ]))
        .unwrap();
        assert!(msg.contains("MTEPS"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes a scale-7 R-MAT graph into a fresh directory.
    fn small_graph() -> (std::path::PathBuf, String) {
        let dir = tmpdir();
        let file = dir.join("g.bin").to_str().unwrap().to_string();
        run(&args(&[
            "generate", "--model", "rmat", "--scale", "7", "--out", &file,
        ]))
        .unwrap();
        (dir, file)
    }

    #[test]
    fn bfs_and_teps_reject_bad_flags_before_searching() {
        let (dir, file) = small_graph();
        let out = dir.join("t.json");
        let out = out.to_str().unwrap();
        for (flags, needle) in [
            (&["--algorithm", "bogus"][..], "unknown algorithm 'bogus'"),
            (
                &["--algorithm", "serial", "--trace", out],
                "--trace requires",
            ),
            (
                &["--algorithm", "shared", "--fault", "panic@r0:op1"],
                "--fault requires",
            ),
            (
                &["--algorithm", "2d", "--direction", "hybrid"],
                "requires the 1d algorithm",
            ),
        ] {
            for (cmd, own) in [("bfs", &[][..]), ("teps", &["--sources", "2"][..])] {
                let mut argv = vec![cmd, file.as_str()];
                argv.extend_from_slice(own);
                argv.extend_from_slice(flags);
                let e = run(&args(&argv)).unwrap_err().0;
                assert!(e.contains(needle), "{cmd} {flags:?}: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boolean_flags_take_only_true_or_false() {
        let (dir, file) = small_graph();
        let out = dir.join("p.bin");
        let out = out.to_str().unwrap();
        for value in ["maybe", "nope"] {
            let e = run(&args(&["bfs", &file, "--validate", value]))
                .unwrap_err()
                .0;
            assert!(e.contains("--validate") && e.contains(value), "{e}");
            let generate = [
                "generate",
                "--scale",
                "5",
                "--prepared",
                value,
                "--out",
                out,
            ];
            let e = run(&args(&generate)).unwrap_err().0;
            assert!(e.contains("--prepared") && e.contains(value), "{e}");
            assert!(!std::path::Path::new(out).exists(), "nothing written");
        }
        let msg = run(&args(&["bfs", &file, "--validate", "false"])).unwrap();
        assert!(msg.contains("(not validated)"), "{msg}");
        assert!(run(&args(&["bfs", &file])).unwrap().contains("(validated)"));
        let generate = [
            "generate",
            "--scale",
            "5",
            "--prepared",
            "false",
            "--out",
            out,
        ];
        assert!(run(&args(&generate)).unwrap().contains("prepared = false"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_collectives_are_no_fault_sites() {
        let (dir, file) = small_graph();
        for name in ["broadcast", "gather", "gatherv", "sendrecv"] {
            let spec = format!("panic@r0:op1:coll={name}");
            let argv = [
                "bfs",
                &file,
                "--algorithm",
                "1d",
                "--ranks",
                "2",
                "--fault",
                &spec,
            ];
            let e = run(&args(&argv)).unwrap_err().0;
            assert!(e.contains(&format!("unknown collective `{name}`")), "{e}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Asserts `argv` on the shared small graph fails naming `--flag`.
    fn assert_zero_count_rejected(argv: &[&str], flag: &str) {
        let (dir, file) = small_graph();
        let mut full = vec![argv[0], file.as_str()];
        full.extend_from_slice(&argv[1..]);
        let e = run(&args(&full)).unwrap_err().0;
        assert!(e.contains(flag) && e.contains("positive"), "{full:?}: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_ranks_is_a_flag_error_for_1d() {
        for cmd in ["bfs", "teps"] {
            assert_zero_count_rejected(&[cmd, "--algorithm", "1d", "--ranks", "0"], "--ranks");
        }
    }

    #[test]
    fn zero_ranks_is_a_flag_error_for_2d() {
        for cmd in ["bfs", "teps"] {
            assert_zero_count_rejected(&[cmd, "--algorithm", "2d", "--ranks", "0"], "--ranks");
        }
    }

    #[test]
    fn zero_sources_is_a_flag_error() {
        assert_zero_count_rejected(
            &["teps", "--algorithm", "1d", "--sources", "0"],
            "--sources",
        );
    }

    #[test]
    fn unknown_options_are_rejected_naming_them() {
        let (dir, file) = small_graph();
        // A typo used to run on the default 4 ranks and exit 0.
        let e = run(&args(&[
            "bfs",
            &file,
            "--algorithm",
            "1d",
            "--rank",
            "8",
            "--bogus",
            "yes",
        ]))
        .unwrap_err()
        .0;
        assert!(
            e.contains("unknown option --bogus, --rank for `bfs`"),
            "{e}"
        );
        // The retired pipeline and verifier flags, and flags of a sibling
        // subcommand.
        for argv in [
            &["bfs", &file, "--overlap", "2"][..],
            &["teps", &file, "--overlap", "2"],
            &["bfs", &file, "--verify", "true"],
            &["teps", &file, "--verify", "true"],
            &["bfs", &file, "--sources", "2"],
            &["teps", &file, "--source", "0"],
            &["chaos", "--overlaps", "0,2"],
            &["generate", "--out", "unused.bin", "--ranks", "4"],
            &["stats", &file, "--algorithm", "1d"],
        ] {
            let e = run(&args(argv)).unwrap_err().0;
            let flag = argv[argv.len() - 2];
            assert!(
                e.contains(&format!("unknown option {flag} ")),
                "{argv:?}: {e}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Asserts `generate` with `extra` flags fails on `--scale` and writes
    /// nothing.
    fn assert_scale_rejected(extra: &[&str]) {
        let dir = tmpdir();
        let file = dir.join("never.bin");
        let mut argv = vec!["generate", "--out", file.to_str().unwrap()];
        argv.extend_from_slice(extra);
        let e = run(&args(&argv)).unwrap_err().0;
        assert!(e.contains("--scale expects 1..=62"), "{argv:?}: {e}");
        assert!(!file.exists(), "{argv:?} wrote a graph");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn er_scale_past_the_id_width_is_a_flag_error() {
        assert_scale_rejected(&["--model", "er", "--scale", "64"]);
    }

    #[test]
    fn scale_beyond_u32_is_not_truncated() {
        assert_scale_rejected(&["--model", "rmat", "--scale", "4294967297"]);
    }

    #[test]
    fn rmat_scale_64_is_a_flag_error_not_a_panic() {
        assert_scale_rejected(&["--model", "rmat", "--scale", "64"]);
    }
}
