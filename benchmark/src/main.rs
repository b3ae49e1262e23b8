//! `dmbfs-benchmark` — the repo's one gated benchmark (see README.md).
//!
//! ```text
//! dmbfs-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                     [--trace 0|1|both] [--smoke] [--out FILE] [--spans DIR]
//! dmbfs-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Each `run` of one workload prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Everything else (provenance, a readable table) goes to stderr.

mod alloc;
mod check;
mod compare;
mod inputs;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use serde_json::{json, Value};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Exit code for bad usage or an output file that cannot be written (1 is
/// "the benchmark ran and a search failed the gate").
const USAGE: u8 = 2;

/// Options of `run`.
pub struct RunOpts {
    /// Workload name, or `all`.
    workload: String,
    /// Seeds the generators and the source sampling.
    seed: u64,
    /// Measuring time per workload and trace mode.
    seconds: f64,
    /// Trace modes to run: `[false]`, `[true]` or both.
    traces: Vec<bool>,
    /// Tiny instances, a handful of searches: proves the plumbing.
    smoke: bool,
    /// Append one JSON record per run to this file.
    out: Option<PathBuf>,
    /// Write Chrome-trace JSON of the spans into this directory.
    spans: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dmbfs-benchmark run [--workload NAME|all] [--seed N] [--seconds S] \
         [--trace 0|1|both] [--smoke] [--out FILE] [--spans DIR]\n       \
         dmbfs-benchmark compare A.jsonl B.jsonl\nworkloads: {}",
        workloads::all().map(|w| w.name).join(" ")
    );
    ExitCode::from(USAGE)
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: "all".into(),
        seed: 21,
        seconds: 0.0,
        traces: vec![false, true],
        smoke: false,
        out: None,
        spans: None,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(value.into()),
            "--spans" => opts.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.seconds = seconds.unwrap_or(if opts.smoke { 0.3 } else { 10.0 });
    if opts.workload != "all" && !workloads::all().iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload {}", opts.workload));
    }
    Ok(opts)
}

/// Removes every `DMBFS_*` variable from the process (the program reads
/// some of them lazily) and returns the names it removed.
fn scrub_environment() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DMBFS_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// First line of a command's stdout, or `None` if it cannot be run.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

/// Host and build facts that every result is read against.
fn provenance(scrubbed: &[String]) -> Value {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = first_line("git", &["rev-parse", "HEAD"]).map(|rev| {
        let dirty = Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .is_ok_and(|o| !o.stdout.is_empty());
        if dirty {
            format!("{rev}-dirty")
        } else {
            rev
        }
    });
    json!({
        "available_parallelism": cores,
        "oversubscribed": (cores < 2),
        "git_rev": (rev.unwrap_or_else(|| "unknown".into())),
        "rustc": (first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        "scrubbed_env": scrubbed
    })
}

/// Appends the `--out` record and writes the `--spans` file of one run.
fn write_outputs(opts: &RunOpts, result: &measure::RunResult, host: &Value) -> std::io::Result<()> {
    if let Some(path) = &opts.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", result.record(host))?;
    }
    if let Some(dir) = &opts.spans {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(result.spans_file_name()), &result.chrome)?;
    }
    Ok(())
}

fn run(opts: &RunOpts) -> ExitCode {
    let scrubbed = scrub_environment();
    let host = provenance(&scrubbed);
    eprintln!(
        "provenance: {}",
        serde_json::to_string(&host).expect("json")
    );
    let mut failed_total = 0;
    for w in workloads::all() {
        if opts.workload != "all" && opts.workload != w.name {
            continue;
        }
        for &traced in &opts.traces {
            let result = measure::run_workload(&w, opts, traced);
            eprintln!("{}", result.table());
            failed_total += result.failed;
            if let Err(e) = write_outputs(opts, &result, &host) {
                eprintln!("error: cannot write the run's output files: {e}");
                return ExitCode::from(USAGE);
            }
            println!("{}", result.result_line());
        }
    }
    ExitCode::from(check::exit_code(failed_total))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        Some((cmd, [a, b])) if cmd == "compare" => compare::run(a.as_ref(), b.as_ref()),
        _ => usage(),
    }
}
