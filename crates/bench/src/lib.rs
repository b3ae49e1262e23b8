//! # dmbfs-bench — regenerates the paper's tables and figures
//!
//! ```text
//! dmbfs-bench reproduce <ID>|all
//! ```
//!
//! Each module of `src/experiments/` is one experiment: a function from
//! the environment knobs to its JSON documents (Figs. 5–8 are the four
//! documents of `strong_scaling`). `reproduce` runs one experiment, or
//! every one in registry order, writes each document to
//! `<result dir>/<name>.json` and prints it as text: every array of
//! objects is a table headed by the objects' field names. EXPERIMENTS.md
//! in the repository root is the paper-vs-measured ledger built from
//! these documents.
//!
//! | exit | meaning |
//! |---|---|
//! | 0 | every selected experiment ran and wrote its documents |
//! | 1 | a headline claim did not hold (`headline_summary` reports a ✗); `all` runs the rest first |
//! | 2 | usage: no command, an unknown ID or a bad knob — nothing runs |
//! | 101 | a correctness assertion inside an experiment failed (a panic) |
//!
//! Experiment modes (per DESIGN.md):
//!
//! * **F — functional**: real execution on the in-process runtime; exact
//!   BFS results (validated), exact communication volumes, measured wall
//!   time.
//! * **M — model**: the calibrated α–β predictor evaluated at the paper's
//!   core counts (512–40 000), which no laptop can execute functionally.
//! * **F+M**: functional runs calibrate and validate the model; the model
//!   extrapolates to paper scale.
//!
//! Environment knobs (all optional; `DMBFS_SCALE` and `DMBFS_SOURCES` are
//! checked before anything runs):
//!
//! * `DMBFS_RESULT_DIR` — where JSON results go (default `results/`).
//! * `DMBFS_SCALE` — override the default functional R-MAT scale (a whole
//!   number in 3..=62).
//! * `DMBFS_SOURCES` — sources per TEPS measurement (default 4 here;
//!   the paper/Graph 500 use ≥ 16 — raise it on a bigger machine).
//!
//! Assertions inside an experiment (comparators agreeing with the subject,
//! the sweep's fingerprint check, the compression gate, …) are correctness
//! checks, not claims: a failing one panics the process (exit 101).

mod experiments;
mod harness;
mod scaling;
mod table;

use experiments::{Experiment, EXPERIMENTS};
use harness::{write_result, Knobs};
use std::process::ExitCode;

const USAGE: &str = "usage: dmbfs-bench reproduce <ID>|all";

/// Runs the command line `args` (without the program name) and returns
/// the exit code of the table above.
pub fn run(args: &[String]) -> ExitCode {
    let (selected, knobs) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("error: {msg}\n{USAGE}\nexperiments: {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };
    let mut failed = 0;
    for exp in selected {
        println!("=== {} — {} ===", exp.id, exp.title);
        let docs = (exp.run)(&knobs);
        let names: Vec<&str> = docs.iter().map(|d| d.name).collect();
        assert_eq!(names, exp.documents, "{} wrote other documents", exp.id);
        for doc in docs {
            print!("{}", table::render(doc.name, &doc.value));
            let path = write_result(doc.name, &doc.value);
            println!("\nresults written to {}\n", path.display());
            failed += doc.failed;
        }
    }
    if failed > 0 {
        eprintln!("{failed} claim(s) did not hold");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The experiments `reproduce <ID>|all` selects, and the knobs.
fn parse_args(args: &[String]) -> Result<(&'static [Experiment], Knobs), String> {
    let [cmd, id] = args else {
        return Err(format!("bad arguments {args:?}"));
    };
    if cmd != "reproduce" {
        return Err(format!("unknown command `{cmd}`"));
    }
    let selected = if id == "all" {
        EXPERIMENTS
    } else {
        let exp = EXPERIMENTS.iter().find(|e| e.id == id);
        std::slice::from_ref(exp.ok_or_else(|| format!("unknown experiment `{id}`"))?)
    };
    Ok((selected, Knobs::from_env()?))
}
