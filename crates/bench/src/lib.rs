//! # dmbfs-bench — harness regenerating every table and figure of the paper
//!
//! One binary per paper figure, table or ablation (see `src/bin/`; Figs.
//! 5–8 are the four rows of `strong_scaling`); each prints the paper's
//! rows/series to stdout and writes machine-readable JSON under
//! `results/` (override with `DMBFS_RESULT_DIR`). EXPERIMENTS.md in the
//! repository root is the paper-vs-measured ledger generated from these
//! runs.
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
//! Environment knobs (all optional; a value that is not a whole number,
//! a scale below 3 or 0 sources ends the binary with exit code 2):
//!
//! * `DMBFS_RESULT_DIR` — where JSON results go (default `results/`).
//! * `DMBFS_SCALE` — override the default functional R-MAT scale.
//! * `DMBFS_SOURCES` — sources per TEPS measurement (default 4 here;
//!   the paper/Graph 500 use ≥ 16 — raise it on a bigger machine).

pub mod figures;
pub mod harness;
pub mod scaling;
pub mod sweep;

pub use harness::*;
