//! Harness-level (algorithm × `RunConfig`) sweep rows — the ledger format
//! behind `bin/sweep.rs`.
//!
//! Both distributed BFS drivers return a `*Run` harvest (output +
//! per-rank stats + per-rank traces + seconds), so one row shape covers
//! bfs-1d and bfs-2d: the run's configuration axes, its
//! measured wall time (min over trials), the wire-byte ledger summed over
//! ranks (logical, wire, loaned, copied — the zero-copy split of
//! `docs/zero-copy.md`), the traced exposed-exchange wall when tracing is
//! on, and an FNV-1a fingerprint of the algorithm output so two sweeps
//! can assert bit-identity without committing whole parent trees.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::CommStats;
use dmbfs_graph::{CsrGraph, VertexId};
use dmbfs_model::imbalance::analyze;
use dmbfs_runtime::RunConfig;
use dmbfs_trace::RankTrace;
use serde::Serialize;

/// One ledger row: a single (algorithm × `RunConfig`) point.
#[derive(Clone, Debug, Serialize)]
pub struct SweepPoint {
    /// `"bfs-1d"` or `"bfs-2d"`.
    pub algorithm: String,
    /// Simulated MPI ranks (grid size for the 2D algorithms).
    pub ranks: usize,
    /// Threads per rank (1 = flat, >1 = hybrid).
    pub threads_per_rank: usize,
    /// Direction policy (`"topdown"` / `"bottomup"` / `"hybrid"`).
    pub direction: String,
    /// Trials run; the row keeps the minimum-wall trial.
    pub trials: usize,
    /// Wall seconds of the timed region, min over trials.
    pub seconds: f64,
    /// Σ logical payload bytes out, over ranks (best trial).
    pub bytes_out: u64,
    /// Σ post-codec wire bytes out, over ranks (best trial).
    pub wire_out: u64,
    /// Σ wire bytes that moved as zero-copy loans (best trial).
    pub loaned_bytes: u64,
    /// Σ wire bytes receivers memcpy'd off the board (best trial).
    pub copied_bytes: u64,
    /// Exposed frontier-exchange wall from the imbalance report, summed
    /// over ranks; 0 when the point ran untraced.
    pub exchange_exposed_ns: u64,
    /// FNV-1a fingerprint of the algorithm output (parents + levels).
    /// Equal fingerprints ⇒ bit-identical results.
    pub output_fingerprint: u64,
}

/// FNV-1a over a little-endian `u64` stream.
pub fn fingerprint_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

fn wire_ledger(stats: &[CommStats]) -> (u64, u64, u64, u64) {
    (
        stats.iter().map(|s| s.bytes_out()).sum(),
        stats.iter().map(|s| s.wire_out()).sum(),
        stats.iter().map(|s| s.loaned_bytes()).sum(),
        stats.iter().map(|s| s.copied_bytes()).sum(),
    )
}

fn exchange_exposed(traces: &[RankTrace]) -> u64 {
    if traces.iter().all(|t| t.spans.is_empty()) {
        0
    } else {
        analyze(traces).total_exchange_exposed_ns
    }
}

/// One trial's harvest, normalized across the two drivers.
struct Trial {
    seconds: f64,
    stats: Vec<CommStats>,
    traces: Vec<RankTrace>,
    fingerprint: u64,
}

/// Runs `trial` `trials` times, keeps the fastest (by `seconds`), and
/// asserts every trial produced the same output fingerprint.
fn best_of(
    algorithm: &str,
    cfg_row: (usize, usize, String),
    trials: usize,
    mut trial: impl FnMut() -> Trial,
) -> SweepPoint {
    assert!(trials > 0);
    let runs: Vec<Trial> = (0..trials).map(|_| trial()).collect();
    let fp = runs[0].fingerprint;
    assert!(
        runs.iter().all(|r| r.fingerprint == fp),
        "{algorithm}: output fingerprint varied across trials"
    );
    let best = runs
        .into_iter()
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .unwrap();
    let (bytes_out, wire_out, loaned_bytes, copied_bytes) = wire_ledger(&best.stats);
    let (ranks, threads_per_rank, direction) = cfg_row;
    SweepPoint {
        algorithm: algorithm.to_string(),
        ranks,
        threads_per_rank,
        direction,
        trials,
        seconds: best.seconds,
        bytes_out,
        wire_out,
        loaned_bytes,
        copied_bytes,
        exchange_exposed_ns: exchange_exposed(&best.traces),
        output_fingerprint: fp,
    }
}

fn run_axes(cfg: &RunConfig) -> (usize, usize, String) {
    (
        cfg.ranks,
        cfg.threads_per_rank,
        cfg.direction.name().to_string(),
    )
}

/// BFS, 1D row-partitioned driver.
pub fn bfs1d_point(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig, trials: usize) -> SweepPoint {
    best_of("bfs-1d", run_axes(cfg), trials, || {
        let run = bfs1d_run(g, source, cfg);
        Trial {
            seconds: run.seconds,
            fingerprint: fingerprint_u64s(
                run.output
                    .parents
                    .iter()
                    .map(|&p| p as u64)
                    .chain(run.output.levels.iter().map(|&l| l as u64)),
            ),
            stats: run.per_rank_stats,
            traces: run.per_rank_trace,
        }
    })
}

/// BFS, 2D grid driver.
pub fn bfs2d_point(g: &CsrGraph, source: VertexId, cfg: &Bfs2dConfig, trials: usize) -> SweepPoint {
    let axes = (cfg.grid.size(), cfg.threads_per_rank, "topdown".to_string());
    best_of("bfs-2d", axes, trials, || {
        let run = bfs2d_run(g, source, cfg);
        Trial {
            seconds: run.seconds,
            fingerprint: fingerprint_u64s(
                run.output
                    .parents
                    .iter()
                    .map(|&p| p as u64)
                    .chain(run.output.levels.iter().map(|&l| l as u64)),
            ),
            stats: run.per_rank_stats,
            traces: run.per_rank_trace,
        }
    })
}
