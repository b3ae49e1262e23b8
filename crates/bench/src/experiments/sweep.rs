//! Harness-level sweep: one `results/sweep.json` ledger row per
//! (algorithm × `RunConfig`) point, across both distributed BFS drivers —
//! bfs-1d and bfs-2d.
//!
//! The sweep is the cheap end-to-end regression net: both drivers return
//! a `*Run` harvest (output + per-rank stats + per-rank traces +
//! seconds), so one row shape covers both. Every row carries the run's
//! configuration axes, its measured wall time (min over trials), the
//! wire-byte ledger summed over ranks (logical, wire, loaned, copied —
//! the zero-copy split of `docs/zero-copy.md`), the traced
//! exposed-exchange wall, and an FNV-1a fingerprint of the algorithm
//! output, so two sweeps at the same scale assert bit-identity without
//! committing whole parent trees.

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::BfsOutput;
use dmbfs_comm::CommStats;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::{CsrGraph, Grid2D, VertexId};
use dmbfs_model::imbalance::analyze;
use dmbfs_runtime::{DirectionMode, RunConfig};
use dmbfs_trace::RankTrace;
use serde::Serialize;

/// One ledger row: a single (algorithm × `RunConfig`) point.
#[derive(Clone, Debug, Serialize)]
struct SweepPoint {
    /// `"bfs-1d"` or `"bfs-2d"`.
    algorithm: String,
    /// Simulated MPI ranks (grid size for the 2D algorithms).
    ranks: usize,
    /// Threads per rank (1 = flat, >1 = hybrid).
    threads_per_rank: usize,
    /// Direction policy (`"topdown"` / `"bottomup"` / `"hybrid"`).
    direction: String,
    /// Trials run; the row keeps the minimum-wall trial.
    trials: usize,
    /// Wall seconds of the timed region, min over trials.
    seconds: f64,
    /// Σ logical payload bytes out, over ranks (best trial).
    bytes_out: u64,
    /// Σ post-codec wire bytes out, over ranks (best trial).
    wire_out: u64,
    /// Σ wire bytes that moved as zero-copy loans (best trial).
    loaned_bytes: u64,
    /// Σ wire bytes receivers memcpy'd off the board (best trial).
    copied_bytes: u64,
    /// Exposed frontier-exchange wall from the imbalance report, summed
    /// over ranks; 0 when the point ran untraced.
    exchange_exposed_ns: u64,
    /// FNV-1a fingerprint of the algorithm output (parents + levels).
    /// Equal fingerprints ⇒ bit-identical results.
    output_fingerprint: u64,
}

/// FNV-1a over the output's parents then levels, each as a little-endian
/// `u64`.
fn fingerprint(out: &BfsOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in out.parents.iter().chain(&out.levels) {
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
fn bfs1d_point(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig, trials: usize) -> SweepPoint {
    best_of("bfs-1d", run_axes(cfg), trials, || {
        let run = bfs1d_run(g, source, cfg);
        Trial {
            seconds: run.seconds,
            fingerprint: fingerprint(&run.output),
            stats: run.per_rank_stats,
            traces: run.per_rank_trace,
        }
    })
}

/// BFS, 2D grid driver.
fn bfs2d_point(g: &CsrGraph, source: VertexId, cfg: &Bfs2dConfig, trials: usize) -> SweepPoint {
    let axes = (cfg.grid.size(), cfg.threads_per_rank, "topdown".to_string());
    best_of("bfs-2d", axes, trials, || {
        let run = bfs2d_run(g, source, cfg);
        Trial {
            seconds: run.seconds,
            fingerprint: fingerprint(&run.output),
            stats: run.per_rank_stats,
            traces: run.per_rank_trace,
        }
    })
}

/// Trials per point; each row keeps its fastest trial.
const TRIALS: usize = 3;

/// The `results/sweep.json` document.
#[derive(Serialize)]
struct SweepDoc {
    scale: u32,
    edge_factor: u64,
    source: u64,
    trials: usize,
    points: Vec<SweepPoint>,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let scale = knobs.functional_scale();
    let g = rmat_graph(scale, 16, 21);
    let source = sample_sources(&g, 1, 3)[0];

    // bfs-1d axes: direction × flat/hybrid, one move away from the
    // default per point; then bfs-2d on the closest-square grid.
    let base = RunConfig::flat(4).with_trace(true);
    let points = vec![
        bfs1d_point(&g, source, &base, TRIALS),
        bfs1d_point(
            &g,
            source,
            &base.with_direction(DirectionMode::Hybrid),
            TRIALS,
        ),
        bfs1d_point(
            &g,
            source,
            &RunConfig::hybrid(2, 2).with_trace(true),
            TRIALS,
        ),
        bfs2d_point(
            &g,
            source,
            &Bfs2dConfig::flat(Grid2D::new(2, 2)).with_trace(true),
            TRIALS,
        ),
    ];

    // Every 1D top-down point must agree bit-for-bit: the thread pool is
    // a scheduling axis with no license to change the parent tree.
    // (Direction-optimizing and 2D points legitimately pick different —
    // equally valid — parents, so they are excluded; levels equality for
    // those is proptest territory, not the sweep's.)
    let fp0 = points[0].output_fingerprint;
    assert!(
        points
            .iter()
            .filter(|p| p.algorithm == "bfs-1d" && p.direction == "topdown")
            .all(|p| p.output_fingerprint == fp0),
        "1D top-down BFS parent trees diverged across sweep points"
    );

    let doc = SweepDoc {
        scale,
        edge_factor: 16,
        source,
        trials: TRIALS,
        points,
    };
    vec![Doc::new("sweep", &doc)]
}
