//! Ablation: distributed direction-optimizing BFS (αβ hybrid on the 1D
//! driver) vs pure top-down, on wall-clock TEPS and wire bytes.
//!
//! The serial heuristic's savings in *edges examined* are asserted by the
//! `dmbfs_bfs::direction` unit tests; this experiment measures what the
//! distributed runtime actually pays. Per cell (rank count × direction)
//! the best of [`TRIALS`] trials is kept. Every trial is validated: the parent tree passes
//! `validate_bfs` and the level array is bit-identical to the serial
//! oracle — the hybrid's win cannot come from doing different work.
//!
//! Expected shape (Beamer et al., SC'12; Buluç et al., arXiv:1705.04590):
//! on a low-diameter R-MAT instance the hybrid runs its two or three
//! mid-traversal levels bottom-up, skipping the bulk of the edge
//! examinations, and beats top-down TEPS on at least one rank count. Wire
//! bytes are recorded per cell as well: the bitmap broadcast costs a dense
//! n-bit frontier per bottom-up level — cheaper than alltoallv'ing the
//! huge mid-traversal frontiers vertex-by-vertex, but a term that grows
//! with n rather than the frontier, so the ledger keeps it visible.

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig, Dist1dRun};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::teps::teps_edges;
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::LevelDirection;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::CsrGraph;
use dmbfs_runtime::DirectionMode;
use serde::Serialize;

/// 1D rank counts swept.
const RANKS: [usize; 2] = [4, 8];
/// Trials per (ranks, direction) cell; each cell keeps its fastest trial.
/// Rank threads share this machine's cores, so single trials are at the
/// mercy of scheduler placement.
const TRIALS: usize = 3;

/// The ablation's own scale default (override: `DMBFS_SCALE`): an R-MAT
/// instance at scale ≥ 16 is big enough that the mid-traversal frontier
/// covers a large fraction of the graph and the α switch actually fires.
const DEFAULT_SCALE: u32 = 16;

/// One (ranks, direction) cell of the sweep.
#[derive(Serialize)]
struct DirectionPoint {
    ranks: usize,
    /// `"topdown"` or `"hybrid"`.
    direction: String,
    /// End-to-end traversal seconds (driver-internal, barrier to barrier).
    seconds: f64,
    mteps: f64,
    /// Σ encoded bytes put on the wire across all ranks and levels —
    /// alltoallv exchanges plus (under hybrid) bitmap broadcasts.
    wire_bytes: u64,
    /// Levels the αβ heuristic ran bottom-up (0 under pure top-down).
    bottom_up_levels: usize,
    total_levels: usize,
}

/// The `results/direction_ablation.json` document.
#[derive(Serialize)]
struct DirectionAblation {
    scale: u32,
    edge_factor: u64,
    source: u64,
    ranks: Vec<usize>,
    trials: usize,
    /// Every trial's parent tree passed `validate_bfs` and reproduced the
    /// serial oracle's level array exactly.
    validated: bool,
    points: Vec<DirectionPoint>,
}

/// Runs one validated trial and folds it into a [`DirectionPoint`].
fn measure(
    g: &CsrGraph,
    source: u64,
    oracle_levels: &[i64],
    ranks: usize,
    direction: DirectionMode,
) -> DirectionPoint {
    let cfg = Bfs1dConfig::flat(ranks).with_direction(direction);
    let trial = |_: usize| -> Dist1dRun {
        let run = bfs1d_run(g, source, &cfg);
        validate_bfs(g, source, &run.output.parents, run.output.levels())
            .expect("distributed parent tree must validate");
        assert_eq!(
            run.output.levels,
            oracle_levels,
            "{} levels must match the serial oracle",
            direction.name()
        );
        run
    };
    let best = (0..TRIALS)
        .map(trial)
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .unwrap();
    let dirs = best.level_directions();
    DirectionPoint {
        ranks,
        direction: direction.name().to_string(),
        seconds: best.seconds,
        mteps: teps_edges(g, &best.output) as f64 / best.seconds / 1e6,
        wire_bytes: best.per_rank_stats.iter().map(|s| s.wire_out()).sum(),
        bottom_up_levels: dirs
            .iter()
            .filter(|&&d| d == LevelDirection::BottomUp)
            .count(),
        total_levels: dirs.len(),
    }
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let scale = knobs.scale_or(DEFAULT_SCALE);
    let g = rmat_graph(scale, 16, 21);
    let source = sample_sources(&g, 1, 3)[0];
    let oracle = serial_bfs(&g, source);

    let mut points = Vec::new();
    for p in RANKS {
        for direction in [DirectionMode::TopDown, DirectionMode::Hybrid] {
            points.push(measure(&g, source, &oracle.levels, p, direction));
        }
    }

    // The heuristic must actually have switched somewhere, or the sweep
    // measured nothing.
    assert!(
        points
            .iter()
            .any(|p| p.direction == "hybrid" && p.bottom_up_levels > 0),
        "the α switch never fired on any hybrid cell"
    );
    // The headline claim: on at least one rank count the hybrid strictly
    // beats pure top-down on TEPS, with identical output (asserted per
    // trial above).
    let improved = RANKS.iter().any(|&p| {
        let at = |dir: &str| {
            points
                .iter()
                .find(|pt| pt.ranks == p && pt.direction == dir)
                .unwrap()
                .mteps
        };
        at("hybrid") > at("topdown")
    });
    assert!(
        improved,
        "hybrid beat pure top-down TEPS on no rank count: {:?}",
        points
            .iter()
            .map(|p| (p.ranks, &p.direction, p.mteps))
            .collect::<Vec<_>>()
    );

    let doc = DirectionAblation {
        scale,
        edge_factor: 16,
        source,
        ranks: RANKS.to_vec(),
        trials: TRIALS,
        validated: true,
        points,
    };
    vec![Doc::new("direction_ablation", &doc)]
}
