//! Shared machinery for the strong/weak-scaling figures (Figs. 5–11).
//!
//! Each figure combines two ingredients:
//!
//! * a **model series** — the calibrated α–β predictor evaluated at the
//!   paper's core counts for all four algorithm variants, and
//! * a **functional series** — real executions on the in-process runtime at
//!   core counts this machine can hold, which validate the model's
//!   orderings (who wins) and provide exact communication volumes.

use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::teps::teps_edges;
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::CommEvent;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::{CsrGraph, Grid2D, VertexId};
use dmbfs_model::{Algorithm, GraphShape, ScalePredictor};
use serde::Serialize;
use std::sync::OnceLock;

/// Threads per rank used by functional hybrid runs (a stand-in for the
/// machine-specific 4/6-way threading of §6).
const FUNCTIONAL_HYBRID_THREADS: usize = 2;

/// One model-predicted point of a figure series.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct ModelPoint {
    /// Total cores.
    pub(crate) cores: usize,
    /// Algorithm legend name.
    pub(crate) algorithm: String,
    /// Predicted GTEPS.
    pub(crate) gteps: f64,
    /// Predicted communication seconds.
    pub(crate) comm_seconds: f64,
    /// Predicted computation seconds.
    pub(crate) comp_seconds: f64,
    /// Predicted total seconds.
    pub(crate) total_seconds: f64,
}

/// Evaluates all four variants at each core count.
pub(crate) fn model_series(
    pred: &ScalePredictor,
    shape: &GraphShape,
    cores: &[usize],
) -> Vec<ModelPoint> {
    let mut out = Vec::new();
    for &p in cores {
        for alg in Algorithm::ALL {
            let pr = pred.predict(alg, shape, p);
            out.push(ModelPoint {
                cores: p,
                algorithm: alg.name().to_string(),
                gteps: pr.gteps(shape.m_teps),
                comm_seconds: pr.comm(),
                comp_seconds: pr.comp,
                total_seconds: pr.total(),
            });
        }
    }
    out
}

/// One measured point from a functional run.
#[derive(Clone, Debug, Serialize)]
pub(crate) struct FunctionalPoint {
    /// Simulated cores (= ranks × threads).
    pub(crate) cores: usize,
    /// Algorithm legend name.
    pub(crate) algorithm: String,
    /// Mean traversal seconds over the sources.
    pub(crate) seconds: f64,
    /// Measured GTEPS.
    pub(crate) gteps: f64,
    /// Mean wall seconds spent inside collectives (max over ranks per run).
    pub(crate) comm_wall_seconds: f64,
    /// Mean BFS level count.
    pub(crate) levels: f64,
    /// Per-rank event streams of the last source's run (for model replay).
    #[serde(skip)]
    pub(crate) events: Vec<Vec<CommEvent>>,
}

/// Runs `alg` functionally on `cores` simulated cores over `sources`,
/// averaging measurements.
pub(crate) fn run_functional(
    g: &CsrGraph,
    alg: Algorithm,
    cores: usize,
    sources: &[VertexId],
) -> FunctionalPoint {
    assert!(!sources.is_empty());
    let threads = if alg.is_hybrid() {
        FUNCTIONAL_HYBRID_THREADS
    } else {
        1
    };
    let ranks = (cores / threads).max(1);
    let mut seconds = 0.0;
    let mut comm_wall = 0.0;
    let mut edges = 0u64;
    let mut levels = 0u64;
    let mut events: Vec<Vec<CommEvent>> = Vec::new();
    for &s in sources {
        let (secs, stats, out, lv) = match alg {
            Algorithm::OneDFlat | Algorithm::OneDHybrid => {
                let cfg = if threads > 1 {
                    Bfs1dConfig::hybrid(ranks, threads)
                } else {
                    Bfs1dConfig::flat(ranks)
                };
                let run = bfs1d_run(g, s, &cfg);
                (run.seconds, run.per_rank_stats, run.output, run.num_levels)
            }
            Algorithm::TwoDFlat | Algorithm::TwoDHybrid => {
                let grid = Grid2D::closest_square(ranks);
                let cfg = if threads > 1 {
                    Bfs2dConfig::hybrid(grid, threads)
                } else {
                    Bfs2dConfig::flat(grid)
                };
                let run = bfs2d_run(g, s, &cfg);
                (run.seconds, run.per_rank_stats, run.output, run.num_levels)
            }
        };
        seconds += secs;
        comm_wall += stats
            .iter()
            .map(|st| st.wall().as_secs_f64())
            .fold(0.0, f64::max);
        edges += teps_edges(g, &out);
        levels += lv as u64;
        events = stats.into_iter().map(|st| st.events).collect();
    }
    let n = sources.len() as f64;
    FunctionalPoint {
        cores,
        algorithm: alg.name().to_string(),
        seconds: seconds / n,
        gteps: edges as f64 / seconds / 1e9,
        comm_wall_seconds: comm_wall / n,
        levels: levels as f64 / n,
        events,
    }
}

/// The functional validation sweep of Figs. 5–8: all four variants at 4
/// and 16 simulated cores on the functional R-MAT instance (seed 42),
/// demonstrating the orderings the model predicts (and validating
/// correctness along the way — every output comes from the real
/// distributed algorithms). Measured once per process, with the knobs of
/// the first call.
pub(crate) fn functional_sweep(knobs: &Knobs) -> &'static [FunctionalPoint] {
    static SWEEP: OnceLock<Vec<FunctionalPoint>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let g = rmat_graph(knobs.functional_scale(), 16, 42);
        let sources = sample_sources(&g, knobs.sources, 7);
        [4usize, 16]
            .iter()
            .flat_map(|&cores| Algorithm::ALL.map(|alg| run_functional(&g, alg, cores, &sources)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::calibrated_predictor;
    use dmbfs_model::MachineProfile;

    #[test]
    fn model_series_covers_all_variants() {
        let pred = calibrated_predictor(MachineProfile::franklin());
        let shape = GraphShape::rmat(26, 16);
        let series = model_series(&pred, &shape, &[512, 1024]);
        assert_eq!(series.len(), 8);
        assert!(series.iter().all(|p| p.gteps > 0.0));
    }

    #[test]
    fn functional_point_measures_all_variants() {
        let g = rmat_graph(9, 8, 5);
        let sources = sample_sources(&g, 1, 3);
        for alg in Algorithm::ALL {
            let pt = run_functional(&g, alg, 4, &sources);
            assert!(pt.seconds > 0.0, "{}", pt.algorithm);
            assert!(pt.gteps > 0.0);
            assert!(!pt.events.is_empty());
        }
    }
}
