//! Table 1: decomposition of communication times for the flat 2D algorithm
//! on Franklin — the percentage of total BFS time spent in Allgatherv
//! (expand) vs Alltoallv (fold), for constant edge count at scales
//! 27/29/31 with edge factors 64/16/4, on 1024/2025/4096 cores.
//!
//! Paper shape to reproduce: "Allgatherv always consumes a higher
//! percentage of the BFS time than the Alltoallv operation, with the gap
//! widening as the matrix gets sparser."

use super::Doc;
use crate::harness::{calibrated_predictor, rmat_graph, Knobs};
use crate::scaling::run_functional;
use dmbfs_comm::CollectiveTag;
use dmbfs_graph::components::sample_sources;
use dmbfs_model::replay::replay_by_pattern;
use dmbfs_model::{replay_rank_time, Algorithm, GraphShape, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cores: usize,
    scale: u32,
    edge_factor: u64,
    bfs_seconds: f64,
    allgatherv_pct: f64,
    alltoallv_pct: f64,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let profile = MachineProfile::franklin();
    let pred = calibrated_predictor(profile.clone());

    // Model at the paper's exact configurations.
    let mut model_rows = Vec::new();
    for cores in [1024usize, 2025, 4096] {
        for (scale, ef) in [(27u32, 64u64), (29, 16), (31, 4)] {
            let shape = GraphShape::rmat(scale, ef);
            let p = pred.predict(Algorithm::TwoDFlat, &shape, cores);
            let total = p.total();
            model_rows.push(Row {
                cores,
                scale,
                edge_factor: ef,
                bfs_seconds: total,
                allgatherv_pct: 100.0 * p.comm_expand / total,
                alltoallv_pct: 100.0 * p.comm_fold / total,
            });
        }
    }

    // Functional validation: run the flat 2D algorithm at laptop scale with
    // the same constant-edge-count construction and replay each rank's
    // recorded events through the Franklin model.
    // Note the regime difference: at p = 36 the expand's frontier
    // replication factor (pr − 1 = 5) is tiny compared to the paper's
    // 1024–4096 cores, so expand and fold are of the same order here; the
    // model rows show the paper's high-concurrency regime where expand
    // dominates and the gap widens with sparsity.
    let base = knobs.functional_scale();
    let mut func_rows = Vec::new();
    for (scale, ef) in [(base - 2, 64u64), (base, 16), (base + 2, 4)] {
        let g = rmat_graph(scale, ef, 31);
        let sources = sample_sources(&g, knobs.sources.min(2), 13);
        let pt = run_functional(&g, Algorithm::TwoDFlat, 36, &sources);
        let slowest = pt
            .events
            .iter()
            .map(|ev| replay_rank_time(&profile, ev, 1))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        // Each rank's modeled time split by pattern; a phase's time is its
        // slowest rank's.
        let split: Vec<_> = pt
            .events
            .iter()
            .map(|ev| replay_by_pattern(&profile, ev, 1))
            .collect();
        let phase = |pattern: CollectiveTag| -> f64 {
            split
                .iter()
                .flatten()
                .filter(|(p, _)| *p == pattern)
                .map(|&(_, t)| t)
                .fold(0.0f64, f64::max)
        };
        func_rows.push(Row {
            cores: 36,
            scale,
            edge_factor: ef,
            bfs_seconds: slowest,
            allgatherv_pct: 100.0 * phase(CollectiveTag::Allgatherv) / slowest,
            alltoallv_pct: 100.0 * phase(CollectiveTag::Alltoallv) / slowest,
        });
    }
    let doc = serde_json::json!({ "model": model_rows, "functional": func_rows });
    vec![Doc::new("table1_comm_decomposition", &doc)]
}
