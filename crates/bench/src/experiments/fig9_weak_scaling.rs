//! Figure 9: BFS weak scaling on Franklin — mean search time (left) and
//! MPI communication time (right) with a fixed problem size per core
//! (≈ 17 M edges/core), on 512–4096 cores. Ideal weak scaling is a flat
//! line; lower is better.
//!
//! Paper shape to reproduce: "in this regime, the flat 1D algorithm
//! performs better than the hybrid 1D algorithm [...] The 2D algorithms,
//! although performing much less communication than their 1D counterparts,
//! come later in terms of overall performance on this architecture, due to
//! their higher computation overheads."

use super::Doc;
use crate::harness::{calibrated_predictor, Knobs};
use crate::scaling::{model_series, ModelPoint};
use dmbfs_model::{GraphShape, MachineProfile};
use serde::Serialize;

/// Edges per core in the paper's weak-scaling run.
const EDGES_PER_CORE: u64 = 17_000_000;

#[derive(Serialize)]
struct Fig9 {
    model: Vec<ModelPoint>,
}

pub(super) fn run(_: &Knobs) -> Vec<Doc> {
    let pred = calibrated_predictor(MachineProfile::franklin());
    // Weak scaling: pick the R-MAT scale whose edge count best matches
    // 17M · p at edge factor 16 (n = m/16, scale = log2 n).
    let model = [512usize, 1024, 2048, 4096]
        .iter()
        .flat_map(|&p| {
            let m = EDGES_PER_CORE * p as u64;
            let scale = (m / 16).next_power_of_two().trailing_zeros();
            model_series(&pred, &GraphShape::rmat(scale, 16), &[p])
        })
        .collect();
    vec![Doc::new("fig9_weak_scaling", &Fig9 { model })]
}
