//! Figure 10: GTEPS as the average degree varies (4, 16, 64) with the
//! number of edges per processor held constant — (a) p = 1024,
//! (b) p = 4096, R-MAT scales 31/29/27.
//!
//! Paper shape to reproduce: "the flat 2D algorithm beats the flat 1D
//! algorithm (for the first time) with relatively denser (average degree
//! 64) graphs. The trend is obvious in that the performance margin between
//! the 1D algorithm and the 2D algorithm increases in favor of the 1D
//! algorithm as the graph gets sparser." (For fixed edges, denser graphs
//! mean shorter frontier vectors, shrinking the 2D algorithm's cache
//! working sets.)

use super::Doc;
use crate::harness::{calibrated_predictor, rmat_graph, Knobs};
use crate::scaling::{model_series, run_functional, FunctionalPoint, ModelPoint};
use dmbfs_graph::components::sample_sources;
use dmbfs_model::{Algorithm, GraphShape, MachineProfile};
use serde::Serialize;

/// (scale, degree) pairs with constant total edge count, as in the paper.
const CONFIGS: [(u32, u64); 3] = [(31, 4), (29, 16), (27, 64)];

#[derive(Serialize)]
struct Fig10 {
    model: Vec<ModelPoint>,
    functional: Vec<FunctionalPoint>,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let base = knobs.functional_scale();
    let pred = calibrated_predictor(MachineProfile::franklin());

    let mut model = Vec::new();
    for p in [1024usize, 4096] {
        for (scale, degree) in CONFIGS {
            model.extend(model_series(&pred, &GraphShape::rmat(scale, degree), &[p]));
        }
    }

    // Functional miniature with the same constant-edges construction:
    // (scale+2, deg 4), (scale, deg 16), (scale-2, deg 64) at p = 16.
    let mut functional = Vec::new();
    for (scale, degree) in [(base + 2, 4u64), (base, 16), (base - 2, 64)] {
        let g = rmat_graph(scale, degree, 9);
        let sources = sample_sources(&g, knobs.sources, 11);
        for alg in [Algorithm::OneDFlat, Algorithm::TwoDFlat] {
            functional.push(run_functional(&g, alg, 16, &sources));
        }
    }
    vec![Doc::new(
        "fig10_degree_sensitivity",
        &Fig10 { model, functional },
    )]
}
