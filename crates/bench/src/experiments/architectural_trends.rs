//! Architectural-trends study (§1 contribution 4, §7 "Impact on Larger
//! Scale Systems").
//!
//! "Our algorithms address inter-node bandwidth limitations. Therefore,
//! the advantages of our approach are likely to grow on future systems
//! since the bisection bandwidth is one of the slowest scaling components
//! in supercomputers. [...] As the cores to bandwidth ratio increases,
//! more and more of the compute capability goes unused with
//! communication-bound algorithms."
//!
//! This experiment sweeps the two architectural axes the quote names —
//! bisection-bandwidth scaling (the all-to-all topology exponent) and the
//! cores-to-bandwidth ratio (cores per node at fixed injection) — and
//! reports which algorithm wins each cell at 16 K cores. The paper's
//! prediction: the 2D/hybrid region grows as either axis worsens.

use super::Doc;
use crate::harness::Knobs;
use dmbfs_model::{Algorithm, GraphShape, MachineProfile, ScalePredictor};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    a2a_exponent: f64,
    cores_per_node: usize,
    winner: String,
    speedup_over_one_d_flat: f64,
}

/// Winner and speedup over flat 1D of every (cores per node, bisection
/// exponent) cell, at R-MAT scale 31 on 16 K cores of a Franklin-class
/// base machine.
pub(super) fn run(_: &Knobs) -> Vec<Doc> {
    let shape = GraphShape::rmat(31, 16);
    let cores = 16_384usize;
    let exponents = [0.0, 0.2, 1.0 / 3.0, 0.5, 0.7];

    let mut cells = Vec::new();
    for cores_per_node in [4usize, 8, 16, 32, 64] {
        for &e in &exponents {
            let mut profile = MachineProfile::franklin();
            profile.a2a_exponent = e;
            profile.cores_per_node = cores_per_node;
            profile.hybrid_threads = cores_per_node.min(8); // one process per NUMA-ish domain
            let pred = ScalePredictor::new(profile);
            let (winner, best) = Algorithm::ALL
                .iter()
                .map(|&alg| (alg, pred.predict(alg, &shape, cores).total()))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("four candidates");
            let one_d = pred.predict(Algorithm::OneDFlat, &shape, cores).total();
            cells.push(Cell {
                a2a_exponent: e,
                cores_per_node,
                winner: winner.name().to_string(),
                speedup_over_one_d_flat: one_d / best,
            });
        }
    }
    vec![Doc::new("architectural_trends", &cells)]
}
