//! §5 model validation: the α–β model's job is to "succinctly capture the
//! differences between our two BFS strategies". This experiment checks the
//! model against functional reality on the quantities the runtime records
//! exactly:
//!
//! 1. communication *volume* per algorithm (model's volume terms vs exact
//!    recorded bytes);
//! 2. participant structure (1D collectives over p ranks vs 2D collectives
//!    over √p);
//! 3. modeled communication time ordering across algorithms at matched
//!    core counts.

use super::Doc;
use crate::harness::{calibrated_predictor, rmat_graph, shape_of, Knobs};
use crate::scaling::run_functional;
use dmbfs_graph::components::sample_sources;
use dmbfs_model::{replay_comm_time, Algorithm, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    cores: usize,
    measured_bytes_max_rank: u64,
    modeled_comm_seconds: f64,
    predicted_comm_seconds: f64,
}

/// Expected: 2D variants move less data per rank than 1D at equal cores;
/// replayed (exact events) and predicted (closed form) times agree in
/// ordering.
pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let profile = MachineProfile::franklin();
    let pred = calibrated_predictor(profile.clone());
    let g = rmat_graph(knobs.functional_scale(), 16, 55);
    let sources = sample_sources(&g, knobs.sources.min(2), 19);
    let shape = shape_of(&g, 8);

    let mut rows = Vec::new();
    for cores in [16usize, 36] {
        for alg in Algorithm::ALL {
            let pt = run_functional(&g, alg, cores, &sources);
            let bytes = pt
                .events
                .iter()
                .map(|ev| ev.iter().map(|e| e.bytes_out).sum::<u64>())
                .max()
                .unwrap_or(0);
            rows.push(Row {
                algorithm: alg.name().to_string(),
                cores,
                measured_bytes_max_rank: bytes,
                modeled_comm_seconds: replay_comm_time(&profile, &pt.events, 1),
                predicted_comm_seconds: pred.predict(alg, &shape, cores).comm(),
            });
        }
    }
    vec![Doc::new("model_validation", &rows)]
}
