//! Figures 5–8: BFS strong scaling on Franklin and Hopper for Graph 500
//! R-MAT graphs. One row of [`FIGURES`] per figure; each writes
//! `results/<name>.json`.
//!
//! * Fig. 5 — GTEPS on Franklin. Panel (a): n = 2^29, m = 2^33 on 512–4096
//!   cores; panel (b): n = 2^32, m = 2^36 on 4096–8192 cores. Paper shape:
//!   flat 1D is about 1.5–1.8× faster than the 2D algorithms; the 1D
//!   hybrid overtakes flat 1D at the largest concurrencies.
//! * Fig. 6 — inter-node MPI communication time on Franklin, same panels,
//!   lower is better. Paper shape: "2D algorithms consistently spend less
//!   time (30-60% for scale 32) in communication, compared to their
//!   relative 1D algorithms."
//! * Fig. 7 — GTEPS on Hopper. Panel (a): n = 2^30, m = 2^34 on 1224–10008
//!   cores; panel (b): n = 2^32, m = 2^36 on 5040–40000 cores. Paper shape:
//!   "By contrast to Franklin results, the 2D algorithms score higher than
//!   their 1D counterparts" — Hopper's faster integer cores lower the 2D
//!   computation penalty while its weaker bisection raises the 1D
//!   communication cost. The peak of panel (b) is the paper's headline
//!   17.8 GTEPS at 40 000 cores (2D hybrid).
//! * Fig. 8 — communication time on Hopper, same panels as Fig. 7. Paper
//!   shape: flat 1D communication blows up beyond 10K cores ("consuming
//!   more than 90% of the overall execution time" at 20K), while "the
//!   percentage of time spent in communication for the 2D hybrid algorithm
//!   was less than 50% on 20K cores".

use super::Doc;
use crate::harness::{calibrated_predictor, Knobs};
use crate::scaling::{functional_sweep, model_series, FunctionalPoint, ModelPoint};
use dmbfs_model::{GraphShape, MachineProfile};
use serde::Serialize;

/// One strong-scaling figure: output name, machine, panels, plotted metric.
struct Figure {
    name: &'static str,
    profile: fn() -> MachineProfile,
    panels: &'static [Panel],
    /// What the figure plots: `GTEPS` or `comm time (s)`.
    metric: &'static str,
}

/// One panel of a figure: an R-MAT instance plus the core counts of its
/// x-axis.
struct Panel {
    scale: u32,
    edge_factor: u64,
    cores: &'static [usize],
}

/// (a) n = 2^29, m = 2^33; (b) n = 2^32, m = 2^36.
const FRANKLIN: &[Panel] = &[
    Panel {
        scale: 29,
        edge_factor: 16,
        cores: &[512, 1024, 2048, 4096],
    },
    Panel {
        scale: 32,
        edge_factor: 16,
        cores: &[4096, 6400, 8192],
    },
];

/// (a) n = 2^30, m = 2^34; (b) n = 2^32, m = 2^36.
const HOPPER: &[Panel] = &[
    Panel {
        scale: 30,
        edge_factor: 16,
        cores: &[1224, 2500, 5040, 10008],
    },
    Panel {
        scale: 32,
        edge_factor: 16,
        cores: &[5040, 10008, 20000, 40000],
    },
];

const FIGURES: [Figure; 4] = [
    Figure {
        name: "fig5_strong_scaling_franklin",
        profile: MachineProfile::franklin,
        panels: FRANKLIN,
        metric: "GTEPS",
    },
    Figure {
        name: "fig6_comm_franklin",
        profile: MachineProfile::franklin,
        panels: FRANKLIN,
        metric: "comm time (s)",
    },
    Figure {
        name: "fig7_strong_scaling_hopper",
        profile: MachineProfile::hopper,
        panels: HOPPER,
        metric: "GTEPS",
    },
    Figure {
        name: "fig8_comm_hopper",
        profile: MachineProfile::hopper,
        panels: HOPPER,
        metric: "comm time (s)",
    },
];

#[derive(Serialize)]
struct FigureResult {
    figure: String,
    machine: String,
    metric: String,
    model: Vec<ModelPoint>,
    functional: Vec<FunctionalPoint>,
}

/// Per figure: the model series at paper scale for each panel, plus the
/// shared functional validation sweep at laptop scale.
pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let functional = functional_sweep(knobs);
    FIGURES
        .iter()
        .map(|fig| {
            let profile = (fig.profile)();
            let pred = calibrated_predictor(profile.clone());
            let model = fig
                .panels
                .iter()
                .flat_map(|p| {
                    model_series(&pred, &GraphShape::rmat(p.scale, p.edge_factor), p.cores)
                })
                .collect();
            let doc = FigureResult {
                figure: fig.name.to_string(),
                machine: profile.name,
                metric: fig.metric.to_string(),
                model,
                functional: functional.to_vec(),
            };
            Doc::new(fig.name, &doc)
        })
        .collect()
}
