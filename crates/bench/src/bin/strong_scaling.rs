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

use dmbfs_bench::figures::{strong_scaling_figure, Metric, Panel};
use dmbfs_model::MachineProfile;

/// One strong-scaling figure: output name, machine, panels, plotted metric.
struct Figure {
    name: &'static str,
    profile: fn() -> MachineProfile,
    panels: &'static [Panel],
    metric: Metric,
}

const FRANKLIN: &[Panel] = &[
    Panel {
        label: "(a) n = 2^29, m = 2^33",
        scale: 29,
        edge_factor: 16,
        cores: &[512, 1024, 2048, 4096],
    },
    Panel {
        label: "(b) n = 2^32, m = 2^36",
        scale: 32,
        edge_factor: 16,
        cores: &[4096, 6400, 8192],
    },
];

const HOPPER: &[Panel] = &[
    Panel {
        label: "(a) n = 2^30, m = 2^34",
        scale: 30,
        edge_factor: 16,
        cores: &[1224, 2500, 5040, 10008],
    },
    Panel {
        label: "(b) n = 2^32, m = 2^36",
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
        metric: Metric::Gteps,
    },
    Figure {
        name: "fig6_comm_franklin",
        profile: MachineProfile::franklin,
        panels: FRANKLIN,
        metric: Metric::CommSeconds,
    },
    Figure {
        name: "fig7_strong_scaling_hopper",
        profile: MachineProfile::hopper,
        panels: HOPPER,
        metric: Metric::Gteps,
    },
    Figure {
        name: "fig8_comm_hopper",
        profile: MachineProfile::hopper,
        panels: HOPPER,
        metric: Metric::CommSeconds,
    },
];

fn main() {
    for fig in &FIGURES {
        strong_scaling_figure(fig.name, (fig.profile)(), fig.panels, fig.metric);
    }
}
