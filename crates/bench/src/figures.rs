//! Figure-level drivers shared by the figure binaries.

use crate::harness::{
    calibrated_predictor, fmt_gteps, fmt_secs, functional_scale, num_sources, print_table,
    rmat_graph, write_result,
};
use crate::scaling::{model_series, run_functional, FunctionalPoint, ModelPoint};
use dmbfs_graph::components::sample_sources;
use dmbfs_model::{Algorithm, GraphShape, MachineProfile};
use serde::Serialize;

/// Which quantity a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Figs. 5, 7, 10: performance rate.
    Gteps,
    /// Figs. 6, 8, 9b: communication seconds.
    CommSeconds,
    /// Figs. 9a, 11: mean search time.
    TotalSeconds,
}

impl Metric {
    fn label(&self) -> &'static str {
        match self {
            Metric::Gteps => "GTEPS",
            Metric::CommSeconds => "comm time (s)",
            Metric::TotalSeconds => "mean search time (s)",
        }
    }

    fn of_model(&self, p: &ModelPoint) -> String {
        match self {
            Metric::Gteps => fmt_gteps(p.gteps * 1e9),
            Metric::CommSeconds => fmt_secs(p.comm_seconds),
            Metric::TotalSeconds => fmt_secs(p.total_seconds),
        }
    }

    fn of_functional(&self, p: &FunctionalPoint) -> String {
        match self {
            Metric::Gteps => fmt_gteps(p.gteps * 1e9),
            Metric::CommSeconds => fmt_secs(p.comm_wall_seconds),
            Metric::TotalSeconds => fmt_secs(p.seconds),
        }
    }
}

/// One panel of a figure: an instance plus the core counts of its x-axis.
#[derive(Clone, Copy, Debug)]
pub struct Panel {
    /// Panel caption, e.g. "(a) n = 2^29, m = 2^33".
    pub label: &'static str,
    /// R-MAT scale.
    pub scale: u32,
    /// R-MAT edge factor.
    pub edge_factor: u64,
    /// Core counts of the x-axis.
    pub cores: &'static [usize],
}

#[derive(Serialize)]
struct FigureResult {
    figure: String,
    machine: String,
    metric: String,
    model: Vec<ModelPoint>,
    functional: Vec<FunctionalPoint>,
}

/// Runs a strong-scaling figure: the model series at paper scale for each
/// panel, plus a functional validation sweep at laptop scale, printed and
/// written to JSON.
pub fn strong_scaling_figure(
    name: &str,
    profile: MachineProfile,
    panels: &[Panel],
    metric: Metric,
) {
    println!("=== {name} — {} — {} ===", profile.name, metric.label());
    println!("(model series at paper core counts; functional validation below)");
    let pred = calibrated_predictor(profile.clone());

    let mut all_model = Vec::new();
    for panel in panels {
        let shape = GraphShape::rmat(panel.scale, panel.edge_factor);
        let series = model_series(&pred, &shape, panel.cores);
        let rows: Vec<Vec<String>> = panel
            .cores
            .iter()
            .map(|&c| {
                let mut row = vec![c.to_string()];
                for alg in Algorithm::ALL {
                    let pt = series
                        .iter()
                        .find(|p| p.cores == c && p.algorithm == alg.name())
                        .expect("series is complete");
                    row.push(metric.of_model(pt));
                }
                row
            })
            .collect();
        print_table(
            panel.label,
            &[
                "cores",
                Algorithm::ALL[0].name(),
                Algorithm::ALL[1].name(),
                Algorithm::ALL[2].name(),
                Algorithm::ALL[3].name(),
            ],
            &rows,
        );
        all_model.extend(series);
    }

    let functional = functional_validation(metric);

    let path = write_result(
        name,
        &FigureResult {
            figure: name.to_string(),
            machine: profile.name.clone(),
            metric: metric.label().to_string(),
            model: all_model,
            functional,
        },
    );
    println!("\nresults written to {}", path.display());
}

/// Functional mini-sweep: all four variants at small simulated core counts
/// on a laptop-scale instance, demonstrating the same orderings the model
/// predicts (and validating correctness along the way — every run's output
/// is produced by the real distributed algorithms).
pub fn functional_validation(metric: Metric) -> Vec<FunctionalPoint> {
    let scale = functional_scale();
    let g = rmat_graph(scale, 16, 42);
    let sources = sample_sources(&g, num_sources(), 7);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for cores in [4usize, 16] {
        let mut row = vec![cores.to_string()];
        for alg in Algorithm::ALL {
            let pt = run_functional(&g, alg, cores, &sources);
            row.push(metric.of_functional(&pt));
            points.push(pt);
        }
        rows.push(row);
    }
    print_table(
        &format!("functional validation (R-MAT scale {scale}, in-process runtime)"),
        &[
            "cores",
            Algorithm::ALL[0].name(),
            Algorithm::ALL[1].name(),
            Algorithm::ALL[2].name(),
            Algorithm::ALL[3].name(),
        ],
        &rows,
    );
    points
}
