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

use dmbfs_bench::harness::{
    calibrated_predictor, fmt_gteps, functional_scale, num_sources, print_table, rmat_graph,
    write_result,
};
use dmbfs_bench::scaling::{model_series, run_functional, FunctionalPoint, ModelPoint};
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

fn main() {
    println!("=== fig10_degree_sensitivity — Franklin — GTEPS vs average degree ===");
    let (base, n_sources) = (functional_scale(), num_sources());
    let pred = calibrated_predictor(MachineProfile::franklin());

    let mut all = Vec::new();
    for p in [1024usize, 4096] {
        let rows: Vec<Vec<String>> = CONFIGS
            .iter()
            .map(|&(scale, degree)| {
                let shape = GraphShape::rmat(scale, degree);
                let series = model_series(&pred, &shape, &[p]);
                let mut row = vec![format!("SCALE {scale}, degree {degree}")];
                for alg in Algorithm::ALL {
                    let pt = series
                        .iter()
                        .find(|q| q.algorithm == alg.name())
                        .expect("complete series");
                    row.push(fmt_gteps(pt.gteps * 1e9));
                }
                all.extend(series);
                row
            })
            .collect();
        print_table(
            &format!("p = {p} (GTEPS, model)"),
            &[
                "instance",
                Algorithm::ALL[0].name(),
                Algorithm::ALL[1].name(),
                Algorithm::ALL[2].name(),
                Algorithm::ALL[3].name(),
            ],
            &rows,
        );
    }

    // Functional miniature with the same constant-edges construction:
    // (scale+2, deg 4), (scale, deg 16), (scale-2, deg 64) at p = 16.
    let mut functional = Vec::new();
    let rows: Vec<Vec<String>> = [(base + 2, 4u64), (base, 16), (base - 2, 64)]
        .iter()
        .map(|&(scale, degree)| {
            let g = rmat_graph(scale, degree, 9);
            let sources = sample_sources(&g, n_sources, 11);
            let mut row = vec![format!("SCALE {scale}, degree {degree}")];
            for alg in [Algorithm::OneDFlat, Algorithm::TwoDFlat] {
                let pt = run_functional(&g, alg, 16, &sources);
                row.push(fmt_gteps(pt.gteps * 1e9));
                functional.push(pt);
            }
            row
        })
        .collect();
    print_table(
        "functional miniature, p = 16 (GTEPS, measured)",
        &["instance", "1D Flat MPI", "2D Flat MPI"],
        &rows,
    );

    let path = write_result(
        "fig10_degree_sensitivity",
        &Fig10 {
            model: all,
            functional,
        },
    );
    println!("\nresults written to {}", path.display());
}
