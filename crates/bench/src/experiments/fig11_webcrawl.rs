//! Figure 11: running times of the 2D algorithms on the uk-union web crawl
//! on Hopper (500–4000 cores), split into computation and communication.
//!
//! Paper shapes to reproduce: (1) "communication takes a very small
//! fraction of the overall execution time, even on 4K cores" despite ~140
//! BFS iterations; (2) "since communication is not the most important
//! factor, the hybrid algorithm is slower than flat MPI, as it has more
//! intra-node parallelization overheads"; (3) ≈ 4× speedup from 500 to
//! 4000 cores.
//!
//! The uk-union crawl itself is not redistributable; the synthetic
//! web-crawl generator reproduces its BFS-relevant structure (diameter
//! ≈ 140 with skewed intra-community degrees) — see DESIGN.md.

use super::Doc;
use crate::harness::{calibrated_predictor, webcrawl_graph, Knobs};
use crate::scaling::{run_functional, FunctionalPoint};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_graph::components::sample_sources;
use dmbfs_model::{Algorithm, GraphShape, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    cores: usize,
    algorithm: String,
    comp_seconds: f64,
    comm_seconds: f64,
}

#[derive(Serialize)]
struct Fig11 {
    diameter: u32,
    model: Vec<Point>,
    functional: Vec<FunctionalPoint>,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    // Characterize the functional instance (the real uk-union has n = 133M,
    // m = 5.5B; the stand-in is laptop-sized with the same level structure).
    let g = webcrawl_graph(256, 3);
    let src = sample_sources(&g, 1, 1)[0];
    let diameter = serial_bfs(&g, src).depth() as u32;

    // Model at paper core counts, with the paper's uk-union dimensions.
    let pred = calibrated_predictor(MachineProfile::hopper());
    let shape = GraphShape {
        n: 133_633_040,
        m_traversed: 11_083_414_672,
        m_teps: 5_541_707_336,
        diameter: diameter.max(100),
    };
    let mut model = Vec::new();
    for cores in [500usize, 1000, 2000, 4000] {
        for alg in [Algorithm::TwoDFlat, Algorithm::TwoDHybrid] {
            let p = pred.predict(alg, &shape, cores);
            model.push(Point {
                cores,
                algorithm: alg.name().to_string(),
                comp_seconds: p.comp,
                comm_seconds: p.comm(),
            });
        }
    }

    // Functional: flat vs hybrid 2D on the stand-in; expect comm to be a
    // small fraction and hybrid to not beat flat.
    let sources = sample_sources(&g, knobs.sources, 5);
    let mut functional = Vec::new();
    for cores in [4usize, 16] {
        for alg in [Algorithm::TwoDFlat, Algorithm::TwoDHybrid] {
            functional.push(run_functional(&g, alg, cores, &sources));
        }
    }
    let doc = Fig11 {
        diameter,
        model,
        functional,
    };
    vec![Doc::new("fig11_webcrawl", &doc)]
}
