//! Table 2: performance comparison with the Parallel Boost Graph Library
//! (PBGL) on Carver — MTEPS for R-MAT graphs at scales 22/24 on 128/256
//! cores.
//!
//! Paper shape to reproduce: "We are up to 16× faster than PBGL even on
//! these small problem instances." (PBGL: 25.9/39.4 MTEPS at 128 cores;
//! Flat 2D: 266.5/567.4 — see the table in §6.)
//!
//! The PBGL comparator is re-implemented with its documented design (ghost
//! cells, per-edge messages with small coalescing buffers, associative
//! property maps) on the same runtime — see `dmbfs_bfs::baseline`.

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::baseline::pbgl_like_bfs;
use dmbfs_bfs::teps::teps_edges;
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cores: usize,
    scale: u32,
    pbgl_mteps: f64,
    flat2d_mteps: f64,
    speedup: f64,
}

/// The paper ran scales 22/24 on 128/256 Carver cores; this functional
/// rerun uses laptop-scale instances and rank counts — the quantity under
/// test is the speedup ratio, not absolute MTEPS.
pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let base = knobs.functional_scale();
    let mut rows = Vec::new();
    for ranks in [4usize, 16] {
        for scale in [base, base + 2] {
            let g = rmat_graph(scale, 16, 5);
            let sources = sample_sources(&g, knobs.sources.min(2), 17);

            let mut pbgl_secs = 0.0;
            let mut ours_secs = 0.0;
            let mut edges = 0u64;
            for &s in &sources {
                let b = pbgl_like_bfs(&g, s, ranks);
                let o = bfs2d_run(&g, s, &Bfs2dConfig::flat(Grid2D::closest_square(ranks)));
                assert_eq!(
                    b.output.levels, o.output.levels,
                    "comparator and subject must agree"
                );
                pbgl_secs += b.seconds;
                ours_secs += o.seconds;
                edges += teps_edges(&g, &o.output);
            }
            let pbgl_mteps = edges as f64 / pbgl_secs / 1e6;
            let flat2d_mteps = edges as f64 / ours_secs / 1e6;
            rows.push(Row {
                cores: ranks,
                scale,
                pbgl_mteps,
                flat2d_mteps,
                speedup: flat2d_mteps / pbgl_mteps,
            });
        }
    }
    vec![Doc::new("table2_pbgl_comparison", &rows)]
}
