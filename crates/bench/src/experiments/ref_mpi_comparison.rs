//! §6 text comparison: the paper's Flat 1D code vs the Graph 500
//! reference MPI implementation (v2.1, non-replicated) — "our Flat 1D code
//! is 2.72×, 3.43×, and 4.13× faster than the non-replicated reference MPI
//! code on 512, 1024, and 2048 cores, respectively."
//!
//! The reference comparator is re-implemented with its documented design
//! (modulo vertex distribution without load-balancing shuffle, small
//! coalescing buffers with per-round handshakes instead of one aggregated
//! all-to-all) — see `dmbfs_bfs::baseline`.

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::baseline::reference_mpi_bfs;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::teps::teps_edges;
use dmbfs_graph::components::sample_sources;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ranks: usize,
    scale: u32,
    reference_mteps: f64,
    flat1d_mteps: f64,
    speedup: f64,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let scale = knobs.functional_scale();
    let g = rmat_graph(scale, 16, 23);
    let sources = sample_sources(&g, knobs.sources.min(2), 29);

    let mut rows = Vec::new();
    for ranks in [4usize, 8, 16] {
        let mut ref_secs = 0.0;
        let mut ours_secs = 0.0;
        let mut edges = 0u64;
        for &s in &sources {
            let b = reference_mpi_bfs(&g, s, ranks);
            let o = bfs1d_run(&g, s, &Bfs1dConfig::flat(ranks));
            assert_eq!(
                b.output.levels, o.output.levels,
                "comparator and subject must agree"
            );
            ref_secs += b.seconds;
            ours_secs += o.seconds;
            edges += teps_edges(&g, &o.output);
        }
        rows.push(Row {
            ranks,
            scale,
            reference_mteps: edges as f64 / ref_secs / 1e6,
            flat1d_mteps: edges as f64 / ours_secs / 1e6,
            speedup: ref_secs / ours_secs,
        });
    }
    vec![Doc::new("ref_mpi_comparison", &rows)]
}
