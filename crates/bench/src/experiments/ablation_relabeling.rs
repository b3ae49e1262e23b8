//! Ablation (§4.4): random vertex relabeling on/off.
//!
//! "We achieve a reasonable load-balanced graph traversal by randomly
//! shuffling all the vertex identifiers prior to partitioning." Without the
//! shuffle, R-MAT's skew concentrates the high-degree vertices (which are
//! low-numbered by construction) on the first ranks.

use super::Doc;
use crate::harness::Knobs;
use dmbfs_bfs::distribute::extract_1d;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::gen::{rmat, RmatConfig};
use dmbfs_graph::ordering::{mean_edge_distance, rcm_permutation};
use dmbfs_graph::{CsrGraph, RandomPermutation};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    labeling: String,
    edge_imbalance: f64,
    mean_seconds: f64,
    max_rank_bytes: u64,
    mean_edge_distance: f64,
}

/// Paper shape: shuffling flattens the per-rank edge distribution; RCM
/// minimizes edge distance (locality) but cannot fix R-MAT's skew,
/// matching §6: relabeling has "minimal effect" on these graphs.
pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let mut el = rmat(&RmatConfig::graph500(knobs.functional_scale(), 91));
    el.canonicalize_undirected();
    let p = 16;

    let mut rows = Vec::new();
    // Three orderings: natural R-MAT ids, the paper's random shuffle
    // (§4.4), and reverse Cuthill–McKee ([14], locality-first).
    for labeling in ["natural order", "shuffled", "rcm"] {
        let el_used = match labeling {
            "shuffled" => RandomPermutation::new(el.num_vertices, 13).apply_edge_list(&el),
            "rcm" => {
                let base = CsrGraph::from_edge_list(&el);
                rcm_permutation(&base).apply_edge_list(&el)
            }
            _ => el.clone(),
        };
        let g = CsrGraph::from_edge_list(&el_used);

        // Static balance: stored edges per 1D rank.
        let per_rank: Vec<usize> = (0..p)
            .map(|r| extract_1d(&g, p, r).num_local_edges())
            .collect();
        let max = *per_rank.iter().max().unwrap() as f64;
        let mean = per_rank.iter().sum::<usize>() as f64 / p as f64;

        // Dynamic: measured 1D BFS plus per-rank communication volume.
        let sources = sample_sources(&g, knobs.sources.min(3), 3);
        let mut secs = 0.0;
        let mut max_bytes = 0u64;
        for &s in &sources {
            let run = bfs1d_run(&g, s, &Bfs1dConfig::flat(p));
            secs += run.seconds;
            max_bytes = max_bytes.max(
                run.per_rank_stats
                    .iter()
                    .map(|st| st.bytes_out())
                    .max()
                    .unwrap_or(0),
            );
        }
        rows.push(Row {
            labeling: labeling.to_string(),
            edge_imbalance: max / mean,
            mean_seconds: secs / sources.len() as f64,
            max_rank_bytes: max_bytes,
            mean_edge_distance: mean_edge_distance(&g),
        });
    }
    vec![Doc::new("ablation_relabeling", &rows)]
}
