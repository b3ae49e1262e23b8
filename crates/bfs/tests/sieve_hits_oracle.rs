//! An independent reference for the 1D sieve counter.
//!
//! In 1D the sieve is the accumulator itself: a target a rank sent at an
//! earlier level keeps its `best` slot at `SENT`, so every later offer of
//! it stops at the scatter's first load and counts as one sieve hit. A
//! rank sends every target it touches, so in a pure top-down search
//! rank r's hits at level L are
//!
//! #{(u, v) : u owned by r, level[u] = L−1, v ∈ N(u),
//!            some u′ owned by r with level[u′] < L−1 has v ∈ N(u′)}
//!
//! — one per adjacency entry, derived below from the serial levels, the
//! CSR and the block ownership alone. The run reports the hits merged
//! across ranks, so the oracle sums the right-hand side over r.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::UNREACHED;
use dmbfs_graph::gen::{grid2d, rmat, RmatConfig};
use dmbfs_graph::{Block1D, CsrGraph, VertexId};

/// Expected sieve hits per top-down level (index `L - 1` holds level `L`).
fn sieve_hits_oracle(g: &CsrGraph, source: VertexId, p: usize) -> Vec<u64> {
    let levels = serial_bfs(g, source).levels;
    let block = Block1D::new(g.num_vertices(), p);
    let depth = levels.iter().copied().max().unwrap_or(0);
    let mut hits = vec![0u64; depth as usize + 1];
    for r in 0..p {
        // The first level at which one of r's vertices offers `v`.
        let mut first_offer = vec![i64::MAX; g.num_vertices() as usize];
        for u in block.range(r) {
            if levels[u as usize] == UNREACHED {
                continue;
            }
            for &v in g.neighbors(u) {
                let first = &mut first_offer[v as usize];
                *first = (*first).min(levels[u as usize]);
            }
        }
        for u in block.range(r) {
            let lu = levels[u as usize];
            if lu == UNREACHED {
                continue;
            }
            let sent_before = |&&v: &&VertexId| first_offer[v as usize] < lu;
            hits[lu as usize] += g.neighbors(u).iter().filter(sent_before).count() as u64;
        }
    }
    hits
}

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Every flat(p) and hybrid(p, 2) run, p ∈ {1, 2, 3}, against the oracle,
/// and every sieve-off run against zero.
fn check(g: &CsrGraph, source: VertexId) {
    for p in 1..=3 {
        let expected = sieve_hits_oracle(g, source, p);
        for cfg in [Bfs1dConfig::flat(p), Bfs1dConfig::hybrid(p, 2)] {
            let what = format!("ranks {p} threads {} source {source}", cfg.threads_per_rank);
            let run = bfs1d_run(g, source, &cfg);
            let got: Vec<u64> = run.codec_levels.iter().map(|l| l.sieve_hits).collect();
            assert_eq!(got, expected, "{what}");
            assert!(got.iter().sum::<u64>() > 0, "the sieve fires: {what}");

            let off = bfs1d_run(g, source, &cfg.with_sieve(false));
            assert!(
                off.codec_levels.iter().all(|l| l.sieve_hits == 0),
                "sieve off: {what}"
            );
            assert_eq!(off.output.parents, run.output.parents, "{what}");
        }
    }
}

#[test]
fn rmat_sieve_hits_match_oracle() {
    for (scale, seed) in [(8, 3), (9, 17)] {
        let g = rmat_graph(scale, seed);
        for source in [0, g.num_vertices() / 3] {
            check(&g, source);
        }
    }
}

#[test]
fn grid_sieve_hits_match_oracle() {
    let g = CsrGraph::from_edge_list(&grid2d(7, 9));
    for source in [0, 31, 62] {
        check(&g, source);
    }
}
