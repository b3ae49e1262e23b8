//! An independent reference for the sieve counter of both distributed BFS
//! algorithms.
//!
//! The sieve is the SelectMax accumulator itself: a target a rank sent at
//! an earlier level keeps its `best` slot at `SENT`, so every later offer
//! of it stops at the scatter's first load and counts as one sieve hit. A
//! rank sends every target it touches, so in a pure top-down search a rank
//! holding the edges out of the sources `S` into the targets `T` counts at
//! level L
//!
//! #{(u, v) : u ∈ S, v ∈ T, level[u] = L−1, v ∈ N(u),
//!            some u′ ∈ S with level[u′] < L−1 has v ∈ N(u′)}
//!
//! — one per adjacency entry, derived below from the serial levels, the
//! CSR and the partition alone. In 1D rank r holds S = its own block and
//! T = every vertex; in 2D `P(i, j)` holds S = column block j and
//! T = row block i. The run reports the hits merged across ranks, so the
//! oracle sums the right-hand side over them.

use dmbfs_bfs::frontier_codec::LevelCodecStats;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::UNREACHED;
use dmbfs_graph::gen::{grid2d, rmat, RmatConfig};
use dmbfs_graph::{Block1D, CsrGraph, Grid2D, OwnerMap2D, VertexId};
use std::ops::Range;

/// Adds one rank's hits to `hits` (index `L - 1` holds level `L`): the rank
/// scatters the edges out of `sources` into `targets`.
fn add_rank_hits(
    g: &CsrGraph,
    levels: &[i64],
    sources: Range<u64>,
    targets: Range<u64>,
    hits: &mut [u64],
) {
    let offers = |u: VertexId| g.neighbors(u).iter().filter(|v| targets.contains(v));
    // The first level at which one of the rank's sources offers `v`.
    let mut first_offer = vec![i64::MAX; g.num_vertices() as usize];
    for u in sources.clone() {
        if levels[u as usize] == UNREACHED {
            continue;
        }
        for &v in offers(u) {
            let first = &mut first_offer[v as usize];
            *first = (*first).min(levels[u as usize]);
        }
    }
    for u in sources {
        let lu = levels[u as usize];
        if lu == UNREACHED {
            continue;
        }
        let sent_before = |&&v: &&VertexId| first_offer[v as usize] < lu;
        hits[lu as usize] += offers(u).filter(sent_before).count() as u64;
    }
}

/// The levels of `g` from `source` and a zeroed per-level hit vector.
fn levels_and_hits(g: &CsrGraph, source: VertexId) -> (Vec<i64>, Vec<u64>) {
    let levels = serial_bfs(g, source).levels;
    let depth = levels.iter().copied().max().unwrap_or(0);
    (levels, vec![0; depth as usize + 1])
}

/// Expected 1D sieve hits per top-down level on `p` ranks.
fn oracle_1d(g: &CsrGraph, source: VertexId, p: usize) -> Vec<u64> {
    let (levels, mut hits) = levels_and_hits(g, source);
    let block = Block1D::new(g.num_vertices(), p);
    for r in 0..p {
        add_rank_hits(g, &levels, block.range(r), 0..g.num_vertices(), &mut hits);
    }
    hits
}

/// Expected 2D sieve hits per level on `grid`.
fn oracle_2d(g: &CsrGraph, source: VertexId, grid: Grid2D) -> Vec<u64> {
    let (levels, mut hits) = levels_and_hits(g, source);
    let map = OwnerMap2D::new(g.num_vertices(), grid);
    for i in 0..grid.rows() {
        for j in 0..grid.cols() {
            let (cols, rows) = (map.matrix_col_range(j), map.matrix_row_range(i));
            add_rank_hits(g, &levels, cols, rows, &mut hits);
        }
    }
    hits
}

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// The per-level hits a run reports.
fn reported(codec_levels: &[LevelCodecStats]) -> Vec<u64> {
    codec_levels.iter().map(|l| l.sieve_hits).collect()
}

/// A run's per-level stats against `expected`.
fn check_run(codec_levels: &[LevelCodecStats], expected: &[u64], what: &str) {
    let got = reported(codec_levels);
    assert_eq!(got, expected, "{what}");
    assert!(got.iter().sum::<u64>() > 0, "the sieve fires: {what}");
}

/// Every flat(p) and hybrid(p, 2) 1D run, p ∈ {1, 2, 3}, and every flat and
/// hybrid 2D run on 1×2, 2×2 and 2×3.
fn check(g: &CsrGraph, source: VertexId) {
    for p in 1..=3 {
        let expected = oracle_1d(g, source, p);
        for cfg in [Bfs1dConfig::flat(p), Bfs1dConfig::hybrid(p, 2)] {
            let what = format!(
                "1D ranks {p} threads {} source {source}",
                cfg.threads_per_rank
            );
            check_run(&bfs1d_run(g, source, &cfg).codec_levels, &expected, &what);
        }
    }
    for grid in [(1, 2), (2, 2), (2, 3)].map(|(pr, pc)| Grid2D::new(pr, pc)) {
        let expected = oracle_2d(g, source, grid);
        for cfg in [Bfs2dConfig::flat(grid), Bfs2dConfig::hybrid(grid, 2)] {
            let what = format!(
                "2D {grid:?} threads {} source {source}",
                cfg.threads_per_rank
            );
            check_run(&bfs2d_run(g, source, &cfg).codec_levels, &expected, &what);
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

/// R-MAT symmetrized but not canonicalized: self-loops and duplicate edges
/// stay, and every stored adjacency is one offer — in 2D as in 1D — so the
/// oracle counts a re-offered duplicate once per copy.
#[test]
fn multigraph_sieve_hits_count_every_stored_adjacency() {
    let mut el = rmat(&RmatConfig::graph500(8, 5));
    el.symmetrize();
    let g = CsrGraph::from_edge_list(&el);
    let n = g.num_vertices();
    let self_loop = (0..n).any(|u| g.neighbors(u).contains(&u));
    let duplicate = (0..n).any(|u| g.neighbors(u).windows(2).any(|w| w[0] == w[1]));
    assert!(
        self_loop && duplicate,
        "fixture lost its self-loops or duplicates"
    );
    for source in [0, n / 3] {
        check(&g, source);
    }
}

#[test]
fn grid_sieve_hits_match_oracle() {
    let g = CsrGraph::from_edge_list(&grid2d(7, 9));
    for source in [0, 31, 62] {
        check(&g, source);
    }
}
