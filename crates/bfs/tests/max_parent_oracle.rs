//! An independent reference for the distributed parent trees.
//!
//! Every top-down driver resolves same-level claims by keeping the
//! numerically largest parent, so the tree it returns is a pure function
//! of the BFS levels: `parent[v] = max{u ∈ N(v) : level[u] = level[v] − 1}`.
//! The oracle below derives that from the serial levels and the CSR
//! alone — no pack, accumulator, codec or exchange code — and every 1D and
//! 2D configuration must match it exactly, edge cases of the accumulator's
//! gather (owner ranges straddling a 64-bit word, empty ranges, self-loops,
//! duplicate edges, tiny frontiers on the pool) included.
//!
//! A bottom-up level claims instead the *first* neighbour one level up in
//! CSR order (the min on sorted adjacency). The direction-aware oracle
//! takes each level's direction from the run's schedule and applies the
//! matching rule, so the 1D direction-optimizing runs are pinned too.

use dmbfs_bfs::one_d::{bfs1d, bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::two_d::{bfs2d, Bfs2dConfig, VectorDistribution};
use dmbfs_bfs::{BfsOutput, UNREACHED};
use dmbfs_comm::LevelDirection;
use dmbfs_graph::gen::{erdos_renyi, grid2d, path, rmat, RmatConfig};
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D, VertexId};
use dmbfs_runtime::DirectionMode;

/// The max-parent tree, from serial levels and adjacency only.
fn max_parent_oracle(g: &CsrGraph, source: VertexId) -> Vec<i64> {
    direction_aware_oracle(g, source, &[])
}

/// The parent tree of a run whose step `L − 1` (producing level `L`) ran
/// in `directions[L − 1]`: the max neighbour one level up on a top-down
/// level, the first in CSR order on a bottom-up one. Levels past the end
/// of `directions` count as top-down.
fn direction_aware_oracle(
    g: &CsrGraph,
    source: VertexId,
    directions: &[LevelDirection],
) -> Vec<i64> {
    let levels = serial_bfs(g, source).levels;
    (0..g.num_vertices())
        .map(|v| match levels[v as usize] {
            UNREACHED => UNREACHED,
            0 => source as i64,
            lv => {
                let mut up = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| levels[u as usize] == lv - 1);
                let parent = match directions.get(lv as usize - 1) {
                    Some(LevelDirection::BottomUp) => up.next(),
                    _ => up.max(),
                };
                *parent.expect("a reached vertex has a neighbour one level up") as i64
            }
        })
        .collect()
}

fn assert_matches(g: &CsrGraph, source: VertexId, out: &BfsOutput, expected: &[i64], what: &str) {
    assert_eq!(out.levels, serial_bfs(g, source).levels, "levels: {what}");
    assert_eq!(out.parents, expected, "parents: {what}");
}

/// Every listed 1D configuration against the oracle.
fn check_1d(g: &CsrGraph, source: VertexId, configs: &[Bfs1dConfig]) {
    let expected = max_parent_oracle(g, source);
    for cfg in configs {
        let what = format!(
            "1D ranks {} threads {} source {source}",
            cfg.ranks, cfg.threads_per_rank
        );
        assert_matches(g, source, &bfs1d(g, source, cfg), &expected, &what);
    }
}

/// Every listed 1D configuration, run direction-optimizing and pinned
/// bottom-up, against the direction-aware oracle of its own schedule.
fn check_1d_directions(g: &CsrGraph, source: VertexId, configs: &[Bfs1dConfig]) {
    for mode in [DirectionMode::Hybrid, DirectionMode::BottomUp] {
        for &cfg in configs {
            let run = bfs1d_run(g, source, &cfg.with_direction(mode));
            let directions = run.level_directions();
            let expected = direction_aware_oracle(g, source, &directions);
            let what = format!(
                "1D {mode:?} ranks {} threads {} source {source} schedule {directions:?}",
                cfg.ranks, cfg.threads_per_rank
            );
            assert_matches(g, source, &run.output, &expected, &what);
        }
    }
}

/// Every listed 2D configuration against the oracle.
fn check_2d(g: &CsrGraph, source: VertexId, configs: &[Bfs2dConfig]) {
    let expected = max_parent_oracle(g, source);
    for cfg in configs {
        let what = format!(
            "2D {}x{} {:?} threads {} source {source}",
            cfg.grid.rows(),
            cfg.grid.cols(),
            cfg.distribution,
            cfg.threads_per_rank
        );
        assert_matches(g, source, &bfs2d(g, source, cfg), &expected, &what);
    }
}

/// The flat and hybrid 2D configurations of the main matrix.
fn all_2d() -> Vec<Bfs2dConfig> {
    let flat =
        [(1, 1), (1, 2), (2, 2), (3, 2)].map(|(pr, pc)| Bfs2dConfig::flat(Grid2D::new(pr, pc)));
    let hybrid = [(1, 2, 2), (2, 2, 2), (3, 2, 3)]
        .map(|(pr, pc, t)| Bfs2dConfig::hybrid(Grid2D::new(pr, pc), t));
    flat.into_iter().chain(hybrid).collect()
}

/// The flat and hybrid 1D configurations of the main matrix.
fn all_1d() -> Vec<Bfs1dConfig> {
    let flat = [1, 2, 3, 5, 8].map(Bfs1dConfig::flat);
    let hybrid = [(1, 2), (1, 3), (2, 2), (3, 2)].map(|(p, t)| Bfs1dConfig::hybrid(p, t));
    flat.into_iter().chain(hybrid).collect()
}

fn canonical(mut el: EdgeList) -> CsrGraph {
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Both directions of every edge, kept raw: self-loops and duplicates stay.
fn raw_undirected(n: u64, edges: &[(u64, u64)]) -> CsrGraph {
    let both = edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    CsrGraph::from_edge_list(&EdgeList::new(n, both))
}

#[test]
fn rmat_matches_oracle_in_1d_and_2d() {
    for (scale, seed) in [(8, 3), (9, 17)] {
        let g = canonical(rmat(&RmatConfig::graph500(scale, seed)));
        for source in [0, g.num_vertices() / 3] {
            check_1d(&g, source, &all_1d());
            check_2d(&g, source, &all_2d());
        }
    }
}

#[test]
fn grid_matches_oracle_in_1d_and_2d() {
    let g = CsrGraph::from_edge_list(&grid2d(7, 9));
    for source in [0, 31, 62] {
        check_1d(&g, source, &all_1d());
        check_2d(&g, source, &all_2d());
    }
}

#[test]
fn owner_ranges_straddling_a_word() {
    // n = 200 splits into ranges of 67 (p = 3) or 29 (p = 7) vertices, so
    // most range edges fall inside a 64-bit word of `touched`.
    let g = canonical(erdos_renyi(200, 900, 5));
    let configs = [3, 7].map(Bfs1dConfig::flat).into_iter();
    let configs: Vec<_> = configs.chain([Bfs1dConfig::hybrid(3, 2)]).collect();
    for source in [0, 63, 64, 127, 199] {
        check_1d(&g, source, &configs);
    }
    // n = 64k ± 1: the last word is one bit short of full, or one bit into
    // the next. The masked boundary words are what keep two ranges' gather
    // tasks apart; inside its range a task stores slots plainly. In 2D the
    // ranges are the fold owners' slices of a processor row's matrix rows;
    // under the diagonal distribution all but one of them are empty.
    let configs_2d = [
        Bfs2dConfig::flat(Grid2D::new(1, 3)),
        Bfs2dConfig::flat(Grid2D::new(2, 3)),
        Bfs2dConfig {
            distribution: VectorDistribution::Diagonal,
            ..Bfs2dConfig::flat(Grid2D::new(3, 3))
        },
        Bfs2dConfig::hybrid(Grid2D::new(1, 3), 2),
    ];
    for n in [127, 129, 191, 193, 255, 257] {
        let g = canonical(erdos_renyi(n, 4 * n, n));
        for source in [0, n / 2, n - 1] {
            check_1d(&g, source, &configs);
            check_2d(&g, source, &configs_2d);
        }
    }
}

#[test]
fn more_ranks_than_vertices_leaves_empty_ranges() {
    let g = CsrGraph::from_edge_list(&path(3));
    let configs = [Bfs1dConfig::flat(6), Bfs1dConfig::hybrid(6, 2)];
    for source in 0..3 {
        check_1d(&g, source, &configs);
        // Bottom-up ranks with no owned vertex have no `unvisited` word.
        check_1d_directions(&g, source, &configs);
    }
    // 2D with p > n: empty matrix blocks, empty vector ranges and empty
    // fold destinations.
    let grids = [(2, 2), (3, 3), (1, 4), (4, 1)].map(|(pr, pc)| Grid2D::new(pr, pc));
    let configs: Vec<_> = grids
        .iter()
        .flat_map(|&grid| [Bfs2dConfig::flat(grid), Bfs2dConfig::hybrid(grid, 2)])
        .collect();
    let single = CsrGraph::from_edge_list(&EdgeList::new(1, Vec::new()));
    check_2d(&single, 0, &configs);
    for source in 0..3 {
        check_2d(&g, source, &configs);
    }
}

#[test]
fn self_loops_and_duplicate_edges() {
    let edges = [
        (0, 0),
        (0, 1),
        (0, 1),
        (1, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (2, 3),
        (3, 3),
        (1, 4),
        (3, 4),
        (4, 4),
        (4, 5),
        (2, 5),
        (5, 5),
    ];
    let g = raw_undirected(6, &edges);
    for source in 0..6 {
        check_1d(&g, source, &all_1d());
        check_1d_directions(&g, source, &all_1d());
        check_2d(&g, source, &all_2d());
    }
}

#[test]
fn single_vertex_and_isolated_source() {
    let single = CsrGraph::from_edge_list(&EdgeList::new(1, Vec::new()));
    check_1d(&single, 0, &[Bfs1dConfig::flat(1), Bfs1dConfig::flat(3)]);
    check_2d(&single, 0, &all_2d());
    // Vertex 0 has no edges; the rest is a connected path.
    let isolated = raw_undirected(10, &(1..9).map(|v| (v, v + 1)).collect::<Vec<_>>());
    check_1d(&isolated, 0, &all_1d());
    check_2d(&isolated, 0, &all_2d());
}

#[test]
fn pool_frontiers_below_and_above_the_chunk_length() {
    // A path keeps every frontier at one or two vertices — far below the
    // pool's minimum chunk length. From the hub, the second level's
    // frontier is 300 leaves, split across the pool's threads, racing for
    // the 50 outer vertices that six leaves each reach.
    let configs = [Bfs1dConfig::hybrid(1, 2), Bfs1dConfig::hybrid(2, 3)];
    let g = CsrGraph::from_edge_list(&path(40));
    check_1d(&g, 17, &configs);
    let hub = (1..=300).map(|v| (0, v));
    let outer = (1..=300).map(|v| (v, 301 + v % 50));
    let g = raw_undirected(351, &hub.chain(outer).collect::<Vec<_>>());
    for source in [0, 150, 320] {
        check_1d(&g, source, &configs);
    }
}

#[test]
fn direction_optimizing_1d_matches_the_direction_aware_oracle() {
    let flat = [1, 2, 3, 5].map(Bfs1dConfig::flat);
    let hybrid = [(2, 2), (3, 2)].map(|(p, t)| Bfs1dConfig::hybrid(p, t));
    let configs: Vec<_> = flat.into_iter().chain(hybrid).collect();
    for (scale, seed) in [(10, 7), (12, 3)] {
        let g = canonical(rmat(&RmatConfig::graph500(scale, seed)));
        let n = g.num_vertices();
        let sources = [0, n / 3, n - 1].map(|s| (s..n).find(|&v| g.degree(v) > 0).unwrap_or(s));
        for source in sources {
            check_1d_directions(&g, source, &configs);
        }
    }
    // Owner ranges that start inside a 64-bit word and end on a partial
    // tail word: the frontier payloads land at unaligned bases, and the
    // last `unvisited` word of a rank is short.
    let g = canonical(erdos_renyi(200, 900, 5));
    for source in [0, 63, 64, 127, 199] {
        check_1d_directions(&g, source, &configs);
    }
}

#[test]
fn bottom_up_after_a_top_down_stretch() {
    // Two dense clusters (hub → 50 leaves → all of 50 further vertices)
    // joined by a path, padded with isolated vertices. The first cluster's
    // bottom-up level examines more than its estimate and falls back to
    // top-down for the path; the second cluster re-enters bottom-up, whose
    // scan must see the vertices the top-down levels claimed as visited.
    let k = 50;
    let mut edges = Vec::new();
    let mut cluster = |hub: u64, leaves: u64| {
        for l in leaves..leaves + k {
            edges.push((hub, l));
            edges.extend((leaves + k..leaves + 2 * k).map(|m| (l, m)));
        }
    };
    cluster(0, 1);
    cluster(106, 107);
    edges.extend(
        [51, 101, 102, 103, 104, 105, 106]
            .windows(2)
            .map(|w| (w[0], w[1])),
    );
    let g = raw_undirected(1800, &edges);
    let cfg = Bfs1dConfig::flat(2).with_direction(DirectionMode::Hybrid);
    let directions = bfs1d_run(&g, 0, &cfg).level_directions();
    let bottom_up = |d: &LevelDirection| *d == LevelDirection::BottomUp;
    let first = directions
        .iter()
        .position(bottom_up)
        .expect("a bottom-up level");
    let back = first
        + directions[first..]
            .iter()
            .position(|d| !bottom_up(d))
            .unwrap();
    assert!(
        directions[back..].iter().any(bottom_up),
        "bottom-up, top-down, bottom-up again: {directions:?}"
    );
    let flat = [1, 2, 3, 5].map(Bfs1dConfig::flat);
    let hybrid = [(2, 2), (3, 2)].map(|(p, t)| Bfs1dConfig::hybrid(p, t));
    let configs: Vec<_> = flat.into_iter().chain(hybrid).collect();
    check_1d_directions(&g, 0, &configs);
}
