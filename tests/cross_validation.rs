//! Cross-validation matrix: every BFS implementation must produce the same
//! level assignment as the serial reference (Algorithm 1) on every graph
//! family, and every spanning tree must pass Graph 500 validation.
//!
//! This is the repository's strongest correctness statement: the 1D and 2D
//! distributed algorithms (flat and hybrid), the shared-memory variants,
//! and both reimplemented baselines all traverse identically.

use dmbfs::bfs::baseline::{pbgl_like_bfs, reference_mpi_bfs};
use dmbfs::bfs::shared::{shared_bfs_with, DiscoveryMode, SharedBfsConfig};
use dmbfs::graph::gen;
use dmbfs::prelude::*;

/// The instance zoo: name, prepared graph.
fn zoo() -> Vec<(&'static str, CsrGraph)> {
    let mut instances = Vec::new();

    let mut rmat = gen::rmat(&gen::RmatConfig::graph500(9, 31));
    rmat.canonicalize_undirected();
    let rmat = RandomPermutation::new(rmat.num_vertices, 5).apply_edge_list(&rmat);
    instances.push(("rmat-9", CsrGraph::from_edge_list(&rmat)));

    let mut er = gen::erdos_renyi(700, 4200, 3);
    er.canonicalize_undirected();
    instances.push(("erdos-renyi", CsrGraph::from_edge_list(&er)));

    instances.push(("path-97", CsrGraph::from_edge_list(&gen::path(97))));
    instances.push(("ring-64", CsrGraph::from_edge_list(&gen::ring(64))));
    instances.push(("tree-7", CsrGraph::from_edge_list(&gen::binary_tree(7))));
    instances.push(("grid-11x7", CsrGraph::from_edge_list(&gen::grid2d(11, 7))));
    instances.push(("torus-6x8", CsrGraph::from_edge_list(&gen::torus2d(6, 8))));

    let mut crawl = gen::webcrawl(&gen::WebCrawlConfig {
        num_communities: 8,
        community_size: 40,
        intra_degree: 6,
        bridges: 2,
        seed: 9,
    });
    crawl.canonicalize_undirected();
    instances.push(("webcrawl", CsrGraph::from_edge_list(&crawl)));

    // Disconnected: two R-MAT halves with disjoint vertex ranges.
    let mut a = gen::rmat(&gen::RmatConfig::graph500(7, 1));
    a.canonicalize_undirected();
    let offset = a.num_vertices;
    let mut b = gen::rmat(&gen::RmatConfig::graph500(7, 2));
    b.canonicalize_undirected();
    let mut edges = a.edges.clone();
    edges.extend(b.edges.iter().map(|&(u, v)| (u + offset, v + offset)));
    instances.push((
        "disconnected",
        CsrGraph::from_edge_list(&EdgeList::new(offset * 2, edges)),
    ));

    instances
}

fn check(name: &str, g: &CsrGraph, source: u64, got: &BfsOutput, expected: &BfsOutput) {
    assert_eq!(
        got.levels(),
        expected.levels(),
        "{name}: levels disagree from source {source}"
    );
    validate_bfs(g, source, &got.parents, got.levels())
        .unwrap_or_else(|e| panic!("{name}: validation failed: {e}"));
}

#[test]
fn one_d_flat_matches_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 1)[0];
        let expected = serial_bfs(&g, source);
        for p in [2usize, 5, 8] {
            let out = bfs1d(&g, source, &Bfs1dConfig::flat(p));
            check(name, &g, source, &out, &expected);
        }
    }
}

#[test]
fn one_d_hybrid_matches_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 2)[0];
        let expected = serial_bfs(&g, source);
        let out = bfs1d(&g, source, &Bfs1dConfig::hybrid(4, 2));
        check(name, &g, source, &out, &expected);
    }
}

#[test]
fn two_d_flat_matches_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 3)[0];
        let expected = serial_bfs(&g, source);
        for grid in [Grid2D::new(2, 2), Grid2D::new(3, 2), Grid2D::new(2, 4)] {
            let out = bfs2d(&g, source, &Bfs2dConfig::flat(grid));
            check(name, &g, source, &out, &expected);
        }
    }
}

#[test]
fn two_d_hybrid_matches_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 4)[0];
        let expected = serial_bfs(&g, source);
        let out = bfs2d(&g, source, &Bfs2dConfig::hybrid(Grid2D::new(2, 2), 2));
        check(name, &g, source, &out, &expected);
    }
}

#[test]
fn two_d_kernels_and_distributions_match_serial() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 5)[0];
        let expected = serial_bfs(&g, source);
        let flat = Bfs2dConfig::flat(Grid2D::new(3, 3));
        check(name, &g, source, &bfs2d(&g, source, &flat), &expected);
        let diag = Bfs2dConfig {
            distribution: VectorDistribution::Diagonal,
            ..Bfs2dConfig::flat(Grid2D::new(3, 3))
        };
        check(name, &g, source, &bfs2d(&g, source, &diag), &expected);
    }
}

#[test]
fn shared_memory_modes_match_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 6)[0];
        let expected = serial_bfs(&g, source);
        for mode in [
            DiscoveryMode::Cas,
            DiscoveryMode::BenignRace,
            DiscoveryMode::LockedStack,
        ] {
            let out = shared_bfs_with(&g, source, &SharedBfsConfig { mode });
            check(name, &g, source, &out, &expected);
        }
    }
}

#[test]
fn baselines_match_serial_everywhere() {
    for (name, g) in zoo() {
        let source = sample_sources(&g, 1, 7)[0];
        let expected = serial_bfs(&g, source);
        let r = reference_mpi_bfs(&g, source, 4);
        check(name, &g, source, &r.output, &expected);
        let p = pbgl_like_bfs(&g, source, 4);
        check(name, &g, source, &p.output, &expected);
    }
}

#[test]
fn exotic_2d_configuration_combinations_match_serial() {
    // Combinations not covered elsewhere: hybrid × diagonal distribution,
    // hybrid on square and rectangular grids, diagonal distribution on a
    // 4×4 grid, three threads on a tall grid.
    let (_, g) = zoo().remove(0);
    let source = sample_sources(&g, 1, 13)[0];
    let expected = serial_bfs(&g, source);

    let combos = [
        Bfs2dConfig {
            distribution: VectorDistribution::Diagonal,
            ..Bfs2dConfig::hybrid(Grid2D::new(3, 3), 2)
        },
        Bfs2dConfig::hybrid(Grid2D::new(2, 2), 2),
        Bfs2dConfig::hybrid(Grid2D::new(2, 4), 2),
        Bfs2dConfig {
            distribution: VectorDistribution::Diagonal,
            ..Bfs2dConfig::flat(Grid2D::new(4, 4))
        },
        Bfs2dConfig::hybrid(Grid2D::new(4, 2), 3),
    ];
    for (k, cfg) in combos.iter().enumerate() {
        let out = bfs2d(&g, source, cfg);
        assert_eq!(out.levels(), expected.levels(), "combo {k}: {cfg:?}");
        validate_bfs(&g, source, &out.parents, out.levels()).unwrap();
    }
}

#[test]
fn directed_graphs_traverse_identically_across_variants() {
    // Raw (un-symmetrized) R-MAT is a directed graph; §6 notes the
    // approaches "can work with directed graphs as well".
    use dmbfs::bfs::validate::validate_bfs_directed;
    let mut el = gen::rmat(&gen::RmatConfig::graph500(9, 77));
    el.remove_self_loops();
    el.dedup();
    let g = CsrGraph::from_edge_list(&el);
    // Pick a source with outgoing edges.
    let source = (0..g.num_vertices()).find(|&v| g.degree(v) > 0).unwrap();
    let expected = serial_bfs(&g, source);
    for p in [2usize, 4] {
        let out = bfs1d(&g, source, &Bfs1dConfig::flat(p));
        assert_eq!(out.levels(), expected.levels(), "1D p={p}");
        validate_bfs_directed(&g, source, &out.parents, out.levels()).unwrap();
    }
    for grid in [Grid2D::new(2, 2), Grid2D::new(2, 3)] {
        let out = bfs2d(&g, source, &Bfs2dConfig::flat(grid));
        assert_eq!(out.levels(), expected.levels(), "2D {grid:?}");
        validate_bfs_directed(&g, source, &out.parents, out.levels()).unwrap();
    }
    let shared = dmbfs::bfs::shared::shared_bfs(&g, source);
    assert_eq!(shared.levels(), expected.levels());
}

#[test]
fn all_variants_agree_from_many_sources() {
    let (_, g) = zoo().remove(0);
    for &source in sample_sources(&g, 6, 99).iter() {
        let expected = serial_bfs(&g, source);
        let a = bfs1d(&g, source, &Bfs1dConfig::flat(4));
        let b = bfs2d(&g, source, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        let c = shared_bfs(&g, source);
        assert_eq!(a.levels(), expected.levels());
        assert_eq!(b.levels(), expected.levels());
        assert_eq!(c.levels(), expected.levels());
    }
}
