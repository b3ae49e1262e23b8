//! Property-based tests for the graph substrate.

use dmbfs_graph::components::connected_components;
use dmbfs_graph::csr::CsrGraph;
use dmbfs_graph::edge_list::EdgeList;
use dmbfs_graph::ordering::rcm_permutation;
use dmbfs_graph::partition::{Block1D, Grid2D, OwnerMap2D};
use dmbfs_graph::permute::RandomPermutation;
use dmbfs_graph::stats::bfs_levels;
use dmbfs_graph::{io, VertexId};
use proptest::prelude::*;

fn edges(n: u64, max_m: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..n, 0..n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_preserves_every_edge(e in edges(50, 300)) {
        let g = CsrGraph::from_edges(50, &e);
        g.check_invariants().unwrap();
        prop_assert_eq!(g.num_edges() as usize, e.len());
        let mut expected = e.clone();
        expected.sort_unstable();
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn csr_neighbor_blocks_are_sorted(e in edges(40, 200)) {
        let g = CsrGraph::from_edges(40, &e);
        for v in 0..40 {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn canonicalize_yields_simple_symmetric_graph(e in edges(30, 200)) {
        let mut el = EdgeList::new(30, e);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        for (u, v) in g.edges() {
            prop_assert_ne!(u, v);
            prop_assert!(g.has_edge(v, u), "missing reverse of ({}, {})", u, v);
        }
        // No duplicates: each block strictly ascending.
        for v in 0..30 {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn canonicalize_equals_loops_symmetrize_sort_dedup(
        n in 0u64..12,
        e in prop::collection::vec((0u64..1000, 0u64..1000), 0..200),
    ) {
        // Few vertices: loops and duplicates in most cases; n = 0 and 1 too.
        let e: Vec<(u64, u64)> = if n == 0 {
            Vec::new()
        } else {
            e.into_iter().map(|(u, v)| (u % n, v % n)).collect()
        };
        let mut expected = EdgeList::new(n, e.clone());
        expected.remove_self_loops();
        expected.symmetrize();
        expected.edges.sort_unstable();
        expected.edges.dedup();
        let mut got = EdgeList::new(n, e);
        got.canonicalize_undirected();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn dedup_equals_sort_dedup(
        n in 1u64..12,
        e in prop::collection::vec((0u64..1000, 0u64..1000), 0..200),
    ) {
        let e: Vec<(u64, u64)> = e.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let mut expected = e.clone();
        expected.sort_unstable();
        expected.dedup();
        let mut got = EdgeList::new(n, e);
        got.dedup();
        prop_assert_eq!(got.edges, expected);
    }

    #[test]
    fn block1d_partitions_exactly(n in 0u64..10_000, p in 1usize..64) {
        let b = Block1D::new(n, p);
        let mut total = 0u64;
        for r in 0..p {
            let range = b.range(r);
            total += range.end - range.start;
            for v in range {
                prop_assert_eq!(b.owner(v), r);
                let (owner, local) = b.to_local(v);
                prop_assert_eq!(b.to_global(owner, local), v);
            }
        }
        prop_assert_eq!(total, n);
    }

    #[test]
    fn owner2d_vector_ranges_tile_domain(
        n in 1u64..2_000,
        pr in 1usize..6,
        pc in 1usize..6,
    ) {
        let m = OwnerMap2D::new(n, Grid2D::new(pr, pc));
        let mut covered = vec![false; n as usize];
        for i in 0..pr {
            for j in 0..pc {
                for v in m.vector_range(i, j) {
                    prop_assert!(!covered[v as usize], "overlap at {}", v);
                    covered[v as usize] = true;
                    prop_assert_eq!(m.vector_owner(v), (i, j));
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn owner2d_matrix_ranges_consistent(
        n in 1u64..2_000,
        pr in 1usize..6,
        pc in 1usize..6,
    ) {
        let m = OwnerMap2D::new(n, Grid2D::new(pr, pc));
        for v in 0..n {
            let i = m.row_owner(v);
            let j = m.col_owner(v);
            prop_assert!(m.matrix_row_range(i).contains(&v));
            prop_assert!(m.matrix_col_range(j).contains(&v));
        }
    }

    #[test]
    fn permutation_is_always_a_bijection(n in 1u64..3_000, seed in any::<u64>()) {
        let p = RandomPermutation::new(n, seed);
        prop_assert!(p.check());
        let mut seen = vec![false; n as usize];
        for v in 0..n {
            let image = p.apply(v);
            prop_assert!(!seen[image as usize]);
            seen[image as usize] = true;
            prop_assert_eq!(p.invert(image), v);
        }
    }

    #[test]
    fn components_agree_with_bfs_reachability(e in edges(40, 120)) {
        let mut el = EdgeList::new(40, e);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let cc = connected_components(&g);
        // BFS from each vertex reaches exactly its component.
        for s in 0..40u64 {
            let levels = bfs_levels(&g, s);
            for v in 0..40u64 {
                let same = cc.labels[v as usize] == cc.labels[s as usize];
                prop_assert_eq!(levels[v as usize].is_some(), same);
            }
        }
    }

    #[test]
    fn binary_io_round_trips_any_edge_list(
        n in 1u64..200,
        e in prop::collection::vec((0u64..1000, 0u64..1000), 0..150),
    ) {
        let e: Vec<(u64, u64)> = e.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let el = EdgeList::new(n, e);
        let mut buf = Vec::new();
        io::write_binary(&el, &mut buf).unwrap();
        prop_assert_eq!(io::read_binary(buf.as_slice()).unwrap(), el);
    }

    #[test]
    fn matrix_market_round_trips_deduped_lists(e in edges(50, 200)) {
        let mut el = EdgeList::new(50, e);
        el.dedup();
        let mut buf = Vec::new();
        io::write_matrix_market(&el, &mut buf).unwrap();
        let mut back = io::read_matrix_market(buf.as_slice()).unwrap();
        back.dedup();
        prop_assert_eq!(back, el);
    }

    #[test]
    fn rcm_is_always_a_bijection(e in edges(60, 250)) {
        let mut el = EdgeList::new(60, e);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let perm = rcm_permutation(&g);
        prop_assert!(perm.check());
        // Relabeled graph has the same degree multiset.
        let g2 = CsrGraph::from_edge_list(&perm.apply_edge_list(&el));
        let mut d1: Vec<usize> = (0..60).map(|v| g.degree(v as VertexId)).collect();
        let mut d2: Vec<usize> = (0..60).map(|v| g2.degree(v as VertexId)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn component_sizes_sum_to_n(e in edges(60, 200)) {
        let mut el = EdgeList::new(60, e);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let cc = connected_components(&g);
        prop_assert_eq!(cc.sizes.iter().sum::<u64>(), 60);
        prop_assert_eq!(cc.sizes.len(), cc.num_components);
    }
}
