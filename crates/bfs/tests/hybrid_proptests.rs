//! Property-based tests for the hybrid (MPI + threads) variants: with a
//! real thread pool behind the rayon facade, which thread runs which part
//! is nondeterministic — these tests pin down that the *answers* are not.
//! For both distributed algorithms the hybrid run must produce levels and
//! parents bit-identical to the flat run (the max-parent tie-break makes
//! the reduction order-independent), and the parent tree must validate.
//!
//! Run single-threaded (`RUST_TEST_THREADS=1`) these still exercise
//! multi-threaded rank pools — the pool size is the config's
//! `threads_per_rank`, not the test harness's thread count. CI invokes
//! this file both ways (see `.github/workflows/ci.yml`).

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use proptest::prelude::*;

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hybrid_1d_matches_flat(
        g in graph(80, 400),
        p in 1usize..5,
        threads in 2usize..5,
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let flat = bfs1d_run(&g, source, &Bfs1dConfig::flat(p)).output;
        validate_bfs(&g, source, &flat.parents, &flat.levels).unwrap();
        let hybrid = bfs1d_run(&g, source, &Bfs1dConfig::hybrid(p, threads)).output;
        validate_bfs(&g, source, &hybrid.parents, &hybrid.levels).unwrap();
        prop_assert_eq!(&hybrid.parents, &flat.parents);
        prop_assert_eq!(&hybrid.levels, &flat.levels);
    }

    #[test]
    fn hybrid_2d_matches_flat(
        g in graph(64, 320),
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 3)]),
        threads in 2usize..5,
        seed in any::<u64>(),
    ) {
        let grid = Grid2D::new(dims.0, dims.1);
        let source = seed % g.num_vertices();
        let flat = bfs2d_run(&g, source, &Bfs2dConfig::flat(grid)).output;
        validate_bfs(&g, source, &flat.parents, &flat.levels).unwrap();
        let hybrid = bfs2d_run(&g, source, &Bfs2dConfig::hybrid(grid, threads)).output;
        validate_bfs(&g, source, &hybrid.parents, &hybrid.levels).unwrap();
        prop_assert_eq!(&hybrid.parents, &flat.parents);
        prop_assert_eq!(&hybrid.levels, &flat.levels);
    }

    #[test]
    fn hybrid_level_timings_cover_every_level(
        g in graph(48, 200),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let run = bfs1d_run(&g, source, &Bfs1dConfig::hybrid(2, 2));
        for stats in &run.per_rank_stats {
            prop_assert_eq!(stats.level_timings.len() as u32, run.num_levels);
            for (k, t) in stats.level_timings.iter().enumerate() {
                prop_assert_eq!(t.level as usize, k);
            }
        }
    }
}
