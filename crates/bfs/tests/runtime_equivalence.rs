//! Property-based tests for the unified execution runtime: migrating the
//! baseline drivers onto `dmbfs_runtime::run_ranks` must not change a
//! single answer.
//!
//! Two properties per run:
//!
//! 1. **Oracle equivalence** — each baseline matches the serial BFS levels
//!    under flat and hybrid configurations.
//! 2. **Strict observer** — running with `trace: true` produces a
//!    non-empty per-rank trace, and `trace: false` none, without changing
//!    the levels. Tracing must never perturb a run.

use dmbfs_bfs::baseline::{pbgl_like_bfs_with, reference_mpi_bfs_with};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_graph::{CsrGraph, EdgeList};
use dmbfs_runtime::RunConfig;
use proptest::prelude::*;

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

/// The configurations every baseline must agree across: flat and hybrid,
/// each with tracing off and on.
fn configs(p: usize) -> [RunConfig; 4] {
    [
        RunConfig::flat(p),
        RunConfig::flat(p).with_trace(true),
        RunConfig::hybrid(p, 3),
        RunConfig::hybrid(p, 3).with_trace(true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn baselines_match_serial_oracle_in_every_mode(
        g in graph(60, 300),
        p in 1usize..5,
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let oracle = serial_bfs(&g, source);
        for cfg in configs(p) {
            for (name, run) in [
                ("reference", reference_mpi_bfs_with(&g, source, &cfg)),
                ("pbgl", pbgl_like_bfs_with(&g, source, &cfg)),
            ] {
                prop_assert_eq!(&run.output.levels, &oracle.levels, "{} {:?}", name, cfg);
                prop_assert_eq!(
                    run.per_rank_trace.iter().all(|t| !t.spans.is_empty()),
                    cfg.trace,
                    "{} spans iff traced: {:?}", name, cfg
                );
            }
        }
    }
}
