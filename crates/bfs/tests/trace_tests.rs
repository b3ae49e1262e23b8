//! Tracing is a strict observer — the two guarantees the subsystem makes:
//!
//! 1. **No feedback**: with tracing enabled, both distributed drivers (in
//!    flat and hybrid mode) produce parent trees and level arrays
//!    bit-identical to the untraced run. Property-tested over random
//!    graphs, layouts, and sources.
//! 2. **No cost when off**: every hook on a disabled sink is a branch on
//!    `Option::None`. The overhead benchmark extrapolates the measured
//!    per-hook cost to the hook count of a real search and asserts the
//!    total stays under 5% of that search's untraced wall time.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::LevelDirection;
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use dmbfs_runtime::DirectionMode;
use dmbfs_trace::{RankTrace, SpanKind, TraceSink};
use proptest::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn traced_1d_is_bit_identical_to_untraced(
        g in graph(80, 400),
        p in 1usize..5,
        hybrid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let base = if hybrid {
            Bfs1dConfig::hybrid(p, 3)
        } else {
            Bfs1dConfig::flat(p)
        };
        let off = bfs1d_run(&g, source, &base);
        let on = bfs1d_run(&g, source, &base.with_trace(true));
        prop_assert_eq!(&on.output.parents, &off.output.parents);
        prop_assert_eq!(&on.output.levels, &off.output.levels);
        prop_assert!(off.per_rank_trace.iter().all(|t| t.spans.is_empty()));
        prop_assert!(on.per_rank_trace.iter().any(|t| !t.spans.is_empty()));
    }

    #[test]
    fn traced_2d_is_bit_identical_to_untraced(
        g in graph(64, 320),
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 3)]),
        hybrid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let grid = Grid2D::new(dims.0, dims.1);
        let base = if hybrid {
            Bfs2dConfig::hybrid(grid, 3)
        } else {
            Bfs2dConfig::flat(grid)
        };
        let off = bfs2d_run(&g, source, &base);
        let on = bfs2d_run(&g, source, &base.with_trace(true));
        prop_assert_eq!(&on.output.parents, &off.output.parents);
        prop_assert_eq!(&on.output.levels, &off.output.levels);
        prop_assert!(off.per_rank_trace.iter().all(|t| t.spans.is_empty()));
        prop_assert!(on.per_rank_trace.iter().any(|t| !t.spans.is_empty()));
    }
}

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    use dmbfs_graph::gen::{rmat, RmatConfig};
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Disabled-mode overhead stays under 5% of an untraced search.
///
/// Direct A/B wall-clock comparison of two full runs is too noisy to bound
/// a sub-percent effect, so this measures the disabled hooks themselves —
/// `now_ns` (what `Comm::trace_start` does) and `span` (what
/// `Comm::trace_span` does) on a `TraceSink::disabled()` — then charges a
/// real search's traced span count twice that per-hook cost (one start
/// read + one record per span, the hot-path pattern) and compares against
/// the same search's untraced internal seconds.
#[test]
fn disabled_tracing_overhead_is_bounded() {
    let g = rmat_graph(12, 9);
    let cfg = Bfs1dConfig::flat(4);
    let untraced = bfs1d_run(&g, 1, &cfg);
    let traced = bfs1d_run(&g, 1, &cfg.with_trace(true));
    let spans: u64 = traced
        .per_rank_trace
        .iter()
        .map(|t| t.spans.len() as u64 + t.dropped)
        .sum();
    assert!(spans > 0, "traced run must record spans");

    let mut sink = TraceSink::disabled();
    const ITERS: u64 = 1_000_000;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ITERS {
        acc = acc.wrapping_add(black_box(&sink).now_ns());
        black_box(&mut sink).span(black_box(SpanKind::Level), black_box(i), black_box(acc));
    }
    black_box(acc);
    let per_hook_pair = t0.elapsed().as_secs_f64() / ITERS as f64;

    let modeled_overhead = per_hook_pair * spans as f64;
    let budget = 0.05 * untraced.seconds;
    assert!(
        modeled_overhead < budget,
        "disabled hooks would cost {:.3e}s over {spans} spans, \
         budget is 5% of {:.3e}s untraced search",
        modeled_overhead,
        untraced.seconds
    );
}

/// The phases that hand a rank-local kernel to the rank's pool.
const KERNEL_PHASES: [SpanKind; 6] = [
    SpanKind::Pack,
    SpanKind::Encode,
    SpanKind::Decode,
    SpanKind::Unpack,
    SpanKind::BottomUpScan,
    SpanKind::SpMSV,
];

/// Every traced 1D and 2D configuration the executor tests run: 1D top-down,
/// 1D direction-optimizing (it must reach a bottom-up level, so the scan
/// runs) and 2D on a 1×2 grid, each with `threads` lanes per rank.
fn traced_runs(threads: usize) -> Vec<(String, Vec<RankTrace>)> {
    let g = rmat_graph(10, 3);
    let one_d = Bfs1dConfig::hybrid(2, threads).with_trace(true);
    let diropt = one_d.with_direction(DirectionMode::Hybrid);
    let mut runs = Vec::new();
    for cfg in [one_d, diropt] {
        let run = bfs1d_run(&g, 1, &cfg);
        if cfg.direction == DirectionMode::Hybrid {
            assert!(run.level_directions().contains(&LevelDirection::BottomUp));
        }
        runs.push((format!("1D {:?}", cfg.direction), run.per_rank_trace));
    }
    let two_d = Bfs2dConfig::hybrid(Grid2D::new(1, 2), threads).with_trace(true);
    runs.push(("2D 1x2".into(), bfs2d_run(&g, 1, &two_d).per_rank_trace));
    for (name, traces) in &runs {
        assert!(traces.iter().all(|t| !t.spans.is_empty()), "{name}");
    }
    runs
}

/// A flat rank's pool has one lane: the executor runs its parts inline and
/// records no `TaskBatch` span.
#[test]
fn flat_ranks_record_no_task_batch() {
    for (name, traces) in traced_runs(1) {
        let batches = traces.iter().flat_map(|t| &t.spans);
        let batches = batches.filter(|s| s.kind == SpanKind::TaskBatch).count();
        assert_eq!(batches, 0, "{name}");
    }
}

/// A pooled rank records its batches, each inside the kernel phase span of
/// the same level that issued it.
#[test]
fn pooled_ranks_nest_every_task_batch_in_a_kernel_phase() {
    for (name, traces) in traced_runs(2) {
        let mut batches = 0;
        for t in &traces {
            for b in t.spans.iter().filter(|s| s.kind == SpanKind::TaskBatch) {
                batches += 1;
                let nests = t.spans.iter().any(|p| {
                    KERNEL_PHASES.contains(&p.kind)
                        && p.level == b.level
                        && p.start_ns <= b.start_ns
                        && b.end_ns <= p.end_ns
                });
                assert!(
                    nests,
                    "{name}: rank {} batch {b:?} nests in no phase",
                    t.rank
                );
            }
        }
        assert!(batches > 0, "{name}: a pooled run records task batches");
    }
}
