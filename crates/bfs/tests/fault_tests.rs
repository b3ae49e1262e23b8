//! Fault injection end-to-end: every scheduled fault must surface as a
//! *typed* report naming the injected rank within the watchdog deadline —
//! no hangs, no silent wrong answers — and an idle fault layer must be a
//! strict observer. Three guarantees:
//!
//! 1. **Detection**: property-tested over (algorithm × rank × level ×
//!    fault kind), an injected panic unwinds as [`InjectedFault`], and
//!    fail-stop / delay / wire corruption are caught by the rendezvous
//!    board as a [`VerifyFailure`] whose laggard list or corruption source
//!    names the injected rank.
//! 2. **No feedback**: an empty [`FaultPlan`] — and an armed plan whose
//!    trigger site is never reached, which still turns on the end-to-end
//!    wire checksums — leave parent trees and level arrays bit-identical
//!    to the baseline run, across both drivers, flat and hybrid, and
//!    several 2D grid shapes.
//! 3. **No cost when off**: the disabled per-collective hook is one
//!    `Option` check; its modeled total stays under 5% of a real search.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::{FailureKind, VerifyFailure};
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use dmbfs_runtime::{fault_disabled_hook_cost, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
use dmbfs_runtime::{FailStopExit, InjectedFault};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    use dmbfs_graph::gen::{rmat, RmatConfig};
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

/// The four injectable kinds. The delay outlives the watchdog limit so a
/// delayed rank is *reported*, not merely slow.
fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop::sample::select(vec![
        FaultKind::Panic,
        FaultKind::FailStop,
        FaultKind::Delay { millis: 2_000 },
        FaultKind::CorruptWire { seed: 0xC0FFEE },
    ])
}

/// Runs one faulted search and returns the panic payload (the run must
/// not complete: every grid point below sits inside the searched region).
fn faulted_payload(
    g: &CsrGraph,
    two_d: bool,
    ranks: usize,
    source: u64,
    spec: FaultSpec,
) -> Box<dyn std::any::Any + Send> {
    let plan = FaultPlan::none().with_fault(spec);
    let timeout = Duration::from_millis(800);
    let result = catch_unwind(AssertUnwindSafe(|| {
        if two_d {
            let cfg = Bfs2dConfig::flat(Grid2D::closest_square(ranks))
                .with_watchdog(timeout)
                .with_faults(plan);
            bfs2d_run(g, source, &cfg).output
        } else {
            let cfg = Bfs1dConfig::flat(ranks)
                .with_watchdog(timeout)
                .with_faults(plan);
            bfs1d_run(g, source, &cfg).output
        }
    }));
    result.expect_err("an injected fault must fail the run, not complete it")
}

/// Asserts the payload is one of the typed reports and that it names the
/// injected rank.
fn assert_typed_and_named(payload: &(dyn std::any::Any + Send), injected: usize, kind: FaultKind) {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        assert_eq!(f.rank, injected, "injected-panic payload names the rank");
        return;
    }
    if let Some(f) = payload.downcast_ref::<FailStopExit>() {
        assert_eq!(f.0.rank, injected, "fail-stop payload names the rank");
        return;
    }
    if let Some(f) = payload.downcast_ref::<VerifyFailure>() {
        match f.kind {
            FailureKind::Corruption => {
                assert_eq!(
                    f.corrupt_source,
                    Some(injected),
                    "corruption report names the source rank"
                );
            }
            _ => {
                let laggards = f.laggards();
                assert!(
                    laggards.contains(&injected),
                    "watchdog report must name rank {injected} among laggards {laggards:?}"
                );
            }
        }
        return;
    }
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| {
            payload
                .downcast_ref::<&'static str>()
                .map(|s| s.to_string())
        })
        .unwrap_or_default();
    panic!("fault {kind:?} escaped with an untyped payload: {msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sweep (algorithm × rank × level × kind) on a fixed R-MAT instance
    /// whose first two levels are dense enough that every kind — including
    /// wire corruption, which waits for a non-empty off-rank payload —
    /// actually fires.
    #[test]
    fn every_injected_fault_yields_a_typed_report_naming_the_rank(
        two_d in any::<bool>(),
        rank in 0usize..4,
        level in 1i64..3,
        kind in kind_strategy(),
    ) {
        let g = rmat_graph(8, 9);
        let spec = FaultSpec {
            rank,
            trigger: FaultTrigger::AtLevel(level),
            collective: None,
            kind,
        };
        let payload = faulted_payload(&g, two_d, 4, 1, spec);
        assert_typed_and_named(payload.as_ref(), rank, kind);
    }

    /// Strict observer: an empty plan and an armed-but-never-triggered
    /// plan (hooks and checksums on every collective) both leave the
    /// output bit-identical to the baseline.
    #[test]
    fn idle_fault_plans_leave_the_search_bit_identical(
        g in graph(80, 400),
        p in 1usize..5,
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 3)]),
        two_d in any::<bool>(),
        hybrid in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        // A fault parked at a BFS level no search will ever reach: the
        // hooks run on every collective but the trigger never matches.
        let never = |rank: usize| FaultPlan::none().with_fault(FaultSpec {
            rank,
            trigger: FaultTrigger::AtLevel(1_000_000),
            collective: None,
            kind: FaultKind::Panic,
        });
        if two_d {
            let grid = Grid2D::new(dims.0, dims.1);
            let never = never(grid.size() - 1);
            let base = if hybrid {
                Bfs2dConfig::hybrid(grid, 3)
            } else {
                Bfs2dConfig::flat(grid)
            };
            let off = bfs2d_run(&g, source, &base);
            let empty = bfs2d_run(&g, source, &base.with_faults(FaultPlan::none()));
            let armed = bfs2d_run(&g, source, &base.with_faults(never));
            prop_assert_eq!(&empty.output.parents, &off.output.parents);
            prop_assert_eq!(&armed.output.parents, &off.output.parents);
            prop_assert_eq!(&armed.output.levels, &off.output.levels);
        } else {
            let never = never(p - 1);
            let base = if hybrid {
                Bfs1dConfig::hybrid(p, 3)
            } else {
                Bfs1dConfig::flat(p)
            };
            let off = bfs1d_run(&g, source, &base);
            let empty = bfs1d_run(&g, source, &base.with_faults(FaultPlan::none()));
            let armed = bfs1d_run(&g, source, &base.with_faults(never));
            prop_assert_eq!(&empty.output.parents, &off.output.parents);
            prop_assert_eq!(&armed.output.parents, &off.output.parents);
            prop_assert_eq!(&armed.output.levels, &off.output.levels);
        }
    }
}

/// Disabled-mode overhead stays under 5% of an unfaulted search — the same
/// methodology as the trace overhead bound: measure the
/// disabled hook (one `Option` check per collective), charge a real
/// search's collective count with it, compare against that search's
/// internal seconds.
#[test]
fn disabled_fault_overhead_is_bounded() {
    let g = rmat_graph(12, 9);
    let cfg = Bfs1dConfig::flat(4);
    let unfaulted = bfs1d_run(&g, 1, &cfg);
    let collectives: u64 = unfaulted
        .per_rank_stats
        .iter()
        .map(|s| s.num_calls() as u64)
        .sum();
    assert!(collectives > 0, "a search must issue collectives");

    const ITERS: u64 = 1_000_000;
    let per_hook = fault_disabled_hook_cost(ITERS).as_secs_f64() / ITERS as f64;

    let modeled_overhead = per_hook * collectives as f64;
    let budget = 0.05 * unfaulted.seconds;
    assert!(
        modeled_overhead < budget,
        "disabled fault hooks would cost {:.3e}s over {collectives} collectives, \
         budget is 5% of {:.3e}s unfaulted search",
        modeled_overhead,
        unfaulted.seconds
    );
}
