//! The distributed direction-optimizing hybrid is an *execution-order*
//! concern, not a semantic one — the guarantees it makes:
//!
//! 1. **Oracle equivalence**: under `--direction hybrid` the 1D driver's
//!    parent tree validates and its level array is bit-identical to the
//!    serial BFS, across codec × sieve × flat/hybrid threading.
//!    Property-tested over random graphs, layouts, and sources.
//! 2. **Determinism**: forced bottom-up claims each vertex's parent as
//!    the first frontier hit in CSR adjacency order — a rank-count
//!    independent rule — so whole parent *trees* (not just levels) are
//!    identical across rank counts.
//! 3. **Typed faults in the bottom-up machinery**: a fault pinned to the
//!    bitmap-broadcast allgather surfaces as a typed report naming the
//!    injected rank, exactly like faults in the top-down exchange.
//! 4. **One loop**: a pinned direction is the αβ switch held still, not
//!    a second level loop — where the switch never fires, `hybrid` and
//!    `topdown` are indistinguishable from outside (collective schedule,
//!    call and byte counts, outputs).

use dmbfs_bfs::frontier_codec::Codec;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::{CollectiveKind, LevelDirection, VerifyFailure};
use dmbfs_graph::gen::{grid2d, path};
use dmbfs_graph::{CsrGraph, EdgeList};
use dmbfs_runtime::{
    DirectionMode, FailStopExit, FaultKind, FaultPlan, FaultSpec, FaultTrigger, InjectedFault,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

fn codec_strategy() -> impl Strategy<Value = Codec> {
    prop::sample::select(Codec::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hybrid_matches_serial_oracle_across_layouts(
        g in graph(80, 400),
        p in 1usize..5,
        hybrid_threads in any::<bool>(),
        codec in codec_strategy(),
        sieve in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let oracle = serial_bfs(&g, source);
        let cfg = if hybrid_threads {
            Bfs1dConfig::hybrid(p, 3)
        } else {
            Bfs1dConfig::flat(p)
        }
        .with_codec(codec)
        .with_sieve(sieve)
        .with_direction(DirectionMode::Hybrid);
        let run = bfs1d_run(&g, source, &cfg);
        validate_bfs(&g, source, &run.output.parents, &run.output.levels).unwrap();
        prop_assert_eq!(&run.output.levels, &oracle.levels);
    }

    #[test]
    fn forced_bottom_up_parent_trees_are_rank_count_independent(
        g in graph(64, 320),
        codec in codec_strategy(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let base_cfg = Bfs1dConfig::flat(1)
            .with_codec(codec)
            .with_direction(DirectionMode::BottomUp);
        let base = bfs1d_run(&g, source, &base_cfg);
        validate_bfs(&g, source, &base.output.parents, &base.output.levels).unwrap();
        for p in [2usize, 3, 5] {
            let cfg = Bfs1dConfig::flat(p)
                .with_codec(codec)
                .with_direction(DirectionMode::BottomUp);
            let run = bfs1d_run(&g, source, &cfg);
            prop_assert_eq!(&run.output.parents, &base.output.parents);
            prop_assert_eq!(&run.output.levels, &base.output.levels);
        }
    }
}

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    use dmbfs_graph::gen::{rmat, RmatConfig};
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// A fault pinned to the bitmap broadcast (`allgatherv_wire` — the only
/// collective the bottom-up path adds) is detected with a typed report
/// naming the injected rank, for both an injected panic and wire
/// corruption caught by the end-to-end checksums of the armed rank.
#[test]
fn faults_in_the_bitmap_broadcast_are_typed_and_name_the_rank() {
    let g = rmat_graph(9, 4);
    let ranks = 4usize;
    let injected = 2usize;
    for kind in [FaultKind::Panic, FaultKind::CorruptWire { seed: 0xB17 }] {
        let plan = FaultPlan::none().with_fault(FaultSpec {
            rank: injected,
            trigger: FaultTrigger::AtLevel(1),
            collective: Some(CollectiveKind::AllgathervWire),
            kind,
        });
        let cfg = Bfs1dConfig::flat(ranks)
            .with_direction(DirectionMode::BottomUp)
            .with_watchdog(Duration::from_millis(800))
            .with_faults(plan);
        let payload = catch_unwind(AssertUnwindSafe(|| bfs1d_run(&g, 3, &cfg).output))
            .expect_err("a fault in the bitmap broadcast must fail the run");
        if let Some(f) = payload.downcast_ref::<InjectedFault>() {
            assert_eq!(f.rank, injected, "{f}");
            assert_eq!(f.collective, CollectiveKind::AllgathervWire, "{f}");
        } else if let Some(f) = payload.downcast_ref::<VerifyFailure>() {
            assert_eq!(f.corrupt_source, Some(injected), "{f}");
        } else if let Some(f) = payload.downcast_ref::<FailStopExit>() {
            panic!("unexpected fail-stop report: {}", f.0);
        } else {
            panic!("untyped panic payload from a bitmap-broadcast fault");
        }
    }
}

/// The pinned loop *is* the switching loop. On graphs whose frontiers never
/// meet the αβ entry condition the hybrid run takes every level top-down,
/// and then nothing observable separates it from `DirectionMode::TopDown`:
/// same per-rank collective sequence (seed allreduce included), same call
/// and byte counts, same trees.
#[test]
fn pinned_top_down_is_the_hybrid_loop_with_the_switch_at_rest() {
    for (name, el) in [("path", path(40)), ("grid", grid2d(7, 9))] {
        let g = CsrGraph::from_edge_list(&el);
        for codec in [Codec::Raw, Codec::Adaptive] {
            let cfg = |direction| {
                Bfs1dConfig::flat(3)
                    .with_codec(codec)
                    .with_direction(direction)
                    .with_schedule_capture(true)
            };
            let hybrid = bfs1d_run(&g, 0, &cfg(DirectionMode::Hybrid));
            let dirs = hybrid.level_directions();
            assert!(
                dirs.iter().all(|&d| d == LevelDirection::TopDown),
                "{name}: the switch must stay at rest, got {dirs:?}"
            );
            let pinned = bfs1d_run(&g, 0, &cfg(DirectionMode::TopDown));
            assert_eq!(pinned.level_directions(), dirs, "{name}");
            assert!(!pinned.per_rank_schedule[0].is_empty(), "{name}");
            assert_eq!(pinned.per_rank_schedule, hybrid.per_rank_schedule, "{name}");
            for (a, b) in pinned.per_rank_stats.iter().zip(&hybrid.per_rank_stats) {
                assert_eq!(a.num_calls(), b.num_calls(), "{name} {codec:?}");
                assert_eq!(a.bytes_out(), b.bytes_out(), "{name} {codec:?}");
                assert_eq!(a.wire_out(), b.wire_out(), "{name} {codec:?}");
            }
            assert_eq!(pinned.output.levels, hybrid.output.levels, "{name}");
            assert_eq!(pinned.output.parents, hybrid.output.parents, "{name}");
            assert_eq!(pinned.num_levels, hybrid.num_levels, "{name}");
        }
    }
}
