//! The chunked double-buffered exchange pipeline is a transport concern —
//! the two guarantees it makes:
//!
//! 1. **Bit identity**: for every chunk count K, both distributed drivers
//!    produce parent trees and level arrays identical to the one-chunk
//!    exchange, across codec × sieve × flat/hybrid layouts.
//!    Property-tested over random graphs, layouts, and sources.
//! 2. **One path**: `overlap: None` is the pipeline with K = 1, not a
//!    second implementation — the two name the same run, down to each
//!    rank's `CommEvent` stream and the per-level codec telemetry.

use dmbfs_bfs::frontier_codec::Codec;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::{CommStats, Pattern};
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

fn codec_strategy() -> impl Strategy<Value = Codec> {
    prop::sample::select(vec![
        Codec::Off,
        Codec::Raw,
        Codec::VarintDelta,
        Codec::Bitmap,
        Codec::Adaptive,
    ])
}

/// Everything deterministic about each rank's communication: per event
/// the pattern, group size, and logical / wire / loaned byte counts (wall
/// and hidden times are measurements, not behaviour).
fn event_streams(per_rank: &[CommStats]) -> Vec<Vec<(Pattern, usize, [u64; 5])>> {
    per_rank
        .iter()
        .map(|stats| {
            stats
                .events
                .iter()
                .map(|e| {
                    let bytes = [e.bytes_out, e.bytes_in, e.wire_out, e.wire_in, e.loaned_out];
                    (e.pattern, e.group_size, bytes)
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn overlapped_1d_is_bit_identical_to_blocking(
        g in graph(80, 400),
        p in 1usize..5,
        hybrid in any::<bool>(),
        codec in codec_strategy(),
        sieve in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let base = if hybrid {
            Bfs1dConfig::hybrid(p, 3)
        } else {
            Bfs1dConfig::flat(p)
        }
        .with_codec(codec)
        .with_sieve(sieve);
        let blocking = bfs1d_run(&g, source, &base);
        validate_bfs(&g, source, &blocking.output.parents, &blocking.output.levels).unwrap();
        for k in [1usize, 2, 4] {
            let run = bfs1d_run(&g, source, &base.with_overlap(NonZeroUsize::new(k)));
            prop_assert_eq!(&run.output.parents, &blocking.output.parents);
            prop_assert_eq!(&run.output.levels, &blocking.output.levels);
            if k == 1 {
                // `None` and `Some(1)` are the same run, not just the same tree.
                prop_assert_eq!(
                    event_streams(&run.per_rank_stats),
                    event_streams(&blocking.per_rank_stats)
                );
                prop_assert_eq!(&run.codec_levels, &blocking.codec_levels);
            }
        }
    }

    #[test]
    fn overlapped_2d_is_bit_identical_to_blocking(
        g in graph(64, 320),
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 3)]),
        hybrid in any::<bool>(),
        codec in codec_strategy(),
        sieve in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let grid = Grid2D::new(dims.0, dims.1);
        let base = if hybrid {
            Bfs2dConfig::hybrid(grid, 3)
        } else {
            Bfs2dConfig::flat(grid)
        }
        .with_codec(codec)
        .with_sieve(sieve);
        let blocking = bfs2d_run(&g, source, &base);
        validate_bfs(&g, source, &blocking.output.parents, &blocking.output.levels).unwrap();
        for k in [1usize, 2, 4] {
            let run = bfs2d_run(&g, source, &base.with_overlap(NonZeroUsize::new(k)));
            prop_assert_eq!(&run.output.parents, &blocking.output.parents);
            prop_assert_eq!(&run.output.levels, &blocking.output.levels);
            if k == 1 {
                prop_assert_eq!(
                    event_streams(&run.per_rank_stats),
                    event_streams(&blocking.per_rank_stats)
                );
                prop_assert_eq!(&run.codec_levels, &blocking.codec_levels);
            }
        }
    }
}
