//! Property-based tests for the frontier wire codecs: every encoding
//! round-trips exactly, and — the load-bearing invariant — the BFS
//! parent tree is bit-identical across every codec × sieve choice for
//! both distributed algorithms, against the `Raw`, sieve-off run (the
//! identity encoding with nothing filtered). Compression is a transport
//! concern; it must never change the answer.

use dmbfs_bfs::frontier_codec::{decode_pairs, decode_set, encode_pairs, encode_set, Codec};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a half-open owner range plus a sorted, deduplicated set of
/// targets inside it, each paired with an arbitrary parent id.
fn payload() -> impl Strategy<Value = (u64, u64, Vec<(u64, u64)>)> {
    (
        0u64..1 << 40,
        1u64..5000,
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..200),
    )
        .prop_map(|(base, len, raw)| {
            let mut seen = BTreeSet::new();
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            for (off, parent) in raw {
                if seen.insert(off % len) {
                    pairs.push((base + off % len, parent % (1 << 48)));
                }
            }
            pairs.sort_unstable();
            (base, len, pairs)
        })
}

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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pairs_round_trip_under_every_codec(
        (base, len, pairs) in payload(),
        codec in codec_strategy(),
    ) {
        let buf = encode_pairs(&pairs, base..base + len, codec);
        prop_assert_eq!(buf.logical_bytes, 16 * pairs.len() as u64);
        prop_assert_eq!(decode_pairs(buf.bytes()), pairs);
    }

    #[test]
    fn sets_round_trip_under_every_codec(
        (base, len, pairs) in payload(),
        codec in codec_strategy(),
    ) {
        let set: Vec<u64> = pairs.iter().map(|&(t, _)| t).collect();
        let buf = encode_set(&set, base..base + len, codec);
        prop_assert_eq!(buf.logical_bytes, 8 * set.len() as u64);
        prop_assert_eq!(decode_set(buf.bytes()), set);
    }

    #[test]
    fn adaptive_never_beaten_by_its_candidates(
        (base, len, pairs) in payload(),
    ) {
        let adaptive = encode_pairs(&pairs, base..base + len, Codec::Adaptive);
        for codec in [Codec::Raw, Codec::VarintDelta, Codec::Bitmap] {
            let fixed = encode_pairs(&pairs, base..base + len, codec);
            prop_assert!(adaptive.wire_bytes() <= fixed.wire_bytes());
        }
    }

    #[test]
    fn parent_tree_invariant_under_codec_and_sieve_1d(
        g in graph(80, 400),
        p in 1usize..6,
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let raw = Bfs1dConfig::flat(p).with_codec(Codec::Raw).with_sieve(false);
        let baseline = bfs1d_run(&g, source, &raw).output;
        validate_bfs(&g, source, &baseline.parents, &baseline.levels).unwrap();
        for codec in Codec::ALL {
            for sieve in [false, true] {
                let cfg = Bfs1dConfig::flat(p).with_codec(codec).with_sieve(sieve);
                let run = bfs1d_run(&g, source, &cfg);
                prop_assert_eq!(&run.output.parents, &baseline.parents);
                prop_assert_eq!(&run.output.levels, &baseline.levels);
            }
        }
    }

    #[test]
    fn parent_tree_invariant_under_codec_and_sieve_2d(
        g in graph(64, 320),
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (3, 3)]),
        seed in any::<u64>(),
    ) {
        let grid = Grid2D::new(dims.0, dims.1);
        let source = seed % g.num_vertices();
        let raw = Bfs2dConfig::flat(grid).with_codec(Codec::Raw).with_sieve(false);
        let baseline = bfs2d_run(&g, source, &raw).output;
        validate_bfs(&g, source, &baseline.parents, &baseline.levels).unwrap();
        for codec in Codec::ALL {
            for sieve in [false, true] {
                let cfg = Bfs2dConfig::flat(grid).with_codec(codec).with_sieve(sieve);
                let run = bfs2d_run(&g, source, &cfg);
                prop_assert_eq!(&run.output.parents, &baseline.parents);
                prop_assert_eq!(&run.output.levels, &baseline.levels);
            }
        }
    }
}
