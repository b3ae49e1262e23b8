//! Pinned output of graph construction.
//!
//! The gated benchmark prepares every input as generate →
//! `canonicalize_undirected` → `RandomPermutation::new(n, seed ^ 0xD5BF)` →
//! CSR. The fingerprints below are of that pipeline at small sizes, taken
//! when canonicalization was still remove-loops + symmetrize + a global
//! tuple sort; a change to a generator, the counting kernel or the
//! relabeling that moves a single adjacency fails here.

use dmbfs_graph::gen::{erdos_renyi, rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, EdgeList, RandomPermutation};

const SEED: u64 = 21;

/// The benchmark's CSR fingerprint: offsets, then adjacency.
fn fingerprint(g: &CsrGraph) -> u64 {
    let words = g.offsets().iter().map(|&o| o as u64);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words.chain(g.adjacency().iter().copied()) {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        h = h.rotate_left(29);
    }
    h
}

fn prepare(mut el: EdgeList) -> CsrGraph {
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, SEED ^ 0xD5BF);
    CsrGraph::from_edge_list(&perm.apply_edge_list(&el))
}

#[test]
fn rmat_scale_12_csr_is_pinned() {
    let g = prepare(rmat(&RmatConfig::graph500_ef(12, 16, SEED)));
    assert_eq!(g.num_edges(), 96_626);
    assert_eq!(fingerprint(&g), 0x7890_3753_7125_6aaf);
}

#[test]
fn webcrawl_256_csr_is_pinned() {
    let g = prepare(webcrawl(&WebCrawlConfig::uk_union_like(256, SEED)));
    assert_eq!(g.num_edges(), 203_002);
    assert_eq!(fingerprint(&g), 0x3aac_a84e_6fef_6c20);
}

#[test]
fn erdos_renyi_csr_is_pinned() {
    let g = prepare(erdos_renyi(1000, 8000, SEED));
    assert_eq!(g.num_edges(), 15_872);
    assert_eq!(fingerprint(&g), 0xe1df_2b20_fc0b_681a);
}

/// `RmatConfig::seed` promises the same list for every pool size; the
/// sizes cut 2.5 and 3.5 generator chunks, so the partial last chunk and
/// chunk-to-task assignment are both exercised.
#[test]
fn generators_give_the_same_list_under_every_pool_size() {
    let build = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            (
                rmat(&RmatConfig::graph500_ef(13, 20, SEED)),
                erdos_renyi(5000, 7 << 15, SEED),
            )
        })
    };
    let one = build(1);
    assert_eq!(one.0.len(), 20 << 13);
    for threads in [2, 3] {
        assert!(build(threads) == one, "{threads} threads changed the list");
    }
}
