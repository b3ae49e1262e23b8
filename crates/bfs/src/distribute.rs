//! Graph partitioning for the distributed algorithms.
//!
//! Real deployments distribute the graph during generation/ingest; here the
//! full graph lives in the calling process and each simulated rank derives
//! its partition from the shared [`CsrGraph`] on startup, without copying
//! or sorting it: a 1D rank borrows its block of the CSR ([`extract_1d`]),
//! and a 2D rank builds its DCSC block in one pass over the CSR's sorted
//! adjacency ([`block_dcsc`]). Both are read-only and happen before the
//! timed BFS region, mirroring the untimed "graph construction" phase of
//! the Graph 500 protocol.

use dmbfs_graph::{Block1D, CsrGraph, Grid2D, OwnerMap2D, VertexId};
use dmbfs_matrix::Dcsc;
use std::ops::Range;

/// Rank-local piece of a 1D vertex partition (§3.1): a contiguous vertex
/// range plus all outgoing adjacencies, borrowed from the global CSR.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Local1d<'g> {
    /// Global vertex range owned by this rank.
    pub range: Range<u64>,
    /// The ownership map over all ranks.
    pub block: Block1D,
    /// The global CSR offsets of the owned vertices (length `count + 1`);
    /// they index [`Local1d::adjacency`].
    pub offsets: &'g [usize],
    /// The global CSR adjacency, targets as *global* vertex ids (targets
    /// are usually remote, so local re-indexing would not help).
    pub adjacency: &'g [VertexId],
}

impl Local1d<'_> {
    /// Number of owned vertices.
    pub fn count(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// Local index of global vertex `v` (must be owned).
    #[inline]
    pub fn to_local(&self, v: VertexId) -> usize {
        debug_assert!(self.range.contains(&v));
        (v - self.range.start) as usize
    }

    /// Global id of local index `i`.
    #[inline]
    pub fn to_global(&self, i: usize) -> VertexId {
        self.range.start + i as u64
    }

    /// Neighbors (global ids) of owned global vertex `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let i = self.to_local(v);
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of adjacencies of the owned vertices.
    pub fn num_local_edges(&self) -> usize {
        self.offsets[self.count()] - self.offsets[0]
    }
}

/// Rank `rank`'s 1D partition of `g` over `p` ranks, borrowing `g`.
pub fn extract_1d(g: &CsrGraph, p: usize, rank: usize) -> Local1d<'_> {
    let block = Block1D::new(g.num_vertices(), p);
    let range = block.range(rank);
    Local1d {
        offsets: &g.offsets()[range.start as usize..=range.end as usize],
        adjacency: g.adjacency(),
        range,
        block,
    }
}

/// `P(i, j)`'s submatrix `A_ij` of a 2D checkerboard partition (§3.2) as
/// DCSC: matrix rows `rows` (destination vertices) × columns `cols`
/// (source vertices), where entry `(v, u)` represents edge `u → v` (the
/// matrix is stored pre-transposed, as §3.2 assumes, so SpMSV pushes the
/// frontier along out-edges). Indices are block-local.
///
/// Column `u` is the part of `u`'s sorted CSR adjacency that falls in
/// `rows`, found with two binary searches and rebased by `rows.start`, so
/// the block is built in one pass with no intermediate triples and no
/// sort; duplicate edges collapse to one nonzero. Aggregate work over one
/// processor row is `O(m)`.
pub fn block_dcsc(g: &CsrGraph, rows: Range<u64>, cols: Range<u64>) -> Dcsc {
    let (row0, col0) = (rows.start, cols.start);
    let columns = cols.clone().map(|u| {
        let nbrs = g.neighbors(u);
        let lo = nbrs.partition_point(|&v| v < rows.start);
        let hi = lo + nbrs[lo..].partition_point(|&v| v < rows.end);
        (u - col0, nbrs[lo..hi].iter().map(move |&v| v - row0))
    });
    Dcsc::from_sorted_columns(rows.end - row0, cols.end - col0, columns)
}

/// Rank-local piece of a 2D checkerboard partition (§3.2) as coordinate
/// triples: processor `P(i, j)` holds submatrix `A_ij` covering matrix rows
/// `row_range(i)` × columns `col_range(j)`, where entry `(v, u)` represents
/// edge `u → v`.
#[derive(Clone, Debug)]
pub struct Local2d {
    /// Grid coordinates of this rank.
    pub coords: (usize, usize),
    /// The global ownership map.
    pub map: OwnerMap2D,
    /// Global matrix-row range of this block (output/destination vertices).
    pub row_range: Range<u64>,
    /// Global matrix-column range of this block (input/source vertices).
    pub col_range: Range<u64>,
    /// Submatrix nonzeros as (block-local row, block-local col).
    pub triples: Vec<(u64, u64)>,
}

impl Local2d {
    /// Block height (output dimension of the local SpMSV).
    pub fn nrows(&self) -> u64 {
        self.row_range.end - self.row_range.start
    }

    /// Block width (input dimension of the local SpMSV).
    pub fn ncols(&self) -> u64 {
        self.col_range.end - self.col_range.start
    }
}

/// `P(i, j)`'s submatrix as one `(row, col)` triple per stored adjacency
/// (duplicates kept), scanning only the sources in `col_range(j)`.
///
/// No search runs this: 2D ranks build their block with [`block_dcsc`].
/// It is the reference path — `Dcsc::from_triples` over these triples is
/// what the tests hold [`block_dcsc`] equal to, and what the benchmark's
/// layer phase times as the triples-then-sort construction.
pub fn extract_2d(g: &CsrGraph, grid: Grid2D, i: usize, j: usize) -> Local2d {
    let map = OwnerMap2D::new(g.num_vertices(), grid);
    let row_range = map.matrix_row_range(i);
    let col_range = map.matrix_col_range(j);
    let mut triples = Vec::new();
    for u in col_range.clone() {
        for &v in g.neighbors(u) {
            if row_range.contains(&v) {
                triples.push((v - row_range.start, u - col_range.start));
            }
        }
    }
    Local2d {
        coords: (i, j),
        map,
        row_range,
        col_range,
        triples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_graph::gen::{rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};

    fn sample() -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(7, 77));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    /// A directed R-MAT graph as generated: duplicate edges and self-loops
    /// are kept.
    fn raw_sample() -> CsrGraph {
        let g = CsrGraph::from_edge_list(&rmat(&RmatConfig::graph500(7, 77)));
        let n = g.num_vertices();
        let self_loop = (0..n).any(|u| g.neighbors(u).contains(&u));
        let duplicate = (0..n).any(|u| g.neighbors(u).windows(2).any(|w| w[0] == w[1]));
        assert!(
            self_loop && duplicate,
            "fixture lost its self-loops or duplicate edges"
        );
        g
    }

    /// Part counts with one part, several uneven ones, and empty parts
    /// (`p > n`).
    fn part_counts(g: &CsrGraph) -> [usize; 5] {
        [1, 2, 3, 5, g.num_vertices() as usize + 2]
    }

    #[test]
    fn one_d_pieces_cover_all_edges() {
        let g = raw_sample();
        for p in part_counts(&g) {
            let mut total = 0;
            for r in 0..p {
                let local = extract_1d(&g, p, r);
                if local.count() == 0 {
                    assert_eq!(local.num_local_edges(), 0, "p = {p}, rank {r}");
                }
                total += local.num_local_edges();
            }
            assert_eq!(total as u64, g.num_edges(), "p = {p}");
        }
    }

    #[test]
    fn one_d_neighbors_match_global() {
        let g = raw_sample();
        let whole = g.adjacency().as_ptr_range();
        for p in part_counts(&g) {
            for r in 0..p {
                let local = extract_1d(&g, p, r);
                for v in local.range.clone() {
                    let nbrs = local.neighbors(v);
                    assert_eq!(nbrs, g.neighbors(v), "p = {p}, vertex {v}");
                    // Borrowed, not copied: the slice lies inside the CSR.
                    let ptrs = nbrs.as_ptr_range();
                    assert!(
                        whole.start <= ptrs.start && ptrs.end <= whole.end,
                        "p = {p}, vertex {v}: adjacency is not borrowed from the CSR"
                    );
                }
            }
        }
    }

    #[test]
    fn one_d_local_global_round_trip() {
        let g = sample();
        let local = extract_1d(&g, 3, 1);
        for v in local.range.clone() {
            assert_eq!(local.to_global(local.to_local(v)), v);
        }
    }

    /// Every stored adjacency lands in exactly one block's triples, and
    /// every block's CSR-built DCSC equals the sorted triples' DCSC — on a
    /// raw graph, so duplicate edges and self-loops are exercised.
    #[test]
    fn two_d_blocks_cover_all_edges_exactly_once() {
        let g = raw_sample();
        for (pr, pc) in [(1, 1), (1, 2), (2, 3), (3, 2), (4, 1), (3, 3)] {
            let grid = Grid2D::new(pr, pc);
            let mut total = 0;
            for (i, j) in (0..pr).flat_map(|i| (0..pc).map(move |j| (i, j))) {
                let b = extract_2d(&g, grid, i, j);
                total += b.triples.len();
                let built = block_dcsc(&g, b.row_range.clone(), b.col_range.clone());
                built.check_invariants().unwrap();
                let reference = Dcsc::from_triples(b.nrows(), b.ncols(), &b.triples);
                assert_eq!(built, reference, "grid {pr}x{pc}, block ({i}, {j})");
            }
            assert_eq!(total as u64, g.num_edges(), "grid {pr}x{pc}");
        }
    }

    #[test]
    fn two_d_block_contains_expected_entry() {
        // Edge 0 -> 1 must appear in the block owning row 1, col 0.
        let el = EdgeList::new(4, vec![(0, 1), (1, 0), (2, 3), (3, 2)]);
        let g = CsrGraph::from_edge_list(&el);
        let grid = Grid2D::new(2, 2);
        let map = OwnerMap2D::new(4, grid);
        let i = 0; // row range 0..2 contains v=1
        let j = 0; // col range 0..2 contains u=0
        let block = extract_2d(&g, grid, i, j);
        assert_eq!(map.matrix_row_range(0), 0..2);
        assert!(block.triples.contains(&(1, 0)), "{:?}", block.triples);
    }

    #[test]
    fn two_d_triples_are_in_block_bounds() {
        let g = sample();
        let grid = Grid2D::new(4, 2);
        for i in 0..4 {
            for j in 0..2 {
                let b = extract_2d(&g, grid, i, j);
                for &(r, c) in &b.triples {
                    assert!(r < b.nrows() && c < b.ncols());
                }
            }
        }
    }
}
