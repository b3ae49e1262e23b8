//! Compressed sparse row (CSR) adjacency storage.
//!
//! §4.1 of the paper: "we use a 'compressed sparse row' (CSR)-like
//! representation for storing adjacencies. All adjacencies of a vertex are
//! sorted and compactly stored in a contiguous chunk of memory, with
//! adjacencies of vertex i+1 next to the adjacencies of i. [...] An array of
//! size n+1 stores the start of each contiguous vertex adjacency block."
//!
//! The build is a counting sort by source, shared with
//! [`EdgeList::canonicalize_undirected`] and [`EdgeList::dedup`]: one count
//! pass, a scatter split over the pool lanes by row ranges, and a row sort
//! in tasks of about 2^16 targets.

use crate::{Edge, EdgeList, VertexId};
use rayon::prelude::*;

/// A static graph in CSR form.
///
/// For directed graphs only out-edges are stored; undirected graphs store
/// each edge twice (once per direction), matching the paper's convention.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    n: u64,
    /// `offsets[v]..offsets[v+1]` indexes `adjacency` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency blocks.
    adjacency: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list via counting sort.
    ///
    /// Duplicate edges are kept (callers wanting simple graphs should
    /// [`EdgeList::dedup`] first); adjacency blocks are sorted ascending.
    /// The scatter and the block sort run on the current pool; this is the
    /// same counting sort [`EdgeList::canonicalize_undirected`] runs.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::from_edges(el.num_vertices, &el.edges)
    }

    /// Builds a CSR graph from raw edges over `0..n`.
    ///
    /// # Examples
    /// ```
    /// use dmbfs_graph::CsrGraph;
    ///
    /// let g = CsrGraph::from_edges(3, &[(0, 2), (0, 1), (1, 2)]);
    /// assert_eq!(g.neighbors(0), &[1, 2]); // sorted adjacency block
    /// assert_eq!(g.degree(1), 1);
    /// assert!(g.has_edge(1, 2));
    /// ```
    pub fn from_edges(n: u64, edges: &[Edge]) -> Self {
        debug_assert!(
            edges.iter().all(|&(u, v)| u < n && v < n),
            "edge endpoint out of range (n = {n})"
        );
        let (offsets, adjacency) = sorted_rows(n, edges, false);
        Self {
            n,
            offsets,
            adjacency,
        }
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of stored (directed) adjacencies `m`. For an undirected graph
    /// built through [`EdgeList::symmetrize`], this is twice the undirected
    /// edge count.
    pub fn num_edges(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The raw offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated adjacency array (length `m`).
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// Iterates over all edges `(u, v)` in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// True if `(u, v)` is present; binary search over the sorted block.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n as usize)
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// Verifies CSR structural invariants; used by tests and after
    /// deserialization / partition exchanges.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.len() != self.n as usize + 1 {
            return Err(format!(
                "offsets length {} != n+1 = {}",
                self.offsets.len(),
                self.n + 1
            ));
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if *self.offsets.last().unwrap() != self.adjacency.len() {
            return Err("offsets[n] != adjacency length".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        for v in 0..self.n {
            let nbrs = self.neighbors(v);
            if nbrs.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("adjacency block of {} not sorted", v));
            }
            if nbrs.iter().any(|&w| w >= self.n) {
                return Err(format!("adjacency of {} has out-of-range target", v));
            }
        }
        Ok(())
    }

    /// Returns the graph's edges as an [`EdgeList`] (inverse of
    /// [`CsrGraph::from_edge_list`] up to edge ordering).
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList::new(self.n, self.edges().collect())
    }
}

/// Targets per row-sort task of [`sorted_rows`] (and per emit task of the
/// edge-list kernel built on it).
pub(crate) const TASK_TARGETS: usize = 1 << 16;

/// Counting sort of `edges` by source over the vertices `0..n`: returns
/// `offsets` (length `n + 1`) and `targets`, where
/// `targets[offsets[u]..offsets[u + 1]]` are the targets of `u`, ascending,
/// duplicates kept. With `undirected`, self loops are dropped and every
/// other edge is placed in both directions.
///
/// The count is one pass. The scatter runs one task per pool lane, each
/// owning a run of rows with about an equal share of the targets: every
/// task scans the whole list and places the endpoints that fall in its
/// rows, so no two tasks write the same memory. The rows are then sorted,
/// one task per run of about [`TASK_TARGETS`] targets.
pub(crate) fn sorted_rows(n: u64, edges: &[Edge], undirected: bool) -> (Vec<usize>, Vec<VertexId>) {
    let n = usize::try_from(n).expect("vertex count exceeds usize");
    let kept = |&&(u, v): &&Edge| !undirected || u != v;
    let mut offsets = vec![0usize; n + 1];
    for &(u, v) in edges.iter().filter(kept) {
        offsets[u as usize + 1] += 1;
        if undirected {
            offsets[v as usize + 1] += 1;
        }
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let total = offsets[n];

    let mut targets = vec![0 as VertexId; total];
    let mut cursor = offsets[..n].to_vec();
    let lanes = row_bounds(&offsets, total.div_ceil(rayon::current_num_threads()));
    split_by_offsets(&mut targets, &at(&offsets, &lanes))
        .into_iter()
        .zip(split_by_offsets(&mut cursor, &lanes))
        .zip(lanes.windows(2))
        .into_par_iter()
        .for_each(|((rows, cursor), w)| {
            let (lo, base) = (w[0], offsets[w[0]]);
            let mut place = |u: VertexId, v: VertexId| {
                // Only the rows lo..lo + cursor.len() are this task's.
                if let Some(c) = (u as usize).checked_sub(lo).and_then(|i| cursor.get_mut(i)) {
                    rows[*c - base] = v;
                    *c += 1;
                }
            };
            for &(u, v) in edges.iter().filter(kept) {
                place(u, v);
                if undirected {
                    place(v, u);
                }
            }
        });
    drop(cursor);

    let bounds = row_bounds(&offsets, TASK_TARGETS);
    split_by_offsets(&mut targets, &at(&offsets, &bounds))
        .into_iter()
        .zip(bounds.windows(2))
        .into_par_iter()
        .for_each(|(rows, w)| {
            let base = offsets[w[0]];
            for u in w[0]..w[1] {
                rows[offsets[u] - base..offsets[u + 1] - base].sort_unstable();
            }
        });
    (offsets, targets)
}

/// Cuts the rows of `offsets` (length `n + 1`) into runs of whole rows: a
/// run ends before the first row that starts at or past the next multiple
/// of `per_task` targets. Returns the run boundaries, from 0 to `n` when
/// there is any target and `[n]` when there is none.
pub(crate) fn row_bounds(offsets: &[usize], per_task: usize) -> Vec<usize> {
    let n = offsets.len() - 1;
    let mut bounds: Vec<usize> = (0..offsets[n].div_ceil(per_task.max(1)))
        .map(|k| offsets[..n].partition_point(|&o| o < k * per_task))
        .collect();
    bounds.push(n);
    bounds.dedup();
    bounds
}

/// `offsets` at each of the row boundaries `rows`.
fn at(offsets: &[usize], rows: &[usize]) -> Vec<usize> {
    rows.iter().map(|&u| offsets[u]).collect()
}

/// Splits `data` into mutable chunks delimited by `offsets` (length k+1).
pub(crate) fn split_by_offsets<'a, T>(data: &'a mut [T], offsets: &[usize]) -> Vec<&'a mut [T]> {
    let mut blocks = Vec::with_capacity(offsets.len().saturating_sub(1));
    let mut rest = data;
    let mut consumed = 0usize;
    for w in offsets.windows(2) {
        let len = w[1] - w[0];
        debug_assert_eq!(w[0], consumed);
        let (head, tail) = rest.split_at_mut(len);
        blocks.push(head);
        rest = tail;
        consumed += len;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> {1,2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        CsrGraph::from_edges(4, &[(0, 2), (0, 1), (1, 3), (2, 3)])
    }

    #[test]
    fn builds_sorted_blocks() {
        let g = diamond();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn counts_are_consistent() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn has_edge_uses_sorted_lookup() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn isolated_vertices_have_empty_blocks() {
        let g = CsrGraph::from_edges(5, &[(4, 0)]);
        for v in 0..4 {
            assert_eq!(g.degree(v), 0);
        }
        assert_eq!(g.neighbors(4), &[0]);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_iteration_round_trips() {
        let g = diamond();
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el);
        assert_eq!(g, g2);
    }
}
