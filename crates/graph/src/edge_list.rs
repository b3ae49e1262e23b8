//! Edge-list exchange format.
//!
//! Generators produce an [`EdgeList`]; [`crate::CsrGraph`] is built from it.
//! The Graph 500 pipeline the paper follows is: generate directed edge tuples
//! → symmetrize ("we first symmetrize the input to model undirected graphs",
//! §6) → randomly relabel vertices (§4.4) → partition and convert to CSR.
//!
//! [`EdgeList::canonicalize_undirected`] and [`EdgeList::dedup`] share one
//! kernel, the counting sort by source that also builds
//! [`crate::CsrGraph`]: count each kept edge per source (both directions of
//! every non-loop edge when symmetrizing), scatter the targets into rows and
//! sort each row; then emit the distinct targets of the rows in order, one
//! pool task per run of rows holding about 2^16 targets. No symmetrized
//! copy of the list is built, and the input is freed before the output is
//! allocated. The result is the sorted, duplicate-free list a global tuple
//! sort would give.

use crate::csr::{row_bounds, sorted_rows, split_by_offsets, TASK_TARGETS};
use crate::{Edge, VertexId};
use rayon::prelude::*;

/// A list of directed edges over the vertex set `0..num_vertices`.
///
/// The list may contain duplicates and self loops until cleaned by
/// [`EdgeList::dedup`] / [`EdgeList::remove_self_loops`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices; all endpoints must be `< num_vertices`.
    pub num_vertices: u64,
    /// The edges themselves.
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an edge list, checking that every endpoint is in range.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= num_vertices`.
    pub fn new(num_vertices: u64, edges: Vec<Edge>) -> Self {
        let el = Self {
            num_vertices,
            edges,
        };
        if let Err(e) = el.validate() {
            panic!("{e}");
        }
        el
    }

    /// Number of edges currently stored (directed count).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds the reverse of every edge, modeling an undirected graph as a
    /// symmetric directed one. Each undirected edge ends up stored twice,
    /// exactly as the paper's CSR does for undirected inputs (§4.1).
    ///
    /// Self loops are *not* duplicated.
    pub fn symmetrize(&mut self) {
        let extra: Vec<Edge> = self
            .edges
            .par_iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (v, u))
            .collect();
        self.edges.extend(extra);
    }

    /// Removes self loops `(v, v)`.
    pub fn remove_self_loops(&mut self) {
        self.edges.retain(|&(u, v)| u != v);
    }

    /// Sorts the edges and removes exact duplicates.
    pub fn dedup(&mut self) {
        self.sort_by_source(false);
    }

    /// Convenience pipeline: remove self loops, symmetrize, dedup — the
    /// standard Graph 500 preparation for an undirected BFS benchmark
    /// instance, in one counting sort (no intermediate symmetrized list).
    pub fn canonicalize_undirected(&mut self) {
        self.sort_by_source(true);
    }

    /// The counting kernel behind [`EdgeList::dedup`] (`undirected` false:
    /// every edge, one direction) and [`EdgeList::canonicalize_undirected`]
    /// (`undirected` true: both directions of every non-loop edge): the
    /// CSR's counting sort by source, then the distinct targets of each
    /// row emitted in order. Leaves the edges sorted and duplicate-free.
    fn sort_by_source(&mut self, undirected: bool) {
        let edges = std::mem::take(&mut self.edges);
        let (offsets, targets) = sorted_rows(self.num_vertices, &edges, undirected);
        drop(edges);
        let distinct = |u: usize| {
            let row = &targets[offsets[u]..offsets[u + 1]];
            row.chunk_by(|a, b| a == b)
                .map(move |run| (u as VertexId, run[0]))
        };

        // Count each task's distinct edges, then let every task emit its
        // rows into its own slice of the output.
        let bounds = row_bounds(&offsets, TASK_TARGETS);
        let counts: Vec<usize> = bounds
            .windows(2)
            .into_par_iter()
            .map(|w| (w[0]..w[1]).map(|u| distinct(u).count()).sum())
            .collect();
        let mut out_offsets = vec![0usize; counts.len() + 1];
        for (k, &c) in counts.iter().enumerate() {
            out_offsets[k + 1] = out_offsets[k] + c;
        }
        let mut out: Vec<Edge> = vec![(0, 0); out_offsets[counts.len()]];
        split_by_offsets(&mut out, &out_offsets)
            .into_iter()
            .zip(bounds.windows(2))
            .into_par_iter()
            .for_each(|(out, w)| {
                for (slot, e) in out.iter_mut().zip((w[0]..w[1]).flat_map(distinct)) {
                    *slot = e;
                }
            });
        self.edges = out;
    }

    /// Returns the maximum endpoint id plus one, or zero for an empty list.
    /// Useful when the generator does not know the vertex count a priori.
    pub fn implied_num_vertices(&self) -> u64 {
        self.edges
            .iter()
            .map(|&(u, v)| u.max(v) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Checks structural sanity: all endpoints in range.
    pub fn validate(&self) -> Result<(), EdgeListError> {
        for &(u, v) in &self.edges {
            if u >= self.num_vertices || v >= self.num_vertices {
                return Err(EdgeListError::EndpointOutOfRange {
                    edge: (u, v),
                    num_vertices: self.num_vertices,
                });
            }
        }
        Ok(())
    }
}

/// Errors produced by [`EdgeList::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeListError {
    /// An endpoint is not smaller than `num_vertices`.
    EndpointOutOfRange {
        /// The offending edge.
        edge: Edge,
        /// The declared vertex count.
        num_vertices: u64,
    },
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::EndpointOutOfRange { edge, num_vertices } => write!(
                f,
                "edge ({}, {}) has an endpoint >= num_vertices = {}",
                edge.0, edge.1, num_vertices
            ),
        }
    }
}

impl std::error::Error for EdgeListError {}

/// Helper used by tests and validators: is `(u, v)` present?
pub fn contains_edge(edges: &[Edge], u: VertexId, v: VertexId) -> bool {
    edges.contains(&(u, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(5, vec![(0, 1), (1, 2), (2, 2), (3, 4), (0, 1)])
    }

    #[test]
    fn symmetrize_adds_reverse_edges_but_not_loops() {
        let mut el = sample();
        el.symmetrize();
        assert!(contains_edge(&el.edges, 1, 0));
        assert!(contains_edge(&el.edges, 2, 1));
        assert!(contains_edge(&el.edges, 4, 3));
        // the self loop (2,2) appears exactly once
        assert_eq!(el.edges.iter().filter(|&&e| e == (2, 2)).count(), 1);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut el = sample();
        el.dedup();
        assert_eq!(el.edges.iter().filter(|&&e| e == (0, 1)).count(), 1);
        assert_eq!(el.len(), 4);
    }

    #[test]
    fn remove_self_loops_removes_them() {
        let mut el = sample();
        el.remove_self_loops();
        assert!(!contains_edge(&el.edges, 2, 2));
        assert_eq!(el.len(), 4);
    }

    #[test]
    fn canonicalize_produces_symmetric_loop_free_set() {
        let mut el = sample();
        el.canonicalize_undirected();
        for &(u, v) in &el.edges {
            assert_ne!(u, v);
            assert!(contains_edge(&el.edges, v, u));
        }
        // sorted and unique
        let mut sorted = el.edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, el.edges);
    }

    #[test]
    fn empty_and_one_vertex_lists_canonicalize_and_dedup() {
        let mut empty = EdgeList::new(0, vec![]);
        empty.canonicalize_undirected();
        assert!(empty.is_empty());
        let mut loops = EdgeList::new(1, vec![(0, 0), (0, 0)]);
        loops.dedup();
        assert_eq!(loops.edges, vec![(0, 0)]);
        loops.canonicalize_undirected();
        assert!(loops.is_empty());
    }

    #[test]
    #[should_panic(expected = "edge (0, 3) has an endpoint >= num_vertices = 2")]
    fn new_rejects_an_out_of_range_endpoint() {
        EdgeList::new(2, vec![(0, 1), (0, 3)]);
    }

    #[test]
    fn implied_num_vertices_matches_max_endpoint() {
        let el = sample();
        assert_eq!(el.implied_num_vertices(), 5);
        let empty = EdgeList::new(0, vec![]);
        assert_eq!(empty.implied_num_vertices(), 0);
    }

    #[test]
    fn validate_detects_out_of_range() {
        let el = EdgeList {
            num_vertices: 2,
            edges: vec![(0, 3)],
        };
        assert!(el.validate().is_err());
        assert!(sample().validate().is_ok());
    }
}
