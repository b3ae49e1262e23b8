//! Weighted graph support.
//!
//! §1 of the paper lists "shortest paths" among the classical problems its
//! traversal machinery serves; this module is the graph-side input such a
//! search would take. No BFS driver reads it: the paper's searches are
//! unweighted. [`WeightedCsr`] mirrors [`crate::CsrGraph`] with a weight
//! per stored adjacency; [`attach_uniform_weights`] turns any benchmark
//! edge list into a weighted instance deterministically (the Graph 500
//! SSSP benchmark does the same with uniform random weights).

use crate::gen::stream_rng_pub as stream_rng;
use crate::{CsrGraph, Edge, EdgeList, VertexId};
use rand::Rng;

/// Edge weight type (Graph 500 SSSP uses uniform reals; integer weights
/// keep distributed relaxations exact).
pub type Weight = u32;

/// A weighted directed edge.
pub type WeightedEdge = (VertexId, VertexId, Weight);

/// A static weighted graph in CSR form: sorted adjacency blocks of
/// `(target, weight)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedCsr {
    n: u64,
    offsets: Vec<usize>,
    adjacency: Vec<(VertexId, Weight)>,
}

impl WeightedCsr {
    /// Builds from weighted edges over `0..n` (counting sort by source,
    /// blocks sorted by target).
    pub fn from_edges(n: u64, edges: &[WeightedEdge]) -> Self {
        let nu = usize::try_from(n).expect("vertex count exceeds usize");
        let mut counts = vec![0usize; nu + 1];
        for &(u, _, _) in edges {
            debug_assert!(u < n);
            counts[u as usize + 1] += 1;
        }
        for i in 0..nu {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut adjacency = vec![(0 as VertexId, 0 as Weight); edges.len()];
        for &(u, v, w) in edges {
            debug_assert!(v < n);
            let c = &mut cursor[u as usize];
            adjacency[*c] = (v, w);
            *c += 1;
        }
        for v in 0..nu {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Self {
            n,
            offsets,
            adjacency,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Number of stored weighted adjacencies.
    pub fn num_edges(&self) -> u64 {
        self.adjacency.len() as u64
    }

    /// `(target, weight)` pairs of `v`, sorted by target.
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, Weight)] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The unweighted structure (for cross-checks against BFS).
    pub fn structure(&self) -> CsrGraph {
        let edges: Vec<Edge> = self.edges().map(|(u, v, _)| (u, v)).collect();
        CsrGraph::from_edges(self.n, &edges)
    }

    /// Iterates all weighted edges in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = WeightedEdge> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&(v, w)| (u, v, w)))
    }
}

/// Attaches deterministic uniform weights in `1..=max_weight` to an edge
/// list, keyed so that the two directions of a symmetrized edge get the
/// *same* weight (an undirected weighted graph).
pub fn attach_uniform_weights(el: &EdgeList, max_weight: Weight, seed: u64) -> Vec<WeightedEdge> {
    assert!(max_weight >= 1);
    el.edges
        .iter()
        .map(|&(u, v)| {
            // Key on the undirected pair so (u,v) and (v,u) agree.
            let (a, b) = (u.min(v), u.max(v));
            let mut rng = stream_rng(seed, a.wrapping_mul(0x1F123BB5) ^ b);
            (u, v, rng.gen_range(1..=max_weight))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatConfig};

    fn weighted_sample() -> WeightedCsr {
        let mut el = rmat(&RmatConfig::graph500(7, 3));
        el.canonicalize_undirected();
        let edges = attach_uniform_weights(&el, 10, 42);
        WeightedCsr::from_edges(el.num_vertices, &edges)
    }

    #[test]
    fn preserves_structure() {
        let mut el = rmat(&RmatConfig::graph500(7, 3));
        el.canonicalize_undirected();
        let edges = attach_uniform_weights(&el, 10, 42);
        let wg = WeightedCsr::from_edges(el.num_vertices, &edges);
        let plain = CsrGraph::from_edge_list(&el);
        assert_eq!(wg.structure(), plain);
    }

    #[test]
    fn weights_are_symmetric() {
        let wg = weighted_sample();
        for (u, v, w) in wg.edges() {
            let back = wg
                .neighbors(v)
                .iter()
                .find(|&&(t, _)| t == u)
                .expect("symmetric edge");
            assert_eq!(back.1, w, "weight mismatch on ({u},{v})");
        }
    }

    #[test]
    fn weights_are_in_range_and_deterministic() {
        let mut el = rmat(&RmatConfig::graph500(6, 9));
        el.canonicalize_undirected();
        let a = attach_uniform_weights(&el, 7, 5);
        let b = attach_uniform_weights(&el, 7, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(_, _, w)| (1..=7).contains(&w)));
        let c = attach_uniform_weights(&el, 7, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let wg = WeightedCsr::from_edges(3, &[(0, 1, 4)]);
        assert_eq!(wg.neighbors(0), &[(1, 4)]);
        assert!(wg.neighbors(2).is_empty());
        assert_eq!(wg.num_edges(), 1);
    }
}
