//! Erdős–Rényi G(n, m) uniform random graphs.
//!
//! §5.1 analyzes the 1D algorithm "for a random graph with a uniform degree
//! distribution"; this generator supplies those instances. Endpoints are
//! drawn uniformly and independently, so duplicates and self loops can occur
//! exactly as in the raw R-MAT stream and are cleaned the same way.

use super::fill_chunks;
use crate::EdgeList;
use rand::Rng;

/// Generates `num_edges` directed edges with endpoints uniform on
/// `0..num_vertices`. Deterministic in `seed`, independent of thread count.
pub fn erdos_renyi(num_vertices: u64, num_edges: u64, seed: u64) -> EdgeList {
    assert!(num_vertices > 0 || num_edges == 0, "edges need vertices");
    let edges = fill_chunks(num_edges, seed, |rng| {
        (
            rng.gen_range(0..num_vertices),
            rng.gen_range(0..num_vertices),
        )
    });
    EdgeList::new(num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn produces_requested_count_in_range() {
        let el = erdos_renyi(100, 500, 7);
        assert_eq!(el.len(), 500);
        el.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(64, 256, 3).edges, erdos_renyi(64, 256, 3).edges);
    }

    #[test]
    fn degrees_are_roughly_uniform() {
        let mut el = erdos_renyi(1 << 10, 16 << 10, 13);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        // Binomial concentration: the max degree of a uniform graph is only a
        // small factor above the mean (contrast with the R-MAT test).
        assert!((g.max_degree() as f64) < 4.0 * mean);
    }

    #[test]
    fn zero_edges_ok() {
        let el = erdos_renyi(10, 0, 0);
        assert!(el.is_empty());
    }
}
