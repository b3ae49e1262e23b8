//! Random vertex relabeling.
//!
//! §4.4: "We achieve a reasonable load-balanced graph traversal by randomly
//! shuffling all the vertex identifiers prior to partitioning. This leads to
//! each process getting roughly the same number of vertices and edges,
//! regardless of the degree distribution. An identical strategy is also
//! employed in the Graph 500 BFS benchmark."
//!
//! [`RandomPermutation::apply_edge_list`] writes the relabeled list into a
//! preallocated vector, one pool task per 2^16-edge chunk, so no per-edge
//! work item or intermediate collection is built.

use crate::{EdgeList, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_xoshiro::Xoshiro256PlusPlus;
use rayon::prelude::*;

/// A bijection on `0..n` with its inverse, for relabeling vertices before
/// partitioning and mapping BFS output back to original ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RandomPermutation {
    forward: Vec<VertexId>,
    inverse: Vec<VertexId>,
}

impl RandomPermutation {
    /// Fisher–Yates shuffle of `0..n`, deterministic in `seed`.
    pub fn new(n: u64, seed: u64) -> Self {
        let mut forward: Vec<VertexId> = (0..n).collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        forward.shuffle(&mut rng);
        let mut inverse = vec![0 as VertexId; n as usize];
        for (i, &p) in forward.iter().enumerate() {
            inverse[p as usize] = i as VertexId;
        }
        Self { forward, inverse }
    }

    /// The identity permutation (relabeling disabled; used by the
    /// `ablation_relabeling` experiment).
    pub fn identity(n: u64) -> Self {
        let forward: Vec<VertexId> = (0..n).collect();
        Self {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Builds a permutation from an explicit forward map
    /// (`forward[old] = new`), e.g. a Cuthill–McKee ordering from
    /// [`crate::ordering::rcm_ordering`].
    ///
    /// # Panics
    /// Panics if `forward` is not a bijection on `0..forward.len()`.
    pub fn from_forward(forward: Vec<VertexId>) -> Self {
        let n = forward.len();
        let mut inverse = vec![VertexId::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(
                (new as usize) < n && inverse[new as usize] == VertexId::MAX,
                "forward map is not a bijection"
            );
            inverse[new as usize] = old as VertexId;
        }
        Self { forward, inverse }
    }

    /// Domain size.
    pub fn len(&self) -> u64 {
        self.forward.len() as u64
    }

    /// True for the empty domain.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// New label of original vertex `v`.
    #[inline]
    pub fn apply(&self, v: VertexId) -> VertexId {
        self.forward[v as usize]
    }

    /// Original vertex carrying new label `v`.
    #[inline]
    pub fn invert(&self, v: VertexId) -> VertexId {
        self.inverse[v as usize]
    }

    /// Relabels every endpoint of an edge list in parallel, one pool task
    /// per 2^16-edge chunk, each writing its own chunk of the new list.
    pub fn apply_edge_list(&self, el: &EdgeList) -> EdgeList {
        const CHUNK: usize = 1 << 16;
        assert_eq!(
            el.num_vertices,
            self.len(),
            "permutation/graph size mismatch"
        );
        let mut edges = vec![(0, 0); el.edges.len()];
        edges
            .chunks_mut(CHUNK)
            .zip(el.edges.chunks(CHUNK))
            .into_par_iter()
            .for_each(|(out, chunk)| {
                for (o, &(u, v)) in out.iter_mut().zip(chunk) {
                    *o = (self.apply(u), self.apply(v));
                }
            });
        // A bijection on 0..n keeps every endpoint in range.
        EdgeList {
            num_vertices: el.num_vertices,
            edges,
        }
    }

    /// Checks the bijection invariant; used by property tests.
    pub fn check(&self) -> bool {
        self.forward
            .iter()
            .enumerate()
            .all(|(i, &p)| self.inverse[p as usize] == i as VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_bijection() {
        let p = RandomPermutation::new(100, 42);
        assert!(p.check());
        let mut seen = [false; 100];
        for v in 0..100 {
            seen[p.apply(v) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inverse_round_trips() {
        let p = RandomPermutation::new(57, 9);
        for v in 0..57 {
            assert_eq!(p.invert(p.apply(v)), v);
            assert_eq!(p.apply(p.invert(v)), v);
        }
    }

    #[test]
    fn identity_is_identity() {
        let p = RandomPermutation::identity(10);
        for v in 0..10 {
            assert_eq!(p.apply(v), v);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(RandomPermutation::new(64, 5), RandomPermutation::new(64, 5));
        assert_ne!(RandomPermutation::new(64, 5), RandomPermutation::new(64, 6));
    }

    #[test]
    fn relabels_edges_consistently() {
        let el = EdgeList::new(4, vec![(0, 1), (2, 3)]);
        let p = RandomPermutation::new(4, 1);
        let el2 = p.apply_edge_list(&el);
        assert_eq!(el2.edges[0], (p.apply(0), p.apply(1)));
        assert_eq!(el2.edges[1], (p.apply(2), p.apply(3)));
    }

    #[test]
    fn shuffle_actually_moves_labels() {
        let p = RandomPermutation::new(1000, 3);
        let moved = (0..1000).filter(|&v| p.apply(v) != v).count();
        assert!(moved > 900);
    }
}
