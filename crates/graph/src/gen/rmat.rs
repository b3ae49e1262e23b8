//! R-MAT recursive matrix graph generator.
//!
//! "We use synthetic graphs based on the R-MAT random graph model. [...] We
//! set the R-MAT parameters a, b, c, and d to 0.59, 0.19, 0.19, 0.05
//! respectively. These parameters are identical to the ones used for
//! generating synthetic instances in the Graph 500 BFS benchmark." (§6)
//!
//! Each edge is drawn independently by descending `scale` levels of the
//! recursively partitioned adjacency matrix, choosing one of the four
//! quadrants with probabilities (a, b, c, d) at every level. Parameter
//! noise ("smoothing") is applied per level as in the original R-MAT paper
//! to avoid exact self-similarity artifacts.
//!
//! Each level picks its quadrant without a branch: the three threshold
//! comparisons are summed into the quadrant index, whose two bits set the
//! row and column bits (a branch on `r < a` would go the less likely way
//! with probability 1 − a ≈ 0.43 at every level). Edges are written by the
//! shared chunk fill of [`super`]: one pool task and one RNG stream per
//! 2^16-edge chunk.

use super::fill_chunks;
use crate::{Edge, EdgeList};
use rand::Rng;

/// Configuration for the R-MAT generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices; `n = 2^scale`.
    pub scale: u32,
    /// Number of directed edges generated per vertex; `m = edge_factor * n`.
    /// Graph 500 (and the paper's default) uses 16; Fig. 10 sweeps {4,16,64}.
    pub edge_factor: u64,
    /// Quadrant probabilities. Must sum to 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// Master RNG seed; identical seeds give identical edge lists regardless
    /// of the number of rayon threads.
    pub seed: u64,
    /// Per-level multiplicative noise amplitude on (a,b,c,d); Graph 500's
    /// reference generator uses a similar scheme. 0.0 disables smoothing.
    pub noise: f64,
}

impl RmatConfig {
    /// Graph 500 defaults: a=0.57, b=c=0.19, d=0.05, edge factor 16.
    ///
    /// Note: the paper's text says a=0.59, but 0.59+0.19+0.19+0.05 = 1.02;
    /// the actual Graph 500 specification (which the paper says it follows)
    /// uses a=0.57 so the quadrant probabilities sum to one. We follow the
    /// specification.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed,
            noise: 0.05,
        }
    }

    /// Same parameters with an explicit edge factor (Fig. 10 uses 4 and 64).
    pub fn graph500_ef(scale: u32, edge_factor: u64, seed: u64) -> Self {
        Self {
            edge_factor,
            ..Self::graph500(scale, seed)
        }
    }

    /// Number of vertices `n = 2^scale`.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated directed edges `m = edge_factor * n`.
    pub fn num_edges(&self) -> u64 {
        self.edge_factor * self.num_vertices()
    }
}

/// Generates a directed R-MAT edge list (possibly containing duplicates and
/// self loops, as the raw Graph 500 generator does). Callers preparing an
/// undirected benchmark instance should follow with
/// [`EdgeList::canonicalize_undirected`].
///
/// # Examples
/// ```
/// use dmbfs_graph::gen::{rmat, RmatConfig};
///
/// let cfg = RmatConfig::graph500(10, 42); // n = 1024, m = 16 * n
/// let mut edges = rmat(&cfg);
/// assert_eq!(edges.len() as u64, cfg.num_edges());
/// edges.canonicalize_undirected(); // Graph 500 preparation
/// ```
pub fn rmat(cfg: &RmatConfig) -> EdgeList {
    assert!(cfg.scale < 63, "scale too large");
    let sum = cfg.a + cfg.b + cfg.c + cfg.d;
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "R-MAT probabilities must sum to 1 (got {sum})"
    );
    let edges = fill_chunks(cfg.num_edges(), cfg.seed, |rng| sample_edge(cfg, rng));
    EdgeList::new(cfg.num_vertices(), edges)
}

/// Draws one edge by quadrant descent: five draws per level (four noise
/// factors, then the quadrant pick).
fn sample_edge<R: Rng>(cfg: &RmatConfig, rng: &mut R) -> Edge {
    let (mut u, mut v) = (0u64, 0u64);
    for level in 0..cfg.scale {
        let bit = 1u64 << (cfg.scale - 1 - level);
        // Per-level noise keeps the degree distribution skewed but not
        // perfectly self-similar.
        let (a, b, c) = if cfg.noise > 0.0 {
            let mu = |r: &mut R| 1.0 + cfg.noise * (2.0 * r.gen::<f64>() - 1.0);
            let (na, nb, nc, nd) = (
                cfg.a * mu(rng),
                cfg.b * mu(rng),
                cfg.c * mu(rng),
                cfg.d * mu(rng),
            );
            let s = na + nb + nc + nd;
            (na / s, nb / s, nc / s)
        } else {
            (cfg.a, cfg.b, cfg.c)
        };
        let r: f64 = rng.gen();
        // Quadrant q = 0..4 (top-left, top-right, bottom-left,
        // bottom-right) without a branch: bit 0 of q sets the column bit,
        // bit 1 the row bit.
        let q = u64::from(r >= a) + u64::from(r >= a + b) + u64::from(r >= a + b + c);
        v |= bit * (q & 1);
        u |= bit * (q >> 1);
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn produces_requested_edge_count() {
        let cfg = RmatConfig::graph500(8, 1);
        let el = rmat(&cfg);
        assert_eq!(el.len() as u64, cfg.num_edges());
        assert_eq!(el.num_vertices, 256);
        el.validate().unwrap();
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = RmatConfig::graph500(7, 99);
        assert_eq!(rmat(&cfg).edges, rmat(&cfg).edges);
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat(&RmatConfig::graph500(7, 1));
        let b = rmat(&RmatConfig::graph500(7, 2));
        assert_ne!(a.edges, b.edges);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // With a=0.57, low-numbered vertices accumulate far more edges than
        // a uniform graph would give them.
        let cfg = RmatConfig::graph500(10, 5);
        let mut el = rmat(&cfg);
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        let max = g.max_degree() as f64;
        assert!(
            max > 8.0 * mean,
            "expected skewed degrees: max {} vs mean {}",
            max,
            mean
        );
    }

    #[test]
    fn edge_factor_respected() {
        let cfg = RmatConfig::graph500_ef(6, 4, 3);
        let el = rmat(&cfg);
        assert_eq!(el.len() as u64, 4 * 64);
    }

    #[test]
    #[should_panic(expected = "must sum to 1")]
    fn rejects_bad_probabilities() {
        let cfg = RmatConfig {
            a: 0.9,
            ..RmatConfig::graph500(4, 0)
        };
        rmat(&cfg);
    }

    #[test]
    fn zero_noise_is_supported() {
        let cfg = RmatConfig {
            noise: 0.0,
            ..RmatConfig::graph500(6, 11)
        };
        let el = rmat(&cfg);
        assert_eq!(el.len() as u64, cfg.num_edges());
    }
}
