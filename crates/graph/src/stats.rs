//! Instance characterization: degree distributions, BFS level structure,
//! and approximate diameter.
//!
//! The paper distinguishes its test families by exactly these statistics:
//! R-MAT graphs have "skewed degree distributions and a very low graph
//! diameter" (< 10), while uk-union's diameter is ≈ 140 (§6).

use crate::{CsrGraph, VertexId};

/// Summary statistics of a graph's degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub n: u64,
    /// Number of stored directed adjacencies.
    pub m: u64,
    /// Mean out-degree `m / n`.
    pub mean: f64,
    /// Maximum out-degree.
    pub max: usize,
    /// Number of degree-0 vertices.
    pub isolated: u64,
    /// Gini-style skew indicator: fraction of edges incident to the top 1%
    /// highest-degree vertices.
    pub top1pct_edge_share: f64,
}

/// Computes [`DegreeStats`] for `g`.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut degrees: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let isolated = degrees.iter().filter(|&&d| d == 0).count() as u64;
    let max = degrees.iter().copied().max().unwrap_or(0);
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let top = (n as usize).div_ceil(100).max(1).min(degrees.len());
    let top_edges: usize = degrees[..top].iter().sum();
    DegreeStats {
        n,
        m,
        mean: if n == 0 { 0.0 } else { m as f64 / n as f64 },
        max,
        isolated,
        top1pct_edge_share: if m == 0 {
            0.0
        } else {
            top_edges as f64 / m as f64
        },
    }
}

/// Serial BFS returning the level (distance) of every vertex from `source`,
/// `None` for unreachable vertices. This is the plain textbook two-stack
/// algorithm (paper's Algorithm 1) used here for instance statistics; the
/// instrumented serial baseline lives in `dmbfs-bfs`.
pub fn bfs_levels(g: &CsrGraph, source: VertexId) -> Vec<Option<u32>> {
    let n = g.num_vertices() as usize;
    let mut level: Vec<Option<u32>> = vec![None; n];
    let mut frontier: Vec<VertexId> = vec![source];
    let mut next: Vec<VertexId> = Vec::new();
    level[source as usize] = Some(0);
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        for &u in &frontier {
            for &v in g.neighbors(u) {
                let slot = &mut level[v as usize];
                if slot.is_none() {
                    *slot = Some(depth);
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    level
}

/// Eccentricity of `source`: the maximum finite BFS level.
pub fn eccentricity(g: &CsrGraph, source: VertexId) -> u32 {
    bfs_levels(g, source)
        .iter()
        .filter_map(|l| *l)
        .max()
        .unwrap_or(0)
}

/// Lower-bounds the diameter by the double-sweep heuristic: BFS from `seed
/// vertex`, then BFS again from the farthest vertex found. Exact on trees;
/// an excellent estimate on the families used here.
pub fn approx_diameter(g: &CsrGraph, start: VertexId) -> u32 {
    let levels = bfs_levels(g, start);
    let far = levels
        .iter()
        .enumerate()
        .filter_map(|(v, l)| l.map(|l| (v, l)))
        .max_by_key(|&(_, l)| l)
        .map(|(v, _)| v as VertexId)
        .unwrap_or(start);
    eccentricity(g, far)
}

/// Mean local clustering coefficient: for each vertex with degree ≥ 2,
/// the fraction of neighbor pairs that are themselves adjacent, averaged.
/// Distinguishes the small-world regime (high clustering, low diameter)
/// from both lattices (high/high) and uniform random graphs (low/low).
/// Expects a simple symmetric graph (as produced by
/// [`crate::EdgeList::canonicalize_undirected`]).
pub fn clustering_coefficient(g: &CsrGraph) -> f64 {
    let mut total = 0.0f64;
    let mut counted = 0u64;
    for v in 0..g.num_vertices() {
        let nbrs = g.neighbors(v);
        if nbrs.len() < 2 {
            continue;
        }
        let mut closed = 0u64;
        for (a, &x) in nbrs.iter().enumerate() {
            for &y in &nbrs[a + 1..] {
                if g.has_edge(x, y) {
                    closed += 1;
                }
            }
        }
        let pairs = (nbrs.len() * (nbrs.len() - 1) / 2) as f64;
        total += closed as f64 / pairs;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Per-level frontier sizes of a BFS from `source`; the shape of this
/// histogram (few huge levels for R-MAT, ~140 small ones for the web crawl)
/// drives the communication/synchronization trade-offs of Fig. 11.
pub fn level_histogram(g: &CsrGraph, source: VertexId) -> Vec<u64> {
    let levels = bfs_levels(g, source);
    let depth = levels.iter().filter_map(|l| *l).max().unwrap_or(0) as usize;
    let mut hist = vec![0u64; depth + 1];
    for l in levels.iter().filter_map(|l| *l) {
        hist[l as usize] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{binary_tree, grid2d, path, ring, rmat, RmatConfig};

    #[test]
    fn path_levels_are_distances() {
        let g = CsrGraph::from_edge_list(&path(6));
        let levels = bfs_levels(&g, 0);
        #[allow(clippy::needless_range_loop)]
        for v in 0..6 {
            assert_eq!(levels[v], Some(v as u32));
        }
    }

    #[test]
    fn unreachable_vertices_have_no_level() {
        let el = crate::EdgeList::new(3, vec![(0, 1), (1, 0)]);
        let g = CsrGraph::from_edge_list(&el);
        let levels = bfs_levels(&g, 0);
        assert_eq!(levels[2], None);
    }

    #[test]
    fn path_diameter_exact() {
        let g = CsrGraph::from_edge_list(&path(10));
        assert_eq!(approx_diameter(&g, 4), 9);
    }

    #[test]
    fn ring_eccentricity_is_half() {
        let g = CsrGraph::from_edge_list(&ring(10));
        assert_eq!(eccentricity(&g, 0), 5);
    }

    #[test]
    fn tree_level_histogram_is_powers_of_two() {
        let g = CsrGraph::from_edge_list(&binary_tree(4));
        assert_eq!(level_histogram(&g, 0), vec![1, 2, 4, 8]);
    }

    #[test]
    fn grid_diameter() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 7));
        assert_eq!(approx_diameter(&g, 10), 4 + 7 - 2);
    }

    #[test]
    fn rmat_has_low_diameter_and_high_skew() {
        let mut el = rmat(&RmatConfig::graph500(10, 8));
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let stats = degree_stats(&g);
        assert!(stats.top1pct_edge_share > 0.1, "{:?}", stats);
        // Diameter of the giant component is small ("less than 10" at scale
        // used in the paper; allow slack at this tiny scale).
        let src = crate::components::sample_sources(&g, 1, 0)[0];
        assert!(approx_diameter(&g, src) < 16);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let el = crate::EdgeList::new(3, vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        let g = CsrGraph::from_edge_list(&el);
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let mut edges = Vec::new();
        for v in 1..=4u64 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        let g = CsrGraph::from_edge_list(&crate::EdgeList::new(5, edges));
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    /// Watts–Strogatz: a ring lattice joining each vertex to its `k / 2`
    /// nearest neighbours on each side, each edge rewired to a uniform
    /// non-self endpoint with probability `p`.
    fn small_world(n: u64, k: u64, p: f64, seed: u64) -> crate::EdgeList {
        use rand::Rng;
        let mut rng = crate::gen::stream_rng(seed, 1);
        let mut edges = Vec::new();
        for v in 0..n {
            for d in 1..=k / 2 {
                let mut w = (v + d) % n;
                if rng.gen_bool(p) {
                    w = loop {
                        let c = rng.gen_range(0..n);
                        if c != v {
                            break c;
                        }
                    };
                }
                edges.extend([(v, w), (w, v)]);
            }
        }
        crate::EdgeList::new(n, edges)
    }

    #[test]
    fn small_world_keeps_clustering_while_rewiring_cuts_diameter() {
        let coeff = |p: f64| {
            let mut el = small_world(300, 6, p, 5);
            el.canonicalize_undirected();
            clustering_coefficient(&CsrGraph::from_edge_list(&el))
        };
        let lattice = coeff(0.0);
        let slight = coeff(0.1);
        let random = coeff(1.0);
        // The small-world signature: slight rewiring keeps most of the
        // lattice's clustering; full rewiring destroys it.
        assert!(lattice > 0.5, "lattice clustering {lattice}");
        assert!(slight > lattice * 0.5, "slight rewiring keeps clustering");
        assert!(random < lattice * 0.3, "full rewiring destroys it");
    }

    #[test]
    fn degree_stats_counts_isolated() {
        let el = crate::EdgeList::new(4, vec![(0, 1), (1, 0)]);
        let g = CsrGraph::from_edge_list(&el);
        let s = degree_stats(&g);
        assert_eq!(s.isolated, 2);
        assert_eq!(s.max, 1);
    }
}
