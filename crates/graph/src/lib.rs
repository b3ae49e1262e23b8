//! # dmbfs-graph — graph substrate for distributed-memory BFS
//!
//! This crate provides everything the BFS algorithms of Buluç & Madduri
//! (SC'11) need from a graph library:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency structure with sorted,
//!   compactly stored neighbor lists (§4.1 of the paper: "All adjacencies of
//!   a vertex are sorted and compactly stored in a contiguous chunk of
//!   memory"). Vertex identifiers are 64-bit ([`VertexId`]).
//! * [`EdgeList`] — the exchange format produced by generators and consumed
//!   by builders, with symmetrization, deduplication and self-loop removal.
//! * [`gen`] — graph generators: the R-MAT recursive matrix model with
//!   Graph 500 parameters (a=0.59, b=0.19, c=0.19, d=0.05), Erdős–Rényi,
//!   regular grids and tori (high-diameter instances), and a synthetic
//!   web-crawl generator that stands in for the `uk-union` dataset.
//! * [`permute`] — random vertex relabeling. The paper (§4.4) achieves load
//!   balance "by randomly shuffling all the vertex identifiers prior to
//!   partitioning"; [`permute::RandomPermutation`] implements exactly that.
//! * [`partition`] — 1D block and 2D checkerboard ownership maps used by the
//!   distributed algorithms (§3.1, §3.2).
//! * [`components`] — connected components, used to restrict benchmark
//!   source vertices to the large component as Graph 500 requires.
//! * [`stats`] — degree distributions and approximate diameter, used to
//!   characterize generated instances (R-MAT diameter < 10 vs the
//!   web-crawl's ≈ 140).

#![warn(missing_docs)]

pub mod components;
pub mod csr;
pub mod edge_list;
pub mod gen;
pub mod io;
pub mod ordering;
pub mod partition;
pub mod permute;
pub mod stats;

pub use csr::CsrGraph;
pub use edge_list::EdgeList;
pub use partition::{Block1D, Grid2D, OwnerMap1D, OwnerMap2D};
pub use permute::RandomPermutation;

/// Vertex identifier. The paper uses 64-bit integers for vertex ids (§4.1)
/// so that graphs with more than 2^32 vertices are representable.
pub type VertexId = u64;

/// A directed edge `(source, target)`.
pub type Edge = (VertexId, VertexId);
