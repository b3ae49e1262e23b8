//! # dmbfs-matrix — sparse matrix substrate for 2D BFS
//!
//! §3.2 of Buluç & Madduri (SC'11) casts each BFS iteration as a sparse
//! matrix–sparse vector multiplication (SpMSV) over a (select, max)
//! semiring: `x_{k+1} ← Aᵀ ⊗ x_k ⊙ ∪x_i`. This crate provides the pieces:
//!
//! * [`SparseVector`] — a sorted sparse vector, the frontier representation
//!   ("a sorted sparse vector in the 2D implementation", §4.1).
//! * [`Dcsc`] — doubly compressed sparse columns (Buluç & Gilbert, IPDPS'08)
//!   for the hypersparse submatrices that arise after 2D partitioning, where
//!   plain CSR/CSC would waste `O(n√p)` on pointer arrays (§4.1).
//! * [`semiring`] — the algebra: [`semiring::SelectMax`] for BFS parents and
//!   [`semiring::MinPlus`] for tests.
//! * [`mod@spmsv`] — the two merge kernels of §4.2: the sparse accumulator (SPA)
//!   and the priority-queue (heap) multiway merge, the model series of the
//!   paper's Fig. 3 polyalgorithm.

#![warn(missing_docs)]

pub mod dcsc;
pub mod semiring;
pub mod sparse_vector;
pub mod spmsv;

pub use dcsc::Dcsc;
pub use semiring::{MinPlus, SelectMax, Semiring};
pub use sparse_vector::SparseVector;
pub use spmsv::{spmsv_heap, spmsv_spa, SpaWorkspace};

/// Row/column index type (matches `dmbfs_graph::VertexId`).
pub type Index = u64;
