//! # dmbfs-bfs — the paper's BFS algorithms
//!
//! Implementations of every traversal variant evaluated in Buluç & Madduri
//! (SC'11):
//!
//! * [`serial`] — Algorithm 1, the two-stack serial level-synchronous BFS;
//!   the correctness oracle for everything else.
//! * [`shared`] — the single-node multithreaded BFS of §4.2: thread-local
//!   next-frontier stacks merged per level, with both CAS-guarded and
//!   "benign race" discovery modes (§4.2's atomics-avoidance optimization,
//!   also §6's single-node comparison subject).
//! * [`one_d`] — Algorithm 2: 1D vertex-partitioned distributed BFS with
//!   owner-aggregated edge exchange (`Alltoallv`), flat and hybrid.
//! * [`two_d`] — Algorithm 3: 2D checkerboard-partitioned BFS as SpMSV over
//!   the (select, max) semiring, with TransposeVector + expand
//!   (`Allgatherv` over processor columns) + fold (`Alltoallv` over
//!   processor rows), flat and hybrid, under either the paper's 2D vector
//!   distribution or the inferior diagonal-only distribution of §4.3.
//! * [`baseline`] — reimplementations of the comparators of §6: the
//!   Graph 500 reference-MPI-like 1D code and a PBGL-like distributed-queue
//!   BFS.
//! * [`validate`] — the Graph 500 result validator (parent/level checks).
//! * [`teps`] — Graph 500 benchmark protocol: multi-source runs, traversed
//!   edge counting, TEPS statistics.
//! * [`distribute`] — graph partitioning helpers shared by the distributed
//!   algorithms (1D adjacency slices, 2D submatrix extraction).
//!
//! One extension beyond the paper's evaluation (anchored to the
//! future-work item the paper names — see DESIGN.md):
//!
//! * [`direction`] — Beamer-style direction-optimizing BFS.

#![warn(missing_docs)]

pub mod baseline;
pub mod direction;
pub mod distribute;
mod exchange;
pub mod frontier_codec;
pub mod one_d;
pub mod serial;
pub mod shared;
pub mod teps;
pub mod two_d;
pub mod validate;

use dmbfs_graph::VertexId;

/// Sentinel for "not reached" in parent and level arrays.
pub const UNREACHED: i64 = -1;

/// The result of a BFS from one source: a breadth-first spanning tree
/// (parents) and the level (distance) of every vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsOutput {
    /// Source vertex.
    pub source: VertexId,
    /// `parents[v]` is the BFS-tree predecessor of `v`, `source` for the
    /// source itself, [`UNREACHED`] for unreachable vertices.
    pub parents: Vec<i64>,
    /// `levels[v]` is the distance from the source, [`UNREACHED`] if
    /// unreachable.
    pub levels: Vec<i64>,
}

impl BfsOutput {
    /// Creates an all-unreached output for `n` vertices.
    pub fn unreached(source: VertexId, n: usize) -> Self {
        Self {
            source,
            parents: vec![UNREACHED; n],
            levels: vec![UNREACHED; n],
        }
    }

    /// The level array.
    pub fn levels(&self) -> &[i64] {
        &self.levels
    }

    /// Number of reached vertices (including the source).
    pub fn num_reached(&self) -> u64 {
        self.levels.iter().filter(|&&l| l != UNREACHED).count() as u64
    }

    /// Depth of the BFS tree (maximum level).
    pub fn depth(&self) -> i64 {
        self.levels.iter().copied().max().unwrap_or(0)
    }
}
