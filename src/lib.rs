//! # dmbfs — Distributed-Memory Breadth-First Search
//!
//! A Rust reproduction of *Buluç & Madduri, "Parallel Breadth-First Search on
//! Distributed Memory Systems", SC 2011* (arXiv:1104.4518).
//!
//! The crate is a façade over the workspace:
//!
//! * [`comm`] — in-process message-passing runtime standing in for MPI:
//!   ranks, typed collectives (`alltoallv`, `allgatherv`, `allreduce`, …),
//!   communicator splitting, and exact per-rank communication accounting.
//! * [`runtime`] — the distributed-execution harness every algorithm runs
//!   on: a unified [`runtime::RunConfig`] (ranks × threads × direction ×
//!   trace) and the [`runtime::run_ranks`] driver that spawns ranks,
//!   installs per-rank thread pools, attaches tracers, times
//!   barrier-to-barrier, and harvests per-rank stats and traces.
//! * [`graph`] — CSR graphs, the Graph 500 R-MAT generator, random vertex
//!   relabeling, 1D/2D partition maps, components, statistics.
//! * [`matrix`] — DCSC hypersparse matrices, sparse vectors, the
//!   (select, max) semiring, and SpMSV kernels (SPA and heap merge).
//! * [`bfs`] — the four distributed BFS variants (1D/2D × flat/hybrid),
//!   serial and shared-memory references, PBGL-like and Graph500-reference
//!   baselines, and the Graph 500 validator.
//! * [`model`] — the paper's α–β memory/network cost model with Franklin,
//!   Hopper, and Carver machine profiles, used to project functional runs to
//!   paper-scale core counts.
//!
//! ## Quickstart
//!
//! ```
//! use dmbfs::prelude::*;
//!
//! // Build a small Graph 500-style instance.
//! let mut edges = rmat(&RmatConfig::graph500(10, 42));
//! edges.canonicalize_undirected();
//! let graph = CsrGraph::from_edge_list(&edges);
//!
//! // Run the 2D-partitioned distributed BFS on 4 simulated ranks (2x2 grid).
//! let source = sample_sources(&graph, 1, 1)[0];
//! let result = bfs2d(&graph, source, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
//!
//! // Validate against the Graph 500 rules and the serial reference.
//! let serial = serial_bfs(&graph, source);
//! assert_eq!(result.levels(), serial.levels());
//! validate_bfs(&graph, source, &result.parents, result.levels()).unwrap();
//! ```

pub use dmbfs_bfs as bfs;
pub use dmbfs_comm as comm;
pub use dmbfs_graph as graph;
pub use dmbfs_matrix as matrix;
pub use dmbfs_model as model;
pub use dmbfs_runtime as runtime;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dmbfs_bfs::baseline::{
        pbgl_like_bfs, pbgl_like_bfs_with, reference_mpi_bfs, reference_mpi_bfs_with, BaselineRun,
    };
    pub use dmbfs_bfs::direction::direction_optimizing_bfs;
    pub use dmbfs_bfs::one_d::{bfs1d, Bfs1dConfig};
    pub use dmbfs_bfs::serial::serial_bfs;
    pub use dmbfs_bfs::shared::shared_bfs;
    pub use dmbfs_bfs::teps::{benchmark_bfs, TepsReport};
    pub use dmbfs_bfs::two_d::{bfs2d, Bfs2dConfig, VectorDistribution};
    pub use dmbfs_bfs::validate::validate_bfs;
    pub use dmbfs_bfs::BfsOutput;
    pub use dmbfs_comm::{Comm, CommStats, World};
    pub use dmbfs_graph::components::sample_sources;
    pub use dmbfs_graph::gen::{erdos_renyi, rmat, webcrawl, RmatConfig, WebCrawlConfig};
    pub use dmbfs_graph::{Block1D, CsrGraph, EdgeList, Grid2D, OwnerMap2D, RandomPermutation};
    pub use dmbfs_matrix::{Dcsc, SpaWorkspace, SparseVector};
    pub use dmbfs_model::{MachineProfile, ScalePredictor};
    pub use dmbfs_runtime::{run_ranks, DistRun, RankCtx, RunConfig};
}
