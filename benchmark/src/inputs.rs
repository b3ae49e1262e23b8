//! Set-up: the two benchmark graphs, their sources and the serial oracle.
//!
//! Everything here is made from `--seed`; the program under test only ever
//! sees the finished `CsrGraph` and source ids.

use crate::spans::Recorder;
use crate::stats::fingerprint;
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::teps::teps_edges;
use dmbfs_bfs::BfsOutput;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::gen::{rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, RandomPermutation, VertexId};
use std::time::Instant;

/// Which of the two benchmark graphs a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// R-MAT, Graph500 parameters, edge factor 16: low diameter, skewed
    /// degrees, a handful of huge levels.
    Rmat,
    /// The uk-union stand-in: 70 chained communities, 140–210 small levels.
    Web,
}

/// Instance sizes. `FULL` is what `BENCHMARK.json` gates; `SMOKE` only
/// proves every code path of the benchmark end to end in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// R-MAT scale (n = 2^scale).
    pub rmat_scale: u32,
    /// Vertices per web-crawl community (n = 70 × this).
    pub web_community: u64,
    /// Distinct sources sampled per graph, cycled by the search loops.
    pub sources: usize,
    /// Distinct sources that additionally go through `validate_bfs`.
    pub validated_sources: usize,
}

impl Size {
    /// The gated size.
    pub const FULL: Size = Size {
        rmat_scale: 18,
        web_community: 4096,
        sources: 32,
        validated_sources: 8,
    };
    /// `run --smoke`.
    pub const SMOKE: Size = Size {
        rmat_scale: 12,
        web_community: 256,
        sources: 8,
        validated_sources: 4,
    };
}

/// What the serial oracle says about one source; a search is correct when
/// its level array hashes to `levels_fp`.
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    /// The source vertex.
    pub source: VertexId,
    /// Fingerprint of the oracle's level array.
    pub levels_fp: u64,
    /// Vertices the oracle reached.
    pub reached: u64,
    /// Graph500 TEPS edge count of this traversal (`teps_edges`).
    pub teps_edges: u64,
}

/// Wall seconds of the parts of one graph build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    /// Generator (R-MAT or web crawl).
    pub generate_s: f64,
    /// Canonicalize + permute + CSR construction.
    pub csr_s: f64,
    /// The whole build including source sampling: the `setup_s` sample.
    pub total_s: f64,
}

/// A built workload input.
pub struct Inputs {
    /// The graph handed to the program.
    pub graph: CsrGraph,
    /// The sampled sources, in sampling order.
    pub sources: Vec<VertexId>,
    /// How long this build took.
    pub times: BuildTimes,
}

/// Fingerprint of a level array (`UNREACHED` = -1 maps to `u64::MAX`).
pub fn levels_fingerprint(levels: &[i64]) -> u64 {
    fingerprint(levels.iter().map(|&l| l as u64))
}

/// Fingerprint of a CSR (offsets then adjacency), for the provenance block.
pub fn csr_fingerprint(g: &CsrGraph) -> u64 {
    fingerprint(
        g.offsets()
            .iter()
            .map(|&o| o as u64)
            .chain(g.adjacency().iter().copied()),
    )
}

/// Oracle facts of one finished serial search.
pub fn oracle_of(g: &CsrGraph, out: &BfsOutput) -> Oracle {
    Oracle {
        source: out.source,
        levels_fp: levels_fingerprint(&out.levels),
        reached: out.num_reached(),
        teps_edges: teps_edges(g, out),
    }
}

/// Generate → canonicalize → randomly permute → CSR → sample sources: the
/// Graph500 / paper §4.4 preparation, timed in its parts. The same seed
/// gives the same graph and sources every time.
pub fn build(kind: GraphKind, size: Size, seed: u64, rec: &mut Recorder) -> Inputs {
    let t0 = Instant::now();
    let span = rec.start();
    let mut el = match kind {
        GraphKind::Rmat => rmat(&RmatConfig::graph500_ef(size.rmat_scale, 16, seed)),
        GraphKind::Web => webcrawl(&WebCrawlConfig::uk_union_like(size.web_community, seed)),
    };
    rec.end("setup.generate", span);
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let span = rec.start();
    el.canonicalize_undirected();
    let perm = RandomPermutation::new(el.num_vertices, seed ^ 0xD5BF);
    let graph = CsrGraph::from_edge_list(&perm.apply_edge_list(&el));
    rec.end("setup.csr", span);
    let csr_s = t1.elapsed().as_secs_f64();

    let sources = sample_sources(&graph, size.sources, seed);
    assert!(!sources.is_empty(), "graph has no usable sources");
    let times = BuildTimes {
        generate_s,
        csr_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    Inputs {
        graph,
        sources,
        times,
    }
}

/// Runs the serial oracle once per source. Returns the facts and the wall
/// seconds it took (reported as `bench.oracle_s`, never part of `setup_s`).
pub fn oracle(inputs: &Inputs, rec: &mut Recorder) -> (Vec<Oracle>, f64) {
    let t0 = Instant::now();
    let span = rec.start();
    let facts = inputs
        .sources
        .iter()
        .map(|&s| oracle_of(&inputs.graph, &serial_bfs(&inputs.graph, s)))
        .collect();
    rec.end("setup.oracle", span);
    (facts, t0.elapsed().as_secs_f64())
}
