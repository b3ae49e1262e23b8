//! The layer phase: timed calls into single public functions of each
//! layer, so a change to one layer shows as one row. Inputs are cut from
//! real BFS state — the largest level of the first source's serial BFS,
//! bucketed for two owners — not from synthetic data.

use crate::inputs::BuildTimes;
use crate::metrics::Values;
use crate::stats::{median, percentile};
use dmbfs_bfs::distribute::{extract_1d, extract_2d};
use dmbfs_bfs::frontier_codec::{decode_pairs, decode_set, encode_pairs, encode_set, Codec, Sieve};
use dmbfs_bfs::one_d::bfs1d_run;
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_comm::WireBuf;
use dmbfs_graph::{Block1D, CsrGraph, Grid2D, VertexId};
use dmbfs_matrix::spmsv::spmsv_flops;
use dmbfs_matrix::{spmsv_heap, spmsv_spa, Dcsc, SelectMax, SpaWorkspace, SparseVector};
use dmbfs_runtime::{run_ranks, RunConfig};
use std::hint::black_box;
use std::time::Instant;

/// How much work each microbenchmark does. Counts, not seconds, so the
/// same work is timed on every run.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Repetitions of the graph-sized kernels (median reported).
    pub kernel_reps: usize,
    /// Iterations of the small collectives and of `run_ranks`.
    pub small_iters: usize,
    /// Iterations of the 1 MiB collectives.
    pub large_iters: usize,
    /// Searches behind `bfs.one_d_p1_over_serial`.
    pub p1_searches: usize,
}

impl Effort {
    /// The gated size.
    pub const FULL: Effort = Effort {
        kernel_reps: 3,
        small_iters: 1000,
        large_iters: 100,
        p1_searches: 4,
    };
    /// `run --smoke`.
    pub const SMOKE: Effort = Effort {
        kernel_reps: 1,
        small_iters: 50,
        large_iters: 5,
        p1_searches: 2,
    };
}

/// Owners the codec inputs are bucketed for, and ranks of the comm phase.
const P: usize = 2;
/// Payload of the "small" exchanges: under the 256 B loan threshold, so
/// it travels copied.
const SMALL_BYTES: usize = 64;
/// Payload of the "large" exchanges: far over the threshold, so it
/// travels as a loan.
const LARGE_BYTES: usize = 1 << 20;

/// Median wall seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Runs the whole layer phase on `g`.
pub fn run(
    g: &CsrGraph,
    sources: &[VertexId],
    build: &BuildTimes,
    effort: Effort,
    out: &mut Values,
) {
    out.insert("graph.gen_s", build.generate_s);
    out.insert("graph.csr_build_s", build.csr_s);
    graph_scan(g, effort, out);
    let level = largest_level(g, sources[0]);
    distribute_and_matrix(g, &level, effort, out);
    codec(g, &level, effort, out);
    comm(effort, out);
    runtime(effort, out);
    one_d_vs_serial(g, sources, effort, out);
}

/// `graph`: one sequential pass over the adjacency array. Bytes are
/// computed from the array size (cache misses ignored), labelled computed.
fn graph_scan(g: &CsrGraph, effort: Effort, out: &mut Values) {
    let adjacency = g.adjacency();
    let secs = median_secs(effort.kernel_reps, || {
        black_box(
            black_box(adjacency)
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_add(v)),
        );
    });
    out.insert(
        "graph.csr_scan_gbps",
        std::mem::size_of_val(adjacency) as f64 / secs / 1e9,
    );
}

/// The vertices of the largest level of `source`'s serial BFS, ascending,
/// each with its parent.
fn largest_level(g: &CsrGraph, source: VertexId) -> Vec<(VertexId, VertexId)> {
    let bfs = serial_bfs(g, source);
    let mut sizes = vec![0usize; bfs.depth() as usize + 1];
    for &l in bfs.levels.iter().filter(|&&l| l >= 0) {
        sizes[l as usize] += 1;
    }
    let (widest, _) = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, &n)| n)
        .expect("the source's own level exists");
    (0..g.num_vertices())
        .filter(|&v| bfs.levels[v as usize] == widest as i64)
        .map(|v| (v, bfs.parents[v as usize] as VertexId))
        .collect()
}

/// `distribute` and `matrix`: the per-call graph distribution both drivers
/// pay (Σ over the two ranks), the DCSC build, and both SpMSV kernels on
/// the rank-(0,0) block with the widest frontier as input.
fn distribute_and_matrix(
    g: &CsrGraph,
    level: &[(VertexId, VertexId)],
    effort: Effort,
    out: &mut Values,
) {
    let secs = median_secs(effort.kernel_reps, || {
        for rank in 0..P {
            black_box(extract_1d(g, P, rank));
        }
    });
    out.insert("distribute.extract_1d_ms", secs * 1e3);

    let grid = Grid2D::new(1, P);
    let mut blocks = Vec::new();
    let secs = median_secs(effort.kernel_reps, || {
        blocks = (0..P).map(|j| extract_2d(g, grid, 0, j)).collect();
    });
    out.insert("distribute.extract_2d_ms", secs * 1e3);

    let mut matrices: Vec<Dcsc> = Vec::new();
    let secs = median_secs(effort.kernel_reps, || {
        matrices = blocks
            .iter()
            .map(|b| Dcsc::from_triples(b.nrows(), b.ncols(), &b.triples))
            .collect();
    });
    out.insert("matrix.dcsc_build_ms", secs * 1e3);

    let (block, a) = (&blocks[0], &matrices[0]);
    let entries: Vec<(u64, u64)> = level
        .iter()
        .filter(|(v, _)| block.col_range.contains(v))
        .map(|&(v, _)| (v - block.col_range.start, v))
        .collect();
    let x = SparseVector::from_sorted(block.ncols(), entries);
    let mflops = |secs: f64| spmsv_flops(a, &x) as f64 / secs / 1e6;
    let mut ws: SpaWorkspace<u64> = SpaWorkspace::new(a.nrows());
    let secs = median_secs(effort.kernel_reps, || {
        black_box(spmsv_spa::<SelectMax>(a, &x, &mut ws));
    });
    out.insert("matrix.spmsv_spa_mflops", mflops(secs));
    let secs = median_secs(1, || {
        black_box(spmsv_heap::<SelectMax>(a, &x));
    });
    out.insert("matrix.spmsv_heap_mflops", mflops(secs));
}

/// `frontier_codec`: pair and set encode/decode rates, exact wire ratios,
/// and the sieve's test-and-set rate.
fn codec(g: &CsrGraph, level: &[(VertexId, VertexId)], effort: Effort, out: &mut Values) {
    let owners = Block1D::new(g.num_vertices(), P);
    let buckets: Vec<Vec<(VertexId, VertexId)>> = (0..P)
        .map(|r| {
            let range = owners.range(r);
            level
                .iter()
                .copied()
                .filter(|(v, _)| range.contains(v))
                .collect()
        })
        .collect();
    let sets: Vec<Vec<VertexId>> = buckets
        .iter()
        .map(|b| b.iter().map(|&(v, _)| v).collect())
        .collect();
    let items = level.len() as f64;
    let ratio = |bufs: &[WireBuf]| {
        let wire: u64 = bufs.iter().map(WireBuf::wire_bytes).sum();
        let logical: u64 = bufs.iter().map(|b| b.logical_bytes).sum();
        wire as f64 / logical.max(1) as f64
    };

    let mut bufs: Vec<WireBuf> = Vec::new();
    let secs = median_secs(effort.kernel_reps, || {
        bufs = (0..P)
            .map(|r| encode_pairs(&buckets[r], owners.range(r), Codec::Adaptive))
            .collect();
    });
    out.insert("codec.encode_pairs_mps", items / secs / 1e6);
    out.insert("codec.pairs_wire_ratio", ratio(&bufs));
    let secs = median_secs(effort.kernel_reps, || {
        for b in &bufs {
            black_box(decode_pairs(b.bytes()));
        }
    });
    out.insert("codec.decode_pairs_mps", items / secs / 1e6);

    let secs = median_secs(effort.kernel_reps, || {
        bufs = (0..P)
            .map(|r| encode_set(&sets[r], owners.range(r), Codec::Bitmap))
            .collect();
    });
    out.insert("codec.encode_set_mvs", items / secs / 1e6);
    out.insert("codec.set_wire_ratio", ratio(&bufs));
    let secs = median_secs(effort.kernel_reps, || {
        for b in &bufs {
            black_box(decode_set(b.bytes()));
        }
    });
    out.insert("codec.decode_set_mvs", items / secs / 1e6);

    // The sieve sees what pack emits: every neighbour of the level before
    // dedup, so most probes are repeats, as in a real heavy level.
    let probes: Vec<usize> = level
        .iter()
        .flat_map(|&(v, _)| g.neighbors(v).iter().map(|&t| t as usize))
        .take(4 << 20)
        .collect();
    let secs = median_secs(effort.kernel_reps, || {
        let sieve = Sieve::new(g.num_vertices() as usize);
        for &t in &probes {
            black_box(sieve.test_and_set(t));
        }
    });
    out.insert("codec.sieve_mops", probes.len() as f64 / secs / 1e6);
}

/// `comm`: each collective inside one `run_ranks(flat(2))`, timed barrier
/// to barrier on rank 0. The large exchanges time only the collective
/// call, not the filling of the payload.
fn comm(effort: Effort, out: &mut Values) {
    let run = run_ranks(&RunConfig::flat(P), |ctx| {
        let comm = ctx.comm();
        let p = ctx.size();
        let small = || -> Vec<WireBuf> {
            (0..p)
                .map(|_| WireBuf::new(vec![7u8; SMALL_BYTES], SMALL_BYTES as u64))
                .collect()
        };
        // Mean seconds per iteration of a loop of `iters` collectives.
        let per_op = |iters: usize, op: &dyn Fn()| {
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            comm.barrier();
            t0.elapsed().as_secs_f64() / iters as f64
        };
        let n = effort.small_iters;
        let barrier = per_op(n, &|| comm.barrier());
        let allreduce = per_op(n, &|| {
            black_box(comm.allreduce(1u64, |a, b| a + b));
        });
        let a2a_small = per_op(n, &|| {
            black_box(comm.alltoallv_wire(small()));
        });
        let ia2a_small = per_op(n, &|| {
            black_box(comm.ialltoallv_wire(small()).wait());
        });
        // Mean seconds per call of a collective moving `count` 1 MiB
        // payloads: they are filled untimed, then the clocks start together
        // at a barrier.
        let per_large_call = |count: usize, op: &dyn Fn(Vec<WireBuf>)| {
            let mut total = 0.0;
            for _ in 0..effort.large_iters {
                let payloads = (0..count)
                    .map(|_| WireBuf::new(vec![7u8; LARGE_BYTES], LARGE_BYTES as u64))
                    .collect();
                comm.barrier();
                let t0 = Instant::now();
                op(payloads);
                total += t0.elapsed().as_secs_f64();
            }
            total / effort.large_iters as f64
        };
        let a2a_large = per_large_call(p, &|payloads| {
            black_box(comm.alltoallv_wire(payloads));
        });
        let ag_large = per_large_call(1, &|mut payloads| {
            black_box(comm.allgatherv_wire(payloads.remove(0)));
        });
        [
            barrier, allreduce, a2a_small, ia2a_small, a2a_large, ag_large,
        ]
    });
    let [barrier, allreduce, a2a_small, ia2a_small, a2a_large, ag_large] = run.per_rank[0];
    out.insert("comm.barrier_us", barrier * 1e6);
    out.insert("comm.allreduce_us", allreduce * 1e6);
    out.insert("comm.alltoallv_wire_small_us", a2a_small * 1e6);
    out.insert("comm.ialltoallv_wire_small_us", ia2a_small * 1e6);
    // Bytes deposited by all ranks per call (computed), over the call time.
    let deposited = |per_rank: usize| (P * per_rank) as f64;
    out.insert(
        "comm.alltoallv_wire_large_gbps",
        deposited(P * LARGE_BYTES) / a2a_large / 1e9,
    );
    out.insert(
        "comm.allgatherv_wire_large_gbps",
        deposited(LARGE_BYTES) / ag_large / 1e9,
    );
}

/// `runtime`: what one `run_ranks` costs with an empty body — rank spawn,
/// (for hybrid) pool build, harvest, join.
fn runtime(effort: Effort, out: &mut Values) {
    let per_run = |cfg: RunConfig| {
        let t0 = Instant::now();
        for _ in 0..effort.small_iters {
            black_box(run_ranks(&cfg, |_| ()));
        }
        t0.elapsed().as_secs_f64() / effort.small_iters as f64
    };
    out.insert(
        "runtime.run_ranks_empty_us",
        per_run(RunConfig::flat(P)) * 1e6,
    );
    out.insert(
        "runtime.run_ranks_pool_us",
        per_run(RunConfig::hybrid(1, P)) * 1e6,
    );
}

/// `bfs`: the 1D driver on one rank against the serial kernel on the same
/// sources — ROADMAP B's "within 1.3× of serial", with its base.
fn one_d_vs_serial(g: &CsrGraph, sources: &[VertexId], effort: Effort, out: &mut Values) {
    let sources = &sources[..effort.p1_searches.min(sources.len())];
    let serial: Vec<f64> = sources
        .iter()
        .map(|&s| {
            let t0 = Instant::now();
            black_box(serial_bfs(g, s));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let one_d: Vec<f64> = sources
        .iter()
        .map(|&s| bfs1d_run(g, s, &RunConfig::flat(1)).seconds)
        .collect();
    let base = percentile(&serial, 50.0);
    out.insert("bfs.serial_ms_p50", base * 1e3);
    out.insert("bfs.one_d_p1_over_serial", percentile(&one_d, 50.0) / base);
}
