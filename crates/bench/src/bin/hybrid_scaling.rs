//! Flat-vs-hybrid scaling study (§6, Fig. 5–8 context): with a real
//! work-stealing pool behind the rayon facade, how does per-level
//! *compute* time change as `threads_per_rank` grows while the rank
//! count — and therefore the communication structure — stays fixed?
//!
//! The paper's hybrid variant exists precisely because threading shrinks
//! the number of communicating ranks per node: compute scales with
//! threads while the α-term of each collective scales with ranks. This
//! bench isolates the first half of that claim on one machine: for each
//! `threads_per_rank ∈ {1, 2, 4, 8}` it runs the 1D and 2D algorithms on
//! the same instance, splits every level's wall time into compute vs
//! communication (the [`dmbfs_comm::LevelTiming`] stream recorded by the BFS loops),
//! and asserts the parent tree is bit-identical to the flat run.
//!
//! Caveat recorded in the JSON: speedups are only observable when the
//! host actually has idle cores. The `cores` field carries
//! `available_parallelism()`; on a single-core container every
//! thread-count necessarily measures ≈ 1× (the pool multiplexes onto one
//! core), and the numbers are honest measurements of that situation —
//! rerun on a multi-core host to see the scaling.

use dmbfs_bench::harness::{print_table, rmat_graph, write_result};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::CommStats;
use dmbfs_graph::Grid2D;
use serde::Serialize;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const RANKS: usize = 4;

#[derive(Serialize)]
struct LevelRow {
    level: u32,
    /// Max across ranks (critical path), seconds.
    compute: f64,
    comm: f64,
}

#[derive(Serialize)]
struct Run {
    algorithm: String,
    threads_per_rank: usize,
    seconds: f64,
    /// Critical-path totals: per level, max over ranks; summed over levels.
    compute_seconds: f64,
    comm_seconds: f64,
    /// Flat compute_seconds / this run's compute_seconds.
    compute_speedup_vs_flat: f64,
    parents_match_flat: bool,
    levels: Vec<LevelRow>,
}

#[derive(Serialize)]
struct Doc {
    scale: u32,
    edge_factor: u64,
    ranks: usize,
    /// `available_parallelism()` of the host the numbers were taken on.
    cores: usize,
    note: String,
    runs: Vec<Run>,
}

/// Per level, the max over ranks of compute and comm (the critical path —
/// the slowest rank gates the level barrier).
fn critical_path(per_rank: &[CommStats], num_levels: u32) -> Vec<LevelRow> {
    (0..num_levels)
        .map(|lvl| {
            let mut row = LevelRow {
                level: lvl,
                compute: 0.0,
                comm: 0.0,
            };
            for stats in per_rank {
                if let Some(t) = stats.level_timings.iter().find(|t| t.level == lvl) {
                    row.compute = row.compute.max(t.compute.as_secs_f64());
                    row.comm = row.comm.max(t.comm.as_secs_f64());
                }
            }
            row
        })
        .collect()
}

fn main() {
    println!("=== hybrid_scaling — flat vs hybrid per-level compute/comm ===");
    let scale = dmbfs_bench::harness::scale_or(16);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let g = rmat_graph(scale, 16, 99);
    let source = dmbfs_graph::components::sample_sources(&g, 1, 9)[0];
    println!(
        "instance: R-MAT scale {scale} (n = {}, stored adjacencies = {}), {RANKS} ranks, \
         {cores} host core(s)",
        g.num_vertices(),
        g.num_edges(),
    );

    let mut runs: Vec<Run> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for algorithm in ["1d", "2d"] {
        let mut flat_parents: Vec<i64> = Vec::new();
        let mut flat_compute = 0.0f64;
        for &threads in &THREAD_SWEEP {
            let (output, per_rank_stats, num_levels, seconds) = match algorithm {
                "1d" => {
                    let cfg = if threads > 1 {
                        Bfs1dConfig::hybrid(RANKS, threads)
                    } else {
                        Bfs1dConfig::flat(RANKS)
                    };
                    let r = bfs1d_run(&g, source, &cfg);
                    (r.output, r.per_rank_stats, r.num_levels, r.seconds)
                }
                _ => {
                    let grid = Grid2D::closest_square(RANKS);
                    let cfg = if threads > 1 {
                        Bfs2dConfig::hybrid(grid, threads)
                    } else {
                        Bfs2dConfig::flat(grid)
                    };
                    let r = bfs2d_run(&g, source, &cfg);
                    (r.output, r.per_rank_stats, r.num_levels, r.seconds)
                }
            };
            validate_bfs(&g, source, &output.parents, &output.levels).expect("valid BFS");
            let levels = critical_path(&per_rank_stats, num_levels);
            let compute_seconds: f64 = levels.iter().map(|l| l.compute).sum();
            let comm_seconds: f64 = levels.iter().map(|l| l.comm).sum();
            let parents_match_flat = if threads == 1 {
                flat_parents = output.parents.clone();
                flat_compute = compute_seconds;
                true
            } else {
                output.parents == flat_parents
            };
            assert!(
                parents_match_flat,
                "{algorithm} threads={threads}: hybrid parent tree diverged from flat"
            );
            let speedup = flat_compute / compute_seconds.max(1e-9);
            table.push(vec![
                algorithm.into(),
                threads.to_string(),
                format!("{:.1}ms", compute_seconds * 1e3),
                format!("{:.1}ms", comm_seconds * 1e3),
                format!("{speedup:.2}x"),
                "yes".into(),
            ]);
            runs.push(Run {
                algorithm: algorithm.into(),
                threads_per_rank: threads,
                seconds,
                compute_seconds,
                comm_seconds,
                compute_speedup_vs_flat: speedup,
                parents_match_flat,
                levels,
            });
        }
    }
    print_table(
        "per-level critical-path time vs threads/rank",
        &[
            "algorithm",
            "threads",
            "compute",
            "comm",
            "speedup",
            "parents==flat",
        ],
        &table,
    );
    println!(
        "\nnote: compute speedup requires idle host cores; this host has {cores}. \
         Communication time is unaffected by threads_per_rank (fixed rank count) — \
         the paper's hybrid win comes from *fewer ranks per node* shrinking the \
         collectives' α-term, modeled separately in dmbfs-model."
    );

    let doc = Doc {
        scale,
        edge_factor: 16,
        ranks: RANKS,
        cores,
        note: format!(
            "Measured on a {cores}-core host: with fewer cores than threads the pool \
             multiplexes and per-level compute speedup saturates at ~min(threads, cores)x. \
             Parent trees are asserted bit-identical to the flat run at every thread count."
        ),
        runs,
    };
    let path = write_result("hybrid_scaling", &doc);
    println!("results written to {}", path.display());
}
