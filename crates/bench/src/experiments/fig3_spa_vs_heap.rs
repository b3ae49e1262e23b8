//! Figure 3: speedup of the SPA over the heap (priority queue) for the
//! local SpMSV operation, as the processor count grows.
//!
//! Paper shape to reproduce: "after 10K processors, the difference becomes
//! marginal and heap option becomes preferable due to its lower memory
//! consumption" — i.e. SPA wins clearly at low core counts and the speedup
//! decays toward (and below) 1 as the per-processor submatrix becomes
//! hypersparse.
//!
//! Method (functional, scaled-down shards): the paper ran a scale-33 R-MAT
//! on p cores, giving each core an `(n/√p) × (n/√p)` DCSC shard with
//! `m/p` nonzeros and frontier vectors from real BFS levels. We reproduce
//! the *shard geometry*: for each simulated p we build a local shard with
//! exactly those dimensions/density (scaled to laptop size) and time both
//! kernels over a sweep of frontier densities matching BFS level profiles.

use super::Doc;
use crate::harness::Knobs;
use dmbfs_graph::gen::{rmat, RmatConfig};
use dmbfs_matrix::{spmsv_heap, spmsv_spa, Dcsc, SelectMax, SpaWorkspace, SparseVector};
use serde::Serialize;
use std::time::Instant;

/// Global-scale stand-in for the paper's scale-33 instance (scaled down so
/// a single shard fits this machine; the shard *geometry* across p keeps
/// the paper's shape).
const GLOBAL_SCALE: u32 = 24;

/// Best-of-several timing: repeats `f` in batches until ≥ 60 ms of samples
/// exist, then reports the fastest batch mean — robust against scheduler
/// noise on a shared machine.
fn time_best(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    while spent < 0.06 {
        let batch = 3;
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        spent += elapsed;
        best = best.min(elapsed / batch as f64);
    }
    best
}

#[derive(Serialize)]
struct Point {
    cores: usize,
    shard_dim: u64,
    shard_nnz: usize,
    spa_seconds: f64,
    heap_seconds: f64,
    speedup_spa_over_heap: f64,
}

pub(super) fn run(_: &Knobs) -> Vec<Doc> {
    let n_global: u64 = 1 << GLOBAL_SCALE;
    let m_global: u64 = 16 * n_global;

    let mut points = Vec::new();
    for cores in [1225usize, 2500, 5041, 10000, 20164, 40000] {
        let pr = (cores as f64).sqrt().round() as u64;
        let dim = (n_global / pr).max(1);
        let nnz_target = (m_global / cores as u64).max(1);

        // Build the shard: an R-MAT slice with the right dimension and
        // density (R-MAT at a reduced scale, trimmed to `dim`).
        let shard_scale = 64 - dim.leading_zeros() - 1;
        let ef = (nnz_target / (1 << shard_scale)).max(1);
        let el = rmat(&RmatConfig::graph500_ef(shard_scale, ef, 7 + cores as u64));
        let triples: Vec<(u64, u64)> = el
            .edges
            .iter()
            .map(|&(u, v)| (u % dim, v % dim))
            .take(nnz_target as usize)
            .collect();
        let a = Dcsc::from_triples(dim, dim, &triples);

        // Frontier sweep: densities seen across the levels of a Graph 500
        // BFS (ramp-up, peak, tail).
        let densities = [0.001f64, 0.01, 0.05, 0.2];
        let mut spa_total = 0.0;
        let mut heap_total = 0.0;
        let mut ws: SpaWorkspace<u64> = SpaWorkspace::new(dim);
        for &d in &densities {
            let nnz_f = ((dim as f64 * d) as u64).max(1);
            let step = (dim / nnz_f).max(1);
            let entries: Vec<(u64, u64)> = (0..nnz_f).map(|k| (k * step, k * step)).collect();
            let x = SparseVector::from_sorted(dim, entries);

            spa_total += time_best(|| {
                std::hint::black_box(spmsv_spa::<SelectMax>(&a, &x, &mut ws));
            });
            heap_total += time_best(|| {
                std::hint::black_box(spmsv_heap::<SelectMax>(&a, &x));
            });
        }

        points.push(Point {
            cores,
            shard_dim: dim,
            shard_nnz: a.nnz(),
            spa_seconds: spa_total,
            heap_seconds: heap_total,
            speedup_spa_over_heap: heap_total / spa_total,
        });
    }
    vec![Doc::new("fig3_spa_vs_heap", &points)]
}
