//! Criterion end-to-end benchmarks of every BFS variant on a fixed
//! Graph 500-style instance — the per-commit performance regression gate.

use criterion::{criterion_group, criterion_main, Criterion};
use dmbfs_bfs::baseline::{pbgl_like_bfs, reference_mpi_bfs};
use dmbfs_bfs::direction::direction_optimizing_bfs;
use dmbfs_bfs::one_d::{bfs1d, Bfs1dConfig};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::shared::{shared_bfs_with, DiscoveryMode, SharedBfsConfig};
use dmbfs_bfs::two_d::{bfs2d, Bfs2dConfig};
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::gen::{rmat, RmatConfig};
use dmbfs_graph::{CsrGraph, Grid2D, RandomPermutation};
use std::hint::black_box;

fn instance() -> (CsrGraph, u64) {
    let mut el = rmat(&RmatConfig::graph500(13, 2024));
    el.canonicalize_undirected();
    let el = RandomPermutation::new(el.num_vertices, 7).apply_edge_list(&el);
    let g = CsrGraph::from_edge_list(&el);
    let s = sample_sources(&g, 1, 1)[0];
    (g, s)
}

fn bench_variants(c: &mut Criterion) {
    let (g, s) = instance();
    let mut group = c.benchmark_group("bfs");
    group.sample_size(10);

    group.bench_function("serial", |b| b.iter(|| black_box(serial_bfs(&g, s))));
    for (name, mode) in [
        ("shared_benign", DiscoveryMode::BenignRace),
        ("shared_cas", DiscoveryMode::Cas),
        ("shared_locked", DiscoveryMode::LockedStack),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(shared_bfs_with(&g, s, &SharedBfsConfig { mode })))
        });
    }
    group.bench_function("1d_flat_p4", |b| {
        b.iter(|| black_box(bfs1d(&g, s, &Bfs1dConfig::flat(4))))
    });
    group.bench_function("1d_hybrid_p2x2", |b| {
        b.iter(|| black_box(bfs1d(&g, s, &Bfs1dConfig::hybrid(2, 2))))
    });
    group.bench_function("2d_flat_2x2", |b| {
        b.iter(|| black_box(bfs2d(&g, s, &Bfs2dConfig::flat(Grid2D::new(2, 2)))))
    });
    group.bench_function("2d_hybrid_2x2", |b| {
        b.iter(|| black_box(bfs2d(&g, s, &Bfs2dConfig::hybrid(Grid2D::new(2, 2), 2))))
    });
    group.bench_function("baseline_reference_p4", |b| {
        b.iter(|| black_box(reference_mpi_bfs(&g, s, 4)))
    });
    group.bench_function("baseline_pbgl_p4", |b| {
        b.iter(|| black_box(pbgl_like_bfs(&g, s, 4)))
    });
    group.bench_function("direction_optimizing", |b| {
        b.iter(|| black_box(direction_optimizing_bfs(&g, s)))
    });
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
