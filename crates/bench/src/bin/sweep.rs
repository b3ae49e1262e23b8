//! Harness-level sweep: one `results/sweep.json` ledger row per
//! (algorithm × `RunConfig`) point, across both distributed BFS drivers —
//! bfs-1d and bfs-2d.
//!
//! The sweep is the cheap end-to-end regression net the ROADMAP asked
//! for: every row carries the configuration axes, min-of-trials wall
//! time, the wire-byte ledger (logical / wire / loaned / copied — the
//! zero-copy split), and an output fingerprint, so two sweeps at the same
//! scale diff cleanly.
//!
//! Knobs: `DMBFS_SCALE` (default 14), `DMBFS_RESULT_DIR`.

use dmbfs_bench::harness::{functional_scale, print_table, rmat_graph, write_result};
use dmbfs_bench::sweep::{bfs1d_point, bfs2d_point, SweepPoint};
use dmbfs_bfs::two_d::Bfs2dConfig;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use dmbfs_runtime::{Codec, DirectionMode, RunConfig};
use serde::Serialize;

/// Trials per point; each row keeps its fastest trial.
const TRIALS: usize = 3;

/// The `results/sweep.json` document.
#[derive(Serialize)]
struct SweepDoc {
    scale: u32,
    edge_factor: u64,
    source: u64,
    trials: usize,
    points: Vec<SweepPoint>,
}

fn main() {
    println!("=== sweep — one ledger row per (algorithm x RunConfig) point ===");
    let scale = functional_scale();
    let g = rmat_graph(scale, 16, 21);
    let source = sample_sources(&g, 1, 3)[0];
    println!("instance: R-MAT scale {scale}, {TRIALS} trials per point");

    let mut points: Vec<SweepPoint> = Vec::new();

    // bfs-1d axes: codec × sieve × direction × flat/hybrid,
    // one move away from the default per point (not the full product).
    let base = RunConfig::flat(4).with_trace(true);
    points.push(bfs1d_point(&g, source, &base, TRIALS));
    points.push(bfs1d_point(
        &g,
        source,
        &base.with_codec(Codec::Raw),
        TRIALS,
    ));
    points.push(bfs1d_point(&g, source, &base.with_sieve(false), TRIALS));
    points.push(bfs1d_point(
        &g,
        source,
        &base.with_direction(DirectionMode::Hybrid),
        TRIALS,
    ));
    points.push(bfs1d_point(
        &g,
        source,
        &RunConfig::hybrid(2, 2).with_trace(true),
        TRIALS,
    ));

    // bfs-2d on the closest-square grid.
    points.push(bfs2d_point(
        &g,
        source,
        &Bfs2dConfig::flat(Grid2D::new(2, 2)).with_trace(true),
        TRIALS,
    ));

    // Every 1D top-down point must agree bit-for-bit: codec, sieve and
    // the thread pool are all transport/scheduling axes
    // with no license to change the parent tree. (Direction-optimizing
    // and 2D points legitimately pick different — equally valid —
    // parents, so they are excluded; levels equality for those is
    // proptest territory, not the sweep's.)
    let fp0 = points[0].output_fingerprint;
    assert!(
        points
            .iter()
            .filter(|p| p.algorithm == "bfs-1d" && p.direction == "topdown")
            .all(|p| p.output_fingerprint == fp0),
        "1D top-down BFS parent trees diverged across sweep points"
    );

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.algorithm.clone(),
                format!("{}x{}", p.ranks, p.threads_per_rank),
                p.codec.clone(),
                if p.sieve { "on" } else { "off" }.to_string(),
                p.direction.clone(),
                format!("{:.1}", p.seconds * 1e3),
                p.wire_out.to_string(),
                p.loaned_bytes.to_string(),
                p.copied_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "sweep ledger",
        &[
            "algorithm",
            "p x t",
            "codec",
            "sieve",
            "direction",
            "wall ms",
            "wire B",
            "loaned B",
            "copied B",
        ],
        &rows,
    );

    let path = write_result(
        "sweep",
        &SweepDoc {
            scale,
            edge_factor: 16,
            source,
            trials: TRIALS,
            points,
        },
    );
    println!("results written to {}", path.display());
}
