//! Ablation (§5–§6 communication focus): what frontier-exchange
//! compression and sender-side sieving save.
//!
//! The paper identifies the per-level frontier exchange (1D alltoallv,
//! 2D fold) as the dominant communication cost at scale. This ablation
//! measures how much of that traffic is redundant representation: every
//! exchanged (target, parent) pair is 16 logical bytes, but targets are
//! sorted vertex ids inside a known owner range, so a varint-delta or
//! dense-bitmap encoding — picked per destination by frontier density —
//! shrinks the wire bytes substantially. The sender-side sieve
//! additionally drops vertices already sent to their owner in a previous
//! level, which are guaranteed no-ops at the receiver.
//!
//! Both drivers always run that policy (adaptive encoding + sieve), so
//! the ablation is one validated run per driver (1D on 16 ranks, 2D on a
//! 4×4 grid) set against the logical bytes raw `u64`s would have sent:
//! the wire/logical ratio, the per-level encoding mix and sieve hits, and
//! the wire bytes replayed through the α–β model on Franklin and Hopper.

use dmbfs_bench::harness::{print_table, rmat_graph, write_result};
use dmbfs_bfs::frontier_codec::LevelCodecStats;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_bfs::BfsOutput;
use dmbfs_comm::CommStats;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::{CsrGraph, Grid2D};
use dmbfs_model::{replay_rank_time, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    levels: u32,
    logical_bytes: u64,
    wire_bytes: u64,
    wire_fraction: f64,
    sieve_hits: u64,
    chose_raw: u64,
    chose_varint: u64,
    chose_bitmap: u64,
    modeled_comm_franklin_ms: f64,
    modeled_comm_hopper_ms: f64,
    per_level: Vec<LevelCodecStats>,
}

#[derive(Serialize)]
struct Doc {
    scale: u32,
    edge_factor: u64,
    ranks: usize,
    grid: String,
    source: u64,
    rows: Vec<Row>,
}

fn modeled_ms(profile: &MachineProfile, stats: &[CommStats]) -> f64 {
    stats
        .iter()
        .map(|s| replay_rank_time(profile, &s.events, 1))
        .fold(0.0f64, f64::max)
        * 1e3
}

/// Validates one run's tree and summarizes its wire ledger.
fn row(
    g: &CsrGraph,
    source: u64,
    algorithm: &str,
    output: &BfsOutput,
    stats: &[CommStats],
    levels: u32,
    per_level: Vec<LevelCodecStats>,
) -> Row {
    validate_bfs(g, source, &output.parents, &output.levels)
        .unwrap_or_else(|e| panic!("{algorithm} failed validation: {e:?}"));
    let logical_bytes = stats.iter().map(|s| s.bytes_out()).sum();
    let wire_bytes = stats.iter().map(|s| s.wire_out()).sum();
    let mut total = LevelCodecStats::default();
    per_level.iter().for_each(|l| total.merge(l));
    Row {
        algorithm: algorithm.into(),
        levels,
        logical_bytes,
        wire_bytes,
        wire_fraction: wire_bytes as f64 / logical_bytes.max(1) as f64,
        sieve_hits: total.sieve_hits,
        chose_raw: total.chose_raw,
        chose_varint: total.chose_varint,
        chose_bitmap: total.chose_bitmap,
        modeled_comm_franklin_ms: modeled_ms(&MachineProfile::franklin(), stats),
        modeled_comm_hopper_ms: modeled_ms(&MachineProfile::hopper(), stats),
        per_level,
    }
}

fn main() {
    println!("=== ablation_compression — adaptive frontier encoding + sieve ===");
    let scale = dmbfs_bench::harness::scale_or(16);
    let ranks = 16usize;
    let grid = Grid2D::new(4, 4);

    let g = rmat_graph(scale, 16, 23);
    let source = sample_sources(&g, 1, 5)[0];

    let run = bfs1d_run(&g, source, &Bfs1dConfig::flat(ranks));
    let one_d = row(
        &g,
        source,
        "1d",
        &run.output,
        &run.per_rank_stats,
        run.num_levels,
        run.codec_levels,
    );
    let run = bfs2d_run(&g, source, &Bfs2dConfig::flat(grid));
    let two_d = row(
        &g,
        source,
        "2d",
        &run.output,
        &run.per_rank_stats,
        run.num_levels,
        run.codec_levels,
    );
    let rows = vec![one_d, two_d];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                r.levels.to_string(),
                format!("{:.0}KiB", r.logical_bytes as f64 / 1024.0),
                format!("{:.0}KiB", r.wire_bytes as f64 / 1024.0),
                format!("{:.3}", r.wire_fraction),
                format!("{}/{}/{}", r.chose_raw, r.chose_varint, r.chose_bitmap),
                r.sieve_hits.to_string(),
                format!("{:.2}ms", r.modeled_comm_franklin_ms),
                format!("{:.2}ms", r.modeled_comm_hopper_ms),
            ]
        })
        .collect();
    print_table(
        &format!("frontier compression, R-MAT scale {scale}, p = {ranks}"),
        &[
            "alg",
            "levels",
            "logical",
            "wire",
            "wire/logical",
            "raw/varint/bitmap",
            "sieve hits",
            "franklin",
            "hopper",
        ],
        &table,
    );

    // Acceptance gate: the adaptive codec must at least halve the frontier
    // exchange bytes relative to the logical (uncompressed) volume.
    for r in &rows {
        println!(
            "{} wire/logical = {:.3} (gate: <= 0.50)",
            r.algorithm, r.wire_fraction
        );
        assert!(
            r.wire_fraction <= 0.50,
            "{}: adaptive codec only reached wire/logical = {:.3}",
            r.algorithm,
            r.wire_fraction
        );
    }

    let doc = Doc {
        scale,
        edge_factor: 16,
        ranks,
        grid: "4x4".into(),
        source,
        rows,
    };
    let path = write_result("ablation_compression", &doc);
    println!("\nwrote {}", path.display());
}
