//! Ablation (§5–§6 communication focus): frontier-exchange compression
//! and sender-side sieving.
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
//! For every codec × sieve × {1D, 2D} configuration the run validates
//! the Graph 500 parent tree and checks that the parent tree is
//! bit-identical to the first row's, `raw` with the sieve off (the
//! identity encoding, nothing filtered): the wire format and the sieve
//! are transport-level choices and must not change the answer.
//! Wire bytes are replayed through the α–β model on Franklin and Hopper
//! to show the modeled communication-time saving.

use dmbfs_bench::harness::{print_table, rmat_graph, write_result};
use dmbfs_bfs::frontier_codec::{Codec, LevelCodecStats};
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::CommStats;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use dmbfs_model::{replay_rank_time, MachineProfile};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    codec: String,
    sieve: bool,
    levels: u32,
    logical_bytes: u64,
    wire_bytes: u64,
    wire_fraction: f64,
    sieve_hits: u64,
    modeled_comm_franklin_ms: f64,
    modeled_comm_hopper_ms: f64,
    parents_match_baseline: bool,
    validated: bool,
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

fn totals(stats: &[CommStats]) -> (u64, u64) {
    let logical = stats.iter().map(|s| s.bytes_out()).sum();
    let wire = stats.iter().map(|s| s.wire_out()).sum();
    (logical, wire)
}

fn modeled_ms(profile: &MachineProfile, stats: &[CommStats]) -> f64 {
    stats
        .iter()
        .map(|s| replay_rank_time(profile, &s.events, 1))
        .fold(0.0f64, f64::max)
        * 1e3
}

fn main() {
    println!("=== ablation_compression — frontier wire encodings + sieve ===");
    let scale = dmbfs_bench::harness::scale_or(16);
    let ranks = 16usize;
    let grid = Grid2D::new(4, 4);
    let franklin = MachineProfile::franklin();
    let hopper = MachineProfile::hopper();

    let g = rmat_graph(scale, 16, 23);
    let source = sample_sources(&g, 1, 5)[0];

    let configs: Vec<(Codec, bool)> = Codec::ALL
        .into_iter()
        .flat_map(|codec| [(codec, false), (codec, true)])
        .collect();

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut baseline_1d: Option<Vec<i64>> = None;
    let mut baseline_2d: Option<Vec<i64>> = None;

    for (codec, sieve) in &configs {
        // --- 1D ---
        let cfg = Bfs1dConfig::flat(ranks)
            .with_codec(*codec)
            .with_sieve(*sieve);
        let run = bfs1d_run(&g, source, &cfg);
        let validated = validate_bfs(&g, source, &run.output.parents, &run.output.levels).is_ok();
        assert!(validated, "1D {codec:?} sieve={sieve} failed validation");
        let baseline = baseline_1d.get_or_insert_with(|| run.output.parents.clone());
        let parents_match = *baseline == run.output.parents;
        assert!(
            parents_match,
            "1D parent tree changed under {codec:?} sieve={sieve}"
        );
        let (logical, wire) = totals(&run.per_rank_stats);
        let sieve_hits = run.codec_levels.iter().map(|l| l.sieve_hits).sum();
        push(
            &mut rows,
            &mut table,
            Row {
                algorithm: "1d".into(),
                codec: codec.name().into(),
                sieve: *sieve,
                levels: run.num_levels,
                logical_bytes: logical,
                wire_bytes: wire,
                wire_fraction: wire as f64 / logical.max(1) as f64,
                sieve_hits,
                modeled_comm_franklin_ms: modeled_ms(&franklin, &run.per_rank_stats),
                modeled_comm_hopper_ms: modeled_ms(&hopper, &run.per_rank_stats),
                parents_match_baseline: parents_match,
                validated,
                per_level: run.codec_levels,
            },
        );

        // --- 2D ---
        let cfg = Bfs2dConfig::flat(grid)
            .with_codec(*codec)
            .with_sieve(*sieve);
        let run = bfs2d_run(&g, source, &cfg);
        let validated = validate_bfs(&g, source, &run.output.parents, &run.output.levels).is_ok();
        assert!(validated, "2D {codec:?} sieve={sieve} failed validation");
        let baseline = baseline_2d.get_or_insert_with(|| run.output.parents.clone());
        let parents_match = *baseline == run.output.parents;
        assert!(
            parents_match,
            "2D parent tree changed under {codec:?} sieve={sieve}"
        );
        let (logical, wire) = totals(&run.per_rank_stats);
        let sieve_hits = run.codec_levels.iter().map(|l| l.sieve_hits).sum();
        push(
            &mut rows,
            &mut table,
            Row {
                algorithm: "2d".into(),
                codec: codec.name().into(),
                sieve: *sieve,
                levels: run.num_levels,
                logical_bytes: logical,
                wire_bytes: wire,
                wire_fraction: wire as f64 / logical.max(1) as f64,
                sieve_hits,
                modeled_comm_franklin_ms: modeled_ms(&franklin, &run.per_rank_stats),
                modeled_comm_hopper_ms: modeled_ms(&hopper, &run.per_rank_stats),
                parents_match_baseline: parents_match,
                validated,
                per_level: run.codec_levels,
            },
        );
    }

    print_table(
        &format!("frontier compression, R-MAT scale {scale}, p = {ranks}"),
        &[
            "alg",
            "codec",
            "sieve",
            "levels",
            "logical",
            "wire",
            "wire/logical",
            "sieve hits",
            "franklin",
            "hopper",
        ],
        &table,
    );

    // Acceptance gate: the adaptive codec must at least halve the frontier
    // exchange bytes relative to the logical (uncompressed) volume.
    for alg in ["1d", "2d"] {
        let best = rows
            .iter()
            .find(|r| r.algorithm == alg && r.codec == "adaptive" && r.sieve)
            .expect("adaptive+sieve row");
        println!(
            "{alg} adaptive+sieve wire/logical = {:.3} (gate: <= 0.50)",
            best.wire_fraction
        );
        assert!(
            best.wire_fraction <= 0.50,
            "{alg}: adaptive codec only reached wire/logical = {:.3}",
            best.wire_fraction
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

fn push(rows: &mut Vec<Row>, table: &mut Vec<Vec<String>>, row: Row) {
    table.push(vec![
        row.algorithm.clone(),
        row.codec.clone(),
        row.sieve.to_string(),
        row.levels.to_string(),
        format!("{:.0}KiB", row.logical_bytes as f64 / 1024.0),
        format!("{:.0}KiB", row.wire_bytes as f64 / 1024.0),
        format!("{:.3}", row.wire_fraction),
        row.sieve_hits.to_string(),
        format!("{:.2}ms", row.modeled_comm_franklin_ms),
        format!("{:.2}ms", row.modeled_comm_hopper_ms),
    ]);
    rows.push(row);
}
