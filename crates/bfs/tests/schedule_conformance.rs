//! Cross-validation of the static collective-schedule checker against
//! reality: run each driver at small scale, take the ordered fingerprint
//! sequence every rank actually issued (every run records each rank's
//! whole collective log), and diff it against the schedule
//! `cargo run -p xtask -- schedule` predicts for that driver's entry
//! point. A static schedule is a regex-shaped tree (alternation per
//! branch, zero-or-more per loop); conformance means every rank's
//! observed sequence is a word of that language — so the static checker's
//! abstractions (inline boundaries, loop folding, neutralized comm
//! internals) are pinned to what the runtime does, not just to each
//! other. The checks run on flat and pooled ranks, and on square and
//! rectangular 2D grids.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_graph::gen::grid2d;
use dmbfs_graph::{CsrGraph, Grid2D};
use dmbfs_runtime::DirectionMode;
use xtask::schedule::matches;
use xtask::{analyze_workspace, workspace_root, Analysis};

fn analysis() -> Analysis {
    analyze_workspace(&workspace_root()).expect("workspace sources must be readable")
}

fn graph() -> CsrGraph {
    CsrGraph::from_edge_list(&grid2d(6, 6))
}

/// Asserts every rank's observed sequence is accepted by the entry's
/// static schedule, and that the ranks agree with each other (the
/// symmetry the checker proves statically).
fn assert_conforms(analysis: &Analysis, entry: &str, per_rank: &[Vec<&'static str>], what: &str) {
    let e = analysis
        .entry(entry)
        .unwrap_or_else(|| panic!("static analysis must extract entry {entry}"));
    let first = &per_rank[0];
    for (rank, seq) in per_rank.iter().enumerate() {
        assert_eq!(
            seq, first,
            "{what}: rank {rank} issued a different sequence than rank 0"
        );
        assert!(
            matches(&e.schedule, seq),
            "{what}: rank {rank}'s observed sequence is not a word of the \
             static schedule for {entry} ({}:{}):\n observed: {seq:?}",
            e.file,
            e.line
        );
        assert!(!seq.is_empty(), "{what}: rank {rank} recorded nothing");
    }
}

fn check_1d(base: Bfs1dConfig) {
    let what = format!(
        "1D ranks {} threads {} {:?}",
        base.ranks, base.threads_per_rank, base.direction
    );
    let run = bfs1d_run(&graph(), 0, &base);
    assert_conforms(&analysis(), "bfs1d_run", &run.per_rank_schedule, &what);
}

fn check_2d(base: Bfs2dConfig) {
    let (grid, threads) = (base.grid, base.threads_per_rank);
    let what = format!("2D {}x{} threads {threads}", grid.rows(), grid.cols());
    let run = bfs2d_run(&graph(), 0, &base);
    assert_conforms(&analysis(), "bfs2d_run", &run.per_rank_schedule, &what);
    // The log spans the whole run: the row and column splits (each with
    // its inner allgather) and the setup barrier come before the search.
    for (rank, seq) in run.per_rank_schedule.iter().enumerate() {
        assert_eq!(
            seq[..5],
            ["split", "allgatherv", "split", "allgatherv", "barrier"],
            "{what}: rank {rank}'s log must start with the setup collectives"
        );
    }
}

#[test]
fn one_d_topdown_conforms_to_the_static_schedule() {
    check_1d(Bfs1dConfig::flat(4));
    check_1d(Bfs1dConfig::hybrid(2, 2));
}

#[test]
fn one_d_hybrid_direction_conforms_to_the_static_schedule() {
    for base in [Bfs1dConfig::flat(4), Bfs1dConfig::hybrid(2, 2)] {
        check_1d(base.with_direction(DirectionMode::Hybrid));
    }
}

/// Square and rectangular grids (1×2 is the gated 2D workload's shape),
/// flat and pooled.
#[test]
fn two_d_conforms_to_the_static_schedule() {
    for (pr, pc) in [(2, 2), (1, 2), (2, 1), (2, 3)] {
        check_2d(Bfs2dConfig::flat(Grid2D::new(pr, pc)));
    }
    check_2d(Bfs2dConfig::hybrid(Grid2D::new(2, 2), 2));
}
