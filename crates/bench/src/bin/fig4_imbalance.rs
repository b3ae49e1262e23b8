//! Figure 4: time spent in MPI calls across the processor grid when the
//! sparse vectors are distributed to diagonal processors only, against the
//! paper's 2D vector distribution (§4.3).
//!
//! Paper shape to reproduce: with the diagonal ("1D") vector distribution,
//! off-diagonal processors show much higher MPI time — they idle at the
//! post-fold collective while the diagonal processor of their row merges
//! the entire row's contributions ("the time spent idling is approximately
//! 3-4 times of the time spent in communication"). The 2D vector
//! distribution shows "almost no load imbalance".
//!
//! Each distribution runs once, traced, on the 8×8 grid. Two views come
//! out of the same two runs:
//!
//! * **Counter heatmaps** (`*_mpi_pct`, `*_imbalance`): exact per-rank
//!   merge work (fold entries received). Per-rank MPI% is derived the way
//!   the paper measures it: every rank's level time is the row maximum
//!   (bulk-synchronous collectives), so MPI time = row-max work − own work
//!   (idle); shown normalized to the grid maximum. Tracing is a strict
//!   observer, so these are what an untraced run gives.
//! * **Traced wait matrices** (`diagonal`, `twod`): measured nanoseconds
//!   each rank spends inside blocking collectives at each level, analysed
//!   by `dmbfs_model::imbalance` — the paper's statistic ("the waiting
//!   time for this blocking collective is accounted for the total MPI
//!   time") taken from timestamped spans.

use dmbfs_bench::harness::{functional_scale, print_table, rmat_graph, write_result};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig, Dist2dRun, VectorDistribution};
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use dmbfs_model::imbalance::{analyze, ImbalanceReport};
use serde::Serialize;

const GRID: usize = 8; // 8x8 = 64 ranks (paper used 16x16 = 256)

#[derive(Serialize)]
struct Fig4 {
    grid: usize,
    scale: u32,
    levels: usize,
    diagonal_mpi_pct: Vec<Vec<f64>>,
    twod_mpi_pct: Vec<Vec<f64>>,
    diagonal_imbalance: f64,
    twod_imbalance: f64,
    diagonal: ImbalanceReport,
    twod: ImbalanceReport,
}

/// The counter view of one run: MPI% heatmap and max/mean merge work.
fn counter_heatmap(run: &Dist2dRun) -> (Vec<Vec<f64>>, f64) {
    let work: Vec<u64> = run.per_rank_work.iter().map(|w| w.total()).collect();
    // Busy time proxy = own merge work; per-row wall time = row max.
    // MPI time = wall − busy (idle at the blocking collective).
    let wall = (0..GRID)
        .map(|i| (0..GRID).map(|j| work[i * GRID + j]).max().unwrap_or(0))
        .max()
        .unwrap_or(1)
        .max(1);
    let heat = (0..GRID)
        .map(|i| {
            (0..GRID)
                .map(|j| 100.0 * (wall - work[i * GRID + j]) as f64 / wall as f64)
                .collect()
        })
        .collect();
    let max = *work.iter().max().unwrap() as f64;
    let mean = work.iter().sum::<u64>() as f64 / work.len() as f64;
    (heat, max / mean.max(1.0))
}

fn print_heatmap(name: &str, heat: &[Vec<f64>]) {
    let rows: Vec<Vec<String>> = heat
        .iter()
        .map(|row| row.iter().map(|v| format!("{v:.0}%")).collect())
        .collect();
    let headers: Vec<String> = (0..GRID).map(|j| format!("P(:,{j})")).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        &format!("MPI time heatmap, {name} (normalized to grid max)"),
        &header_refs,
        &rows,
    );
}

fn print_waits(name: &str, rep: &ImbalanceReport) {
    // One row per rank: total wait across levels, as a share of that rank's
    // total level time — the flattened traced heatmap.
    let rows: Vec<Vec<String>> = (0..rep.ranks)
        .map(|r| {
            let wait: u64 = rep.wait_ns[r].iter().sum();
            let level: u64 = rep.level_ns[r].iter().sum::<u64>().max(1);
            vec![
                format!("({},{})", r / GRID, r % GRID),
                format!("{:.3}", wait as f64 / 1e6),
                format!("{:.0}%", 100.0 * wait as f64 / level as f64),
            ]
        })
        .collect();
    print_table(
        &format!("{name}: per-rank collective wait (traced)"),
        &["rank (i,j)", "wait ms", "wait share"],
        &rows,
    );
    println!(
        "  imbalance (max/mean level time) = {:.2}; critical path {:.3} ms \
         ({:.0}% waiting)",
        rep.imbalance_factor,
        rep.critical_path_ns as f64 / 1e6,
        100.0 * rep.critical_wait_fraction(),
    );
}

fn main() {
    println!("=== fig4_imbalance — diagonal vs 2D vector distribution ===");
    let scale = functional_scale();
    let g = rmat_graph(scale, 16, 21);
    let source = sample_sources(&g, 1, 3)[0];
    let grid = Grid2D::new(GRID, GRID);

    let run_with = |dist: VectorDistribution| {
        let cfg = Bfs2dConfig {
            distribution: dist,
            ..Bfs2dConfig::flat(grid)
        }
        .with_trace(true);
        bfs2d_run(&g, source, &cfg)
    };

    let diag = run_with(VectorDistribution::Diagonal);
    let twod = run_with(VectorDistribution::TwoD);
    assert_eq!(diag.output.levels, twod.output.levels, "results must agree");

    let (diag_heat, di) = counter_heatmap(&diag);
    let (twod_heat, ti) = counter_heatmap(&twod);
    let diag_rep = analyze(&diag.per_rank_trace);
    let twod_rep = analyze(&twod.per_rank_trace);
    assert_eq!(diag_rep.ranks, GRID * GRID);
    assert_eq!(twod_rep.ranks, GRID * GRID);
    assert!(diag_rep.levels > 0, "traced run must yield level spans");

    let diag_name = "diagonal-only (1D) vector distribution";
    let twod_name = "2D vector distribution";
    print_heatmap(diag_name, &diag_heat);
    print_heatmap(twod_name, &twod_heat);
    println!("\nmerge-work imbalance (max/mean): diagonal = {di:.2}, 2D = {ti:.2}");
    print_waits(diag_name, &diag_rep);
    print_waits(twod_name, &twod_rep);
    println!("\npaper shape: diagonal distribution idles off-diagonal ranks 3-4x; 2D is near-flat");

    let path = write_result(
        "fig4_imbalance",
        &Fig4 {
            grid: GRID,
            scale,
            levels: diag_rep.levels,
            diagonal_mpi_pct: diag_heat,
            twod_mpi_pct: twod_heat,
            diagonal_imbalance: di,
            twod_imbalance: ti,
            diagonal: diag_rep,
            twod: twod_rep,
        },
    );
    println!("results written to {}", path.display());
}
