//! Ablation (§6 setup choice): processor-grid aspect ratio for the 2D
//! algorithm. The paper "used the closest square processor grid" — this
//! sweep shows why: elongated grids inflate one of the two collective
//! phases (expand over pr, fold over pc).

use dmbfs_bench::harness::{functional_scale, num_sources, print_table, rmat_graph, write_result};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::CollectiveTag;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    grid: String,
    mean_seconds: f64,
    expand_bytes: u64,
    fold_bytes: u64,
}

fn main() {
    println!("=== ablation_grid_shape — pr x pc aspect ratio (16 ranks) ===");
    let g = rmat_graph(functional_scale(), 16, 37);
    let sources = sample_sources(&g, num_sources().min(3), 41);

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (pr, pc) in [(1usize, 16usize), (2, 8), (4, 4), (8, 2), (16, 1)] {
        let cfg = Bfs2dConfig::flat(Grid2D::new(pr, pc));
        let mut secs = 0.0;
        let mut expand = 0u64;
        let mut fold = 0u64;
        for &s in &sources {
            let run = bfs2d_run(&g, s, &cfg);
            secs += run.seconds;
            expand += run
                .per_rank_stats
                .iter()
                .map(|st| st.bytes_out_for(CollectiveTag::Allgatherv))
                .sum::<u64>();
            fold += run
                .per_rank_stats
                .iter()
                .map(|st| st.bytes_out_for(CollectiveTag::Alltoallv))
                .sum::<u64>();
        }
        let n = sources.len() as u64;
        let row = Row {
            grid: format!("{pr}x{pc}"),
            mean_seconds: secs / n as f64,
            expand_bytes: expand / n,
            fold_bytes: fold / n,
        };
        table.push(vec![
            row.grid.clone(),
            format!("{:.1}ms", row.mean_seconds * 1e3),
            format!("{:.0}KiB", row.expand_bytes as f64 / 1024.0),
            format!("{:.0}KiB", row.fold_bytes as f64 / 1024.0),
        ]);
        rows.push(row);
    }
    print_table(
        "grid-shape sweep (total network bytes per BFS, all ranks)",
        &[
            "grid",
            "mean time",
            "expand (allgatherv) bytes",
            "fold (alltoallv) bytes",
        ],
        &table,
    );
    println!("\nexpected: tall grids inflate expand replication, wide grids inflate fold;");
    println!("the square grid balances the two — the paper's choice");

    let path = write_result("ablation_grid_shape", &rows);
    println!("results written to {}", path.display());
}
