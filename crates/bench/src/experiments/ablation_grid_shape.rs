//! Ablation (§6 setup choice): processor-grid aspect ratio for the 2D
//! algorithm. The paper "used the closest square processor grid" — this
//! sweep shows why: elongated grids inflate one of the two collective
//! phases (expand over pr, fold over pc).

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_comm::CollectiveTag;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::Grid2D;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    grid: String,
    mean_seconds: f64,
    /// Allgatherv bytes per BFS, summed over ranks.
    expand_bytes: u64,
    /// Alltoallv bytes per BFS, summed over ranks.
    fold_bytes: u64,
}

/// Expected: tall grids inflate expand replication, wide grids inflate
/// fold; the square grid balances the two — the paper's choice.
pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let g = rmat_graph(knobs.functional_scale(), 16, 37);
    let sources = sample_sources(&g, knobs.sources.min(3), 41);

    let mut rows = Vec::new();
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
        rows.push(Row {
            grid: format!("{pr}x{pc}"),
            mean_seconds: secs / n as f64,
            expand_bytes: expand / n,
            fold_bytes: fold / n,
        });
    }
    vec![Doc::new("ablation_grid_shape", &rows)]
}
