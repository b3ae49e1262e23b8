//! §6 single-node comparison: "our single-node multithreaded BFS version
//! (i.e., without the inter-node communication steps in Algorithm 2) is
//! also extremely fast [...] nearly 1.30× faster [than Agarwal et al.] for
//! R-MAT graphs with average degree 16 and 32 million vertices."
//!
//! Agarwal et al.'s and Leiserson–Schardl's codes are not public (the
//! paper itself notes this), so this benchmark reports the absolute TEPS
//! of our shared-memory BFS in all three discovery modes plus the serial
//! baseline — establishing the single-node numbers the paper's claims are
//! anchored to, and the thread-scaling ablation (§4.2: thread-local stacks
//! vs a shared locked stack; benign races vs CAS).

use super::Doc;
use crate::harness::{rmat_graph, Knobs};
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::shared::{shared_bfs_with, DiscoveryMode, SharedBfsConfig};
use dmbfs_bfs::teps::benchmark_bfs;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    mteps: f64,
    mean_seconds: f64,
}

pub(super) fn run(knobs: &Knobs) -> Vec<Doc> {
    let g = rmat_graph(knobs.functional_scale() + 4, 16, 77);
    let variants = [
        ("serial (Algorithm 1)", None),
        (
            "shared, benign race (paper default)",
            Some(DiscoveryMode::BenignRace),
        ),
        ("shared, CAS", Some(DiscoveryMode::Cas)),
        (
            "shared, locked stack (rejected design)",
            Some(DiscoveryMode::LockedStack),
        ),
    ];
    let rows: Vec<Row> = variants
        .into_iter()
        .map(|(variant, mode)| {
            let report = benchmark_bfs(&g, knobs.sources, 3, |s| {
                let out = match mode {
                    None => serial_bfs(&g, s),
                    Some(mode) => shared_bfs_with(&g, s, &SharedBfsConfig { mode }),
                };
                (out, None)
            });
            Row {
                variant: variant.to_string(),
                mteps: report.mteps(),
                mean_seconds: report.mean_seconds,
            }
        })
        .collect();
    vec![Doc::new("single_node", &rows)]
}
