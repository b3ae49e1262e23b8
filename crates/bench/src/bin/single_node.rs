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

use dmbfs_bench::harness::{num_sources, print_table, rmat_graph, write_result};
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

fn main() {
    println!("=== single_node — shared-memory BFS variants ===");
    let scale = dmbfs_bench::harness::functional_scale() + 4;
    let sources = num_sources();
    let g = rmat_graph(scale, 16, 77);
    println!(
        "instance: R-MAT scale {scale} (n = {}, stored adjacencies = {}), {} hardware threads",
        g.num_vertices(),
        g.num_edges(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    type Runner<'a> = Box<dyn Fn(u64) -> dmbfs_bfs::BfsOutput + 'a>;
    let variants: Vec<(String, Runner)> = vec![
        (
            "serial (Algorithm 1)".into(),
            Box::new(|s| serial_bfs(&g, s)),
        ),
        (
            "shared, benign race (paper default)".into(),
            Box::new(|s| {
                shared_bfs_with(
                    &g,
                    s,
                    &SharedBfsConfig {
                        mode: DiscoveryMode::BenignRace,
                    },
                )
            }),
        ),
        (
            "shared, CAS".into(),
            Box::new(|s| {
                shared_bfs_with(
                    &g,
                    s,
                    &SharedBfsConfig {
                        mode: DiscoveryMode::Cas,
                    },
                )
            }),
        ),
        (
            "shared, locked stack (rejected design)".into(),
            Box::new(|s| {
                shared_bfs_with(
                    &g,
                    s,
                    &SharedBfsConfig {
                        mode: DiscoveryMode::LockedStack,
                    },
                )
            }),
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (name, runner) in &variants {
        let report = benchmark_bfs(&g, sources, 3, |s| (runner(s), None));
        table.push(vec![
            name.clone(),
            format!("{:.1}", report.mteps()),
            format!("{:.1}ms", report.mean_seconds * 1e3),
        ]);
        rows.push(Row {
            variant: name.clone(),
            mteps: report.mteps(),
            mean_seconds: report.mean_seconds,
        });
    }
    print_table(
        "single-node TEPS",
        &["variant", "MTEPS", "mean time"],
        &table,
    );
    println!("\npaper shape: thread-local stacks + benign races ≥ CAS ≥ locked shared stack");

    let path = write_result("single_node", &rows);
    println!("results written to {}", path.display());
}
