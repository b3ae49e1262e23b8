//! The six workloads and how one search of each is issued and observed.
//!
//! Load model, every workload: single process, closed loop, one search at
//! a time, `ranks × threads_per_rank = 2`. The benchmark only calls the
//! public entry points and reads their public outputs.

use crate::inputs::GraphKind;
use dmbfs_bfs::frontier_codec::LevelCodecStats;
use dmbfs_bfs::one_d::bfs1d_run;
use dmbfs_bfs::serial::serial_bfs;
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::BfsOutput;
use dmbfs_comm::{CommStats, LevelDirection};
use dmbfs_graph::{CsrGraph, Grid2D, VertexId};
use dmbfs_runtime::{DirectionMode, RunConfig};
use dmbfs_trace::RankTrace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which public entry point a workload calls, with its configuration.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    /// `serial_bfs`.
    Serial,
    /// `bfs1d_run`.
    OneD(RunConfig),
    /// `bfs2d_run`.
    TwoD(Bfs2dConfig),
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Input graph.
    pub graph: GraphKind,
    /// Entry point and configuration.
    pub driver: Driver,
}

/// The workload table (why each is here: README.md / BENCHMARK.json).
pub fn all() -> [Workload; 6] {
    let w = |name, graph, driver| Workload {
        name,
        graph,
        driver,
    };
    [
        w("rmat18_serial", GraphKind::Rmat, Driver::Serial),
        w(
            "rmat18_1d_topdown",
            GraphKind::Rmat,
            Driver::OneD(RunConfig::flat(2)),
        ),
        w(
            "rmat18_1d_diropt",
            GraphKind::Rmat,
            Driver::OneD(RunConfig::flat(2).with_direction(DirectionMode::Hybrid)),
        ),
        w(
            "rmat18_2d_topdown",
            GraphKind::Rmat,
            Driver::TwoD(Bfs2dConfig::flat(Grid2D::new(1, 2))),
        ),
        w(
            "web_1d_topdown",
            GraphKind::Web,
            Driver::OneD(RunConfig::flat(2)),
        ),
        w(
            "rmat18_1d_threads",
            GraphKind::Rmat,
            Driver::OneD(RunConfig::hybrid(1, 2)),
        ),
    ]
}

/// Everything observed about one search, from outside the program.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of the whole public call: rank spawn, per-call graph
    /// distribution, search, output assembly.
    pub call_s: f64,
    /// The driver's barrier-to-barrier `seconds` (for `serial_bfs`, which
    /// has no inner timer, the call wall).
    pub search_s: f64,
    /// The BFS result; `None` when the call panicked.
    pub output: Option<BfsOutput>,
    /// Per-rank communication statistics (empty for serial).
    pub stats: Vec<CommStats>,
    /// Per-level codec telemetry (empty for serial).
    pub codec_levels: Vec<LevelCodecStats>,
    /// Per-rank span traces (spans only when `traced`).
    pub trace: Vec<RankTrace>,
    /// BFS levels executed.
    pub levels: u32,
}

/// Issues one search. A panic inside the program is caught and reported
/// as an outcome without output; its wall time is kept.
pub fn run_search(w: &Workload, g: &CsrGraph, source: VertexId, traced: bool) -> Outcome {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match w.driver {
        Driver::Serial => {
            let out = serial_bfs(g, source);
            let levels = out.depth() as u32 + 1;
            (out, None, Vec::new(), Vec::new(), Vec::new(), levels)
        }
        Driver::OneD(cfg) => {
            let run = bfs1d_run(g, source, &cfg.with_trace(traced));
            (
                run.output,
                Some(run.seconds),
                run.per_rank_stats,
                run.codec_levels,
                run.per_rank_trace,
                run.num_levels,
            )
        }
        Driver::TwoD(cfg) => {
            let run = bfs2d_run(g, source, &cfg.with_trace(traced));
            (
                run.output,
                Some(run.seconds),
                run.per_rank_stats,
                run.codec_levels,
                run.per_rank_trace,
                run.num_levels,
            )
        }
    }));
    let call_s = t0.elapsed().as_secs_f64();
    match result {
        Ok((output, seconds, stats, codec_levels, trace, levels)) => Outcome {
            call_s,
            search_s: seconds.unwrap_or(call_s),
            output: Some(output),
            stats,
            codec_levels,
            trace,
            levels,
        },
        Err(_) => Outcome {
            call_s,
            search_s: call_s,
            ..Outcome::default()
        },
    }
}

/// The counts of one search that repeat exactly for a given source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// BFS levels executed.
    pub levels: u64,
    /// Levels that ran bottom-up (rank 0's schedule; replicated).
    pub bottom_up_levels: u64,
    /// Bytes put on the wire, all ranks.
    pub wire_bytes: u64,
    /// Logical (pre-codec) bytes sent, all ranks.
    pub logical_bytes: u64,
    /// Wire bytes that travelled as zero-copy loans, all ranks.
    pub loaned_bytes: u64,
    /// Wire bytes that travelled as owned copies, all ranks.
    pub copied_bytes: u64,
    /// Collective calls issued by the busiest rank.
    pub collectives: u64,
    /// Duplicates dropped by the sender-side sieve, all ranks.
    pub sieve_hits: u64,
}

impl Outcome {
    /// Exact counts from the public outputs.
    pub fn exact_counts(&self) -> ExactCounts {
        let sum = |f: fn(&CommStats) -> u64| self.stats.iter().map(f).sum::<u64>();
        ExactCounts {
            levels: u64::from(self.levels),
            bottom_up_levels: self.stats.first().map_or(0, |s| {
                s.level_timings
                    .iter()
                    .filter(|t| t.direction == LevelDirection::BottomUp)
                    .count() as u64
            }),
            wire_bytes: sum(CommStats::wire_out),
            logical_bytes: sum(CommStats::bytes_out),
            loaned_bytes: sum(CommStats::loaned_bytes),
            copied_bytes: sum(CommStats::copied_bytes),
            collectives: self
                .stats
                .iter()
                .map(|s| s.num_calls() as u64)
                .max()
                .unwrap_or(0),
            sieve_hits: self.codec_levels.iter().map(|l| l.sieve_hits).sum(),
        }
    }

    /// `(compute share, comm share)` of the `LevelTiming`s on the slowest
    /// rank, and max ÷ mean rank compute. Zeros for serial.
    pub fn level_time_split(&self) -> (f64, f64, f64) {
        let compute: Vec<f64> = self
            .stats
            .iter()
            .map(|s| s.compute_total().as_secs_f64())
            .collect();
        let slowest = self
            .stats
            .iter()
            .map(|s| {
                (
                    s.compute_total().as_secs_f64(),
                    s.comm_total().as_secs_f64(),
                )
            })
            .max_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
        let Some((comp, comm)) = slowest.filter(|(a, b)| a + b > 0.0) else {
            return (0.0, 0.0, 0.0);
        };
        let mean = compute.iter().sum::<f64>() / compute.len() as f64;
        let max = compute.iter().copied().fold(0.0, f64::max);
        (
            comp / (comp + comm),
            comm / (comp + comm),
            if mean > 0.0 { max / mean } else { 0.0 },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_uses_exactly_two_threads_or_is_the_serial_baseline() {
        for w in all() {
            let width = match w.driver {
                Driver::Serial => continue,
                Driver::OneD(cfg) => cfg.ranks * cfg.threads_per_rank,
                Driver::TwoD(cfg) => cfg.grid.size() * cfg.threads_per_rank,
            };
            assert_eq!(width, 2, "{}", w.name);
        }
    }
}
