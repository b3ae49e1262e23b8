//! 2D checkerboard-partitioned distributed BFS — Algorithm 3 of the paper.
//!
//! "Each BFS iteration is computationally equivalent to a sparse
//! matrix-sparse vector multiplication (SpMSV) [...]
//! `x_{k+1} ← Aᵀ ⊗ x_k ⊙ ∪x_i`" (§3.2). Processors form a `pr × pc` grid;
//! each iteration performs:
//!
//! 1. **TransposeVector** — redistribute the frontier so that processor
//!    column `j` holds the subvector its matrix columns need ("simply a
//!    pairwise exchange between P(i,j) and P(j,i)" on square grids).
//! 2. **Expand** — `Allgatherv` along each processor *column* (`pr`
//!    participants): every processor obtains the full frontier piece `f_j`.
//! 3. **Local SpMSV** — `t_i ← A_ij ⊗ f_j` over the (select, max)
//!    semiring, scattered into a sort-free per-rank SelectMax accumulator
//!    and gathered per vector owner in ascending id order; the hybrid
//!    variant splits the frontier's columns across threads. `A_ij` is a
//!    `distribute::Block2d` view of the shared CSR: no rank copies its block.
//! 4. **Fold** — `Alltoallv` along each processor *row* (`pc`
//!    participants) delivers each candidate parent to the vector owner.
//! 5. **Mask & update** — `t_ij ← t_ij ⊙ π̄_ij; π_ij ← π_ij + t_ij;
//!    f_ij ← t_ij` (lines 9–11): keep only first discoveries.
//!
//! The collectives thus involve only `pr` or `pc ≈ √p` processors — the
//! communication-avoidance the paper's abstract claims ("reduces the
//! communication overhead at high process concurrencies by a factor of
//! 3.5").
//!
//! Steps 1–5 are the level step of the loop the 1D driver runs too
//! (`crate::direction::level_loop`), its direction switch pinned top-down.
//!
//! [`VectorDistribution`] selects between the paper's balanced "2D vector
//! distribution" and the diagonal-only layout whose severe load imbalance
//! §4.3 / Fig. 4 demonstrates.

use crate::direction::level_loop;
use crate::distribute::Block2d;
use crate::exchange::{exchange_pairs, Accumulator};
use crate::frontier_codec::{
    decode_set, encode_pairs, encode_set, merge_level_stats, Codec, LevelCodecStats,
};
use crate::{BfsOutput, UNREACHED};
use dmbfs_comm::{Comm, CommStats};
use dmbfs_graph::{CsrGraph, Grid2D, OwnerMap2D, VertexId};
use dmbfs_runtime::{run_ranks, scatter_block, DirectionMode, FaultPlan, RunConfig};
use dmbfs_trace::{RankTrace, SpanKind};
use std::ops::Range;
use std::time::Duration;

/// How frontier/parent vector entries are assigned to processors (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VectorDistribution {
    /// The paper's choice: every processor owns ≈ n/p vector elements,
    /// matching the matrix distribution. "Distributing the vectors over
    /// all processors (2D vector distribution) remedies this problem and
    /// we observe almost no load imbalance."
    #[default]
    TwoD,
    /// Vector owned by diagonal processors only (requires a square grid) —
    /// adequate for SpMV, but for SpMSV it "causes severe imbalance": the
    /// diagonal processor performs the entire merge while its row idles
    /// (Fig. 4 shows the resulting 3–4× idle time).
    Diagonal,
}

/// Configuration of a 2D run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bfs2dConfig {
    /// The processor grid (`Grid2D::closest_square(p)` reproduces §6).
    pub grid: Grid2D,
    /// Threads per rank: 1 = "Flat MPI", >1 = "Hybrid".
    pub threads_per_rank: usize,
    /// Vector distribution (§4.3 ablation).
    pub distribution: VectorDistribution,
    /// Record per-rank span traces (see `dmbfs-trace`). Strictly an
    /// observer: the computed parent tree is bit-identical either way.
    pub trace: bool,
    /// Deterministic fault-injection schedule (see `docs/fault-injection.md`).
    /// Empty by default.
    pub faults: FaultPlan,
    /// Overrides the rendezvous watchdog limit (`None` = the
    /// `DMBFS_COMM_TIMEOUT_SECS` default).
    pub watchdog: Option<Duration>,
}

impl Bfs2dConfig {
    /// Flat MPI on `grid` with the paper's defaults.
    pub fn flat(grid: Grid2D) -> Self {
        Self {
            grid,
            threads_per_rank: 1,
            distribution: VectorDistribution::TwoD,
            trace: false,
            faults: FaultPlan::none(),
            watchdog: None,
        }
    }

    /// Hybrid MPI + multithreading on `grid`.
    pub fn hybrid(grid: Grid2D, threads_per_rank: usize) -> Self {
        assert!(threads_per_rank >= 1);
        Self {
            threads_per_rank,
            ..Self::flat(grid)
        }
    }

    /// Enables or disables span tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Replaces the fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the rendezvous watchdog limit.
    pub fn with_watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// The runtime-layer view of this configuration: everything the
    /// execution harness needs, minus the 2D-specific algorithm knobs
    /// (grid shape, distribution).
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            ranks: self.grid.size(),
            threads_per_rank: self.threads_per_rank,
            trace: self.trace,
            faults: self.faults,
            watchdog: self.watchdog,
            // The 2D SpMSV driver has no bottom-up step; its runtime view
            // is always top-down.
            direction: DirectionMode::TopDown,
        }
    }
}

/// Per-rank computation work counters of one 2D run — the quantities whose
/// spread across the grid exposes the §4.3 load imbalance (Fig. 4).
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct RankWork {
    /// SpMSV output rows gathered for the fold across all levels, after
    /// the sieve.
    pub spmsv_output: u64,
    /// Fold entries received and merged (the work that piles onto diagonal
    /// processors under the diagonal vector distribution).
    pub fold_received: u64,
    /// Expanded frontier entries consumed as SpMSV input.
    pub expand_received: u64,
}

impl RankWork {
    /// Scalar work proxy used for imbalance heatmaps.
    pub fn total(&self) -> u64 {
        self.spmsv_output + self.fold_received + self.expand_received
    }
}

/// Results and measurements of a 2D run.
#[derive(Clone, Debug)]
pub struct Dist2dRun {
    /// Assembled global result.
    pub output: BfsOutput,
    /// Per-world-rank communication statistics (row-major grid order).
    pub per_rank_stats: Vec<CommStats>,
    /// Per-world-rank computation work counters.
    pub per_rank_work: Vec<RankWork>,
    /// Wall seconds of the timed region (max over ranks).
    pub seconds: f64,
    /// BFS levels executed.
    pub num_levels: u32,
    /// Per-level codec telemetry, merged across ranks: one entry per
    /// level.
    pub codec_levels: Vec<LevelCodecStats>,
    /// Per-world-rank span traces (row-major grid order); empty spans
    /// unless [`Bfs2dConfig::trace`] was set. Row/column-communicator
    /// collectives appear in the owning rank's trace.
    pub per_rank_trace: Vec<RankTrace>,
    /// Per-world-rank collective-fingerprint sequences of the whole run:
    /// the two splits and the setup barrier, then the search.
    pub per_rank_schedule: Vec<Vec<&'static str>>,
}

/// Runs the 2D algorithm, returning the assembled result only.
///
/// # Examples
/// ```
/// use dmbfs_bfs::serial::serial_bfs;
/// use dmbfs_bfs::two_d::{bfs2d, Bfs2dConfig};
/// use dmbfs_graph::gen::grid2d;
/// use dmbfs_graph::{CsrGraph, Grid2D};
///
/// let g = CsrGraph::from_edge_list(&grid2d(4, 4));
/// let out = bfs2d(&g, 5, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
/// assert_eq!(out.levels(), serial_bfs(&g, 5).levels());
/// ```
pub fn bfs2d(g: &CsrGraph, source: VertexId, cfg: &Bfs2dConfig) -> BfsOutput {
    bfs2d_run(g, source, cfg).output
}

/// Runs the 2D algorithm with full instrumentation.
pub fn bfs2d_run(g: &CsrGraph, source: VertexId, cfg: &Bfs2dConfig) -> Dist2dRun {
    assert!(source < g.num_vertices(), "source out of range");
    if cfg.distribution == VectorDistribution::Diagonal {
        assert!(
            cfg.grid.is_square(),
            "diagonal vector distribution requires a square grid"
        );
    }
    let grid = cfg.grid;
    let p = grid.size();

    // The harness attaches the tracer before this closure runs — and
    // therefore before the splits — so the row/column communicators share
    // the sink and their collectives land in the rank's trace.
    let run = run_ranks(&cfg.run_config(), |ctx| {
        let comm = ctx.comm();
        let (i, j) = grid.coords_of(ctx.rank());
        let state = RankState::new(g, cfg, i, j);

        // Row communicator P(i, :) for the fold, column communicator
        // P(:, j) for the expand. Sub-rank = grid position by construction.
        let row_comm = comm.split(i as u64, j as u64);
        let col_comm = comm.split((grid.rows() + j) as u64, i as u64);
        debug_assert_eq!(row_comm.rank(), j);
        debug_assert_eq!(col_comm.rank(), i);

        ctx.reset_accounting(); // exclude setup from stats and trace
        let (levels, parents, num_levels, work, codec_levels) = ctx.timed(source, || {
            state.run(comm, &row_comm, &col_comm, source, ctx.pool())
        });

        // One stream per rank: world events (transpose, allreduce) plus the
        // row/column communicator events (fold, expand).
        ctx.merge_stats(row_comm.take_stats());
        ctx.merge_stats(col_comm.take_stats());
        (
            state.vrange.clone(),
            levels,
            parents,
            num_levels,
            work,
            codec_levels,
        )
    });

    let mut output = BfsOutput::unreached(source, g.num_vertices() as usize);
    let mut per_rank_work = Vec::with_capacity(p);
    let mut per_rank_codec = Vec::with_capacity(p);
    let mut num_levels = 0;
    for (vrange, levels, parents, rank_levels, work, codec_levels) in run.per_rank {
        scatter_block(&mut output.levels, vrange.start, &levels);
        scatter_block(&mut output.parents, vrange.start, &parents);
        per_rank_work.push(work);
        per_rank_codec.push(codec_levels);
        num_levels = num_levels.max(rank_levels);
    }
    Dist2dRun {
        output,
        per_rank_stats: run.per_rank_stats,
        per_rank_work,
        seconds: run.seconds,
        num_levels,
        codec_levels: merge_level_stats(&per_rank_codec),
        per_rank_trace: run.per_rank_trace,
        per_rank_schedule: run.per_rank_schedule,
    }
}

/// Per-rank algorithm state.
struct RankState<'g> {
    cfg: Bfs2dConfig,
    coords: (usize, usize),
    /// The global ownership map.
    map: OwnerMap2D,
    /// The local submatrix `A_ij`, a view of the shared CSR.
    block: Block2d<'g>,
    /// The SpMSV's SelectMax accumulator, one slot per local row, keyed by
    /// the frontier's block-local column.
    acc: Accumulator,
    /// Vector range owned under the configured distribution.
    vrange: Range<u64>,
}

impl<'g> RankState<'g> {
    fn new(g: &'g CsrGraph, cfg: &Bfs2dConfig, i: usize, j: usize) -> Self {
        let map = OwnerMap2D::new(g.num_vertices(), cfg.grid);
        let vrange = match cfg.distribution {
            VectorDistribution::TwoD => map.vector_range(i, j),
            VectorDistribution::Diagonal => map.diagonal_range(i, j),
        };
        let (rows, cols) = (map.matrix_row_range(i), map.matrix_col_range(j));
        let (nrows, ncols) = (rows.end - rows.start, cols.end - cols.start);
        let acc = Accumulator::new(nrows as usize, ncols as usize);
        let block = Block2d {
            rows,
            cols,
            graph: g,
        };
        Self {
            cfg: *cfg,
            coords: (i, j),
            map,
            block,
            acc,
            vrange,
        }
    }

    /// Algorithm 3 as the level step of [`level_loop`]. The switch is
    /// pinned top-down and reads no counts, so it is fed zeros.
    fn run(
        &self,
        comm: &Comm,
        row_comm: &Comm,
        col_comm: &Comm,
        source: VertexId,
        pool: &rayon::ThreadPool,
    ) -> (Vec<i64>, Vec<i64>, u32, RankWork, Vec<LevelCodecStats>) {
        let i = self.coords.0;
        let v0 = self.vrange.start;
        let nloc = (self.vrange.end - v0) as usize;
        let mut levels = vec![UNREACHED; nloc];
        let mut parents = vec![UNREACHED; nloc];
        // One bit per owned vertex: the vertices this level claimed.
        let mut claimed = vec![0u64; nloc.div_ceil(64)];
        let mut work = RankWork::default();
        let (acc, block) = (&self.acc, &self.block);
        let (row0, col0) = (block.rows.start, block.cols.start);
        // Column `u` offers parent slot `u - col0 + 1` to every row it
        // holds, once per stored adjacency; returns its sieve hits.
        let scatter = |&u: &u64| -> u64 {
            let slot = (u - col0) as u32 + 1;
            let hit = |&r: &u64| u64::from(acc.offer((r - row0) as usize, slot));
            block.column(u).iter().map(hit).sum()
        };
        // The owners' vector ranges split this processor row's matrix rows
        // in ascending order, so every touched row is gathered for exactly
        // one fold destination — the sieve sees every row this rank sends.
        let gather = |oj: usize| {
            let range = self.owner_vrange(i, oj);
            let rows = (range.start - row0) as usize..(range.end - row0) as usize;
            acc.drain(rows, |r, slot| {
                (row0 + r as u64, col0 + u64::from(slot) - 1)
            })
        };
        let mut codec_levels: Vec<LevelCodecStats> = Vec::new();

        // Line 2: f(s) ← s at the vector owner of the source.
        let mut frontier: Vec<VertexId> = Vec::new();
        if self.vrange.contains(&source) {
            let s = (source - v0) as usize;
            levels[s] = 0;
            parents[s] = source as i64;
            frontier.push(source);
        }

        let num_levels = level_loop(
            &[comm, row_comm, col_comm],
            DirectionMode::TopDown,
            self.map.domain(),
            0,
            frontier,
            |_| 0,
            |_, frontier, level| {
                let mut lvl = LevelCodecStats {
                    level: level as usize,
                    ..Default::default()
                };
                // Line 5: TransposeVector.
                let transpose_t = comm.trace_start();
                let mut transposed = self.transpose(comm, frontier, &mut lvl);
                // A square grid under the 2D distribution receives its
                // partner's frontier already in order (ROADMAP J.3).
                debug_assert!(!self.square_2d() || transposed.is_sorted_by(|a, b| a < b));
                // The rectangular transpose concatenates pieces from several
                // senders; sort so every downstream path sees canonical order.
                transposed.sort_unstable();
                transposed.dedup();
                comm.trace_span(SpanKind::Transpose, transpose_t, transposed.len() as u64);
                // Line 6: expand along the processor column.
                let expand_t = comm.trace_start();
                let buf = encode_set(&transposed, self.block.cols.clone(), Codec::Adaptive);
                lvl.note(&buf);
                let gathered = col_comm
                    .allgatherv_wire(buf)
                    .iter()
                    .map(|b| decode_set(b.bytes()))
                    .collect();
                let fcols = self.assemble_frontier(gathered);
                comm.trace_span(SpanKind::ExpandPhase, expand_t, fcols.len() as u64);
                work.expand_received += fcols.len() as u64;
                // Line 7: local SpMSV on the (select, max) semiring, gathered
                // per vector owner in ascending row order (§4.2's SPA with no
                // sort). Sent rows stay sieved.
                let spmsv_t = comm.trace_start();
                let (sieve_hits, buckets) =
                    acc.scatter_gather(comm, pool, &fcols, self.cfg.grid.cols(), scatter, gather);
                let produced: u64 = buckets.iter().map(|b| b.len() as u64).sum();
                comm.trace_span(SpanKind::SpMSV, spmsv_t, produced);
                work.spmsv_output += produced;
                lvl.sieve_hits = sieve_hits;
                // Line 8: fold along the processor row to the vector owners.
                let fold_t = comm.trace_start();
                let folded = exchange_pairs(row_comm, pool, &mut lvl, buckets, |oj, pairs| {
                    encode_pairs(pairs, self.owner_vrange(i, oj), Codec::Adaptive)
                });
                codec_levels.push(lvl);
                let received: u64 = folded.iter().map(|b| b.len() as u64).sum();
                comm.trace_span(SpanKind::FoldPhase, fold_t, received);
                work.fold_received += received;
                // Lines 9–11: mask by π̄, update π, form the next frontier. Each
                // sender kept its max candidate; the owner keeps the max across
                // senders within the level (SelectMax's add).
                let mask_t = comm.trace_start();
                for &(g, parent) in folded.iter().flatten() {
                    let idx = (g - v0) as usize;
                    if levels[idx] == UNREACHED {
                        levels[idx] = level;
                        parents[idx] = parent as i64;
                        claimed[idx / 64] |= 1 << (idx % 64);
                    } else if levels[idx] == level {
                        parents[idx] = parents[idx].max(parent as i64);
                    }
                }
                // The claim bitmap lists the next frontier in ascending order,
                // as the transpose's set encoder wants.
                let mut next: Vec<VertexId> = Vec::new();
                for (w, word) in claimed.iter_mut().enumerate() {
                    while *word != 0 {
                        let idx = w * 64 + word.trailing_zeros() as usize;
                        *word &= *word - 1;
                        next.push(v0 + idx as u64);
                    }
                }
                comm.trace_span(SpanKind::Mask, mask_t, next.len() as u64);
                (next, 0)
            },
        );
        (levels, parents, num_levels, work, codec_levels)
    }

    /// Whether the grid is square and the vector 2D-distributed.
    fn square_2d(&self) -> bool {
        self.cfg.grid.is_square() && self.cfg.distribution == VectorDistribution::TwoD
    }

    /// Vector range owned by `P(i, oj)` under the configured distribution —
    /// the codec range of a fold buffer headed there.
    fn owner_vrange(&self, i: usize, oj: usize) -> Range<u64> {
        match self.cfg.distribution {
            VectorDistribution::TwoD => self.map.vector_range(i, oj),
            VectorDistribution::Diagonal => self.map.diagonal_range(i, oj),
        }
    }

    /// Line 5: sends each owned frontier entry toward the processor column
    /// that owns its matrix-column chunk. On square grids every entry of
    /// P(i,j) targets P(j,i) — the paper's pairwise exchange, encoded
    /// adaptively and noted in `lvl` unless the partner is
    /// this rank; on general grids this becomes a (sparse) typed
    /// all-to-all.
    fn transpose(
        &self,
        comm: &Comm,
        frontier: &[VertexId],
        lvl: &mut LevelCodecStats,
    ) -> Vec<VertexId> {
        // schedule: replicated
        let grid = self.cfg.grid;
        let (i, j) = self.coords;
        if grid.is_square() {
            // All owned entries live in row chunk i = column chunk i.
            debug_assert!(frontier.iter().all(|&g| self.map.col_owner(g) == i));
            let partner = grid.rank_of(j, i);
            let buf = encode_set(frontier, self.vrange.clone(), Codec::Adaptive);
            if partner != comm.rank() {
                lvl.note(&buf);
            }
            decode_set(comm.sendrecv_wire(partner, buf).bytes())
        } else {
            let mut bufs: Vec<Vec<VertexId>> = vec![Vec::new(); comm.size()];
            for &g in frontier {
                let jstar = self.map.col_owner(g);
                let x = j % grid.rows();
                bufs[grid.rank_of(x, jstar)].push(g);
            }
            comm.alltoallv(bufs).into_iter().flatten().collect()
        }
    }

    /// Line 6 epilogue: the allgathered pieces as the sorted frontier `f_j`,
    /// global ids of the block's columns. Under the (select, max) semiring a
    /// column's global id is its candidate parent.
    fn assemble_frontier(&self, gathered: Vec<Vec<VertexId>>) -> Vec<u64> {
        // On a square grid under the 2D distribution the pieces are
        // disjoint and ascend by sub-rank (ROADMAP J.3).
        debug_assert!(!self.square_2d() || gathered.iter().flatten().is_sorted_by(|a, b| a < b));
        let mut cols: Vec<u64> = gathered.into_iter().flatten().collect();
        debug_assert!(cols.iter().all(|g| self.block.cols.contains(g)));
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs;
    use dmbfs_comm::{CollectiveTag, LevelDirection};
    use dmbfs_graph::gen::{grid2d, path, rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};

    fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(scale, seed));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn flat_square_matches_serial() {
        let g = rmat_graph(8, 11);
        let expected = serial_bfs(&g, 0);
        for grid in [Grid2D::new(1, 1), Grid2D::new(2, 2), Grid2D::new(3, 3)] {
            let out = bfs2d(&g, 0, &Bfs2dConfig::flat(grid));
            assert_eq!(out.levels, expected.levels, "grid {grid:?}");
            validate_bfs(&g, 0, &out.parents, &out.levels).unwrap();
        }
    }

    #[test]
    fn flat_rectangular_matches_serial() {
        let g = rmat_graph(8, 13);
        let expected = serial_bfs(&g, 2);
        for grid in [
            Grid2D::new(2, 3),
            Grid2D::new(3, 2),
            Grid2D::new(1, 4),
            Grid2D::new(4, 1),
        ] {
            let out = bfs2d(&g, 2, &Bfs2dConfig::flat(grid));
            assert_eq!(out.levels, expected.levels, "grid {grid:?}");
            validate_bfs(&g, 2, &out.parents, &out.levels).unwrap();
        }
    }

    #[test]
    fn hybrid_matches_serial() {
        let g = rmat_graph(8, 15);
        let expected = serial_bfs(&g, 5);
        let out = bfs2d(&g, 5, &Bfs2dConfig::hybrid(Grid2D::new(2, 2), 2));
        assert_eq!(out.levels, expected.levels);
        validate_bfs(&g, 5, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn diagonal_distribution_matches_serial() {
        let g = rmat_graph(8, 17);
        let expected = serial_bfs(&g, 1);
        let cfg = Bfs2dConfig {
            distribution: VectorDistribution::Diagonal,
            ..Bfs2dConfig::flat(Grid2D::new(3, 3))
        };
        let out = bfs2d(&g, 1, &cfg);
        assert_eq!(out.levels, expected.levels);
        validate_bfs(&g, 1, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn all_kernels_agree() {
        // Flat ranks scatter serially, pooled ranks in parallel parts: the
        // trees must not differ.
        let g = rmat_graph(7, 19);
        let expected = serial_bfs(&g, 0);
        let flat = bfs2d(&g, 0, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        assert_eq!(flat.levels, expected.levels);
        for t in [2, 3] {
            let out = bfs2d(&g, 0, &Bfs2dConfig::hybrid(Grid2D::new(2, 2), t));
            assert_eq!(out, flat, "threads {t}");
        }
    }

    #[test]
    fn high_diameter_path_works() {
        let g = CsrGraph::from_edge_list(&path(30));
        let out = bfs2d(&g, 0, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        let expected: Vec<i64> = (0..30).collect();
        assert_eq!(out.levels, expected);
    }

    #[test]
    fn disconnected_graph_terminates() {
        let el = EdgeList::new(9, vec![(0, 1), (1, 0), (7, 8), (8, 7)]);
        let g = CsrGraph::from_edge_list(&el);
        let out = bfs2d(&g, 0, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        assert_eq!(out.num_reached(), 2);
        assert_eq!(out.levels[7], UNREACHED);
    }

    #[test]
    fn grid_graph_source_anywhere() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 6));
        for source in [0u64, 7, 29] {
            let expected = serial_bfs(&g, source);
            let out = bfs2d(&g, source, &Bfs2dConfig::flat(Grid2D::new(2, 3)));
            assert_eq!(out.levels, expected.levels, "source {source}");
        }
    }

    #[test]
    fn run_records_expand_and_fold_patterns() {
        let g = rmat_graph(8, 23);
        let run = bfs2d_run(&g, 0, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        assert!(run.num_levels >= 2);
        for stats in &run.per_rank_stats {
            let ag = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::Allgatherv)
                .count() as u32;
            let a2a = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::Alltoallv)
                .count() as u32;
            let p2p = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::PointToPoint)
                .count() as u32;
            assert_eq!(ag, run.num_levels);
            assert_eq!(a2a, run.num_levels);
            assert_eq!(p2p, run.num_levels);
            // Expand/fold happen in √p-sized groups, not world-sized ones.
            for e in &stats.events {
                if matches!(
                    e.pattern,
                    CollectiveTag::Allgatherv | CollectiveTag::Alltoallv
                ) {
                    assert_eq!(e.group_size, 2);
                }
            }
        }
    }

    #[test]
    fn every_fold_traces_one_exchange_pair() {
        let g = rmat_graph(8, 23);
        let run = bfs2d_run(
            &g,
            0,
            &Bfs2dConfig::flat(Grid2D::new(2, 2)).with_trace(true),
        );
        for t in &run.per_rank_trace {
            let count = |kind| t.spans.iter().filter(|s| s.kind == kind).count() as u32;
            assert_eq!(count(SpanKind::ExchangeStart), run.num_levels);
            assert_eq!(count(SpanKind::ExchangeWait), run.num_levels);
        }
    }

    #[test]
    fn traced_run_captures_phases_on_all_communicators() {
        let g = rmat_graph(8, 23);
        let run = bfs2d_run(
            &g,
            0,
            &Bfs2dConfig::flat(Grid2D::new(2, 2)).with_trace(true),
        );
        assert_eq!(run.per_rank_trace.len(), 4);
        use dmbfs_trace::{CollectiveTag, SpanKind};
        for (rank, t) in run.per_rank_trace.iter().enumerate() {
            assert_eq!(t.rank, rank);
            let count = |k| t.spans.iter().filter(|s| s.kind == k).count() as u32;
            assert_eq!(count(SpanKind::Search), 1);
            assert_eq!(count(SpanKind::Level), run.num_levels);
            assert_eq!(count(SpanKind::Transpose), run.num_levels);
            assert_eq!(count(SpanKind::ExpandPhase), run.num_levels);
            assert_eq!(count(SpanKind::SpMSV), run.num_levels);
            assert_eq!(count(SpanKind::FoldPhase), run.num_levels);
            assert_eq!(count(SpanKind::Mask), run.num_levels);
            // The shared level loop records its switch's decision: one
            // Direction span per level, pinned top-down.
            let directions: Vec<_> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Direction)
                .collect();
            assert_eq!(directions.len() as u32, run.num_levels);
            for s in &directions {
                assert_eq!(LevelDirection::from_tag(s.detail), LevelDirection::TopDown);
            }
            // Row/column collectives land in this rank's trace with the
            // sub-communicator's group size (√p = 2), tagged by level.
            let expand_collectives: Vec<_> = t
                .spans
                .iter()
                .filter(|s| {
                    s.kind == SpanKind::Collective && s.pattern == CollectiveTag::Allgatherv
                })
                .collect();
            assert_eq!(expand_collectives.len() as u32, run.num_levels);
            for s in &expand_collectives {
                assert_eq!(s.detail, 2, "expand runs on the column communicator");
                assert!(s.level >= 0, "collectives are tagged with their level");
            }
            // The setup collectives (splits, warm-up barrier) were cleared:
            // outside the levels there are only the timed region's barriers
            // and the search's one seed allreduce.
            let unlevelled = |tag| {
                t.spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Collective && s.level < 0 && s.pattern == tag)
                    .count()
            };
            assert_eq!(unlevelled(CollectiveTag::Allreduce), 1, "the seed");
            assert!(t.spans.iter().all(|s| s.kind != SpanKind::Collective
                || s.level >= 0
                || matches!(s.pattern, CollectiveTag::Barrier | CollectiveTag::Allreduce)));
        }
        // Untraced runs return placeholder traces with no spans.
        let run = bfs2d_run(&g, 0, &Bfs2dConfig::flat(Grid2D::new(2, 2)));
        assert!(run.per_rank_trace.iter().all(|t| t.spans.is_empty()));
    }

    #[test]
    fn single_cell_grid_equals_serial() {
        let g = rmat_graph(7, 29);
        let out = bfs2d(&g, 3, &Bfs2dConfig::flat(Grid2D::new(1, 1)));
        let expected = serial_bfs(&g, 3);
        assert_eq!(out.levels, expected.levels);
    }
}
