//! 1D vertex-partitioned distributed BFS — Algorithm 2 of the paper.
//!
//! Each process owns `n/p` vertices and their outgoing edges (§3.1). A
//! level expands by enumerating the adjacencies of the local frontier,
//! exchanging them with a single `Alltoallv`, and having each owner claim
//! the newly visited vertices. "The key aspects to note [...] is the
//! extraneous computation (and communication) introduced due to the
//! distributed graph scenario: creating the message buffers of cumulative
//! size O(m) and the All-to-all communication step."
//!
//! Those O(m) pairs are never materialised: the enumeration scatters into
//! a per-rank SelectMax accumulator (§4.2) keeping each target's max
//! parent, and the buffers are gathered from it, one pair per target.
//!
//! There is one level loop (`RankSearch::search`): per level a step — the
//! top-down exchange above, or a bottom-up bitmap allgather plus owner-side
//! scan — then one `[u64; 3]` allreduce that is both the termination test
//! and the input of the αβ [`DirectionSwitch`] shared with the serial
//! `crate::direction` code. A pure top-down run is that switch pinned.

use crate::direction::{DirectionConfig, DirectionSwitch};
use crate::distribute::{extract_1d, Local1d};
use crate::exchange::{exchange_pairs, Accumulator};
use crate::frontier_codec::{
    decode_set, encode_pairs, encode_set, merge_level_stats, Codec, LevelCodecStats,
};
use crate::{BfsOutput, UNREACHED};
use dmbfs_comm::{Comm, CommStats, LevelDirection, LevelTiming};
use dmbfs_graph::{CsrGraph, VertexId};
use dmbfs_runtime::{run_ranks, scatter_block};
use dmbfs_trace::{RankTrace, SpanKind};
use rayon::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Configuration of a 1D run — since the runtime refactor this *is* the
/// shared [`dmbfs_runtime::RunConfig`]; the historical name stays as an
/// alias because the 1D driver was its first user.
pub use dmbfs_runtime::RunConfig as Bfs1dConfig;

/// Everything a 1D run produces: the BFS tree plus per-rank measurements.
#[derive(Clone, Debug)]
pub struct Dist1dRun {
    /// Assembled global result.
    pub output: BfsOutput,
    /// Per-rank communication event streams (index = rank).
    pub per_rank_stats: Vec<CommStats>,
    /// Wall seconds of the timed BFS region (barrier-to-barrier, excluding
    /// graph distribution), as measured on rank 0.
    pub seconds: f64,
    /// Number of BFS levels executed.
    pub num_levels: u32,
    /// Per-level codec telemetry, merged across ranks: one entry per
    /// level.
    pub codec_levels: Vec<LevelCodecStats>,
    /// Per-rank span traces (index = rank); empty spans unless
    /// [`Bfs1dConfig::trace`] was set.
    pub per_rank_trace: Vec<RankTrace>,
    /// Per-rank collective-fingerprint sequences (index = rank); empty
    /// unless [`Bfs1dConfig::schedule_capture`] was set.
    pub per_rank_schedule: Vec<Vec<&'static str>>,
}

impl Dist1dRun {
    /// The per-level direction schedule, read from rank 0's level timings.
    /// Identical on every rank: the decision is a pure function of
    /// allreduced global counts.
    pub fn level_directions(&self) -> Vec<LevelDirection> {
        self.per_rank_stats
            .first()
            .map(|s| s.level_timings.iter().map(|t| t.direction).collect())
            .unwrap_or_default()
    }
}

/// Runs the 1D algorithm and returns the assembled result only.
///
/// # Examples
/// ```
/// use dmbfs_bfs::one_d::{bfs1d, Bfs1dConfig};
/// use dmbfs_bfs::serial::serial_bfs;
/// use dmbfs_graph::gen::grid2d;
/// use dmbfs_graph::CsrGraph;
///
/// let g = CsrGraph::from_edge_list(&grid2d(4, 4));
/// let distributed = bfs1d(&g, 0, &Bfs1dConfig::flat(4));
/// assert_eq!(distributed.levels(), serial_bfs(&g, 0).levels());
/// ```
pub fn bfs1d(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig) -> BfsOutput {
    bfs1d_run(g, source, cfg).output
}

/// Runs the 1D algorithm with full instrumentation.
pub fn bfs1d_run(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig) -> Dist1dRun {
    assert!(cfg.ranks > 0);
    assert!((source) < g.num_vertices(), "source out of range");
    let ranks = cfg.ranks;

    let run = run_ranks(cfg, |ctx| {
        let local = extract_1d(g, ranks, ctx.rank());
        let (levels, parents, num_levels, codec_levels) = ctx.timed(source, || {
            let state = RankSearch::new(ctx.comm(), &local, ctx.pool(), cfg);
            state.search(source)
        });
        (local.range.start, levels, parents, num_levels, codec_levels)
    });

    let mut output = BfsOutput::unreached(source, g.num_vertices() as usize);
    let mut per_rank_codec = Vec::with_capacity(ranks);
    let mut num_levels = 0;
    for (start, levels, parents, rank_levels, codec_levels) in run.per_rank {
        scatter_block(&mut output.levels, start, &levels);
        scatter_block(&mut output.parents, start, &parents);
        per_rank_codec.push(codec_levels);
        num_levels = num_levels.max(rank_levels);
    }
    Dist1dRun {
        output,
        per_rank_stats: run.per_rank_stats,
        seconds: run.seconds,
        num_levels,
        codec_levels: merge_level_stats(&per_rank_codec),
        per_rank_trace: run.per_rank_trace,
        per_rank_schedule: run.per_rank_schedule,
    }
}

/// One rank's share of a 1D search: its handles, the shared run
/// configuration, and the state the level steps read and update.
struct RankSearch<'a> {
    comm: &'a Comm,
    local: &'a Local1d<'a>,
    pool: Option<&'a rayon::ThreadPool>,
    cfg: &'a Bfs1dConfig,
    levels: Vec<AtomicI64>,
    parents: Vec<AtomicI64>,
    /// The top-down SelectMax accumulator, one slot per global vertex,
    /// keyed by the parent's local index.
    acc: Accumulator,
    codec_levels: Vec<LevelCodecStats>,
}

impl<'a> RankSearch<'a> {
    fn new(
        comm: &'a Comm,
        local: &'a Local1d<'a>,
        pool: Option<&'a rayon::ThreadPool>,
        cfg: &'a Bfs1dConfig,
    ) -> Self {
        let unreached = || (0..local.count()).map(|_| AtomicI64::new(UNREACHED));
        let domain = local.block.domain() as usize;
        Self {
            comm,
            local,
            pool,
            cfg,
            levels: unreached().collect(),
            parents: unreached().collect(),
            acc: Accumulator::new(domain, local.count(), cfg.sieve),
            codec_levels: Vec::new(),
        }
    }

    /// The per-rank level loop of Algorithm 2, with direction as a
    /// per-level step (Buluç–Beamer–Madduri, arXiv:1705.04590 §4 adapted to
    /// the 1D partition): each level runs either the top-down exchange of
    /// Algorithm 2 or a distributed bottom-up step, as
    /// [`DirectionSwitch`] decides.
    ///
    /// Every input of the switch (frontier size, frontier out-edges, edges
    /// examined) is a *global* count carried by the one `[u64; 3]`
    /// allreduce that also is the level's termination test, so all ranks
    /// compute the identical decision and the collective schedule stays
    /// symmetric with no extra broadcast — and identical to what the serial
    /// [`crate::direction::direction_optimizing_bfs`] decides from exact
    /// counts. `DirectionMode::TopDown` / `DirectionMode::BottomUp` pin the
    /// switch; the loop and its schedule do not change. Level arrays
    /// match the serial oracle; bottom-up parents are the first hit in CSR
    /// adjacency order, deterministic across rank counts.
    fn search(mut self, source: VertexId) -> (Vec<i64>, Vec<i64>, u32, Vec<LevelCodecStats>) {
        let (comm, local) = (self.comm, self.local);
        // Lines 4–7: the owner seeds the frontier.
        let mut frontier: Vec<VertexId> = Vec::new();
        if local.block.owner(source) == comm.rank() {
            let s = local.to_local(source);
            self.levels[s].store(0, Ordering::Relaxed);
            self.parents[s].store(source as i64, Ordering::Relaxed);
            frontier.push(source);
        }

        // The graph's global vertex count is identical on every rank even
        // though each rank holds a different block of it.
        // schedule: replicated
        let n_global = local.block.domain();
        // The direction mode is shared config, not rank state.
        // schedule: replicated
        let mode = self.cfg.direction;
        let add3 = |a: [u64; 3], b: [u64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
        let out_edges =
            |f: &[VertexId]| -> u64 { f.iter().map(|&u| local.neighbors(u).len() as u64).sum() };

        // Seed the switch: one allreduce folds the edge total and the
        // source frontier's size/out-edges together.
        let [total_edges, mut gfrontier, mut gfrontier_edges] = comm.allreduce(
            [
                local.num_local_edges() as u64,
                frontier.len() as u64,
                out_edges(&frontier),
            ],
            add3,
        );
        let mut switch =
            DirectionSwitch::new(mode, DirectionConfig::default(), n_global, total_edges);
        switch.observe(gfrontier, gfrontier_edges, 0);
        let mut level: i64 = 1;
        loop {
            comm.trace_enter_level(level - 1);
            let level_t = comm.trace_start();
            let level_start = Instant::now();
            let comm_before = comm.comm_wall();
            let direction = switch.decide(gfrontier, gfrontier_edges);
            let dir_t = comm.trace_start();
            comm.trace_span(SpanKind::Direction, dir_t, direction.tag());

            let (next, examined) = if direction == LevelDirection::BottomUp {
                self.bottom_up_level(&mut frontier, level)
            } else {
                // A top-down level examines every out-edge of the frontier
                // — exactly this rank's packed adjacencies.
                let examined = out_edges(&frontier);
                (self.top_down_level(&frontier, level), examined)
            };

            // Termination test + switch refresh in one collective: the next
            // frontier's global size and out-edges, and the level's
            // globally examined edges (for the adaptive backoff).
            let [gnext, gnext_edges, gexamined] =
                comm.allreduce([next.len() as u64, out_edges(&next), examined], add3);
            switch.observe(gnext, gnext_edges, gexamined);
            // Attribute the level's wall time: everything outside
            // collectives is local compute (pack, codec work, unpack, scan).
            let comm_spent = comm.comm_wall() - comm_before;
            comm.push_level_timing(LevelTiming {
                level: (level - 1) as u32,
                compute: level_start.elapsed().saturating_sub(comm_spent),
                comm: comm_spent,
                direction,
            });
            comm.trace_span(SpanKind::Level, level_t, frontier.len() as u64);
            if gnext == 0 {
                comm.trace_enter_level(dmbfs_trace::NO_LEVEL);
                break;
            }
            gfrontier = gnext;
            gfrontier_edges = gnext_edges;
            frontier = next;
            level += 1;
        }

        (
            self.levels.into_iter().map(AtomicI64::into_inner).collect(),
            self.parents
                .into_iter()
                .map(AtomicI64::into_inner)
                .collect(),
            level as u32,
            self.codec_levels,
        )
    }

    /// One top-down level (lines 13–28): scatter the frontier's adjacencies
    /// into the SelectMax accumulator, keeping each target's max parent (the
    /// tie-break of [`unpack_serial`]); gather it per destination in ascending
    /// id order, as [`encode_pairs`] wants, leaving sent targets sieved;
    /// exchange; claim. Flat and pooled ranks run the same two closures.
    /// Returns the next local frontier.
    fn top_down_level(&mut self, frontier: &[VertexId], level: i64) -> Vec<VertexId> {
        let (comm, local, acc, codec) = (self.comm, self.local, &self.acc, self.cfg.codec);
        let pack_t = comm.trace_start();
        // Parents are this rank's own contiguous block, so the max local
        // index is the max global id.
        let scatter = |&u: &VertexId| -> u64 {
            let slot = local.to_local(u) as u32 + 1;
            let hit = |&v: &VertexId| u64::from(acc.offer(v as usize, slot));
            local.neighbors(u).iter().map(hit).sum()
        };
        let gather = |j: usize| {
            let range = local.block.range(j);
            acc.drain(range.start as usize..range.end as usize, |v, slot| {
                (v as u64, local.to_global(slot as usize - 1))
            })
        };
        // The frontier is `unpack`'s output, ascending runs.
        let (sieve_hits, buckets) =
            acc.scatter_gather(comm, self.pool, frontier, comm.size(), scatter, gather);
        comm.trace_span(SpanKind::Pack, pack_t, frontier.len() as u64);

        let mut stats = LevelCodecStats {
            level: level as usize,
            sieve_hits,
            ..Default::default()
        };
        let recv = exchange_pairs(comm, self.pool, &mut stats, buckets, |j, pairs| {
            encode_pairs(pairs, local.block.range(j), codec)
        });
        self.codec_levels.push(stats);
        self.unpack(&recv, level)
    }

    /// One distributed bottom-up level. The rank's frontier slice (owned
    /// vertices at distance `level - 1`) travels as a [`Codec::Bitmap`]
    /// `encode_set` payload through one `allgatherv_wire`; the decoded
    /// slices form the global frontier bitmap, and the owner-side scan
    /// claims every locally-owned unvisited vertex whose adjacency hits the
    /// bitmap — first hit in CSR order, so parents are deterministic for
    /// any rank count. Returns the next local frontier and the number of
    /// edges examined.
    fn bottom_up_level(&mut self, frontier: &mut [VertexId], level: i64) -> (Vec<VertexId>, u64) {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        // The set encoder wants sorted-unique vertices; claims arrive once
        // per vertex, so sorting suffices.
        frontier.sort_unstable();
        let broadcast_t = comm.trace_start();
        let mine = encode_set(frontier, local.range.clone(), Codec::Bitmap);
        let mut stats = LevelCodecStats {
            level: level as usize,
            ..Default::default()
        };
        stats.note(&mine);
        self.codec_levels.push(stats);
        let slices = comm.allgatherv_wire(mine);
        // Assemble the global frontier bitmap (one bit per vertex of the
        // domain) from the decoded per-rank slices.
        let domain = local.block.domain() as usize;
        let mut bits = vec![0u64; domain.div_ceil(64)];
        let mut global_frontier = 0u64;
        for buf in &slices {
            for v in decode_set(buf.bytes()) {
                bits[(v / 64) as usize] |= 1 << (v % 64);
                global_frontier += 1;
            }
        }
        comm.trace_span(SpanKind::BitmapBroadcast, broadcast_t, global_frontier);

        // Owner-side scan: each unvisited owned vertex probes its adjacency
        // against the bitmap, exiting at the first hit. Rows are
        // independent (each claims only its own vertex), so the hybrid pool
        // splits the owned range with no synchronization beyond the atomic
        // stores.
        let scan_t = comm.trace_start();
        let in_frontier = |u: VertexId| bits[(u / 64) as usize] >> (u % 64) & 1 == 1;
        let scan_one = |i: usize, next: &mut Vec<VertexId>, examined: &mut u64| {
            if levels[i].load(Ordering::Relaxed) != UNREACHED {
                return;
            }
            let v = local.to_global(i);
            for &u in local.neighbors(v) {
                *examined += 1;
                if in_frontier(u) {
                    levels[i].store(level, Ordering::Relaxed);
                    parents[i].store(u as i64, Ordering::Relaxed);
                    next.push(v);
                    break;
                }
            }
        };
        let (next, examined) = match self.pool {
            Some(pool) => {
                let batch_t = comm.trace_start();
                let out = pool.install(|| {
                    (0..local.count())
                        .into_par_iter()
                        .with_min_len(64)
                        .fold(
                            || (Vec::new(), 0u64),
                            |(mut next, mut examined), i| {
                                scan_one(i, &mut next, &mut examined);
                                (next, examined)
                            },
                        )
                        .reduce(
                            || (Vec::new(), 0u64),
                            |(mut a, ae), (mut b, be)| {
                                a.append(&mut b);
                                (a, ae + be)
                            },
                        )
                });
                comm.trace_span(SpanKind::TaskBatch, batch_t, local.count() as u64);
                out
            }
            None => {
                let (mut next, mut examined) = (Vec::new(), 0u64);
                (0..local.count()).for_each(|i| scan_one(i, &mut next, &mut examined));
                (next, examined)
            }
        };
        comm.trace_span(SpanKind::BottomUpScan, scan_t, examined);
        (next, examined)
    }

    /// Lines 23–28: owners claim the newly visited vertices among `recv`,
    /// on the rank pool when there is one. Returns the vertices claimed.
    fn unpack(&self, recv: &[Vec<(u64, u64)>], level: i64) -> Vec<VertexId> {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        let unpack_t = comm.trace_start();
        let next = match self.pool {
            Some(pool) => {
                let received: u64 = recv.iter().map(|b| b.len() as u64).sum();
                let batch_t = comm.trace_start();
                let next = pool.install(|| unpack_parallel(local, recv, levels, parents, level));
                comm.trace_span(SpanKind::TaskBatch, batch_t, received);
                next
            }
            None => unpack_serial(local, recv, levels, parents, level),
        };
        comm.trace_span(SpanKind::Unpack, unpack_t, next.len() as u64);
        next
    }
}

/// Serial unpack: distance check and claim (lines 23–26).
///
/// The tie-break between same-level claims is canonical: the numerically
/// largest parent wins — the same `SelectMax` each sender's accumulator
/// already applied to its own candidates. That makes the final parent of
/// a vertex the max over *all* same-level candidates, independent of
/// arrival order and of sender-side sieving, which is what keeps the
/// parent trees bit-identical across every codec × sieve configuration.
/// The output is the received buckets concatenated in source-rank order,
/// each ascending — the order the next level's scatter walks backwards.
fn unpack_serial(
    local: &Local1d,
    recv: &[Vec<(u64, u64)>],
    levels: &[AtomicI64],
    parents: &[AtomicI64],
    level: i64,
) -> Vec<VertexId> {
    let mut next = Vec::new();
    for buf in recv {
        for &(v, parent) in buf {
            let i = local.to_local(v);
            let seen = levels[i].load(Ordering::Relaxed);
            if seen == UNREACHED {
                levels[i].store(level, Ordering::Relaxed);
                parents[i].store(parent as i64, Ordering::Relaxed);
                next.push(v);
            } else if seen == level {
                parents[i].fetch_max(parent as i64, Ordering::Relaxed);
            }
        }
    }
    next
}

/// Thread-parallel unpack with thread-local next stacks; CAS-claimed so a
/// vertex enters the next frontier exactly once. Applies the same
/// max-parent tie-break as [`unpack_serial`]: `fetch_max` is safe right
/// after a claim because any parent id is ≥ 0 > [`UNREACHED`].
fn unpack_parallel(
    local: &Local1d,
    recv: &[Vec<(u64, u64)>],
    levels: &[AtomicI64],
    parents: &[AtomicI64],
    level: i64,
) -> Vec<VertexId> {
    recv.par_iter()
        .flat_map_iter(|buf| buf.iter().copied())
        .fold(Vec::new, |mut next: Vec<VertexId>, (v, parent)| {
            let i = local.to_local(v);
            let seen = levels[i].load(Ordering::Relaxed);
            if seen == UNREACHED
                && levels[i]
                    .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                parents[i].fetch_max(parent as i64, Ordering::Relaxed);
                next.push(v);
            } else if levels[i].load(Ordering::Relaxed) == level {
                parents[i].fetch_max(parent as i64, Ordering::Relaxed);
            }
            next
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs;
    use dmbfs_comm::Pattern;
    use dmbfs_graph::gen::{grid2d, path, rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};
    use dmbfs_runtime::DirectionMode;

    fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(scale, seed));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn flat_matches_serial_on_grid() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 9));
        let expected = serial_bfs(&g, 0);
        for p in [1, 2, 3, 5, 8] {
            let out = bfs1d(&g, 0, &Bfs1dConfig::flat(p));
            assert_eq!(out.levels, expected.levels, "p = {p}");
        }
    }

    #[test]
    fn flat_matches_serial_on_rmat() {
        let g = rmat_graph(9, 4);
        let expected = serial_bfs(&g, 3);
        for p in [2, 4, 7] {
            let out = bfs1d(&g, 3, &Bfs1dConfig::flat(p));
            assert_eq!(out.levels, expected.levels, "p = {p}");
            validate_bfs(&g, 3, &out.parents, &out.levels).unwrap();
        }
    }

    #[test]
    fn hybrid_matches_serial() {
        let g = rmat_graph(9, 6);
        let expected = serial_bfs(&g, 1);
        let out = bfs1d(&g, 1, &Bfs1dConfig::hybrid(3, 2));
        assert_eq!(out.levels, expected.levels);
        validate_bfs(&g, 1, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn high_diameter_path_works() {
        let g = CsrGraph::from_edge_list(&path(40));
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(4));
        let expected: Vec<i64> = (0..40).collect();
        assert_eq!(out.levels, expected);
    }

    #[test]
    fn source_not_on_rank_zero() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 4));
        let expected = serial_bfs(&g, 15);
        let out = bfs1d(&g, 15, &Bfs1dConfig::flat(4));
        assert_eq!(out.levels, expected.levels);
    }

    #[test]
    fn disconnected_graph_terminates() {
        let el = EdgeList::new(8, vec![(0, 1), (1, 0), (6, 7), (7, 6)]);
        let g = CsrGraph::from_edge_list(&el);
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(3));
        assert_eq!(out.num_reached(), 2);
        assert_eq!(out.levels[6], UNREACHED);
    }

    #[test]
    fn run_reports_levels_and_alltoall_stats() {
        let g = rmat_graph(8, 2);
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4));
        assert_eq!(run.per_rank_stats.len(), 4);
        assert!(run.seconds > 0.0);
        assert!(run.num_levels >= 2);
        // Every rank performed one alltoallv per level.
        for stats in &run.per_rank_stats {
            let a2a = stats
                .events
                .iter()
                .filter(|e| e.pattern == Pattern::Alltoallv)
                .count();
            assert_eq!(a2a as u32, run.num_levels);
        }
    }

    #[test]
    fn traced_run_captures_levels_phases_and_collectives() {
        let g = rmat_graph(8, 2);
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4).with_trace(true));
        assert_eq!(run.per_rank_trace.len(), 4);
        for (rank, t) in run.per_rank_trace.iter().enumerate() {
            assert_eq!(t.rank, rank);
            assert_eq!(t.dropped, 0);
            let count = |k| t.spans.iter().filter(|s| s.kind == k).count() as u32;
            assert_eq!(count(SpanKind::Search), 1);
            assert_eq!(count(SpanKind::Level), run.num_levels);
            assert_eq!(count(SpanKind::Pack), run.num_levels);
            assert_eq!(count(SpanKind::Unpack), run.num_levels);
            assert_eq!(count(SpanKind::Encode), run.num_levels, "adaptive codec");
            assert!(count(SpanKind::Collective) > run.num_levels);
            // Each phase span nests inside its level's span.
            for s in t.spans.iter().filter(|s| s.kind == SpanKind::Pack) {
                let lvl = t
                    .spans
                    .iter()
                    .find(|l| l.kind == SpanKind::Level && l.level == s.level)
                    .expect("every pack has an enclosing level");
                assert!(lvl.start_ns <= s.start_ns && s.end_ns <= lvl.end_ns);
            }
        }
        // Untraced runs return placeholder traces with no spans.
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4));
        assert_eq!(run.per_rank_trace.len(), 4);
        assert!(run.per_rank_trace.iter().all(|t| t.spans.is_empty()));
    }

    #[test]
    fn single_rank_equals_serial() {
        let g = rmat_graph(8, 9);
        let out = bfs1d(&g, 5, &Bfs1dConfig::flat(1));
        let expected = serial_bfs(&g, 5);
        assert_eq!(out.levels, expected.levels);
        // With one rank, even parents must match exactly (deterministic
        // order).
        validate_bfs(&g, 5, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = CsrGraph::from_edge_list(&path(3));
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(6));
        assert_eq!(out.levels, vec![0, 1, 2]);
    }

    #[test]
    fn hybrid_direction_matches_serial_oracle_and_schedule() {
        let g = rmat_graph(11, 7);
        let expected = serial_bfs(&g, 0);
        let serial_dir = crate::direction::direction_optimizing_bfs(&g, 0);
        for p in [1, 3, 4] {
            let cfg = Bfs1dConfig::flat(p).with_direction(DirectionMode::Hybrid);
            let run = bfs1d_run(&g, 0, &cfg);
            assert_eq!(run.output.levels, expected.levels, "p = {p}");
            validate_bfs(&g, 0, &run.output.parents, &run.output.levels).unwrap();
            // The distributed heuristic consumes the same (now allreduced)
            // counts as the serial one, so the schedules must agree level
            // for level.
            let dirs = run.level_directions();
            let serial_dirs: Vec<LevelDirection> =
                serial_dir.steps.iter().map(|s| s.direction).collect();
            assert_eq!(dirs, serial_dirs, "p = {p}");
            assert!(
                dirs.contains(&LevelDirection::BottomUp),
                "R-MAT peak levels should trigger bottom-up: {dirs:?}"
            );
        }
    }

    #[test]
    fn forced_bottom_up_is_deterministic_across_rank_counts() {
        let g = rmat_graph(9, 4);
        let expected = serial_bfs(&g, 3);
        let baseline = bfs1d_run(
            &g,
            3,
            &Bfs1dConfig::flat(1).with_direction(DirectionMode::BottomUp),
        );
        assert_eq!(baseline.output.levels, expected.levels);
        validate_bfs(&g, 3, &baseline.output.parents, &baseline.output.levels).unwrap();
        assert!(baseline
            .level_directions()
            .iter()
            .all(|&d| d == LevelDirection::BottomUp));
        for p in [2, 5, 8] {
            let cfg = Bfs1dConfig::flat(p).with_direction(DirectionMode::BottomUp);
            let run = bfs1d_run(&g, 3, &cfg);
            // Bottom-up parents are the first hit in CSR adjacency order —
            // identical whatever the rank count.
            assert_eq!(run.output.parents, baseline.output.parents, "p = {p}");
            assert_eq!(run.output.levels, expected.levels, "p = {p}");
        }
        // The hybrid pool scans the same vertices with the same probe
        // order, so threading changes nothing either.
        let hybrid = bfs1d_run(
            &g,
            3,
            &Bfs1dConfig::hybrid(3, 2).with_direction(DirectionMode::BottomUp),
        );
        assert_eq!(hybrid.output.parents, baseline.output.parents);
    }

    #[test]
    fn hybrid_levels_tag_directions_in_timings_and_trace() {
        let g = rmat_graph(10, 7);
        let cfg = Bfs1dConfig::flat(4)
            .with_direction(DirectionMode::Hybrid)
            .with_trace(true);
        let run = bfs1d_run(&g, 0, &cfg);
        let dirs = run.level_directions();
        assert_eq!(dirs.len() as u32, run.num_levels);
        assert!(dirs.contains(&LevelDirection::BottomUp));
        // Every rank records the identical schedule.
        for stats in &run.per_rank_stats {
            let rank_dirs: Vec<LevelDirection> =
                stats.level_timings.iter().map(|t| t.direction).collect();
            assert_eq!(rank_dirs, dirs);
        }
        for t in &run.per_rank_trace {
            // One Direction span per level, detail = the direction tag.
            let spans: Vec<_> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Direction)
                .collect();
            assert_eq!(spans.len() as u32, run.num_levels);
            for s in &spans {
                assert_eq!(
                    LevelDirection::from_tag(s.detail),
                    dirs[s.level as usize],
                    "trace tag matches the recorded schedule"
                );
            }
            // Bottom-up levels carry the broadcast + scan phase spans.
            let bu_levels = dirs
                .iter()
                .filter(|&&d| d == LevelDirection::BottomUp)
                .count();
            let count = |k| t.spans.iter().filter(|s| s.kind == k).count();
            assert_eq!(count(SpanKind::BitmapBroadcast), bu_levels);
            assert_eq!(count(SpanKind::BottomUpScan), bu_levels);
        }
    }

    #[test]
    fn hybrid_composes_with_codec_and_sieve() {
        let g = rmat_graph(9, 11);
        let expected = serial_bfs(&g, 2);
        for codec in [Codec::Raw, Codec::Adaptive] {
            for sieve in [false, true] {
                let cfg = Bfs1dConfig::flat(4)
                    .with_direction(DirectionMode::Hybrid)
                    .with_codec(codec)
                    .with_sieve(sieve);
                let run = bfs1d_run(&g, 2, &cfg);
                assert_eq!(
                    run.output.levels, expected.levels,
                    "codec {codec:?}, sieve {sieve}"
                );
                validate_bfs(&g, 2, &run.output.parents, &run.output.levels).unwrap();
            }
        }
    }

    #[test]
    fn every_level_records_one_exchange_pair() {
        let g = rmat_graph(8, 2);
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4).with_trace(true));
        for t in &run.per_rank_trace {
            let count = |kind| t.spans.iter().filter(|s| s.kind == kind).count() as u32;
            assert_eq!(count(SpanKind::ExchangeStart), run.num_levels);
            assert_eq!(count(SpanKind::ExchangeWait), run.num_levels);
            assert_eq!(
                count(SpanKind::Exchange),
                0,
                "no driver emits a typed `Exchange` span"
            );
        }
        // Each rank records one alltoallv-pattern event per level.
        for stats in &run.per_rank_stats {
            let a2a = stats
                .events
                .iter()
                .filter(|e| e.pattern == Pattern::Alltoallv)
                .count() as u32;
            assert_eq!(a2a, run.num_levels);
        }
    }
}
