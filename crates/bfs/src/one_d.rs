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
//! The level loop is the one both distributed drivers run
//! (`crate::direction::level_loop`): per level a step — here the top-down
//! exchange above, or a bottom-up bitmap allgather plus owner-side scan —
//! then one `[u64; 3]` allreduce that is both the termination test and the
//! input of the αβ [`crate::direction::DirectionSwitch`] shared with the
//! serial code. A pure top-down run is that switch pinned.

use crate::direction::level_loop;
use crate::distribute::{extract_1d, Local1d};
use crate::exchange::{exchange_pairs, part_count, run_parts, Accumulator};
use crate::frontier_codec::{
    decode_set_into, encode_pairs, encode_set, merge_level_stats, Codec, LevelCodecStats,
};
use crate::{BfsOutput, UNREACHED};
use dmbfs_comm::{Comm, CommStats, LevelDirection};
use dmbfs_graph::{CsrGraph, VertexId};
use dmbfs_runtime::{run_ranks, scatter_block};
use dmbfs_trace::{RankTrace, SpanKind};
use rayon::ThreadPool;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

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
    /// Per-rank collective-fingerprint sequences of the whole run (index
    /// = rank).
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
    pool: &'a ThreadPool,
    cfg: &'a Bfs1dConfig,
    levels: Vec<AtomicI64>,
    parents: Vec<AtomicI64>,
    /// The top-down SelectMax accumulator, one slot per global vertex,
    /// keyed by the parent's local index.
    acc: Accumulator,
    codec_levels: Vec<LevelCodecStats>,
    /// The bottom-up step's global frontier bitmap, bit `v % 64` of word
    /// `v / 64` for every vertex of the domain. Sized on the first
    /// bottom-up level and cleared on each one.
    frontier_words: Vec<u64>,
    /// One bit per owned vertex (by local index) not yet reached that has
    /// an adjacency to probe — an isolated vertex is never claimed, so it
    /// is never walked. Sized on the first bottom-up level; rebuilt from
    /// `levels` on a bottom-up level that follows a top-down one, whose
    /// claims do not clear it.
    unvisited: Vec<u64>,
    /// The last bottom-up level, through which `unvisited` is current.
    unvisited_through: Option<i64>,
}

impl<'a> RankSearch<'a> {
    fn new(
        comm: &'a Comm,
        local: &'a Local1d<'a>,
        pool: &'a ThreadPool,
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
            acc: Accumulator::new(domain, local.count()),
            codec_levels: Vec::new(),
            frontier_words: Vec::new(),
            unvisited: Vec::new(),
            unvisited_through: None,
        }
    }

    /// Algorithm 2 as the step of the shared [`level_loop`]: each level
    /// runs either the top-down exchange or a distributed bottom-up step,
    /// as the αβ switch decides from allreduced global counts.
    /// `DirectionMode::TopDown` / `DirectionMode::BottomUp` pin the switch;
    /// the loop and its schedule do not change. Level arrays match the
    /// serial oracle; bottom-up parents are the first hit in CSR adjacency
    /// order, deterministic across rank counts.
    fn search(mut self, source: VertexId) -> (Vec<i64>, Vec<i64>, u32, Vec<LevelCodecStats>) {
        let (comm, local) = (self.comm, self.local);
        // Lines 4–7: the owner seeds the frontier.
        let mut frontier: Vec<VertexId> = Vec::new();
        if local.range.contains(&source) {
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
        let out_edges =
            |f: &[VertexId]| -> u64 { f.iter().map(|&u| local.neighbors(u).len() as u64).sum() };
        let num_levels = level_loop(
            &[comm],
            mode,
            n_global,
            local.num_local_edges() as u64,
            frontier,
            out_edges,
            |direction, frontier, level, frontier_edges| match direction {
                LevelDirection::BottomUp => self.bottom_up_level(frontier, level),
                // A top-down level examines every out-edge of the frontier
                // — exactly this rank's packed adjacencies.
                LevelDirection::TopDown => (self.top_down_level(frontier, level), frontier_edges),
            },
        );
        let into_vec = |v: Vec<AtomicI64>| v.into_iter().map(AtomicI64::into_inner).collect();
        (
            into_vec(self.levels),
            into_vec(self.parents),
            num_levels,
            self.codec_levels,
        )
    }

    /// One top-down level (lines 13–28): scatter the frontier's adjacencies
    /// into the SelectMax accumulator, keeping each target's max parent (the
    /// tie-break of [`RankSearch::unpack`]); gather it per destination in
    /// ascending id order, as [`encode_pairs`] wants, leaving sent targets
    /// sieved; exchange; claim. Returns the next local frontier.
    fn top_down_level(&mut self, frontier: &[VertexId], level: i64) -> Vec<VertexId> {
        let (comm, local, acc) = (self.comm, self.local, &self.acc);
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
            encode_pairs(pairs, local.block.range(j), Codec::Adaptive)
        });
        self.codec_levels.push(stats);
        self.unpack(&recv, level)
    }

    /// One distributed bottom-up level. The rank's frontier slice (owned
    /// vertices at distance `level - 1`) travels as a [`Codec::Bitmap`]
    /// `encode_set` payload through one `allgatherv_wire`; every slice is
    /// ORed into the global frontier words, and the owner-side scan claims
    /// every locally-owned unvisited vertex whose adjacency hits them —
    /// first hit in CSR order, so parents are deterministic for any rank
    /// count. Returns the next local frontier and the number of edges
    /// examined.
    fn bottom_up_level(&mut self, frontier: &mut [VertexId], level: i64) -> (Vec<VertexId>, u64) {
        let (comm, local) = (self.comm, self.local);
        // The set encoder wants sorted-unique vertices. A bottom-up level
        // claims in ascending order, but after a top-down level on p ≥ 2
        // `unpack` returns one ascending run per received bucket.
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
        let words = &mut self.frontier_words;
        words.resize(local.block.domain().div_ceil(64) as usize, 0);
        words.fill(0);
        let global_frontier: u64 = slices
            .iter()
            .map(|buf| decode_set_into(buf.bytes(), words))
            .sum();
        comm.trace_span(SpanKind::BitmapBroadcast, broadcast_t, global_frontier);

        // Owner-side scan: walk the unvisited words by trailing zeros; each
        // unvisited vertex probes its adjacency against the frontier words,
        // exiting at the first hit, and a claim clears its bit. Words are
        // independent (each claims only its own vertices), so the parts
        // split `unvisited` by whole words with no synchronization beyond
        // the atomic stores.
        let scan_t = comm.trace_start();
        let rebuild = self.unvisited_through != Some(level - 1);
        self.unvisited_through = Some(level);
        self.unvisited.resize(local.count().div_ceil(64), 0);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        let words = &self.frontier_words[..];
        let in_frontier = |u: VertexId| words[(u / 64) as usize] >> (u % 64) & 1 == 1;
        let examined = AtomicU64::new(0);
        let len = self.unvisited.len().div_ceil(part_count(self.pool)).max(1);
        // Scans part `k` of the words, the first of which is word `k * len`.
        let scan = |(k, chunk): (usize, &mut [u64])| {
            let (mut next, mut probes) = (Vec::new(), 0u64);
            for (w, word) in (k * len..).zip(chunk) {
                let owned = &levels[64 * w..levels.len().min(64 * w + 64)];
                if rebuild {
                    let degrees = local.offsets[64 * w..].windows(2).map(|o| o[1] != o[0]);
                    *word = owned
                        .iter()
                        .zip(degrees)
                        .enumerate()
                        .fold(0, |acc, (j, (l, d))| {
                            acc | u64::from((l.load(Ordering::Relaxed) == UNREACHED) & d) << j
                        });
                }
                let mut rest = *word;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let i = 64 * w + j;
                    let v = local.to_global(i);
                    for &u in local.neighbors(v) {
                        probes += 1;
                        if in_frontier(u) {
                            owned[j].store(level, Ordering::Relaxed);
                            parents[i].store(u as i64, Ordering::Relaxed);
                            *word &= !(1 << j);
                            next.push(v);
                            break;
                        }
                    }
                }
            }
            examined.fetch_add(probes, Ordering::Relaxed);
            next
        };
        let parts = self.unvisited.chunks_mut(len).enumerate();
        let Joined(next) = run_parts(comm, self.pool, local.count() as u64, parts, scan);
        let examined = examined.into_inner();
        comm.trace_span(SpanKind::BottomUpScan, scan_t, examined);
        (next, examined)
    }

    /// Lines 23–28: owners claim the newly visited vertices among `recv`.
    ///
    /// Every received bucket ascends by target, so two `partition_point`s
    /// find an owned range's sub-slice of it, and each target is claimed
    /// by the one task of its range with plain loads and stores. The
    /// tie-break between same-level claims is canonical: the numerically
    /// largest parent wins — the same `SelectMax` each sender's accumulator
    /// already applied to its own candidates. That makes the final parent
    /// of a vertex the max over *all* same-level candidates, independent of
    /// arrival order and of the sender-side sieve, which is what keeps the
    /// parent trees bit-identical across rank counts and threading.
    /// Returns the vertices claimed in ascending runs — the order the next
    /// level's scatter walks backwards.
    fn unpack<'b>(&self, recv: &'b [Vec<(u64, u64)>], level: i64) -> Vec<VertexId> {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        let unpack_t = comm.trace_start();
        debug_assert!(recv.iter().all(|b| b.is_sorted_by_key(|&(v, _)| v)));
        let claim = |owned: Range<u64>| {
            let part = |buf: &'b [(u64, u64)]| {
                let lo = buf.partition_point(|&(v, _)| v < owned.start);
                &buf[lo..lo + buf[lo..].partition_point(|&(v, _)| v < owned.end)]
            };
            // A range claims each of its targets at most once.
            let bound = recv.iter().map(|b| part(b).len() as u64).sum::<u64>();
            let mut next = Vec::with_capacity(bound.min(owned.end - owned.start) as usize);
            for buf in recv {
                for &(v, parent) in part(buf) {
                    let (i, parent) = (local.to_local(v), parent as i64);
                    let seen = levels[i].load(Ordering::Relaxed);
                    if seen == UNREACHED {
                        levels[i].store(level, Ordering::Relaxed);
                        parents[i].store(parent, Ordering::Relaxed);
                        next.push(v);
                    } else if seen == level && parents[i].load(Ordering::Relaxed) < parent {
                        parents[i].store(parent, Ordering::Relaxed);
                    }
                }
            }
            next
        };
        let received = recv.iter().map(|b| b.len() as u64).sum();
        let parts = part_count(self.pool) as u64;
        let len = (local.count() as u64).div_ceil(parts).max(1);
        let (start, end) = (local.range.start, local.range.end);
        let claim_part =
            |k: u64| claim((start + k * len).min(end)..(start + (k + 1) * len).min(end));
        let Joined(next) = run_parts(comm, self.pool, received, 0..parts, claim_part);
        comm.trace_span(SpanKind::Unpack, unpack_t, next.len() as u64);
        next
    }
}

/// The parts' vertices joined in part order. A lone part is moved, not
/// copied, so a flat rank allocates nothing to join; more parts grow the
/// first one once.
struct Joined(Vec<VertexId>);

impl FromIterator<Vec<VertexId>> for Joined {
    fn from_iter<I: IntoIterator<Item = Vec<VertexId>>>(parts: I) -> Self {
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        let rest: Vec<Vec<VertexId>> = parts.collect();
        all.reserve(rest.iter().map(Vec::len).sum());
        rest.into_iter().for_each(|part| all.extend(part));
        Joined(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs;
    use dmbfs_comm::CollectiveTag;
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
                .filter(|e| e.pattern == CollectiveTag::Alltoallv)
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
                .filter(|e| e.pattern == CollectiveTag::Alltoallv)
                .count() as u32;
            assert_eq!(a2a, run.num_levels);
        }
    }
}
