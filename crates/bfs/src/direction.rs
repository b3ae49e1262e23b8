//! Direction-optimizing BFS (top-down / bottom-up hybrid).
//!
//! The successor optimization to this paper's level-synchronous designs
//! (Beamer, Asanović & Patterson, SC'12 — published the year after, and
//! since folded into every serious Graph 500 entry): when the frontier is
//! large, it is cheaper to iterate over *unvisited* vertices and probe
//! whether any neighbor is in the frontier ("bottom-up", exiting at the
//! first hit) than to expand every frontier edge ("top-down"). On
//! low-diameter skewed graphs — exactly the paper's R-MAT instances, where
//! one or two levels contain most vertices — this skips the vast majority
//! of edge examinations.
//!
//! The implementation follows the published heuristic: switch top-down →
//! bottom-up when the frontier's out-edge count exceeds `1/alpha` of the
//! unexplored edges, and back when the frontier shrinks below `n/beta`.
//! The rules live once, in [`DirectionSwitch`]: the serial traversal here
//! feeds it exact counts, and the one distributed level loop beside it
//! (`level_loop`, run by both `crate::one_d` and `crate::two_d`) feeds it
//! the same counts allreduced, so all take the same per-level decisions.
//! [`DirectionOptOutput::edges_examined`] exposes the examined-edge counts
//! so the saving is measurable deterministically (the tests below assert
//! it on R-MAT and on community chains) — on a single-core host,
//! wall-clock alone would be noise.

use crate::{BfsOutput, UNREACHED};
use dmbfs_comm::{Comm, LevelTiming};
use dmbfs_graph::{CsrGraph, VertexId};
use dmbfs_runtime::DirectionMode;
use dmbfs_trace::SpanKind;
use std::time::{Duration, Instant};

/// Traversal direction of one level — the tag the distributed drivers
/// record in their level timings.
pub use dmbfs_comm::LevelDirection as Direction;

/// Tuning knobs of the direction heuristic (defaults from the SC'12 paper).
#[derive(Clone, Copy, Debug)]
pub struct DirectionConfig {
    /// Switch to bottom-up when `frontier out-edges > unexplored edges / alpha`.
    pub alpha: u64,
    /// Switch back to top-down when `|frontier| < n / beta`.
    pub beta: u64,
}

impl Default for DirectionConfig {
    fn default() -> Self {
        Self {
            alpha: 14,
            beta: 24,
        }
    }
}

/// Output of a direction-optimizing run: the BFS tree plus the work
/// accounting that justifies the optimization.
#[derive(Clone, Debug)]
pub struct DirectionOptOutput {
    /// The traversal result (levels agree with any other BFS).
    pub output: BfsOutput,
    /// Edges examined per level, tagged with the direction used.
    pub steps: Vec<LevelStep>,
    /// Total edges examined (compare with `2m` for pure top-down on the
    /// traversed component).
    pub edges_examined: u64,
}

/// One level's direction decision and cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelStep {
    /// Level number (1-based; level 0 is the source).
    pub level: u32,
    /// Direction executed.
    pub direction: Direction,
    /// Frontier size entering the level.
    pub frontier: u64,
    /// Edges examined during the level.
    pub edges_examined: u64,
}

/// The per-level αβ direction switch: five counters and three rules
/// (enter bottom-up, leave it, back off after a losing round).
///
/// Every input is a *global* count, so any party that feeds it the same
/// numbers — the serial loop below, or each rank of the 1D driver after
/// its per-level allreduce — reaches the same decision with no further
/// communication. [`DirectionMode::TopDown`] and [`DirectionMode::BottomUp`]
/// are the switch pinned: [`DirectionSwitch::decide`] returns the one
/// direction whatever is observed.
#[derive(Clone, Debug, Default)]
pub struct DirectionSwitch {
    mode: DirectionMode,
    cfg: DirectionConfig,
    /// Vertices and stored adjacencies of the whole graph.
    n: u64,
    total_edges: u64,
    /// The direction of the level in flight.
    direction: Direction,
    /// Adaptive backoff: each bottom-up round that loses (examines more
    /// edges than the top-down estimate it displaced) raises the bar for
    /// re-entry exponentially. On the low-diameter graphs the optimization
    /// targets, bottom-up wins immediately and the backoff never engages;
    /// on adversarial community-chained graphs it caps the damage at one
    /// exploratory round per backoff step. Floored at 1 (the hardest legal
    /// threshold): repeated losses must never drive the divisor to 0, which
    /// would silently disable bottom-up for the rest of the traversal even
    /// when a frontier's edges outnumber everything unexplored.
    alpha_eff: u64,
    prev_frontier: u64,
    explored_edges: u64,
    reached: u64,
    /// Out-edges of the frontier the last [`DirectionSwitch::decide`] saw:
    /// the top-down cost estimate a bottom-up round has to beat.
    frontier_edges: u64,
}

impl DirectionSwitch {
    /// A switch over a graph of `n` vertices and `total_edges` stored
    /// adjacencies, with nothing reached yet: seed it by observing the
    /// source frontier (`observe(1, degree(source), 0)`).
    pub fn new(mode: DirectionMode, cfg: DirectionConfig, n: u64, total_edges: u64) -> Self {
        Self {
            mode,
            cfg,
            n,
            total_edges,
            alpha_eff: cfg.alpha.max(1),
            ..Self::default()
        }
    }

    /// The direction of the level a frontier of `frontier` vertices with
    /// `frontier_edges` out-edges is about to expand.
    pub fn decide(&mut self, frontier: u64, frontier_edges: u64) -> Direction {
        let unexplored = self.total_edges.saturating_sub(self.explored_edges);
        // As in the SC'12 formulation, entering additionally requires a
        // *growing* frontier — a shrinking frontier near the end of the
        // traversal never justifies scanning all unvisited vertices (this
        // keeps high-diameter chains top-down) — and, since a bottom-up
        // round costs at least one probe per unvisited vertex, it must beat
        // the top-down cost estimate outright: without that guard,
        // community-structured high-diameter graphs (each community briefly
        // presenting a "large" local frontier) thrash into wasteful
        // whole-graph scans.
        let enter = || {
            self.cfg.alpha > 0
                && frontier > self.prev_frontier
                && frontier_edges > unexplored / self.alpha_eff
                && self.n - self.reached < frontier_edges
        };
        let leave = || self.cfg.beta > 0 && frontier * self.cfg.beta < self.n;
        self.direction = match (self.mode, self.direction) {
            (DirectionMode::TopDown, _) => Direction::TopDown,
            (DirectionMode::BottomUp, _) => Direction::BottomUp,
            (DirectionMode::Hybrid, Direction::TopDown) if enter() => Direction::BottomUp,
            (DirectionMode::Hybrid, Direction::BottomUp) if leave() => Direction::TopDown,
            (DirectionMode::Hybrid, unchanged) => unchanged,
        };
        self.prev_frontier = frontier;
        self.frontier_edges = frontier_edges;
        self.direction
    }

    /// Accounts a finished level: it reached `next` new vertices with
    /// `next_edges` out-edges and examined `examined` edges doing so. A
    /// bottom-up round that examined more than the top-down estimate lost:
    /// `alpha_eff` shrinks so the entry condition (`m_f > m_unexplored /
    /// alpha`) becomes much harder to satisfy — the floor keeps
    /// `frontier_edges > unexplored` as the re-entry condition of last
    /// resort — and the next level falls back to top-down.
    pub fn observe(&mut self, next: u64, next_edges: u64, examined: u64) {
        self.explored_edges += next_edges;
        self.reached += next;
        if self.direction == Direction::BottomUp && examined > self.frontier_edges {
            self.alpha_eff = (self.alpha_eff / 8).max(1);
            self.direction = Direction::TopDown;
        }
    }
}

/// The level loop of both distributed drivers (Algorithms 2 and 3, with
/// direction per level as in Buluç–Beamer–Madduri, arXiv:1705.04590).
/// Per level, `step(direction, frontier, level)` expands this rank's
/// frontier and returns the next one and the edges it examined; then one
/// `[u64; 3]` allreduce on `comms[0]` (next frontier size and out-edges,
/// edges examined) is both the termination test and the switch's input.
/// A seed allreduce of the same shape carries the edge total and the
/// source frontier. All inputs are global counts, so every rank takes the
/// serial [`direction_optimizing_bfs`]'s decision with no broadcast; a
/// switch pinned top-down reads none of them, so its driver may pass
/// zero edge counts. A level's time splits into compute and the
/// collective time of `comms`.
/// Returns the number of levels run.
pub(crate) fn level_loop(
    comms: &[&Comm],
    mode: DirectionMode,
    n: u64,
    local_edges: u64,
    mut frontier: Vec<VertexId>,
    out_edges: impl Fn(&[VertexId]) -> u64,
    mut step: impl FnMut(Direction, &mut Vec<VertexId>, i64) -> (Vec<VertexId>, u64),
) -> u32 {
    let comm = comms[0];
    let comm_wall = || comms.iter().map(|c| c.comm_wall()).sum::<Duration>();
    let add3 = |a: [u64; 3], b: [u64; 3]| [a[0] + b[0], a[1] + b[1], a[2] + b[2]];
    let seed = [local_edges, frontier.len() as u64, out_edges(&frontier)];
    let [total_edges, mut gfrontier, mut gfrontier_edges] = comm.allreduce(seed, add3);
    let mut switch = DirectionSwitch::new(mode, DirectionConfig::default(), n, total_edges);
    switch.observe(gfrontier, gfrontier_edges, 0);
    let mut level: i64 = 1;
    loop {
        comm.trace_enter_level(level - 1);
        let level_t = comm.trace_start();
        let level_start = Instant::now();
        let comm_before = comm_wall();
        let direction = switch.decide(gfrontier, gfrontier_edges);
        let dir_t = comm.trace_start();
        comm.trace_span(SpanKind::Direction, dir_t, direction.tag());

        let (next, examined) = step(direction, &mut frontier, level);

        let mine = [next.len() as u64, out_edges(&next), examined];
        let [gnext, gnext_edges, gexamined] = comm.allreduce(mine, add3);
        switch.observe(gnext, gnext_edges, gexamined);
        let comm_spent = comm_wall().saturating_sub(comm_before);
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
    level as u32
}

/// Runs direction-optimizing BFS with default heuristics.
pub fn direction_optimizing_bfs(g: &CsrGraph, source: VertexId) -> DirectionOptOutput {
    direction_optimizing_bfs_with(g, source, &DirectionConfig::default())
}

/// Runs direction-optimizing BFS with explicit heuristics.
pub fn direction_optimizing_bfs_with(
    g: &CsrGraph,
    source: VertexId,
    cfg: &DirectionConfig,
) -> DirectionOptOutput {
    let n = g.num_vertices() as usize;
    assert!((source as usize) < n, "source out of range");
    let mut out = BfsOutput::unreached(source, n);
    out.levels[source as usize] = 0;
    out.parents[source as usize] = source as i64;

    let mut frontier: Vec<VertexId> = vec![source];
    let mut in_frontier = vec![false; n];
    in_frontier[source as usize] = true;

    let mut switch = DirectionSwitch::new(DirectionMode::Hybrid, *cfg, n as u64, g.num_edges());
    let mut frontier_edges = g.degree(source) as u64;
    switch.observe(1, frontier_edges, 0);
    let mut steps: Vec<LevelStep> = Vec::new();
    let mut total_examined: u64 = 0;
    let mut level: i64 = 1;

    while !frontier.is_empty() {
        let direction = switch.decide(frontier.len() as u64, frontier_edges);
        let mut examined: u64 = 0;
        let mut next: Vec<VertexId> = Vec::new();
        if direction == Direction::BottomUp {
            // Bottom-up: every unvisited vertex probes its neighbors for a
            // frontier member, exiting at the first hit.
            for v in 0..n as u64 {
                if out.levels[v as usize] != UNREACHED {
                    continue;
                }
                for &u in g.neighbors(v) {
                    examined += 1;
                    if in_frontier[u as usize] {
                        out.levels[v as usize] = level;
                        out.parents[v as usize] = u as i64;
                        next.push(v);
                        break;
                    }
                }
            }
        } else {
            // Top-down: Algorithm 1.
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    examined += 1;
                    if out.levels[v as usize] == UNREACHED {
                        out.levels[v as usize] = level;
                        out.parents[v as usize] = u as i64;
                        next.push(v);
                    }
                }
            }
        }

        steps.push(LevelStep {
            level: level as u32,
            direction,
            frontier: frontier.len() as u64,
            edges_examined: examined,
        });
        total_examined += examined;
        frontier_edges = next.iter().map(|&v| g.degree(v) as u64).sum();
        switch.observe(next.len() as u64, frontier_edges, examined);

        for &u in &frontier {
            in_frontier[u as usize] = false;
        }
        for &v in &next {
            in_frontier[v as usize] = true;
        }
        frontier = next;
        level += 1;
    }

    DirectionOptOutput {
        output: out,
        steps,
        edges_examined: total_examined,
    }
}

/// Edges a pure top-down traversal examines: every stored adjacency of
/// every reached vertex (the baseline for the saving).
pub fn top_down_examinations(g: &CsrGraph, out: &BfsOutput) -> u64 {
    crate::serial::traversed_adjacencies(g, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs;
    use dmbfs_graph::gen::{grid2d, path, rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};

    fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(scale, seed));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn matches_serial_on_rmat() {
        let g = rmat_graph(10, 3);
        let expected = serial_bfs(&g, 0);
        let got = direction_optimizing_bfs(&g, 0);
        assert_eq!(got.output.levels, expected.levels);
        validate_bfs(&g, 0, &got.output.parents, got.output.levels()).unwrap();
    }

    #[test]
    fn matches_serial_on_structured_graphs() {
        for (name, el) in [("path", path(50)), ("grid", grid2d(9, 9))] {
            let g = CsrGraph::from_edge_list(&el);
            let expected = serial_bfs(&g, 0);
            let got = direction_optimizing_bfs(&g, 0);
            assert_eq!(got.output.levels, expected.levels, "{name}");
        }
    }

    #[test]
    fn uses_bottom_up_on_skewed_low_diameter_graphs() {
        let g = rmat_graph(11, 7);
        let got = direction_optimizing_bfs(&g, 0);
        assert!(
            got.steps.iter().any(|s| s.direction == Direction::BottomUp),
            "R-MAT peak levels should trigger bottom-up: {:?}",
            got.steps
        );
    }

    #[test]
    fn saves_edge_examinations_on_rmat() {
        let g = rmat_graph(12, 9);
        let got = direction_optimizing_bfs(&g, 0);
        let baseline = top_down_examinations(&g, &got.output);
        assert!(
            got.edges_examined * 2 < baseline,
            "direction optimization should at least halve examinations: {} vs {}",
            got.edges_examined,
            baseline
        );
    }

    #[test]
    fn stays_top_down_on_high_diameter_graphs() {
        // A path never reaches the bottom-up threshold.
        let g = CsrGraph::from_edge_list(&path(200));
        let got = direction_optimizing_bfs(&g, 0);
        assert!(got.steps.iter().all(|s| s.direction == Direction::TopDown));
    }

    #[test]
    fn forced_bottom_up_still_correct() {
        // alpha = 1 forces bottom-up almost immediately; beta = 0 disables
        // switching back.
        let g = rmat_graph(9, 5);
        let cfg = DirectionConfig { alpha: 1, beta: 0 };
        let got = direction_optimizing_bfs_with(&g, 0, &cfg);
        assert_eq!(got.output.levels, serial_bfs(&g, 0).levels);
    }

    #[test]
    fn backoff_bounds_overhead_on_community_chains() {
        // A chained-community graph defeats the a-priori heuristic (most
        // frontier edges point backward); the adaptive backoff must cap
        // the extra work at a small factor.
        let mut el = dmbfs_graph::gen::webcrawl(&dmbfs_graph::gen::WebCrawlConfig {
            num_communities: 20,
            community_size: 80,
            intra_degree: 10,
            bridges: 2,
            seed: 3,
        });
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let run = direction_optimizing_bfs(&g, 0);
        let baseline = top_down_examinations(&g, &run.output);
        assert!(
            run.edges_examined < baseline + baseline / 3,
            "overhead must stay bounded: {} vs baseline {}",
            run.edges_examined,
            baseline
        );
        assert_eq!(run.output.levels, serial_bfs(&g, 0).levels);
    }

    #[test]
    fn backoff_floors_alpha_and_allows_reentry() {
        // Regression for the `alpha_eff /= 8` underflow: with a huge alpha
        // every community boundary fires a losing bottom-up round and a
        // backoff. Enough communities drive an unfloored divisor through
        // u64::MAX / 8^22 to 0, which would make the switch condition
        // `frontier_edges > unexplored / 0` unsatisfiable (panic or, with
        // a max(1) bandage at the use site, a silently frozen threshold).
        // With the floor the divisor bottoms out at 1 and the traversal
        // both stays correct and keeps re-entering bottom-up.
        let mut el = dmbfs_graph::gen::webcrawl(&dmbfs_graph::gen::WebCrawlConfig {
            num_communities: 30,
            community_size: 60,
            intra_degree: 12,
            bridges: 2,
            seed: 8,
        });
        el.canonicalize_undirected();
        let g = CsrGraph::from_edge_list(&el);
        let cfg = DirectionConfig {
            alpha: u64::MAX,
            beta: 24,
        };
        let run = direction_optimizing_bfs_with(&g, 0, &cfg);
        assert_eq!(run.output.levels, serial_bfs(&g, 0).levels);
        let bottom_up_rounds = run
            .steps
            .iter()
            .filter(|s| s.direction == Direction::BottomUp)
            .count();
        assert!(
            bottom_up_rounds >= 2,
            "bottom-up must re-enter after backoffs, got {bottom_up_rounds} rounds: {:?}",
            run.steps
        );
    }

    /// One scripted step: `decide(frontier, frontier_edges)` → expected
    /// direction, then `observe(.., examined)` → expected `alpha_eff`.
    type Step = ((u64, u64), Direction, u64, u64);

    /// Runs `steps` on a switch over 1 000 vertices / 10 000 edges seeded
    /// with `reached` vertices and 3 000 explored edges — so with α = 14
    /// the entry threshold is 7 000 / 14 = 500 frontier edges.
    fn run_script(mode: DirectionMode, alpha: u64, beta: u64, reached: u64, steps: &[Step]) {
        let cfg = DirectionConfig { alpha, beta };
        let mut s = DirectionSwitch::new(mode, cfg, 1_000, 10_000);
        s.observe(reached, 3_000, 0);
        for (i, &((frontier, edges), expect, examined, alpha_eff)) in steps.iter().enumerate() {
            let at = format!("{mode:?} α {alpha} β {beta} reached {reached}, step {i}");
            assert_eq!(s.decide(frontier, edges), expect, "{at}");
            s.observe(0, 0, examined);
            assert_eq!(s.alpha_eff, alpha_eff, "{at}");
        }
    }

    #[test]
    fn switch_rules_table() {
        use Direction::{BottomUp as BU, TopDown as TD};
        use DirectionMode::{BottomUp, Hybrid, TopDown};
        // Enters on a growing, heavy frontier that beats the scan (100
        // unvisited) — not without growth, not at the threshold, not when
        // 600 unvisited make the scan cost as much as expanding.
        run_script(Hybrid, 14, 24, 900, &[((100, 600), BU, 9, 14)]);
        let flat = [((100, 10), TD, 10, 14), ((100, 600), TD, 600, 14)];
        run_script(Hybrid, 14, 24, 900, &flat);
        run_script(Hybrid, 14, 24, 900, &[((100, 500), TD, 500, 14)]);
        run_script(Hybrid, 14, 24, 400, &[((100, 600), TD, 600, 14)]);
        // Leaves below n / β = 1000 / 24: a frontier of 42 stays, 41 goes.
        let shrink = [
            ((100, 600), BU, 9, 14),
            ((42, 5), BU, 1, 14),
            ((41, 5), TD, 5, 14),
        ];
        run_script(Hybrid, 14, 24, 900, &shrink);
        // A round that examines more than its estimate loses: alpha_eff is
        // divided by 8 with floor 1 and the next level falls back; examining
        // exactly the estimate is no loss. At the floor the entry bar is
        // `frontier_edges > unexplored` (7 000).
        let losses = [
            ((100, 600), BU, 600, 100),
            ((100, 600), BU, 601, 12),
            ((200, 600), BU, 601, 1),
            ((300, 7_000), TD, 7_000, 1),
            ((400, 7_001), BU, 7_002, 1),
            ((500, 9), TD, 9, 1),
        ];
        run_script(Hybrid, 100, 24, 900, &losses);
        // α = 0 never enters, β = 0 never leaves, and the pinned modes never
        // move: the same walk leaves each where it started.
        let still =
            |dir, alpha_eff| losses.map(|(f, _, examined, _)| (f, dir, examined, alpha_eff));
        run_script(Hybrid, 0, 24, 900, &still(TD, 1));
        run_script(TopDown, 100, 24, 900, &still(TD, 100));
        let pinned_up = losses.map(|(f, _, x, a)| (f, BU, x, a));
        run_script(BottomUp, 100, 24, 900, &pinned_up);
        let sticky = [((100, 600), BU, 9, 14), ((1, 1), BU, 1, 14)];
        run_script(Hybrid, 14, 0, 900, &sticky);
    }

    #[test]
    fn disconnected_graph_terminates() {
        let el = EdgeList::new(6, vec![(0, 1), (1, 0), (4, 5), (5, 4)]);
        let g = CsrGraph::from_edge_list(&el);
        let got = direction_optimizing_bfs(&g, 0);
        assert_eq!(got.output.num_reached(), 2);
    }

    #[test]
    fn step_accounting_sums_to_total() {
        let g = rmat_graph(9, 11);
        let got = direction_optimizing_bfs(&g, 2);
        let sum: u64 = got.steps.iter().map(|s| s.edges_examined).sum();
        assert_eq!(sum, got.edges_examined);
    }
}
