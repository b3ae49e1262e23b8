//! # dmbfs-runtime — the distributed-execution harness
//!
//! Every distributed algorithm in this workspace shares one skeleton: spawn
//! `p` ranks, give each a communicator, a private thread pool (one lane
//! under "Flat MPI", `t` lanes under the paper's "Hybrid" variants) and a
//! trace sink, run a level-synchronous loop measured barrier-to-barrier,
//! then harvest per-rank outputs, communication statistics, and span
//! traces. This crate owns that skeleton so the algorithm crates only
//! provide their per-rank closure:
//!
//! * [`RunConfig`] — the unified execution configuration (ranks, threads
//!   per rank, direction policy, tracing, watchdog limit, fault injection)
//!   every driver accepts.
//! * [`run_ranks`] — the generic harness: rank spawn via the in-process
//!   world, tracer attach, pool construction, and the
//!   stats/trace/seconds/collective-schedule harvest, returning a
//!   [`DistRun`].
//! * [`RankCtx`] — what a per-rank closure sees: its communicator, its
//!   pool, [`RankCtx::timed`] for the canonical barrier-to-barrier timed
//!   region, [`RankCtx::reset_accounting`] to exclude setup collectives,
//!   and [`RankCtx::merge_stats`] to fold sub-communicator statistics into
//!   the harvest.
//! * [`scatter_block`] — output assembly for the common case of
//!   contiguous per-rank vector blocks.
//!
//! Adding a distributed algorithm is now: build a `RunConfig`, call
//! `run_ranks`, and write the loop — threading, wire-byte accounting, and
//! span tracing come with the harness (see `docs/runtime.md` for a worked
//! example).

#![warn(missing_docs)]

use dmbfs_comm::{Comm, CommStats, World};
use dmbfs_trace::{RankTrace, SpanKind, TraceSink};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::str::FromStr;
use std::time::{Duration, Instant};

// Re-exported (rather than merely used) so algorithm crates and the CLI can
// build and inspect fault plans against the runtime surface alone.
pub use dmbfs_comm::{
    fault_disabled_hook_cost, FailStopExit, FaultKind, FaultPlan, FaultSpec, FaultTrigger,
    InjectedFault,
};

/// Which per-level traversal direction policy a BFS driver uses.
///
/// The heuristic itself lives with the algorithms (`dmbfs-bfs`'s
/// `direction` module implements the Beamer αβ switch); the enum lives
/// here so [`RunConfig`] can carry the choice uniformly across drivers.
/// Drivers without a bottom-up step (the 2D driver, non-BFS algorithms)
/// accept only [`DirectionMode::TopDown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DirectionMode {
    /// Classic level-synchronous top-down expansion every level.
    #[default]
    TopDown,
    /// Bottom-up owner-side scan every level, the first included (the
    /// direction switch pinned). Mainly useful for determinism tests and
    /// ablation floors.
    BottomUp,
    /// The Beamer αβ hybrid: start top-down, switch to bottom-up when the
    /// frontier's out-edges dominate the unexplored edges (α), switch back
    /// when the frontier shrinks relative to `n` (β), with the adaptive
    /// α-backoff when a bottom-up level examines more edges than the
    /// top-down bound.
    Hybrid,
}

impl DirectionMode {
    /// All direction policies, for ablation sweeps.
    pub const ALL: [DirectionMode; 3] = [
        DirectionMode::TopDown,
        DirectionMode::BottomUp,
        DirectionMode::Hybrid,
    ];

    /// Stable lowercase name (CLI flag values, JSON output).
    pub fn name(&self) -> &'static str {
        match self {
            DirectionMode::TopDown => "topdown",
            DirectionMode::BottomUp => "bottomup",
            DirectionMode::Hybrid => "hybrid",
        }
    }
}

impl FromStr for DirectionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "topdown" => Ok(DirectionMode::TopDown),
            "bottomup" => Ok(DirectionMode::BottomUp),
            "hybrid" => Ok(DirectionMode::Hybrid),
            other => Err(format!(
                "unknown direction `{other}` (expected topdown|bottomup|hybrid)"
            )),
        }
    }
}

/// Unified execution configuration for a distributed run — the fields every
/// driver used to duplicate (or lack), in one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Number of simulated MPI ranks.
    pub ranks: usize,
    /// Threads per rank: 1 = "Flat MPI", >1 = "Hybrid" (§6 uses 4 on
    /// Franklin, 6 on Hopper).
    pub threads_per_rank: usize,
    /// Record per-rank span traces (see `dmbfs-trace`). Strictly an
    /// observer: the computed result is bit-identical either way.
    pub trace: bool,
    /// Deterministic fault-injection schedule (see [`FaultPlan`] and
    /// `docs/fault-injection.md`). Empty by default; an empty plan is never
    /// armed, so the per-collective cost stays one `Option` check.
    pub faults: FaultPlan,
    /// Overrides the rendezvous watchdog limit for this run (`None` = the
    /// `DMBFS_COMM_TIMEOUT_SECS` default; see
    /// [`dmbfs_comm::World::run_with_watchdog`]). The chaos harness and the
    /// fault tests use short limits so a fail-stopped rank is reported in
    /// seconds, not minutes.
    pub watchdog: Option<Duration>,
    /// Per-level traversal direction policy (see [`DirectionMode`]). Only
    /// the BFS drivers with a bottom-up step honor it; other drivers
    /// require the [`DirectionMode::TopDown`] default.
    pub direction: DirectionMode,
}

impl RunConfig {
    /// Flat MPI: one single-threaded process per simulated core.
    pub fn flat(ranks: usize) -> Self {
        Self {
            ranks,
            threads_per_rank: 1,
            trace: false,
            faults: FaultPlan::none(),
            watchdog: None,
            direction: DirectionMode::TopDown,
        }
    }

    /// Hybrid MPI + multithreading.
    pub fn hybrid(ranks: usize, threads_per_rank: usize) -> Self {
        assert!(threads_per_rank >= 1);
        Self {
            threads_per_rank,
            ..Self::flat(ranks)
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

    /// Adds one fault to the schedule (at most
    /// [`dmbfs_comm::fault::MAX_FAULTS`]).
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.faults = self.faults.with_fault(spec);
        self
    }

    /// Overrides the rendezvous watchdog limit (see
    /// [`RunConfig::watchdog`]).
    pub fn with_watchdog(mut self, limit: Duration) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Replaces the traversal direction policy (see [`DirectionMode`]).
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }
}

/// What one rank's closure sees while it runs under [`run_ranks`]: its
/// communicator, its private thread pool, and the hooks that keep timing
/// and accounting uniform across drivers.
pub struct RankCtx<'a> {
    comm: &'a Comm,
    pool: rayon::ThreadPool,
    seconds: Cell<f64>,
    extra_stats: RefCell<Vec<CommStats>>,
}

impl<'a> RankCtx<'a> {
    /// The rank's world communicator.
    pub fn comm(&self) -> &'a Comm {
        self.comm
    }

    /// This rank's index in the world.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size (= [`RunConfig::ranks`]).
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The rank's private thread pool, with [`RunConfig::threads_per_rank`]
    /// lanes: one under flat execution, which spawns no thread. Each rank
    /// builds its own pool: a shared global pool would serialize the
    /// simulated ranks against each other.
    pub fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    /// The canonical timed region: barrier, start the clock, run `f`
    /// wrapped in a [`SpanKind::Search`] span (detail = `detail`, e.g. the
    /// source vertex), barrier again, accumulate the elapsed wall seconds
    /// into the harvest. Matches the paper's barrier-to-barrier search
    /// timing; calling it more than once accumulates.
    pub fn timed<R>(&self, detail: u64, f: impl FnOnce() -> R) -> R {
        self.comm.barrier();
        let t0 = Instant::now();
        let span_t = self.comm.trace_start();
        let out = f();
        self.comm.trace_span(SpanKind::Search, span_t, detail);
        self.comm.barrier();
        self.seconds
            .set(self.seconds.get() + t0.elapsed().as_secs_f64());
        out
    }

    /// Excludes everything so far from the stats and trace harvest:
    /// barrier (so no rank is still inside a setup collective), then
    /// discard recorded events and clear the trace. The 2D drivers use
    /// this so communicator splits and graph distribution don't pollute
    /// the search accounting. The collective-schedule log keeps the whole
    /// run, setup and this barrier included.
    pub fn reset_accounting(&self) {
        self.comm.barrier();
        let _ = self.comm.take_stats();
        self.comm.trace_clear();
    }

    /// Folds statistics from a sub-communicator (a row/column split) into
    /// this rank's harvested stream.
    pub fn merge_stats(&self, stats: CommStats) {
        self.extra_stats.borrow_mut().push(stats);
    }
}

/// Everything [`run_ranks`] harvests: per-rank closure outputs plus the
/// uniform measurement surface.
#[derive(Clone, Debug)]
pub struct DistRun<T> {
    /// Per-rank closure return values (index = rank).
    pub per_rank: Vec<T>,
    /// Per-rank communication event streams (index = rank), including any
    /// sub-communicator stats folded in via [`RankCtx::merge_stats`].
    pub per_rank_stats: Vec<CommStats>,
    /// Per-rank span traces (index = rank); placeholder traces with no
    /// spans unless [`RunConfig::trace`] was set.
    pub per_rank_trace: Vec<RankTrace>,
    /// Wall seconds of the timed region (max over ranks); `0.0` when the
    /// closure never called [`RankCtx::timed`].
    pub seconds: f64,
    /// Per-rank ordered collective-fingerprint sequences (index = rank):
    /// every collective each rank issued in the run, on the world
    /// communicator and on every sub-communicator split off it (see
    /// [`dmbfs_comm::Comm::take_schedule`]). The static schedule checker's
    /// conformance test diffs it against the predicted schedule.
    pub per_rank_schedule: Vec<Vec<&'static str>>,
}

/// Runs `body` once per rank under `cfg` and harvests the results.
///
/// The harness owns the whole execution skeleton: it creates one shared
/// trace epoch (so every rank's spans land on a single timeline), spawns
/// `cfg.ranks` ranks, attaches a tracer when `cfg.trace` is set (before
/// any communicator split, so sub-communicators inherit the sink), builds
/// the rank's thread pool, and — after the closure returns — collects the
/// communication statistics, the trace, and the barrier-to-barrier seconds
/// recorded by [`RankCtx::timed`].
///
/// # Examples
/// ```
/// use dmbfs_runtime::{run_ranks, RunConfig};
///
/// let run = run_ranks(&RunConfig::flat(4), |ctx| {
///     ctx.timed(0, || ctx.comm().allreduce(ctx.rank() as u64, |a, b| a + b))
/// });
/// assert_eq!(run.per_rank, vec![6, 6, 6, 6]);
/// assert!(run.seconds > 0.0);
/// ```
pub fn run_ranks<T, F>(cfg: &RunConfig, body: F) -> DistRun<T>
where
    T: Send,
    F: Fn(&RankCtx<'_>) -> T + Send + Sync,
{
    assert!(cfg.ranks > 0, "a run needs at least one rank");
    assert!(cfg.threads_per_rank >= 1, "threads_per_rank must be >= 1");
    let cfg = *cfg;

    struct Harvest<T> {
        value: T,
        stats: CommStats,
        trace: RankTrace,
        seconds: f64,
        schedule: Vec<&'static str>,
    }

    // All ranks stamp spans against this one epoch so their timelines share
    // a zero (`Instant` is `Copy`; each rank closure gets its own copy).
    let epoch = Instant::now();
    let rank_body = |comm: &Comm| {
        // Arm faults first, on the world communicator: the injected rank id
        // must be the world rank, and sub-communicator splits inside the
        // body inherit the armed injector (like the tracer below).
        if !cfg.faults.is_empty() {
            comm.arm_faults(cfg.faults);
        }
        if cfg.trace {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.threads_per_rank)
            .build()
            .unwrap_or_else(|e| {
                panic!(
                    "rank {}: failed to build its {}-thread pool: {e:?}",
                    comm.rank(),
                    cfg.threads_per_rank
                )
            });
        let ctx = RankCtx {
            comm,
            pool,
            seconds: Cell::new(0.0),
            extra_stats: RefCell::new(Vec::new()),
        };
        let value = body(&ctx);
        let mut stats = comm.take_stats();
        for extra in ctx.extra_stats.borrow_mut().drain(..) {
            stats.merge(&extra);
        }
        Harvest {
            value,
            stats,
            trace: comm.take_trace().unwrap_or(RankTrace {
                rank: comm.rank(),
                ..RankTrace::default()
            }),
            seconds: ctx.seconds.get(),
            schedule: comm.take_schedule(),
        }
    };
    let harvests: Vec<Harvest<T>> = match cfg.watchdog {
        Some(limit) => World::run_with_watchdog(cfg.ranks, limit, rank_body),
        None => World::run(cfg.ranks, rank_body),
    };

    let mut per_rank = Vec::with_capacity(cfg.ranks);
    let mut per_rank_stats = Vec::with_capacity(cfg.ranks);
    let mut per_rank_trace = Vec::with_capacity(cfg.ranks);
    let mut per_rank_schedule = Vec::with_capacity(cfg.ranks);
    let mut seconds = 0.0f64;
    for h in harvests {
        per_rank.push(h.value);
        per_rank_stats.push(h.stats);
        per_rank_trace.push(h.trace);
        per_rank_schedule.push(h.schedule);
        seconds = seconds.max(h.seconds);
    }
    DistRun {
        per_rank,
        per_rank_stats,
        per_rank_trace,
        seconds,
        per_rank_schedule,
    }
}

/// Copies one rank's contiguous block into the global output vector at its
/// `start` offset — the assembly step of every 1D/2D-block-distributed
/// result.
pub fn scatter_block<V: Clone>(dst: &mut [V], start: u64, block: &[V]) {
    let s = start as usize;
    dst[s..s + block.len()].clone_from_slice(block);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_comm::CollectiveTag;

    #[test]
    fn harvests_values_in_rank_order() {
        let run = run_ranks(&RunConfig::flat(5), |ctx| ctx.rank() * 10);
        assert_eq!(run.per_rank, vec![0, 10, 20, 30, 40]);
        assert_eq!(run.per_rank_stats.len(), 5);
        assert_eq!(run.per_rank_trace.len(), 5);
        assert_eq!(run.seconds, 0.0, "no timed region ran");
    }

    #[test]
    fn timed_region_reports_barrier_to_barrier_seconds() {
        let run = run_ranks(&RunConfig::flat(3), |ctx| {
            ctx.timed(7, || {
                ctx.comm().allreduce(1u64, |a, b| a + b);
            })
        });
        assert!(run.seconds > 0.0);
        // Two barriers plus the allreduce on every rank.
        for stats in &run.per_rank_stats {
            let barriers = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::Barrier)
                .count();
            assert_eq!(barriers, 2);
        }
    }

    #[test]
    fn tracing_attaches_a_sink_and_records_the_search_span() {
        let cfg = RunConfig::flat(4).with_trace(true);
        let run = run_ranks(&cfg, |ctx| {
            ctx.timed(9, || ctx.comm().allreduce(1u64, |a, b| a + b))
        });
        for (rank, t) in run.per_rank_trace.iter().enumerate() {
            assert_eq!(t.rank, rank);
            let searches: Vec<_> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Search)
                .collect();
            assert_eq!(searches.len(), 1);
            assert_eq!(searches[0].detail, 9);
            assert!(t.spans.iter().any(|s| s.kind == SpanKind::Collective));
        }
        // Untraced runs harvest placeholder traces with no spans.
        let run = run_ranks(&RunConfig::flat(4), |ctx| ctx.rank());
        assert!(run.per_rank_trace.iter().all(|t| t.spans.is_empty()));
        assert_eq!(run.per_rank_trace[2].rank, 2);
    }

    #[test]
    fn reset_accounting_discards_setup_events_and_spans() {
        let cfg = RunConfig::flat(2).with_trace(true);
        let run = run_ranks(&cfg, |ctx| {
            ctx.comm().allreduce(1u64, |a, b| a + b); // setup traffic
            ctx.reset_accounting();
            ctx.comm().allreduce(2u64, |a, b| a + b);
        });
        for stats in &run.per_rank_stats {
            let allreduces = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::Allreduce)
                .count();
            assert_eq!(allreduces, 1, "setup allreduce was discarded");
        }
        for t in &run.per_rank_trace {
            let collectives = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Collective)
                .count();
            assert_eq!(collectives, 1, "setup span was cleared");
        }
        for schedule in &run.per_rank_schedule {
            assert_eq!(
                schedule,
                &["allreduce", "barrier", "allreduce"],
                "the collective log keeps the whole run"
            );
        }
    }

    #[test]
    fn merge_stats_folds_subcommunicator_events_in() {
        let run = run_ranks(&RunConfig::flat(4), |ctx| {
            let comm = ctx.comm();
            let sub = comm.split((ctx.rank() % 2) as u64, ctx.rank() as u64);
            ctx.reset_accounting(); // drop the split's own traffic
            sub.allreduce(1u64, |a, b| a + b);
            ctx.merge_stats(sub.take_stats());
        });
        for stats in &run.per_rank_stats {
            let allreduces = stats
                .events
                .iter()
                .filter(|e| e.pattern == CollectiveTag::Allreduce)
                .count();
            assert_eq!(allreduces, 1, "sub-communicator event harvested");
        }
    }

    #[test]
    fn every_rank_pool_has_threads_per_rank_lanes() {
        for cfg in [RunConfig::flat(2), RunConfig::hybrid(2, 2)] {
            let run = run_ranks(&cfg, |ctx| {
                let rank = ctx.rank();
                let lanes = ctx.pool().current_num_threads();
                (lanes, ctx.pool().install(move || rank + 1))
            });
            let lanes = cfg.threads_per_rank;
            assert_eq!(run.per_rank, vec![(lanes, 1), (lanes, 2)], "{cfg:?}");
        }
    }

    #[test]
    fn config_builders_compose() {
        let cfg = RunConfig::hybrid(8, 4).with_trace(true);
        assert_eq!(
            cfg,
            RunConfig {
                ranks: 8,
                threads_per_rank: 4,
                trace: true,
                faults: FaultPlan::none(),
                watchdog: None,
                direction: DirectionMode::TopDown,
            }
        );
        assert_eq!(
            RunConfig::flat(2)
                .with_direction(DirectionMode::Hybrid)
                .direction,
            DirectionMode::Hybrid
        );
        assert_eq!(
            RunConfig::flat(2)
                .with_watchdog(Duration::from_millis(5))
                .watchdog,
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn injected_panic_surfaces_as_a_typed_payload() {
        let cfg = RunConfig::flat(4).with_fault("panic@r2:op1".parse().unwrap());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks(&cfg, |ctx| {
                for _ in 0..4 {
                    ctx.comm().barrier();
                }
            })
        }))
        .expect_err("an injected panic must fail the run");
        let fault = err
            .downcast::<InjectedFault>()
            .expect("root cause is the typed InjectedFault, not a poison echo");
        assert_eq!(fault.rank, 2);
        assert_eq!(fault.op, 1);
        assert_eq!(fault.kind, FaultKind::Panic);
    }

    #[test]
    fn fail_stop_under_verify_is_reported_by_the_watchdog() {
        let cfg = RunConfig::flat(3)
            .with_fault("failstop@r1:op2".parse().unwrap())
            .with_watchdog(Duration::from_millis(300));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ranks(&cfg, |ctx| {
                for _ in 0..4 {
                    ctx.comm().barrier();
                }
            })
        }))
        .expect_err("peers must time out on the dead rank");
        let failure = err
            .downcast::<dmbfs_comm::VerifyFailure>()
            .expect("the watchdog report explains a fail-stop");
        assert_eq!(failure.laggards(), vec![1], "the dead rank is named");
    }

    #[test]
    fn empty_fault_plan_is_never_armed() {
        assert!(RunConfig::flat(2).faults.is_empty());
        let run = run_ranks(&RunConfig::flat(2), |ctx| ctx.comm().faults_armed());
        assert_eq!(run.per_rank, vec![false, false]);
    }

    #[test]
    fn direction_names_parse_back() {
        for mode in DirectionMode::ALL {
            let parsed = mode
                .name()
                .parse::<DirectionMode>()
                .expect("every canonical direction name must parse back");
            assert_eq!(parsed, mode);
        }
        assert!("sideways".parse::<DirectionMode>().is_err());
        assert_eq!(DirectionMode::default(), DirectionMode::TopDown);
    }

    #[test]
    fn blocks_assemble_and_scatter() {
        let mut dst = vec![0u64; 4];
        scatter_block(&mut dst, 1, &[3, 4]);
        assert_eq!(dst, vec![0, 3, 4, 0]);
    }
}
