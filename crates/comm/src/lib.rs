//! # dmbfs-comm — in-process message-passing runtime
//!
//! The paper's algorithms are expressed against MPI: ranks with private
//! memory, `MPI_Alltoallv`, `MPI_Allgatherv`, `MPI_Allreduce`, communicator
//! splitting for processor rows/columns, and barriers. Mature Rust MPI
//! bindings are not available in this environment, so this crate provides a
//! faithful in-process substitute:
//!
//! * Every rank runs on its own OS thread with *strictly private* state —
//!   the rank closure receives only its [`Comm`] handle, and all inter-rank
//!   data movement goes through explicit typed collectives.
//! * Every collective is one protocol shape on one rendezvous board: the
//!   rank deposits its contribution at the communicator's next epoch, then
//!   collects every peer's — a depth-2 ring per rank, no barriers, safely
//!   reusable because at most one operation is in flight per communicator
//!   (see the `exchange` module). A collective returns once every peer has
//!   *arrived* at it, which is MPI's completion semantics.
//! * [`Comm::split`] mirrors `MPI_Comm_split`, providing the row and column
//!   communicators of the 2D algorithm (§3.2).
//! * The wire collectives are **zero-copy**: a [`WireBuf`] holds its bytes
//!   behind an `Arc` from construction, so receivers take a refcount and
//!   decode straight from the sender's allocation instead of cloning it
//!   off the board, whatever the payload size. See `docs/zero-copy.md`.
//! * Every collective records a [`CommEvent`] — pattern, group size, bytes
//!   in/out, wall time spent inside the call (including waiting for peers
//!   to arrive, i.e. load imbalance, which is how the paper accounts MPI time in
//!   Fig. 4: "The waiting time for this blocking collective is accounted
//!   for the total MPI time"). `dmbfs-model` replays these events through
//!   an α–β network model to predict times on real interconnects.
//! * When a `dmbfs_trace::TraceSink` is attached via [`Comm::set_tracer`],
//!   every collective additionally emits a timestamped span (pattern, group
//!   size, logical and wire bytes) into the rank's trace, and the driver can
//!   wrap levels/phases in spans of its own through [`Comm::trace_start`] /
//!   [`Comm::trace_span`]. Tracing is a strict observer: with no sink
//!   attached the hooks are a branch each, and attached sinks never change
//!   collective results.
//! * Rank panics poison the world: every blocked collective unblocks and
//!   panics, and [`World::run`] propagates the original payload, so a bug
//!   in one rank fails tests instead of deadlocking them.
//! * The rendezvous checks itself, MUST-style and always on: every deposit
//!   carries a call-site fingerprint (kind, element `TypeId`, epoch,
//!   `#[track_caller]` location) that every collector compares with its
//!   own, and a mismatch or a rendezvous stuck past the watchdog limit
//!   (`DMBFS_COMM_TIMEOUT_SECS`, or [`World::run_with_watchdog`]) raises
//!   one structured [`VerifyFailure`] naming every rank's pending
//!   operation — see `docs/verification.md`.
//! * [`Comm::arm_faults`] arms a deterministic [`FaultPlan`]: a seeded
//!   schedule that makes a chosen rank panic, exit silently (fail-stop),
//!   delay a collective, or corrupt an outbound wire buffer at a chosen
//!   (rank, op/level, collective) site — so the detection machinery above
//!   can be *exercised*, not just trusted. See the [`fault`] module and
//!   `docs/fault-injection.md`.
//!
//! * [`Comm::ialltoallv_wire`] is the one **nonblocking** collective, the
//!   split form of the same deposit and collect: it deposits the outbound
//!   buffers and returns a [`PendingExchange`]; the caller may do local
//!   work before collecting the results in [`PendingExchange::wait`]. The
//!   start/wait pair stays a first-class citizen of every observer above:
//!   the wait matches every peer's start against its own (so the watchdog
//!   names ranks that never started), faults fire at the start
//!   site with checksums tripping at the wait, stats record the exposed
//!   wall time (the two calls, not the window between), and the trace emits
//!   `ExchangeStart`/`ExchangeWait` spans. [`Comm::alltoallv_wire`] is that
//!   pair completed on the spot — the wire all-to-all has one
//!   implementation, and every observer sees the blocking call as a
//!   start/wait pair with nothing in between. The BFS drivers call the
//!   blocking form, one exchange per level; the split form is kept for
//!   the benchmark's transport-layer measurement.
//!
//! What this deliberately does **not** model in-process: network latency and
//! bandwidth (that is `dmbfs-model`'s job, driven by the recorded events).
//! One exchange may be in flight per communicator, and its `wait()` blocks
//! only until each peer has *started* the matching exchange (deposited its
//! buffers), never on the peers' own waits. There is no asynchronous
//! progress thread.

#![warn(missing_docs)]

mod comm;
mod exchange;
pub mod fault;
mod stats;
mod verify;
mod world;

pub use comm::{Comm, PendingExchange, WireBuf};
pub use fault::{
    fault_disabled_hook_cost, FailStopExit, FaultKind, FaultPlan, FaultSpec, FaultTrigger,
    InjectedFault,
};
pub use stats::{CommEvent, CommStats, LevelDirection, LevelTiming, Pattern};
pub use verify::{CollectiveKind, FailureKind, PendingOp, VerifyFailure};
pub use world::World;
