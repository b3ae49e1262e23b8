//! Collective-matching verifier — MUST-style dynamic checking for the
//! in-process runtime.
//!
//! The algorithms in this workspace live or die on *collective
//! discipline*: every rank of a communicator must issue the same sequence
//! of collectives, in the same order, with compatible element types —
//! exactly the property tools like MUST and clang's MPI-Checker verify on
//! real MPI programs. Without the verifier, a violation surfaces only as a
//! watchdog hang, a poison panic with no context, or an untyped
//! rendezvous-board downcast failure. With it, every collective entry point records
//! a [`Fingerprint`] — collective kind, element `TypeId`, per-rank epoch
//! counter, and `#[track_caller]` source location — on a shared
//! [`VerifyBoard`]; ranks cross-check fingerprints at rendezvous and, on
//! mismatch, raise one structured [`VerifyFailure`] naming every rank's
//! pending operation and call site. A configurable watchdog converts a
//! stuck rendezvous (a rank that sat out the collective entirely) into the
//! same per-rank pending-ops dump.
//!
//! Like tracing, verification is a **strict observer**: it never touches
//! payloads, so verified runs produce bit-identical results, and the
//! disabled hook is one `Option` check per collective (bounded by the
//! overhead test in `dmbfs-bfs` alongside the tracing one).

use crate::exchange::Poison;
use parking_lot::{Condvar, Mutex};
use std::any::TypeId;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which collective entry point a rank invoked — the first component of a
/// verification fingerprint. One variant per public entry point on
/// [`crate::Comm`], so a mismatch diagnostic can name the exact call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// [`crate::Comm::barrier`]
    Barrier,
    /// [`crate::Comm::alltoallv`]
    Alltoallv,
    /// [`crate::Comm::ialltoallv_wire`] — the start half of the wire
    /// all-to-all ([`crate::Comm::alltoallv_wire`] issues it too: it is
    /// start + wait back to back).
    IalltoallvWire,
    /// [`crate::PendingExchange::wait`] — the wait half of the wire
    /// all-to-all. A distinct kind so the watchdog dump names ranks stuck
    /// in `wait()` as such, not as a generic start.
    IalltoallvWireWait,
    /// [`crate::Comm::allgatherv`] (also reached via `allgather`)
    Allgatherv,
    /// [`crate::Comm::allgatherv_wire`]
    AllgathervWire,
    /// [`crate::Comm::allreduce`]
    Allreduce,
    /// [`crate::Comm::broadcast`]
    Broadcast,
    /// [`crate::Comm::gather`]
    Gather,
    /// [`crate::Comm::gatherv`]
    Gatherv,
    /// [`crate::Comm::sendrecv`]
    Sendrecv,
    /// [`crate::Comm::sendrecv_wire`]
    SendrecvWire,
    /// [`crate::Comm::split`]
    Split,
}

impl std::str::FromStr for CollectiveKind {
    type Err = String;

    /// Inverse of [`CollectiveKind::name`] — used by the fault-plan grammar
    /// (`coll=<name>`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const ALL: [CollectiveKind; 13] = [
            CollectiveKind::Barrier,
            CollectiveKind::Alltoallv,
            CollectiveKind::IalltoallvWire,
            CollectiveKind::IalltoallvWireWait,
            CollectiveKind::Allgatherv,
            CollectiveKind::AllgathervWire,
            CollectiveKind::Allreduce,
            CollectiveKind::Broadcast,
            CollectiveKind::Gather,
            CollectiveKind::Gatherv,
            CollectiveKind::Sendrecv,
            CollectiveKind::SendrecvWire,
            CollectiveKind::Split,
        ];
        ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            format!("unknown collective `{s}` (expected e.g. barrier, allreduce, ialltoallv_wire)")
        })
    }
}

impl CollectiveKind {
    /// Stable lowercase name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::IalltoallvWire => "ialltoallv_wire",
            CollectiveKind::IalltoallvWireWait => "ialltoallv_wire_wait",
            CollectiveKind::Allgatherv => "allgatherv",
            CollectiveKind::AllgathervWire => "allgatherv_wire",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Gatherv => "gatherv",
            CollectiveKind::Sendrecv => "sendrecv",
            CollectiveKind::SendrecvWire => "sendrecv_wire",
            CollectiveKind::Split => "split",
        }
    }
}

/// What one rank recorded on entry to a collective. Two fingerprints
/// *match* when their kind and element `TypeId` agree — source locations
/// are diagnostic only (SPMD code may legitimately reach the same
/// collective from different lines), and group size/epoch agree by
/// construction on a shared board.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    /// Which entry point.
    pub kind: CollectiveKind,
    /// `TypeId` of the element type the collective moves (`()` for
    /// barriers and splits).
    pub type_id: TypeId,
    /// Human-readable name of that type, for diagnostics.
    pub type_name: &'static str,
    /// Per-rank, per-communicator collective counter: the N-th collective
    /// this rank issued on this communicator handle.
    pub epoch: u64,
    /// `#[track_caller]` location of the call.
    pub location: &'static Location<'static>,
}

impl Fingerprint {
    fn matches(&self, other: &Fingerprint) -> bool {
        self.kind == other.kind && self.type_id == other.type_id
    }
}

/// A diagnostic view of one rank's most recent collective entry, as
/// captured in a [`VerifyFailure`].
#[derive(Clone, Debug)]
pub struct PendingOp {
    /// The rank that recorded the operation.
    pub rank: usize,
    /// Collective name (see [`CollectiveKind::name`]).
    pub kind: &'static str,
    /// Element type name.
    pub type_name: &'static str,
    /// The rank's collective counter at the call.
    pub epoch: u64,
    /// Source location (`file:line:column`).
    pub location: String,
}

impl fmt::Display for PendingOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {}: {}<{}> (op #{}) at {}",
            self.rank, self.kind, self.type_name, self.epoch, self.location
        )
    }
}

/// How a [`VerifyFailure`] was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// All ranks arrived at the rendezvous, but their fingerprints
    /// disagree (different collective, or different element type).
    Mismatch,
    /// The watchdog fired: some rank never arrived at the rendezvous
    /// within the configured timeout.
    Watchdog,
    /// A wire payload failed its end-to-end checksum at the receiver —
    /// the bytes changed between the sender's deposit and the receiver's
    /// read (see the fault-injection layer's `corrupt` kind).
    Corruption,
}

/// The structured diagnostic the verifier raises (as a panic payload via
/// `std::panic::panic_any`, re-raised by [`crate::World::run`]): every
/// rank's pending operation and source location, instead of a deadlock or
/// a garbled exchange.
///
/// Callers catching the panic can downcast the payload to `VerifyFailure`;
/// the `Display` impl renders the full per-rank dump.
#[derive(Clone, Debug)]
pub struct VerifyFailure {
    /// Mismatch or watchdog timeout.
    pub kind: FailureKind,
    /// Verifier id of the communicator group (0 = world; sub-communicators
    /// from [`crate::Comm::split`] get fresh ids).
    pub group: u64,
    /// Number of ranks in the group.
    pub group_size: usize,
    /// The collective counter at which the failure was detected.
    pub epoch: u64,
    /// The rank that raised this diagnostic (every stuck rank raises an
    /// identical one).
    pub detected_by: usize,
    /// Every rank's most recent recorded operation, indexed by *local*
    /// rank within the group; `None` for a rank that never entered any
    /// collective on this communicator. The `rank` inside each
    /// [`PendingOp`] is already mapped to a **world** rank via
    /// [`VerifyFailure::labels`].
    pub pending: Vec<Option<PendingOp>>,
    /// World rank of each local rank in the group (identity for the world
    /// communicator; the split-ancestry mapping for sub-communicators), so
    /// diagnostics from row/column boards still name global ranks.
    pub labels: Vec<usize>,
    /// For [`FailureKind::Corruption`]: the world rank whose outbound
    /// payload failed its checksum.
    pub corrupt_source: Option<usize>,
}

impl VerifyFailure {
    /// World ranks that had not reached the failing epoch when the
    /// diagnostic was taken — for a watchdog, the ranks the rendezvous was
    /// waiting on (absent or lagging). Empty for a mismatch.
    pub fn laggards(&self) -> Vec<usize> {
        self.pending
            .iter()
            .enumerate()
            .filter(|(_, op)| match op {
                None => true,
                Some(op) => op.epoch != self.epoch,
            })
            .map(|(local, _)| self.labels.get(local).copied().unwrap_or(local))
            .collect()
    }
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FailureKind::Mismatch => writeln!(
                f,
                "collective mismatch on communicator group {} ({} ranks) at op #{}: \
                 ranks issued incompatible collectives",
                self.group, self.group_size, self.epoch
            )?,
            FailureKind::Watchdog => writeln!(
                f,
                "collective watchdog on communicator group {} ({} ranks) at op #{}: \
                 rendezvous never completed — some rank sat out the collective",
                self.group, self.group_size, self.epoch
            )?,
            FailureKind::Corruption => writeln!(
                f,
                "wire corruption on communicator group {} ({} ranks) at op #{}: \
                 payload from rank {} failed its end-to-end checksum",
                self.group,
                self.group_size,
                self.epoch,
                self.corrupt_source
                    .map_or_else(|| "<unknown>".into(), |r| r.to_string()),
            )?,
        }
        for (local, op) in self.pending.iter().enumerate() {
            let world = self.labels.get(local).copied().unwrap_or(local);
            match op {
                Some(op) if op.epoch == self.epoch => writeln!(f, "  {op}")?,
                Some(op) => writeln!(f, "  {op} [not yet at op #{}]", self.epoch)?,
                None => writeln!(f, "  rank {world}: no collective issued")?,
            }
        }
        write!(f, "  (detected by rank {})", self.detected_by)
    }
}

/// Verifier configuration: currently just the watchdog timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyConfig {
    /// How long a rank waits at a collective rendezvous before declaring
    /// the collective stuck and dumping every rank's pending operation.
    pub timeout: Duration,
}

impl VerifyConfig {
    /// A configuration with an explicit watchdog timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self { timeout }
    }
}

impl Default for VerifyConfig {
    /// Timeout from `DMBFS_VERIFY_TIMEOUT_SECS` (default 60 s).
    fn default() -> Self {
        let secs: u64 = std::env::var("DMBFS_VERIFY_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(60);
        Self {
            timeout: Duration::from_secs(secs.max(1)),
        }
    }
}

/// World-global verifier state: allocates group ids so every communicator
/// (world and splits) gets a distinct id for diagnostics.
#[derive(Debug)]
pub(crate) struct VerifyWorld {
    next_group: AtomicU64,
}

impl VerifyWorld {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            next_group: AtomicU64::new(1),
        })
    }
}

/// One slot per rank on the board. `ring` keeps the fingerprints of the
/// two most recent epochs (indexed by parity). Two entries suffice because
/// [`VerifyBoard::enter`] is itself a full rendezvous: a rank records
/// epoch `e + 1` only after every rank recorded `e`, and `e + 2` only
/// after every rank recorded `e + 1` — by which time each of them has
/// finished comparing `e`, whose entry `e + 2` overwrites. `latest` feeds
/// the pending-ops dump.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    ring: [Option<Fingerprint>; 2],
    latest: Option<Fingerprint>,
}

/// The shared cross-checking state of one communicator: one slot per rank
/// plus a condvar for the rendezvous. Lives inside the communicator's
/// shared state, so [`crate::Comm::split`] children get their own board.
pub(crate) struct VerifyBoard {
    group: u64,
    config: VerifyConfig,
    world: Arc<VerifyWorld>,
    poison: Arc<Poison>,
    /// World rank of each local rank (identity for the world board).
    labels: Vec<usize>,
    state: Mutex<Vec<Slot>>,
    cvar: Condvar,
}

impl VerifyBoard {
    pub(crate) fn new(
        size: usize,
        group: u64,
        config: VerifyConfig,
        world: Arc<VerifyWorld>,
        poison: Arc<Poison>,
    ) -> Arc<Self> {
        Self::with_labels((0..size).collect(), group, config, world, poison)
    }

    fn with_labels(
        labels: Vec<usize>,
        group: u64,
        config: VerifyConfig,
        world: Arc<VerifyWorld>,
        poison: Arc<Poison>,
    ) -> Arc<Self> {
        Arc::new(Self {
            group,
            config,
            world,
            poison,
            state: Mutex::new(vec![Slot::default(); labels.len()]),
            labels,
            cvar: Condvar::new(),
        })
    }

    /// A fresh board for a sub-communicator whose local rank `i` is this
    /// board's local rank `members[i]`, with a newly allocated group id.
    /// Called by the split leader; members receive the board through the
    /// leader's shared state. Labels compose through nested splits, so a
    /// column-of-row board still names world ranks.
    pub(crate) fn child(&self, members: &[usize]) -> Arc<Self> {
        let group = self.world.next_group.fetch_add(1, Ordering::Relaxed);
        Self::with_labels(
            members.iter().map(|&m| self.labels[m]).collect(),
            group,
            self.config,
            self.world.clone(),
            self.poison.clone(),
        )
    }

    fn snapshot(
        &self,
        slots: &[Slot],
        kind: FailureKind,
        epoch: u64,
        rank: usize,
    ) -> VerifyFailure {
        VerifyFailure {
            kind,
            group: self.group,
            group_size: slots.len(),
            epoch,
            detected_by: self.labels[rank],
            pending: slots
                .iter()
                .enumerate()
                .map(|(r, s)| {
                    s.latest.map(|f| PendingOp {
                        rank: self.labels[r],
                        kind: f.kind.name(),
                        type_name: f.type_name,
                        epoch: f.epoch,
                        location: f.location.to_string(),
                    })
                })
                .collect(),
            labels: self.labels.clone(),
            corrupt_source: None,
        }
    }

    /// Raises a [`FailureKind::Corruption`] diagnostic: the payload `rank`
    /// read from local rank `source` at collective counter `epoch` failed
    /// its end-to-end checksum. Poisons the world so blocked peers unwind.
    pub(crate) fn raise_corruption(&self, rank: usize, epoch: u64, source: usize) -> ! {
        let mut failure = {
            let slots = self.state.lock();
            self.snapshot(&slots, FailureKind::Corruption, epoch, rank)
        };
        failure.corrupt_source = Some(self.labels[source]);
        self.poison.set();
        self.cvar.notify_all();
        std::panic::panic_any(failure);
    }

    /// Records `fp` for `rank` and blocks until every rank of the group
    /// has recorded a fingerprint for the same epoch, then cross-checks.
    ///
    /// # Panics
    /// With a [`VerifyFailure`] payload when the fingerprints disagree
    /// (after poisoning the world so blocked peers unwind too) or when the
    /// rendezvous exceeds the watchdog timeout; with the standard poison
    /// message when a peer rank panicked for unrelated reasons.
    pub(crate) fn enter(&self, rank: usize, fp: Fingerprint) {
        let started = Instant::now();
        let epoch = fp.epoch;
        let lane = (epoch % 2) as usize;
        let mut slots = self.state.lock();
        slots[rank].ring[lane] = Some(fp);
        slots[rank].latest = Some(fp);
        self.cvar.notify_all();
        loop {
            let all_arrived = slots
                .iter()
                .all(|s| matches!(s.ring[lane], Some(f) if f.epoch == epoch));
            if all_arrived {
                let mismatch = slots.iter().any(|s| {
                    let theirs = s.ring[lane].expect("slot checked above");
                    !fp.matches(&theirs)
                });
                if mismatch {
                    let failure = self.snapshot(&slots, FailureKind::Mismatch, epoch, rank);
                    self.poison.set();
                    self.cvar.notify_all();
                    drop(slots);
                    std::panic::panic_any(failure);
                }
                return;
            }
            if self.poison.is_set() {
                self.cvar.notify_all();
                panic!("communicator poisoned: a peer rank panicked");
            }
            if started.elapsed() > self.config.timeout {
                let failure = self.snapshot(&slots, FailureKind::Watchdog, epoch, rank);
                self.poison.set();
                self.cvar.notify_all();
                drop(slots);
                std::panic::panic_any(failure);
            }
            // Timed wait so poisoning and the watchdog are observed even
            // without a wakeup.
            self.cvar.wait_for(&mut slots, Duration::from_millis(10));
        }
    }
}

/// Measures the per-collective cost of the *disabled* verifier hook — the
/// exact branch [`crate::Comm`] takes when no board is attached — over
/// `iters` iterations. The overhead test in `dmbfs-bfs` charges a real
/// search's collective count with this cost and asserts the total stays
/// under 5% of the search's wall time, mirroring the tracing overhead
/// methodology.
pub fn disabled_hook_cost(iters: u64) -> Duration {
    let board: Option<Arc<VerifyBoard>> = None;
    let t0 = Instant::now();
    for i in 0..iters {
        if std::hint::black_box(&board).is_some() {
            // Unreachable: the board is None. The branch is what we price.
            std::hint::black_box(i);
        }
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(kind: CollectiveKind, epoch: u64) -> Fingerprint {
        Fingerprint {
            kind,
            type_id: TypeId::of::<u64>(),
            type_name: "u64",
            epoch,
            location: Location::caller(),
        }
    }

    #[test]
    fn matching_fingerprints_rendezvous() {
        let poison = Arc::new(Poison::default());
        let board = VerifyBoard::new(
            2,
            0,
            VerifyConfig::with_timeout(Duration::from_secs(5)),
            VerifyWorld::new(),
            poison,
        );
        std::thread::scope(|s| {
            for rank in 0..2 {
                let board = board.clone();
                s.spawn(move || {
                    for epoch in 0..10 {
                        board.enter(rank, fp(CollectiveKind::Barrier, epoch));
                    }
                });
            }
        });
    }

    #[test]
    fn mismatched_kinds_raise_a_structured_failure() {
        let poison = Arc::new(Poison::default());
        let board = VerifyBoard::new(
            2,
            7,
            VerifyConfig::with_timeout(Duration::from_secs(5)),
            VerifyWorld::new(),
            poison,
        );
        let payloads: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let board = board.clone();
                    s.spawn(move || {
                        let kind = if rank == 0 {
                            CollectiveKind::Barrier
                        } else {
                            CollectiveKind::Allreduce
                        };
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            board.enter(rank, fp(kind, 0))
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for payload in payloads {
            let failure = payload
                .expect_err("both ranks must detect the mismatch")
                .downcast::<VerifyFailure>()
                .expect("payload is a VerifyFailure");
            assert_eq!(failure.kind, FailureKind::Mismatch);
            assert_eq!(failure.group, 7);
            let dump = failure.to_string();
            assert!(dump.contains("rank 0: barrier"), "{dump}");
            assert!(dump.contains("rank 1: allreduce"), "{dump}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
    fn watchdog_dumps_pending_ops_when_a_rank_never_arrives() {
        let poison = Arc::new(Poison::default());
        let board = VerifyBoard::new(
            2,
            0,
            VerifyConfig::with_timeout(Duration::from_millis(80)),
            VerifyWorld::new(),
            poison.clone(),
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.enter(0, fp(CollectiveKind::Alltoallv, 0))
        }));
        let failure = caught
            .expect_err("watchdog must fire")
            .downcast::<VerifyFailure>()
            .expect("payload is a VerifyFailure");
        assert_eq!(failure.kind, FailureKind::Watchdog);
        assert!(failure.pending[0].is_some());
        assert!(failure.pending[1].is_none(), "rank 1 never arrived");
        assert!(failure.to_string().contains("rank 1: no collective issued"));
        assert!(poison.is_set(), "watchdog must poison the world");
    }

    #[test]
    fn child_boards_get_fresh_group_ids() {
        let board = VerifyBoard::new(
            4,
            0,
            VerifyConfig::default(),
            VerifyWorld::new(),
            Arc::new(Poison::default()),
        );
        let a = board.child(&[0, 1]);
        let b = board.child(&[2, 3]);
        assert_ne!(a.group, b.group);
        assert_ne!(a.group, 0);
        assert_eq!(b.labels, vec![2, 3]);
        let nested = b.child(&[1]);
        assert_eq!(nested.labels, vec![3], "labels compose through splits");
    }

    #[test]
    fn corruption_failure_names_the_source_world_rank() {
        let board = VerifyBoard::with_labels(
            vec![4, 6],
            3,
            VerifyConfig::default(),
            VerifyWorld::new(),
            Arc::new(Poison::default()),
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.raise_corruption(0, 5, 1)
        }));
        let failure = caught
            .expect_err("raise_corruption panics")
            .downcast::<VerifyFailure>()
            .expect("payload is a VerifyFailure");
        assert_eq!(failure.kind, FailureKind::Corruption);
        assert_eq!(failure.corrupt_source, Some(6), "local 1 maps to world 6");
        assert_eq!(failure.detected_by, 4, "local 0 maps to world 4");
        assert!(failure.to_string().contains("payload from rank 6"));
    }

    #[test]
    fn laggards_name_absent_and_lagging_world_ranks() {
        // Local 0 (world 1) is at the failing epoch; local 1 (world 3)
        // lags at an earlier one; local 2 (world 5) never arrived.
        let failure = VerifyFailure {
            kind: FailureKind::Watchdog,
            group: 2,
            group_size: 3,
            epoch: 4,
            detected_by: 1,
            pending: vec![
                Some(PendingOp {
                    rank: 1,
                    kind: "barrier",
                    type_name: "()",
                    epoch: 4,
                    location: "here".into(),
                }),
                Some(PendingOp {
                    rank: 3,
                    kind: "barrier",
                    type_name: "()",
                    epoch: 2,
                    location: "there".into(),
                }),
                None,
            ],
            labels: vec![1, 3, 5],
            corrupt_source: None,
        };
        assert_eq!(failure.laggards(), vec![3, 5]);
        assert!(failure.to_string().contains("rank 5: no collective issued"));
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock performance bound")]
    fn disabled_hook_is_cheap() {
        // Smoke-level bound; the real 5% assertion lives in dmbfs-bfs where
        // a search's collective count is known.
        let cost = disabled_hook_cost(100_000);
        assert!(cost < Duration::from_secs(1));
    }
}
