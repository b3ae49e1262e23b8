//! Collective-matching diagnostics — MUST-style dynamic checking for the
//! in-process runtime, always on.
//!
//! The algorithms in this workspace live or die on *collective
//! discipline*: every rank of a communicator must issue the same sequence
//! of collectives, in the same order, with compatible element types —
//! exactly the property tools like MUST and clang's MPI-Checker verify on
//! real MPI programs. Here the check is the rendezvous itself: every
//! collective records a [`Fingerprint`] — collective kind, element
//! `TypeId`, per-communicator epoch and `#[track_caller]` source location —
//! that travels with its deposit on the exchange board, and every collect
//! compares the deposit's fingerprint with its own. A mismatch, a rank
//! that never arrives (the board's watchdog) and a wire payload that fails
//! its checksum all raise one structured [`VerifyFailure`] naming every
//! rank's pending operation and call site. This module holds those types;
//! the board that raises them is the `exchange` module.
//!
//! Matching never touches payloads: the fingerprint rides beside them, so
//! results are what an unchecked rendezvous would compute.

use std::any::TypeId;
use std::fmt;
use std::panic::Location;

/// Which collective a rank invoked — the first component of a collective
/// fingerprint, so a mismatch diagnostic can name the exact call. One
/// variant per public collective of [`crate::Comm`] and
/// [`crate::PendingExchange`] but `alltoallv_wire`, which records as its
/// start and its wait.
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
    /// all-to-all. It deposits nothing (the wait matches the peers' starts
    /// against its own), so it appears in fault plans (`coll=`) and
    /// captured schedules, never in a failure dump.
    IalltoallvWireWait,
    /// [`crate::Comm::allgather`]. Named `allgatherv` so captured
    /// schedules and `coll=allgatherv` fault plans keep their spelling.
    Allgatherv,
    /// [`crate::Comm::allgatherv_wire`]
    AllgathervWire,
    /// [`crate::Comm::allreduce`]
    Allreduce,
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
        let all = CollectiveKind::ALL;
        all.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = all.iter().map(CollectiveKind::name).collect();
            format!(
                "unknown collective `{s}` (expected one of {})",
                names.join(", ")
            )
        })
    }
}

impl CollectiveKind {
    /// Every kind, in the order diagnostics list them.
    pub const ALL: [CollectiveKind; 9] = [
        CollectiveKind::Barrier,
        CollectiveKind::Alltoallv,
        CollectiveKind::IalltoallvWire,
        CollectiveKind::IalltoallvWireWait,
        CollectiveKind::Allgatherv,
        CollectiveKind::AllgathervWire,
        CollectiveKind::Allreduce,
        CollectiveKind::SendrecvWire,
        CollectiveKind::Split,
    ];

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
            CollectiveKind::SendrecvWire => "sendrecv_wire",
            CollectiveKind::Split => "split",
        }
    }
}

/// What one rank deposits beside its contribution to a collective. Two fingerprints
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
    pub(crate) fn matches(&self, other: &Fingerprint) -> bool {
        self.kind == other.kind && self.type_id == other.type_id
    }
}

/// A diagnostic view of one rank's most recent deposit, as captured in a
/// [`VerifyFailure`].
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
    /// within the board's limit (`DMBFS_COMM_TIMEOUT_SECS`, or
    /// [`crate::World::run_with_watchdog`]).
    Watchdog,
    /// A wire payload failed its end-to-end checksum at the receiver —
    /// the bytes changed between the sender's deposit and the receiver's
    /// read (see the fault-injection layer's `corrupt` kind).
    Corruption,
}

/// The structured diagnostic the exchange board raises (as a panic payload via
/// `std::panic::panic_any`, re-raised by [`crate::World::run`]): every
/// rank's pending operation and source location, instead of a deadlock or
/// a garbled exchange.
///
/// Callers catching the panic can downcast the payload to `VerifyFailure`;
/// the `Display` impl renders the full per-rank dump.
#[derive(Clone, Debug)]
pub struct VerifyFailure {
    /// Mismatch, watchdog timeout or corruption.
    pub kind: FailureKind,
    /// Board id of the communicator group (0 = world; sub-communicators
    /// from [`crate::Comm::split`] get fresh ids).
    pub group: u64,
    /// Number of ranks in the group.
    pub group_size: usize,
    /// The collective counter at which the failure was detected.
    pub epoch: u64,
    /// The world rank that raised this diagnostic.
    pub detected_by: usize,
    /// Every rank's most recent deposit, indexed by *local* rank within
    /// the group; `None` for a rank that never deposited on this
    /// communicator. The `rank` inside each
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::test_support::{board, failure, fp};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn matching_fingerprints_rendezvous() {
        let (board, _) = board(2, Some(Duration::from_secs(5)));
        std::thread::scope(|s| {
            for rank in 0..2 {
                let board = board.clone();
                s.spawn(move || {
                    for epoch in 0..10 {
                        let mine = fp(CollectiveKind::Barrier, epoch);
                        board.deposit(rank, Arc::new(()), mine);
                        board.collect(rank, 1 - rank, &mine);
                    }
                });
            }
        });
    }

    #[test]
    fn mismatched_kinds_raise_a_structured_failure() {
        let (board, poison) = board(2, Some(Duration::from_secs(5)));
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let board = board.clone();
                    s.spawn(move || {
                        let kind = if rank == 0 {
                            CollectiveKind::Barrier
                        } else {
                            CollectiveKind::Allreduce
                        };
                        let mine = fp(kind, 0);
                        board.deposit(rank, Arc::new(()), mine);
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            board.collect(rank, 1 - rank, &mine);
                        }))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in reports {
            let failure = report
                .expect_err("both ranks must detect the mismatch")
                .downcast::<VerifyFailure>()
                .expect("payload is a VerifyFailure");
            assert_eq!(failure.kind, FailureKind::Mismatch);
            assert_eq!(failure.group, 0, "the world board is group 0");
            let dump = failure.to_string();
            assert!(dump.contains("rank 0: barrier"), "{dump}");
            assert!(dump.contains("rank 1: allreduce"), "{dump}");
        }
        assert!(poison.is_set(), "a mismatch must poison the world");
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
    fn watchdog_dumps_pending_ops_when_a_rank_never_arrives() {
        let (board, poison) = board(2, Some(Duration::from_millis(80)));
        let mine = fp(CollectiveKind::Alltoallv, 0);
        board.deposit(0, Arc::new(()), mine);
        let failure = failure(|| {
            board.collect(0, 1, &mine);
        });
        assert_eq!(failure.kind, FailureKind::Watchdog);
        assert!(failure.pending[0].is_some());
        assert!(failure.pending[1].is_none(), "rank 1 never arrived");
        assert!(failure.to_string().contains("rank 1: no collective issued"));
        assert!(poison.is_set(), "watchdog must poison the world");
    }

    #[test]
    fn child_boards_get_fresh_group_ids() {
        let (board, _) = board(4, None);
        let (a, b) = (board.child(&[0, 1]), board.child(&[2, 3]));
        let nested = b.child(&[1]);
        let [a, b, nested] = [&a, &b, &nested]
            .map(|child| failure(|| child.fail(FailureKind::Watchdog, 0, 0, None)));
        assert_ne!(a.group, b.group);
        assert_ne!(a.group, 0);
        assert_eq!(b.labels, vec![2, 3]);
        assert_eq!(nested.labels, vec![3], "labels compose through splits");
    }

    #[test]
    fn corruption_failure_names_the_source_world_rank() {
        let (board, _) = board(7, None);
        let row = board.child(&[4, 6]);
        let failure = failure(|| row.fail(FailureKind::Corruption, 5, 0, Some(1)));
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
}
