//! The one rendezvous board: a depth-2 ring per depositor rank, on which
//! every collective is *deposit, then collect* — and which checks itself.
//!
//! Each rank owns a private *lane* of two slots, indexed by `epoch % 2`,
//! where `epoch` is the per-communicator collective counter every rank
//! advances identically. A collective is one protocol shape, whatever it
//! computes: the rank **deposits** its contribution (a type-erased `Arc`)
//! into its own lane at the next epoch, then **collects** every peer's
//! lane at that epoch — blocking until the wanted epoch appears, taking a
//! reference to the payload, and retiring the slot once all `size - 1`
//! peers have collected it. The depositor keeps its own `Arc` and never
//! reads its own lane. `barrier` deposits `()`, `allreduce` folds the
//! collected values, the wire all-to-all picks its bucket out of each
//! peer's vector; the split form (`ialltoallv_wire` … `wait`) is the same
//! deposit and the same collects with the caller's work in between.
//!
//! There is no second rendezvous. A collect depends only on the peer's
//! *deposit* — its arrival at the collective — never on the peer having
//! finished reading, so a completed collective leaves nothing to wait
//! for and a split-form `wait()` absorbs the caller's local-work skew
//! instead of adding barriers. Retirement only drops the lane's own reference: a
//! receiver still holding a loan (a `WireBuf` cloned out of the payload)
//! keeps the bytes alive through the `Arc` refcount, which is what makes
//! reusing the slot safe under zero-copy.
//!
//! **Why depth 2 suffices.** The premise is one operation in flight per
//! communicator (`Comm::assert_no_inflight`): a rank deposits epoch
//! `e + 1` only after collecting every peer's epoch `e`. Before rank B
//! can deposit `e + 2`, B has collected every peer's deposit of `e + 1`;
//! a peer C deposited `e + 1` only after collecting every lane's epoch-`e`
//! slot, including B's — and every peer is such a C. So when `e + 2` is
//! deposited, slot `e % 2 == (e + 2) % 2` of B's lane has been collected
//! by all `size - 1` peers and is free: deposits never block in a
//! well-formed program. The argument needs every rank to collect every
//! peer lane at every epoch, which is why no collective has a rooted or
//! pairwise read pattern of its own. `tests/exchange_interleaving.rs`
//! checks the claim exhaustively over mixed fused and split programs.
//!
//! **Collective matching is always on.** Every deposit carries the
//! depositor's [`Fingerprint`] (kind, element type, epoch, call site), and
//! every collect compares it with its own: as every rank meets every peer
//! at every epoch, ranks in different collectives fail at once with a
//! typed `Mismatch` [`VerifyFailure`]. Every wait loop checks the world's
//! [`Poison`] flag and one watchdog, so a peer that never arrives ends in a
//! `Watchdog` report naming it, not a hang. Each report dumps every lane's
//! latest deposit, kept past slot retirement: one pending op per rank.

use crate::verify::{FailureKind, Fingerprint, PendingOp, VerifyFailure};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared poison flag for an entire [`crate::World`]: one flag covers every
/// communicator derived from it, so a panic anywhere unblocks everyone.
#[derive(Debug, Default)]
pub struct Poison {
    flag: AtomicBool,
}

impl Poison {
    /// Marks the world as poisoned.
    pub fn set(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any rank has panicked.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Watchdog limit for rendezvous waits, read once per process:
/// `DMBFS_COMM_TIMEOUT_SECS` (default 300; `0` disables).
/// [`crate::World::run_with_watchdog`] overrides it for one world.
pub(crate) fn watchdog_timeout() -> Option<Duration> {
    use std::sync::OnceLock;
    static LIMIT: OnceLock<Option<Duration>> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        let secs: u64 = std::env::var("DMBFS_COMM_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        (secs > 0).then(|| Duration::from_secs(secs))
    })
}

/// One rank's type-erased contribution to one collective.
pub(crate) type Payload = Arc<dyn Any + Send + Sync>;

struct Slot {
    /// What the depositor called, at which epoch, from where.
    fp: Fingerprint,
    payload: Payload,
    /// Peers that have not collected this slot yet; the slot is retired
    /// (freed for epoch + 2) when this reaches zero.
    pending_reads: usize,
}

#[derive(Default)]
struct LaneState {
    ring: [Option<Slot>; 2],
    /// The owner's most recent deposit. It outlives the slot's retirement,
    /// so a failure report can say where every rank is.
    latest: Option<Fingerprint>,
}

struct Lane {
    state: Mutex<LaneState>,
    cvar: Condvar,
}

/// One lane per depositor rank; see the module docs for the protocol.
pub(crate) struct ExchangeBoard {
    lanes: Vec<Lane>,
    poison: Arc<Poison>,
    /// Watchdog limit of every wait on this board.
    limit: Option<Duration>,
    /// World rank of each local rank (identity on the world board), so
    /// reports from row/column boards still name world ranks.
    labels: Vec<usize>,
    /// Diagnostic id of this communicator: 0 for the world, fresh per split.
    group: u64,
    /// The world's allocator of split group ids.
    next_group: Arc<AtomicU64>,
}

impl ExchangeBoard {
    /// The world communicator's board: `size` ranks, group 0, waits
    /// bounded by `limit` (`None` waits forever).
    pub(crate) fn new(size: usize, poison: Arc<Poison>, limit: Option<Duration>) -> Self {
        let next_group = Arc::new(AtomicU64::new(1));
        Self::with_labels((0..size).collect(), 0, next_group, poison, limit)
    }

    fn with_labels(
        labels: Vec<usize>,
        group: u64,
        next_group: Arc<AtomicU64>,
        poison: Arc<Poison>,
        limit: Option<Duration>,
    ) -> Self {
        assert!(!labels.is_empty(), "a communicator needs at least one rank");
        Self {
            lanes: labels
                .iter()
                .map(|_| Lane {
                    state: Mutex::default(),
                    cvar: Condvar::new(),
                })
                .collect(),
            poison,
            limit,
            labels,
            group,
            next_group,
        }
    }

    /// The board of a sub-communicator whose local rank `i` is this
    /// board's local rank `members[i]`: a fresh group id, the same poison
    /// flag and watchdog limit, and labels composed through nested splits,
    /// so a column-of-row board still names world ranks.
    pub(crate) fn child(&self, members: &[usize]) -> Self {
        Self::with_labels(
            members.iter().map(|&m| self.labels[m]).collect(),
            self.next_group.fetch_add(1, Ordering::Relaxed),
            self.next_group.clone(),
            self.poison.clone(),
            self.limit,
        )
    }

    /// Number of ranks in the communicator this board serves.
    pub(crate) fn size(&self) -> usize {
        self.lanes.len()
    }

    /// Checks poison and the watchdog inside a wait loop on `lane`:
    /// panics with the poison echo when a peer died, and returns true once
    /// the wait has outlived the limit.
    fn timed_out(&self, lane: &Lane, started: Instant) -> bool {
        if self.poison.is_set() {
            lane.cvar.notify_all();
            panic!("communicator poisoned: a peer rank panicked");
        }
        self.limit.is_some_and(|limit| started.elapsed() > limit)
    }

    /// Raises the typed report of a failure local rank `me` detected at
    /// collective `epoch` (for a corruption, `corrupt_source` is the local
    /// rank whose payload failed its checksum). Reads every lane's latest
    /// deposit, so the caller must hold no lane lock; poisons the world so
    /// blocked peers unwind; then panics with the [`VerifyFailure`].
    pub(crate) fn fail(
        &self,
        kind: FailureKind,
        epoch: u64,
        me: usize,
        corrupt_source: Option<usize>,
    ) -> ! {
        let pending = (self.lanes.iter().zip(&self.labels))
            .map(|(lane, &rank)| {
                lane.state.lock().latest.map(|f| PendingOp {
                    rank,
                    kind: f.kind.name(),
                    type_name: f.type_name,
                    epoch: f.epoch,
                    location: f.location.to_string(),
                })
            })
            .collect();
        let failure = VerifyFailure {
            kind,
            group: self.group,
            group_size: self.size(),
            epoch,
            detected_by: self.labels[me],
            pending,
            labels: self.labels.clone(),
            corrupt_source: corrupt_source.map(|s| self.labels[s]),
        };
        self.poison.set();
        for lane in &self.lanes {
            lane.cvar.notify_all();
        }
        std::panic::panic_any(failure);
    }

    /// Publishes `payload` as rank `rank`'s contribution to collective
    /// `fp.epoch`, to be collected by each of its `size - 1` peers (the
    /// depositor keeps its own reference and never reads its own lane, so
    /// a single-rank group must not deposit at all).
    pub(crate) fn deposit(&self, rank: usize, payload: Payload, fp: Fingerprint) {
        debug_assert!(self.size() > 1, "nobody would collect this deposit");
        if self.poison.is_set() {
            panic!("communicator poisoned: a peer rank panicked");
        }
        let lane = &self.lanes[rank];
        let started = Instant::now();
        let mut state = lane.state.lock();
        state.latest = Some(fp);
        loop {
            let slot = &mut state.ring[(fp.epoch % 2) as usize];
            if slot.is_none() {
                *slot = Some(Slot {
                    fp,
                    payload,
                    pending_reads: self.size() - 1,
                });
                lane.cvar.notify_all();
                return;
            }
            // Occupied by epoch - 2 with unread payloads: impossible in a
            // well-formed program (see module docs), so this only spins
            // toward the watchdog when the protocol is broken.
            if self.timed_out(lane, started) {
                drop(state);
                self.fail(FailureKind::Watchdog, fp.epoch, rank, None);
            }
            lane.cvar.wait_for(&mut state, Duration::from_millis(20));
        }
    }

    /// Local rank `me` collects rank `from`'s contribution to collective
    /// `mine.epoch`, blocking until that rank has deposited it — the
    /// depositor's *arrival*, never its own collects. The deposit's
    /// fingerprint must match `mine` (same kind, same element type), or
    /// the collect raises a `Mismatch` report instead.
    ///
    /// Before parking on the condvar the collector spends a short
    /// yield-then-recheck phase: when rank threads outnumber cores the
    /// deposit usually lands within a few scheduler quanta, and a
    /// still-runnable collector resumes by vruntime immediately instead
    /// of paying the futex wake + preemption-granularity latency on every
    /// collective of a level.
    pub(crate) fn collect(&self, me: usize, from: usize, mine: &Fingerprint) -> Payload {
        const YIELDS_BEFORE_PARK: u32 = 64;
        let epoch = mine.epoch;
        let lane = &self.lanes[from];
        let started = Instant::now();
        let mut yields = 0u32;
        let mut state = lane.state.lock();
        loop {
            let slot = &mut state.ring[(epoch % 2) as usize];
            if let Some(s) = slot.as_mut().filter(|s| s.fp.epoch == epoch) {
                if !s.fp.matches(mine) {
                    drop(state);
                    self.fail(FailureKind::Mismatch, epoch, me, None);
                }
                let payload = s.payload.clone();
                s.pending_reads -= 1;
                if s.pending_reads == 0 {
                    *slot = None;
                    // Only the slot *retiring* can unblock anyone (a
                    // depositor waiting to reuse it); notifying on every
                    // collect would wake all parked peer collectors
                    // spuriously — O(p²) context switches per collective
                    // when ranks outnumber cores.
                    lane.cvar.notify_all();
                }
                return payload;
            }
            if self.timed_out(lane, started) {
                drop(state);
                self.fail(FailureKind::Watchdog, epoch, me, None);
            }
            if yields < YIELDS_BEFORE_PARK {
                yields += 1;
                drop(state);
                std::thread::yield_now();
                state = lane.state.lock();
            } else {
                lane.cvar.wait_for(&mut state, Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
/// A board with `limit` and a fingerprint factory, shared by this module's
/// tests and the diagnostic tests in `verify`.
pub(crate) mod test_support {
    use super::*;
    use crate::verify::CollectiveKind;
    use std::any::TypeId;

    pub(crate) fn board(size: usize, limit: Option<Duration>) -> (Arc<ExchangeBoard>, Arc<Poison>) {
        let poison = Arc::new(Poison::default());
        let board = ExchangeBoard::new(size, poison.clone(), limit);
        (Arc::new(board), poison)
    }

    #[track_caller]
    pub(crate) fn fp(kind: CollectiveKind, epoch: u64) -> Fingerprint {
        Fingerprint {
            kind,
            type_id: TypeId::of::<u8>(),
            type_name: "u8",
            epoch,
            location: std::panic::Location::caller(),
        }
    }

    /// Runs `f`, which must raise a board report, and returns the report.
    pub(crate) fn failure(f: impl FnOnce()) -> VerifyFailure {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        *caught
            .expect_err("the board must raise a report")
            .downcast::<VerifyFailure>()
            .expect("board reports are typed VerifyFailures")
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{board, failure, fp};
    use super::*;
    use crate::verify::CollectiveKind;
    use std::thread;

    fn deposit(board: &ExchangeBoard, rank: usize, epoch: u64, tag: u8) {
        board.deposit(rank, Arc::new(tag), fp(CollectiveKind::Barrier, epoch));
    }

    fn collect(board: &ExchangeBoard, from: usize, epoch: u64) -> u8 {
        let payload = board.collect(0, from, &fp(CollectiveKind::Barrier, epoch));
        *payload.downcast::<u8>().expect("tests deposit u8 tags")
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn collect_blocks_on_the_deposit_only() {
        let (board, _) = board(3, None);
        let b = board.clone();
        let reader = thread::spawn(move || collect(&b, 1, 0));
        thread::sleep(Duration::from_millis(30));
        deposit(&board, 1, 0, 7);
        assert_eq!(reader.join().unwrap(), 7);
        // The slot retires only after the second peer collects it.
        assert!(board.lanes[1].state.lock().ring[0].is_some());
        assert_eq!(collect(&board, 1, 0), 7);
        assert!(board.lanes[1].state.lock().ring[0].is_none());
        // The lane still remembers the deposit for failure reports.
        assert_eq!(board.lanes[1].state.lock().latest.map(|f| f.epoch), Some(0));
    }

    #[test]
    fn adjacent_epochs_live_in_different_ring_slots() {
        let (board, _) = board(2, None);
        deposit(&board, 0, 0, 1);
        deposit(&board, 0, 1, 2);
        // Collected in order even though both are resident.
        assert_eq!(collect(&board, 0, 0), 1);
        assert_eq!(collect(&board, 0, 1), 2);
    }

    /// Every rank runs deposit-then-collect-all for many epochs: each lane
    /// wraps its two slots a hundred times, every collect sees exactly the
    /// epoch it asked for, and nobody leaves epoch `e` before every rank
    /// has arrived at it.
    #[test]
    #[cfg_attr(miri, ignore = "hundreds of cross-thread rendezvous")]
    fn ring_is_reusable_across_epochs_and_releases_nobody_early() {
        const RANKS: usize = 4;
        let (board, _) = board(RANKS, None);
        let arrived = AtomicU64::new(0);
        thread::scope(|s| {
            for rank in 0..RANKS {
                let (board, arrived) = (&board, &arrived);
                s.spawn(move || {
                    for epoch in 0..200u64 {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        deposit(board, rank, epoch, epoch as u8);
                        for peer in (0..RANKS).filter(|&p| p != rank) {
                            assert_eq!(collect(board, peer, epoch), epoch as u8);
                        }
                        assert!(
                            arrived.load(Ordering::SeqCst) >= (epoch + 1) * RANKS as u64,
                            "rank {rank} left epoch {epoch} before every rank arrived"
                        );
                    }
                });
            }
        });
        assert!(board
            .lanes
            .iter()
            .all(|l| l.state.lock().ring.iter().all(Option::is_none)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn poison_unblocks_a_stuck_collect() {
        let (board, poison) = board(2, None);
        let b = board.clone();
        let reader = thread::spawn(move || collect(&b, 0, 5));
        thread::sleep(Duration::from_millis(30));
        poison.set();
        assert!(reader.join().is_err(), "collect must panic on poison");
    }

    /// A peer that never arrives: the collector's watchdog raises a typed
    /// report whose laggards are exactly the missing rank, and poisons the
    /// world so ranks blocked elsewhere unwind too.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
    fn watchdog_names_the_missing_rank_and_poisons_the_world() {
        let (board, poison) = board(3, Some(Duration::from_millis(80)));
        deposit(&board, 0, 0, 1);
        deposit(&board, 2, 0, 1);
        let report = failure(|| {
            collect(&board, 1, 0);
        });
        assert_eq!(report.kind, FailureKind::Watchdog);
        assert_eq!(report.epoch, 0);
        assert_eq!(report.detected_by, 0);
        assert_eq!(report.laggards(), vec![1]);
        assert!(poison.is_set(), "watchdog must poison the world");
    }

    #[test]
    fn poisoned_deposit_panics_immediately() {
        let (board, poison) = board(2, None);
        poison.set();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            deposit(&board, 0, 0, 1);
        }));
        assert!(
            caught.is_err(),
            "a collective entered after poisoning must panic"
        );
        assert!(
            board.lanes[0].state.lock().latest.is_none(),
            "nothing was deposited"
        );
    }
}
