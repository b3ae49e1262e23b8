//! The one rendezvous board: a depth-2 ring per depositor rank, on which
//! every collective is *deposit, then collect*.
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
//! Every wait loop checks the world's [`Poison`] flag and a watchdog, so
//! a peer's death unwinds the waiter and a peer that never arrives ends
//! in a panic naming it instead of a hang.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
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
    epoch: u64,
    payload: Payload,
    /// Name of the payload's concrete type, so a collector whose downcast
    /// fails can say what the depositor published instead.
    type_name: &'static str,
    /// Peers that have not collected this slot yet; the slot is retired
    /// (freed for epoch + 2) when this reaches zero.
    pending_reads: usize,
}

struct Lane {
    ring: Mutex<[Option<Slot>; 2]>,
    cvar: Condvar,
}

/// One lane per depositor rank; see the module docs for the protocol.
pub(crate) struct ExchangeBoard {
    lanes: Vec<Lane>,
    poison: Arc<Poison>,
    /// Watchdog limit of every wait on this board.
    limit: Option<Duration>,
}

impl ExchangeBoard {
    pub(crate) fn new(size: usize, poison: Arc<Poison>) -> Self {
        Self::with_limit(size, poison, watchdog_timeout())
    }

    /// [`ExchangeBoard::new`] with an explicit watchdog limit (the unit
    /// tests' way around the once-per-process environment read).
    fn with_limit(size: usize, poison: Arc<Poison>, limit: Option<Duration>) -> Self {
        assert!(size > 0, "a communicator needs at least one rank");
        Self {
            lanes: (0..size)
                .map(|_| Lane {
                    ring: Mutex::new([None, None]),
                    cvar: Condvar::new(),
                })
                .collect(),
            poison,
            limit,
        }
    }

    /// Number of ranks in the communicator this board serves.
    pub(crate) fn size(&self) -> usize {
        self.lanes.len()
    }

    /// Checks poison and the watchdog inside a wait loop on rank `owner`'s
    /// lane, panicking (and poisoning, for the watchdog) instead of
    /// blocking forever. The watchdog message names the collective that is
    /// waiting and the rank whose lane is stuck: for a collect that is the
    /// peer that never arrived — the rank a mismatched or dead peer
    /// diagnosis needs.
    fn check_stuck(&self, owner: usize, epoch: u64, started: Instant, kind: &str, what: &str) {
        let lane = &self.lanes[owner];
        if self.poison.is_set() {
            lane.cvar.notify_all();
            panic!("communicator poisoned: a peer rank panicked");
        }
        if let Some(limit) = self.limit.filter(|&limit| started.elapsed() > limit) {
            self.poison.set();
            lane.cvar.notify_all();
            panic!(
                "collective watchdog: {kind} on a {}-rank communicator {what} rank \
                 {owner}'s op #{epoch} after {limit:?} — probable mismatched collective \
                 calls across ranks (set DMBFS_COMM_TIMEOUT_SECS to adjust, 0 to disable)",
                self.size(),
            );
        }
    }

    /// Publishes `payload` as rank `rank`'s contribution to collective
    /// `epoch`, to be collected by each of its `size - 1` peers (the
    /// depositor keeps its own reference and never reads its own lane, so
    /// a single-rank group must not deposit at all). `kind` names the
    /// depositing collective for the watchdog.
    pub(crate) fn deposit(
        &self,
        rank: usize,
        epoch: u64,
        payload: Payload,
        type_name: &'static str,
        kind: &str,
    ) {
        debug_assert!(self.size() > 1, "nobody would collect this deposit");
        if self.poison.is_set() {
            panic!("communicator poisoned: a peer rank panicked");
        }
        let lane = &self.lanes[rank];
        let started = Instant::now();
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if slot.is_none() {
                *slot = Some(Slot {
                    epoch,
                    payload,
                    type_name,
                    pending_reads: self.size() - 1,
                });
                lane.cvar.notify_all();
                return;
            }
            // Occupied by epoch - 2 with unread payloads: impossible in a
            // well-formed program (see module docs), so this only spins
            // toward the watchdog when the protocol is broken.
            self.check_stuck(
                rank,
                epoch,
                started,
                kind,
                "deposit still blocked behind the unread predecessor of",
            );
            lane.cvar.wait_for(&mut ring, Duration::from_millis(20));
        }
    }

    /// Collects rank `from`'s contribution to collective `epoch` (with the
    /// name of its concrete type), blocking until that rank has deposited
    /// it. This is the only wait-side dependency: the depositor's
    /// *arrival*, never its own collects. `kind` names the waiting
    /// collective for the watchdog.
    ///
    /// Before parking on the condvar the collector spends a short
    /// yield-then-recheck phase: when rank threads outnumber cores the
    /// deposit usually lands within a few scheduler quanta, and a
    /// still-runnable collector resumes by vruntime immediately instead
    /// of paying the futex wake + preemption-granularity latency on every
    /// collective of a level.
    pub(crate) fn collect(&self, from: usize, epoch: u64, kind: &str) -> (Payload, &'static str) {
        const YIELDS_BEFORE_PARK: u32 = 64;
        let lane = &self.lanes[from];
        let started = Instant::now();
        let mut yields = 0u32;
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if let Some(s) = slot {
                if s.epoch == epoch {
                    let found = (s.payload.clone(), s.type_name);
                    s.pending_reads -= 1;
                    if s.pending_reads == 0 {
                        *slot = None;
                        // Only the slot *retiring* can unblock anyone (a
                        // depositor waiting to reuse it); notifying on
                        // every collect would wake all parked peer
                        // collectors spuriously — O(p²) context switches
                        // per collective when ranks outnumber cores.
                        lane.cvar.notify_all();
                    }
                    return found;
                }
            }
            self.check_stuck(from, epoch, started, kind, "still waiting for");
            if yields < YIELDS_BEFORE_PARK {
                yields += 1;
                drop(ring);
                std::thread::yield_now();
                ring = lane.ring.lock();
            } else {
                lane.cvar.wait_for(&mut ring, Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn board(size: usize) -> (Arc<ExchangeBoard>, Arc<Poison>) {
        let poison = Arc::new(Poison::default());
        (Arc::new(ExchangeBoard::new(size, poison.clone())), poison)
    }

    fn deposit(board: &ExchangeBoard, rank: usize, epoch: u64, tag: u8) {
        board.deposit(rank, epoch, Arc::new(tag), "u8", "test");
    }

    fn collect(board: &ExchangeBoard, from: usize, epoch: u64) -> u8 {
        let (payload, type_name) = board.collect(from, epoch, "test");
        assert_eq!(type_name, "u8");
        *payload.downcast::<u8>().expect("tests deposit u8 tags")
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn collect_blocks_on_the_deposit_only() {
        let (board, _) = board(3);
        let b = board.clone();
        let reader = thread::spawn(move || collect(&b, 1, 0));
        thread::sleep(Duration::from_millis(30));
        deposit(&board, 1, 0, 7);
        assert_eq!(reader.join().unwrap(), 7);
        // The slot retires only after the second peer collects it.
        assert!(board.lanes[1].ring.lock()[0].is_some());
        assert_eq!(collect(&board, 1, 0), 7);
        assert!(board.lanes[1].ring.lock()[0].is_none());
    }

    #[test]
    fn adjacent_epochs_live_in_different_ring_slots() {
        let (board, _) = board(2);
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
        use std::sync::atomic::AtomicU64;
        const RANKS: usize = 4;
        let (board, _) = board(RANKS);
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
            .all(|l| l.ring.lock().iter().all(Option::is_none)));
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn poison_unblocks_a_stuck_collect() {
        let (board, poison) = board(2);
        let b = board.clone();
        let reader = thread::spawn(move || collect(&b, 0, 5));
        thread::sleep(Duration::from_millis(30));
        poison.set();
        assert!(reader.join().is_err(), "collect must panic on poison");
    }

    /// A peer that never arrives: the collector's watchdog names the
    /// waiting collective, the missing rank and the op, and poisons the
    /// world so ranks blocked elsewhere unwind too.
    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
    fn watchdog_names_the_missing_rank_and_poisons_the_world() {
        let poison = Arc::new(Poison::default());
        let limit = Some(Duration::from_millis(80));
        let board = ExchangeBoard::with_limit(2, poison.clone(), limit);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.collect(1, 3, "allreduce");
        }));
        let msg = *caught
            .expect_err("watchdog should fire")
            .downcast::<String>()
            .expect("watchdog panics carry a message");
        assert!(msg.contains("collective watchdog: allreduce"), "{msg}");
        assert!(msg.contains("rank 1's op #3"), "{msg}");
        assert!(poison.is_set(), "watchdog must poison the world");
    }

    #[test]
    fn poisoned_deposit_panics_immediately() {
        let (board, poison) = board(2);
        poison.set();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            deposit(&board, 0, 0, 1);
        }));
        assert!(
            caught.is_err(),
            "a collective entered after poisoning must panic"
        );
        assert!(
            board.lanes[0].ring.lock()[0].is_none(),
            "nothing was deposited"
        );
    }
}
