//! Depth-2 ring rendezvous for the wire all-to-all (`ialltoallv_wire` +
//! `wait`, and `alltoallv_wire`, which is the two back to back).
//!
//! The typed collectives rendezvous on the slot board with a two-barrier
//! protocol: every rank waits for every *other rank's read* before the
//! board can be reused. That is exactly the wrong dependency for an
//! exchange whose start and wait are separate calls — a rank completing
//! `wait()` must block only on its peers' **starts** (their deposits),
//! never on their waits, or the pipeline degenerates into K barriers per
//! level and chunking can only add overhead.
//!
//! This board gives each depositor rank a private *lane* of two slots,
//! indexed by `epoch % 2`. A deposit fills the slot for its epoch; a
//! collect blocks until the wanted epoch appears in the depositor's lane,
//! takes an `Arc` reference to the payload (sealed `WireBuf`s inside it
//! are loans — receivers decode straight from the sender's allocation),
//! and retires the slot once all `readers` ranks have collected it.
//! Retirement only drops the lane's own reference: a receiver still
//! holding a loan keeps the bytes alive through the `Arc` refcount, which
//! is what makes the depth-2 epoch ring safe to reuse under zero-copy.
//! No barriers anywhere: the wait-side dependency is purely "has rank j
//! started exchange e yet".
//!
//! **Why depth 2 suffices** (single outstanding exchange per communicator,
//! enforced by `Comm::assert_no_inflight`): before rank B can deposit
//! epoch `e+2`, B must have completed `wait(e+1)`, which collected every
//! peer's deposit of `e+1`; a peer C deposited `e+1` only after its
//! `wait(e)`, which collected — and thereby helped retire — every lane's
//! epoch-`e` slot, including B's. So by the time `e+2` is deposited,
//! lane slot `e % 2 == (e+2) % 2` is already free and deposits never
//! block in a well-formed program. The deposit path still loops with the
//! same poison/watchdog discipline as the barrier, so a peer's death or a
//! protocol bug unwinds instead of hanging.

use crate::barrier::{watchdog_timeout, Poison};
use crate::comm::WireBuf;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one rank deposits for one exchange: its outbound buffer per
/// destination, plus per-destination pre-corruption checksums when the
/// verifier is on.
pub(crate) type ExchangePayload = (Vec<WireBuf>, Option<Vec<u64>>);

struct Slot {
    epoch: u64,
    payload: Arc<ExchangePayload>,
    /// Ranks that have not collected this slot yet; the slot is retired
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
}

impl ExchangeBoard {
    pub(crate) fn new(size: usize, poison: Arc<Poison>) -> Self {
        Self {
            lanes: (0..size)
                .map(|_| Lane {
                    ring: Mutex::new([None, None]),
                    cvar: Condvar::new(),
                })
                .collect(),
            poison,
        }
    }

    /// Checks poison and the watchdog inside a wait loop on rank `owner`'s
    /// lane, panicking (and poisoning, for the watchdog) instead of
    /// blocking forever. The watchdog message names the rank whose lane is
    /// stuck: for a `wait` that is the peer that never started the
    /// exchange — the rank a mismatched or dead peer diagnosis needs.
    fn check_stuck(
        &self,
        owner: usize,
        epoch: u64,
        started: Instant,
        limit: Option<Duration>,
        what: &str,
    ) {
        let lane = &self.lanes[owner];
        if self.poison.is_set() {
            lane.cvar.notify_all();
            panic!("communicator poisoned: a peer rank panicked");
        }
        if let Some(limit) = limit {
            if started.elapsed() > limit {
                self.poison.set();
                lane.cvar.notify_all();
                panic!(
                    "collective watchdog: wire all-to-all {what} rank {owner}'s exchange \
                     #{epoch} after {limit:?} — probable mismatched collective calls \
                     across ranks (set DMBFS_COMM_TIMEOUT_SECS to adjust, 0 to disable)"
                );
            }
        }
    }

    /// Publishes `payload` as rank `rank`'s contribution to exchange
    /// `epoch`, to be collected by `readers` ranks — the depositor's
    /// peers only. The depositor keeps its own bucket local (see
    /// `PendingExchange::own`), so counting it here would leave the slot
    /// unretired forever.
    pub(crate) fn deposit(
        &self,
        rank: usize,
        epoch: u64,
        payload: Arc<ExchangePayload>,
        readers: usize,
    ) {
        let lane = &self.lanes[rank];
        let limit = watchdog_timeout();
        let started = Instant::now();
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if slot.is_none() {
                *slot = Some(Slot {
                    epoch,
                    payload,
                    pending_reads: readers,
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
                limit,
                "deposit still blocked behind the unread predecessor of",
            );
            lane.cvar.wait_for(&mut ring, Duration::from_millis(20));
        }
    }

    /// Collects rank `from`'s contribution to exchange `epoch`, blocking
    /// until that rank has deposited it. This is the only wait-side
    /// dependency: the depositor's *start*, never its wait.
    ///
    /// Before parking on the condvar the collector spends a short
    /// yield-then-recheck phase: when rank threads outnumber cores the
    /// deposit usually lands within a few scheduler quanta, and a
    /// still-runnable collector resumes by vruntime immediately instead
    /// of paying the futex wake + preemption-granularity latency on every
    /// chunk of the pipeline.
    pub(crate) fn collect(&self, from: usize, epoch: u64) -> Arc<ExchangePayload> {
        const YIELDS_BEFORE_PARK: u32 = 64;
        let lane = &self.lanes[from];
        let limit = watchdog_timeout();
        let started = Instant::now();
        let mut yields = 0u32;
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if let Some(s) = slot {
                if s.epoch == epoch {
                    let payload = s.payload.clone();
                    s.pending_reads -= 1;
                    if s.pending_reads == 0 {
                        *slot = None;
                        // Only the slot *retiring* can unblock anyone (a
                        // depositor waiting to reuse it); notifying on
                        // every collect would wake all parked peer
                        // collectors spuriously — O(p²) context switches
                        // per chunk when ranks outnumber cores.
                        lane.cvar.notify_all();
                    }
                    return payload;
                }
            }
            self.check_stuck(
                from,
                epoch,
                started,
                limit,
                "wait still waiting for the start of",
            );
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

    fn payload(tag: u8) -> Arc<ExchangePayload> {
        Arc::new((vec![WireBuf::new(vec![tag], 1)], None))
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn collect_blocks_on_the_deposit_only() {
        let board = Arc::new(ExchangeBoard::new(2, Arc::new(Poison::default())));
        let b = board.clone();
        let reader = thread::spawn(move || b.collect(1, 0));
        thread::sleep(Duration::from_millis(30));
        board.deposit(1, 0, payload(7), 2);
        assert_eq!(reader.join().unwrap().0[0].bytes(), vec![7]);
        // The slot retires only after the second reader collects it.
        assert_eq!(board.collect(1, 0).0[0].bytes(), vec![7]);
        assert!(board.lanes[1].ring.lock()[0].is_none());
    }

    #[test]
    fn adjacent_epochs_live_in_different_ring_slots() {
        let board = ExchangeBoard::new(1, Arc::new(Poison::default()));
        board.deposit(0, 0, payload(1), 1);
        board.deposit(0, 1, payload(2), 1);
        // Collected in order even though both are resident.
        assert_eq!(board.collect(0, 0).0[0].bytes(), vec![1]);
        assert_eq!(board.collect(0, 1).0[0].bytes(), vec![2]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn poison_unblocks_a_stuck_collect() {
        let poison = Arc::new(Poison::default());
        let board = Arc::new(ExchangeBoard::new(1, poison.clone()));
        let b = board.clone();
        let reader = thread::spawn(move || b.collect(0, 5));
        thread::sleep(Duration::from_millis(30));
        poison.set();
        assert!(reader.join().is_err(), "collect must panic on poison");
    }
}
