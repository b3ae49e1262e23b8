//! Exhaustive interleaving check of the depth-2 exchange-ring protocol
//! (`src/exchange.rs`), in the style of `loom`: enumerate *every*
//! scheduler interleaving of an abstract model of the protocol and
//! assert the safety properties the module documentation claims. The
//! vendored offline build has no `loom`, so this is a small in-repo
//! model checker instead: each rank's program is a deterministic
//! sequence of atomic protocol steps (the real steps run under one lane
//! mutex, so they are atomic in the implementation too), the scheduler
//! choice of "which rank steps next" is the only nondeterminism, and a
//! memoized depth-first search visits every reachable global state.
//!
//! Properties checked, over all interleavings:
//! 1. **Deposits never block** — the module-docs depth-2 claim: by the
//!    time any rank deposits epoch `e + 2`, every lane's epoch-`e` slot
//!    has retired. (A depth-1 ring violates this; the negative test
//!    proves the checker can tell.)
//! 2. **No deadlock** — from every reachable state some rank can step
//!    until all are done.
//! 3. **Collects are exact** — a collect only ever observes the epoch it
//!    wants (the `epoch % 2` slot never aliases a live older epoch).
//! 4. **Retirement is exact** — a slot frees exactly when its last
//!    reader collected it, and every program terminates with all lanes
//!    empty.

use std::collections::HashSet;

/// One lane slot: `(epoch, readers_remaining)`.
type Slot = Option<(u64, usize)>;

/// The full protocol state: per-depositor lanes of `depth` slots, plus
/// each rank's program counter.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    lanes: Vec<Vec<Slot>>,
    ranks: Vec<RankPc>,
}

/// Where one rank is in its program: about to run step `step` of epoch
/// `epoch`. Step 0 deposits; steps `1..ranks` collect from the peers in
/// ring order — the same program `PendingExchange` runs (deposit in
/// `ialltoallv_wire`, peer collects in `wait`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct RankPc {
    epoch: u64,
    step: usize,
}

struct Model {
    ranks: usize,
    epochs: u64,
    depth: usize,
}

/// What the checker found across all interleavings.
#[derive(Default, Debug)]
struct Report {
    states: usize,
    /// A reachable state where a rank's deposit found its slot occupied.
    deposit_blocked: bool,
    /// A reachable state where no rank can step but not all are done.
    deadlock: bool,
}

impl Model {
    fn initial(&self) -> State {
        State {
            lanes: vec![vec![None; self.depth]; self.ranks],
            ranks: vec![RankPc { epoch: 0, step: 0 }; self.ranks],
        }
    }

    fn done(&self, s: &State) -> bool {
        s.ranks.iter().all(|r| r.epoch == self.epochs)
    }

    /// The peer rank `r` collects from at step `k` (1-based): ring order
    /// starting after itself, skipping its own lane (the real protocol
    /// keeps the own bucket local).
    fn peer(&self, r: usize, k: usize) -> usize {
        (r + k) % self.ranks
    }

    /// Attempts rank `r`'s next atomic step. `None` = blocked (collect
    /// not yet deposited, or — protocol violation — deposit slot busy,
    /// which is also recorded in `report`).
    fn step(&self, s: &State, r: usize, report: &mut Report) -> Option<State> {
        let pc = s.ranks[r];
        if pc.epoch == self.epochs {
            return None; // finished
        }
        let mut next = s.clone();
        if pc.step == 0 {
            // deposit(r, epoch): claim the `epoch % depth` slot.
            let slot = &mut next.lanes[r][(pc.epoch as usize) % self.depth];
            if slot.is_some() {
                // The real deposit would spin here. Depth 2 promises this
                // is unreachable; record it and treat the rank as blocked
                // so the search continues (and can prove a depth-1 ring
                // reaches it).
                report.deposit_blocked = true;
                return None;
            }
            *slot = Some((pc.epoch, self.ranks - 1));
        } else {
            // collect(peer, epoch).
            let p = self.peer(r, pc.step);
            let slot = &mut next.lanes[p][(pc.epoch as usize) % self.depth];
            match slot {
                Some((e, reads)) if *e == pc.epoch => {
                    *reads -= 1;
                    if *reads == 0 {
                        *slot = None; // retire
                    }
                }
                Some((e, _)) => {
                    // Property 3: the slot may hold an *older* epoch that
                    // has pending readers (we then block), but never a
                    // newer one — that would mean a deposit overwrote a
                    // live slot.
                    assert!(
                        *e < pc.epoch,
                        "rank {r} collecting epoch {} found future epoch {e} \
                         in rank {p}'s lane",
                        pc.epoch
                    );
                    return None; // blocked on the wanted deposit
                }
                None => return None, // blocked on the deposit
            }
        }
        // Advance the program counter.
        let pc = &mut next.ranks[r];
        pc.step += 1;
        if pc.step == self.ranks {
            pc.step = 0;
            pc.epoch += 1;
        }
        Some(next)
    }

    /// Memoized DFS over every interleaving.
    fn check(&self) -> Report {
        let mut report = Report::default();
        let mut seen: HashSet<State> = HashSet::new();
        let mut stack = vec![self.initial()];
        seen.insert(self.initial());
        while let Some(s) = stack.pop() {
            report.states += 1;
            if self.done(&s) {
                // Property 4: termination leaves every lane empty.
                assert!(
                    s.lanes.iter().flatten().all(Option::is_none),
                    "a slot survived full termination"
                );
                continue;
            }
            let mut stepped = false;
            for r in 0..self.ranks {
                if let Some(next) = self.step(&s, r, &mut report) {
                    stepped = true;
                    if seen.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
            if !stepped {
                report.deadlock = true;
            }
        }
        report
    }
}

/// The shipped protocol: depth-2 ring, every interleaving of 3 ranks ×
/// 3 epochs. Deposits never block, no deadlock, every run terminates
/// cleanly. (~10⁴ states; exhaustive, not sampled.)
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn depth_two_ring_is_safe_under_every_interleaving() {
    let report = Model {
        ranks: 3,
        epochs: 3,
        depth: 2,
    }
    .check();
    assert!(
        !report.deposit_blocked,
        "a deposit found its ring slot occupied ({} states)",
        report.states
    );
    assert!(!report.deadlock, "reached a stuck state");
    assert!(report.states > 100, "search must actually branch");
}

/// Scale check on the world size: 4 ranks × 2 epochs.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn depth_two_ring_is_safe_for_four_ranks() {
    let report = Model {
        ranks: 4,
        epochs: 2,
        depth: 2,
    }
    .check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// Tiny configuration kept runnable under Miri so the nightly job still
/// exercises the model itself.
#[test]
fn depth_two_ring_is_safe_for_two_ranks() {
    let report = Model {
        ranks: 2,
        epochs: 2,
        depth: 2,
    }
    .check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// The negative control: a depth-**1** ring *does* reach a state where a
/// deposit finds its slot occupied (rank A deposits epoch 1 before a
/// slow peer collected epoch 0). This is exactly the blocking the
/// depth-2 design eliminates — and it proves the checker can detect the
/// violation it exists to rule out.
#[test]
fn depth_one_ring_reaches_a_blocked_deposit() {
    let report = Model {
        ranks: 2,
        epochs: 2,
        depth: 1,
    }
    .check();
    assert!(
        report.deposit_blocked,
        "a depth-1 ring must block a deposit somewhere in {} states",
        report.states
    );
    assert!(
        !report.deadlock,
        "blocking is transient, not a deadlock: the slow collector can \
         always run first"
    );
}

/// The schedule the blocking `alltoallv_wire` produces: every start is
/// immediately followed by its own wait, many times in a row with no
/// barrier-carrying collective in between (the benchmark's comm layer
/// loops exactly this). In the model that is the same per-epoch program
/// as a pipelined chunk — deposit, then collect every peer — so what this
/// adds is length: six epochs wrap each lane's two slots three times.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn back_to_back_start_wait_pairs_wrap_the_ring_safely() {
    for (ranks, epochs) in [(2, 6), (3, 4)] {
        let report = Model {
            ranks,
            epochs,
            depth: 2,
        }
        .check();
        assert!(
            !report.deposit_blocked && !report.deadlock,
            "{ranks} ranks x {epochs} epochs: {report:?}"
        );
    }
}

/// The same schedule on the real board: a tight loop of blocking wire
/// all-to-alls, a slot-board collective only every few iterations, must
/// hand every rank exactly what its peers addressed to it in that epoch.
#[test]
#[cfg_attr(miri, ignore = "hundreds of cross-thread rendezvous")]
fn back_to_back_blocking_exchanges_deliver_every_epoch_exactly() {
    use dmbfs_comm::{WireBuf, World};
    const RANKS: usize = 4;
    World::run(RANKS, |comm| {
        for epoch in 0..200u64 {
            let me = comm.rank() as u64;
            let bufs = (0..RANKS as u64)
                .map(|to| WireBuf::new(vec![me as u8, to as u8, epoch as u8], epoch))
                .collect();
            let recv = comm.alltoallv_wire(bufs);
            for (from, buf) in recv.iter().enumerate() {
                assert_eq!(buf.bytes(), [from as u8, me as u8, epoch as u8]);
                assert_eq!(buf.logical_bytes, epoch);
            }
            if epoch % 7 == 0 {
                assert_eq!(comm.allreduce(1u64, |a, b| a + b), RANKS as u64);
            }
        }
    });
}
