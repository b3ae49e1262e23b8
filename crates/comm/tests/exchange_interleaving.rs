//! Exhaustive interleaving check of the depth-2 ring protocol every
//! collective runs on (`src/exchange.rs`), in the style of `loom`:
//! enumerate *every* scheduler interleaving of an abstract model of the
//! protocol and assert the safety properties the module documentation
//! claims. The vendored offline build has no `loom`, so this is a small
//! in-repo model checker instead: each rank's program is a deterministic
//! sequence of atomic protocol steps (the real steps run under one lane
//! mutex, so they are atomic in the implementation too), the scheduler
//! choice of "which rank steps next" is the only nondeterminism, and a
//! memoized depth-first search visits every reachable global state.
//!
//! A program is a sequence of collectives over **one epoch counter**, each
//! either *fused* (deposit, then collect every peer — `barrier`,
//! `allreduce`, `allgatherv_wire`, …) or *split* (`ialltoallv_wire`:
//! deposit, the caller's own work, then the collects of `wait`). Every
//! rank runs the same program, as collective discipline demands.
//!
//! Properties checked, over all interleavings:
//! 1. **Deposits never block** — the module-docs depth-2 claim: by the
//!    time any rank deposits epoch `e + 2`, every lane's epoch-`e` slot
//!    has retired. (A depth-1 ring violates this, and so does a program
//!    that breaks the one-in-flight premise; the negative tests prove the
//!    checker can tell.)
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
/// each rank's program counter (an index into [`Model::steps`]).
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    lanes: Vec<Vec<Slot>>,
    pcs: Vec<usize>,
}

/// One collective of a program.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Deposit, then collect every peer: any blocking collective.
    Fused,
    /// Deposit, local work, then collect every peer: `ialltoallv_wire`,
    /// the caller's overlapped work, `PendingExchange::wait`.
    Split,
}

/// One atomic step of a rank's program.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Publish this rank's contribution to `epoch` in its own lane.
    Deposit(u64),
    /// Collect `epoch` from the peer `offset` places after this rank.
    Collect { epoch: u64, offset: usize },
    /// Touches no lane: the window between a start and its wait.
    Work,
}

struct Model {
    ranks: usize,
    depth: usize,
    /// The step program every rank runs.
    steps: Vec<Step>,
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
    /// The model of a well-formed program: collective `e` of `ops` runs at
    /// epoch `e`, and the next one starts only after its last collect. A
    /// single-rank group skips the board, as `Comm::publish` does.
    fn new(ranks: usize, depth: usize, ops: &[Op]) -> Self {
        let mut steps = Vec::new();
        for (epoch, op) in (0u64..).zip(ops) {
            if ranks > 1 {
                steps.push(Step::Deposit(epoch));
            }
            if *op == Op::Split {
                steps.push(Step::Work);
            }
            steps.extend((1..ranks).map(|offset| Step::Collect { epoch, offset }));
        }
        Self {
            ranks,
            depth,
            steps,
        }
    }

    /// `epochs` fused collectives back to back.
    fn fused(ranks: usize, depth: usize, epochs: usize) -> Self {
        Self::new(ranks, depth, &vec![Op::Fused; epochs])
    }

    fn initial(&self) -> State {
        State {
            lanes: vec![vec![None; self.depth]; self.ranks],
            pcs: vec![0; self.ranks],
        }
    }

    fn done(&self, s: &State) -> bool {
        s.pcs.iter().all(|&pc| pc == self.steps.len())
    }

    /// Attempts rank `r`'s next atomic step. `None` = blocked (collect
    /// not yet deposited, or — protocol violation — deposit slot busy,
    /// which is also recorded in `report`).
    fn step(&self, s: &State, r: usize, report: &mut Report) -> Option<State> {
        let step = *self.steps.get(s.pcs[r])?; // `None`: finished
        let mut next = s.clone();
        match step {
            Step::Work => {}
            Step::Deposit(epoch) => {
                let slot = &mut next.lanes[r][(epoch as usize) % self.depth];
                if slot.is_some() {
                    // The real deposit would spin here. Depth 2 promises
                    // this is unreachable; record it and treat the rank as
                    // blocked so the search continues (and can prove a
                    // depth-1 ring reaches it).
                    report.deposit_blocked = true;
                    return None;
                }
                *slot = Some((epoch, self.ranks - 1));
            }
            Step::Collect { epoch, offset } => {
                // Ring order starting after itself, skipping its own lane
                // (the real protocol keeps the own contribution local).
                let p = (r + offset) % self.ranks;
                let slot = &mut next.lanes[p][(epoch as usize) % self.depth];
                match slot {
                    Some((e, reads)) if *e == epoch => {
                        *reads -= 1;
                        if *reads == 0 {
                            *slot = None; // retire
                        }
                    }
                    Some((e, _)) => {
                        // Property 3: the slot may hold an *older* epoch
                        // that has pending readers (we then block), but
                        // never a newer one — that would mean a deposit
                        // overwrote a live slot.
                        assert!(
                            *e < epoch,
                            "rank {r} collecting epoch {epoch} found future epoch {e} \
                             in rank {p}'s lane"
                        );
                        return None; // blocked on the wanted deposit
                    }
                    None => return None, // blocked on the deposit
                }
            }
        }
        next.pcs[r] += 1;
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
    let report = Model::fused(3, 2, 3).check();
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
    let report = Model::fused(4, 2, 2).check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// Tiny configuration kept runnable under Miri so the nightly job still
/// exercises the model itself.
#[test]
fn depth_two_ring_is_safe_for_two_ranks() {
    let report = Model::fused(2, 2, 2).check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// Every mixed program: each sequence of up to four collectives, fused or
/// split, sharing one epoch counter, on groups of one to three ranks —
/// what a BFS level is made of (wire exchange chunks, then the
/// termination allreduce, then the next level's). Properties 1–4 hold
/// over every interleaving of every one; a single-rank group never
/// touches the board.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn mixed_fused_and_split_programs_are_safe_on_one_epoch_counter() {
    for ranks in 1..=3 {
        for len in 1..=4 {
            for bits in 0..1u32 << len {
                let ops: Vec<Op> = (0..len)
                    .map(|i| match (bits >> i) & 1 {
                        0 => Op::Fused,
                        _ => Op::Split,
                    })
                    .collect();
                let report = Model::new(ranks, 2, &ops).check();
                assert!(
                    !report.deposit_blocked && !report.deadlock,
                    "{ranks} ranks running {ops:?}: {report:?}"
                );
                if ranks == 1 {
                    let splits = ops.iter().filter(|&&op| op == Op::Split).count();
                    assert_eq!(report.states, splits + 1, "only the work steps remain");
                }
            }
        }
    }
}

/// The negative control: a depth-**1** ring *does* reach a state where a
/// deposit finds its slot occupied (rank A deposits epoch 1 before a
/// slow peer collected epoch 0). This is exactly the blocking the
/// depth-2 design eliminates — and it proves the checker can detect the
/// violation it exists to rule out.
#[test]
fn depth_one_ring_reaches_a_blocked_deposit() {
    let report = Model::fused(2, 1, 2).check();
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

/// The second negative control, for the proof's premise: a collective
/// issued *between* a start and its wait (what `Comm::assert_no_inflight`
/// forbids) lets a rank deposit epoch 2 while a peer has yet to collect
/// its epoch 0, and the depth-2 ring blocks that deposit.
#[test]
fn a_collective_inside_a_start_wait_window_can_block_a_deposit() {
    let collect = |epoch| Step::Collect { epoch, offset: 1 };
    let steps = vec![
        Step::Deposit(0), // start
        Step::Deposit(1), // the interleaved collective …
        collect(1),
        collect(0), // … and only then the wait
        Step::Deposit(2),
        collect(2),
    ];
    let report = Model {
        ranks: 2,
        depth: 2,
        steps,
    }
    .check();
    assert!(report.deposit_blocked, "{report:?}");
}

/// The schedule the blocking `alltoallv_wire` produces: every start is
/// immediately followed by its own wait, many times in a row (the
/// benchmark's comm layer loops exactly this). What this adds is length:
/// six epochs wrap each lane's two slots three times.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn back_to_back_start_wait_pairs_wrap_the_ring_safely() {
    for (ranks, epochs) in [(2, 6), (3, 4)] {
        let report = Model::new(ranks, 2, &vec![Op::Split; epochs]).check();
        assert!(
            !report.deposit_blocked && !report.deadlock,
            "{ranks} ranks x {epochs} epochs: {report:?}"
        );
    }
}

/// The same mix on the real board: a tight loop of wire all-to-alls,
/// blocking and split, with typed collectives on the same epoch counter
/// every few iterations, must hand every rank exactly what its peers
/// contributed in that epoch.
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
            let recv = if epoch % 2 == 0 {
                comm.alltoallv_wire(bufs)
            } else {
                comm.ialltoallv_wire(bufs).wait()
            };
            for (from, buf) in recv.iter().enumerate() {
                assert_eq!(buf.bytes(), [from as u8, me as u8, epoch as u8]);
                assert_eq!(buf.logical_bytes, epoch);
            }
            if epoch % 3 == 0 {
                let sum = comm.allreduce(epoch + me, |a, b| a + b);
                assert_eq!(sum, RANKS as u64 * epoch + 6);
            }
            if epoch % 7 == 0 {
                comm.barrier();
                assert_eq!(comm.allgather(epoch * me), [0, epoch, 2 * epoch, 3 * epoch]);
            }
        }
    });
}
