//! Negative tests for collective matching, which the rendezvous board does
//! on every run: each rank-safety violation must produce the structured
//! mismatch/watchdog diagnostic — never a hang. Every scenario runs on a
//! helper thread with a hard receive timeout so a regression fails the
//! test instead of wedging the suite.

use dmbfs_comm::{FailureKind, VerifyFailure, WireBuf, World};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `f` on its own thread and panics if it has not finished within
/// `secs` seconds — the anti-hang harness required around every scenario.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("scenario hung instead of raising a diagnostic")
}

/// Catches the run's panic and downcasts it to the board's structured
/// diagnostic.
fn expect_failure(run: impl FnOnce() + Send + 'static) -> VerifyFailure {
    let payload: Box<dyn Any + Send> = with_deadline(60, move || {
        catch_unwind(AssertUnwindSafe(run)).expect_err("scenario must panic")
    });
    *payload
        .downcast::<VerifyFailure>()
        .expect("panic payload must be the structured VerifyFailure")
}

/// The watchdog limit of every scenario, far below the 300 s default of
/// `DMBFS_COMM_TIMEOUT_SECS`.
const FAST: Duration = Duration::from_millis(300);

#[test]
fn mismatched_collectives_name_both_ranks_and_locations() {
    let failure = expect_failure(|| {
        World::run_with_watchdog(2, FAST, |comm| {
            if comm.rank() == 0 {
                comm.barrier(); // lint: allow(collective-symmetry)
            } else {
                comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(failure.kind, FailureKind::Mismatch);
    assert_eq!(failure.group_size, 2);
    let ops: Vec<_> = failure
        .pending
        .iter()
        .map(|op| op.as_ref().expect("both ranks recorded an operation"))
        .collect();
    assert_eq!(ops[0].rank, 0);
    assert_eq!(ops[0].kind, "barrier");
    assert_eq!(ops[1].rank, 1);
    assert_eq!(ops[1].kind, "allreduce");
    for op in &ops {
        assert!(
            op.location.contains("verify_negative.rs"),
            "location must point at this test file, got {}",
            op.location
        );
    }
    let dump = failure.to_string();
    assert!(dump.contains("collective mismatch"), "{dump}");
    assert!(dump.contains("rank 0: barrier"), "{dump}");
    assert!(dump.contains("rank 1: allreduce"), "{dump}");
}

/// A wire all-to-all against a typed collective: the wait's collect
/// matches the peer's deposit against its start, so the run ends in the
/// typed mismatch, with the wire side named by the start it deposited.
#[test]
fn wire_alltoall_against_a_slot_board_collective_is_a_typed_mismatch() {
    let failure = expect_failure(|| {
        World::run_with_watchdog(2, FAST, |comm| {
            if comm.rank() == 0 {
                let bufs = vec![WireBuf::default(), WireBuf::new(vec![7], 8)];
                comm.alltoallv_wire(bufs); // lint: allow(collective-symmetry)
            } else {
                comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(failure.kind, FailureKind::Mismatch);
    let ops: Vec<_> = failure
        .pending
        .iter()
        .map(|op| op.as_ref().expect("both ranks recorded an operation"))
        .collect();
    assert_eq!(ops[0].kind, "ialltoallv_wire");
    assert_eq!(ops[1].kind, "allreduce");
    assert!(ops
        .iter()
        .all(|op| op.location.contains("verify_negative.rs")));
}

#[test]
fn mismatched_element_type_on_alltoallv_is_caught() {
    let failure = expect_failure(|| {
        World::run_with_watchdog(2, FAST, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv(vec![vec![1u64], vec![2u64]]); // lint: allow(collective-symmetry)
            } else {
                comm.alltoallv(vec![vec![1u32], vec![2u32]]); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(failure.kind, FailureKind::Mismatch);
    let ops: Vec<_> = failure
        .pending
        .iter()
        .map(|op| op.as_ref().expect("both ranks recorded an operation"))
        .collect();
    assert_eq!(ops[0].kind, "alltoallv");
    assert_eq!(ops[1].kind, "alltoallv");
    assert_eq!(ops[0].type_name, "u64");
    assert_eq!(ops[1].type_name, "u32");
    assert!(ops
        .iter()
        .all(|op| op.location.contains("verify_negative.rs")));
}

#[test]
fn absent_rank_triggers_the_watchdog_dump() {
    let failure = expect_failure(|| {
        World::run_with_watchdog(2, FAST, |comm| {
            if comm.rank() == 0 {
                comm.barrier(); // lint: allow(collective-symmetry)
            }
            // Rank 1 sits the collective out entirely and returns.
        });
    });
    assert_eq!(failure.kind, FailureKind::Watchdog);
    assert_eq!(failure.detected_by, 0, "the stuck rank raises the dump");
    let waiting = failure.pending[0]
        .as_ref()
        .expect("rank 0 recorded its pending barrier");
    assert_eq!(waiting.rank, 0);
    assert_eq!(waiting.kind, "barrier");
    assert!(waiting.location.contains("verify_negative.rs"));
    assert!(
        failure.pending[1].is_none(),
        "rank 1 never issued a collective"
    );
    let dump = failure.to_string();
    assert!(dump.contains("collective watchdog"), "{dump}");
    assert!(dump.contains("rank 1: no collective issued"), "{dump}");
}

#[test]
fn lagging_rank_watchdog_reports_the_stale_epoch() {
    // Rank 1 participates in the first barrier but skips the second: the
    // dump must show rank 1 stuck one op behind, not absent.
    let failure = expect_failure(|| {
        World::run_with_watchdog(2, FAST, |comm| {
            comm.barrier();
            if comm.rank() == 0 {
                comm.barrier(); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(failure.kind, FailureKind::Watchdog);
    assert_eq!(failure.epoch, 1);
    let lagging = failure.pending[1]
        .as_ref()
        .expect("rank 1 recorded its first barrier");
    assert_eq!(lagging.epoch, 0);
    assert!(failure.to_string().contains("not yet at op #1"));
}

#[test]
fn verified_sub_communicators_catch_mismatches_too() {
    let failure = expect_failure(|| {
        World::run_with_watchdog(4, FAST, |comm| {
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            if comm.rank() % 2 == 0 {
                row.barrier(); // lint: allow(collective-symmetry)
            } else {
                row.allgather(comm.rank() as u64); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(failure.kind, FailureKind::Mismatch);
    assert_eq!(failure.group_size, 2, "mismatch is on a row communicator");
    assert_ne!(failure.group, 0, "sub-communicators get fresh group ids");
}

/// Split children inherit the world's watchdog limit: world rank 1 sits
/// out a row allreduce, and the run ends in a typed watchdog report naming
/// it within a fraction of a second, not after `DMBFS_COMM_TIMEOUT_SECS`.
#[test]
fn split_children_inherit_the_world_watchdog_limit() {
    let started = Instant::now();
    let failure = expect_failure(|| {
        World::run_with_watchdog(4, FAST, |comm| {
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            if comm.rank() != 1 {
                row.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    let took = started.elapsed();
    assert_eq!(failure.kind, FailureKind::Watchdog);
    assert_eq!(failure.group_size, 2, "the stall is on a row communicator");
    assert_eq!(failure.laggards(), vec![1], "world rank 1 is named");
    assert!(
        took < Duration::from_secs(10),
        "the row board must use the world's 300 ms limit, took {took:?}"
    );
}
