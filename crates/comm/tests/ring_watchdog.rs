//! With no per-run limit, a rank waiting for a peer that never arrives
//! must still end in the board's watchdog (`DMBFS_COMM_TIMEOUT_SECS`) —
//! never a hang — as a typed [`VerifyFailure`] naming the missing rank by
//! its world rank and the op it was waited for at, whatever the
//! collective: they all rendezvous on the one ring board. Ranks that
//! called *different* collectives meet on that board and fail at once.
//!
//! `DMBFS_COMM_TIMEOUT_SECS` is read once per process, so this file holds
//! a single test that sets it before any communicator exists.

use dmbfs_comm::{FailureKind, VerifyFailure, WireBuf, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `run` on its own thread, requires it to panic within 30 s with the
/// board's typed report, and returns the report with how long it took.
fn failure(run: impl FnOnce() + Send + 'static) -> (VerifyFailure, Duration) {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stuck rendezvous hung instead of tripping the watchdog")
        .expect_err("scenario must panic");
    let failure = payload
        .downcast::<VerifyFailure>()
        .expect("board failures are typed VerifyFailures");
    (*failure, started.elapsed())
}

fn bufs() -> Vec<WireBuf> {
    vec![WireBuf::new(vec![1], 8), WireBuf::new(vec![2], 8)]
}

#[test]
#[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
fn stalled_and_mismatched_collectives_end_in_typed_failures() {
    std::env::set_var("DMBFS_COMM_TIMEOUT_SECS", "1");

    // A peer that sits the exchange out: the waiting rank's watchdog names
    // the rank whose start never came.
    let (f, _) = failure(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(f.kind, FailureKind::Watchdog, "{f}");
    assert_eq!((f.epoch, f.detected_by), (0, 0), "{f}");
    assert_eq!(f.laggards(), vec![1], "{f}");
    let waiting = f.pending[0].as_ref().expect("rank 0 deposited its start");
    assert_eq!(waiting.kind, "ialltoallv_wire", "{f}");

    // The same for a peer that sits out a barrier, one op later.
    let (f, _) = failure(|| {
        World::run(2, |comm| {
            comm.allreduce(1u64, |a, b| a + b);
            if comm.rank() == 1 {
                comm.barrier(); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(f.kind, FailureKind::Watchdog, "{f}");
    assert_eq!((f.epoch, f.detected_by), (1, 1), "{f}");
    assert_eq!(f.laggards(), vec![0], "{f}");

    // And on a sub-communicator: world rank 1 sits out the allreduce of
    // row {0, 1}, where it is rank 1 of 2; row {2, 3} completes. The report
    // names world ranks.
    let (f, _) = failure(|| {
        World::run(4, |comm| {
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            if comm.rank() != 1 {
                row.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(f.kind, FailureKind::Watchdog, "{f}");
    assert_eq!(f.group_size, 2, "{f}");
    assert_ne!(f.group, 0, "the row board has its own group id");
    assert_eq!(f.labels, vec![0, 1], "{f}");
    assert_eq!(f.laggards(), vec![1], "{f}");

    // A peer in a different collective instead: both deposit at the same
    // epoch of the same board, so the collector's fingerprint check fails
    // at once — no watchdog involved — and names both ranks' collectives.
    let (f, took) = failure(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            } else {
                comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert_eq!(f.kind, FailureKind::Mismatch, "{f}");
    assert_eq!(f.epoch, 0, "{f}");
    let dump = f.to_string();
    assert!(dump.contains("rank 0: ialltoallv_wire<WireBuf>"), "{dump}");
    assert!(dump.contains("rank 1: allreduce<u64>"), "{dump}");
    assert!(
        took < Duration::from_millis(500),
        "the mismatch must not wait for the 1 s watchdog, took {took:?}"
    );
}
