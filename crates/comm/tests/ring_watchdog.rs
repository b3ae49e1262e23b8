//! Without the verifier, a rank waiting for a peer that never arrives must
//! still end in the comm watchdog's panic — never a hang — and the panic
//! must name the waiting collective, the missing rank and the op, whatever
//! the collective: they all rendezvous on the one ring board. Ranks that
//! called *different* collectives meet on that board and fail at once.
//!
//! `DMBFS_COMM_TIMEOUT_SECS` is read once per process, so this file holds
//! a single test that sets it before any communicator exists.

use dmbfs_comm::{WireBuf, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Runs `run` on its own thread, requires it to panic within 30 s, and
/// returns the panic message with how long it took to arrive.
fn panic_message(run: impl FnOnce() + Send + 'static) -> (String, Duration) {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stuck rendezvous hung instead of tripping the watchdog")
        .expect_err("scenario must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("comm panics carry a message");
    (msg, started.elapsed())
}

fn bufs() -> Vec<WireBuf> {
    vec![WireBuf::new(vec![1], 8), WireBuf::new(vec![2], 8)]
}

#[test]
#[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
fn unverified_wire_alltoall_stalls_end_in_the_watchdog() {
    std::env::set_var("DMBFS_COMM_TIMEOUT_SECS", "1");

    // A peer that sits the exchange out: the waiting rank's watchdog names
    // the rank whose start never came.
    let (msg, _) = panic_message(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("collective watchdog"), "{msg}");
    assert!(msg.contains("ialltoallv_wire_wait"), "{msg}");
    assert!(msg.contains("rank 1's op #0"), "{msg}");

    // The same for a peer that sits out a barrier, one op later.
    let (msg, _) = panic_message(|| {
        World::run(2, |comm| {
            comm.allreduce(1u64, |a, b| a + b);
            if comm.rank() == 1 {
                comm.barrier(); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("collective watchdog: barrier"), "{msg}");
    assert!(msg.contains("rank 0's op #1"), "{msg}");

    // And on a sub-communicator: world rank 1 sits out the allreduce of
    // row {0, 1}, where it is rank 1 of 2; row {2, 3} completes.
    let (msg, _) = panic_message(|| {
        World::run(4, |comm| {
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            if comm.rank() != 1 {
                row.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("collective watchdog: allreduce"), "{msg}");
    assert!(msg.contains("on a 2-rank communicator"), "{msg}");
    assert!(msg.contains("rank 1's op #0"), "{msg}");

    // A peer in a different collective instead: both deposit at the same
    // epoch of the same board, so the collector's downcast fails at once —
    // no watchdog involved — and names both ranks and both payload types.
    let (msg, took) = panic_message(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            } else {
                comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("type mismatch at op #0"), "{msg}");
    assert!(msg.contains("run under World::run_verified"), "{msg}");
    assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("`u64`") && msg.contains("WireBuf"), "{msg}");
    assert!(
        took < Duration::from_millis(500),
        "the mismatch must not wait for the 1 s watchdog, took {took:?}"
    );
}
