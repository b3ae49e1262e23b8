//! Without the verifier, a rank stuck in the wire all-to-all must still end
//! in the comm watchdog's panic — never a hang — now that the blocking
//! `alltoallv_wire` rendezvouses on the exchange ring instead of the
//! two-barrier slot board.
//!
//! `DMBFS_COMM_TIMEOUT_SECS` is read once per process, so this file holds
//! a single test that sets it before any communicator exists.

use dmbfs_comm::{WireBuf, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `run` on its own thread, requires it to panic within 30 s, and
/// returns the panic message.
fn watchdog_message(run: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("stuck exchange hung instead of tripping the watchdog")
        .expect_err("scenario must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("watchdog panics carry a message")
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
    let msg = watchdog_message(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("collective watchdog"), "{msg}");
    assert!(msg.contains("rank 1's exchange #0"), "{msg}");

    // A peer in a slot-board collective instead: both sides are stuck on
    // different boards, and whichever watchdog fires first ends the run.
    let msg = watchdog_message(|| {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.alltoallv_wire(bufs()); // lint: allow(collective-symmetry)
            } else {
                comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
            }
        });
    });
    assert!(msg.contains("collective watchdog"), "{msg}");
}
