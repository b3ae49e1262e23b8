//! There is one wire payload shape: a [`WireBuf`] holds its bytes behind an
//! `Arc` from construction, every receiver takes a refcount, and the only
//! rule left is *mutate before the deposit* (see `docs/zero-copy.md`).
//!
//! 1. **Any size round-trips**: an empty and a 1-byte payload cross
//!    `ialltoallv_wire`, `allgatherv_wire` and `sendrecv_wire` intact, with
//!    and without the verifier's checksums.
//! 2. **Refcount is the seal**: `bytes_mut` works on a uniquely owned
//!    buffer and panics while any clone is alive.
//! 3. **Corruption precedes the deposit**: an armed `corrupt=` fault flips
//!    a byte in the sender's still-private buffer, so receivers see the
//!    flip — and the checksum taken before it convicts the sender.

use dmbfs_comm::fault::FaultPlan;
use dmbfs_comm::{Comm, FailureKind, VerifyConfig, VerifyFailure, WireBuf, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const P: usize = 3;

/// The payload rank `from` addresses to rank `to`: empty, one byte, or a
/// few, so every exchange mixes all three sizes.
fn payload(from: usize, to: usize) -> WireBuf {
    let len = (from + to) % 3;
    WireBuf::new(vec![(16 * from + to) as u8; len], 8 * len as u64)
}

/// One pass over the three wire collectives; asserts what each delivers.
fn round_trip(comm: &Comm) {
    let me = comm.rank();
    let recv = comm
        .ialltoallv_wire((0..P).map(|to| payload(me, to)).collect())
        .wait();
    for (from, buf) in recv.iter().enumerate() {
        assert_eq!(*buf, payload(from, me), "all-to-all {from} -> {me}");
    }
    let gathered = comm.allgatherv_wire(payload(me, 0));
    for (from, buf) in gathered.iter().enumerate() {
        assert_eq!(*buf, payload(from, 0), "allgather from {from}");
    }
    let partner = (P - me) % P; // 0 <-> 0, 1 <-> 2
    let back = comm.sendrecv_wire(partner, payload(me, partner));
    assert_eq!(back, payload(partner, me), "sendrecv {partner} -> {me}");
    // Every off-rank wire byte is ledgered as loaned, none as copied.
    let stats = comm.take_stats();
    assert_eq!(stats.copied_bytes(), 0);
    assert_eq!(stats.loaned_bytes(), stats.wire_out());
}

#[test]
fn empty_and_one_byte_payloads_round_trip_through_every_wire_collective() {
    World::run(P, round_trip);
    World::run_verified(P, VerifyConfig::default(), round_trip);
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn bytes_mut_needs_unique_ownership() {
    let mut fresh = WireBuf::new(vec![1, 2, 3], 24);
    fresh.bytes_mut()[0] = 9;
    fresh.bytes_mut().push(4);
    assert_eq!(fresh.bytes(), [9, 2, 3, 4]);
    assert_eq!(fresh.wire_bytes(), 4);

    // A live clone is what a deposit leaves behind: neither half may write.
    let mut a = fresh;
    let mut b = a.clone();
    for half in [&mut a, &mut b] {
        let err = catch_unwind(AssertUnwindSafe(|| {
            half.bytes_mut()[0] = 0xFF;
        }))
        .expect_err("mutating a shared payload must panic");
        let msg = panic_message(err);
        assert!(
            msg.contains("mutate before the deposit"),
            "the panic must name the rule, got: {msg}"
        );
    }
    assert_eq!(
        a.bytes(),
        [9, 2, 3, 4],
        "the refused writes changed nothing"
    );
    // Once every other holder is gone the buffer is private again.
    drop(b);
    a.bytes_mut()[0] = 7;
    assert_eq!(a.bytes()[0], 7);
}

/// Rank 1's first wire payload is corrupted by an armed fault; returns what
/// rank 0 received from it.
fn gather_with_corrupting_rank(comm: &Comm) -> Vec<u8> {
    if comm.rank() == 1 {
        comm.arm_faults("corrupt=5@r1:op0".parse::<FaultPlan>().unwrap());
    }
    let gathered = comm.allgatherv_wire(WireBuf::new(vec![0xA0 + comm.rank() as u8], 8));
    gathered[1].bytes().to_vec()
}

#[test]
fn corruption_flips_before_the_deposit_and_the_checksum_convicts_the_sender() {
    // Verifier off: the flip reaches every receiver, the sender's own
    // gathered copy included — it happened in the buffer all of them share,
    // before it was shared.
    let seen = World::run(P, gather_with_corrupting_rank);
    assert!(seen.iter().all(|b| b == &seen[0]), "{seen:?}");
    assert_eq!(seen[0].len(), 1);
    assert_ne!(
        seen[0][0], 0xA1,
        "the armed fault must have flipped the byte"
    );

    // Verifier on: the checksum was taken before the flip, so the receivers
    // raise a structured corruption report naming rank 1.
    let err = catch_unwind(AssertUnwindSafe(|| {
        World::run_verified(
            P,
            VerifyConfig::with_timeout(Duration::from_secs(5)),
            gather_with_corrupting_rank,
        )
    }))
    .expect_err("a corrupted payload must fail its end-to-end checksum");
    let failure = err
        .downcast::<VerifyFailure>()
        .expect("panic payload must be the structured VerifyFailure");
    assert_eq!(failure.kind, FailureKind::Corruption);
    assert_eq!(failure.corrupt_source, Some(1));
}
