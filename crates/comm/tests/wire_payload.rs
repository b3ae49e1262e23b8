//! There is one wire payload shape: a [`WireBuf`] holds its bytes behind an
//! `Arc` from construction, every receiver takes a refcount, and the only
//! rule left is *mutate before the deposit* (see `docs/zero-copy.md`).
//!
//! 1. **Any size round-trips**: an empty and a 1-byte payload cross
//!    `ialltoallv_wire`, `allgatherv_wire` and `sendrecv_wire` intact, bare
//!    and under an idle armed fault plan, which adds end-to-end checksums.
//! 2. **Corruption precedes the deposit**: an armed `corrupt=` fault flips
//!    a byte in the sender's still-private buffer, so the flip is in the
//!    allocation every receiver reads — and the checksum taken before it
//!    convicts the sender.

use dmbfs_comm::fault::FaultPlan;
use dmbfs_comm::{Comm, FailureKind, VerifyFailure, WireBuf, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

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
    // A plan parked at a level no exchange reaches: never fires, but every
    // wire payload now carries a checksum the receivers verify.
    let idle: FaultPlan = "panic@r0:level1000000".parse().unwrap();
    World::run(P, |comm| {
        comm.arm_faults(idle);
        round_trip(comm)
    });
}

/// Rank 1's first wire payload is corrupted by an armed fault; returns what
/// this rank received from it.
fn gather_with_corrupting_rank(comm: &Comm) -> Vec<u8> {
    if comm.rank() == 1 {
        comm.arm_faults("corrupt=5@r1:op0".parse::<FaultPlan>().unwrap());
    }
    let gathered = comm.allgatherv_wire(WireBuf::new(vec![0xA0 + comm.rank() as u8], 8));
    gathered[1].bytes().to_vec()
}

#[test]
fn corruption_flips_before_the_deposit_and_the_checksum_convicts_the_sender() {
    // Two ranks: rank 0 deposits before it reads (and fails on) rank 1's
    // payload, so rank 1 always completes and reports its own gathered copy
    // — the allocation rank 0 read.
    let own_copy = Mutex::new(None);
    let err = catch_unwind(AssertUnwindSafe(|| {
        World::run(2, |comm| {
            let seen = gather_with_corrupting_rank(comm);
            if comm.rank() == 1 {
                *own_copy.lock().unwrap() = Some(seen);
            }
        })
    }))
    .expect_err("a corrupted payload must fail its end-to-end checksum");
    let failure = err
        .downcast::<VerifyFailure>()
        .expect("panic payload must be the structured VerifyFailure");
    assert_eq!(failure.kind, FailureKind::Corruption);
    assert_eq!(failure.corrupt_source, Some(1), "{failure}");
    assert_eq!(failure.detected_by, 0, "{failure}");
    // The flip happened in the shared buffer, before it was shared.
    let own = own_copy.into_inner().unwrap().expect("rank 1 completed");
    assert_eq!(own.len(), 1);
    assert_ne!(own[0], 0xA1, "the armed fault must have flipped the byte");
}
