//! Failure-injection and stress tests for the message-passing runtime —
//! the substrate every distributed result in this repository rests on.

use dmbfs::comm::{Comm, WireBuf, World};
use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn panic_in_one_rank_fails_the_world_without_deadlock() {
    for panicking_rank in [0usize, 3, 7] {
        let result = catch_unwind(|| {
            World::run(8, |comm| {
                if comm.rank() == panicking_rank {
                    panic!("injected failure at rank {panicking_rank}");
                }
                // Everyone else blocks in collectives; poison must free them.
                for _ in 0..10 {
                    comm.barrier();
                    comm.allreduce(1u64, |a, b| a + b);
                }
            })
        });
        assert!(
            result.is_err(),
            "rank {panicking_rank} panic must propagate"
        );
    }
}

#[test]
fn panic_inside_subcommunicator_propagates() {
    let result = catch_unwind(|| {
        World::run(6, |comm| {
            let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64);
            if comm.rank() == 5 {
                panic!("boom in the odd group");
            }
            // Both groups keep running collectives; the even group never
            // observes rank 5 directly but must still unblock via poison.
            for _ in 0..10 {
                sub.allreduce(1u64, |a, b| a + b);
            }
        })
    });
    assert!(result.is_err());
}

#[test]
fn worlds_are_isolated_after_a_failure() {
    let _ = catch_unwind(|| {
        World::run(4, |comm| {
            if comm.rank() == 1 {
                panic!("first world dies");
            }
            comm.barrier();
        })
    });
    // A fresh world must be unaffected.
    let sums = World::run(4, |comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
    assert_eq!(sums, vec![6; 4]);
}

#[test]
fn heavy_collective_traffic_is_lossless() {
    // Stress: 32 ranks, 50 rounds of uneven alltoallv; every payload must
    // arrive intact and in the right mailbox.
    let rounds = 50u64;
    let p = 32usize;
    let results = World::run(p, |comm| {
        let me = comm.rank() as u64;
        let mut checksum = 0u64;
        for round in 0..rounds {
            let bufs: Vec<Vec<u64>> = (0..p as u64)
                .map(|dst| {
                    let len = ((me + dst + round) % 7) as usize;
                    vec![me * 1_000_000 + dst * 1_000 + round; len]
                })
                .collect();
            let recv = comm.alltoallv(bufs);
            for (src, buf) in recv.iter().enumerate() {
                let expected_len = ((src as u64 + me + round) % 7) as usize;
                assert_eq!(buf.len(), expected_len, "round {round} src {src}");
                for &x in buf {
                    assert_eq!(x, src as u64 * 1_000_000 + me * 1_000 + round);
                    checksum = checksum.wrapping_add(x);
                }
            }
        }
        checksum
    });
    assert_eq!(results.len(), p);
}

#[test]
fn mixed_collectives_in_lockstep_are_consistent() {
    let counter = AtomicUsize::new(0);
    World::run(9, |comm| {
        let grid = 3usize;
        let (i, j) = (comm.rank() / grid, comm.rank() % grid);
        let row = comm.split(i as u64, j as u64);
        let col = comm.split((grid + j) as u64, i as u64);
        for _ in 0..20 {
            let row_sum = row.allreduce(comm.rank() as u64, |a, b| a + b);
            let col_sum = col.allreduce(comm.rank() as u64, |a, b| a + b);
            // Row i holds {3i, 3i+1, 3i+2}; column j holds {j, j+3, j+6}.
            assert_eq!(row_sum, (9 * i + 3) as u64);
            assert_eq!(col_sum, (3 * j + 9) as u64);
            // The transpose partner; the diagonal partners itself.
            let sent = WireBuf::new(vec![comm.rank() as u8], 4);
            let t = comm.sendrecv_wire(j * grid + i, sent);
            assert_eq!(t.bytes(), [(j * grid + i) as u8]);
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(counter.load(Ordering::Relaxed), 9 * 20);
}

#[test]
fn single_rank_comm_supports_whole_api() {
    let comm = Comm::single();
    let buf = WireBuf::new(vec![1, 2], 16);
    comm.barrier();
    assert_eq!(comm.alltoallv(vec![vec![3u32]]), vec![vec![3]]);
    assert_eq!(comm.alltoallv_wire(vec![buf.clone()]), vec![buf.clone()]);
    assert_eq!(
        comm.ialltoallv_wire(vec![buf.clone()]).wait(),
        vec![buf.clone()]
    );
    assert_eq!(comm.allgatherv_wire(buf.clone()), vec![buf.clone()]);
    assert_eq!(comm.sendrecv_wire(0, buf.clone()), buf);
    assert_eq!(comm.allgather(7u8), vec![7]);
    assert_eq!(comm.allreduce(5u64, |a, b| a + b), 5);
    let sub = comm.split(0, 0);
    assert_eq!(sub.size(), 1);
    // One event per collective; the split records its two rounds.
    assert_eq!(comm.stats().num_calls(), 10);
}

#[test]
fn stats_survive_heavy_splitting() {
    let all = World::run(8, |comm| {
        let sub = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
        let subsub = sub.split(0, sub.rank() as u64);
        subsub.allreduce(1u64, |a, b| a + b);
        let stats = subsub.take_stats();
        (subsub.size(), stats.num_calls())
    });
    for (size, calls) in all {
        assert_eq!(size, 2);
        assert_eq!(calls, 1);
    }
}
