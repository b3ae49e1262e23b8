//! Property-based tests for the message-passing runtime: arbitrary payload
//! shapes through every collective must match a single-process oracle.

use dmbfs_comm::{WireBuf, World};
use proptest::prelude::*;

proptest! {
    // World spawning is comparatively expensive; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoallv_matches_oracle(
        p in 1usize..7,
        payload in prop::collection::vec(prop::collection::vec(0u64..1000, 0..5), 0..49),
    ) {
        // Build a deterministic p x p matrix of buffers from the payload.
        let buf = |src: usize, dst: usize| -> Vec<u64> {
            payload.get((src * p + dst) % payload.len().max(1)).cloned().unwrap_or_default()
        };
        let results = World::run(p, |comm| {
            let bufs: Vec<Vec<u64>> = (0..p).map(|dst| buf(comm.rank(), dst)).collect();
            comm.alltoallv(bufs)
        });
        for (dst, recv) in results.iter().enumerate() {
            prop_assert_eq!(recv.len(), p);
            for (src, got) in recv.iter().enumerate() {
                prop_assert_eq!(got, &buf(src, dst), "src {} -> dst {}", src, dst);
            }
        }
    }

    #[test]
    fn allgatherv_matches_oracle(
        p in 1usize..7,
        lens in prop::collection::vec(0usize..6, 1..7),
    ) {
        let len_of = |r: usize| lens[r % lens.len()];
        let results = World::run(p, |comm| {
            comm.allgather(vec![comm.rank() as u32; len_of(comm.rank())])
        });
        for recv in &results {
            for (src, got) in recv.iter().enumerate() {
                prop_assert_eq!(got, &vec![src as u32; len_of(src)]);
            }
        }
    }

    #[test]
    fn allreduce_is_identical_on_all_ranks(
        p in 1usize..9,
        values in prop::collection::vec(0u64..1_000_000, 1..9),
    ) {
        let val_of = |r: usize| values[r % values.len()];
        let results = World::run(p, |comm| {
            comm.allreduce(val_of(comm.rank()), |a, b| a.wrapping_add(b))
        });
        let expected: u64 = (0..p).map(val_of).fold(0, u64::wrapping_add);
        for r in results {
            prop_assert_eq!(r, expected);
        }
    }

    #[test]
    fn split_groups_partition_the_world(
        p in 1usize..10,
        colors in prop::collection::vec(0u64..4, 1..10),
    ) {
        let color_of = |r: usize| colors[r % colors.len()];
        let results = World::run(p, |comm| {
            let sub = comm.split(color_of(comm.rank()), comm.rank() as u64);
            (sub.rank(), sub.size(), sub.allgather(comm.rank()))
        });
        for (r, (sub_rank, sub_size, members)) in results.iter().enumerate() {
            let expected: Vec<usize> =
                (0..p).filter(|&q| color_of(q) == color_of(r)).collect();
            prop_assert_eq!(*sub_size, expected.len());
            prop_assert_eq!(members, &expected);
            prop_assert_eq!(members[*sub_rank], r);
        }
    }

    #[test]
    fn random_rank_panics_never_deadlock(
        p in 2usize..8,
        victim_seed in any::<usize>(),
        crash_round in 0usize..5,
    ) {
        // Fuzz the failure path: one random rank panics at a random point
        // in a collective-heavy program; the world must return an Err to
        // catch_unwind quickly instead of hanging.
        let victim = victim_seed % p;
        let result = std::panic::catch_unwind(|| {
            World::run(p, |comm| {
                for round in 0..6u64 {
                    if comm.rank() == victim && round as usize == crash_round {
                        panic!("fuzzed failure");
                    }
                    let bufs: Vec<Vec<u64>> = (0..p).map(|d| vec![round; d % 3]).collect();
                    let _ = comm.alltoallv(bufs);
                    let _ = comm.allreduce(round, |a, b| a + b);
                }
            })
        });
        prop_assert!(result.is_err());
    }

    #[test]
    fn sendrecv_applies_any_involution(p in 1usize..9, swap_pairs in any::<bool>()) {
        // Partner map: either identity or pairwise swap (p even pairs).
        let partner = move |r: usize| -> usize {
            if swap_pairs && p >= 2 {
                if r.is_multiple_of(2) && r + 1 < p { r + 1 } else if r % 2 == 1 { r - 1 } else { r }
            } else {
                r
            }
        };
        // The diagonal (a self-partner) is a local loop-back.
        let results = World::run(p, |comm| {
            let sent = WireBuf::new(vec![comm.rank() as u8], 8);
            comm.sendrecv_wire(partner(comm.rank()), sent)
        });
        for (r, got) in results.iter().enumerate() {
            prop_assert_eq!(got.bytes(), &[partner(r) as u8][..]);
            prop_assert_eq!(got.logical_bytes, 8);
        }
    }
}
