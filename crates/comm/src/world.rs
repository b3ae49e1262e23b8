//! World launcher: one thread per rank, panic propagation.

use crate::comm::Comm;
use crate::exchange::{watchdog_timeout, ExchangeBoard, Poison};
use crate::fault::{FailStopExit, InjectedFault};
use crate::verify::{FailureKind, VerifyFailure};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Entry point of the runtime: runs a closure on `p` simulated ranks.
///
/// Analogous to `mpiexec -n p`: each rank executes `f(comm)` on its own OS
/// thread, where `comm` is its handle to the world communicator. The rank
/// closure owns all of its state; the only sharing is through collectives.
pub struct World;

impl World {
    /// Runs `f` on `p` ranks and returns their results indexed by rank.
    ///
    /// # Examples
    /// ```
    /// use dmbfs_comm::World;
    ///
    /// // Four ranks compute a global sum, MPI-style.
    /// let sums = World::run(4, |comm| {
    ///     comm.allreduce(comm.rank() as u64, |a, b| a + b)
    /// });
    /// assert_eq!(sums, vec![6, 6, 6, 6]);
    /// ```
    ///
    /// # Panics
    /// If any rank panics, the world is poisoned (unblocking every
    /// collective) and the root-cause payload is re-raised here after all
    /// threads have been joined — a failed rank can never deadlock the
    /// caller. Every collective matches call-site fingerprints across ranks
    /// at the rendezvous, so a mismatched collective or element type, or a
    /// rank sitting out a collective past the watchdog limit
    /// (`DMBFS_COMM_TIMEOUT_SECS`, default 300 s), raises a structured
    /// [`VerifyFailure`] naming every rank's pending operation and source
    /// location instead of a deadlock or a garbled exchange.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_inner(p, watchdog_timeout(), f)
    }

    /// Like [`World::run`], with the rendezvous watchdog limit set to
    /// `limit` for this world and every communicator split off it,
    /// overriding `DMBFS_COMM_TIMEOUT_SECS` — so a fault experiment names a
    /// silent rank in a fraction of a second instead of minutes.
    ///
    /// # Examples
    /// ```
    /// use dmbfs_comm::World;
    /// use std::time::Duration;
    ///
    /// let sums = World::run_with_watchdog(4, Duration::from_secs(5), |comm| {
    ///     comm.allreduce(comm.rank() as u64, |a, b| a + b)
    /// });
    /// assert_eq!(sums, vec![6, 6, 6, 6]);
    /// ```
    pub fn run_with_watchdog<R, F>(p: usize, limit: Duration, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        Self::run_inner(p, Some(limit), f)
    }

    fn run_inner<R, F>(p: usize, limit: Option<Duration>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        assert!(p > 0, "need at least one rank");
        let poison = Arc::new(Poison::default());
        let board = Arc::new(ExchangeBoard::new(p, poison.clone(), limit));
        let f = &f;

        let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let board = board.clone();
                    let poison = poison.clone();
                    scope.spawn(move || {
                        let comm = Comm::new(board, rank);
                        let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        // An injected fail-stop is a *silent* death: the
                        // rank vanishes without poisoning the world, so
                        // peers learn of it only by timing out — the
                        // board's watchdog names it, exactly as for a
                        // fail-stopped MPI process.
                        if result.as_ref().is_err_and(|e| !e.is::<FailStopExit>()) {
                            poison.set();
                        }
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join().unwrap_or_else(|_| {
                        panic!("rank {rank} thread itself died outside catch_unwind during join")
                    })
                })
                .collect()
        });

        let mut ok = Vec::with_capacity(p);
        let mut panics = Vec::new();
        for r in results {
            match r {
                Ok(v) => ok.push(v),
                Err(payload) => panics.push(payload),
            }
        }
        if let Some(payload) = pick_root_cause(panics) {
            resume_unwind(payload);
        }
        ok
    }
}

/// Returns the panic payload to re-raise, if any. Priority order, so the
/// root cause surfaces instead of a secondary symptom:
///
/// 1. a typed [`InjectedFault`] — the fault *was* the experiment;
/// 2. a [`VerifyFailure`] that is not a watchdog (mismatch/corruption are
///    direct evidence, a watchdog is circumstantial);
/// 3. the watchdog [`VerifyFailure`] naming the fewest laggards — when a
///    stall cascades across sub-communicators (2D row/column), the board
///    closest to the dead rank blames the smallest set;
/// 4. any other payload that is neither a poison echo nor a silent
///    [`FailStopExit`];
/// 5. a [`FailStopExit`] (peers' reports explain the run better, but if
///    nothing else surfaced it is still the truth);
/// 6. the sympathetic "communicator poisoned" panic.
///
/// If some ranks succeeded we still fail the whole run: a partial world
/// result is never meaningful.
fn pick_root_cause(
    panics: Vec<Box<dyn std::any::Any + Send>>,
) -> Option<Box<dyn std::any::Any + Send>> {
    fn is_poison_echo(payload: &dyn std::any::Any) -> bool {
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned());
        msg.is_some_and(|m| m.contains("communicator poisoned"))
    }
    let mut best_watchdog: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    let mut fallback = None;
    let mut fail_stop = None;
    let mut poison_echo = None;
    for payload in panics {
        if payload.is::<InjectedFault>() {
            return Some(payload);
        }
        if let Some(failure) = payload.downcast_ref::<VerifyFailure>() {
            if failure.kind != FailureKind::Watchdog {
                return Some(payload);
            }
            let laggards = failure.laggards().len();
            if best_watchdog.as_ref().is_none_or(|(n, _)| laggards < *n) {
                best_watchdog = Some((laggards, payload));
            }
            continue;
        }
        if payload.is::<FailStopExit>() {
            fail_stop.get_or_insert(payload);
        } else if is_poison_echo(payload.as_ref()) {
            poison_echo.get_or_insert(payload);
        } else {
            fallback.get_or_insert(payload);
        }
    }
    best_watchdog
        .map(|(_, p)| p)
        .or(fallback)
        .or(fail_stop)
        .or(poison_echo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pattern;

    #[test]
    fn ranks_see_their_ids() {
        let ids = World::run(4, |comm| (comm.rank(), comm.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world_works() {
        let out = World::run(1, |comm| {
            comm.barrier();
            comm.allreduce(21u64, |a, b| a + b)
        });
        assert_eq!(out, vec![21]);
    }

    #[test]
    fn barrier_releases_nobody_before_everyone_arrived() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        World::run(4, |comm| {
            for round in 1..=50 {
                arrived.fetch_add(1, Ordering::SeqCst);
                comm.barrier();
                assert!(arrived.load(Ordering::SeqCst) >= round * 4);
            }
        });
    }

    #[test]
    fn alltoallv_routes_payloads() {
        let out = World::run(3, |comm| {
            // Rank r sends vec![r*10 + j] to rank j.
            let bufs: Vec<Vec<u64>> = (0..3)
                .map(|j| vec![(comm.rank() * 10 + j) as u64])
                .collect();
            comm.alltoallv(bufs)
        });
        // Rank j receives from rank r the value r*10 + j.
        for (j, recv) in out.iter().enumerate() {
            for (r, buf) in recv.iter().enumerate() {
                assert_eq!(buf, &vec![(r * 10 + j) as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_handles_empty_and_uneven_buffers() {
        let out = World::run(4, |comm| {
            let r = comm.rank();
            // Rank r sends r copies of its id to rank 0, nothing elsewhere.
            let mut bufs: Vec<Vec<usize>> = vec![Vec::new(); 4];
            bufs[0] = vec![r; r];
            comm.alltoallv(bufs)
        });
        let at_zero = &out[0];
        #[allow(clippy::needless_range_loop)]
        for r in 0..4 {
            assert_eq!(at_zero[r], vec![r; r]);
        }
        for other in &out[1..] {
            assert!(other.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn allgatherv_collects_in_rank_order() {
        let out = World::run(3, |comm| {
            comm.allgatherv(vec![comm.rank() as u32; comm.rank() + 1])
        });
        for recv in out {
            assert_eq!(recv, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
        }
    }

    #[test]
    fn allreduce_is_deterministic_and_complete() {
        let out = World::run(5, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |a, b| a * b)
        });
        assert_eq!(out, vec![120; 5]);
    }

    #[test]
    fn broadcast_distributes_root_value() {
        let out = World::run(4, |comm| {
            let value = if comm.rank() == 2 {
                Some("hello".to_string())
            } else {
                None
            };
            comm.broadcast(2, value)
        });
        assert_eq!(out, vec!["hello"; 4]);
    }

    #[test]
    fn gather_collects_only_at_root() {
        let out = World::run(3, |comm| comm.gather(1, comm.rank() as u8));
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(vec![0, 1, 2]));
        assert_eq!(out[2], None);
    }

    #[test]
    fn gatherv_collects_uneven_buffers_at_root() {
        let out = World::run(4, |comm| {
            comm.gatherv(2, vec![comm.rank() as u8; comm.rank()])
        });
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                let got = res
                    .as_ref()
                    .expect("rank 2 is the gatherv root and must receive every buffer");
                #[allow(clippy::needless_range_loop)]
                for src in 0..4 {
                    assert_eq!(got[src], vec![src as u8; src]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn sendrecv_transposes_pairs() {
        // 2x2 grid transpose: ranks 1 and 2 swap, 0 and 3 self-exchange.
        let out = World::run(4, |comm| {
            let (i, j) = (comm.rank() / 2, comm.rank() % 2);
            let partner = j * 2 + i;
            comm.sendrecv(partner, vec![comm.rank() as u64])
        });
        assert_eq!(out, vec![vec![0], vec![2], vec![1], vec![3]]);
    }

    #[test]
    fn split_builds_row_communicators() {
        // 2x3 grid: color = row. Sub-ranks must follow column order.
        let out = World::run(6, |comm| {
            let (row, col) = (comm.rank() / 3, comm.rank() % 3);
            let row_comm = comm.split(row as u64, col as u64);
            let sum = row_comm.allreduce(comm.rank() as u64, |a, b| a + b);
            (row_comm.rank(), row_comm.size(), sum)
        });
        // Row 0 = ranks {0,1,2} sum 3; row 1 = {3,4,5} sum 12.
        for (r, &(sub_rank, sub_size, sum)) in out.iter().enumerate() {
            assert_eq!(sub_size, 3);
            assert_eq!(sub_rank, r % 3);
            assert_eq!(sum, if r < 3 { 3 } else { 12 });
        }
    }

    #[test]
    fn split_then_collectives_are_isolated() {
        // Column communicators must not interfere with each other.
        let out = World::run(4, |comm| {
            let col = comm.rank() % 2;
            let col_comm = comm.split(col as u64, comm.rank() as u64);

            col_comm.allgather(comm.rank())
        });
        assert_eq!(out[0], vec![0, 2]);
        assert_eq!(out[1], vec![1, 3]);
        assert_eq!(out[2], vec![0, 2]);
        assert_eq!(out[3], vec![1, 3]);
    }

    #[test]
    fn nested_split_works() {
        // Split world into halves, then split halves again.
        let out = World::run(8, |comm| {
            let half = comm.split((comm.rank() / 4) as u64, comm.rank() as u64);
            let quarter = half.split((half.rank() / 2) as u64, half.rank() as u64);
            quarter.allreduce(comm.rank() as u64, |a, b| a + b)
        });
        assert_eq!(out, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn stats_record_bytes_and_patterns() {
        let stats = World::run(2, |comm| {
            comm.alltoallv(vec![vec![1u64, 2], vec![3u64]]);
            comm.barrier();
            comm.take_stats()
        });
        let s0 = &stats[0];
        assert_eq!(s0.num_calls(), 2);
        // Rank 0 sent vec![3u64] to rank 1: 8 bytes out (self-part excluded).
        assert_eq!(s0.bytes_out_for(Pattern::Alltoallv), 8);
        assert_eq!(s0.events[1].pattern, Pattern::Barrier);
    }

    #[test]
    fn rank_panic_propagates_instead_of_deadlocking() {
        let result = std::panic::catch_unwind(|| {
            World::run(4, |comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                // Other ranks block in a collective; poison must free them.
                comm.barrier();
                comm.allreduce(1u64, |a, b| a + b)
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn world_reuse_is_independent() {
        for _ in 0..3 {
            let out = World::run(3, |comm| comm.allreduce(1u32, |a, b| a + b));
            assert_eq!(out, vec![3; 3]);
        }
    }

    #[test]
    fn comm_single_runs_collectives() {
        let comm = Comm::single();
        for _ in 0..10 {
            comm.barrier(); // nobody to wait for: never blocks
        }
        assert_eq!(comm.allreduce(7u64, |a, b| a + b), 7);
        assert_eq!(comm.allgather(5u8), vec![5]);
        let recv = comm.alltoallv(vec![vec![9u8]]);
        assert_eq!(recv, vec![vec![9]]);
    }

    #[test]
    fn collectives_panic_off_the_owner_thread() {
        // The hybrid-mode invariant: a Comm handle smuggled to another
        // thread (it is Send) must refuse to run collectives there.
        let comm = Comm::single();
        let cross_thread_panicked = std::thread::spawn(move || {
            let barrier = catch_unwind(AssertUnwindSafe(|| comm.barrier())).is_err();
            let reduce =
                catch_unwind(AssertUnwindSafe(|| comm.allreduce(1u64, |a, b| a + b))).is_err();
            barrier && reduce
        })
        .join()
        .expect("thread probing the owner invariant must report, not die");
        assert!(cross_thread_panicked);
    }

    #[test]
    fn level_timings_round_trip_through_stats() {
        use crate::stats::LevelTiming;
        use std::time::Duration;
        let stats = World::run(2, |comm| {
            comm.barrier();
            let comm_wall = comm.comm_wall();
            comm.push_level_timing(LevelTiming {
                level: 0,
                compute: Duration::from_micros(5),
                comm: comm_wall,
                direction: Default::default(),
            });
            comm.take_stats()
        });
        for s in &stats {
            assert_eq!(s.level_timings.len(), 1);
            assert_eq!(s.level_timings[0].level, 0);
            assert_eq!(s.comm_total(), s.wall());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "64 interpreted threads are too slow under miri")]
    fn large_world_smoke() {
        // 64 ranks exchanging; exercises heavy thread oversubscription.
        let out = World::run(64, |comm| {
            let bufs: Vec<Vec<u64>> = (0..64)
                .map(|j| vec![comm.rank() as u64 * j as u64])
                .collect();
            let recv = comm.alltoallv(bufs);
            recv.iter().map(|b| b[0]).sum::<u64>()
        });
        // Rank j receives r*j from every r: j * sum(r) = j * 2016.
        for (j, &sum) in out.iter().enumerate() {
            assert_eq!(sum, 2016 * j as u64);
        }
    }
}
