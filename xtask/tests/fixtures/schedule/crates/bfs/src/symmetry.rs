// Fixture: seeded `schedule-asymmetry` findings, one per rank-guarded branch (lines 4, 9, 19, 22, 29).

pub fn lopsided(comm: &Comm, x: u64) {
    if comm.rank() == 0 {
        comm.barrier();
    } else {
        comm.allreduce(x, |a, b| a + b);
    }
    match comm.rank() {
        0 => {}
        _ => {
            comm.allgather(x);
        }
    }
}

pub fn lopsided_pipeline(comm: &Comm, bufs: Vec<WireBuf>) {
    let pending = comm.ialltoallv_wire(bufs);
    if comm.rank() == 0 {
        let _ = pending.wait();
    }
    if comm.rank() == 1 {
        let _ = comm.ialltoallv_wire(bufs).wait();
    }
}

// The hybrid BFS's bitmap broadcast: rank-guarding it hangs the group.
pub fn lopsided_bitmap_broadcast(comm: &Comm, frontier_bits: WireBuf) {
    if comm.rank() == 0 {
        let _ = comm.allgatherv_wire(frontier_bits);
    }
}

// Negative case: a *data*-dependent guard is symmetric when the condition
// is a pure function of allreduced global counts — exactly how the hybrid
// driver picks its per-level direction. Nothing may fire here.
pub fn direction_switched_broadcast(comm: &Comm, bottom_up: bool, frontier_bits: WireBuf) {
    if bottom_up {
        let _ = comm.allgatherv_wire(frontier_bits);
    } else {
        let _ = comm.alltoallv_wire(vec![frontier_bits]);
    }
}
