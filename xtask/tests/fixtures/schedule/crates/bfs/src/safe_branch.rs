//! Negative fixture: the safe patterns. A branch decided by a prior
//! allreduce (the `[u64; 3]` hybrid idiom), the double-buffered
//! start/wait rotation, and a closure whose rank-divergent return comes
//! after its collectives. Zero findings expected.

pub fn allreduce_decided(comm: &Comm, mine: u64, bufs: Vec<WireBuf>) {
    let total = comm.allreduce(mine, |a, b| a + b);
    if total > 4 {
        comm.allgatherv_wire(bufs.pop().unwrap());
    } else {
        comm.alltoallv_wire(bufs);
    }
}

pub fn rotation(comm: &Comm, k: usize) {
    let mut pending = comm.ialltoallv_wire(encode(0));
    for c in 1..k {
        let wire = pending.wait();
        pending = comm.ialltoallv_wire(encode(c));
    }
    let wire = pending.wait();
}

pub fn exit_after_the_collectives(comm: &Comm, pool: &ThreadPool) {
    pool.install(|| {
        comm.barrier();
        if comm.rank() == 0 {
            return;
        }
    });
}
