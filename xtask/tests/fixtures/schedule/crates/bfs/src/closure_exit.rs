//! Seeded defect: a rank-divergent early return inside a closure skips
//! the collective that follows it in the same closure, so the returning
//! ranks abandon the rendezvous. Once in a closure handed to an unknown
//! callee (`pool.install`), once in a named local closure.

pub fn install_exit(comm: &Comm, pool: &ThreadPool) {
    pool.install(|| {
        if comm.rank() == 0 {
            return;
        }
        comm.barrier();
    });
}

pub fn local_closure_exit(comm: &Comm) {
    let step = || {
        if comm.rank() == 0 {
            return;
        }
        comm.barrier();
    };
    step();
}
