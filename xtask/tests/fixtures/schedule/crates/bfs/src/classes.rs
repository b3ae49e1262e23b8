//! Seeded defects, one per remaining finding class: a divergent loop
//! head, an early return in a function and through a call, a divergent
//! `break`, a divergent closure argument and a path-call binding.

pub fn divergent_loop_head(comm: &Comm) {
    let mut k = comm.rank();
    while k > 0 {
        comm.barrier();
        k -= 1;
    }
}

pub fn early_return(comm: &Comm) {
    if comm.rank() == 0 {
        return;
    }
    comm.barrier();
}

pub fn return_through_a_call(comm: &Comm) {
    leave_first(comm.rank() == 0, comm);
}

fn leave_first(flag: bool, comm: &Comm) {
    if flag {
        return;
    }
    comm.barrier();
}

pub fn divergent_break(comm: &Comm, n: usize) {
    for _ in 0..n {
        if comm.rank() == 0 {
            break;
        }
        comm.barrier();
    }
}

pub fn divergent_closure_argument(comm: &Comm) {
    with_flag(comm, |flag| {
        if flag {
            comm.barrier();
        }
    });
}

fn with_flag(comm: &Comm, f: impl Fn(bool)) {
    f(comm.rank() == 0);
}

impl Level {
    fn sync(&self, flag: bool, comm: &Comm) {
        if flag {
            comm.barrier();
        }
    }
}

pub fn path_call_binding(comm: &Comm, l: &Level) {
    Level::sync(l, comm.rank() == 0, comm);
}
