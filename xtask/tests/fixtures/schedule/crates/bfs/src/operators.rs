//! Seeded defects in two shapes the parser once misread: a collective in
//! the right operand of `||` (read as a closure literal), and a name bound
//! by a path pattern (`let Level::Deep(d) = ..`) deciding a branch.

pub fn or_operand(comm: &Comm, done: bool) {
    if comm.rank() == 0 {
        let stop = done || comm.allreduce(1u64, |a, b| a + b) > 0;
    }
}

pub fn path_pattern(comm: &Comm) {
    let Level::Deep(d) = pick(comm.rank());
    if d > 0 {
        comm.barrier();
    }
}
