//! Seeded defects: early exits hidden in `let .. else`, `?` and a labelled
//! `break`. Each leaves the function or the outer loop on some ranks only,
//! skipping the barrier the others reach.

pub fn let_else_exit(comm: &Comm) {
    let Some(root) = pick(comm.rank()) else {
        return;
    };
    comm.barrier();
}

pub fn try_exit(comm: &Comm) -> Result<(), Error> {
    check(comm.rank())?;
    comm.barrier();
    Ok(())
}

// The inner loop issues no collective; `break 'outer` leaves the outer
// loop, which does.
pub fn labelled_break(comm: &Comm, n: usize) {
    'outer: for _ in 0..n {
        for _ in 0..4 {
            if comm.rank() == 0 {
                break 'outer;
            }
        }
        comm.barrier();
    }
}
