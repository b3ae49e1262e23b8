//! Seeded defect: a data-dependent branch whose deciding value is
//! rank-local (derived from `.rank()`), not a replicated result —
//! nothing proves every rank takes the same arm.

pub fn data_dependent(comm: &Comm, local: &Local1d) {
    let mine = local.frontier_len(comm.rank());
    if mine > 4 {
        comm.alltoallv_wire(encode(mine));
    } else {
        comm.allgather(mine);
    }
}
