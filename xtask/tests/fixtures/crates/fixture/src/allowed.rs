// Fixture: deliberate asymmetry, fully suppressed via allow-directives —
// the lint must report zero findings for this file.

pub fn intentional(comm: &Comm, y: &mut u64) {
    if comm.rank() == 0 {
        // lint: allow(collective-symmetry)
        comm.barrier();
        comm.allgather(*y); // lint: allow(collective-symmetry)
    }
}
