// Fixture: deliberate boundary crossings, fully suppressed via
// allow-directives — the lint must report zero findings for this file.

pub fn intentional() -> Vec<usize> {
    // lint: allow(no-raw-spawn)
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
    World::run(2, |comm| comm.rank()) // lint: allow(world-run-boundary)
}
