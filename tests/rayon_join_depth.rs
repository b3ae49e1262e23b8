//! The in-repo `rayon` pool under deep `join` nesting.
//!
//! A pool whose waiting `join` runs *any* queued task nests one helper
//! frame per task and overflows its stack on a deep join tree; that is a
//! process abort, not a test failure, so this test lives in its own
//! binary where a regression takes down nothing else.

/// Counts the leaves of a complete binary `join` tree of `depth` levels.
fn leaves(depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let (a, b) = rayon::join(|| leaves(depth - 1), || leaves(depth - 1));
    a + b
}

#[test]
fn deep_join_tree_completes_in_a_two_thread_pool() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    assert_eq!(pool.install(|| leaves(16)), 1 << 16);
}
