//! A pass-through counting allocator, switched on only around the searches
//! of the allocation pass. When off it costs one relaxed flag load per
//! allocation, so the end-to-end runs measure the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The process allocator (installed in `main.rs`).
pub struct Counting;

// All counters are statistics that publish no other data: Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes live relative to the moment counting was switched on; frees of
/// older blocks can take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note_alloc(size: usize) {
    if ON.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note_free(size: usize) {
    if ON.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters never touch the
// memory being managed, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Totals of one counted window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Allocation calls (alloc, alloc_zeroed, realloc).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest live-byte level reached, relative to the window's start.
    pub peak_live: u64,
}

/// Runs `f` with counting on and returns what it allocated. Not
/// re-entrant; the benchmark counts one search at a time.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Totals) {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let totals = Totals {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counted_window_sees_the_closure_allocate() {
        // Other tests allocate on their own threads meanwhile, so the
        // window can only be checked from below.
        let (block, totals) = counted(|| vec![0u8; 1 << 16]);
        assert!(totals.count >= 1);
        assert!(totals.bytes >= 1 << 16);
        assert!(totals.peak_live >= 1 << 16);
        drop(block);
    }
}
