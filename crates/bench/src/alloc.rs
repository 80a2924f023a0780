//! A counting allocator for the Criterion benches: allocation calls and
//! the live heap's high-water mark while a measured closure runs, the
//! way `benchmark/src/alloc.rs` counts. A bench binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: bench::alloc::Counting = bench::alloc::Counting;
//! ```
//!
//! Statistics only, so every atomic is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, with the bookkeeping [`count_allocs`] and [`peak_heap`]
/// read.
pub struct Counting;

fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // Blocks allocated before counting started may be freed during
        // it; saturate instead of wrapping below zero.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size))
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the bookkeeping around the calls touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on, dropping its result before counting
/// stops — the shared body of the two probes.
fn counted<T>(f: impl FnOnce() -> T) {
    CALLS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    drop(f());
    COUNTING.store(false, Ordering::Relaxed);
}

/// Runs `f` with counting on; returns the largest growth of the live
/// heap while it ran. Meaningful only under [`Counting`].
pub fn peak_heap<T>(f: impl FnOnce() -> T) -> usize {
    counted(f);
    PEAK.load(Ordering::Relaxed)
}

/// Runs `f` with counting on; returns how many allocations (and
/// reallocations) it made, those of dropping its result included.
/// Meaningful only under [`Counting`].
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> usize {
    counted(f);
    CALLS.load(Ordering::Relaxed)
}
