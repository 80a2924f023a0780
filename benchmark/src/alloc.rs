//! A counting `#[global_allocator]`: allocations, bytes requested and
//! the peak of live bytes, over every thread of the process (compile
//! workers and the in-process daemon included). Off unless a traced
//! pass switches it on, so the untraced pass pays one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// All statistics: none of these publishes other data, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn on_alloc(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let size = size as u64;
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // Blocks allocated while counting was off are freed while it is
        // on; saturate instead of wrapping below zero.
        let size = size as u64;
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

/// Totals since the process started counting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub bytes: u64,
    /// Largest growth of live bytes within one counting window.
    pub peak_live_bytes: u64,
}

pub fn totals() -> Totals {
    Totals {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Counting is on while this lives — on every thread, not only the
/// one that holds it.
pub struct Scope(());

impl Counting {
    /// Starts a counting window. Live bytes restart from zero, so the
    /// peak is the largest growth of the heap within one window: what a
    /// window allocates is mostly freed after it closes, unseen.
    pub fn scope() -> Scope {
        LIVE.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        Scope(())
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// Counting covers every thread, so a test running in parallel can
    /// allocate inside the window. The pattern is repeated until one
    /// window is quiet; that window must count it exactly.
    #[test]
    fn counts_a_known_allocation_pattern_exactly() {
        const SIZE: usize = 77_773;
        let exact = (0..200).any(|_| {
            let before = totals();
            let scope = Counting::scope();
            for _ in 0..10 {
                black_box(Vec::<u8>::with_capacity(black_box(SIZE)));
            }
            drop(scope);
            let after = totals();
            assert!(after.count - before.count >= 10);
            assert!(after.bytes - before.bytes >= 10 * SIZE as u64);
            after.count - before.count == 10 && after.bytes - before.bytes == 10 * SIZE as u64
        });
        assert!(exact, "no quiet window counted 10 allocations of {SIZE} bytes exactly");
        assert!(totals().peak_live_bytes >= SIZE as u64);
        // Off again: nothing moves.
        let frozen = totals();
        black_box(Vec::<u8>::with_capacity(black_box(SIZE)));
        assert_eq!(totals(), frozen);
    }
}
