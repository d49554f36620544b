//! A counting global allocator for the traced pass.
//!
//! Only the `trace` binary installs it (`#[global_allocator]`); the `run`
//! binary, which takes the end-to-end metrics, keeps the system allocator
//! untouched. Counting is off until [`count`] switches it on around one call,
//! so the rest of the traced pass pays one relaxed load per allocation. While
//! it is on, worker threads contend for the two counters, which slows an
//! allocation-heavy call by a tenth or more: count a call that is not timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters.
pub struct CountingAlloc;

#[inline]
fn record(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer counts as one more allocation of its new size.
        record(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made, on all threads, during one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Count the allocations `f` makes. Returns zeros when the calling binary has
/// not installed [`CountingAlloc`].
pub fn count<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let value = f();
    ENABLED.store(false, Ordering::Relaxed);
    let stats = AllocStats {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (value, stats)
}
