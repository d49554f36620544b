//! A counting global allocator for allocation-budget tests.
//!
//! Counts *per thread*: the libtest harness runs the tests of one binary on
//! parallel threads, so a process-wide counter would charge each test with
//! its neighbours' allocations. A test installs it with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;` and
//! reads [`allocations`] on its own thread, around work that stays on that
//! thread. Shared by path (`#[path = ...] mod counting_alloc;`) between the
//! test binaries that need it — a global allocator is per binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor: touching it never
    // allocates, so the allocator may use it re-entrantly.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting every allocation and reallocation made
/// by the calling thread.
pub struct CountingAlloc;

#[inline]
fn record() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations belong to no test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell that touches no allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
