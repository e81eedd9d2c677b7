//! A per-thread counting global allocator for allocation-budget tests.
//!
//! [`CountingAllocator`] wraps the system allocator and counts every `alloc`,
//! `alloc_zeroed` and `realloc` on the thread that makes it. [`allocations`]
//! reads the calling thread's count, so a measured region sees only its own
//! allocations: sibling tests that libtest runs on other threads of the same
//! binary cannot leak into the figure. A region that spreads work over other
//! threads must therefore be measured on a single-threaded path.
//!
//! # Example
//!
//! ```
//! use taxi_alloc_count::{allocations, CountingAllocator};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAllocator = CountingAllocator;
//!
//! fn main() {
//!     let before = allocations();
//!     let buffer: Vec<u64> = Vec::with_capacity(16);
//!     assert_eq!(allocations() - before, 1);
//!     drop(buffer);
//!     assert_eq!(allocations() - before, 1, "frees are not counted");
//! }
//! ```

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and destructor-free, so reading it never allocates and
    // stays valid during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

/// The system allocator, counting allocations per thread. Install it with
/// `#[global_allocator]` in the test or bench binary that measures.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made so far by the calling thread (0 unless
/// [`CountingAllocator`] is the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
