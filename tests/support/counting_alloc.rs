//! A counting `#[global_allocator]` for allocation-budget tests: it counts
//! allocation calls per thread and process-wide, and defers every
//! operation to `System`.
//!
//! Cargo builds no test target from a subdirectory of `tests/`; a test
//! includes this file as a module instead:
//!
//! ```ignore
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! Installing a global allocator is why such a test needs an
//! integration-test binary to itself.

// Each including test reads only the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: defers to `System` for every operation; the only additions are a
// thread-local call counter with no destructor and a static atomic, neither
// of which allocates. `realloc` and `alloc_zeroed` keep their default
// bodies, which call `alloc`, so a growing vector counts once per growth.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|calls| calls.set(calls.get() + 1));
        PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation calls made so far on the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Allocation calls made so far in the whole process.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::SeqCst)
}
