//! A counting global allocator for this binary only.
//!
//! Counting is off unless [`set_counting`] turns it on, so untraced runs
//! pay one relaxed load per allocation and nothing else. When on, every
//! allocation adds to per-thread counters that [`thread_counts`] reads;
//! the timing wrapper reads them at entry and exit of each domain call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and requested bytes on the current thread so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

pub fn thread_counts() -> Counts {
    Counts {
        allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
        bytes: BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

#[inline]
fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with`: allocations during thread teardown go uncounted
        // instead of panicking.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialized thread-local
// cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
