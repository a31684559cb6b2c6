//! Peak-tracking global allocator: live heap bytes, a resettable
//! high-water mark and an allocation count.
//!
//! The ledger bin installs [`PeakAlloc`] as its `#[global_allocator]`;
//! `peak_heap_mb` and `engine.allocs_per_task` are read off the statics
//! here, so they cover everything the process does inside a measured
//! region rather than the paths someone remembered to instrument.
//! `benu_obs::alloc::CountingAllocator` is not reused because it has no
//! free (and therefore no live/peak) accounting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: none of these publishes other data, so every access
// is `Relaxed`.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] over [`System`] that keeps the counters above.
#[derive(Debug, Default)]
pub struct PeakAlloc;

#[inline]
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded verbatim to `System`; the counter
// updates never touch the returned memory or the layout.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Restarts the high-water mark from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Allocation events (alloc, alloc_zeroed, realloc) since process start.
/// Zero when [`PeakAlloc`] is not the installed global allocator.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
