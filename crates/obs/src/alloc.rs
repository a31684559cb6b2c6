//! Heap-allocation counters for performance measurement.
//!
//! The engine's "steady-state allocations per task = 0" claim needs an
//! observable, not an assertion: a [`CountingAllocator`] wraps the system
//! allocator and counts every allocation event and requested byte, and
//! keeps the bytes live. A test or bench binary installs it once (see
//! `crates/engine/tests/steady_state_allocs.rs`, and
//! `crates/service/tests/soak.rs` for the live reading):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: benu_obs::alloc::CountingAllocator =
//!     benu_obs::alloc::CountingAllocator::new();
//! ```
//!
//! and brackets the measured region with [`CountingAllocator::snapshot`]
//! / [`AllocSnapshot::delta_since`], or reads
//! [`CountingAllocator::live_bytes`]. Counting is three relaxed atomic
//! adds per allocation and one per free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] wrapper over [`System`] that counts allocation
/// events and requested bytes and keeps the bytes live.
/// `const`-constructible so it can be a `#[global_allocator]` static.
#[derive(Debug)]
pub struct CountingAllocator {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter (all zeros).
    pub const fn new() -> Self {
        CountingAllocator {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// Bytes allocated and not freed yet: allocations and growing
    /// reallocs add, frees and shrinking reallocs subtract.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    fn count(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.live.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The counters right now. Monotonic; subtract two snapshots with
    /// [`AllocSnapshot::delta_since`] to meter a region.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counter
// updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is a fresh reservation of the delta; a shrink
        // frees its delta, and a no-op costs nothing.
        if new_size > layout.size() {
            self.count(new_size - layout.size());
        } else {
            let freed = (layout.size() - new_size) as u64;
            self.live.fetch_sub(freed, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of a [`CountingAllocator`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (allocs, zeroed allocs, and growing reallocs).
    pub allocs: u64,
    /// Bytes requested from the allocator.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// What was allocated between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_and_bytes_through_the_trait() {
        let counter = CountingAllocator::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // Drive the GlobalAlloc impl directly — installing a second
        // global allocator inside a test process is not possible.
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(counter.live_bytes(), 256, "alloc");
            let p = counter.realloc(p, layout, 512);
            assert!(!p.is_null());
            assert_eq!(counter.live_bytes(), 512, "grow");
            let grown = Layout::from_size_align(512, 8).unwrap();
            let p = counter.realloc(p, grown, 128); // shrink: free
            assert!(!p.is_null());
            assert_eq!(counter.live_bytes(), 128, "shrink");
            let shrunk = Layout::from_size_align(128, 8).unwrap();
            counter.dealloc(p, shrunk);
            assert_eq!(counter.live_bytes(), 0, "dealloc");
        }
        let snap = counter.snapshot();
        assert_eq!(snap.allocs, 2, "alloc + growing realloc");
        assert_eq!(snap.bytes, 256 + 256, "initial size + growth delta");
    }

    #[test]
    fn delta_between_snapshots_meters_a_region() {
        let counter = CountingAllocator::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = counter.snapshot();
        unsafe {
            let p = counter.alloc_zeroed(layout);
            counter.dealloc(p, layout);
        }
        let delta = counter.snapshot().delta_since(&before);
        assert_eq!(
            delta,
            AllocSnapshot {
                allocs: 1,
                bytes: 64
            }
        );
        // Monotonic counters never go negative across reordered reads.
        assert_eq!(before.delta_since(&counter.snapshot()).allocs, 0);
    }
}
