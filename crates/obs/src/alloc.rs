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
//! / [`AllocSnapshot::delta_since`], reads
//! [`CountingAllocator::live_bytes`], or brackets it with
//! [`CountingAllocator::reset_peak`] / [`CountingAllocator::peak_bytes`]
//! for its high-water mark (`crates/cluster/tests/collect_memory.rs`).
//! Counting is three relaxed atomic adds and one `fetch_max` per
//! allocation and one subtraction per free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] wrapper over [`System`] that counts allocation
/// events and requested bytes and keeps the bytes live and their
/// high-water mark. `const`-constructible so it can be a
/// `#[global_allocator]` static.
#[derive(Debug)]
pub struct CountingAllocator {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter (all zeros).
    pub const fn new() -> Self {
        CountingAllocator {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Bytes allocated and not freed yet: allocations and growing
    /// reallocs add, frees and shrinking reallocs subtract.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the bytes live right now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    /// The most bytes live at once since the last
    /// [`CountingAllocator::reset_peak`] (since construction before it).
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn count(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
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
    fn the_peak_is_the_most_live_at_once_since_the_reset() {
        let counter = CountingAllocator::new();
        let (small, large) = (
            Layout::from_size_align(100, 8).unwrap(),
            Layout::from_size_align(1000, 8).unwrap(),
        );
        unsafe {
            let kept = counter.alloc(small);
            let p = counter.alloc(large);
            counter.dealloc(p, large);
            assert_eq!((counter.live_bytes(), counter.peak_bytes()), (100, 1100));
            counter.reset_peak();
            assert_eq!(counter.peak_bytes(), 100, "restarts from the live bytes");
            let p = counter.alloc(small);
            let p = counter.realloc(p, small, 300);
            assert_eq!(
                counter.peak_bytes(),
                400,
                "a growing realloc counts its delta"
            );
            let shrunk = counter.realloc(p, Layout::from_size_align(300, 8).unwrap(), 50);
            assert_eq!(counter.peak_bytes(), 400, "frees never lower it");
            counter.dealloc(shrunk, Layout::from_size_align(50, 8).unwrap());
            counter.dealloc(kept, small);
        }
        assert_eq!((counter.live_bytes(), counter.peak_bytes()), (0, 400));
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
