//! Heap-allocation counting for the traced binary.
//!
//! `perfbench-traced` installs [`CountingAlloc`] as its global
//! allocator; `perfbench` does not, so the untraced end-to-end numbers
//! never pay for the counters. Counting is off until [`count`] turns it
//! on around one measured call, so set-up, run and analysis are counted
//! separately.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) and
/// the bytes they request while counting is enabled.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if ENABLED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made during one [`count`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation and reallocation calls.
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl Allocs {
    /// Component-wise sum.
    pub fn add(&mut self, other: Allocs) {
        self.count += other.count;
        self.bytes += other.bytes;
    }
}

/// Runs `f` with counting on and returns its result with the
/// allocations it made. Not re-entrant.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    let allocs = Allocs {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, allocs)
}
