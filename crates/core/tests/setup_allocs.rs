//! Pins the number of heap allocations `Simulation::new` makes for the
//! paper's k = 3 dynamic setup at seed 1. The count is exact and does
//! not vary between runs, so a change that regrows per-sensor tables
//! or the static-hearer adjacency shows up here as a precise delta;
//! update `EXPECTED` together with a note of what moved it.
//!
//! Counting works like the benchmark's traced binary
//! (`perfbench/src/alloc.rs`): a global allocator that forwards to the
//! system allocator and counts allocation and reallocation calls while
//! counting is on. Here the switch and the counter are thread-local, so
//! allocations the test harness makes on other threads are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use robonet_core::{Algorithm, ScenarioConfig, Simulation};

/// Allocation and reallocation calls of one `Simulation::new` for
/// `ScenarioConfig::paper(3, Dynamic)` at seed 1.
const EXPECTED: u64 = 524;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocation calls while
/// [`COUNTING`] is set.
struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        if COUNTING.get() {
            COUNT.set(COUNT.get() + 1);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-locals without destructors and never touch
// the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn simulation_new_allocation_count_is_pinned() {
    let cfg = ScenarioConfig::paper(3, Algorithm::Dynamic).with_seed(1);
    COUNT.set(0);
    COUNTING.set(true);
    let sim = Simulation::new(cfg);
    COUNTING.set(false);
    let count = COUNT.get();
    drop(sim);
    assert_eq!(
        count, EXPECTED,
        "Simulation::new(paper(3, Dynamic), seed 1) made {count} allocations"
    );
}
