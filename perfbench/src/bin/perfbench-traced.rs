//! Traced benchmark binary: per-layer metrics (`run.py --trace 1`),
//! with heap allocations counted by the installed allocator.

use robonet_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    robonet_perfbench::main_with(true)
}
