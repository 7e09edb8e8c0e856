//! The simulator's per-warp-instruction path allocates nothing: a
//! one-block launch makes the same number of heap allocations whether its
//! warps issue a handful of `gld`/`gst`/`sld`/`sld_vec`/`sst`/`fma`
//! instructions or many times that. Launch set-up (the caches, the shared
//! arena) and a cache set's first line may allocate; the instructions
//! themselves may not.

use memconv_gpusim::lane::{LaneMask, VF, VU};
use memconv_gpusim::{DeviceConfig, GpuSim, LaunchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread, so tests running on
/// other threads of the harness do not disturb the count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a const-initialised thread-local
// `Cell` that never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const THREADS: u32 = 128;
const WORDS: usize = 1024;
const WORD_MASK: u32 = WORDS as u32 - 1;

/// Heap allocations made by one sequential one-block launch whose warps
/// each run `iters` rounds of every counted memory and FMA instruction,
/// with coalesced, scattered, bank-conflicting, broadcast and partially
/// masked accesses. Also checks the instruction counters, so the loop is
/// known to have issued what it claims.
fn launch_allocs(iters: u32) -> u64 {
    let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
    let x = sim.mem.upload(&vec![1.5; WORDS]);
    let y = sim.mem.alloc(WORDS);
    let cfg = LaunchConfig::linear(1, THREADS).with_shared(WORDS);
    let before = allocs();
    let stats = sim.launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let tid = w.thread_idx();
            let half = LaneMask(0x0000_ffff);
            // Fixed addresses: the caches' first touches of a set allocate,
            // so every round touches the lines the first round did.
            let scattered = VU::from_fn(|l| (l as u32 * 97) & WORD_MASK);
            for i in 0..iters {
                let v = w.gld(x, &tid, LaneMask::ALL);
                let s = w.gld(x, &scattered, half);
                w.sst(&tid, &v, LaneMask::ALL);
                w.sst(&((tid * 32) & WORD_MASK), &s, half);
                let a = w.sld(&(tid ^ 1), LaneMask::ALL);
                let b = w.sld(&VU::splat(i & WORD_MASK), LaneMask::ALL);
                let [c0, c1, c2, c3] = w.sld_vec::<4>(&((tid * 4) & WORD_MASK), LaneMask::ALL);
                let r = w.fma(a, b, c0);
                let r = w.fma(r, c1, c2 + c3 + VF::splat(i as f32));
                w.gst(y, &tid, &r, LaneMask::ALL);
                w.gst(y, &scattered, &r, half);
            }
        });
    });
    let made = allocs() - before;
    let warp_iters = (THREADS / 32 * iters) as u64;
    assert_eq!(stats.gld_requests, 2 * warp_iters);
    assert_eq!(stats.gst_requests, 2 * warp_iters);
    assert_eq!(stats.smem_accesses, 5 * warp_iters);
    assert_eq!(stats.fma_instrs, 2 * warp_iters);
    made
}

#[test]
fn launch_allocations_do_not_grow_with_instruction_count() {
    // Warm up lazily initialised process state (feature detection, the
    // allocator itself) outside the measured launches.
    launch_allocs(1);
    let few = launch_allocs(2);
    let many = launch_allocs(64);
    assert!(few > 0, "the counting allocator saw the launch set-up");
    assert_eq!(
        few, many,
        "a launch issuing 32x the warp instructions made {many} heap allocations \
         instead of {few}: a per-instruction primitive allocates"
    );
}
