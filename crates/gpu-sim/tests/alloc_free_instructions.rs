//! The simulator's per-warp-instruction path allocates nothing: a
//! one-block launch makes the same number of heap allocations whether its
//! warps issue a handful of `gld`/`gst`/`sld`/`sld_vec`/`sst`/`fma`
//! instructions or many times that. Launch set-up (the caches, the shared
//! arena) and a cache set's first line may allocate; the instructions
//! themselves may not. The same holds for a phantom launch that records
//! symbolic state: the per-block collector and a site's first record may
//! allocate; fitting, predicting and hashing a request may not. Per-block
//! state (the L1 tags, the shared arena) is reset, not rebuilt, so a
//! launch's allocations do not grow with its block count either.

use memconv_gpusim::lane::{LaneMask, VF, VU};
use memconv_gpusim::memory::{CachePolicy, SectoredCache};
use memconv_gpusim::{DeviceConfig, GpuSim, LaunchConfig, LaunchMode, PhantomConfig};
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
/// masked accesses — in phantom mode with symbolic recording when
/// `phantom` is set. Also checks the instruction counters, so the loop is
/// known to have issued what it claims.
fn launch_allocs(iters: u32, phantom: bool) -> u64 {
    let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
    if phantom {
        sim.set_phantom(Some(PhantomConfig::default()));
    }
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
    if phantom {
        let report = sim.take_sym_report().expect("phantom armed");
        let recorded: u64 = report.sites.iter().map(|s| s.requests).sum();
        assert_eq!(
            recorded,
            9 * warp_iters,
            "every memory request was recorded"
        );
        assert!(
            report.sites.iter().any(|s| s.predicted_requests > 0),
            "the closed forms ran"
        );
    }
    made
}

#[test]
fn launch_allocations_do_not_grow_with_instruction_count() {
    // Warm up lazily initialised process state (feature detection, the
    // allocator itself) outside the measured launches.
    launch_allocs(1, false);
    let few = launch_allocs(2, false);
    let many = launch_allocs(64, false);
    assert!(few > 0, "the counting allocator saw the launch set-up");
    assert_eq!(
        few, many,
        "a launch issuing 32x the warp instructions made {many} heap allocations \
         instead of {few}: a per-instruction primitive allocates"
    );
}

#[test]
fn symbolic_recording_allocations_do_not_grow_with_request_count() {
    launch_allocs(1, true);
    let few = launch_allocs(2, true);
    let many = launch_allocs(64, true);
    assert!(few > 0, "the counting allocator saw the launch set-up");
    assert_eq!(
        few, many,
        "a phantom launch recording 32x the warp requests made {many} heap \
         allocations instead of {few}: the symbolic path allocates per request"
    );
}

/// Heap allocations made by a sequential launch of `blocks` blocks that all
/// touch the same global lines and shared words.
fn blocks_allocs(blocks: u32) -> u64 {
    let mut sim = GpuSim::new(DeviceConfig::rtx2080ti()).with_launch_mode(LaunchMode::Sequential);
    let x = sim.mem.upload(&vec![1.5; WORDS]);
    let y = sim.mem.alloc(WORDS);
    let cfg = LaunchConfig::linear(blocks, THREADS).with_shared(WORDS);
    let before = allocs();
    let stats = sim.launch(&cfg, |blk| {
        blk.each_warp(|w| {
            let tid = w.thread_idx();
            let v = w.gld(x, &tid, LaneMask::ALL);
            w.sst(&tid, &v, LaneMask::ALL);
            let s = w.sld(&(tid ^ 1), LaneMask::ALL);
            w.gst(y, &tid, &s, LaneMask::ALL);
        });
    });
    let made = allocs() - before;
    assert_eq!(stats.sim_blocks, u64::from(blocks), "every block simulated");
    made
}

#[test]
fn launch_allocations_do_not_grow_with_block_count() {
    blocks_allocs(1);
    let one = blocks_allocs(1);
    let many = blocks_allocs(16);
    assert_eq!(
        one, many,
        "a 16-block launch made {many} heap allocations instead of the \
         one-block launch's {one}: per-block state is rebuilt, not reset"
    );
}

#[test]
fn filling_one_cache_set_allocates_once() {
    let dev = DeviceConfig::rtx2080ti();
    let mut l2 = SectoredCache::new(
        dev.l2_bytes,
        dev.l2_ways,
        dev.line_bytes,
        dev.sector_bytes,
        CachePolicy::l2(),
    );
    // Lines one set-stride apart all land in set 0.
    let sets = dev.l2_bytes / dev.line_bytes / dev.l2_ways;
    let stride = (sets * dev.line_bytes) as u64;
    let before = allocs();
    for way in 0..dev.l2_ways as u64 {
        l2.access(way * stride, false);
    }
    let made = allocs() - before;
    assert_eq!(l2.resident_sectors(), dev.l2_ways as u64, "the set is full");
    assert_eq!(
        made, 1,
        "filling a {}-way set made {made} allocations instead of one",
        dev.l2_ways
    );
}
