//! Results leave the simulator by move, not by copy. A run's device
//! buffers are host memory, and the output is one of them: taking it hands
//! that memory to the caller, while copying it leaves the device buffer
//! allocated beside a second, host-side output tensor. So after a sampled
//! run whose output is at least 4 MiB, the host memory the run left
//! allocated may exceed the device arena it grew by less than half an
//! output tensor; a copy exceeds it by a whole one. (The simulator's
//! per-launch and per-block state, caches and shared-memory arenas, is
//! freed by then.)
//!
//! The cases are every algorithm of the paper sweep, called as the sweep
//! calls it, plus the other upload-run-return entry points of
//! `memconv-core` and `memconv-baselines`, so every result hand-off is
//! covered.

use memconv::baselines::cudnn::cudnn_family;
use memconv::core::{
    conv2d_ours_padded, conv2d_ours_strided, conv_nchw_multi_filter, DepthwiseDirect,
};
use memconv::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the net bytes the current thread has allocated and not yet
/// freed, so tests running on other threads of the harness do not disturb
/// the count.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a const-initialised thread-local
// `Cell` that never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The paper sweep's per-launch sampled-block budget.
const SAMPLE: SampleMode = SampleMode::Auto(64);

/// NCHW cases: the Fig. 4 CONV1 layer (3×3 filters, 128 of them, 28×28
/// inputs) at batch 16, whose output is 5.5 MB.
const BATCH: usize = 16;
const FILTERS: usize = 128;
const HW: usize = 28;

/// 2D cases: a 3×3 filter over a 1026×1026 image, whose output is 4 MiB.
const IMG: usize = 1026;

/// Virtual address one past the end of the device arena so far: the base
/// of a fresh empty buffer.
fn arena_end(sim: &mut GpuSim) -> u64 {
    let probe = sim.mem.alloc(0);
    sim.mem.addr(probe, 0)
}

/// Run `run` on a fresh sequential simulator, keeping its output alive,
/// and check that the host memory it left allocated exceeds the device
/// arena it grew by less than half an output tensor. (The arena's span
/// includes alignment padding, so a copy would exceed it by slightly less
/// than one whole output tensor.)
fn assert_no_output_copy(name: &str, run: impl FnOnce(&mut GpuSim) -> Vec<f32>) {
    let mut sim = GpuSim::rtx2080ti().with_launch_mode(LaunchMode::Sequential);
    let start = arena_end(&mut sim);
    let before = live();
    let output = run(&mut sim);
    let host = live() - before;
    let device = (arena_end(&mut sim) - start) as i64;
    let out = output.len() as i64 * 4;
    assert!(out >= 4 << 20, "{name}: output of {out} B is under 4 MiB");
    let excess = host - device;
    assert!(
        2 * excess < out,
        "{name}: run left {host} B of host memory allocated for {device} B of \
         device buffers; the {excess} B beyond them are half or more of the {out} B \
         output, so the result was copied off the device instead of taken"
    );
}

fn nchw_inputs(channels: usize) -> (Tensor4, FilterBank) {
    let mut rng = TensorRng::new(13);
    let input = rng.tensor(BATCH, channels, HW, HW);
    let bank = rng.filter_bank(FILTERS, 1, 3, 3);
    (input, bank)
}

fn assert_nchw(algo: &dyn ConvNchwAlgorithm) {
    let (input, bank) = nchw_inputs(1);
    assert_no_output_copy(algo.name(), |sim| algo.run(sim, &input, &bank).0.into_vec());
}

#[test]
fn paper_gemm_im2col_takes_its_result() {
    assert_nchw(
        &Im2colGemm::caffe()
            .with_sample(SAMPLE)
            .with_batch_replication(),
    );
}

#[test]
fn paper_cudnn_family_takes_its_results() {
    let family = cudnn_family(SAMPLE);
    assert_eq!(family.len(), 7);
    for algo in &family {
        assert_nchw(algo.as_ref());
    }
}

#[test]
fn paper_ours_nchw_takes_its_result() {
    assert_nchw(&Ours::with_config(OursConfig::full().with_sample(SAMPLE)));
}

/// The paper sweep's 2D ArrayFire and NPP cells run these NCHW kernels on
/// a `1×1×H×W` lift of the image.
#[test]
fn paper_2d_arrayfire_and_npp_take_their_results() {
    let mut rng = TensorRng::new(17);
    let img = Tensor4::from_image(&rng.image(IMG, IMG));
    let bank = FilterBank::broadcast(&rng.filter(3, 3), 1, 1);
    let algos: [Box<dyn ConvNchwAlgorithm>; 2] = [
        Box::new(TiledConv::arrayfire().with_sample(SAMPLE)),
        Box::new(DirectConv::npp().with_sample(SAMPLE)),
    ];
    for algo in &algos {
        assert_no_output_copy(algo.name(), |sim| algo.run(sim, &img, &bank).0.into_vec());
    }
}

#[test]
fn paper_2d_ours_takes_its_result() {
    let mut rng = TensorRng::new(19);
    let (img, filt) = (rng.image(IMG, IMG), rng.filter(3, 3));
    let algo = Ours::with_config(OursConfig::full().with_sample(SAMPLE));
    assert_no_output_copy("ours 2D", |sim| {
        Conv2dAlgorithm::run(&algo, sim, &img, &filt).0.into_vec()
    });
}

#[test]
fn other_nchw_entry_points_take_their_results() {
    let cfg = OursConfig::full().with_sample(SAMPLE);
    let (input, bank) = nchw_inputs(1);
    assert_nchw(&MecConv::new().with_sample(SAMPLE));
    assert_no_output_copy("try_conv_nchw_ours", |sim| {
        let (out, _) = try_conv_nchw_ours(sim, &input, &bank, &cfg).unwrap();
        out.into_vec()
    });
    let g = ConvGeometry::nchw(BATCH, 1, HW, HW, FILTERS, 3, 3);
    let ours = Ours::with_config(cfg.clone());
    assert_no_output_copy("ours run_geo", |sim| {
        ours.run_geo(sim, &input, &bank, &g).0.into_vec()
    });
    assert_no_output_copy("conv_nchw_multi_filter", |sim| {
        conv_nchw_multi_filter(sim, &input, &bank, &cfg, 4)
            .0
            .into_vec()
    });
    let (input, bank) = nchw_inputs(FILTERS);
    let depthwise = DepthwiseDirect::with_config(cfg);
    assert_no_output_copy("depthwise-direct", |sim| {
        depthwise.run(sim, &input, &bank).0.into_vec()
    });
}

#[test]
fn other_2d_entry_points_take_their_results() {
    let cfg = OursConfig::full().with_sample(SAMPLE);
    let mut rng = TensorRng::new(23);
    let (img, filt) = (rng.image(IMG, IMG), rng.filter(3, 3));
    assert_no_output_copy("conv2d_ours_padded", |sim| {
        conv2d_ours_padded(sim, &img, &filt, Padding::Same, &cfg)
            .0
            .into_vec()
    });
    let shuffle = ShuffleDynamic::new().with_sample(SAMPLE);
    assert_no_output_copy("shuffle-dynamic", |sim| {
        shuffle.run(sim, &img, &filt).0.into_vec()
    });
    // Stride 2 over a 2049-wide image: a 1024×1024 output.
    let big = rng.image(2 * IMG - 3, 2 * IMG - 3);
    assert_no_output_copy("conv2d_ours_strided", |sim| {
        conv2d_ours_strided(sim, &big, &filt, 2, 2, &cfg)
            .0
            .into_vec()
    });
}
