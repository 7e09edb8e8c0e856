//! The paper's kernels allocate nothing per input channel or per input
//! row: a warp's accumulators, filter plane and row slots are allocated at
//! most once per warp and refilled in place. Phantom launches without
//! symbolic recording touch no cache and build no collector, so every
//! allocation they make is the launch set-up's or the kernel's own, and
//! two geometries with the same grid must make the same number.

use memconv_core::{launch_conv_depthwise, launch_conv_nchw_ours, OursConfig};
use memconv_gpusim::{DeviceConfig, GpuSim, LaunchMode, PhantomConfig};
use memconv_tensor::ConvGeometry;
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

/// Which launch entry point to drive.
#[derive(Clone, Copy)]
enum Kernel {
    /// `launch_conv_nchw_ours`: the unit-axes kernel on unit axes, the
    /// geometry-general kernel otherwise.
    Ours,
    Depthwise,
}

/// Heap allocations made by one sequential phantom launch of `kernel` on
/// `g` (buffers are allocated before counting starts).
fn launch_allocs(kernel: Kernel, g: ConvGeometry) -> u64 {
    let g = g.validate().expect("valid geometry");
    let mut sim = GpuSim::new(DeviceConfig::rtx2080ti()).with_launch_mode(LaunchMode::Sequential);
    sim.set_phantom(Some(PhantomConfig {
        symbolic: false,
        ..PhantomConfig::default()
    }));
    let input = sim.mem.alloc(g.in_elems());
    let weights = sim
        .mem
        .alloc(g.out_channels * g.channels_per_group() * g.f_h * g.f_w);
    let output = sim.mem.alloc(g.out_elems());
    let cfg = OursConfig::default();
    let before = allocs();
    let stats = match kernel {
        Kernel::Ours => launch_conv_nchw_ours(&mut sim, input, weights, output, &g, &cfg),
        Kernel::Depthwise => launch_conv_depthwise(&mut sim, input, weights, output, &g, &cfg),
    };
    let made = allocs() - before;
    assert!(stats.fma_instrs > 0, "the kernel ran");
    made
}

/// `launch_allocs` for each geometry, after one warm-up launch of the
/// first; all must be equal.
fn assert_same_allocs(kernel: Kernel, what: &str, geometries: &[ConvGeometry]) {
    launch_allocs(kernel, geometries[0]);
    let counts: Vec<u64> = geometries
        .iter()
        .map(|&g| launch_allocs(kernel, g))
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "{what}: allocations {counts:?} differ across geometries with the same \
         grid — the kernel allocates per channel or per input row"
    );
}

#[test]
fn unit_axes_kernel_allocates_nothing_per_channel_or_row() {
    assert_same_allocs(
        Kernel::Ours,
        "unit axes, in_channels 1/2/5",
        &[
            ConvGeometry::nchw(1, 1, 24, 40, 2, 3, 3),
            ConvGeometry::nchw(1, 2, 24, 40, 2, 3, 3),
            ConvGeometry::nchw(1, 5, 24, 40, 2, 3, 3),
        ],
    );
    // 22 and 20 output rows: three 8-row tiles either way, but each tile
    // streams 10 input rows under f_h = 3 and 12 under f_h = 5.
    assert_same_allocs(
        Kernel::Ours,
        "unit axes, f_h 3/5",
        &[
            ConvGeometry::nchw(1, 2, 24, 40, 2, 3, 3),
            ConvGeometry::nchw(1, 2, 24, 40, 2, 5, 3),
        ],
    );
}

#[test]
fn geometry_general_kernel_allocates_nothing_per_channel_or_row() {
    let strided_dilated = |ic| {
        ConvGeometry::nchw(1, ic, 30, 40, 2, 3, 3)
            .with_stride(2, 2)
            .with_dilation(2, 2)
    };
    assert_same_allocs(
        Kernel::Ours,
        "strided+dilated, in_channels 1/3",
        &[strided_dilated(1), strided_dilated(3)],
    );
    // Column reuse applies at unit dilation: the shuffle path.
    let strided = |ic| ConvGeometry::nchw(1, ic, 30, 40, 2, 5, 5).with_stride(2, 2);
    assert_same_allocs(
        Kernel::Ours,
        "strided, in_channels 1/3",
        &[strided(1), strided(3)],
    );
    let grouped = |ic| ConvGeometry::nchw(1, ic, 20, 40, 4, 3, 3).with_groups(2);
    assert_same_allocs(
        Kernel::Ours,
        "grouped, in_channels 2/4/8",
        &[grouped(2), grouped(4), grouped(8)],
    );
}

#[test]
fn depthwise_kernel_allocates_nothing_per_row() {
    assert_same_allocs(
        Kernel::Depthwise,
        "depthwise, f_h 3/5",
        &[
            ConvGeometry::nchw(1, 4, 24, 40, 4, 3, 3).with_groups(4),
            ConvGeometry::nchw(1, 4, 24, 40, 4, 5, 3).with_groups(4),
        ],
    );
}
