//! Standalone (unfused) epilogue and pooling kernels for the
//! layer-at-a-time schedule and for graph steps fusion cannot absorb.
//!
//! Every kernel here is **out-of-place** (`src` and `dst` are distinct
//! buffers). That is not a style choice: the simulator's sequential
//! engine applies stores inline while the parallel engine buffers them to
//! commit at launch end, so a kernel that read and wrote the same buffer
//! would diverge between engines. Out-of-place kernels are the reason the
//! ping-pong pool ([`crate::plan`]) alternates slots.
//!
//! Kernels write every element of their logical output geometry
//! unconditionally, so an oversized pool slot never leaks an earlier
//! layer's data into the visible prefix.

use memconv::gpusim::{BlockCtx, BufId, GpuSim, KernelStats, LaunchConfig, LaunchError, VF, WARP};

/// Warps per block for the elementwise and pooling kernels.
const BLOCK_WARPS: usize = 4;

/// Launch the out-of-place epilogue kernel: `dst = relu?(src + bias?)`
/// over `planes` channel planes of `plane` elements each (`planes` is
/// `batch × channels`; the bias buffer is indexed by `plane_index %
/// channels`, matching NCHW layout).
///
/// The arithmetic is intentionally identical to the fused store path of
/// [`memconv::core::launch_conv_nchw_fused`]: a counted `fadd` against a
/// constant-memory bias scalar, then `max(·, 0)` — so standalone and
/// fused epilogues produce bit-identical bytes.
#[allow(clippy::too_many_arguments)] // mirrors the step's full addressing context
pub fn launch_epilogue(
    sim: &mut GpuSim,
    src: BufId,
    dst: BufId,
    bias: Option<BufId>,
    relu: bool,
    channels: usize,
    planes: usize,
    plane: usize,
) -> Result<KernelStats, LaunchError> {
    if bias.is_none() && !relu {
        return Err(LaunchError::InvalidConfig(
            "epilogue kernel with no bias and no relu".into(),
        ));
    }
    if src == dst {
        return Err(LaunchError::InvalidConfig(
            "epilogue kernel must be out-of-place".into(),
        ));
    }
    if let Some(b) = bias {
        let have = sim.mem.len(b);
        if have < channels {
            return Err(LaunchError::InvalidConfig(format!(
                "bias buffer has {have} elems, need {channels}"
            )));
        }
    }
    let gx = plane.div_ceil(WARP * BLOCK_WARPS) as u32;
    let launch = LaunchConfig::grid3d(gx, 1, planes as u32, (WARP * BLOCK_WARPS) as u32);
    let kernel = move |blk: &mut BlockCtx<'_>| {
        let (bx, _, bz) = blk.block_idx;
        let c = bz as usize % channels;
        let plane_base = bz as usize * plane;
        blk.each_warp(|w| {
            let base = (bx as usize * BLOCK_WARPS + w.warp_id) * WARP;
            if base >= plane {
                return;
            }
            let lane = w.lane_id();
            let mask = lane.lt_scalar((plane - base) as u32);
            let idx = lane + (plane_base + base) as u32;
            let mut v = w.gld(src, &idx, mask);
            if let Some(b) = bias {
                let bv = w.const_load(b, c as u32);
                v = w.fadd(v, bv);
            }
            if relu {
                v = v.map(|x| x.max(0.0));
                w.count_fp(1);
            }
            w.gst(dst, &idx, &v, mask);
        });
    };
    sim.try_launch(&launch, kernel)
}

/// Launch the out-of-place `k×k`/stride-`k` max-pool kernel over `planes`
/// channel planes: input planes are `ih × iw`, output planes
/// `(ih/k) × (iw/k)` (floor — windows never straddle the edge).
///
/// One thread per output element; the window maximum is reduced in
/// registers in fixed `(ky, kx)` order, so the result is deterministic
/// and engine-independent.
pub fn launch_maxpool(
    sim: &mut GpuSim,
    src: BufId,
    dst: BufId,
    planes: usize,
    ih: usize,
    iw: usize,
    k: usize,
) -> Result<KernelStats, LaunchError> {
    if src == dst {
        return Err(LaunchError::InvalidConfig(
            "maxpool kernel must be out-of-place".into(),
        ));
    }
    if k == 0 || ih < k || iw < k {
        return Err(LaunchError::InvalidConfig(format!(
            "{ih}×{iw} input under {k}×{k} pool"
        )));
    }
    let (oh, ow) = (ih / k, iw / k);
    let in_plane = ih * iw;
    let out_plane = oh * ow;
    let gx = ow.div_ceil(WARP * BLOCK_WARPS) as u32;
    let launch = LaunchConfig::grid3d(gx, oh as u32, planes as u32, (WARP * BLOCK_WARPS) as u32);
    let kernel = move |blk: &mut BlockCtx<'_>| {
        let (bx, by, bz) = blk.block_idx;
        let in_base = bz as usize * in_plane;
        let out_base = bz as usize * out_plane;
        let oy = by as usize;
        blk.each_warp(|w| {
            let x0 = (bx as usize * BLOCK_WARPS + w.warp_id) * WARP;
            if x0 >= ow {
                return;
            }
            let lane = w.lane_id();
            let mask = lane.lt_scalar((ow - x0) as u32);
            let mut best = VF::splat(f32::NEG_INFINITY);
            for ky in 0..k {
                let iy = oy * k + ky;
                for kx in 0..k {
                    // ix = (x0 + lane) * k + kx, strided across the row.
                    let idx = (lane + x0 as u32) * k as u32 + (in_base + iy * iw + kx) as u32;
                    let v = w.gld(src, &idx, mask);
                    best = best.zip(&v, f32::max);
                    w.count_fp(1);
                }
            }
            let oidx = lane + (out_base + oy * ow + x0) as u32;
            w.gst(dst, &oidx, &best, mask);
        });
    };
    sim.try_launch(&launch, kernel)
}

/// Host reference for the pool kernel (tests and the graph executor's
/// golden checks): same window order, same `f32::max`.
pub fn maxpool_ref(src: &[f32], planes: usize, ih: usize, iw: usize, k: usize) -> Vec<f32> {
    let (oh, ow) = (ih / k, iw / k);
    let mut out = Vec::with_capacity(planes * oh * ow);
    for p in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..k {
                    for kx in 0..k {
                        let v = src[p * ih * iw + (oy * k + ky) * iw + ox * k + kx];
                        best = best.max(v);
                    }
                }
                out.push(best);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv::gpusim::{DeviceConfig, LaunchMode};
    use memconv::tensor::generate::TensorRng;

    fn values(n: usize, seed: u64) -> Vec<f32> {
        TensorRng::new(seed).tensor(1, 1, 1, n).into_vec()
    }

    #[test]
    fn epilogue_matches_host_arithmetic() {
        let (channels, planes, plane) = (3, 6, 70); // batch 2 × 3 channels
        let data = values(planes * plane, 1);
        let bias = vec![0.5, -0.25, 1.0];
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let src = sim.mem.upload(&data);
        let b = sim.mem.upload(&bias);
        let dst = sim.mem.alloc(planes * plane);
        launch_epilogue(&mut sim, src, dst, Some(b), true, channels, planes, plane).unwrap();
        let want: Vec<f32> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| (v + bias[(i / plane) % channels]).max(0.0))
            .collect();
        assert_eq!(sim.mem.download(dst), &want[..]);
    }

    #[test]
    fn epilogue_is_engine_invariant() {
        let (channels, planes, plane) = (2, 4, 45);
        let data = values(planes * plane, 2);
        let run = |mode: LaunchMode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let src = sim.mem.upload(&data);
            let dst = sim.mem.alloc(planes * plane);
            let stats =
                launch_epilogue(&mut sim, src, dst, None, true, channels, planes, plane).unwrap();
            (sim.mem.download(dst).to_vec(), stats)
        };
        assert_eq!(run(LaunchMode::Sequential), run(LaunchMode::Parallel));
    }

    #[test]
    fn maxpool_matches_reference_and_engines_agree() {
        let (planes, ih, iw, k) = (4, 11, 13, 2); // odd sizes: floor windows
        let data = values(planes * ih * iw, 3);
        let want = maxpool_ref(&data, planes, ih, iw, k);
        let run = |mode: LaunchMode| {
            let mut sim = GpuSim::new(DeviceConfig::test_tiny()).with_launch_mode(mode);
            let src = sim.mem.upload(&data);
            let dst = sim.mem.alloc(planes * (ih / k) * (iw / k));
            let stats = launch_maxpool(&mut sim, src, dst, planes, ih, iw, k).unwrap();
            (sim.mem.download(dst).to_vec(), stats)
        };
        let (seq, seq_stats) = run(LaunchMode::Sequential);
        assert_eq!(seq, want);
        assert_eq!((seq, seq_stats), run(LaunchMode::Parallel));
    }

    #[test]
    fn kernels_fill_oversized_pool_slots_without_leaks() {
        let (planes, ih, iw, k) = (2, 8, 8, 2);
        let data = values(planes * ih * iw, 4);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let src = sim.mem.upload(&data);
        // Slot twice the logical size, poisoned with a sentinel.
        let dst = sim.mem.upload(&vec![999.0; 2 * planes * 16]);
        launch_maxpool(&mut sim, src, dst, planes, ih, iw, k).unwrap();
        let logical = planes * 16;
        let want = maxpool_ref(&data, planes, ih, iw, k);
        assert_eq!(&sim.mem.download(dst)[..logical], &want[..]);
        // The tail past the logical output is untouched sentinel.
        assert_eq!(sim.mem.download(dst)[logical], 999.0);
    }

    #[test]
    fn in_place_and_degenerate_configs_are_rejected() {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let a = sim.mem.alloc(16);
        let b = sim.mem.alloc(16);
        assert!(launch_epilogue(&mut sim, a, a, None, true, 1, 1, 16).is_err());
        assert!(launch_epilogue(&mut sim, a, b, None, false, 1, 1, 16).is_err());
        assert!(launch_maxpool(&mut sim, a, a, 1, 4, 4, 2).is_err());
        assert!(launch_maxpool(&mut sim, a, b, 1, 2, 2, 3).is_err());
    }
}
