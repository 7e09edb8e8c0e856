//! Winograd F(2×2, 3×3) convolution — cuDNN's `WINOGRAD` (fused) and
//! `WINOGRAD_NONFUSED` algorithms.
//!
//! Each 2×2 output tile is computed from a 4×4 input tile with 16
//! element-wise multiplies instead of 36 MACs (2.25× arithmetic reduction),
//! at the cost of input/output transforms:
//!
//! ```text
//! out = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! * **Fused**: one kernel transforms tiles in registers, multiplies with
//!   the pre-transformed filters, inverse-transforms and stores.
//! * **Non-fused**: the input transform materializes the 16 coefficient
//!   planes, a batched GEMM (16 × `FN×IC×tiles`) contracts the channels,
//!   and an output kernel inverse-transforms — large intermediate traffic,
//!   the trade cuDNN makes to use its fast GEMM for many channels.
//!
//! Only 3×3 filters are supported, mirroring the `0.0` entries the paper's
//! Fig. 4 shows for Winograd on 5×5 layers.

use crate::gemm_kernel::{launch_gemm, GemmBatch, GemmDims};
use memconv_core::api::ConvNchwAlgorithm;
use memconv_gpusim::{
    BufId, GpuSim, KernelStats, LaneMask, LaunchConfig, RunReport, SampleMode, VF, VU, WARP,
};
use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Fused Winograd F(2×2, 3×3).
#[derive(Debug, Clone)]
pub struct WinogradFused {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

/// Non-fused Winograd F(2×2, 3×3).
#[derive(Debug, Clone)]
pub struct WinogradNonfused {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl WinogradFused {
    /// New instance with full simulation.
    pub fn new() -> Self {
        WinogradFused {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl WinogradNonfused {
    /// New instance with full simulation.
    pub fn new() -> Self {
        WinogradNonfused {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for WinogradFused {
    fn default() -> Self {
        WinogradFused::new()
    }
}

impl Default for WinogradNonfused {
    fn default() -> Self {
        WinogradNonfused::new()
    }
}

/// `Bᵀ d B` for a per-lane 4×4 tile `d` (row-major `[VF; 16]`).
/// Bᵀ rows: `[1,0,-1,0] [0,1,1,0] [0,-1,1,0] [0,1,0,-1]`.
fn input_transform(w: &mut memconv_gpusim::WarpCtx<'_, '_>, d: &[VF; 16]) -> [VF; 16] {
    let at = |r: usize, c: usize| d[r * 4 + c];
    // rows: t = Bᵀ · d  (4×4)
    let mut t = [VF::splat(0.0); 16];
    for c in 0..4 {
        t[c] = w.fadd(at(0, c), -at(2, c));
        t[4 + c] = w.fadd(at(1, c), at(2, c));
        t[8 + c] = w.fadd(at(2, c), -at(1, c));
        t[12 + c] = w.fadd(at(1, c), -at(3, c));
    }
    // cols: v = t · B  (apply the same combination to columns)
    let tt = |r: usize, c: usize| t[r * 4 + c];
    let mut v = [VF::splat(0.0); 16];
    for r in 0..4 {
        v[r * 4] = w.fadd(tt(r, 0), -tt(r, 2));
        v[r * 4 + 1] = w.fadd(tt(r, 1), tt(r, 2));
        v[r * 4 + 2] = w.fadd(tt(r, 2), -tt(r, 1));
        v[r * 4 + 3] = w.fadd(tt(r, 1), -tt(r, 3));
    }
    v
}

/// `Aᵀ m A` for a per-lane 4×4 tile `m`: the 2×2 output.
/// Aᵀ rows: `[1,1,1,0] [0,1,-1,-1]`.
fn output_transform(w: &mut memconv_gpusim::WarpCtx<'_, '_>, m: &[VF; 16]) -> [VF; 4] {
    let at = |r: usize, c: usize| m[r * 4 + c];
    let mut t = [VF::splat(0.0); 8]; // 2×4
    for c in 0..4 {
        let s0 = w.fadd(at(0, c), at(1, c));
        t[c] = w.fadd(s0, at(2, c));
        let s1 = w.fadd(at(1, c), -at(2, c));
        t[4 + c] = w.fadd(s1, -at(3, c));
    }
    let tt = |r: usize, c: usize| t[r * 4 + c];
    let mut o = [VF::splat(0.0); 4];
    for r in 0..2 {
        let s0 = w.fadd(tt(r, 0), tt(r, 1));
        o[r * 2] = w.fadd(s0, tt(r, 2));
        let s1 = w.fadd(tt(r, 1), -tt(r, 2));
        o[r * 2 + 1] = w.fadd(s1, -tt(r, 3));
    }
    o
}

/// Filter-transform launch: `U[i][f][c] = (G g Gᵀ)[i]` for every
/// (filter, channel) pair. Returns the `16·FN·IC` coefficient buffer.
fn launch_filter_transform(
    sim: &mut GpuSim,
    weights: BufId,
    fn_: usize,
    ic: usize,
) -> (BufId, KernelStats) {
    let pairs = fn_ * ic;
    let u = sim.mem.alloc(16 * pairs);
    let blocks = (pairs as u32).div_ceil(32);
    let stats = sim.launch(&LaunchConfig::linear(blocks, 32), |blk| {
        let bx = blk.block_idx.0;
        blk.each_warp(|w| {
            let pair = VU::from_fn(|l| bx * 32 + l as u32);
            let mask = pair.lt_scalar(pairs as u32);
            // gather the 9 weights of each lane's (f, c) filter plane
            let mut g = [VF::splat(0.0); 9];
            for (j, slot) in g.iter_mut().enumerate() {
                let idx = VU::from_fn(|l| (pair.lane(l) as usize % pairs.max(1) * 9 + j) as u32);
                *slot = w.gld(weights, &idx, mask);
            }
            // t = G · g (4×3): G rows [1,0,0] [.5,.5,.5] [.5,-.5,.5] [0,0,1]
            let half = VF::splat(0.5);
            let mut t = [VF::splat(0.0); 12];
            for c in 0..3 {
                t[c] = g[c];
                let sp = w.fadd(g[c], g[3 + c]);
                let sum = w.fadd(sp, g[6 + c]);
                t[3 + c] = w.fmul(sum, half);
                let ap = w.fadd(g[c], -g[3 + c]);
                let alt = w.fadd(ap, g[6 + c]);
                t[6 + c] = w.fmul(alt, half);
                t[9 + c] = g[6 + c];
            }
            // U = t · Gᵀ (4×4)
            for r in 0..4 {
                let (a, b, c3) = (t[r * 3], t[r * 3 + 1], t[r * 3 + 2]);
                let u0 = a;
                let sp2 = w.fadd(a, b);
                let s = w.fadd(sp2, c3);
                let u1 = w.fmul(s, half);
                let dp = w.fadd(a, -b);
                let d = w.fadd(dp, c3);
                let u2 = w.fmul(d, half);
                let u3 = c3;
                for (i, val) in [u0, u1, u2, u3].into_iter().enumerate() {
                    let coeff = r * 4 + i;
                    let idx = VU::from_fn(|l| {
                        (coeff * pairs + pair.lane(l) as usize % pairs.max(1)) as u32
                    });
                    w.gst(u, &idx, &val, mask);
                }
            }
        });
    });
    (u, stats)
}

fn geometry(input: &Tensor4, weights: &FilterBank) -> ConvGeometry {
    let (n, c, ih, iw) = input.dims();
    ConvGeometry::nchw(
        n,
        c,
        ih,
        iw,
        weights.num_filters(),
        weights.fh(),
        weights.fw(),
    )
}

impl ConvNchwAlgorithm for WinogradFused {
    fn name(&self) -> &str {
        "winograd"
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        fh == 3 && fw == 3
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        assert!(self.supports(weights.fh(), weights.fw()), "F(2x2,3x3) only");
        let g = geometry(input, weights);
        let (ih, iw) = (g.in_h, g.in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let (ic, fn_) = (g.in_channels, g.out_channels);
        let tiles_x = ow.div_ceil(2);
        let tiles_y = oh.div_ceil(2);
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let pairs = fn_ * ic;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload(input.as_slice());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let (bu, stats) = launch_filter_transform(sim, bw, fn_, ic);
        rep.push("winograd_filter_transform", stats);

        let block_warps = 4usize;
        let gx = tiles_x.div_ceil(WARP * block_warps) as u32;
        let gy = tiles_y as u32;
        let gz = (g.batch * fn_) as u32;
        let cfg =
            LaunchConfig::grid3d(gx, gy, gz, (WARP * block_warps) as u32).with_sample(self.sample);

        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let img = bz as usize / fn_;
            let f = bz as usize % fn_;
            let ty = by as usize;
            blk.each_warp(|w| {
                let tx0 = (bx as usize * block_warps + w.warp_id) * WARP;
                if tx0 >= tiles_x {
                    return;
                }
                let mut m = [VF::splat(0.0); 16];

                for c in 0..ic {
                    let plane = (img * ic + c) * in_plane;
                    // load the per-lane 4×4 input tile (stride-2 lanes)
                    let mut d = [VF::splat(0.0); 16];
                    for r in 0..4 {
                        let y = 2 * ty + r;
                        for s in 0..4 {
                            let mask = LaneMask::from_fn(|l| {
                                y < ih && 2 * (tx0 + l) + s < iw && tx0 + l < tiles_x
                            });
                            let idx = VU::from_fn(|l| {
                                (plane + y.min(ih - 1) * iw + (2 * (tx0 + l) + s).min(iw - 1))
                                    as u32
                            });
                            d[r * 4 + s] = w.gld(bi, &idx, mask);
                        }
                    }
                    let v = input_transform(w, &d);
                    // multiply with the (uniform) transformed filter
                    let ubase = (f * ic + c) as u32;
                    for i in 0..16 {
                        let uidx = VU::splat(i as u32 * pairs as u32 + ubase);
                        let uval = w.gld(bu, &uidx, LaneMask::ALL);
                        m[i] = w.fma(v[i], uval, m[i]);
                    }
                }

                let o = output_transform(w, &m);
                let out_base = (img * fn_ + f) * out_plane;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let y = 2 * ty + dy;
                        let mask = LaneMask::from_fn(|l| {
                            y < oh && 2 * (tx0 + l) + dx < ow && tx0 + l < tiles_x
                        });
                        let idx = VU::from_fn(|l| {
                            (out_base + y.min(oh - 1) * ow + (2 * (tx0 + l) + dx).min(ow - 1))
                                as u32
                        });
                        w.gst(bo, &idx, &o[dy * 2 + dx], mask);
                    }
                }
            });
        });
        rep.push("winograd_fused", stats);

        rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S);
        let out = Tensor4::from_vec(g.batch, fn_, oh, ow, sim.mem.take(bo))
            .expect("shape by construction");
        (out, rep)
    }
}

impl ConvNchwAlgorithm for WinogradNonfused {
    fn name(&self) -> &str {
        "nonfused"
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        fh == 3 && fw == 3
    }

    fn run(&self, sim: &mut GpuSim, input: &Tensor4, weights: &FilterBank) -> (Tensor4, RunReport) {
        assert!(self.supports(weights.fh(), weights.fw()), "F(2x2,3x3) only");
        let g = geometry(input, weights);
        let (ih, iw) = (g.in_h, g.in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let (ic, fn_, n) = (g.in_channels, g.out_channels, g.batch);
        let tiles_x = ow.div_ceil(2);
        let tiles_y = oh.div_ceil(2);
        let tiles = tiles_x * tiles_y;
        let ncols = n * tiles;
        let in_plane = ih * iw;
        let out_plane = oh * ow;
        let mut rep = RunReport::new();

        let bi = sim.mem.upload(input.as_slice());
        let bw = sim.mem.upload(weights.as_slice());
        let bo = sim.mem.alloc(g.out_elems());
        let (bu, stats) = launch_filter_transform(sim, bw, fn_, ic);
        rep.push("winograd_filter_transform", stats);

        // --- input transform: V[i][c][(img, tile)] ------------------------
        let bv = sim.mem.alloc(16 * ic * ncols);
        let block_warps = 4usize;
        let gx = tiles_x.div_ceil(WARP * block_warps) as u32;
        let cfg = LaunchConfig::grid3d(
            gx,
            tiles_y as u32,
            (n * ic) as u32,
            (WARP * block_warps) as u32,
        )
        .with_sample(self.sample);
        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let img = bz as usize / ic;
            let c = bz as usize % ic;
            let ty = by as usize;
            blk.each_warp(|w| {
                let tx0 = (bx as usize * block_warps + w.warp_id) * WARP;
                if tx0 >= tiles_x {
                    return;
                }
                let plane = (img * ic + c) * in_plane;
                let mut d = [VF::splat(0.0); 16];
                for r in 0..4 {
                    let y = 2 * ty + r;
                    for s in 0..4 {
                        let mask = LaneMask::from_fn(|l| {
                            y < ih && 2 * (tx0 + l) + s < iw && tx0 + l < tiles_x
                        });
                        let idx = VU::from_fn(|l| {
                            (plane + y.min(ih - 1) * iw + (2 * (tx0 + l) + s).min(iw - 1)) as u32
                        });
                        d[r * 4 + s] = w.gld(bi, &idx, mask);
                    }
                }
                let v = input_transform(w, &d);
                let tmask = LaneMask::from_fn(|l| tx0 + l < tiles_x);
                for (i, val) in v.iter().enumerate() {
                    let idx = VU::from_fn(|l| {
                        (i * ic * ncols
                            + c * ncols
                            + img * tiles
                            + ty * tiles_x
                            + (tx0 + l).min(tiles_x - 1)) as u32
                    });
                    w.gst(bv, &idx, val, tmask);
                }
            });
        });
        rep.push("winograd_input_transform", stats);

        // --- 16 batched GEMMs: M_i = U_i (FN×IC) · V_i (IC×ncols) ----------
        let bm = sim.mem.alloc(16 * fn_ * ncols);
        let stats = launch_gemm(
            sim,
            bu,
            bv,
            bm,
            GemmDims {
                m: fn_,
                k: ic,
                n: ncols,
            },
            GemmBatch {
                batch: 16,
                stride_a: fn_ * ic,
                stride_b: ic * ncols,
                stride_c: fn_ * ncols,
                ..GemmBatch::single()
            },
            self.sample,
        );
        rep.push("winograd_coeff_gemm", stats);

        // --- output inverse transform --------------------------------------
        let cfg = LaunchConfig::grid3d(
            gx,
            tiles_y as u32,
            (n * fn_) as u32,
            (WARP * block_warps) as u32,
        )
        .with_sample(self.sample);
        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, bz) = blk.block_idx;
            let img = bz as usize / fn_;
            let f = bz as usize % fn_;
            let ty = by as usize;
            blk.each_warp(|w| {
                let tx0 = (bx as usize * block_warps + w.warp_id) * WARP;
                if tx0 >= tiles_x {
                    return;
                }
                let tmask = LaneMask::from_fn(|l| tx0 + l < tiles_x);
                let mut m = [VF::splat(0.0); 16];
                for (i, slot) in m.iter_mut().enumerate() {
                    let idx = VU::from_fn(|l| {
                        (i * fn_ * ncols
                            + f * ncols
                            + img * tiles
                            + ty * tiles_x
                            + (tx0 + l).min(tiles_x - 1)) as u32
                    });
                    *slot = w.gld(bm, &idx, tmask);
                }
                let o = output_transform(w, &m);
                let out_base = (img * fn_ + f) * out_plane;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let y = 2 * ty + dy;
                        let mask = LaneMask::from_fn(|l| {
                            y < oh && 2 * (tx0 + l) + dx < ow && tx0 + l < tiles_x
                        });
                        let idx = VU::from_fn(|l| {
                            (out_base + y.min(oh - 1) * ow + (2 * (tx0 + l) + dx).min(ow - 1))
                                as u32
                        });
                        w.gst(bo, &idx, &o[dy * 2 + dx], mask);
                    }
                }
            });
        });
        rep.push("winograd_output_transform", stats);

        rep.add_api_overhead(crate::CUDNN_CALL_OVERHEAD_S);
        let out =
            Tensor4::from_vec(n, fn_, oh, ow, sim.mem.take(bo)).expect("shape by construction");
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv_nchw_ref;
    use memconv_tensor::{assert_close, generate::TensorRng};

    fn check<A: ConvNchwAlgorithm>(algo: &A, n: usize, ic: usize, h: usize, w: usize, fn_: usize) {
        let mut rng = TensorRng::new((n * 11 + ic * 13 + h + w + fn_) as u64);
        let t = rng.tensor(n, ic, h, w);
        let b = rng.filter_bank(fn_, ic, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let (out, _) = algo.run(&mut sim, &t, &b);
        let want = conv_nchw_ref(&t, &b);
        assert_close(
            out.as_slice(),
            want.as_slice(),
            2e-4,
            2e-4,
            &format!("{} n={n} ic={ic} {h}x{w} fn={fn_}", algo.name()),
        );
    }

    #[test]
    fn fused_matches_reference() {
        check(&WinogradFused::new(), 1, 1, 8, 8, 1);
        check(&WinogradFused::new(), 2, 3, 11, 13, 2); // odd output sizes
    }

    #[test]
    fn nonfused_matches_reference() {
        check(&WinogradNonfused::new(), 1, 1, 8, 8, 1);
        check(&WinogradNonfused::new(), 2, 2, 10, 9, 3);
    }

    #[test]
    fn only_3x3_supported() {
        assert!(WinogradFused::new().supports(3, 3));
        assert!(!WinogradFused::new().supports(5, 5));
        assert!(!WinogradNonfused::new().supports(5, 5));
    }

    #[test]
    fn fused_does_fewer_multiplies_than_direct_macs() {
        let mut rng = TensorRng::new(3);
        let t = rng.tensor(1, 1, 34, 34);
        let b = rng.filter_bank(1, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = WinogradFused::new().run(&mut sim, &t, &b);
        let s = rep.totals();
        let direct_macs = 32 * 32 * 9u64; // OH·OW·FH·FW
                                          // 16 multiplies per 2×2 tile = 4 per output (vs 9 direct)
        assert!(
            s.fma_instrs * 32 < direct_macs,
            "winograd multiplies {} should undercut direct {direct_macs}",
            s.fma_instrs * 32
        );
    }

    #[test]
    fn nonfused_materializes_coefficient_planes() {
        let mut rng = TensorRng::new(4);
        let t = rng.tensor(1, 1, 16, 16);
        let b = rng.filter_bank(1, 1, 3, 3);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, rep) = WinogradNonfused::new().run(&mut sim, &t, &b);
        assert_eq!(rep.launches.len(), 4);
        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, fused) = WinogradFused::new().run(&mut sim, &t, &b);
        assert!(rep.totals().gst_transactions > 3 * fused.totals().gst_transactions);
    }
}
