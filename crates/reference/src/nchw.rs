//! Reference batched multi-channel convolution (the Fig. 4 workload),
//! plus the geometry-general variant covering grouped/depthwise, strided
//! and dilated shapes.

use memconv_tensor::{ConvGeometry, FilterBank, Tensor4};

/// Direct NCHW convolution: `out[n][f][oy][ox] = Σ_c Σ_r Σ_s
/// in[n][c][oy+r][ox+s] · w[f][c][r][s]` (valid padding, unit stride).
///
/// Accumulation order is `c`-outer, then row-major over the filter — the
/// order the simulated multi-channel kernels preserve.
pub fn conv_nchw_ref(input: &Tensor4, weights: &FilterBank) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    assert_eq!(c, weights.channels(), "channel mismatch");
    let (fh, fw) = (weights.fh(), weights.fw());
    assert!(ih >= fh && iw >= fw, "filter larger than input");
    let (oh, ow) = (ih - fh + 1, iw - fw + 1);
    let fn_ = weights.num_filters();

    let plane = oh * ow;
    let (in_plane, w_plane) = (ih * iw, fh * fw);
    let mut data = vec![0.0f32; n * fn_ * plane];
    memconv_par::for_each_chunk_mut(&mut data, plane, |nf, out| {
        let in_n = nf / fn_;
        let f = nf % fn_;
        // Image `in_n` and filter `f`, both `c` planes deep.
        let image = &input.as_slice()[in_n * c * in_plane..][..c * in_plane];
        let filter = &weights.as_slice()[f * c * w_plane..][..c * w_plane];
        for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
            for (ox, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (in_ch, w_ch) in image
                    .chunks_exact(in_plane)
                    .zip(filter.chunks_exact(w_plane))
                {
                    for (r, w_row) in w_ch.chunks_exact(fw).enumerate() {
                        let in_row = &in_ch[(oy + r) * iw + ox..][..fw];
                        for (&x, &w) in in_row.iter().zip(w_row) {
                            acc = x.mul_add(w, acc);
                        }
                    }
                }
                *o = acc;
            }
        }
    });
    Tensor4::from_vec(n, fn_, oh, ow, data).expect("shape by construction")
}

/// The element-accessor form of [`conv_nchw_ref`], kept as its oracle:
/// the same sums in the same order, through bounds-checked `get`s.
#[cfg(test)]
fn conv_nchw_ref_by_get(input: &Tensor4, weights: &FilterBank) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    let (fh, fw) = (weights.fh(), weights.fw());
    let (oh, ow) = (ih - fh + 1, iw - fw + 1);
    let fn_ = weights.num_filters();
    let mut out = Tensor4::zeros(n, fn_, oh, ow);
    for in_n in 0..n {
        for f in 0..fn_ {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ch in 0..c {
                        for r in 0..fh {
                            for s in 0..fw {
                                acc = input
                                    .get(in_n, ch, oy + r, ox + s)
                                    .mul_add(weights.get(f, ch, r, s), acc);
                            }
                        }
                    }
                    out.set(in_n, f, oy, ox, acc);
                }
            }
        }
    }
    out
}

/// Geometry-general direct NCHW convolution: groups, stride, dilation and
/// symmetric zero padding, with the same `c`-outer / row-major-filter
/// accumulation order as [`conv_nchw_ref`] (within the filter's group).
///
/// `out[n][f][oy][ox] = Σ_cg Σ_r Σ_s
/// in[n][g·CPG+cg][oy·SH + r·DH − pad][ox·SW + s·DW − pad] · w[f][cg][r][s]`
/// where `g = f / (FN/groups)` and out-of-image taps contribute zero.
///
/// The weight bank carries `IC/groups` channels per filter
/// (`FilterBank::channels() == g.channels_per_group()`).
pub fn conv_nchw_ref_geo(input: &Tensor4, weights: &FilterBank, g: &ConvGeometry) -> Tensor4 {
    let (n, c, ih, iw) = input.dims();
    assert_eq!(
        (n, c, ih, iw),
        (g.batch, g.in_channels, g.in_h, g.in_w),
        "input/geometry mismatch"
    );
    assert_eq!(
        weights.num_filters(),
        g.out_channels,
        "filter-count mismatch"
    );
    assert_eq!(
        weights.channels(),
        g.channels_per_group(),
        "weights must carry IC/groups channels"
    );
    assert_eq!(
        (weights.fh(), weights.fw()),
        (g.f_h, g.f_w),
        "filter-size mismatch"
    );
    let (oh, ow) = (g.out_h(), g.out_w());
    let fn_ = g.out_channels;
    let (fh, fw) = (g.f_h, g.f_w);
    let cpg = g.channels_per_group();
    let fpg = g.filters_per_group();
    let (sh, sw) = (g.stride_h, g.stride_w);
    let (dh, dw) = (g.dil_h, g.dil_w);
    let (pad_h, pad_w) = (g.pad_h as i64, g.pad_w as i64);

    let plane = oh * ow;
    let mut data = vec![0.0f32; n * fn_ * plane];
    memconv_par::for_each_chunk_mut(&mut data, plane, |nf, out| {
        let in_n = nf / fn_;
        let f = nf % fn_;
        let c0 = (f / fpg) * cpg;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for cg in 0..cpg {
                    for r in 0..fh {
                        let iy = (oy * sh + r * dh) as i64 - pad_h;
                        if iy < 0 || iy as usize >= ih {
                            continue;
                        }
                        for s in 0..fw {
                            let ix = (ox * sw + s * dw) as i64 - pad_w;
                            if ix < 0 || ix as usize >= iw {
                                continue;
                            }
                            acc = input
                                .get(in_n, c0 + cg, iy as usize, ix as usize)
                                .mul_add(weights.get(f, cg, r, s), acc);
                        }
                    }
                }
                out[oy * ow + ox] = acc;
            }
        }
    });
    Tensor4::from_vec(n, fn_, oh, ow, data).expect("shape by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv2d::conv2d_ref;
    use memconv_tensor::generate::TensorRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_channel_single_filter_matches_2d() {
        let mut rng = TensorRng::new(21);
        let img = rng.image(9, 11);
        let filt = rng.filter(3, 3);
        let t = Tensor4::from_image(&img);
        let bank = FilterBank::broadcast(&filt, 1, 1);
        let out = conv_nchw_ref(&t, &bank);
        let want = conv2d_ref(&img, &filt);
        assert_eq!(out.plane(0, 0).as_slice(), want.as_slice());
    }

    #[test]
    fn channels_sum() {
        let mut rng = TensorRng::new(22);
        let t = rng.tensor(1, 3, 6, 6);
        let bank = rng.filter_bank(2, 3, 3, 3);
        let out = conv_nchw_ref(&t, &bank);
        assert_eq!(out.dims(), (1, 2, 4, 4));
        // filter 1, output (2,3): manual sum
        let mut want = 0.0f32;
        for c in 0..3 {
            for r in 0..3 {
                for s in 0..3 {
                    want += t.get(0, c, 2 + r, 3 + s) * bank.get(1, c, r, s);
                }
            }
        }
        assert!((out.get(0, 1, 2, 3) - want).abs() < 1e-4);
    }

    #[test]
    fn row_slices_match_get_oracle_bit_for_bit() {
        // (batch, channels, ih, iw, filters, fh, fw): batch > 1, 1×1,
        // 11×11 and non-square inputs and filters, then seeded random
        // shapes.
        let mut shapes = vec![
            (3, 2, 9, 9, 4, 3, 3),
            (2, 3, 7, 5, 2, 1, 1),
            (1, 2, 13, 12, 3, 11, 11),
            (2, 2, 10, 17, 3, 3, 5),
            (1, 1, 6, 20, 1, 5, 2),
        ];
        let mut pick = StdRng::seed_from_u64(99);
        for _ in 0..12 {
            let (fh, fw) = (pick.gen_range(1..8), pick.gen_range(1..8));
            shapes.push((
                pick.gen_range(1..4),
                pick.gen_range(1..4),
                fh + pick.gen_range(0..9),
                fw + pick.gen_range(0..9),
                pick.gen_range(1..4),
                fh,
                fw,
            ));
        }
        for (i, &(n, c, ih, iw, fn_, fh, fw)) in shapes.iter().enumerate() {
            let mut rng = TensorRng::new(500 + i as u64);
            let t = rng.tensor(n, c, ih, iw);
            let bank = rng.filter_bank(fn_, c, fh, fw);
            let got = conv_nchw_ref(&t, &bank);
            let want = conv_nchw_ref_by_get(&t, &bank);
            assert_eq!(got.dims(), want.dims());
            let bits = |x: &Tensor4| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "shape {:?}", shapes[i]);
        }
    }

    #[test]
    fn batch_images_independent() {
        let mut rng = TensorRng::new(23);
        let t = rng.tensor(3, 2, 5, 5);
        let bank = rng.filter_bank(2, 2, 3, 3);
        let all = conv_nchw_ref(&t, &bank);
        // image 2 alone gives the same plane
        let single = Tensor4::from_fn(1, 2, 5, 5, |_, c, y, x| t.get(2, c, y, x));
        let out2 = conv_nchw_ref(&single, &bank);
        assert_eq!(all.plane(2, 1).as_slice(), out2.plane(0, 1).as_slice());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let t = Tensor4::zeros(1, 2, 5, 5);
        let bank = FilterBank::zeros(1, 3, 3, 3);
        conv_nchw_ref(&t, &bank);
    }

    #[test]
    fn geo_unit_axes_matches_legacy_reference() {
        let mut rng = TensorRng::new(31);
        let t = rng.tensor(2, 3, 8, 9);
        let bank = rng.filter_bank(4, 3, 3, 3);
        let g = ConvGeometry::nchw(2, 3, 8, 9, 4, 3, 3).validate().unwrap();
        let legacy = conv_nchw_ref(&t, &bank);
        let geo = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(legacy.as_slice(), geo.as_slice());
    }

    #[test]
    fn geo_stride_subsamples_unit_output() {
        let mut rng = TensorRng::new(32);
        let t = rng.tensor(1, 2, 11, 13);
        let bank = rng.filter_bank(2, 2, 3, 3);
        let unit = conv_nchw_ref(&t, &bank);
        let g = ConvGeometry::nchw(1, 2, 11, 13, 2, 3, 3)
            .with_stride(2, 3)
            .validate()
            .unwrap();
        let strided = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(strided.dims(), (1, 2, g.out_h(), g.out_w()));
        for f in 0..2 {
            for oy in 0..g.out_h() {
                for ox in 0..g.out_w() {
                    assert_eq!(
                        strided.get(0, f, oy, ox),
                        unit.get(0, f, oy * 2, ox * 3),
                        "f={f} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }

    #[test]
    fn geo_dilation_matches_manual_sum() {
        let mut rng = TensorRng::new(33);
        let t = rng.tensor(1, 1, 9, 9);
        let bank = rng.filter_bank(1, 1, 3, 3);
        let g = ConvGeometry::nchw(1, 1, 9, 9, 1, 3, 3)
            .with_dilation(2, 2)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        let mut want = 0.0f32;
        for r in 0..3 {
            for s in 0..3 {
                want = t
                    .get(0, 0, 1 + 2 * r, 3 + 2 * s)
                    .mul_add(bank.get(0, 0, r, s), want);
            }
        }
        assert_eq!(out.get(0, 0, 1, 3), want);
    }

    #[test]
    fn geo_depthwise_is_per_channel_2d() {
        let mut rng = TensorRng::new(34);
        let t = rng.tensor(1, 3, 7, 7);
        let bank = rng.filter_bank(3, 1, 3, 3); // depthwise: FC = 1
        let g = ConvGeometry::nchw(1, 3, 7, 7, 3, 3, 3)
            .with_groups(3)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        for ch in 0..3 {
            let img = t.plane(0, ch);
            let want = conv2d_ref(&img, &bank.plane(ch, 0));
            assert_eq!(out.plane(0, ch).as_slice(), want.as_slice(), "ch {ch}");
        }
    }

    #[test]
    fn geo_grouped_sums_only_its_group() {
        let mut rng = TensorRng::new(35);
        let t = rng.tensor(1, 4, 6, 6);
        let bank = rng.filter_bank(4, 2, 3, 3); // 2 groups × 2 filters
        let g = ConvGeometry::nchw(1, 4, 6, 6, 4, 3, 3)
            .with_groups(2)
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        // filter 3 (group 1) reads channels 2..4 only
        let mut want = 0.0f32;
        for cg in 0..2 {
            for r in 0..3 {
                for s in 0..3 {
                    want = t
                        .get(0, 2 + cg, 1 + r, 2 + s)
                        .mul_add(bank.get(3, cg, r, s), want);
                }
            }
        }
        assert_eq!(out.get(0, 3, 1, 2), want);
    }

    #[test]
    fn geo_padding_zero_extends() {
        let mut rng = TensorRng::new(36);
        let t = rng.tensor(1, 1, 5, 5);
        let bank = rng.filter_bank(1, 1, 3, 3);
        let g = ConvGeometry::nchw(1, 1, 5, 5, 1, 3, 3)
            .with_padding(memconv_tensor::Padding::Same)
            .unwrap()
            .validate()
            .unwrap();
        let out = conv_nchw_ref_geo(&t, &bank, &g);
        assert_eq!(out.dims(), (1, 1, 5, 5));
        // corner output touches only the 2×2 in-image taps
        let mut want = 0.0f32;
        for r in 1..3 {
            for s in 1..3 {
                want = t
                    .get(0, 0, r - 1, s - 1)
                    .mul_add(bank.get(0, 0, r, s), want);
            }
        }
        assert_eq!(out.get(0, 0, 0, 0), want);
    }
}
