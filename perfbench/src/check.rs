//! Output checks against the CPU reference.

use crate::stats::Failure;
use memconv::reference::conv_nchw_ref_geo;
use memconv::tensor::compare::CompareReport;
use memconv::tensor::{ConvGeometry, Tensor4};
use memconv_graph::{maxpool_ref, LayerGraph, LayerOp};

/// Absolute and relative tolerance against the CPU reference: the
/// cross-algorithm tests' bound (FFT, Winograd and GEMM reorder sums).
pub const TOL: f32 = 1e-3;

/// Compare an output with its reference: shape first, then values.
pub fn compare(got: &Tensor4, want: &Tensor4) -> Result<(), Failure> {
    if got.dims() != want.dims() {
        return Err(Failure::WrongShape);
    }
    if CompareReport::new(got.as_slice(), want.as_slice()).within(TOL, TOL) {
        Ok(())
    } else {
        Err(Failure::WrongValues)
    }
}

/// A later pass's verdict: the first pass's verdict when the output is
/// bit-identical to the first pass's, a failure otherwise.
pub fn repeat(
    got: &Tensor4,
    first: &Tensor4,
    first_verdict: Result<(), Failure>,
) -> Result<(), Failure> {
    if got.dims() != first.dims() {
        Err(Failure::WrongShape)
    } else if got.as_slice() != first.as_slice() {
        Err(Failure::WrongValues)
    } else {
        first_verdict
    }
}

/// The whole model on the CPU: `conv_nchw_ref_geo` at each conv node's
/// stride and groups, then bias, ReLU and `maxpool_ref`, node by node.
pub fn graph_ref(graph: &LayerGraph, input: &Tensor4) -> Tensor4 {
    let mut x = input.clone();
    for node in &graph.nodes {
        let (n, c, h, w) = x.dims();
        x = match &node.op {
            LayerOp::Conv {
                weights,
                stride,
                groups,
            } => {
                let g = ConvGeometry::nchw(
                    n,
                    c,
                    h,
                    w,
                    weights.num_filters(),
                    weights.fh(),
                    weights.fw(),
                )
                .with_stride(*stride, *stride)
                .with_groups(*groups);
                conv_nchw_ref_geo(&x, weights, &g)
            }
            LayerOp::Bias { bias } => {
                let plane = h * w;
                let mut data = x.into_vec();
                for (i, v) in data.iter_mut().enumerate() {
                    *v += bias[(i / plane) % c];
                }
                Tensor4::from_vec(n, c, h, w, data).expect("same shape")
            }
            LayerOp::Relu => {
                let data = x.into_vec().into_iter().map(|v| v.max(0.0)).collect();
                Tensor4::from_vec(n, c, h, w, data).expect("same shape")
            }
            LayerOp::MaxPool { k } => {
                let data = maxpool_ref(x.as_slice(), n * c, h, w, *k);
                Tensor4::from_vec(n, c, h / k, w / k, data).expect("pooled shape")
            }
        };
    }
    x
}
