//! The graph planner: epilogue fusion and ping-pong buffer assignment.
//!
//! ## Fusion legality
//!
//! A `Bias` or `Relu` node folds into the convolution producing its input
//! when the nodes are adjacent in the chain (`conv → bias? → relu?`). Two
//! facts make this sound:
//!
//! * **Single consumer** — the IR is a linear chain, so the convolution's
//!   output has exactly one consumer: the epilogue being folded. No other
//!   node can observe the pre-epilogue tensor.
//! * **Bit-identity** — the fused store path applies the *same* f32
//!   operations (`a + bias[f]`, then `max(·, 0)`) to the accumulator
//!   register that the standalone kernels apply to the stored value.
//!   f32 store/load round-trips are lossless, so fused and unfused
//!   schedules produce bit-identical bytes (pinned in
//!   `tests/prop_graph.rs`).
//!
//! `MaxPool` never fuses: its window spans thread-row boundaries of the
//! conv kernel's tiling, so folding it into the store path would need
//! cross-thread communication the store path does not have.
//!
//! ## Ping-pong lifetime argument
//!
//! On a linear chain, the tensor produced by step `i` is consumed only by
//! step `i + 1` and dead afterwards. Two buffer slots therefore suffice:
//! step `i` reads slot `i mod 2` and writes slot `(i + 1) mod 2`, and by
//! induction no live value is ever overwritten. Because input and output
//! slots always differ, no kernel reads and writes the same buffer within
//! one launch — which the simulator's parallel engine requires (stores
//! are buffered, so an in-place kernel would diverge between engines).
//! Each slot is sized to the largest tensor assigned to it; smaller
//! tensors occupy a prefix and every kernel writes its whole logical
//! output unconditionally, so stale tail data from an earlier layer is
//! never observable.

use crate::ir::{GraphIrError, LayerGraph, LayerOp, TensorId};

/// Whether the planner folds eligible epilogues into conv store paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionMode {
    /// Fold `conv → bias? → relu?` into one kernel.
    Fused,
    /// One kernel per IR node (the layer-at-a-time schedule).
    Unfused,
}

/// One schedulable kernel of the planned graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// The convolution at `node`, with epilogue nodes folded into its
    /// store path (`None` = not fused).
    Conv {
        /// IR index of the conv node.
        node: usize,
        /// IR index of a folded `Bias` node.
        bias: Option<usize>,
        /// IR index of a folded `Relu` node.
        relu: Option<usize>,
    },
    /// Standalone out-of-place bias kernel for IR node `node`.
    Bias {
        /// IR index.
        node: usize,
    },
    /// Standalone out-of-place ReLU kernel for IR node `node`.
    Relu {
        /// IR index.
        node: usize,
    },
    /// The max-pool kernel for IR node `node` (never fused).
    MaxPool {
        /// IR index.
        node: usize,
    },
}

impl StepKind {
    /// Kernel-class tag for reports and trace labels.
    pub fn kind(&self) -> &'static str {
        match self {
            StepKind::Conv { bias, relu, .. } => {
                if bias.is_some() || relu.is_some() {
                    "conv-fused"
                } else {
                    "conv"
                }
            }
            StepKind::Bias { .. } => "bias",
            StepKind::Relu { .. } => "relu",
            StepKind::MaxPool { .. } => "maxpool",
        }
    }
}

/// One step of the schedule: a kernel plus its tensor edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What runs.
    pub kind: StepKind,
    /// Edge consumed.
    pub input: TensorId,
    /// Edge produced (the last folded epilogue's output for fused convs).
    pub output: TensorId,
}

/// What fusion achieved, for reports and the bench gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionReport {
    /// Kernels a one-node-one-kernel schedule would launch.
    pub kernels_before: usize,
    /// Kernels the planned schedule launches.
    pub kernels_after: usize,
    /// `Bias` nodes folded into conv store paths.
    pub fused_bias: usize,
    /// `Relu` nodes folded into conv store paths.
    pub fused_relu: usize,
}

/// The planned ping-pong intermediate pool.
///
/// `slot[t]` maps tensor edge `t` to a pool slot; the graph input has no
/// slot (it lives in its own uploaded buffer). `slot_elems[s]` is slot
/// `s`'s capacity in elements *per image* — the executor multiplies by
/// the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolPlan {
    /// Per-edge slot assignment (`None` for the graph input and for edges
    /// eliminated by fusion, which never materialize).
    pub slot: Vec<Option<usize>>,
    /// Per-slot capacity, elements per image.
    pub slot_elems: Vec<usize>,
}

impl PoolPlan {
    /// Pool footprint in elements per image (the planned allocation).
    pub fn pool_elems(&self) -> usize {
        self.slot_elems.iter().sum()
    }
}

/// A planned graph: the fused schedule plus its buffer-pool assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPlan {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Ping-pong pool assignment for materialized edges.
    pub pool: PoolPlan,
    /// Fusion accounting.
    pub fusion: FusionReport,
}

/// Plan `graph`: fold epilogues per `mode`, then assign materialized
/// intermediates to a two-slot ping-pong pool.
pub fn plan_graph(graph: &LayerGraph, mode: FusionMode) -> Result<GraphPlan, GraphIrError> {
    graph.validate()?;

    // -- fusion pass ------------------------------------------------------
    let mut steps: Vec<Step> = Vec::new();
    let mut fused_bias = 0;
    let mut fused_relu = 0;
    let mut i = 0;
    while i < graph.nodes.len() {
        let node = &graph.nodes[i];
        match &node.op {
            LayerOp::Conv { .. } if mode == FusionMode::Fused => {
                let mut bias = None;
                let mut relu = None;
                let mut end = i;
                if let Some(LayerOp::Bias { .. }) = graph.nodes.get(i + 1).map(|n| &n.op) {
                    bias = Some(i + 1);
                    end = i + 1;
                }
                if let Some(LayerOp::Relu) = graph.nodes.get(end + 1).map(|n| &n.op) {
                    relu = Some(end + 1);
                    end += 1;
                }
                fused_bias += bias.is_some() as usize;
                fused_relu += relu.is_some() as usize;
                steps.push(Step {
                    kind: StepKind::Conv {
                        node: i,
                        bias,
                        relu,
                    },
                    input: node.input,
                    output: graph.nodes[end].output,
                });
                i = end + 1;
            }
            op => {
                let kind = match op {
                    LayerOp::Conv { .. } => StepKind::Conv {
                        node: i,
                        bias: None,
                        relu: None,
                    },
                    LayerOp::Bias { .. } => StepKind::Bias { node: i },
                    LayerOp::Relu => StepKind::Relu { node: i },
                    LayerOp::MaxPool { .. } => StepKind::MaxPool { node: i },
                };
                steps.push(Step {
                    kind,
                    input: node.input,
                    output: node.output,
                });
                i += 1;
            }
        }
    }

    // -- ping-pong assignment --------------------------------------------
    // Step i writes slot i % 2; a step's input is either the graph input
    // (its own buffer) or the previous step's output slot — never the
    // slot the step writes.
    let slots = steps.len().min(2);
    let mut slot = vec![None; graph.tensors.len()];
    let mut slot_elems = vec![0usize; slots];
    for (s, step) in steps.iter().enumerate() {
        let which = s % 2;
        slot[step.output.0] = Some(which);
        let elems = graph.shape(step.output).elems();
        slot_elems[which] = slot_elems[which].max(elems);
    }

    let fusion = FusionReport {
        kernels_before: graph.nodes.len(),
        kernels_after: steps.len(),
        fused_bias,
        fused_relu,
    };
    Ok(GraphPlan {
        steps,
        pool: PoolPlan { slot, slot_elems },
        fusion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LayerGraph;
    use memconv::workloads::network_zoo;

    fn vgg_graph() -> LayerGraph {
        LayerGraph::from_network(&network_zoo().remove(1).capped(20, 4), 3).unwrap()
    }

    #[test]
    fn fused_plan_folds_conv_bias_relu_chains() {
        let g = vgg_graph();
        // conv,bias,relu, conv,bias,relu, pool → 7 nodes, 3 fused steps.
        assert_eq!(g.nodes.len(), 7);
        let p = plan_graph(&g, FusionMode::Fused).unwrap();
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.fusion.kernels_before, 7);
        assert_eq!(p.fusion.kernels_after, 3);
        assert_eq!(p.fusion.fused_bias, 2);
        assert_eq!(p.fusion.fused_relu, 2);
        assert_eq!(p.steps[0].kind.kind(), "conv-fused");
        assert_eq!(p.steps[2].kind.kind(), "maxpool");
        // The fused conv's output edge is the relu node's output.
        match p.steps[0].kind {
            StepKind::Conv { node, bias, relu } => {
                assert_eq!(node, 0);
                assert_eq!(bias, Some(1));
                assert_eq!(relu, Some(2));
                assert_eq!(p.steps[0].output, g.nodes[2].output);
            }
            _ => panic!("expected fused conv"),
        }
    }

    #[test]
    fn unfused_plan_is_one_kernel_per_node() {
        let g = vgg_graph();
        let p = plan_graph(&g, FusionMode::Unfused).unwrap();
        assert_eq!(p.steps.len(), g.nodes.len());
        assert!(p.steps.iter().all(|s| s.kind.kind() != "conv-fused"));
    }

    #[test]
    fn pingpong_never_reads_the_slot_it_writes() {
        for net in network_zoo() {
            let g = LayerGraph::from_network(&net.capped(24, 4), 5).unwrap();
            for mode in [FusionMode::Fused, FusionMode::Unfused] {
                let p = plan_graph(&g, mode).unwrap();
                for step in &p.steps {
                    let inp = p.pool.slot[step.input.0];
                    let out = p.pool.slot[step.output.0].expect("outputs materialize");
                    assert_ne!(inp, Some(out), "{}: in-place step", net.model);
                    // Capacity covers the logical tensor.
                    assert!(g.shape(step.output).elems() <= p.pool.slot_elems[out]);
                }
                // Edges swallowed by fusion never materialize.
                if mode == FusionMode::Fused {
                    for (t, s) in p.pool.slot.iter().enumerate() {
                        let produced = p.steps.iter().any(|st| st.output.0 == t);
                        assert_eq!(s.is_some(), produced);
                    }
                }
            }
        }
    }

    #[test]
    fn pool_is_smaller_than_per_edge_allocation() {
        let g = vgg_graph();
        let p = plan_graph(&g, FusionMode::Fused).unwrap();
        let per_edge: usize = g.tensors[1..].iter().map(|t| t.elems()).sum();
        assert!(
            p.pool.pool_elems() < per_edge,
            "pool {} !< per-edge {}",
            p.pool.pool_elems(),
            per_edge
        );
    }
}
