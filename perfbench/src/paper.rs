//! `paper-sweep`: the figure cells of Fig. 4 and Fig. 3, one sampled
//! launch sequence per cell on the sequential engine.
//!
//! A cell is one algorithm on one figure point. Each pass runs every
//! cell once; the first pass's reports give the modeled metrics. Each
//! cell is checked once per run on an unsampled batch-1 launch against
//! the CPU reference, and every later pass must reproduce the first
//! pass's counters exactly.

use crate::check::compare;
use crate::spans::Tracer;
use crate::stats::{latency, mean, Failure, Metric, Tally};
use crate::{fifo_max_rate, Segment, Verdicts, SAMPLE_TARGET};
use memconv::baselines::cudnn::cudnn_family;
use memconv::gpusim::KernelStats;
use memconv::prelude::*;
use memconv::reference::conv_nchw_ref_geo;
use memconv::workloads::table1::LayerConfig;

/// The Fig. 4 subset: Table I layers small enough that a pass of every
/// cell takes a few seconds of host time: the smallest 3×3 layer and the
/// two smallest 5×5 layers.
pub const FIG4_LAYERS: [&str; 3] = ["CONV1", "CONV3", "CONV4"];
/// Input channel counts of the two Fig. 4 panels.
pub const FIG4_CHANNELS: [usize; 2] = [1, 3];
/// The Fig. 3 subset: image sizes (both filter sizes are run).
pub const FIG3_SIZES: [usize; 2] = [256, 512];
/// Fig. 3 filter sizes.
pub const FIG3_FILTERS: [usize; 2] = [3, 5];

/// Paper-reported mean speedups of `ours` over GEMM-im2col.
const PAPER_FIG4: [(usize, f64); 2] = [(1, 19.5), (3, 25.6)];
const PAPER_FIG3: [(usize, f64); 2] = [(3, 5.4), (5, 7.7)];

/// FIFO queue limits for `max_rate_rps`: the cells of one pass arrive
/// open loop at each rate and queue on one modeled device.
const RATE_LADDER: [f64; 8] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0];
const TAIL_LIMIT_S: f64 = 0.002;

enum Algo {
    Nchw(Box<dyn ConvNchwAlgorithm>),
    TwoD(Box<dyn Conv2dAlgorithm>),
}

enum Input {
    Nchw {
        input: Tensor4,
        bank: FilterBank,
        one: Tensor4,
    },
    TwoD {
        img: Image2D,
        filt: Filter2D,
    },
}

struct Point {
    label: String,
    fig4_ic: Option<usize>,
    fig3_f: Option<usize>,
    input: Input,
}

struct Cell {
    id: u64,
    point: usize,
    name: String,
    algo: Algo,
    /// The same algorithm unsampled, for the batch-1 check.
    full: Algo,
}

/// The generated inputs and the cells over them.
pub struct State {
    points: Vec<Point>,
    cells: Vec<Cell>,
}

fn layer(name: &str) -> LayerConfig {
    table1_layers()
        .into_iter()
        .find(|l| l.name == name)
        .expect("subset names Table I layers")
}

fn nchw_algos(sample: SampleMode) -> Vec<Box<dyn ConvNchwAlgorithm>> {
    let mut v: Vec<Box<dyn ConvNchwAlgorithm>> = vec![Box::new(
        Im2colGemm::caffe()
            .with_sample(sample)
            .with_batch_replication(),
    )];
    v.extend(cudnn_family(sample));
    v.push(Box::new(Ours::with_config(
        OursConfig::full().with_sample(sample),
    )));
    v
}

fn twod_algos(sample: SampleMode) -> Vec<Box<dyn Conv2dAlgorithm>> {
    vec![
        Box::new(As2d(Im2colGemm::caffe().with_sample(sample))),
        Box::new(As2d(CudnnFastest::new().with_sample(sample))),
        Box::new(As2d(TiledConv::arrayfire().with_sample(sample))),
        Box::new(As2d(DirectConv::npp().with_sample(sample))),
        Box::new(Ours::with_config(OursConfig::full().with_sample(sample))),
    ]
}

/// Generate every point's tensors from `seed` and build the cells.
pub fn setup(seed: u64) -> State {
    let sample = SampleMode::Auto(SAMPLE_TARGET);
    let mut points = Vec::new();
    let mut cells = Vec::new();
    let mut next_id = 0u64;
    for &ic in &FIG4_CHANNELS {
        for name in FIG4_LAYERS {
            let l = layer(name);
            let geo = l.geometry(ic);
            let mut rng = TensorRng::new(seed ^ crate::mix(next_id + 0xF164));
            let input = rng.tensor(l.batch, ic, l.spatial, l.spatial);
            let bank = rng.filter_bank(l.filters, ic, l.filter, l.filter);
            let one = rng.tensor(1, ic, l.spatial, l.spatial);
            let p = points.len();
            points.push(Point {
                label: format!("fig4/{name}/ic{ic}"),
                fig4_ic: Some(ic),
                fig3_f: None,
                input: Input::Nchw { input, bank, one },
            });
            for (algo, full) in nchw_algos(sample)
                .into_iter()
                .zip(nchw_algos(SampleMode::Full))
            {
                // cuDNN's shape limits apply as on the real device; an
                // unsupported algorithm has no cell, as in the figure.
                if !algo.supports_shape(&geo) {
                    continue;
                }
                let name = algo.name().to_string();
                cells.push(Cell {
                    id: next_id,
                    point: p,
                    name,
                    algo: Algo::Nchw(algo),
                    full: Algo::Nchw(full),
                });
                next_id += 1;
            }
        }
    }
    for &f in &FIG3_FILTERS {
        for &size in &FIG3_SIZES {
            let mut rng = TensorRng::new(seed ^ crate::mix(next_id + 0xF163));
            let img = rng.image(size, size);
            let filt = rng.filter(f, f);
            let p = points.len();
            points.push(Point {
                label: format!("fig3/{size}/{f}x{f}"),
                fig4_ic: None,
                fig3_f: Some(f),
                input: Input::TwoD { img, filt },
            });
            for (algo, full) in twod_algos(sample)
                .into_iter()
                .zip(twod_algos(SampleMode::Full))
            {
                let name = algo.name().to_string();
                cells.push(Cell {
                    id: next_id,
                    point: p,
                    name,
                    algo: Algo::TwoD(algo),
                    full: Algo::TwoD(full),
                });
                next_id += 1;
            }
        }
    }
    State { points, cells }
}

fn sim() -> GpuSim {
    GpuSim::rtx2080ti().with_launch_mode(LaunchMode::Sequential)
}

/// Run one cell's sampled launches; the call is the cell's span.
fn run_cell(st: &State, cell: &Cell, tracer: &mut Tracer) -> RunReport {
    let layer = format!("kernels.{}", cell.name);
    let point = &st.points[cell.point];
    match (&cell.algo, &point.input) {
        (Algo::Nchw(a), Input::Nchw { input, bank, .. }) => {
            tracer.span(&layer, "ConvNchwAlgorithm::run", cell.id, |_| {
                a.run(&mut sim(), input, bank).1
            })
        }
        (Algo::TwoD(a), Input::TwoD { img, filt }) => {
            tracer.span(&layer, "Conv2dAlgorithm::run", cell.id, |_| {
                a.run(&mut sim(), img, filt).1
            })
        }
        _ => unreachable!("cells pair with their point's input kind"),
    }
}

/// The 2D check image side: a full unsampled Fig. 3 launch costs up to
/// half a minute of host time at 512², so Fig. 3 cells are checked on an
/// unsampled 64×64 launch of the same algorithm and filter.
const CHECK_2D: usize = 64;

/// Check every cell on one unsampled batch-1 launch against the CPU
/// reference.
fn check(st: &State) -> Verdicts {
    let refs: Vec<Tensor4> = st
        .points
        .iter()
        .map(|p| match &p.input {
            Input::Nchw { bank, one, .. } => {
                let (n, c, h, w) = one.dims();
                let g = ConvGeometry::nchw(n, c, h, w, bank.num_filters(), bank.fh(), bank.fw());
                conv_nchw_ref_geo(one, bank, &g)
            }
            Input::TwoD { img, filt } => {
                Tensor4::from_image(&conv2d_ref(&img.crop(0, 0, CHECK_2D, CHECK_2D), filt))
            }
        })
        .collect();
    st.cells
        .iter()
        .map(|cell| {
            let point = &st.points[cell.point];
            let out = match (&cell.full, &point.input) {
                (Algo::Nchw(a), Input::Nchw { bank, one, .. }) => a.run(&mut sim(), one, bank).0,
                (Algo::TwoD(a), Input::TwoD { img, filt }) => Tensor4::from_image(
                    &a.run(&mut sim(), &img.crop(0, 0, CHECK_2D, CHECK_2D), filt)
                        .0,
                ),
                _ => unreachable!("cells pair with their point's input kind"),
            };
            compare(&out, &refs[cell.point])
        })
        .collect()
}

/// Counters a later pass must reproduce exactly.
fn fingerprint(rep: &RunReport) -> (u64, u64) {
    (
        rep.global_transactions(),
        rep.modeled_time(&DeviceConfig::rtx2080ti()).to_bits(),
    )
}

/// Run the workload for `budget_s` seconds of passes.
pub fn run(
    seed: u64,
    setups: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    prior: Option<&Verdicts>,
) -> Segment {
    let mut seg = Segment::default();
    let st = seg.set_up(1, tracer, |_| setup(seed));
    let dev = DeviceConfig::rtx2080ti();
    seg.ops_per_pass = st.cells.len() as u64;

    let mut first: Vec<RunReport> = Vec::new();
    let mut tally = Tally::default();
    while !seg.done(budget_s) {
        let first_pass = seg.pass_s.is_empty();
        let reps = seg.pass(tracer, |t| {
            st.cells
                .iter()
                .map(|c| run_cell(&st, c, t))
                .collect::<Vec<_>>()
        });
        if first_pass {
            seg.verdicts = match prior {
                Some(v) => v.clone(),
                None => check(&st),
            };
            for v in &seg.verdicts {
                tally.record(*v);
            }
            first = reps;
        } else {
            for ((rep, first), v) in reps.iter().zip(&first).zip(&seg.verdicts) {
                tally.record(if fingerprint(rep) == fingerprint(first) {
                    *v
                } else {
                    Err(Failure::WrongValues)
                });
            }
        }
    }
    seg.tally = tally;
    // The other set-ups run after the passes, so `setup_s` samples the
    // host at both ends of the run.
    if setups > 1 {
        seg.set_up(setups - 1, tracer, |_| setup(seed));
    }

    // Modeled metrics from the first pass.
    let times: Vec<f64> = first.iter().map(|r| r.modeled_time(&dev)).collect();
    let tx: u64 = first.iter().map(|r| r.global_transactions()).sum();
    let n = first.len() as f64;
    let lat = latency(&times);
    let mut fig4_speedups: Vec<(usize, f64)> = Vec::new();
    let mut fig3_speedups: Vec<(usize, f64)> = Vec::new();
    for (p, point) in st.points.iter().enumerate() {
        let time_of = |pred: &dyn Fn(&str) -> bool| {
            st.cells
                .iter()
                .zip(&times)
                .find(|(c, _)| c.point == p && pred(&c.name))
                .map(|(_, t)| *t)
        };
        let base = time_of(&|n| n == "GEMM-im2col").expect("every point has a base cell");
        let ours = time_of(&|n| n == "ours").expect("every point has an ours cell");
        if let Some(ic) = point.fig4_ic {
            fig4_speedups.push((ic, base / ours));
        }
        if let Some(f) = point.fig3_f {
            fig3_speedups.push((f, base / ours));
        }
        seg.notes.push(format!(
            "{:<18} ours over GEMM-im2col {:>7.2}x",
            point.label,
            base / ours
        ));
    }
    let fig4_mean = mean(&fig4_speedups.iter().map(|s| s.1).collect::<Vec<_>>());
    seg.modeled = vec![
        Metric::new("transactions_per_op", "transactions", tx as f64 / n),
        Metric::new(
            "modeled_device_ms_per_op",
            "modeled_ms",
            times.iter().sum::<f64>() / n * 1e3,
        ),
        Metric::new("ours_speedup_vs_gemm", "x", fig4_mean),
        Metric::new("modeled_latency_p50_ms", "modeled_ms", lat.p50 * 1e3),
        Metric::new("modeled_latency_tail_ms", "modeled_ms", lat.tail * 1e3),
        Metric::new(
            "max_rate_rps",
            "1/s",
            fifo_max_rate(&times, &RATE_LADDER, TAIL_LIMIT_S),
        ),
    ];
    seg.notes.push(format!(
        "modeled latency per cell: p50 {:.4} ms, tail p{} {:.4} ms ({} samples, {} beyond)",
        lat.p50 * 1e3,
        lat.tail_pct,
        lat.tail * 1e3,
        lat.samples,
        lat.beyond
    ));
    seg.notes.push(format!(
        "paper reference (the model is checked only against these published means); \
         Fig. 4 subset {FIG4_LAYERS:?} at batch 128, Fig. 3 subset sizes {FIG3_SIZES:?}, \
         sample target {SAMPLE_TARGET}:"
    ));
    for (ic, paper) in PAPER_FIG4 {
        let m = mean(
            &fig4_speedups
                .iter()
                .filter(|s| s.0 == ic)
                .map(|s| s.1)
                .collect::<Vec<_>>(),
        );
        seg.notes.push(format!(
            "  Fig. 4 {ic} channel(s): ours {m:.2}x over GEMM-im2col vs paper {paper}x \
             (relative error {:+.3})",
            (m - paper) / paper
        ));
    }
    for (f, paper) in PAPER_FIG3 {
        let m = mean(
            &fig3_speedups
                .iter()
                .filter(|s| s.0 == f)
                .map(|s| s.1)
                .collect::<Vec<_>>(),
        );
        seg.notes.push(format!(
            "  Fig. 3 {f}x{f}: ours {m:.2}x over GEMM-im2col vs paper {paper}x \
             (relative error {:+.3})",
            (m - paper) / paper
        ));
    }

    // Per-layer counters.
    let mut gs = KernelStats::default();
    for r in &first {
        for (_, s) in &r.launches {
            gs += s;
        }
    }
    let mut algos: Vec<String> = st.cells.iter().map(|c| c.name.clone()).collect();
    algos.sort();
    algos.dedup();
    for a in &algos {
        let (t, m) = st
            .cells
            .iter()
            .zip(&first)
            .filter(|(c, _)| &c.name == a)
            .fold((0u64, 0.0), |(t, m), (_, r)| {
                (t + r.global_transactions(), m + r.modeled_time(&dev))
            });
        seg.kernels.push((a.clone(), t, m * 1e3));
    }
    seg.gpusim = gs;
    seg.sim_layer = "kernels.";
    seg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(st: &State) -> Vec<Vec<f32>> {
        st.points
            .iter()
            .map(|p| match &p.input {
                Input::Nchw { input, .. } => input.as_slice().to_vec(),
                Input::TwoD { img, .. } => img.as_slice().to_vec(),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = setup(11);
        assert_eq!(data(&a), data(&setup(11)));
        assert_ne!(data(&a), data(&setup(12)));
        // Every point has the base and the ours cell the speedups need.
        for p in 0..a.points.len() {
            let names: Vec<&str> = a
                .cells
                .iter()
                .filter(|c| c.point == p)
                .map(|c| c.name.as_str())
                .collect();
            assert!(
                names.contains(&"GEMM-im2col") && names.contains(&"ours"),
                "{names:?}"
            );
        }
    }
}
