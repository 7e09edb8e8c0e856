//! The memconv benchmark: one command runs a named workload from a seed,
//! checks every output against the CPU reference, and prints every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`) by name and unit. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zoo --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see each module for why it was chosen): `paper-sweep`,
//! `serve-zoo`, `serve-churn`. Modeled metrics (transactions, modeled
//! seconds, virtual-clock latency) are deterministic for a seed; host
//! metrics (wall time, memory) are medians over repeated passes and
//! set-ups.
//!
//! `correct` is true when every operation was verified — against the CPU
//! reference on the first pass, against the first pass's bits on later
//! passes — with every wrong value, wrong shape, typed error and shed
//! request counted in `failed`, and, under `--trace 1`, when the traced
//! run's modeled metrics equal the untraced run's exactly (otherwise the
//! command exits 1).

mod check;
mod churn;
mod paper;
mod spans;
mod stats;
mod zoo;

use memconv::gpusim::KernelStats;
use memconv::prelude::*;
use spans::Tracer;
use stats::{latency, median, Failure, Metric, Tally};
use std::time::Instant;

/// Sampled-block budget per launch for the paper sweep, pinned here
/// rather than read from `MEMCONV_SAMPLE_TARGET`.
pub const SAMPLE_TARGET: u64 = 64;

/// Seed of the serving workloads' arrival schedules. `--seed` draws
/// every tensor; the schedules stay fixed so that modeled metrics
/// (transactions, modeled time, virtual-clock latency) repeat exactly
/// across seeds and only host metrics vary.
pub const SCHEDULE_SEED: u64 = 0x5EED_5EED;

/// Worker threads: the host's parallelism, at most two.
const MAX_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

const WORKLOADS: [&str; 3] = ["paper-sweep", "serve-zoo", "serve-churn"];

/// Every per-layer metric, in report order. Layers a workload does not
/// reach report 0.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("gpusim.sim_blocks", "count"),
    ("gpusim.blocks_per_s", "1/s"),
    ("gpusim.launches", "count"),
    ("gpusim.gld_tx_per_request", "sectors"),
    ("gpusim.l1_hit_rate", "ratio"),
    ("gpusim.l2_hit_rate", "ratio"),
    ("gpusim.dram_sectors", "count"),
    ("gpusim.smem_passes_per_access", "ratio"),
    ("oracle.calls", "count"),
    ("oracle.host_s", "s"),
    ("serve.planner.heuristic_plans", "count"),
    ("serve.planner.refinement_sweeps", "count"),
    ("serve.planner.host_s", "s"),
    ("serve.planner.modeled_plan_ms", "modeled_ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.scheduler.host_s", "s"),
    ("serve.scheduler.requests_per_launch", "ratio"),
    ("serve.scheduler.queue_p50_ms", "modeled_ms"),
    ("serve.fleet.host_s", "s"),
    ("serve.fleet.requests_per_launch", "ratio"),
    ("serve.fleet.queue_p50_ms", "modeled_ms"),
    ("serve.fleet.shed", "count"),
    ("serve.fleet.failed_attempts", "count"),
    ("serve.fleet.load_imbalance", "ratio"),
    ("reference.calls", "count"),
    ("reference.host_s", "s"),
    ("graph.plan_host_s", "s"),
    ("graph.serve_host_s", "s"),
    ("graph.kernels_per_model", "count"),
    ("graph.fused_epilogues", "count"),
    ("graph.host_roundtrips", "count"),
    ("graph.transactions_per_model", "transactions"),
    ("graph.peak_global_elems", "count"),
    ("checked.requests", "count"),
    ("checked.fallbacks", "count"),
];

/// Algorithms of the paper sweep, by `name()`; each gets
/// `kernels.<algo>.{host_s,transactions,modeled_ms}`.
const KERNEL_ALGOS: [&str; 12] = [
    "GEMM-im2col",
    "implicit",
    "precomp",
    "gemm",
    "fft",
    "tiling",
    "winograd",
    "nonfused",
    "ours",
    "cuDNN-fastest",
    "ArrayFire",
    "NPP",
];

/// Layers whose self-time share of the workload's host time is reported
/// as `<layer>.share`. `kernels` sums every `kernels.<algo>` span.
const SHARE_LAYERS: [&str; 7] = [
    "kernels",
    "oracle",
    "serve.planner",
    "serve.scheduler",
    "serve.fleet",
    "reference",
    "graph",
];

/// Per-operation verification outcomes of a first pass.
pub type Verdicts = Vec<Result<(), Failure>>;

/// What one run of a workload measured.
#[derive(Default)]
pub struct Segment {
    /// Wall seconds of each set-up call.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each pass's calls into the program.
    pub pass_s: Vec<f64>,
    /// Operations per pass.
    pub ops_per_pass: u64,
    /// Verification outcome of every operation of every pass.
    pub tally: Tally,
    /// First-pass verdicts, in operation order.
    pub verdicts: Verdicts,
    /// Deterministic end-to-end metrics from the first pass.
    pub modeled: Vec<Metric>,
    /// Deterministic per-layer counters.
    pub layer: Vec<Metric>,
    /// Paper-sweep kernels: `(algo, transactions, modeled ms)` per pass.
    pub kernels: Vec<(String, u64, f64)>,
    /// Simulator counters of the launches the benchmark can see.
    pub gpusim: KernelStats,
    /// Span layer whose host time ran the launches in `gpusim`
    /// (`kernels.` matches every kernel layer).
    pub sim_layer: &'static str,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Segment {
    /// Set up `n` times and keep the last state. Each set-up repeats `f`
    /// for at least 0.2 s; every call's wall seconds are recorded, and
    /// `setup_s` is their median, so a cheap set-up is not swamped by
    /// one preempted call. Every call is a `bench.setup` span.
    pub fn set_up<S>(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        mut f: impl FnMut(&mut Tracer) -> S,
    ) -> S {
        let mut last = None;
        for _ in 0..n.max(1) {
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < 0.2 {
                let id = self.setup_s.len() as u64;
                let (s, dt) = timed(|| tracer.span("bench.setup", "setup", id, &mut f));
                self.setup_s.push(dt);
                last = Some(s);
            }
        }
        last.expect("at least one set-up")
    }

    /// Run one pass as a `bench.pass` span and record its wall seconds.
    pub fn pass<R>(&mut self, tracer: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.pass_s.len() as u64;
        let (r, dt) = timed(|| tracer.span("bench.pass", "pass", id, f));
        self.pass_s.push(dt);
        r
    }

    /// Whether the passes so far have used up `budget_s`.
    pub fn done(&self, budget_s: f64) -> bool {
        self.pass_s.iter().sum::<f64>() >= budget_s
    }
}

/// Run `f` and return its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// splitmix64 finalizer, for deriving sub-seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Highest rate of `ladder` at which operations with modeled service
/// times `service_s`, arriving open loop in order at that rate and
/// queueing FIFO on one modeled device, keep their tail latency (by the
/// tail rule) within `limit_s`. 0 when no rate does.
pub fn fifo_max_rate(service_s: &[f64], ladder: &[f64], limit_s: f64) -> f64 {
    let mut best = 0.0;
    for &rate in ladder {
        let mut done = 0.0f64;
        let lat: Vec<f64> = service_s
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let arrive = i as f64 / rate;
                done = done.max(arrive) + s;
                done - arrive
            })
            .collect();
        if latency(&lat).tail <= limit_s {
            best = rate;
        }
    }
    best
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The code under test: a hash of the workspace and benchmark sources,
/// which identifies the commit in a checkout without git metadata.
fn provenance() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "shims", "perfbench/src"] {
        walk(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("source-hash {h:016x} over {} files", files.len())
}

fn run_segment(
    a: &Args,
    threads: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    setups: usize,
    prior: Option<&Verdicts>,
) -> Segment {
    match a.workload.as_str() {
        "paper-sweep" => paper::run(a.seed, setups, budget_s, tracer, prior),
        "serve-zoo" => zoo::run(a.seed, setups, budget_s, threads, tracer, prior),
        _ => churn::run(a.seed, setups, budget_s, threads, tracer, prior),
    }
}

/// Mean over `geos` of the modeled time of GEMM-im2col (Caffe) over
/// `ours`, each on one unsampled batch-1 launch of seeded data.
pub fn speedup_vs_gemm(geos: &[ConvGeometry], seed: u64) -> f64 {
    let dev = DeviceConfig::rtx2080ti();
    let gemm = Im2colGemm::caffe();
    let ours = Ours::with_config(OursConfig::full());
    let ratios: Vec<f64> = geos
        .iter()
        .map(|g| {
            let g = ConvGeometry { batch: 1, ..*g };
            let mut rng = TensorRng::new(seed ^ mix(g.macs()));
            let input = rng.tensor(1, g.in_channels, g.in_h, g.in_w);
            let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
            let time = |a: &dyn ConvNchwAlgorithm| {
                let mut sim = GpuSim::rtx2080ti().with_launch_mode(LaunchMode::Sequential);
                a.run_geo(&mut sim, &input, &bank, &g).1.modeled_time(&dev)
            };
            time(&gemm) / time(&ours)
        })
        .collect();
    stats::mean(&ratios)
}

/// Operations over the host seconds of every pass: throughput over the
/// whole measured window, which every run samples the same way.
fn ops_per_s(seg: &Segment) -> f64 {
    (seg.ops_per_pass * seg.pass_s.len() as u64) as f64 / seg.pass_s.iter().sum::<f64>()
}

fn end_to_end(seg: &Segment) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("setup_s", "s", median(&seg.setup_s)),
        Metric::new("ops_per_s", "1/s", ops_per_s(seg)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
        Metric::new("success_rate", "ratio", 1.0 - seg.tally.error_rate()),
    ];
    m.extend(seg.modeled.iter().cloned());
    m
}

fn per_layer(untraced: &Segment, traced: &Segment, tracer: &Tracer) -> Vec<Metric> {
    let pass_wall = median(&traced.pass_s);
    // Host seconds of a layer per pass: its self time under `bench.pass`
    // spans over the pass count. Graph planning happens in set-up and is
    // per set-up call; probes run once, after the first pass.
    let host = |layer: &str| -> f64 {
        let spans = tracer.spans();
        let root = |i: usize| &spans[tracer.root(i)].layer;
        let roots = |name: &str| spans.iter().filter(|s| s.layer == name).count().max(1) as f64;
        let mine = spans.iter().enumerate().filter(|(_, s)| s.layer == layer);
        if spans.iter().any(|s| s.layer == layer && s.probe) {
            mine.map(|(i, _)| tracer.self_time(i))
                .fold(0.0, |a, b| a + b)
        } else {
            let within = if layer == "graph.plan" {
                "bench.setup"
            } else {
                "bench.pass"
            };
            mine.filter(|(i, _)| root(*i) == within)
                .map(|(i, _)| tracer.self_time(i))
                .fold(0.0, |a, b| a + b)
                / roots(within)
        }
    };
    let mut out: Vec<Metric> = Vec::new();
    let g = &traced.gpusim;
    let mut layers: Vec<&str> = tracer.spans().iter().map(|s| s.layer.as_str()).collect();
    layers.sort_unstable();
    layers.dedup();
    let sim_host: f64 = layers
        .iter()
        .filter(|k| !traced.sim_layer.is_empty() && k.starts_with(traced.sim_layer))
        .map(|k| host(k))
        .fold(0.0, |a, b| a + b);
    let counted = |name: &str| {
        traced
            .layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    for (name, unit) in LAYER_METRICS {
        let v = match name {
            "gpusim.sim_blocks" => g.sim_blocks as f64,
            "gpusim.blocks_per_s" if sim_host > 0.0 => g.sim_blocks as f64 / sim_host,
            "gpusim.launches" => g.launches as f64,
            "gpusim.gld_tx_per_request" => g.gld_transactions_per_request().unwrap_or(0.0),
            "gpusim.l1_hit_rate" => g.l1_hit_rate().unwrap_or(0.0),
            "gpusim.l2_hit_rate" => g.l2_hit_rate().unwrap_or(0.0),
            "gpusim.dram_sectors" => (g.dram_read_sectors + g.dram_write_sectors) as f64,
            "gpusim.smem_passes_per_access" if g.smem_accesses > 0 => {
                g.smem_passes as f64 / g.smem_accesses as f64
            }
            "oracle.host_s" => host("oracle"),
            "serve.planner.host_s" => host("serve.planner"),
            "serve.scheduler.host_s" => host("serve.scheduler"),
            "serve.fleet.host_s" => host("serve.fleet"),
            "reference.host_s" => host("reference"),
            "graph.plan_host_s" => host("graph.plan"),
            "graph.serve_host_s" => host("graph.serve"),
            _ => counted(name).unwrap_or(0.0),
        };
        out.push(Metric::new(name, unit, v));
    }
    for algo in KERNEL_ALGOS {
        let k = traced.kernels.iter().find(|k| k.0 == algo);
        out.push(Metric::new(
            format!("kernels.{algo}.host_s"),
            "s",
            host(&format!("kernels.{algo}")),
        ));
        out.push(Metric::new(
            format!("kernels.{algo}.transactions"),
            "transactions",
            k.map_or(0.0, |k| k.1 as f64),
        ));
        out.push(Metric::new(
            format!("kernels.{algo}.modeled_ms"),
            "modeled_ms",
            k.map_or(0.0, |k| k.2),
        ));
    }
    // Share of a pass's host time: the layer's host seconds per pass
    // (probes: per probe round, which re-times one pass's work) over the
    // mean pass. Graph planning runs in set-up, outside the passes.
    let mean_pass = traced.pass_s.iter().sum::<f64>() / traced.pass_s.len().max(1) as f64;
    for layer in SHARE_LAYERS {
        let s: f64 = layers
            .iter()
            .filter(|k| {
                **k != "graph.plan" && (**k == layer || k.starts_with(&format!("{layer}.")))
            })
            .map(|k| host(k))
            .fold(0.0, |a, b| a + b);
        out.push(Metric::new(
            format!("{layer}.share"),
            "ratio",
            s / mean_pass,
        ));
    }
    out.push(Metric::new(
        "error_rate",
        "ratio",
        traced.tally.error_rate(),
    ));
    out.push(Metric::new(
        "trace.overhead",
        "ratio",
        pass_wall / median(&untraced.pass_s) - 1.0,
    ));
    out
}

fn print_segment(label: &str, seg: &Segment) {
    let fmt = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "[{label}] {} set-up call(s), median {:.6} s; {} pass(es) of {} ops, median pass \
         {:.4} s ({:.3} ops/s; passes {})",
        seg.setup_s.len(),
        median(&seg.setup_s),
        seg.pass_s.len(),
        seg.ops_per_pass,
        median(&seg.pass_s),
        ops_per_s(seg),
        fmt(&seg.pass_s)
    );
    println!("[{label}] {}", seg.tally.describe());
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-sweep|serve-zoo|serve-churn> --seed <n> \
                 --seconds <s> [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    // Pinned configuration: nothing is inherited from the environment.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    std::env::set_var("MEMCONV_THREADS", threads.to_string());
    std::env::remove_var("MEMCONV_LAUNCH_MODE");
    std::env::remove_var("MEMCONV_SAMPLE_TARGET");
    println!(
        "perfbench workload {} seed {} seconds {} trace {} | nproc {nproc} threads {threads} \
         engine sequential sample_target {SAMPLE_TARGET} device rtx2080ti | {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        provenance()
    );

    let mut off = Tracer::new(false);
    let (tally, metrics) = if !a.trace {
        let seg = run_segment(&a, threads, a.seconds, &mut off, SETUPS, None);
        print_segment("untraced", &seg);
        for n in &seg.notes {
            println!("{n}");
        }
        (seg.tally.clone(), end_to_end(&seg))
    } else {
        // The traced run goes first and verifies; the untraced run with
        // the same seed reuses its first-pass verdicts.
        let mut tracer = Tracer::new(true);
        let traced = run_segment(&a, threads, a.seconds / 2.0, &mut tracer, 1, None);
        print_segment("traced", &traced);
        let untraced = run_segment(
            &a,
            threads,
            a.seconds / 2.0,
            &mut off,
            1,
            Some(&traced.verdicts),
        );
        print_segment("untraced", &untraced);
        for n in &traced.notes {
            println!("{n}");
        }
        let same = untraced.modeled.len() == traced.modeled.len()
            && untraced
                .modeled
                .iter()
                .zip(&traced.modeled)
                .all(|(u, t)| u.name == t.name && u.value.to_bits() == t.value.to_bits())
            && untraced.layer == traced.layer;
        if !same {
            eprintln!("perfbench: traced modeled metrics differ from the untraced run");
            for (u, t) in untraced.modeled.iter().zip(&traced.modeled) {
                eprintln!("  {}: untraced {} traced {}", u.name, u.value, t.value);
            }
            std::process::exit(1);
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
        match std::fs::create_dir_all(dir)
            .map_err(|e| e.to_string())
            .and_then(|_| {
                memconv_obs::write_trace(&path.to_string_lossy(), &tracer.events())
                    .map_err(|e| e.to_string())
            }) {
            Ok(()) => println!("wrote {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let mut tally = untraced.tally.clone();
        tally.merge(&traced.tally);
        (tally, per_layer(&untraced, &traced, &tracer))
    };
    println!("{}", tally.describe());
    for m in &metrics {
        assert!(
            stats::valid_metric_name(&m.name),
            "invalid metric name {}",
            m.name
        );
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", stats::result_json(true, &tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// and has a valid name.
    #[test]
    fn printed_metrics_are_declared() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut names: Vec<String> = LAYER_METRICS.iter().map(|m| m.0.to_string()).collect();
        for a in KERNEL_ALGOS {
            for k in ["host_s", "transactions", "modeled_ms"] {
                names.push(format!("kernels.{a}.{k}"));
            }
        }
        names.extend(SHARE_LAYERS.iter().map(|l| format!("{l}.share")));
        names.extend(["error_rate", "trace.overhead"].map(String::from));
        names.extend(
            [
                "setup_s",
                "ops_per_s",
                "peak_rss_mb",
                "success_rate",
                "transactions_per_op",
                "modeled_device_ms_per_op",
                "ours_speedup_vs_gemm",
                "modeled_latency_p50_ms",
                "modeled_latency_tail_ms",
                "max_rate_rps",
            ]
            .map(String::from),
        );
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
            assert!(
                spec.contains(&format!("\"name\": \"{n}\"")),
                "{n} not in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn fifo_rate_is_the_highest_rung_within_the_limit() {
        // One device, 1 ms per operation: at 500/s nothing queues, at
        // 2000/s the backlog grows by 0.5 ms per operation.
        let service = vec![1e-3; 40];
        assert_eq!(
            fifo_max_rate(&service, &[500.0, 1000.0, 2000.0], 1.5e-3),
            1000.0
        );
        assert_eq!(fifo_max_rate(&service, &[2000.0], 1.5e-3), 0.0);
    }
}
