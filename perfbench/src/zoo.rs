//! `serve-zoo`: steady, warm serving with two open-loop request streams
//! on one virtual clock.
//!
//! * Single-image requests to the model-zoo layers at their native
//!   stride through a 2-shard `ConvFleet` of RTX 2080 Ti shards, with
//!   deadlines and no chaos. Spatial size and filter count are capped
//!   (fleet launches are unsampled).
//! * Whole-model requests to the `networks` zoo through a 2-shard
//!   `GraphFleet`.
//!
//! Plan caches are warmed during set-up, so the cache is hit-dominated:
//! fleet coalescing, golden verification, graph fusion and ping-pong
//! pooling do the work while the planner and oracle stay idle.
//!
//! Every pass replays the same trace on the same warm fleets, shifted
//! past the previous pass's last completion so the shards start idle.

use crate::check::{compare, graph_ref, repeat};
use crate::spans::Tracer;
use crate::stats::{latency, mean, median, Failure, Metric, Tally};
use crate::{mix, speedup_vs_gemm, Segment, Verdicts};
use memconv::gpusim::{DeviceConfig, KernelStats, LaunchMode, SampleMode};
use memconv::reference::{conv_nchw_ref, conv_nchw_ref_geo};
use memconv::tensor::generate::TensorRng;
use memconv::tensor::{ConvGeometry, Tensor4};
use memconv::workloads::models::model_zoo;
use memconv::workloads::networks::network_zoo;
use memconv_graph::{
    plan_graph, FusionMode, GraphEndpoint, GraphExecConfig, GraphFleet, GraphFleetConfig,
    GraphRequest, GraphServeConfig, GraphServeReport,
};
use memconv_serve::{
    ConvFleet, Endpoint, FleetAttemptOutcome, FleetConfig, FleetReport, FleetRequest, Priority,
    Response, ServeError,
};

/// Conv endpoint caps, as in the `serve` bin's smoke profile.
const SPATIAL_CAP: usize = 20;
const FILTER_CAP: usize = 16;
/// Whole-model caps.
const GRAPH_SPATIAL_CAP: usize = 16;
const GRAPH_FILTER_CAP: usize = 4;
/// Requests per pass: each conv endpoint and each model this many times.
const PER_CONV_ENDPOINT: usize = 16;
const PER_MODEL: usize = 2;
/// Mean open-loop arrival rate of the base trace, requests per virtual s.
const BASE_RATE: f64 = 256e3;
/// Relative deadline of every conv request, virtual seconds.
const DEADLINE_S: f64 = 500e-6;
/// `max_rate_rps`: rates tried, and the tail latency limit.
const RATE_LADDER: [f64; 9] = [
    64e3, 128e3, 256e3, 512e3, 1024e3, 2048e3, 4096e3, 8192e3, 16384e3,
];
const TAIL_LIMIT_S: f64 = 75e-6;
/// Whole-model arrival window, virtual seconds.
const GRAPH_WINDOW_S: f64 = 25e-6;
const SHARDS: usize = 2;

/// One request of the merged trace.
#[derive(Clone)]
enum Req {
    Conv(FleetRequest),
    Model(GraphRequest),
}

/// Fleets built and warmed by one set-up.
pub struct State {
    fleet: ConvFleet,
    graphs: GraphFleet,
    endpoints: Vec<Endpoint>,
    models: Vec<GraphEndpoint>,
    fused_epilogues: usize,
    kernels_per_model: f64,
    /// The measured trace (at offset 0).
    reqs: Vec<Req>,
    /// Shard stats after the last trace, for per-trace deltas.
    shard_tx: Vec<(u64, u64, f64)>,
    /// Next free whole virtual second: every replay starts on one, after
    /// the previous replay's last completion, so the shards start idle
    /// and windows align the same way.
    offset_s: f64,
}

fn endpoints(seed: u64) -> Vec<Endpoint> {
    let mut rng = TensorRng::new(seed ^ 0xE9D0);
    model_zoo()
        .iter()
        .map(|m| {
            let geometry = ConvGeometry::nchw(
                1,
                m.in_channels,
                m.spatial.min(SPATIAL_CAP),
                m.spatial.min(SPATIAL_CAP),
                m.filters.min(FILTER_CAP),
                m.filter,
                m.filter,
            )
            .with_stride(m.native_stride, m.native_stride);
            let weights = rng.filter_bank(geometry.out_channels, m.in_channels, m.filter, m.filter);
            Endpoint {
                name: format!("{}/{}", m.model, m.layer),
                geometry,
                weights,
            }
        })
        .collect()
}

fn models(seed: u64) -> Vec<GraphEndpoint> {
    network_zoo()
        .iter()
        .map(|n| {
            GraphEndpoint::from_network(&n.capped(GRAPH_SPATIAL_CAP, GRAPH_FILTER_CAP), seed)
                .expect("zoo networks validate")
        })
        .collect()
}

fn fleet_config(threads: usize) -> FleetConfig {
    FleetConfig {
        devices: vec![DeviceConfig::rtx2080ti(); SHARDS],
        fleet_seed: 0xF1EE7,
        chaos: None,
        window: 16,
        workers: threads,
        cache_capacity: 64,
        launch_mode: LaunchMode::Sequential,
        trial_sample: SampleMode::Auto(64),
        ..FleetConfig::default()
    }
}

fn graph_config(threads: usize) -> GraphFleetConfig {
    GraphFleetConfig {
        shards: SHARDS,
        serve: GraphServeConfig {
            exec: GraphExecConfig {
                device: DeviceConfig::rtx2080ti(),
                launch_mode: LaunchMode::Sequential,
                cache_capacity: 64,
                trial_sample: SampleMode::Auto(64),
                record_spans: false,
                parallel_threads: Some(threads),
            },
            window_s: GRAPH_WINDOW_S,
            ..GraphServeConfig::default()
        },
    }
}

/// The base trace: every conv endpoint and every model a fixed number of
/// times, in a fixed shuffled order with fixed exponential gaps; the
/// seed draws the inputs. The schedule does not depend on the seed, so
/// the modeled metrics repeat exactly across seeds.
fn trace(seed: u64, endpoints: &[Endpoint], models: &[GraphEndpoint]) -> Vec<Req> {
    let mut slots: Vec<(bool, usize)> = (0..endpoints.len())
        .flat_map(|e| std::iter::repeat_n((true, e), PER_CONV_ENDPOINT))
        .chain((0..models.len()).flat_map(|m| std::iter::repeat_n((false, m), PER_MODEL)))
        .collect();
    let mut h = mix(crate::SCHEDULE_SEED ^ 0x200);
    for i in (1..slots.len()).rev() {
        h = mix(h);
        slots.swap(i, (h % (i as u64 + 1)) as usize);
    }
    let mut rng = TensorRng::new(seed ^ 0x7ACE);
    let mut t = 0.0f64;
    slots
        .into_iter()
        .enumerate()
        .map(|(i, (conv, k))| {
            h = mix(h);
            let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            t += -u.ln() / BASE_RATE;
            let id = i as u64;
            if conv {
                let g = endpoints[k].geometry;
                Req::Conv(FleetRequest {
                    id,
                    endpoint: k,
                    input: rng.tensor(1, g.in_channels, g.in_h, g.in_w),
                    arrival_s: t,
                    priority: Priority::Normal,
                    deadline_s: DEADLINE_S,
                })
            } else {
                let s = models[k].graph.shape(models[k].graph.input());
                Req::Model(GraphRequest {
                    id,
                    endpoint: models[k].name.clone(),
                    input: rng.tensor(1, s.c, s.h, s.w),
                    arrival_s: t,
                })
            }
        })
        .collect()
}

/// Build both fleets, plan every model's graph, generate the trace and
/// warm every plan cache with it.
fn setup(seed: u64, threads: usize, tracer: &mut Tracer) -> State {
    let endpoints = endpoints(seed);
    let models = models(seed);
    let mut fused = 0;
    let mut kernels = Vec::new();
    for m in &models {
        let plan = tracer.span("graph.plan", "plan_graph", 0, |_| {
            plan_graph(&m.graph, FusionMode::Fused).expect("zoo graphs plan")
        });
        fused += plan.fusion.fused_bias + plan.fusion.fused_relu;
        kernels.push(plan.fusion.kernels_after as f64);
    }
    let reqs = trace(seed, &endpoints, &models);
    let mut st = State {
        fleet: ConvFleet::new(endpoints.clone(), fleet_config(threads)),
        graphs: GraphFleet::new(graph_config(threads), models.clone()).expect("shards > 0"),
        endpoints,
        models,
        reqs,
        fused_epilogues: fused,
        kernels_per_model: mean(&kernels),
        shard_tx: vec![(0, 0, 0.0); SHARDS],
        offset_s: 0.0,
    };
    // Warm every plan cache (the fleet's per-shard caches and the graph
    // executors' per-batch-size caches) by serving the trace once.
    let reqs = st.reqs.clone();
    replay(&mut st, &reqs, 0.0, 1.0, tracer, u64::MAX);
    st
}

fn shard_totals(rep: &FleetReport) -> Vec<(u64, u64, f64)> {
    rep.shards
        .iter()
        .map(|s| (s.launches, s.transactions, s.modeled_seconds))
        .collect()
}

/// What one replay of the trace produced.
struct Replay {
    conv: Vec<Result<Response, ServeError>>,
    fleet: Option<FleetReport>,
    models: Option<(Vec<Tensor4>, GraphServeReport)>,
    /// Per-shard `(launches, transactions, modeled s)` during this replay.
    shard_delta: Vec<(u64, u64, f64)>,
}

/// Serve `reqs` shifted by `offset_s` with arrival times scaled by
/// `scale`. A fleet or graph error fails every request it covered.
fn replay(
    st: &mut State,
    reqs: &[Req],
    offset_s: f64,
    scale: f64,
    tracer: &mut Tracer,
    id: u64,
) -> Replay {
    let conv: Vec<FleetRequest> = reqs
        .iter()
        .filter_map(|r| match r {
            Req::Conv(c) => Some(FleetRequest {
                arrival_s: offset_s + c.arrival_s * scale,
                ..c.clone()
            }),
            Req::Model(_) => None,
        })
        .collect();
    let models: Vec<GraphRequest> = reqs
        .iter()
        .filter_map(|r| match r {
            Req::Model(m) => Some(GraphRequest {
                arrival_s: offset_s + m.arrival_s * scale,
                ..m.clone()
            }),
            Req::Conv(_) => None,
        })
        .collect();
    let fleet = &mut st.fleet;
    let conv_out = tracer.span("serve.fleet", "ConvFleet::run_trace", id, |_| {
        fleet.run_trace(&conv)
    });
    let graphs = &mut st.graphs;
    let model_out = tracer.span("graph.serve", "GraphFleet::serve", id, |_| {
        graphs.serve(&models)
    });
    let mut horizon = offset_s;
    let (conv, fleet) = match conv_out {
        Ok((outs, rep)) => {
            let now = shard_totals(&rep);
            let delta = now
                .iter()
                .zip(&st.shard_tx)
                .map(|(n, b)| (n.0 - b.0, n.1 - b.1, n.2 - b.2))
                .collect();
            st.shard_tx = now;
            horizon = rep
                .requests
                .iter()
                .map(|r| r.completion_s)
                .fold(horizon, f64::max);
            (outs, Some((rep, delta)))
        }
        Err(e) => (conv.iter().map(|_| Err(e.clone())).collect(), None),
    };
    let models = match model_out {
        Ok((outs, rep)) => {
            horizon = rep
                .requests
                .iter()
                .map(|r| r.completion_s)
                .fold(horizon, f64::max);
            Some((outs.into_iter().map(|r| r.output).collect(), rep))
        }
        Err(_) => None,
    };
    st.offset_s = horizon.ceil() + 1.0;
    let (fleet, shard_delta) = match fleet {
        Some((rep, d)) => (Some(rep), d),
        None => (None, vec![(0, 0, 0.0); SHARDS]),
    };
    Replay {
        conv,
        fleet,
        models,
        shard_delta,
    }
}

/// Served-request latencies (conv and whole-model) of a replay.
fn latencies(r: &Replay) -> Vec<f64> {
    let mut v: Vec<f64> = r
        .fleet
        .iter()
        .flat_map(|f| f.requests.iter().map(|m| m.completion_s - m.arrival_s))
        .collect();
    if let Some((_, rep)) = &r.models {
        v.extend(rep.requests.iter().map(|m| m.completion_s - m.arrival_s));
    }
    v
}

/// The replay's outputs in trace order: conv responses, then models.
fn outputs(r: &Replay, n_models: usize) -> Vec<Result<Tensor4, Failure>> {
    let mut v: Vec<Result<Tensor4, Failure>> = r
        .conv
        .iter()
        .map(|o| match o {
            Ok(resp) => Ok(resp.output.clone()),
            Err(ServeError::Shed { .. }) => Err(Failure::Shed),
            Err(_) => Err(Failure::Error),
        })
        .collect();
    match &r.models {
        Some((outs, _)) => v.extend(outs.iter().cloned().map(Ok)),
        None => v.extend((0..n_models).map(|_| Err(Failure::Error))),
    }
    v
}

/// First-pass verdicts against the CPU reference.
fn check(st: &State, reqs: &[Req], outs: &[Result<Tensor4, Failure>]) -> Verdicts {
    let conv = reqs.iter().filter_map(|r| match r {
        Req::Conv(c) => Some(c),
        Req::Model(_) => None,
    });
    let models = reqs.iter().filter_map(|r| match r {
        Req::Model(m) => Some(m),
        Req::Conv(_) => None,
    });
    let mut wants: Vec<Tensor4> = conv
        .map(|c| {
            let e = &st.endpoints[c.endpoint];
            conv_nchw_ref_geo(&c.input, &e.weights, &e.geometry)
        })
        .collect();
    wants.extend(models.map(|m| {
        let g = &st
            .models
            .iter()
            .find(|e| e.name == m.endpoint)
            .expect("trace names hosted models")
            .graph;
        graph_ref(g, &m.input)
    }));
    outs.iter()
        .zip(&wants)
        .map(|(o, w)| o.as_ref().map_err(|f| *f).and_then(|o| compare(o, w)))
        .collect()
}

/// Run the workload for `budget_s` seconds of passes.
pub fn run(
    seed: u64,
    setups: usize,
    budget_s: f64,
    threads: usize,
    tracer: &mut Tracer,
    prior: Option<&Verdicts>,
) -> Segment {
    let mut seg = Segment::default();
    let mut st = seg.set_up(1, tracer, |t| setup(seed, threads, t));
    let reqs = st.reqs.clone();
    let n_models = reqs.iter().filter(|r| matches!(r, Req::Model(_))).count();
    seg.ops_per_pass = reqs.len() as u64;

    let mut first: Option<Replay> = None;
    let mut first_outs: Vec<Result<Tensor4, Failure>> = Vec::new();
    let mut tally = Tally::default();
    while !seg.done(budget_s) {
        let pass = seg.pass_s.len() as u64;
        let offset = st.offset_s;
        let r = seg.pass(tracer, |t| replay(&mut st, &reqs, offset, 1.0, t, pass));
        let outs = outputs(&r, n_models);
        if pass == 0 {
            seg.verdicts = match prior {
                Some(v) => v.clone(),
                None => check(&st, &reqs, &outs),
            };
            for v in &seg.verdicts {
                tally.record(*v);
            }
            first_outs = outs;
            first = Some(r);
        } else {
            for ((o, f), v) in outs.iter().zip(&first_outs).zip(&seg.verdicts) {
                tally.record(match (o, f) {
                    (Ok(o), Ok(f)) => repeat(o, f, *v),
                    (Err(a), Err(b)) if a == b => *v,
                    (Err(a), _) => Err(*a),
                    (Ok(_), Err(_)) => Err(Failure::WrongValues),
                });
            }
        }
    }
    seg.tally = tally;
    // The other set-ups run after the passes, so `setup_s` samples the
    // host at both ends of the run.
    if setups > 1 {
        seg.set_up(setups - 1, tracer, |t| setup(seed, threads, t));
    }
    let first = first.expect("at least one pass");

    // Golden-check probes: the fleet verifies every launch with
    // `conv_nchw_ref`; re-time it on the same inputs.
    let mut calls = 0u64;
    for r in &reqs {
        if let Req::Conv(c) = r {
            if tracer.enabled() {
                let w = &st.endpoints[c.endpoint].weights;
                tracer.probe("reference", "conv_nchw_ref", c.id, || {
                    conv_nchw_ref(&c.input, w)
                });
            }
            calls += 1;
        }
    }
    seg.layer
        .push(Metric::new("reference.calls", "count", calls as f64));

    // max_rate_rps: the same requests at each rate of the ladder.
    let mut max_rate = 0.0;
    for (k, &rate) in RATE_LADDER.iter().enumerate() {
        let offset = st.offset_s;
        let r = replay(
            &mut st,
            &reqs,
            offset,
            BASE_RATE / rate,
            &mut Tracer::new(false),
            1000 + k as u64,
        );
        let shed = r.fleet.as_ref().map_or(usize::MAX, |f| f.shed());
        let ok = r.models.is_some() && shed == 0 && latency(&latencies(&r)).tail <= TAIL_LIMIT_S;
        seg.notes.push(format!(
            "rate {rate:>8.0}/s: tail {:.4} ms, shed {shed}{}",
            latency(&latencies(&r)).tail * 1e3,
            if ok { "" } else { " (over limit)" }
        ));
        if ok {
            max_rate = rate;
        }
    }

    // Modeled metrics from the first pass.
    let lat = latency(&latencies(&first));
    let (graph_tx, graph_s, graph_stats, roundtrips, peak) = match &first.models {
        Some((_, rep)) => {
            let mut ks = KernelStats::default();
            for g in &rep.groups {
                for l in &g.report.layers {
                    ks += &l.stats;
                }
            }
            (
                rep.transactions(),
                rep.modeled_seconds(),
                ks,
                rep.groups
                    .iter()
                    .map(|g| g.report.host_roundtrips)
                    .sum::<usize>(),
                rep.groups
                    .iter()
                    .map(|g| g.report.peak_global_elems)
                    .max()
                    .unwrap_or(0),
            )
        }
        None => (0, 0.0, KernelStats::default(), 0, 0),
    };
    let fleet_tx: u64 = first.shard_delta.iter().map(|d| d.1).sum();
    let fleet_s: f64 = first.shard_delta.iter().map(|d| d.2).sum();
    let fleet_launches: u64 = first.shard_delta.iter().map(|d| d.0).sum();
    let ops = seg.ops_per_pass as f64;
    let geos: Vec<ConvGeometry> = st.endpoints.iter().map(|e| e.geometry).collect();
    seg.modeled = vec![
        Metric::new(
            "transactions_per_op",
            "transactions",
            (fleet_tx + graph_tx) as f64 / ops,
        ),
        Metric::new(
            "modeled_device_ms_per_op",
            "modeled_ms",
            (fleet_s + graph_s) / ops * 1e3,
        ),
        Metric::new("ours_speedup_vs_gemm", "x", speedup_vs_gemm(&geos, seed)),
        Metric::new("modeled_latency_p50_ms", "modeled_ms", lat.p50 * 1e3),
        Metric::new("modeled_latency_tail_ms", "modeled_ms", lat.tail * 1e3),
        Metric::new("max_rate_rps", "1/s", max_rate),
    ];
    seg.notes.push(format!(
        "modeled latency: p50 {:.4} ms, tail p{} {:.4} ms ({} samples, {} beyond); \
         rate limit: tail <= {} ms and nothing shed",
        lat.p50 * 1e3,
        lat.tail_pct,
        lat.tail * 1e3,
        lat.samples,
        lat.beyond,
        TAIL_LIMIT_S * 1e3
    ));

    // Per-layer counters.
    if let Some(f) = &first.fleet {
        let busy: Vec<f64> = first.shard_delta.iter().map(|d| d.2).collect();
        let failed_attempts: usize = f
            .requests
            .iter()
            .flat_map(|r| &r.attempts)
            .filter(|a| {
                !matches!(
                    a.outcome,
                    FleetAttemptOutcome::Served | FleetAttemptOutcome::HostServed
                )
            })
            .count();
        let (mut hits, mut lookups) = (f.cache_hits, f.cache_hits + f.cache_misses);
        if let Some((_, rep)) = &first.models {
            for l in rep.groups.iter().flat_map(|g| &g.report.layers) {
                if let Some(h) = l.cache_hit {
                    hits += u64::from(h);
                    lookups += 1;
                }
            }
        }
        let mb = busy.iter().cloned().fold(0.0, f64::max);
        seg.layer.extend([
            Metric::new(
                "serve.fleet.requests_per_launch",
                "ratio",
                f.served() as f64 / fleet_launches.max(1) as f64,
            ),
            Metric::new(
                "serve.fleet.queue_p50_ms",
                "modeled_ms",
                median(&f.requests.iter().map(|r| r.queue_s).collect::<Vec<_>>()) * 1e3,
            ),
            Metric::new("serve.fleet.shed", "count", f.shed() as f64),
            Metric::new(
                "serve.fleet.failed_attempts",
                "count",
                failed_attempts as f64,
            ),
            Metric::new(
                "serve.fleet.load_imbalance",
                "ratio",
                if mean(&busy) > 0.0 {
                    mb / mean(&busy)
                } else {
                    1.0
                },
            ),
            Metric::new(
                "serve.cache.hit_rate",
                "ratio",
                hits as f64 / lookups.max(1) as f64,
            ),
            Metric::new(
                "serve.planner.heuristic_plans",
                "count",
                f.cache_misses as f64,
            ),
        ]);
    }
    let n_models = n_models.max(1) as f64;
    seg.layer.extend([
        Metric::new("graph.kernels_per_model", "count", st.kernels_per_model),
        Metric::new("graph.fused_epilogues", "count", st.fused_epilogues as f64),
        Metric::new("graph.host_roundtrips", "count", roundtrips as f64),
        Metric::new(
            "graph.transactions_per_model",
            "transactions",
            graph_tx as f64 / n_models,
        ),
        Metric::new("graph.peak_global_elems", "count", peak as f64),
    ]);
    seg.gpusim = graph_stats;
    seg.sim_layer = "graph.serve";
    seg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(reqs: &[Req]) -> Vec<(f64, Vec<f32>)> {
        reqs.iter()
            .map(|r| match r {
                Req::Conv(c) => (c.arrival_s, c.input.as_slice().to_vec()),
                Req::Model(m) => (m.arrival_s, m.input.as_slice().to_vec()),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_and_schedule_across_seeds() {
        let (e, m) = (endpoints(7), models(7));
        let a = inputs(&trace(7, &e, &m));
        assert_eq!(a, inputs(&trace(7, &endpoints(7), &models(7))));
        let b = inputs(&trace(8, &endpoints(8), &models(8)));
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.0 == y.0),
            "schedule is seed-independent"
        );
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.1 != y.1),
            "data follows the seed"
        );
        assert_ne!(e[0].weights, endpoints(8)[0].weights);
    }

    #[test]
    fn mobilenet_stem_keeps_its_native_stride() {
        let e = endpoints(1);
        let stem = e
            .iter()
            .find(|e| e.name == "MobileNet/conv1")
            .expect("zoo has the stem");
        assert_eq!(stem.geometry.stride_h, 2);
        assert_eq!((stem.geometry.out_h(), stem.geometry.out_w()), (9, 9));
    }
}
