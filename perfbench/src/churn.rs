//! `serve-churn`: one `ConvServer` over a pool of distinct geometries
//! larger than its plan cache.
//!
//! The pool spans stride, dilation, groups (depthwise included) and
//! padding, and every pass visits it in fixed permutations, so most
//! lookups miss and evict: each miss is planned by the oracle heuristic
//! and trial-refined after the trace. Requests to the unit-axes,
//! unpadded geometries alternate onto the checked path (the only
//! geometries it accepts). The planner, the oracle and the
//! geometry-general kernels do most of the work; fleet and graph are
//! untouched.
//!
//! Every pass is a fresh server (a cold cache), so every pass does the
//! same planning work.

use crate::check::{compare, repeat};
use crate::spans::Tracer;
use crate::stats::{latency, Failure, Metric, Tally};
use crate::{fifo_max_rate, mix, speedup_vs_gemm, Segment, Verdicts};
use memconv::gpusim::{DeviceConfig, LaunchMode, SampleMode};
use memconv::oracle::score_nchw;
use memconv::reference::{conv_nchw_ref, conv_nchw_ref_geo};
use memconv::tensor::generate::TensorRng;
use memconv::tensor::{ConvGeometry, Padding, Tensor4};
use memconv_serve::{
    plan_nchw, plan_nchw_heuristic, planner::instantiate_nchw, ConvServer, Endpoint, Plan,
    PlanConfig, Provenance, Request, Response, ServeConfig, ServeReport,
};

/// Plan-cache capacity; the pool is larger.
const CACHE_CAPACITY: usize = 8;
/// Permutations of the pool per pass.
const ROUNDS: usize = 2;
/// Mean open-loop arrival rate, requests per virtual second.
const BASE_RATE: f64 = 2000.0;
/// Planner trial and oracle scoring sample budget.
const TRIAL_SAMPLE: SampleMode = SampleMode::Auto(64);
/// `max_rate_rps`: requests queue FIFO on one modeled device, each
/// holding it for its share of its launch plus its planning time.
const RATE_LADDER: [f64; 8] = [16e3, 32e3, 64e3, 128e3, 256e3, 512e3, 1024e3, 2048e3];
const TAIL_LIMIT_S: f64 = 50e-6;

/// The geometry pool: every combination of stride, dilation, groups
/// (dense, two groups, depthwise) and padding on a 4-channel input, plus
/// unit-axes unpadded geometries for the checked path.
pub fn pool() -> Vec<ConvGeometry> {
    let mut v = Vec::new();
    let mut i = 0usize;
    for stride in [1, 2] {
        for dil in [1, 2] {
            for groups in [1, 2, 4] {
                for pad in [0, 1] {
                    let spatial = [12, 14, 16][i % 3];
                    let filters = if groups == 4 { 4 } else { 8 };
                    let g = ConvGeometry::nchw(1, 4, spatial, spatial, filters, 3, 3)
                        .with_stride(stride, stride)
                        .with_dilation(dil, dil)
                        .with_groups(groups)
                        .with_padding(Padding::Explicit(pad, pad))
                        .expect("pool geometries are valid");
                    v.push(g);
                    i += 1;
                }
            }
        }
    }
    for (spatial, f) in [(12, 5), (16, 5), (14, 3), (10, 3)] {
        v.push(ConvGeometry::nchw(1, 4, spatial, spatial, 8, f, f));
    }
    v
}

fn checkable(g: &ConvGeometry) -> bool {
    g.has_unit_axes() && g.pad_h == 0 && g.pad_w == 0
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        window: 16,
        workers: threads,
        cache_capacity: CACHE_CAPACITY,
        launch_mode: LaunchMode::Sequential,
        trial_sample: TRIAL_SAMPLE,
        refine: true,
        ..ServeConfig::default()
    }
}

/// The pool as endpoints with seeded weights.
pub struct State {
    endpoints: Vec<Endpoint>,
}

fn setup(seed: u64) -> State {
    let mut rng = TensorRng::new(seed ^ 0xC4C4);
    let endpoints = pool()
        .into_iter()
        .enumerate()
        .map(|(i, g)| Endpoint {
            name: format!("pool/{i}/{}", g.cache_key()),
            geometry: g,
            weights: rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w),
        })
        .collect();
    State { endpoints }
}

/// `ROUNDS` permutations of the pool with exponential gaps, both fixed;
/// the seed draws the inputs. Every other request to a checkable
/// geometry is checked.
pub fn trace(seed: u64, endpoints: &[Endpoint]) -> Vec<Request> {
    let mut h = mix(crate::SCHEDULE_SEED ^ 0xC0DE);
    let mut order = Vec::new();
    for _ in 0..ROUNDS {
        let mut p: Vec<usize> = (0..endpoints.len()).collect();
        for i in (1..p.len()).rev() {
            h = mix(h);
            p.swap(i, (h % (i as u64 + 1)) as usize);
        }
        order.extend(p);
    }
    let mut rng = TensorRng::new(seed ^ 0x1A7E);
    let mut t = 0.0f64;
    let mut checked_next = false;
    order
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            h = mix(h);
            let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            t += -u.ln() / BASE_RATE;
            let g = endpoints[e].geometry;
            let checked = checkable(&g) && {
                checked_next = !checked_next;
                checked_next
            };
            Request {
                id: i as u64,
                endpoint: e,
                input: rng.tensor(1, g.in_channels, g.in_h, g.in_w),
                checked,
                arrival_s: t,
            }
        })
        .collect()
}

/// Rebuild a planner candidate from its trial-log label.
fn plan_of(label: &str) -> Option<Plan> {
    let config = match label.strip_prefix("ours-fused[T") {
        Some(rest) => {
            let (t, w) = rest.trim_end_matches(']').split_once('W')?;
            PlanConfig::Ours {
                column_reuse: true,
                rows_per_thread: t.parse().ok()?,
                block_warps: w.parse().ok()?,
            }
        }
        None => PlanConfig::Baseline,
    };
    Some(Plan {
        algo: label.split('[').next()?.to_string(),
        config,
        modeled_seconds: 0.0,
        provenance: Provenance::Heuristic,
    })
}

/// Probe spans: re-time the planner, the oracle and the checked path's
/// golden reference on the first pass's geometries and inputs.
fn probes(st: &State, reqs: &[Request], rep: &ServeReport, tracer: &mut Tracer) {
    let dev = DeviceConfig::rtx2080ti();
    let geo_of = |name: &str| {
        st.endpoints
            .iter()
            .find(|e| e.name == name)
            .expect("sweeps name endpoints")
            .geometry
    };
    for (i, s) in rep.plan_sweeps.iter().enumerate() {
        let g = geo_of(&s.endpoint);
        match s.provenance {
            Provenance::Heuristic => {
                let _ = tracer.probe("serve.planner", "plan_nchw_heuristic", i as u64, || {
                    plan_nchw_heuristic(&dev, &g, TRIAL_SAMPLE)
                });
                for (label, _) in &s.trials {
                    let Some(algo) =
                        plan_of(label).and_then(|p| instantiate_nchw(&p, TRIAL_SAMPLE).ok())
                    else {
                        continue;
                    };
                    let _ = tracer.probe("oracle", "score_nchw", i as u64, || {
                        score_nchw(algo.as_ref(), &dev, &g, LaunchMode::Sequential)
                    });
                }
            }
            Provenance::Trialed => {
                let _ = tracer.probe("serve.planner", "plan_nchw", i as u64, || {
                    plan_nchw(&dev, &g, TRIAL_SAMPLE)
                });
            }
        }
    }
    for r in reqs.iter().filter(|r| r.checked) {
        let w = &st.endpoints[r.endpoint].weights;
        tracer.probe("reference", "conv_nchw_ref", r.id, || {
            conv_nchw_ref(&r.input, w)
        });
    }
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
    let st = seg.set_up(1, tracer, |_| setup(seed));
    let reqs = trace(seed, &st.endpoints);
    seg.ops_per_pass = reqs.len() as u64;

    let mut first: Option<(ServeReport, usize)> = None;
    let mut first_outs: Vec<Option<Tensor4>> = Vec::new();
    let mut tally = Tally::default();
    while !seg.done(budget_s) {
        let pass = seg.pass_s.len() as u64;
        let mut server = ConvServer::new(
            DeviceConfig::rtx2080ti(),
            st.endpoints.clone(),
            config(threads),
        );
        let out = seg.pass(tracer, |t| {
            t.span("serve.scheduler", "ConvServer::run_trace", pass, |_| {
                server.run_trace(&reqs)
            })
        });
        // A trace-level error fails every request of the trace.
        let (outs, report): (Vec<Option<Tensor4>>, Option<ServeReport>) = match out {
            Ok((resps, rep)) => (
                resps
                    .into_iter()
                    .map(|r: Response| Some(r.output))
                    .collect(),
                Some(rep),
            ),
            Err(e) => {
                seg.notes
                    .push(format!("pass {pass}: run_trace failed: {e}"));
                (reqs.iter().map(|_| None).collect(), None)
            }
        };
        if pass == 0 {
            seg.verdicts = match prior {
                Some(v) => v.clone(),
                None => reqs
                    .iter()
                    .zip(&outs)
                    .map(|(r, o)| match o {
                        Some(o) => {
                            let e = &st.endpoints[r.endpoint];
                            compare(o, &conv_nchw_ref_geo(&r.input, &e.weights, &e.geometry))
                        }
                        None => Err(Failure::Error),
                    })
                    .collect(),
            };
            for v in &seg.verdicts {
                tally.record(*v);
            }
            if let Some(rep) = report {
                let grown = server.cache().len();
                first = Some((rep, grown));
            }
            first_outs = outs;
        } else {
            for ((o, f), v) in outs.iter().zip(&first_outs).zip(&seg.verdicts) {
                tally.record(match (o, f) {
                    (Some(o), Some(f)) => repeat(o, f, *v),
                    (None, _) => Err(Failure::Error),
                    (Some(_), None) => Err(Failure::WrongValues),
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

    let geos: Vec<ConvGeometry> = st.endpoints.iter().map(|e| e.geometry).collect();
    let speedup = speedup_vs_gemm(&geos, seed);
    let Some((rep, cache_len)) = first else {
        seg.modeled = vec![Metric::new("ours_speedup_vs_gemm", "x", speedup)];
        return seg;
    };
    if tracer.enabled() {
        probes(&st, &reqs, &rep, tracer);
    }

    let ops = reqs.len() as f64;
    let lat_s: Vec<f64> = rep
        .requests
        .iter()
        .map(|r| r.queue_s + r.plan_s + r.execute_s)
        .collect();
    let lat = latency(&lat_s);
    let service: Vec<f64> = rep
        .requests
        .iter()
        .map(|r| r.plan_s + r.execute_s / r.batched_with.max(1) as f64)
        .collect();
    let launch_s: f64 = rep.launches.iter().map(|l| l.modeled_seconds).sum();
    seg.modeled = vec![
        Metric::new(
            "transactions_per_op",
            "transactions",
            rep.total_transactions() as f64 / ops,
        ),
        Metric::new(
            "modeled_device_ms_per_op",
            "modeled_ms",
            launch_s / ops * 1e3,
        ),
        Metric::new("ours_speedup_vs_gemm", "x", speedup),
        Metric::new("modeled_latency_p50_ms", "modeled_ms", lat.p50 * 1e3),
        Metric::new("modeled_latency_tail_ms", "modeled_ms", lat.tail * 1e3),
        Metric::new(
            "max_rate_rps",
            "1/s",
            fifo_max_rate(&service, &RATE_LADDER, TAIL_LIMIT_S),
        ),
    ];
    seg.notes.push(format!(
        "{} geometries, cache capacity {CACHE_CAPACITY}: {} hits, {} misses, {} launches; \
         modeled latency p50 {:.4} ms, tail p{} {:.4} ms ({} samples, {} beyond)",
        st.endpoints.len(),
        rep.cache_hits,
        rep.cache_misses,
        rep.launches.len(),
        lat.p50 * 1e3,
        lat.tail_pct,
        lat.tail * 1e3,
        lat.samples,
        lat.beyond
    ));

    let heuristic: Vec<_> = rep
        .plan_sweeps
        .iter()
        .filter(|s| s.provenance == Provenance::Heuristic)
        .collect();
    let checked: Vec<_> = rep.requests.iter().filter(|r| r.checked).collect();
    seg.layer = vec![
        Metric::new(
            "oracle.calls",
            "count",
            heuristic.iter().map(|s| s.trials.len()).sum::<usize>() as f64,
        ),
        Metric::new(
            "serve.planner.heuristic_plans",
            "count",
            heuristic.len() as f64,
        ),
        Metric::new(
            "serve.planner.refinement_sweeps",
            "count",
            rep.plan_sweeps
                .iter()
                .filter(|s| s.provenance == Provenance::Trialed)
                .count() as f64,
        ),
        Metric::new(
            "serve.planner.modeled_plan_ms",
            "modeled_ms",
            rep.requests.iter().map(|r| r.plan_s).sum::<f64>() * 1e3,
        ),
        Metric::new("serve.cache.hit_rate", "ratio", rep.hit_rate()),
        // Misses that found the cache full; the post-trace refinement's
        // re-inserts are not visible from outside the server.
        Metric::new(
            "serve.cache.evictions",
            "count",
            rep.cache_misses.saturating_sub(cache_len as u64) as f64,
        ),
        Metric::new(
            "serve.scheduler.requests_per_launch",
            "ratio",
            rep.requests_per_launch(),
        ),
        Metric::new(
            "serve.scheduler.queue_p50_ms",
            "modeled_ms",
            rep.queue_percentiles().p50 * 1e3,
        ),
        Metric::new("reference.calls", "count", checked.len() as f64),
        Metric::new("checked.requests", "count", checked.len() as f64),
        Metric::new(
            "checked.fallbacks",
            "count",
            checked.iter().filter(|r| r.fell_back).count() as f64,
        ),
    ];
    seg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_schedule_across_seeds() {
        let a = trace(3, &setup(3).endpoints);
        let b = trace(3, &setup(3).endpoints);
        let c = trace(4, &setup(4).endpoints);
        let key = |r: &Request| (r.endpoint, r.checked, r.arrival_s.to_bits());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| key(x) == key(y) && x.input == y.input));
        assert!(a.iter().zip(&c).all(|(x, y)| key(x) == key(y)));
        assert!(a.iter().zip(&c).any(|(x, y)| x.input != y.input));
    }

    #[test]
    fn pool_spans_every_axis_and_outgrows_the_cache() {
        let p = pool();
        let mut keys: Vec<String> = p.iter().map(|g| g.cache_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), p.len(), "pool geometries are distinct");
        assert!(p.len() > 2 * CACHE_CAPACITY);
        assert!(p.iter().any(|g| g.stride_h > 1));
        assert!(p.iter().any(|g| g.dil_h > 1));
        assert!(p.iter().any(|g| g.is_depthwise()));
        assert!(p.iter().any(|g| g.groups > 1 && !g.is_depthwise()));
        assert!(p.iter().any(|g| g.pad_h > 0));
        assert!(p.iter().any(checkable));
    }
}
