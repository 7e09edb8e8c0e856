//! Criterion micro-benchmarks of the simulator substrate itself: the
//! coalescer, shared-memory bank passes, lane FMA, the sectored cache, warp
//! shuffles and the launch machinery — the per-event costs everything else
//! multiplies out of.

use criterion::{criterion_group, criterion_main, Criterion};
use memconv::gpusim::lane::{LaneMask, LaneVec, VF, VU, WARP};
use memconv::gpusim::memory::cache::{CachePolicy, SectoredCache};
use memconv::gpusim::memory::coalescer::{coalesce, coalesce_into, MAX_SECTORS};
use memconv::gpusim::memory::SharedMem;
use memconv::gpusim::shuffle;
use memconv::prelude::*;

fn bench_coalescer(c: &mut Criterion) {
    let seq: [u64; WARP] = std::array::from_fn(|l| 0x1000 + l as u64 * 4);
    let scattered: [u64; WARP] = std::array::from_fn(|l| 0x1000 + (l as u64 * 97) % 4096);
    c.bench_function("coalesce_sequential", |b| {
        b.iter(|| std::hint::black_box(coalesce(&seq, LaneMask::ALL, 4, 32).transactions()))
    });
    c.bench_function("coalesce_scattered", |b| {
        b.iter(|| std::hint::black_box(coalesce(&scattered, LaneMask::ALL, 4, 32).transactions()))
    });
    c.bench_function("coalesce_into_scattered", |b| {
        let mut out = [0u64; MAX_SECTORS];
        b.iter(|| {
            let addrs = std::hint::black_box(&scattered);
            std::hint::black_box(coalesce_into(addrs, LaneMask::ALL, 4, 32, &mut out))
        })
    });
}

fn bench_shared(c: &mut Criterion) {
    let smem = SharedMem::new(2048, 32);
    let cases: [(&str, VU); 3] = [
        ("smem_passes_conflict_free", VU::lane_id()),
        ("smem_passes_broadcast", VU::splat(5)),
        ("smem_passes_32way", VU::from_fn(|l| l as u32 * 32)),
    ];
    for (name, idx) in cases {
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(smem.passes(std::hint::black_box(&idx), LaneMask::ALL)))
        });
    }
    let idx = VU::from_fn(|l| l as u32 * 4);
    c.bench_function("smem_load_vec4", |b| {
        b.iter(|| {
            let (v, passes) = smem.load_vec::<4>(std::hint::black_box(&idx), LaneMask::ALL);
            std::hint::black_box((v[3].lane(31), passes))
        })
    });
}

fn bench_fma(c: &mut Criterion) {
    let a = VF::from_fn(|l| l as f32 * 0.5);
    let x = VF::from_fn(|l| 1.0 - l as f32 * 0.25);
    let y = VF::splat(3.0);
    c.bench_function("fma_lanes", |b| {
        b.iter(|| {
            let r = std::hint::black_box(a).mul_add(std::hint::black_box(x), y);
            std::hint::black_box(r.lane(7))
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_stream_4k_sectors", |b| {
        b.iter(|| {
            let mut cache = SectoredCache::new(64 * 1024, 4, 128, 32, CachePolicy::l2());
            let mut hits = 0u64;
            for i in 0..4096u64 {
                if matches!(
                    cache.access((i % 1024) * 32, false),
                    memconv::gpusim::memory::cache::Access::Hit
                ) {
                    hits += 1;
                }
            }
            std::hint::black_box(hits)
        })
    });
}

fn bench_shuffle(c: &mut Criterion) {
    let v = LaneVec::<f32>::from_fn(|l| l as f32);
    c.bench_function("shfl_xor", |b| {
        b.iter(|| std::hint::black_box(shuffle::shfl_xor(&v, 2, WARP).lane(0)))
    });
}

fn bench_launch(c: &mut Criterion) {
    c.bench_function("saxpy_launch_64k_threads", |b| {
        b.iter(|| {
            let mut sim = GpuSim::rtx2080ti();
            let x = sim.mem.alloc(65536);
            let y = sim.mem.alloc(65536);
            let stats = sim.launch(&LaunchConfig::linear(256, 256), |blk| {
                blk.each_warp(|w| {
                    let tid = w.global_tid_x();
                    let mask = tid.lt_scalar(65536);
                    let v = w.gld(x, &tid, mask);
                    let r = w.fma(v, VF::splat(2.0), v);
                    w.gst(y, &tid, &r, mask);
                });
            });
            std::hint::black_box(stats.gld_transactions)
        })
    });
}

criterion_group!(
    benches,
    bench_coalescer,
    bench_shared,
    bench_fma,
    bench_cache,
    bench_shuffle,
    bench_launch
);
criterion_main!(benches);
