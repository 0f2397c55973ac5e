//! Criterion: per-kernel scalar vs explicitly vectorized execution —
//! the host-measurable core of the paper's claim (Fig. 6 / Table VII).

use criterion::{criterion_group, criterion_main, Criterion};
use ump_apps::airfoil::{drivers, Airfoil};
use ump_apps::volna::{self, Volna};
use ump_core::{Backend, ExecPool, IncMode, LoopShape, PlanCache};

/// `lanes`-wide explicit SIMD on the calling thread (the `simd{L}` shape).
fn simd(lanes: usize) -> LoopShape<'static> {
    LoopShape::calling_thread().with_lanes(lanes)
}

fn airfoil_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("airfoil_step");
    group.sample_size(10);
    let (nx, ny) = (300, 150);
    // one persistent team shared by every threaded benchmark below
    let pool = ExecPool::new(0);

    group.bench_function("scalar_dp", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        b.iter(|| drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_dp_l4", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| drivers::step_shape::<f64, 4>(&simd(4), &mut sim, &cache, 1024, None));
    });
    group.bench_function("simd_dp_l8", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| drivers::step_shape::<f64, 8>(&simd(8), &mut sim, &cache, 1024, None));
    });
    group.bench_function("scalar_sp", |b| {
        let mut sim = Airfoil::<f32>::new(nx, ny);
        b.iter(|| drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_sp_l8", |b| {
        let mut sim = Airfoil::<f32>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| drivers::step_shape::<f32, 8>(&simd(8), &mut sim, &cache, 1024, None));
    });
    group.bench_function("threaded_dp", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| drivers::step_on(Backend::Threaded, &mut sim, &pool, &cache, 0, 1024, None));
    });
    group.bench_function("simd_threaded_dp_l4", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        let hybrid = Backend::SimdThreaded { lanes: 4 };
        b.iter(|| drivers::step_on(hybrid, &mut sim, &pool, &cache, 0, 1024, None));
    });
    group.bench_function("simt_dp", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| drivers::step_on(Backend::Simt, &mut sim, &pool, &cache, 0, 256, None));
    });
    group.finish();
}

fn coloring_schemes(c: &mut Criterion) {
    // Fig. 8a ablation on the host: original vs full/block permute
    let mut group = c.benchmark_group("res_calc_scheme");
    group.sample_size(10);
    let (nx, ny) = (300, 150);
    for (name, inc) in [
        ("original", IncMode::InPlace),
        ("full_permute", IncMode::FullPermute),
        ("block_permute", IncMode::BlockPermute),
    ] {
        group.bench_function(name, |b| {
            let mut sim = Airfoil::<f64>::new(nx, ny);
            let cache = PlanCache::new();
            let shape = LoopShape::calling_thread().with_lanes(4).with_inc(inc);
            b.iter(|| drivers::step_shape::<f64, 4>(&shape, &mut sim, &cache, 1024, None));
        });
    }
    group.finish();
}

fn volna_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("volna_step");
    group.sample_size(10);
    let (nx, ny) = (150, 150);
    group.bench_function("scalar_sp", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        b.iter(|| volna::drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_sp_l8", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| volna::drivers::step_shape::<f32, 8>(&simd(8), &mut sim, &cache, 1024, None));
    });
    group.bench_function("simd_sp_l16", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        let cache = PlanCache::new();
        b.iter(|| volna::drivers::step_shape::<f32, 16>(&simd(16), &mut sim, &cache, 1024, None));
    });
    group.finish();
}

criterion_group!(benches, airfoil_steps, coloring_schemes, volna_steps);
criterion_main!(benches);
