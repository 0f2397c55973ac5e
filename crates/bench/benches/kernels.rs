//! Criterion: per-kernel scalar vs explicitly vectorized execution —
//! the host-measurable core of the paper's claim (Fig. 6 / Table VII).

use criterion::{criterion_group, criterion_main, Criterion};
use ump_apps::airfoil::{drivers, Airfoil};
use ump_apps::volna::{self, Volna};
use ump_core::{Backend, ExecPool, PlanCache, Scheme};
use ump_lazy::{Fusion, Shape};

fn airfoil_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("airfoil_step");
    group.sample_size(10);
    let (nx, ny) = (300, 150);
    // one persistent team shared by every threaded benchmark below; the
    // calling-thread rows (`simd{L}`) ignore it
    let pool = ExecPool::new(0);

    group.bench_function("scalar_dp", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        b.iter(|| drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_dp_l4", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        let simd = Backend::Simd { lanes: 4 };
        b.iter(|| drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, None));
    });
    group.bench_function("simd_dp_l8", |b| {
        let mut sim = Airfoil::<f64>::new(nx, ny);
        let cache = PlanCache::new();
        let simd = Backend::Simd { lanes: 8 };
        b.iter(|| drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, None));
    });
    group.bench_function("scalar_sp", |b| {
        let mut sim = Airfoil::<f32>::new(nx, ny);
        b.iter(|| drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_sp_l8", |b| {
        let mut sim = Airfoil::<f32>::new(nx, ny);
        let cache = PlanCache::new();
        let simd = Backend::Simd { lanes: 8 };
        b.iter(|| drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, None));
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
    let pool = ExecPool::new(1);
    for (name, scheme) in [
        ("original", Scheme::TwoLevel),
        ("full_permute", Scheme::FullPermute),
        ("block_permute", Scheme::BlockPermute),
    ] {
        group.bench_function(name, |b| {
            let mut sim = Airfoil::<f64>::new(nx, ny);
            let cache = PlanCache::new();
            let row = Backend::SimdScheme { scheme };
            b.iter(|| drivers::step_on(row, &mut sim, &pool, &cache, 0, 1024, None));
        });
    }
    group.finish();
}

fn volna_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("volna_step");
    group.sample_size(10);
    let (nx, ny) = (150, 150);
    let pool = ExecPool::new(1);
    group.bench_function("scalar_sp", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        b.iter(|| volna::drivers::step_seq(&mut sim, None));
    });
    group.bench_function("simd_sp_l8", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        let (cache, simd) = (PlanCache::new(), Backend::Simd { lanes: 8 });
        b.iter(|| volna::drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, None));
    });
    group.bench_function("simd_sp_l16", |b| {
        let mut sim = Volna::<f32>::new(nx, ny);
        // 16 lanes is not a registry width: execute the recording
        // directly, loop by loop on the one-member team
        let (cache, simd) = (PlanCache::new(), Shape::Simd { lanes: 16 });
        b.iter(|| {
            volna::drivers::step_chain::<f32, 16>(
                &pool,
                &mut sim,
                &cache,
                simd,
                Fusion::PerLoop,
                0,
                1024,
                None,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, airfoil_steps, coloring_schemes, volna_steps);
criterion_main!(benches);
