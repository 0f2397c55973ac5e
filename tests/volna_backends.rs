//! Integration: Volna backend equivalence and conservation properties.

use ump_apps::volna::{drivers, Volna};
use ump_core::{Backend, ExecPool, Layout, PlanCache, Recorder};
use ump_lazy::{Fusion, Shape};

const NX: usize = 20;
const NY: usize = 14;
const STEPS: usize = 10;

/// One RK2 step through a registered backend on `pool`, block size 32.
fn step(backend: Backend, sim: &mut Volna<f64>, pool: &ExecPool, cache: &PlanCache) -> f64 {
    drivers::step_on(backend, sim, pool, cache, 0, 32, None)
}

/// One single-precision RK2 step, `L`-lane SIMD loop by loop on a
/// one-member team.
fn step_simd_f32<const L: usize>(sim: &mut Volna<f32>, cache: &PlanCache) -> f64 {
    let (pool, shape) = (ExecPool::new(1), Shape::Simd { lanes: L });
    drivers::step_chain::<f32, L>(&pool, sim, cache, shape, Fusion::PerLoop, 0, 32, None)
}

#[test]
fn mass_is_conserved_exactly_by_construction() {
    let mut sim = Volna::<f64>::new(NX, NY);
    let v0 = sim.total_volume();
    for _ in 0..STEPS {
        let dt = drivers::step_seq(&mut sim, None);
        assert!(dt.is_finite() && dt > 0.0);
    }
    let v1 = sim.total_volume();
    assert!((v1 - v0).abs() < 1e-9 * v0, "volume drifted: {v0} -> {v1}");
    assert!(sim.w.all_finite());
}

#[test]
fn tsunami_wave_propagates_and_decays() {
    let mut sim = Volna::<f64>::new(32, 16);
    let eta0 = sim.max_eta();
    for _ in 0..30 {
        drivers::step_seq(&mut sim, None);
    }
    let eta1 = sim.max_eta();
    // the hump spreads: amplitude decays but the field stays lively
    assert!(eta1 < eta0, "wave should spread: {eta0} -> {eta1}");
    assert!(eta1 > 0.01 * eta0, "wave should not vanish instantly");
    // momentum has appeared
    let momentum: f64 = (0..sim.w.set_size)
        .map(|c| sim.w.row(c)[1].abs() + sim.w.row(c)[2].abs())
        .sum();
    assert!(momentum > 0.0);
}

#[test]
fn near_still_water_stays_near_still() {
    // Without the source, lake-at-rest currents must stay far subcritical:
    // the centered bed-slope source balances the pressure flux to first
    // order (exactly so on a flat bottom; O(Δx²) on the curved shelf).
    // Measure the local Froude number |u|/√(gh) and check it shrinks
    // under refinement.
    let froude_after = |n: usize| -> f64 {
        let mut sim = Volna::<f64>::new(2 * n, n);
        for c in 0..sim.w.set_size {
            let depth = sim.case.bathy_cell[c];
            let r = sim.w.row_mut(c);
            r[0] = depth;
            r[1] = 0.0;
            r[2] = 0.0;
        }
        for _ in 0..20 {
            drivers::step_seq(&mut sim, None);
        }
        assert!(sim.w.all_finite());
        (0..sim.w.set_size)
            .map(|c| {
                let r = sim.w.row(c);
                let h = r[0].max(1e-9);
                (r[1].abs().max(r[2].abs()) / h) / (9.81 * h).sqrt()
            })
            .fold(0.0f64, f64::max)
    };
    let coarse = froude_after(16);
    let fine = froude_after(48);
    assert!(fine < 0.2, "spurious lake-at-rest Froude: {fine}");
    assert!(
        fine < 0.6 * coarse,
        "imbalance should converge away: coarse {coarse}, fine {fine}"
    );
}

#[test]
fn threaded_matches_sequential() {
    let mut a = Volna::<f64>::new(NX, NY);
    let mut b = Volna::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(4), PlanCache::new());
    for i in 0..STEPS {
        let da = drivers::step_seq(&mut a, None);
        let db = step(Backend::Threaded, &mut b, &pool, &cache);
        assert!((da - db).abs() < 1e-12 * da, "dt diverged at step {i}");
    }
    let d = a.w.max_abs_diff(&b.w);
    assert!(d < 1e-11, "threaded diverged: {d}");
}

#[test]
fn simd_matches_sequential() {
    let mut a = Volna::<f64>::new(NX, NY);
    let mut b = Volna::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    for i in 0..STEPS {
        let da = drivers::step_seq(&mut a, None);
        let db = step(Backend::Simd { lanes: 4 }, &mut b, &pool, &cache);
        assert!(
            (da - db).abs() < 1e-12 * da.max(1e-30),
            "dt diverged at step {i}"
        );
    }
    let d = a.w.max_abs_diff(&b.w);
    assert!(d < 1e-11, "simd diverged: {d}");
}

#[test]
fn simt_matches_sequential() {
    let mut a = Volna::<f64>::new(NX, NY);
    let mut b = Volna::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(2), PlanCache::new());
    for _ in 0..STEPS {
        drivers::step_seq(&mut a, None);
        step(Backend::Simt, &mut b, &pool, &cache);
    }
    let d = a.w.max_abs_diff(&b.w);
    assert!(d < 1e-11, "simt diverged: {d}");
}

#[test]
fn single_precision_backend_is_stable() {
    // the paper's Volna runs are SP-only: stability and rough agreement
    let mut sp = Volna::<f32>::new(NX, NY);
    let mut dp = Volna::<f64>::new(NX, NY);
    let cache = PlanCache::new();
    for _ in 0..STEPS {
        step_simd_f32::<8>(&mut sp, &cache);
        drivers::step_seq(&mut dp, None);
    }
    assert!(sp.w.all_finite());
    let vol_rel = (sp.total_volume() - dp.total_volume()).abs() / dp.total_volume();
    assert!(vol_rel < 1e-4, "SP volume drifted {vol_rel}");
}

#[test]
fn wider_lanes_agree() {
    let mut a = Volna::<f32>::new(NX, NY);
    let mut b = Volna::<f32>::new(NX, NY);
    let cache = PlanCache::new();
    for _ in 0..STEPS {
        step_simd_f32::<8>(&mut a, &cache);
        step_simd_f32::<16>(&mut b, &cache);
    }
    let d = a.w.max_abs_diff(&b.w);
    assert!(d < 1e-4, "lane width changed the physics: {d}");
}

#[test]
fn mpi_backend_matches_sequential() {
    use ump::lazy::{ExchangePolicy, Shape};
    use ump_apps::dist;
    let mut reference = Volna::<f64>::new(NX, NY);
    let case = reference.case.clone();
    let mut ref_hist = Vec::new();
    for _ in 0..STEPS {
        ref_hist.push(drivers::step_seq(&mut reference, None));
    }
    for ranks in [2usize, 3] {
        let (w, hist) = dist::run_mpi_fused::<Volna<f64>, 4>(
            &case,
            ranks,
            1,
            32,
            STEPS,
            Shape::Threaded,
            ExchangePolicy::Overlap,
        );
        let d = reference.w.max_abs_diff(&w);
        assert!(d < 1e-11, "mpi ranks={ranks} diverged: {d}");
        for (i, (&a, &b)) in hist.iter().zip(&ref_hist).enumerate() {
            assert!(
                (a - b).abs() < 1e-12 * (1.0 + b),
                "dt history diverged at step {i}: {a} vs {b} (ranks {ranks})"
            );
        }
    }
}

/// The direct cell loops of the recording on SoA storage, scalar bodies,
/// against the hand-written AoS slice loops of `step_seq` on one thread:
/// `sim_1 + RK_1 + RK_2` of `threaded` on SoA must take at most as long
/// as `seq`'s (Volna f32 274×273, the `volna_threaded_soa` mesh). Those
/// loops are nothing but scalar row accesses, so they show what a row
/// access costs: measured at 0.81–1.03 of `seq` with the layout a type
/// of the recording, 1.39–1.54 while every access tested it and checked
/// each component's bounds (2 CPUs, AVX-512). Median of the per-step
/// `Recorder` times over 16 interleaved steps after a warm-up one.
/// Timing test: run in release, `-- --ignored`.
#[test]
#[ignore = "timing: the simd CI job runs it in release"]
fn threaded_soa_direct_loops_keep_up_with_seq() {
    let base = Volna::<f32>::seeded(274, 273, 1);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    let mut soa = base.clone();
    soa.set_layout(Layout::Soa);
    let rows = [Backend::Seq, Backend::Threaded];
    let mut sims = [base, soa];
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..17 {
        for (k, &row) in rows.iter().enumerate() {
            let rec = Recorder::new();
            drivers::step_on(row, &mut sims[k], &pool, &cache, 1, 1024, Some(&rec));
            if i > 0 {
                let secs = |name| rec.get(name).expect("direct loops are timed").seconds;
                times[k].push(secs("sim_1") + secs("RK_1") + secs("RK_2"));
            }
        }
    }
    let [seq, threaded] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    assert!(
        threaded <= seq,
        "threaded SoA sim_1+RK_1+RK_2 {:.3} ms vs seq {:.3} ms per step: ratio {:.2} > 1.0",
        threaded * 1e3,
        seq * 1e3,
        threaded / seq
    );
}
