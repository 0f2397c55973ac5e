//! The cross-product conformance matrix: every backend in the registry
//! (`Backend::all()`) × both applications × two mesh sizes must compute
//! the sequential reference's physics within 1e-12 after 10 steps.
//!
//! The point of the registry is that this file never has to change when
//! a backend is added — a new `Backend` variant registered in
//! `ump_core::backend` and wired into the one `step_on` dispatcher is
//! automatically swept here, on CI, against both applications.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ump_apps::{airfoil, step_on, volna, Simulation};
use ump_core::{Backend, ExecPool, Layout, OpDat, PlanCache};

const ITERS: usize = 10;
const BLOCK: usize = 48;
const TEAM: usize = 4;

/// (tiny generated mesh, the 60×30 acceptance mesh).
const MESHES: [(usize, usize); 2] = [(12, 8), (60, 30)];

fn run_airfoil(backend: Backend, nx: usize, ny: usize) -> (airfoil::Airfoil<f64>, Vec<f64>, u64) {
    run_airfoil_in(Layout::Aos, backend, nx, ny)
}

fn run_airfoil_in(
    layout: Layout,
    backend: Backend,
    nx: usize,
    ny: usize,
) -> (airfoil::Airfoil<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(TEAM);
    let cache = PlanCache::new();
    let mut sim = airfoil::Airfoil::<f64>::new(nx, ny);
    sim.set_layout(layout);
    let r0 = pool.dispatch_rounds();
    let hist = (0..ITERS)
        .map(|_| airfoil::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
        .collect();
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

fn run_volna(backend: Backend, nx: usize, ny: usize) -> (volna::Volna<f64>, Vec<f64>, u64) {
    run_volna_in(Layout::Aos, backend, nx, ny)
}

fn run_volna_in(
    layout: Layout,
    backend: Backend,
    nx: usize,
    ny: usize,
) -> (volna::Volna<f64>, Vec<f64>, u64) {
    let pool = ExecPool::new(TEAM);
    let cache = PlanCache::new();
    let mut sim = volna::Volna::<f64>::new(nx, ny);
    sim.set_layout(layout);
    let r0 = pool.dispatch_rounds();
    let hist = (0..ITERS)
        .map(|_| volna::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
        .collect();
    let rounds = pool.dispatch_rounds() - r0;
    (sim, hist, rounds)
}

#[test]
fn every_backend_matches_sequential_on_airfoil() {
    for (nx, ny) in MESHES {
        let (reference, ref_hist, _) = run_airfoil(Backend::Seq, nx, ny);
        for backend in Backend::all() {
            let (sim, hist, rounds) = run_airfoil(backend, nx, ny);
            for (i, (&rms, &r)) in hist.iter().zip(&ref_hist).enumerate() {
                assert!(
                    (rms - r).abs() <= 1e-12 * (1.0 + r),
                    "{backend} airfoil {nx}x{ny} iter {i}: rms {rms} vs {r}"
                );
            }
            let d = sim.q.max_abs_diff(&reference.q);
            assert!(
                d <= 1e-12,
                "{backend} airfoil {nx}x{ny}: max |Δq| = {d:e} > 1e-12"
            );
            assert!(sim.q.all_finite(), "{backend}: NaN/Inf in q");
            assert_eq!(
                rounds > 0,
                backend.needs_pool(),
                "{backend} airfoil {nx}x{ny}: dispatch_rounds = {rounds}, needs_pool = {}",
                backend.needs_pool()
            );
        }
    }
}

#[test]
fn every_backend_matches_sequential_on_volna() {
    for (nx, ny) in MESHES {
        let (reference, ref_hist, _) = run_volna(Backend::Seq, nx, ny);
        for backend in Backend::all() {
            let (sim, hist, rounds) = run_volna(backend, nx, ny);
            for (i, (&dt, &r)) in hist.iter().zip(&ref_hist).enumerate() {
                assert!(
                    (dt - r).abs() <= 1e-12 * r,
                    "{backend} volna {nx}x{ny} iter {i}: dt {dt} vs {r}"
                );
            }
            let d = sim.w.max_abs_diff(&reference.w);
            assert!(
                d <= 1e-12,
                "{backend} volna {nx}x{ny}: max |Δw| = {d:e} > 1e-12"
            );
            assert!(sim.w.all_finite(), "{backend}: NaN/Inf in w");
            assert_eq!(
                rounds > 0,
                backend.needs_pool(),
                "{backend} volna {nx}x{ny}: dispatch_rounds = {rounds}, needs_pool = {}",
                backend.needs_pool()
            );
        }
    }
}

/// The f32 bound, fixed before the sweep below first ran: the reference
/// benchmark's f32 check bound. It applies to the primary field relative
/// to the reference field's largest magnitude (at least 1), and to each
/// step's value relative to 1 + |value|.
const F32_TOL: f64 = 1e-4;

/// Every row of the registry on `fresh`, an f32 state, in AoS and SoA:
/// `ITERS` steps through `step_on` against as many f32 `step_seq` steps.
fn sweep_at_f32<S: Simulation<R = f32> + Clone>(app: &str, fresh: &S) {
    let mut reference = fresh.clone();
    let ref_hist: Vec<f64> = (0..ITERS).map(|_| reference.step_seq(None)).collect();
    let scale = reference
        .primary()
        .data
        .iter()
        .fold(1.0f64, |m, v| m.max(v.abs() as f64));
    for layout in [Layout::Aos, Layout::Soa] {
        for backend in Backend::all() {
            let (pool, cache) = (ExecPool::new(TEAM), PlanCache::new());
            let mut sim = fresh.clone();
            sim.set_layout(layout);
            let hist: Vec<f64> = (0..ITERS)
                .map(|_| step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
                .collect();
            let at = format!("{backend} {app} f32 {}", layout.name());
            for (i, (&v, &r)) in hist.iter().zip(&ref_hist).enumerate() {
                assert!(
                    (v - r).abs() <= F32_TOL * (1.0 + r.abs()),
                    "{at} iter {i}: {v} vs {r}"
                );
            }
            let d = sim.primary().max_abs_diff(reference.primary());
            assert!(d <= F32_TOL * scale, "{at}: max |Δ| = {d:e}, scale {scale}");
            assert!(sim.primary().all_finite(), "{at}: NaN/Inf");
        }
    }
}

/// f32 through the whole registry (the precision of the paper's Volna
/// runs and of two benchmark workloads): every row × both apps × {AoS,
/// SoA}, 10 steps on 12×8, within [`F32_TOL`] of the f32 sequential
/// reference.
#[test]
fn every_backend_matches_sequential_at_f32() {
    sweep_at_f32("airfoil", &airfoil::Airfoil::<f32>::new(12, 8));
    sweep_at_f32("volna", &volna::Volna::<f32>::new(12, 8));
}

/// The headline shape against its scalar twin, directly: one step of
/// `simd_threaded4` from a seeded AoS state lands within 1e-12 of
/// `threaded`'s. The matrix above implies it; here a slip in the row
/// scatter's order or a lane mix-up in a row transpose names the row.
#[test]
fn simd_threaded_matches_threaded_after_one_aos_step() {
    let (scalar, vector) = (Backend::Threaded, Backend::SimdThreaded { lanes: 4 });
    let pool = ExecPool::new(TEAM);
    for (nx, ny) in MESHES {
        let cache = PlanCache::new();
        let mut a = airfoil::Airfoil::<f64>::seeded(nx, ny, 19);
        let mut b = a.clone();
        airfoil::drivers::step_on(scalar, &mut a, &pool, &cache, 0, BLOCK, None);
        airfoil::drivers::step_on(vector, &mut b, &pool, &cache, 0, BLOCK, None);
        let d = b.q.max_abs_diff(&a.q);
        assert!(
            d <= 1e-12,
            "airfoil {nx}x{ny}: {vector} vs {scalar} |Δq| = {d:e}"
        );

        let cache = PlanCache::new();
        let mut a = volna::Volna::<f64>::seeded(nx, ny, 19);
        let mut b = a.clone();
        volna::drivers::step_on(scalar, &mut a, &pool, &cache, 0, BLOCK, None);
        volna::drivers::step_on(vector, &mut b, &pool, &cache, 0, BLOCK, None);
        let d = b.w.max_abs_diff(&a.w);
        assert!(
            d <= 1e-12,
            "volna {nx}x{ny}: {vector} vs {scalar} |Δw| = {d:e}"
        );
    }
}

/// The rows that execute the one recorded chain loop by loop, on the
/// caller's pool or on the calling thread.
fn per_loop_rows() -> Vec<Backend> {
    let all = Backend::all();
    let rows: Vec<Backend> = all
        .into_iter()
        .filter(|b| !b.is_fused() && *b != Backend::Seq)
        .collect();
    assert_eq!(rows.len(), 6);
    rows
}

/// The layout half of the matrix: every backend × both apps must
/// compute the sequential (AoS) reference's physics when the simulation
/// state lives in SoA storage. Every row that executes the recorded
/// chain — per-loop or fused — runs natively on the converted layout
/// (the per-loop rows are checked not to reallocate the state: no
/// conversion happened); `seq` and `tiled*` convert around the
/// step — all must be within 1e-12 of an all-AoS run.
#[test]
fn every_backend_matches_sequential_under_soa() {
    let layout = Layout::Soa;
    let native = per_loop_rows();
    let (nx, ny) = (12, 8);
    let (ref_air, ref_air_hist, _) = run_airfoil(Backend::Seq, nx, ny);
    let (ref_vol, ref_vol_hist, _) = run_volna(Backend::Seq, nx, ny);
    for backend in Backend::all() {
        // airfoil
        {
            let pool = ExecPool::new(TEAM);
            let cache = PlanCache::new();
            let mut sim = airfoil::Airfoil::<f64>::new(nx, ny);
            sim.set_layout(layout);
            let storage = sim.q.data.as_ptr();
            let hist: Vec<f64> = (0..ITERS)
                .map(|_| {
                    airfoil::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None)
                })
                .collect();
            if native.contains(&backend) {
                assert_eq!(sim.q.data.as_ptr(), storage, "{backend} converted q");
            }
            for (i, (&rms, &r)) in hist.iter().zip(&ref_air_hist).enumerate() {
                assert!(
                    (rms - r).abs() <= 1e-12 * (1.0 + r),
                    "{backend} airfoil {} iter {i}: rms {rms} vs {r}",
                    layout.name()
                );
            }
            assert_eq!(sim.layout(), layout, "{backend} must restore the layout");
            let d = sim.q.max_abs_diff(&ref_air.q);
            assert!(
                d <= 1e-12,
                "{backend} airfoil {}: max |Δq| = {d:e} > 1e-12",
                layout.name()
            );
        }
        // volna
        {
            let pool = ExecPool::new(TEAM);
            let cache = PlanCache::new();
            let mut sim = volna::Volna::<f64>::new(nx, ny);
            sim.set_layout(layout);
            let storage = sim.w.data.as_ptr();
            let hist: Vec<f64> = (0..ITERS)
                .map(|_| volna::drivers::step_on(backend, &mut sim, &pool, &cache, 0, BLOCK, None))
                .collect();
            if native.contains(&backend) {
                assert_eq!(sim.w.data.as_ptr(), storage, "{backend} converted w");
            }
            for (i, (&dt, &r)) in hist.iter().zip(&ref_vol_hist).enumerate() {
                assert!(
                    (dt - r).abs() <= 1e-12 * r,
                    "{backend} volna {} iter {i}: dt {dt} vs {r}",
                    layout.name()
                );
            }
            assert_eq!(sim.layout(), layout, "{backend} must restore the layout");
            let d = sim.w.max_abs_diff(&ref_vol.w);
            assert!(
                d <= 1e-12,
                "{backend} volna {}: max |Δw| = {d:e} > 1e-12",
                layout.name()
            );
        }
    }
}

/// Grouping is the only difference between a per-loop pool row and its
/// fused twin: same recording, same shape, same plans' blocks. So the
/// two must agree bit for bit — every dat, every returned reduction — in
/// every layout, while the per-loop row issues strictly more rounds.
#[test]
fn per_loop_pool_rows_bit_match_their_fused_twins() {
    fn bits(dats: &[&OpDat<f64>]) -> Vec<Vec<u64>> {
        let of = |d: &&OpDat<f64>| d.data.iter().map(|v| v.to_bits()).collect();
        dats.iter().map(of).collect()
    }
    let twins = [
        (Backend::Threaded, Backend::Fused),
        (Backend::Simt, Backend::FusedSimt),
        (
            Backend::SimdThreaded { lanes: 4 },
            Backend::FusedSimd { lanes: 4 },
        ),
        (
            Backend::SimdThreaded { lanes: 8 },
            Backend::FusedSimd { lanes: 8 },
        ),
    ];
    for layout in [Layout::Aos, Layout::Soa] {
        for (nx, ny) in MESHES {
            for (per_loop, fused) in twins {
                let what = format!("{per_loop} vs {fused} {nx}x{ny} {}", layout.name());
                let (a, a_hist, a_rounds) = run_airfoil_in(layout, per_loop, nx, ny);
                let (b, b_hist, b_rounds) = run_airfoil_in(layout, fused, nx, ny);
                assert_eq!(a_hist, b_hist, "airfoil rms: {what}");
                assert_eq!(
                    bits(&[&a.q, &a.qold, &a.adt, &a.res]),
                    bits(&[&b.q, &b.qold, &b.adt, &b.res]),
                    "airfoil dats: {what}"
                );
                assert!(a_rounds > b_rounds, "airfoil rounds: {what}");

                let (a, a_hist, a_rounds) = run_volna_in(layout, per_loop, nx, ny);
                let (b, b_hist, b_rounds) = run_volna_in(layout, fused, nx, ny);
                assert_eq!(a_hist, b_hist, "volna dt: {what}");
                assert_eq!(
                    bits(&[&a.w, &a.w_old, &a.w1, &a.res, &a.eflux]),
                    bits(&[&b.w, &b.w_old, &b.w1, &b.res, &b.eflux]),
                    "volna dats: {what}"
                );
                assert!(a_rounds > b_rounds, "volna rounds: {what}");
            }
        }
    }
}

/// The acceptance bound for the composition: fused-SIMD must issue no
/// more pool rounds per step than fused-threaded — the vectorization
/// rides the *same* union-write-set group plans, it must not cost
/// synchronization.
#[test]
fn fused_simd_issues_no_more_rounds_than_fused_threaded() {
    let rounds_of_airfoil = |backend: Backend| run_airfoil(backend, 60, 30).2;
    let rounds_of_volna = |backend: Backend| run_volna(backend, 60, 30).2;
    for lanes in [4usize, 8] {
        let fused_simd = Backend::FusedSimd { lanes };
        assert!(
            rounds_of_airfoil(fused_simd) <= rounds_of_airfoil(Backend::Fused),
            "airfoil fused_simd{lanes} issued more rounds than fused"
        );
        assert!(
            rounds_of_volna(fused_simd) <= rounds_of_volna(Backend::Fused),
            "volna fused_simd{lanes} issued more rounds than fused"
        );
    }
}

/// The panic message of `step(sim)`, which must panic before any loop
/// runs: every evolving dat is left as it was.
fn panic_before_any_loop<S: Simulation>(sim: &mut S, step: impl FnOnce(&mut S) -> f64) -> String {
    let before: Vec<OpDat<S::R>> = sim.evolving().into_iter().cloned().collect();
    let err = catch_unwind(AssertUnwindSafe(|| step(&mut *sim)))
        .expect_err("a step over dats in mixed layouts must panic");
    let after: Vec<OpDat<S::R>> = sim.evolving().into_iter().cloned().collect();
    assert!(before == after, "a loop ran before the panic");
    err.downcast::<String>()
        .map_or_else(|_| String::new(), |m| *m)
}

/// Every row that executes the recording in the caller's process, tiled
/// or not, runs it instantiated for the state's layout, whose accessors
/// do not look at each dat's own. A state whose dats disagree (one
/// converted alone) would therefore be indexed wrongly: the step must
/// panic instead, naming a dat stored otherwise, before any loop runs.
#[test]
fn a_step_over_dats_in_mixed_layouts_panics_naming_the_dat() {
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    let recording_rows = Backend::all()
        .into_iter()
        .filter(|b| !matches!(b, Backend::Seq));
    for backend in recording_rows {
        // the primary dat alone in SoA: the step dispatches SoA, and the
        // next evolving dat is still AoS
        let mut sim = volna::Volna::<f64>::new(12, 8);
        sim.w.set_layout(Layout::Soa);
        let msg = panic_before_any_loop(&mut sim, |sim| {
            volna::drivers::step_on(backend, sim, &pool, &cache, 0, BLOCK, None)
        });
        assert!(
            msg.contains("dat w_old is stored aos"),
            "{backend} volna w: {msg}"
        );
        // another evolving dat, and an input the recording reads, alone
        // in SoA: the step dispatches AoS
        for (dat, which) in [("res", 0), ("x", 1)] {
            let mut sim = airfoil::Airfoil::<f64>::new(12, 8);
            [&mut sim.res, &mut sim.x][which].set_layout(Layout::Soa);
            let msg = panic_before_any_loop(&mut sim, |sim| {
                airfoil::drivers::step_on(backend, sim, &pool, &cache, 0, BLOCK, None)
            });
            let want = format!("dat {dat} is stored soa");
            assert!(msg.contains(&want), "{backend} airfoil {dat}: {msg}");
        }
    }
}
