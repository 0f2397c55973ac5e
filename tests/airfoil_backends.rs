//! Integration: every Airfoil backend must compute the same physics as
//! the sequential reference, and the physics itself must be stable
//! (finite, residual-decreasing after the initial transient) — the
//! correctness bar behind every performance number in the paper.

use ump::lazy::{ExchangePolicy, Shape};
use ump_apps::airfoil::{drivers, Airfoil};
use ump_apps::dist;
use ump_color::{BlockPermutePlan, FullPermutePlan, PlanInputs};
use ump_core::{Backend, ExecPool, OpDat, PlanCache, Recorder};
use ump_mesh::renumber::reorder_edges;

const NX: usize = 24;
const NY: usize = 16;
const ITERS: usize = 5;

fn reference() -> (Airfoil<f64>, Vec<f64>) {
    let mut sim = Airfoil::<f64>::new(NX, NY);
    let hist: Vec<f64> = (0..ITERS)
        .map(|_| drivers::step_seq(&mut sim, None))
        .collect();
    (sim, hist)
}

/// One iteration through a registered backend on `pool`, block size 32.
fn step(backend: Backend, sim: &mut Airfoil<f64>, pool: &ExecPool, cache: &PlanCache) -> f64 {
    drivers::step_on(backend, sim, pool, cache, 0, 32, None)
}

fn assert_q_close(a: &OpDat<f64>, b: &OpDat<f64>, tol: f64, what: &str) {
    let d = a.max_abs_diff(b);
    assert!(d <= tol, "{what}: max |Δq| = {d:e} > {tol:e}");
}

#[test]
fn sequential_physics_is_stable_and_convergent() {
    let mut sim = Airfoil::<f64>::new(32, 20);
    let mut hist = Vec::new();
    for _ in 0..60 {
        hist.push(drivers::step_seq(&mut sim, None));
    }
    assert!(sim.q.all_finite(), "NaN/Inf in flow state");
    assert!(hist.iter().all(|r| r.is_finite() && *r >= 0.0));
    // residual decays from the initial impulsive start
    let early: f64 = hist[..10].iter().sum();
    let late: f64 = hist[50..].iter().sum();
    assert!(
        late < early * 0.5,
        "residual should decay: early {early:e}, late {late:e}"
    );
}

#[test]
fn threaded_matches_sequential() {
    let (ref_sim, ref_hist) = reference();
    let mut sim = Airfoil::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(4), PlanCache::new());
    for (i, &r) in ref_hist.iter().enumerate() {
        let rms = step(Backend::Threaded, &mut sim, &pool, &cache);
        assert!((rms - r).abs() < 1e-10 * (1.0 + r), "iter {i}");
    }
    assert_q_close(&sim.q, &ref_sim.q, 1e-11, "threaded");
}

#[test]
fn simd_matches_sequential() {
    let (ref_sim, ref_hist) = reference();
    let mut sim = Airfoil::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    for (i, &r) in ref_hist.iter().enumerate() {
        let rms = step(Backend::Simd { lanes: 4 }, &mut sim, &pool, &cache);
        assert!((rms - r).abs() < 1e-10 * (1.0 + r), "iter {i}");
    }
    assert_q_close(&sim.q, &ref_sim.q, 1e-11, "simd L=4");
}

#[test]
fn simd_lane_width_is_semantically_transparent() {
    // AVX shape vs AVX-512 shape must agree (bar reassociation in rms)
    let mut a = Airfoil::<f64>::new(NX, NY);
    let mut b = Airfoil::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    for _ in 0..ITERS {
        step(Backend::Simd { lanes: 4 }, &mut a, &pool, &cache);
        step(Backend::Simd { lanes: 8 }, &mut b, &pool, &cache);
    }
    assert_q_close(&a.q, &b.q, 1e-11, "L=4 vs L=8");
}

#[test]
fn simd_threaded_matches_sequential() {
    let (ref_sim, _) = reference();
    let mut sim = Airfoil::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(4), PlanCache::new());
    for _ in 0..ITERS {
        step(Backend::SimdThreaded { lanes: 4 }, &mut sim, &pool, &cache);
    }
    assert_q_close(&sim.q, &ref_sim.q, 1e-11, "simd+threads");
}

#[test]
fn simt_emulation_matches_sequential() {
    let (ref_sim, _) = reference();
    let mut sim = Airfoil::<f64>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(2), PlanCache::new());
    for _ in 0..ITERS {
        step(Backend::Simt, &mut sim, &pool, &cache);
    }
    assert_q_close(&sim.q, &ref_sim.q, 1e-11, "simt");
}

/// Fig. 8a's permute schemes are edge orders: the edges grouped by color
/// over the whole set (full permute) or inside each block of 64 (block
/// permute, blocks in block-color order). Any edge order computes the
/// same physics, so `simd4` on either matches the canonical reference.
#[test]
fn permuted_edge_orders_match_sequential() {
    let (ref_sim, _) = reference();
    let base = Airfoil::<f64>::new(NX, NY).case.mesh;
    let inputs = PlanInputs::new(base.n_edges(), vec![&base.edge2cell], 64);
    let full = FullPermutePlan::build(&inputs).perm;
    let plan = BlockPermutePlan::build(&inputs);
    let block: Vec<u32> = (plan.blocks_by_color.iter().flatten())
        .flat_map(|&b| {
            let r = plan.blocks[b as usize].clone();
            plan.perm[r.start as usize..r.end as usize].iter().copied()
        })
        .collect();
    for (name, order) in [("full permute", full), ("block permute", block)] {
        let mut sim = Airfoil::<f64>::new(NX, NY);
        reorder_edges(&mut sim.case.mesh, &order);
        assert!(
            sim.case.mesh.edge2cell.data != base.edge2cell.data,
            "{name}: no reorder"
        );
        let (pool, cache) = (ExecPool::new(1), PlanCache::new());
        for _ in 0..ITERS {
            drivers::step_on(
                Backend::Simd { lanes: 4 },
                &mut sim,
                &pool,
                &cache,
                0,
                64,
                None,
            );
        }
        assert_q_close(&sim.q, &ref_sim.q, 1e-11, name);
    }
}

#[test]
fn mpi_backend_matches_sequential() {
    let (ref_sim, ref_hist) = reference();
    let case = ref_sim.case.clone();
    for ranks in [2usize, 3, 4] {
        let (q, hist) = dist::run_mpi_fused::<Airfoil<f64>, 4>(
            &case,
            ranks,
            1,
            64,
            ITERS,
            Shape::Threaded,
            ExchangePolicy::Overlap,
        );
        assert_q_close(&q, &ref_sim.q, 1e-11, &format!("mpi ranks={ranks}"));
        for (i, (&a, &b)) in hist.iter().zip(&ref_hist).enumerate() {
            assert!(
                (a - b).abs() < 1e-10 * (1.0 + b),
                "rms history diverges at iter {i}: {a} vs {b} (ranks {ranks})"
            );
        }
    }
}

#[test]
fn hybrid_ranks_threads_simd_matches_sequential() {
    // the paper's winning Phi configuration: MPI ranks × OpenMP threads
    // × vector intrinsics, all at once
    let (ref_sim, ref_hist) = reference();
    let (q, hist) = dist::run_mpi_fused::<Airfoil<f64>, 4>(
        &ref_sim.case,
        2,
        2,
        64,
        ITERS,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Overlap,
    );
    assert_q_close(
        &q,
        &ref_sim.q,
        1e-11,
        "hybrid 2 ranks x 2 threads x 4 lanes",
    );
    for (i, (&a, &b)) in hist.iter().zip(&ref_hist).enumerate() {
        assert!((a - b).abs() < 1e-10 * (1.0 + b), "iter {i}: {a} vs {b}");
    }
}

#[test]
fn single_precision_tracks_double_precision() {
    let mut dp = Airfoil::<f64>::new(NX, NY);
    let mut sp = Airfoil::<f32>::new(NX, NY);
    let mut last = (0.0, 0.0);
    for _ in 0..ITERS {
        last = (
            drivers::step_seq(&mut dp, None),
            drivers::step_seq(&mut sp, None),
        );
    }
    assert!(sp.q.all_finite());
    let rel = (last.0 - last.1).abs() / last.0.max(1e-30);
    assert!(
        rel < 1e-3,
        "SP rms {} vs DP rms {} (rel {rel})",
        last.1,
        last.0
    );
}

#[test]
fn simd_single_precision_matches_scalar_single_precision() {
    let mut a = Airfoil::<f32>::new(NX, NY);
    let mut b = Airfoil::<f32>::new(NX, NY);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    for _ in 0..ITERS {
        drivers::step_seq(&mut a, None);
        drivers::step_on(
            Backend::Simd { lanes: 8 },
            &mut b,
            &pool,
            &cache,
            0,
            32,
            None,
        );
    }
    let d = a.q.max_abs_diff(&b.q);
    assert!(d < 1e-3, "f32 simd diverged from f32 scalar: {d}");
}

/// The vector bodies must not lose to the scalar ones they replace: on
/// one thread, from the same 300×150 AoS state, a `simd4` step takes at
/// most 1.25 × a `seq` step (measured ≈ 0.7–0.9). A ratio of interleaved
/// steps of one process, so the speed of the host cancels; what moves it
/// is the code — an out-of-line closure per component in a chunk body
/// measured 2.05. Timing test: run in release, `-- --ignored`.
#[test]
#[ignore = "timing: the simd CI job runs it in release"]
fn simd4_step_is_not_slower_than_seq() {
    use std::time::Instant;
    let base = Airfoil::<f64>::seeded(300, 150, 1);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    let rows = [Backend::Seq, Backend::Simd { lanes: 4 }];
    let mut sims = [base.clone(), base];
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..16 {
        for (k, &row) in rows.iter().enumerate() {
            let t = Instant::now();
            drivers::step_on(row, &mut sims[k], &pool, &cache, 1, 1024, None);
            // the first round builds the plans
            if i > 0 {
                times[k].push(t.elapsed().as_secs_f64());
            }
        }
    }
    let [seq, simd] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    assert!(
        simd <= 1.25 * seq,
        "simd4 {:.2} ms vs seq {:.2} ms per step: ratio {:.2} > 1.25",
        simd * 1e3,
        seq * 1e3,
        simd / seq
    );
}

/// The paper's indirect-increment loop (`res_calc`, Fig. 3b) must beat
/// its scalar form on one core: on one thread, from the same 600×300 AoS
/// state, `simd4`'s `res_calc` takes at most 0.75 × `seq`'s (measured
/// 0.64 with cell-major edges; 0.88 with edges chained across grid
/// rows). Median of the per-step `Recorder` times over 16 interleaved
/// steps after the plan-building one. Timing test: run in release,
/// `-- --ignored`.
#[test]
#[ignore = "timing: the simd CI job runs it in release"]
fn simd4_res_calc_beats_seq_per_core() {
    let base = Airfoil::<f64>::seeded(600, 300, 1);
    let (pool, cache) = (ExecPool::new(1), PlanCache::new());
    let rows = [Backend::Seq, Backend::Simd { lanes: 4 }];
    let mut sims = [base.clone(), base];
    let mut times = [Vec::new(), Vec::new()];
    for i in 0..17 {
        for (k, &row) in rows.iter().enumerate() {
            let rec = Recorder::new();
            drivers::step_on(row, &mut sims[k], &pool, &cache, 1, 1024, Some(&rec));
            if i > 0 {
                times[k].push(rec.get("res_calc").expect("res_calc is timed").seconds);
            }
        }
    }
    let [seq, simd] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    assert!(
        simd <= 0.75 * seq,
        "simd4 res_calc {:.2} ms vs seq {:.2} ms per step: ratio {:.2} > 0.75",
        simd * 1e3,
        seq * 1e3,
        simd / seq
    );
}
