//! Concurrency stress tests for the persistent worker pool: one
//! `ExecPool` reused across hundreds of color rounds, across *different*
//! plans, across both applications, and across message-passing ranks
//! must always reproduce the sequential reference. Run under both the
//! default test harness and `RUST_TEST_THREADS=1` (the suite is
//! scheduling-sensitive by design; CI exercises both).

use ump::apps::airfoil::{drivers as airfoil_drivers, Airfoil};
use ump::apps::dist;
use ump::apps::volna::{drivers as volna_drivers, Volna};
use ump::color::{PlanInputs, TwoLevelPlan};
use ump::core::{Backend, ExecPool, PlanCache, SharedDat};
use ump::lazy::{ExchangePolicy, Shape};
use ump::mesh::generators::quad_channel;

const NX: usize = 24;
const NY: usize = 16;

/// ≥100 airfoil iterations through one reused pool, checked against the
/// sequential reference iteration by iteration (RMS) and at the end
/// (whole flow field).
#[test]
fn hundred_threaded_iterations_through_one_pool_match_sequential() {
    const ITERS: usize = 120;
    let pool = ExecPool::new(4);
    let cache = PlanCache::new();
    let mut reference = Airfoil::<f64>::new(NX, NY);
    let mut threaded = Airfoil::<f64>::new(NX, NY);
    for i in 0..ITERS {
        let r = airfoil_drivers::step_seq(&mut reference, None);
        let t =
            airfoil_drivers::step_on(Backend::Threaded, &mut threaded, &pool, &cache, 0, 32, None);
        assert!(
            (t - r).abs() < 1e-10 * (1.0 + r),
            "rms diverged at iter {i}: {t} vs {r}"
        );
    }
    let d = threaded.q.max_abs_diff(&reference.q);
    assert!(d < 1e-10, "flow field diverged after {ITERS} iters: {d:e}");
}

/// One pool serving two structurally different plans (the airfoil edge
/// plan, which needs coloring, and the trivially-parallel cell plan)
/// in strict alternation for many rounds: every pass must account for
/// every element exactly once, and the colored increment must stay
/// race-free.
#[test]
fn pool_reuse_across_edge_and_cell_plans_is_race_free() {
    let mesh = quad_channel(40, 30).mesh;
    let edge_inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], 64);
    let edge_plan = TwoLevelPlan::build(&edge_inputs);
    let cell_inputs = PlanInputs::new(mesh.n_cells(), vec![], 64);
    let cell_plan = TwoLevelPlan::build(&cell_inputs);

    let mut expected = vec![0.0f64; mesh.n_cells()];
    for e in 0..mesh.n_edges() {
        let c = mesh.edge2cell.row(e);
        expected[c[0] as usize] += 1.0;
        expected[c[1] as usize] += 1.0;
    }

    let pool = ExecPool::new(4);
    for round in 0..100 {
        // edge plan: two-sided colored increment
        let mut acc = vec![0.0f64; mesh.n_cells()];
        {
            let shared = SharedDat::new(&mut acc);
            pool.colored_blocks(&edge_plan, 0, |_b, range| {
                for e in range.start as usize..range.end as usize {
                    let c = mesh.edge2cell.row(e);
                    unsafe {
                        shared.slice_mut(c[0] as usize, 1)[0] += 1.0;
                        shared.slice_mut(c[1] as usize, 1)[0] += 1.0;
                    }
                }
            });
        }
        assert_eq!(acc, expected, "edge increment raced at round {round}");

        // cell plan: direct per-cell write
        let mut cells = vec![0u8; mesh.n_cells()];
        {
            let shared = SharedDat::new(&mut cells);
            pool.colored_blocks(&cell_plan, 0, |_b, range| {
                for c in range.start as usize..range.end as usize {
                    unsafe { shared.slice_mut(c, 1)[0] += 1 };
                }
            });
        }
        assert!(
            cells.iter().all(|&v| v == 1),
            "cell pass dropped/duplicated work at round {round}"
        );
    }
}

/// The same pool driving both applications back to back (airfoil's
/// edge/cell plans, then volna's three plans) — plans of different
/// meshes, block sizes and arities through one team.
#[test]
fn one_pool_serves_both_applications() {
    const STEPS: usize = 8;
    let pool = ExecPool::new(3);
    let cache = PlanCache::new();

    let mut a_ref = Airfoil::<f64>::new(NX, NY);
    let mut a_thr = Airfoil::<f64>::new(NX, NY);
    let mut v_ref = Volna::<f64>::new(20, 14);
    let mut v_thr = Volna::<f64>::new(20, 14);

    for step in 0..STEPS {
        let ar = airfoil_drivers::step_seq(&mut a_ref, None);
        let at =
            airfoil_drivers::step_on(Backend::Threaded, &mut a_thr, &pool, &cache, 0, 32, None);
        assert!((at - ar).abs() < 1e-10 * (1.0 + ar), "airfoil step {step}");
        let vr = volna_drivers::step_seq(&mut v_ref, None);
        let vt = volna_drivers::step_on(Backend::Threaded, &mut v_thr, &pool, &cache, 0, 32, None);
        assert!((vt - vr).abs() < 1e-12 * vr.max(1e-30), "volna step {step}");
    }
    assert!(a_thr.q.max_abs_diff(&a_ref.q) < 1e-11);
    assert!(v_thr.w.max_abs_diff(&v_ref.w) < 1e-11);
}

/// The volna MPI×threads hybrid (per-rank pools running the threaded
/// fused chain) must agree with the sequential reference.
#[test]
fn volna_mpi_threaded_matches_sequential() {
    const STEPS: usize = 6;
    let mut reference = Volna::<f64>::new(NX, NY);
    let mut hist = Vec::new();
    for _ in 0..STEPS {
        hist.push(volna_drivers::step_seq(&mut reference, None));
    }
    let (w, mpi_hist) = dist::run_mpi_fused::<Volna<f64>, 4>(
        &reference.case,
        2,
        2,
        32,
        STEPS,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    for (i, (&a, &b)) in mpi_hist.iter().zip(&hist).enumerate() {
        assert!(
            (a - b).abs() < 1e-12 * b.max(1e-30),
            "dt diverged at step {i}: {a} vs {b}"
        );
    }
    let d = w.max_abs_diff(&reference.w);
    assert!(d < 1e-11, "mpi-threaded flow diverged: {d:e}");
}

/// Dropping pools and creating fresh ones repeatedly must neither leak
/// work nor deadlock (each drop parks, wakes and joins the team).
#[test]
fn pool_lifecycle_churn() {
    let mesh = quad_channel(16, 10).mesh;
    let inputs = PlanInputs::new(mesh.n_edges(), vec![&mesh.edge2cell], 32);
    let plan = TwoLevelPlan::build(&inputs);
    for _ in 0..20 {
        let pool = ExecPool::new(3);
        let mut acc = vec![0.0f64; mesh.n_cells()];
        {
            let shared = SharedDat::new(&mut acc);
            pool.colored_blocks(&plan, 0, |_b, range| {
                for e in range.start as usize..range.end as usize {
                    let c = mesh.edge2cell.row(e);
                    unsafe {
                        shared.slice_mut(c[0] as usize, 1)[0] += 1.0;
                        shared.slice_mut(c[1] as usize, 1)[0] += 1.0;
                    }
                }
            });
        }
        let total: f64 = acc.iter().sum();
        assert_eq!(total, 2.0 * mesh.n_edges() as f64);
    }
}

/// A panicking kernel body must surface as a typed [`PoolPanic`] with
/// the worker's message, and the pool must stay fully reusable — the
/// property the service workers rely on to fail one job and keep
/// serving the rest.
#[test]
fn worker_panic_is_contained_and_pool_stays_reusable() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let pool = ExecPool::new(4);
    for round in 0..10 {
        let err = pool
            .try_run_round(64, 0, 4, &|i| {
                if i == 17 {
                    panic!("boom in round {round}");
                }
            })
            .unwrap_err();
        assert!(
            err.message.contains("boom in round"),
            "panic note lost: {}",
            err.message
        );
        // a healthy round immediately after: every item accounted for
        let count = AtomicUsize::new(0);
        pool.try_run_round(128, 0, 8, &|_i| {
            count.fetch_add(1, Ordering::Relaxed);
        })
        .expect("pool must be reusable after a contained panic");
        assert_eq!(count.load(Ordering::Relaxed), 128);
    }
}

/// An armed `PanicRound` fault fires inside exactly the chosen pool
/// round (on whichever thread pulls the first chunk), is contained as a
/// typed error, and disarming restores the clean path.
#[test]
fn injected_round_panic_is_deterministic_and_contained() {
    use std::sync::Arc;
    use ump::fault::FaultPlan;
    let pool = ExecPool::new(3);
    for _ in 0..3 {
        pool.run_round(16, 0, 4, &|_| {});
    }
    let target = pool.dispatch_rounds() + 2;
    let inj = Arc::new(FaultPlan::new().with_panic_round(target).injector());
    pool.arm_fault(inj.clone());
    let mut failed_at = None;
    for _ in 0..5 {
        let round = pool.dispatch_rounds();
        if let Err(e) = pool.try_run_round(32, 0, 4, &|_| {}) {
            assert!(e.message.contains("injected fault"), "{}", e.message);
            assert!(failed_at.is_none(), "fault fired twice");
            failed_at = Some(round);
        }
    }
    assert_eq!(failed_at, Some(target), "fault fired at the wrong round");
    assert_eq!(inj.injected(), 1);
    pool.disarm_fault();
    pool.run_round(64, 0, 8, &|_| {});
}
