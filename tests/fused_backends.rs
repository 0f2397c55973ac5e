//! Integration: the `ump_lazy` fused backend must compute the same
//! physics as the sequential reference on both applications, in both
//! execution shapes, while issuing strictly fewer `ExecPool` dispatch
//! rounds than the unfused threaded drivers — the two claims the fusion
//! runtime exists for.

use ump_apps::{airfoil, volna};
use ump_core::{Backend, ExecPool, PlanCache, Recorder};
use ump_lazy::{Fusion, Shape};

const NX: usize = 24;
const NY: usize = 16;
const ITERS: usize = 5;

const SIMT: Shape = Shape::Simt {
    width: 8,
    sched_overhead_ns: 0,
};

#[test]
fn fused_airfoil_matches_sequential_within_1e12() {
    let mut reference = airfoil::Airfoil::<f64>::new(NX, NY);
    let ref_hist: Vec<f64> = (0..ITERS)
        .map(|_| airfoil::drivers::step_seq(&mut reference, None))
        .collect();

    for shape in [Shape::Threaded, SIMT] {
        let pool = ExecPool::new(4);
        let cache = PlanCache::new();
        let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
        for (i, &r) in ref_hist.iter().enumerate() {
            let rms = airfoil::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                shape,
                Fusion::Groups,
                0,
                32,
                None,
            );
            assert!(
                (rms - r).abs() < 1e-12 * (1.0 + r),
                "{shape:?} iter {i}: rms {rms} vs {r}"
            );
        }
        let d = sim.q.max_abs_diff(&reference.q);
        assert!(d <= 1e-12, "{shape:?}: max |Δq| = {d:e} > 1e-12");
    }
}

#[test]
fn fused_volna_matches_sequential_within_1e12() {
    let mut reference = volna::Volna::<f64>::new(NX, NY);
    let ref_hist: Vec<f64> = (0..ITERS)
        .map(|_| volna::drivers::step_seq(&mut reference, None))
        .collect();

    for shape in [Shape::Threaded, SIMT] {
        let pool = ExecPool::new(4);
        let cache = PlanCache::new();
        let mut sim = volna::Volna::<f64>::new(NX, NY);
        for (i, &r) in ref_hist.iter().enumerate() {
            let dt = volna::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                shape,
                Fusion::Groups,
                0,
                32,
                None,
            );
            // the Δt reduction is an exact min of its inputs; the inputs
            // themselves carry ULP-level reassociation differences
            assert!(
                (dt - r).abs() <= 1e-12 * r,
                "{shape:?} iter {i}: {dt} vs {r}"
            );
        }
        let d = sim.w.max_abs_diff(&reference.w);
        assert!(d <= 1e-12, "{shape:?}: max |Δw| = {d:e} > 1e-12");
        assert!(sim.w.all_finite());
    }
}

/// The headline claim: a fused Airfoil timestep issues strictly fewer
/// pool dispatch rounds than the `threaded` backend, and the instrumentation
/// counters agree with the pool's own round counter.
#[test]
fn fused_airfoil_issues_strictly_fewer_dispatch_rounds() {
    let pool = ExecPool::new(4);
    let cache = PlanCache::new();
    let block_size = 32;

    let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
    // warm the plan cache so both measurements dispatch identically
    airfoil::drivers::step_on(
        Backend::Threaded,
        &mut sim,
        &pool,
        &cache,
        0,
        block_size,
        None,
    );
    airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        block_size,
        None,
    );

    let r0 = pool.dispatch_rounds();
    airfoil::drivers::step_on(
        Backend::Threaded,
        &mut sim,
        &pool,
        &cache,
        0,
        block_size,
        None,
    );
    let threaded_rounds = pool.dispatch_rounds() - r0;

    let rec = Recorder::new();
    let r1 = pool.dispatch_rounds();
    airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        block_size,
        Some(&rec),
    );
    let fused_rounds = pool.dispatch_rounds() - r1;

    assert!(
        fused_rounds < threaded_rounds,
        "fused step must issue strictly fewer rounds: fused {fused_rounds} vs threaded {threaded_rounds}"
    );

    let stats = rec.fusion("airfoil_step").expect("chain stats recorded");
    assert_eq!(stats.fused_rounds as u64, fused_rounds, "counter mismatch");
    assert_eq!(
        stats.unfused_rounds as u64, threaded_rounds,
        "baseline mismatch"
    );
    assert!(stats.rounds_saved() >= 2, "airfoil fuses two cell pairs");
    assert!(
        stats.bytes_saved > 0.0,
        "fusion must save re-streamed bytes"
    );
    assert_eq!(stats.loops, 9);
}

/// Same for Volna, whose edge-loop triple fuses: three rounds saved
/// (compute_flux+numerical_flux+space_disc collapse to one dispatch in
/// phase 0, compute_flux+space_disc in phase 1).
#[test]
fn fused_volna_issues_strictly_fewer_dispatch_rounds() {
    let pool = ExecPool::new(4);
    let cache = PlanCache::new();
    let block_size = 32;

    let mut sim = volna::Volna::<f64>::new(NX, NY);
    volna::drivers::step_on(
        Backend::Threaded,
        &mut sim,
        &pool,
        &cache,
        0,
        block_size,
        None,
    );
    volna::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        block_size,
        None,
    );

    let r0 = pool.dispatch_rounds();
    volna::drivers::step_on(
        Backend::Threaded,
        &mut sim,
        &pool,
        &cache,
        0,
        block_size,
        None,
    );
    let threaded_rounds = pool.dispatch_rounds() - r0;

    let rec = Recorder::new();
    let r1 = pool.dispatch_rounds();
    volna::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        block_size,
        Some(&rec),
    );
    let fused_rounds = pool.dispatch_rounds() - r1;

    assert!(
        fused_rounds < threaded_rounds,
        "fused {fused_rounds} vs threaded {threaded_rounds}"
    );
    let stats = rec.fusion("volna_step").unwrap();
    assert_eq!(stats.rounds_saved(), 3, "cf+nf+sd and cf+sd fusions");
}

/// The SIMT-fused path must feed the same `Recorder` fusion counters as
/// the threaded-fused path: per-chain rounds saved, a fused-rounds count
/// that agrees with the pool's own dispatch counter, and a non-zero
/// bytes-not-re-streamed estimate. (Before this test the SIMT shape's
/// stats were produced but never asserted anywhere.)
#[test]
fn simt_fused_records_fusion_stats_matching_pool_counter() {
    let pool = ExecPool::new(4);
    let cache = PlanCache::new();

    // airfoil
    let rec = Recorder::new();
    let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
    let r0 = pool.dispatch_rounds();
    airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        SIMT,
        Fusion::Groups,
        0,
        32,
        Some(&rec),
    );
    let simt_rounds = pool.dispatch_rounds() - r0;
    let stats = rec.fusion("airfoil_step").expect("SIMT-fused chain stats");
    assert_eq!(stats.fused_rounds as u64, simt_rounds, "counter mismatch");
    assert!(stats.rounds_saved() >= 2, "airfoil fuses two cell pairs");
    assert!(stats.bytes_saved > 0.0);
    assert_eq!(stats.loops, 9);

    // volna: the edge-triple + edge-pair fusions save 3 rounds under
    // SIMT exactly as under threading (same group plans)
    let rec = Recorder::new();
    let mut sim = volna::Volna::<f64>::new(NX, NY);
    let r0 = pool.dispatch_rounds();
    volna::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        SIMT,
        Fusion::Groups,
        0,
        32,
        Some(&rec),
    );
    let simt_rounds = pool.dispatch_rounds() - r0;
    let stats = rec.fusion("volna_step").expect("SIMT-fused chain stats");
    assert_eq!(stats.fused_rounds as u64, simt_rounds, "counter mismatch");
    assert_eq!(stats.rounds_saved(), 3, "cf+nf+sd and cf+sd fusions");
    assert!(stats.bytes_saved > 0.0);
}

/// The fused-SIMD backend: matches the sequential reference at L = 4
/// and L = 8 on both apps, records the same fusion counters (it shares
/// the fused plans), and issues no more pool rounds per step than the
/// fused threaded shape.
#[test]
fn fused_simd_matches_sequential_and_saves_the_same_rounds() {
    let mut airfoil_ref = airfoil::Airfoil::<f64>::new(NX, NY);
    let air_hist: Vec<f64> = (0..ITERS)
        .map(|_| airfoil::drivers::step_seq(&mut airfoil_ref, None))
        .collect();
    let mut volna_ref = volna::Volna::<f64>::new(NX, NY);
    let volna_hist: Vec<f64> = (0..ITERS)
        .map(|_| volna::drivers::step_seq(&mut volna_ref, None))
        .collect();

    let pool = ExecPool::new(4);
    let cache = PlanCache::new();

    // baseline: fused threaded rounds per step (plans warmed first)
    let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
    airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        32,
        None,
    );
    let r0 = pool.dispatch_rounds();
    airfoil::drivers::step_chain::<_, 4>(
        &pool,
        &mut sim,
        &cache,
        Shape::Threaded,
        Fusion::Groups,
        0,
        32,
        None,
    );
    let fused_threaded_rounds = pool.dispatch_rounds() - r0;

    fn check_airfoil<const L: usize>(
        pool: &ExecPool,
        cache: &PlanCache,
        reference: &airfoil::Airfoil<f64>,
        hist: &[f64],
        fused_threaded_rounds: u64,
    ) {
        let rec = Recorder::new();
        let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
        let r0 = pool.dispatch_rounds();
        for (i, &r) in hist.iter().enumerate() {
            let rms = airfoil::drivers::step_chain::<f64, L>(
                pool,
                &mut sim,
                cache,
                Shape::Simd { lanes: L },
                Fusion::Groups,
                0,
                32,
                Some(&rec),
            );
            assert!(
                (rms - r).abs() < 1e-12 * (1.0 + r),
                "L={L} iter {i}: rms {rms} vs {r}"
            );
        }
        let rounds_per_step = (pool.dispatch_rounds() - r0) / hist.len() as u64;
        let d = sim.q.max_abs_diff(&reference.q);
        assert!(d <= 1e-12, "L={L}: max |Δq| = {d:e}");
        assert!(
            rounds_per_step <= fused_threaded_rounds,
            "L={L}: fused-SIMD issued {rounds_per_step} rounds/step vs fused-threaded {fused_threaded_rounds}"
        );
        let stats = rec.fusion("airfoil_step").expect("fused-SIMD chain stats");
        assert_eq!(stats.executions, hist.len());
        assert_eq!(
            stats.fused_rounds as u64,
            rounds_per_step * hist.len() as u64,
            "L={L}: recorder disagrees with pool counter"
        );
        assert!(stats.rounds_saved() >= 2 * hist.len());
        assert!(stats.bytes_saved > 0.0);
    }
    check_airfoil::<4>(
        &pool,
        &cache,
        &airfoil_ref,
        &air_hist,
        fused_threaded_rounds,
    );
    check_airfoil::<8>(
        &pool,
        &cache,
        &airfoil_ref,
        &air_hist,
        fused_threaded_rounds,
    );

    // volna at both widths
    fn check_volna<const L: usize>(
        pool: &ExecPool,
        cache: &PlanCache,
        reference: &volna::Volna<f64>,
        hist: &[f64],
    ) {
        let rec = Recorder::new();
        let mut sim = volna::Volna::<f64>::new(NX, NY);
        for (i, &r) in hist.iter().enumerate() {
            let dt = volna::drivers::step_chain::<f64, L>(
                pool,
                &mut sim,
                cache,
                Shape::Simd { lanes: L },
                Fusion::Groups,
                0,
                32,
                Some(&rec),
            );
            assert!((dt - r).abs() <= 1e-12 * r, "L={L} iter {i}: {dt} vs {r}");
        }
        let d = sim.w.max_abs_diff(&reference.w);
        assert!(d <= 1e-12, "L={L}: max |Δw| = {d:e}");
        let stats = rec.fusion("volna_step").expect("fused-SIMD chain stats");
        assert_eq!(stats.rounds_saved(), 3 * hist.len());
    }
    check_volna::<4>(&pool, &cache, &volna_ref, &volna_hist);
    check_volna::<8>(&pool, &cache, &volna_ref, &volna_hist);
}

/// Fused execution under an explicit small team and tight block size
/// still matches — exercises multi-color fused dispatch heavily.
#[test]
fn fused_is_robust_across_block_sizes_and_teams() {
    let mut reference = airfoil::Airfoil::<f64>::new(NX, NY);
    for _ in 0..3 {
        airfoil::drivers::step_seq(&mut reference, None);
    }
    for (team, bs) in [(1usize, 16usize), (2, 64), (3, 1024)] {
        let pool = ExecPool::new(team);
        let cache = PlanCache::new();
        let mut sim = airfoil::Airfoil::<f64>::new(NX, NY);
        for _ in 0..3 {
            airfoil::drivers::step_chain::<_, 4>(
                &pool,
                &mut sim,
                &cache,
                Shape::Threaded,
                Fusion::Groups,
                0,
                bs,
                None,
            );
        }
        let d = sim.q.max_abs_diff(&reference.q);
        assert!(d <= 1e-12, "team {team} block {bs}: {d:e}");
    }
}

/// A lane count the recorded chunk bodies were not compiled for is
/// refused on the calling thread, before any loop runs — not by a pool
/// worker halfway through a color round.
#[test]
#[should_panic(expected = "shape sweeps 8 lanes, the recorded chunk bodies are 4 wide")]
fn lane_mismatch_fails_before_any_loop_runs() {
    let (pool, cache) = (ExecPool::new(2), PlanCache::new());
    let mut sim = volna::Volna::<f64>::new(NX, NY);
    let wide = Shape::Simd { lanes: 8 };
    volna::drivers::step_chain::<f64, 4>(
        &pool,
        &mut sim,
        &cache,
        wide,
        Fusion::PerLoop,
        0,
        32,
        None,
    );
}
