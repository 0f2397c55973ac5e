//! Conformance for auto selection (ISSUE 8 satellite): the tuner's
//! pick is always a registered `Backend`, stepping with it matches the
//! sequential reference to ≤ 1e-12 on both apps, and a second identical
//! tune call is a pure store hit with zero trials.

use ump_core::{Backend, ExecPool, PlanCache};
use ump_tune::{step_auto_on, App, HostProbe, Tuner};

const STEPS: usize = 3;

fn fast_tuner() -> Tuner {
    // fixed probe: deterministic machine model, no live bandwidth
    // measurement; small top_k keeps the trial budget test-sized
    Tuner::with_probe(HostProbe::fixed(4, 16.0))
        .with_top_k(3)
        .with_trial_steps(1)
        .with_team(2)
}

#[test]
fn airfoil_auto_pick_is_registered_and_matches_seq() {
    let tuner = fast_tuner();
    let (nx, ny) = (24, 12);
    let c = tuner.pick(App::Airfoil, nx, ny);
    assert!(
        Backend::all().contains(&c.backend),
        "tuner invented backend {:?}",
        c.backend
    );

    let pool = ExecPool::new(2);
    let cache = PlanCache::new();
    let mut auto = ump_apps::airfoil::Airfoil::<f64>::seeded(nx, ny, 0);
    let mut seq = ump_apps::airfoil::Airfoil::<f64>::seeded(nx, ny, 0);
    for step in 0..STEPS {
        let a = step_auto_on(&tuner, &mut auto, nx, ny, &pool, &cache, None);
        let s = ump_apps::airfoil::drivers::step_seq(&mut seq, None);
        assert!(
            (a - s).abs() <= 1e-12,
            "step {step}: auto ({}) rms {a} vs seq rms {s}",
            c.backend.name()
        );
    }
}

#[test]
fn volna_auto_pick_is_registered_and_matches_seq() {
    let tuner = fast_tuner();
    let (nx, ny) = (20, 14);
    let c = tuner.pick(App::Volna, nx, ny);
    assert!(Backend::all().contains(&c.backend));

    let pool = ExecPool::new(2);
    let cache = PlanCache::new();
    let mut auto = ump_apps::volna::Volna::<f64>::seeded(nx, ny, 0);
    let mut seq = ump_apps::volna::Volna::<f64>::seeded(nx, ny, 0);
    for step in 0..STEPS {
        let a = step_auto_on(&tuner, &mut auto, nx, ny, &pool, &cache, None);
        let s = ump_apps::volna::drivers::step_seq(&mut seq, None);
        assert!(
            (a - s).abs() <= 1e-12,
            "step {step}: auto ({}) dt {a} vs seq dt {s}",
            c.backend.name()
        );
    }
}

#[test]
fn second_identical_tune_is_a_pure_store_hit() {
    let tuner = fast_tuner();
    for (app, nx, ny) in [(App::Airfoil, 16, 10), (App::Volna, 14, 10)] {
        let cold = tuner.pick(app, nx, ny);
        assert!(!cold.from_store && cold.trials > 0, "{app}: cold pick");
        let warm = tuner.pick(app, nx, ny);
        assert!(warm.from_store, "{app}: second pick missed the store");
        assert_eq!(warm.trials, 0, "{app}: warm pick ran trials");
        assert_eq!(warm.backend, cold.backend);
        assert_eq!(warm.block_size, cold.block_size);
    }
    let stats = tuner.stats();
    assert_eq!(stats.picks, 4);
    assert_eq!(stats.store_hits, 2);
    assert_eq!(stats.store_misses, 2);
}

#[test]
fn trial_measurements_collect_per_kernel_loopstats() {
    // the tuner's GB/s figure comes from per-kernel LoopStats sums —
    // nonzero means instrumentation flowed through whatever shape won,
    // including the fused paths (per-member attribution)
    let tuner = fast_tuner();
    let c = tuner.pick(App::Airfoil, 16, 10);
    assert!(
        c.gb_per_s > 0.0,
        "winner {} reported no per-kernel bandwidth",
        c.backend.name()
    );
}
