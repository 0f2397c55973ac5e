//! Fault-tolerant distributed execution: the golden guarantee.
//!
//! Under any injected [`FaultPlan`] — a rank killed at a chosen step, a
//! halo packet dropped, delayed past the deadline, or duplicated — the
//! recovered `run_mpi_fused` run must produce reductions and final state
//! **bit-identical** to the fault-free run, and must finish within a
//! bounded wall time (typed exchange timeouts + coordinated rollback,
//! never a hang). The sweep covers kill points × rank counts × both
//! applications, plus the threaded and SIMD shapes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ump::fault::FaultPlan;
use ump::lazy::{ExchangePolicy, Shape};
use ump_apps::{airfoil, dist, volna};

const BLOCK: usize = 48;
const TEAM: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_millis(300);

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The checkpoint a kill at step `k` rolls back to, at cadence `every`:
/// the last cadence boundary passed *healthy* (the boundary at `k`
/// itself is never reached — the health vote fires first).
fn expected_ckpt(k: usize, every: usize) -> usize {
    (k.saturating_sub(1) / every) * every
}

#[test]
fn resilient_run_without_faults_is_plain_run() {
    let acase = airfoil::Airfoil::<f64>::new(24, 12).case;
    let (q0, h0) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &acase,
        2,
        TEAM,
        BLOCK,
        6,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    let (q1, h1, report) = dist::run_mpi_fused_resilient::<airfoil::Airfoil<f64>, 4>(
        &acase,
        2,
        TEAM,
        BLOCK,
        6,
        Shape::Threaded,
        ExchangePolicy::Overlap,
        2,
        None,
        IO_TIMEOUT,
    );
    assert!(bits_eq(&q0.data, &q1.data), "state diverged with no faults");
    assert!(bits_eq(&h0, &h1), "history diverged with no faults");
    assert_eq!(report.recoveries, 0);
    assert_eq!(report.replayed_steps, 0);
    assert_eq!(report.exchange_timeouts, 0);
}

/// The kill sweep: rank deaths at early/middle/late steps, at 2 and 4
/// ranks, recover bit-identically on Airfoil.
#[test]
fn airfoil_rank_kill_recovers_bit_identical() {
    let iters = 9;
    let every = 3;
    let case = airfoil::Airfoil::<f64>::new(24, 12).case;
    for ranks in [2usize, 4] {
        let (q0, h0) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
            &case,
            ranks,
            TEAM,
            BLOCK,
            iters,
            Shape::Threaded,
            ExchangePolicy::Overlap,
        );
        for kill_step in [0usize, 1, 4, 8] {
            let victim = ranks - 1;
            let plan = FaultPlan::new().with_kill_rank(victim, kill_step as u64);
            let inj = Arc::new(plan.injector());
            let (q, h, report) = dist::run_mpi_fused_resilient::<airfoil::Airfoil<f64>, 4>(
                &case,
                ranks,
                TEAM,
                BLOCK,
                iters,
                Shape::Threaded,
                ExchangePolicy::Overlap,
                every,
                Some(inj.clone()),
                IO_TIMEOUT,
            );
            let tag = format!("ranks={ranks} kill rank {victim} at step {kill_step}");
            assert_eq!(inj.injected(), 1, "{tag}: fault did not fire");
            assert_eq!(report.recoveries, 1, "{tag}: recoveries");
            assert_eq!(
                report.replayed_steps,
                kill_step - expected_ckpt(kill_step, every),
                "{tag}: replayed steps"
            );
            assert!(bits_eq(&q0.data, &q.data), "{tag}: final state diverged");
            assert!(bits_eq(&h0, &h), "{tag}: reduction history diverged");
        }
    }
}

/// Same sweep on Volna (global-CFL reductions included), with a SIMD
/// shape and odd rank counts in the mix.
#[test]
fn volna_rank_kill_recovers_bit_identical() {
    let steps = 7;
    let every = 2;
    let case = volna::Volna::<f64>::new(16, 12).case;
    for (ranks, shape) in [(2usize, Shape::Threaded), (3, Shape::Simd { lanes: 4 })] {
        let (w0, h0) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
            &case,
            ranks,
            TEAM,
            BLOCK,
            steps,
            shape,
            ExchangePolicy::Overlap,
        );
        for kill_step in [2usize, 5] {
            let plan = FaultPlan::new().with_kill_rank(ranks - 1, kill_step as u64);
            let inj = Arc::new(plan.injector());
            let (w, h, report) = dist::run_mpi_fused_resilient::<volna::Volna<f64>, 4>(
                &case,
                ranks,
                TEAM,
                BLOCK,
                steps,
                shape,
                ExchangePolicy::Overlap,
                every,
                Some(inj),
                IO_TIMEOUT,
            );
            let tag = format!("ranks={ranks} kill at step {kill_step}");
            assert_eq!(report.recoveries, 1, "{tag}");
            assert!(bits_eq(&w0.data, &w.data), "{tag}: final state diverged");
            assert!(bits_eq(&h0, &h), "{tag}: Δt history diverged");
        }
    }
}

/// A dropped halo packet surfaces as a typed exchange timeout within the
/// deadline — no hang — and the rollback restores bit-identity. The
/// per-(from,to) ordinal clock counts only halo packets (collectives use
/// shared slots), so Airfoil sends 4/step per neighbor direction:
/// q, adt (phase 1), q, adt (phase 2).
#[test]
fn airfoil_dropped_halo_packet_rolls_back_without_hanging() {
    let iters = 6;
    let case = airfoil::Airfoil::<f64>::new(24, 12).case;
    let (q0, h0) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        iters,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    // nth 1 = step-0 phase-1 q packet; 2 = its adt; 4 = phase-2 adt;
    // 7 = step-1 phase-2 q — hitting both dats and both phases
    for nth in [1u64, 2, 4, 7] {
        let plan = FaultPlan::new().with_drop_message(0, 1, nth);
        let inj = Arc::new(plan.injector());
        let t0 = Instant::now();
        let (q, h, report) = dist::run_mpi_fused_resilient::<airfoil::Airfoil<f64>, 4>(
            &case,
            2,
            TEAM,
            BLOCK,
            iters,
            Shape::Threaded,
            ExchangePolicy::Overlap,
            2,
            Some(inj.clone()),
            IO_TIMEOUT,
        );
        let elapsed = t0.elapsed();
        assert_eq!(inj.injected(), 1, "drop nth={nth} did not fire");
        assert_eq!(report.recoveries, 1, "drop nth={nth}: recoveries");
        assert!(
            report.exchange_timeouts >= 1,
            "drop nth={nth}: no typed timeout latched"
        );
        assert!(bits_eq(&q0.data, &q.data), "drop nth={nth}: state diverged");
        assert!(bits_eq(&h0, &h), "drop nth={nth}: history diverged");
        // no-hang bound: one guard deadline plus the (small) run itself,
        // with head-room for a loaded CI box
        assert!(
            elapsed < Duration::from_secs(30),
            "drop nth={nth}: took {elapsed:?}"
        );
    }
}

/// A packet delayed past the exchange deadline behaves like a drop (the
/// stale packet is drained before the replay); a duplicated packet is
/// absorbed by receiver-side dedup with no recovery at all.
#[test]
fn volna_delayed_and_duplicated_packets() {
    let steps = 5;
    let case = volna::Volna::<f64>::new(16, 12).case;
    let (w0, h0) = dist::run_mpi_fused::<volna::Volna<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        steps,
        Shape::Threaded,
        ExchangePolicy::Overlap,
    );
    // Volna sends 2 halo packets per step per direction: w, then w1.
    let delayed = FaultPlan::new().with_delay_message(0, 1, 2, 2_000);
    let inj = Arc::new(delayed.injector());
    let (w, h, report) = dist::run_mpi_fused_resilient::<volna::Volna<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        steps,
        Shape::Threaded,
        ExchangePolicy::Overlap,
        2,
        Some(inj),
        IO_TIMEOUT,
    );
    assert_eq!(report.recoveries, 1, "delay: recoveries");
    assert!(report.exchange_timeouts >= 1, "delay: no timeout latched");
    assert!(bits_eq(&w0.data, &w.data), "delay: state diverged");
    assert!(bits_eq(&h0, &h), "delay: history diverged");

    let duplicated = FaultPlan::new().with_duplicate_message(0, 1, 1);
    let inj = Arc::new(duplicated.injector());
    let (w, h, report) = dist::run_mpi_fused_resilient::<volna::Volna<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        steps,
        Shape::Threaded,
        ExchangePolicy::Overlap,
        2,
        Some(inj.clone()),
        IO_TIMEOUT,
    );
    assert_eq!(inj.injected(), 1, "duplicate did not fire");
    assert_eq!(report.recoveries, 0, "duplicate: spurious recovery");
    assert!(bits_eq(&w0.data, &w.data), "duplicate: state diverged");
    assert!(bits_eq(&h0, &h), "duplicate: history diverged");
}

/// Two independent faults in one plan — a rank kill and a later packet
/// drop — are both recovered; determinism survives composition.
#[test]
fn composed_kill_and_drop_recover_bit_identical() {
    let iters = 8;
    let case = airfoil::Airfoil::<f64>::new(24, 12).case;
    let (q0, h0) = dist::run_mpi_fused::<airfoil::Airfoil<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        iters,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Overlap,
    );
    // the drop ordinal lands mid-run wherever the (monotonic) packet
    // clock reaches 18 — which packet dies is irrelevant to recovery
    let plan = FaultPlan::new()
        .with_kill_rank(1, 2)
        .with_drop_message(1, 0, 18);
    let inj = Arc::new(plan.injector());
    let (q, h, report) = dist::run_mpi_fused_resilient::<airfoil::Airfoil<f64>, 4>(
        &case,
        2,
        TEAM,
        BLOCK,
        iters,
        Shape::Simd { lanes: 4 },
        ExchangePolicy::Overlap,
        3,
        Some(inj.clone()),
        IO_TIMEOUT,
    );
    assert_eq!(
        inj.injected(),
        2,
        "both faults should fire: {:?}",
        inj.fired()
    );
    assert_eq!(report.recoveries, 2, "one rollback per fault");
    assert!(bits_eq(&q0.data, &q.data), "composed: state diverged");
    assert!(bits_eq(&h0, &h), "composed: history diverged");
}

/// The same seed-free plan injected twice produces the same fault
/// narrative and the same recovery counts — schedule determinism.
#[test]
fn fault_schedule_is_deterministic_across_runs() {
    let case = volna::Volna::<f64>::new(16, 12).case;
    let mut fired = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..2 {
        let plan = FaultPlan::new()
            .with_kill_rank(0, 3)
            .with_drop_message(1, 0, 5);
        let inj = Arc::new(plan.injector());
        let (w, _, report) = dist::run_mpi_fused_resilient::<volna::Volna<f64>, 4>(
            &case,
            2,
            TEAM,
            BLOCK,
            6,
            Shape::Threaded,
            ExchangePolicy::Overlap,
            2,
            Some(inj.clone()),
            IO_TIMEOUT,
        );
        fired.push(inj.fired());
        reports.push((report, w.data));
    }
    assert_eq!(fired[0], fired[1], "fault narratives diverged");
    assert_eq!(reports[0].0, reports[1].0, "reports diverged");
    assert!(
        bits_eq(&reports[0].1, &reports[1].1),
        "recovered states diverged"
    );
}
