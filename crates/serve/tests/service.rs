//! Service-level acceptance tests: N jobs over M shared pools with
//! conformance against the sequential reference, bounded admission,
//! plan-cache sharing, cancel → resume bit-identity, and a held
//! footprint that ends with the jobs in flight.

use std::sync::Arc;
use std::time::Duration;

use ump_core::Backend;
use ump_fault::FaultPlan;
use ump_serve::{
    App, JobSpec, JobState, JobStatus, Rejection, RetryPolicy, Service, ServiceConfig,
};

const TOL: f64 = 1e-12;

/// `JobState::new` stepped `steps` times on a `team`-thread pool — the
/// direct run a served job must match to the bit.
fn direct_run(spec: JobSpec, steps: u64, team: usize) -> JobState {
    let pool = ump_core::ExecPool::new(team);
    let cache = ump_core::PlanCache::new();
    let mut state = JobState::new(spec);
    for _ in 0..steps {
        state.step(&pool, &cache, None);
    }
    state
}

/// The issue's headline acceptance run: 16 concurrent jobs — mixed
/// apps, seeds, and backends from every family — multiplexed over 4
/// shared pools, every one verified against the sequential reference
/// driver to 1e-12.
#[test]
fn sixteen_mixed_jobs_over_four_pools_match_step_seq() {
    let service = Service::new(ServiceConfig {
        pools: 4,
        team: 2,
        admission_capacity: 32,
        slice_steps: 3,
        ..ServiceConfig::default()
    });
    let backends = [
        Backend::Seq,
        Backend::Threaded,
        Backend::Simd { lanes: 4 },
        Backend::Simd { lanes: 8 },
        Backend::SimdThreaded { lanes: 4 },
        Backend::Simt,
        Backend::Fused,
        Backend::FusedSimd { lanes: 4 },
    ];
    let steps = 6u64;
    let mut handles = Vec::new();
    for j in 0..16u64 {
        let backend = backends[j as usize % backends.len()];
        let spec = if j % 2 == 0 {
            JobSpec::new(App::Airfoil, 24, 12, backend, steps)
        } else {
            JobSpec::new(App::Volna, 12, 10, backend, steps)
        }
        .with_seed(100 + j);
        handles.push(service.submit(spec).expect("under capacity"));
    }

    for h in &handles {
        let out = h.wait();
        assert_eq!(out.status, JobStatus::Completed, "job {}", h.id);
        assert_eq!(out.steps_done, steps);
        assert_eq!(out.history.len(), steps as usize);
        // one streamed frame per step, in order, mirroring the history
        let frames: Vec<_> = h.frames().try_iter().collect();
        assert_eq!(frames.len(), steps as usize);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.step, i as u64 + 1);
            assert_eq!(f.value.to_bits(), out.history[i].to_bits());
        }

        // conformance vs the sequential reference driver
        let final_state = out.final_state();
        let spec = out.spec;
        let seq = JobSpec {
            backend: Backend::Seq,
            ..spec
        };
        let reference = direct_run(seq, steps, 1);
        let diff = final_state.max_abs_diff(&reference);
        assert!(
            diff <= TOL,
            "job {} ({} on {}): |Δ| = {diff:e} > {TOL:e}",
            h.id,
            spec.app,
            spec.backend
        );
        for (got, want) in out.history.iter().zip(reference.history()) {
            assert!(
                (got - want).abs() <= TOL,
                "history diverged: {got} vs {want}"
            );
        }
    }

    let stats = service.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queued, 0);
    assert!(
        stats.plan_hits > 0,
        "16 jobs over shared meshes must reuse plans (hits={}, builds={})",
        stats.plan_hits,
        stats.plan_builds
    );
    let total_steps: u64 = stats.per_backend.iter().map(|b| b.steps).sum();
    assert_eq!(total_steps, 16 * steps);
}

/// Saturation sheds load with a reason instead of blocking the caller.
#[test]
fn admission_rejects_when_saturated_and_recovers() {
    let service = Service::new(ServiceConfig {
        pools: 1,
        team: 1,
        admission_capacity: 2,
        slice_steps: 4,
        ..ServiceConfig::default()
    });
    let long = JobSpec::new(App::Airfoil, 48, 24, Backend::Seq, 200);
    let a = service.submit(long.with_seed(1)).expect("first admitted");
    let b = service.submit(long.with_seed(2)).expect("second admitted");
    match service.submit(long.with_seed(3)) {
        Err(Rejection::Saturated {
            in_flight,
            capacity,
        }) => {
            assert_eq!((in_flight, capacity), (2, 2));
        }
        other => panic!(
            "expected saturation, got {other:?}",
            other = other.map(|h| h.id)
        ),
    }
    assert_eq!(service.stats().rejected, 1);
    // capacity frees as jobs finish; the same spec is then admitted
    assert_eq!(a.wait().status, JobStatus::Completed);
    assert_eq!(b.wait().status, JobStatus::Completed);
    let c = service.submit(long.with_seed(3)).expect("capacity freed");
    assert_eq!(c.wait().status, JobStatus::Completed);
}

/// Validation failures are typed `Invalid` rejections naming the field.
#[test]
fn invalid_specs_are_rejected_with_the_reason() {
    let service = Service::new(ServiceConfig {
        pools: 1,
        team: 1,
        ..ServiceConfig::default()
    });
    let bad = JobSpec {
        steps: 0,
        ..JobSpec::new(App::Volna, 8, 6, Backend::Seq, 1)
    };
    match service.submit(bad) {
        Err(Rejection::Invalid(why)) => assert!(why.contains("steps"), "{why}"),
        other => panic!(
            "expected Invalid, got {other:?}",
            other = other.map(|h| h.id)
        ),
    }
    // resuming garbage is equally typed
    assert!(matches!(
        service.resume(b"not a snapshot"),
        Err(Rejection::Invalid(_))
    ));
}

/// Satellite: a second identical job plans entirely from the shared
/// cache — hits rise, builds do not.
#[test]
fn second_identical_job_is_a_plan_cache_hit() {
    let service = Service::new(ServiceConfig {
        pools: 1,
        team: 2,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new(App::Airfoil, 24, 12, Backend::Threaded, 3).with_seed(7);
    service.submit(spec).unwrap().wait();
    let first = service.stats();
    assert!(first.plan_builds > 0, "threaded execution builds plans");

    service.submit(spec).unwrap().wait();
    let second = service.stats();
    assert_eq!(
        second.plan_builds, first.plan_builds,
        "identical job must not rebuild any plan"
    );
    assert!(
        second.plan_hits > first.plan_hits,
        "identical job must hit the cache ({} -> {})",
        first.plan_hits,
        second.plan_hits
    );
}

/// Kill a job mid-flight, resume it from its outcome snapshot on a
/// *different* service, and finish bit-identical to a run that was
/// never interrupted.
#[test]
fn cancelled_job_resumes_bit_identically() {
    let team = 2;
    let steps = 60u64;
    let spec = JobSpec::new(App::Volna, 16, 12, Backend::Threaded, steps).with_seed(42);

    // the uninterrupted reference, same team size as the service pools
    let uninterrupted = direct_run(spec, steps, team);

    let service = Service::new(ServiceConfig {
        pools: 2,
        team,
        slice_steps: 2,
        ..ServiceConfig::default()
    });
    let h = service.submit(spec).unwrap();
    // wait for proof of progress, then kill it (best-effort: on a fast
    // machine the job can finish before the cancel lands)
    let first = h.frames().recv().expect("at least one frame");
    assert_eq!(first.step, 1);
    let _ = service.cancel(h.id);
    let out = h.wait();

    let final_state = match out.status {
        JobStatus::Cancelled => {
            assert!(out.steps_done < steps, "cancel landed mid-run");
            assert!(!out.snapshot.is_empty());
            // resume on a fresh service: the snapshot is self-contained
            let service2 = Service::new(ServiceConfig {
                pools: 2,
                team,
                slice_steps: 2,
                ..ServiceConfig::default()
            });
            let resumed = service2.resume(&out.snapshot).expect("resumable");
            let out2 = resumed.wait();
            assert_eq!(out2.status, JobStatus::Completed);
            assert_eq!(out2.steps_done, steps);
            out2.final_state()
        }
        // the job can outrun the cancel on a fast machine — the
        // bit-identity assertion below still carries the test
        JobStatus::Completed => out.final_state(),
        JobStatus::Failed(why) => panic!("job failed: {why}"),
    };
    assert!(
        final_state.bits_eq(&uninterrupted),
        "killed-and-restored run must be bit-identical to uninterrupted"
    );

    // a completed snapshot has nothing left to run
    let done = final_state.snapshot();
    assert!(matches!(service.resume(&done), Err(Rejection::Invalid(_))));
}

/// Deterministic kill/restore: snapshot a local run at exactly step k,
/// resume it *into the service*, and finish bit-identical — no races,
/// unlike the live-cancel test above.
#[test]
fn snapshot_resumed_on_the_service_is_bit_identical() {
    let team = 2;
    let steps = 20u64;
    let spec = JobSpec::new(App::Airfoil, 20, 10, Backend::Fused, steps).with_seed(9);

    let uninterrupted = direct_run(spec, steps, team);
    let front = direct_run(spec, 7, team);
    let service = Service::new(ServiceConfig {
        pools: 2,
        team,
        ..ServiceConfig::default()
    });
    let h = service.resume(&front.snapshot()).expect("mid-run snapshot");
    let out = h.wait();
    assert_eq!(out.status, JobStatus::Completed);
    assert_eq!(out.steps_done, steps);
    // frames resume from step 8, not step 1
    assert_eq!(h.frames().try_iter().next().unwrap().step, 8);
    assert!(
        out.final_state().bits_eq(&uninterrupted),
        "restore at step 7 must finish bit-identical"
    );
}

/// Periodic checkpoints land at the configured cadence and are
/// resumable while the job runs; once it ends the service holds none,
/// and the outcome carries the final snapshot.
#[test]
fn periodic_checkpoints_are_resumable() {
    let spec = JobSpec::new(App::Airfoil, 16, 8, Backend::Seq, 10)
        .with_seed(5)
        .with_checkpoint_every(4);
    // hold job 1 at step 6, past its step-4 checkpoint
    let service = Service::new(ServiceConfig {
        pools: 1,
        team: 1,
        slice_steps: 4,
        fault: Some(Arc::new(
            FaultPlan::new().with_stall_step(1, 6, 1000).injector(),
        )),
        ..ServiceConfig::default()
    });
    let h = service.submit(spec).unwrap();
    // frame 5 is sent after the step-4 checkpoint is stored
    while h.frames().recv().expect("frames until step 5").step < 5 {}
    let mid = service
        .checkpoint(h.id)
        .expect("checkpoint while in flight");
    assert_eq!(JobState::peek(&mid).unwrap(), (spec, 4));
    assert!(
        JobState::restore(&mid)
            .unwrap()
            .bits_eq(&direct_run(spec, 4, 1)),
        "the step-4 checkpoint must restore bit-identically"
    );

    let out = h.wait();
    assert_eq!(out.status, JobStatus::Completed);
    assert!(
        service.checkpoint(h.id).is_none(),
        "a finished job's checkpoint must be released"
    );
    assert_eq!(JobState::peek(&out.snapshot).unwrap(), (spec, 10));
    assert!(out.final_state().bits_eq(&direct_run(spec, 10, 1)));
}

/// A drained batch leaves no checkpoint behind: what the service holds
/// ends with the jobs in flight.
#[test]
fn drained_batch_leaves_no_checkpoints() {
    let service = Service::new(ServiceConfig {
        pools: 2,
        team: 1,
        slice_steps: 2,
        ..ServiceConfig::default()
    });
    let handles: Vec<_> = (0..6u64)
        .map(|j| {
            let spec = if j % 2 == 0 {
                JobSpec::new(App::Airfoil, 16, 8, Backend::Seq, 6)
            } else {
                JobSpec::new(App::Volna, 12, 10, Backend::Seq, 6)
            };
            service
                .submit(spec.with_seed(j).with_checkpoint_every(2))
                .unwrap()
        })
        .collect();
    for h in &handles {
        assert_eq!(h.wait().status, JobStatus::Completed);
    }
    for h in &handles {
        assert!(service.checkpoint(h.id).is_none(), "job {} held", h.id);
    }
}

/// Jobs of one mesh identity in flight together build the mesh once;
/// the template is freed with the last of them, so a job submitted
/// after the drain builds it again.
#[test]
fn jobs_in_flight_on_one_mesh_build_it_once() {
    let n = 4usize;
    // job 1 stalls at its first step until it is cancelled, which keeps
    // it in flight while the others are admitted
    let service = Service::new(ServiceConfig {
        pools: 1,
        team: 1,
        fault: Some(Arc::new(
            FaultPlan::new().with_stall_step(1, 1, 60_000).injector(),
        )),
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new(App::Volna, 12, 10, Backend::Seq, 3);
    let handles: Vec<_> = (0..n as u64)
        .map(|j| service.submit(spec.with_seed(j)).unwrap())
        .collect();
    assert!(service.cancel(handles[0].id));
    assert_eq!(handles[0].wait().status, JobStatus::Cancelled);
    for h in &handles[1..] {
        assert_eq!(h.wait().status, JobStatus::Completed);
    }
    let stats = service.stats();
    assert_eq!((stats.mesh_builds, stats.mesh_hits), (1, n - 1));

    assert_eq!(
        service.submit(spec).unwrap().wait().status,
        JobStatus::Completed
    );
    let stats = service.stats();
    assert_eq!((stats.mesh_builds, stats.mesh_hits), (2, n - 1));
}

/// Every way the service materializes a job starts from a clone of the
/// shared template — fresh, `resume`, a retry from a good checkpoint and
/// a retry whose checkpoint is corrupt — and each finishes bit-identical
/// to `JobState::new` stepped directly, on both apps, pristine and
/// seeded.
#[test]
fn template_clones_match_direct_runs_on_every_path() {
    let team = 2;
    let steps = 8u64;
    for app in [App::Airfoil, App::Volna] {
        for seed in [0u64, 13] {
            let (nx, ny) = match app {
                App::Airfoil => (16, 8),
                App::Volna => (12, 10),
            };
            let spec = JobSpec::new(app, nx, ny, Backend::Fused, steps)
                .with_seed(seed)
                .with_checkpoint_every(3);
            let golden = direct_run(spec, steps, team);
            // jobs 3 and 4 are killed at step 6, past their step-3
            // checkpoint; job 4's is corrupt, so it retries from `init`
            let plan = FaultPlan::new()
                .with_kill_job(3, 6)
                .with_corrupt_checkpoint(4, 0)
                .with_kill_job(4, 6);
            let service = Service::new(ServiceConfig {
                pools: 1,
                team,
                retry: RetryPolicy {
                    max_attempts: 1,
                    backoff: Duration::ZERO,
                },
                fault: Some(Arc::new(plan.injector())),
                ..ServiceConfig::default()
            });
            let paths = [
                ("fresh", service.submit(spec)),
                (
                    "resume",
                    service.resume(&direct_run(spec, 3, team).snapshot()),
                ),
                ("retry from checkpoint", service.submit(spec)),
                ("retry from a corrupt checkpoint", service.submit(spec)),
            ];
            for (path, h) in paths {
                let out = h.expect("admitted").wait();
                assert_eq!(
                    out.status,
                    JobStatus::Completed,
                    "{app} seed {seed}: {path}"
                );
                assert!(
                    out.final_state().bits_eq(&golden),
                    "{app} seed {seed}: {path} diverged from the direct run"
                );
            }
            assert_eq!(service.stats().retried, 2, "{app} seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// fault-tolerant execution: injected faults, retry policies, watchdog
// ---------------------------------------------------------------------

mod resilience {
    use std::sync::Arc;
    use std::time::Duration;

    use ump_core::Backend;
    use ump_fault::FaultPlan;
    use ump_serve::{App, JobSpec, JobStatus, Rejection, RetryPolicy, Service, ServiceConfig};

    /// Run `spec` on an unfaulted single-pool service — the golden
    /// reference every recovered run must match to the bit.
    fn clean_run(spec: JobSpec, team: usize) -> (ump_serve::JobState, Vec<f64>) {
        let service = Service::new(ServiceConfig {
            pools: 1,
            team,
            ..ServiceConfig::default()
        });
        let out = service.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed);
        (out.final_state(), out.history)
    }

    fn retrying(fault: FaultPlan, lease_timeout: Duration) -> Service {
        Service::new(ServiceConfig {
            pools: 1,
            team: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: Duration::from_millis(2),
            },
            lease_timeout,
            fault: Some(Arc::new(fault.injector())),
            ..ServiceConfig::default()
        })
    }

    /// A worker killed mid-job is retried from the last checkpoint and
    /// finishes bit-identical to an unfaulted run.
    #[test]
    fn killed_job_retries_from_checkpoint_bit_identically() {
        let steps = 8u64;
        let spec = JobSpec::new(App::Airfoil, 20, 10, Backend::Fused, steps)
            .with_seed(7)
            .with_checkpoint_every(3);
        let (golden, golden_hist) = clean_run(spec, 2);

        // job ids start at 1; kill the first job at (1-based) step 6,
        // one step past its second checkpoint
        let service = retrying(FaultPlan::new().with_kill_job(1, 6), Duration::ZERO);
        let out = service.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed);
        assert_eq!(out.steps_done, steps);
        assert_eq!(out.attempts, 1, "exactly one retry");
        let stats = service.stats();
        assert_eq!((stats.retried, stats.failed), (1, 0));
        assert!(out.final_state().bits_eq(&golden), "state diverged");
        assert!(
            out.history
                .iter()
                .zip(&golden_hist)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "history diverged"
        );
    }

    /// A kernel panic inside a step is contained by the pool, surfaces
    /// as a failed attempt, and the retry completes bit-identically.
    #[test]
    fn panicking_job_retries_bit_identically() {
        let steps = 6u64;
        let spec = JobSpec::new(App::Volna, 12, 10, Backend::Threaded, steps)
            .with_seed(11)
            .with_checkpoint_every(2);
        let (golden, _) = clean_run(spec, 2);

        let service = retrying(FaultPlan::new().with_panic_step(1, 5), Duration::ZERO);
        let out = service.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed, "{:?}", out.status);
        assert_eq!(out.attempts, 1);
        assert_eq!(service.stats().retried, 1);
        assert!(out.final_state().bits_eq(&golden), "state diverged");
    }

    /// A stuck job (injected stall far past the lease deadline) is
    /// reaped by the watchdog within one lease and retried to
    /// completion — the service-side no-hang guarantee.
    #[test]
    fn watchdog_reaps_stalled_lease_and_retry_completes() {
        let steps = 6u64;
        let spec = JobSpec::new(App::Airfoil, 16, 8, Backend::Seq, steps)
            .with_seed(3)
            .with_checkpoint_every(2);
        let (golden, _) = clean_run(spec, 1);

        let service = retrying(
            FaultPlan::new().with_stall_step(1, 4, 60_000),
            Duration::from_millis(80),
        );
        let out = service.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed, "{:?}", out.status);
        assert_eq!(out.attempts, 1);
        let stats = service.stats();
        assert!(stats.watchdog_fired >= 1, "watchdog never fired");
        assert_eq!(stats.retried, 1);
        assert!(out.final_state().bits_eq(&golden), "state diverged");
    }

    /// A corrupted checkpoint must not poison the retry: the typed
    /// decode error routes the attempt to the fresh-rebuild fallback,
    /// which still finishes bit-identically.
    #[test]
    fn corrupt_checkpoint_falls_back_to_fresh_rebuild() {
        let steps = 8u64;
        let spec = JobSpec::new(App::Volna, 12, 10, Backend::Fused, steps)
            .with_seed(5)
            .with_checkpoint_every(3);
        let (golden, _) = clean_run(spec, 2);

        // byte 0 is the snapshot magic: the corruption is guaranteed to
        // be *detected* (decode error), exercising the fallback path
        let plan = FaultPlan::new()
            .with_corrupt_checkpoint(1, 0)
            .with_kill_job(1, 6);
        let service = retrying(plan, Duration::ZERO);
        let out = service.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::Completed, "{:?}", out.status);
        assert_eq!(out.attempts, 1);
        assert!(out.final_state().bits_eq(&golden), "state diverged");
    }

    /// Without a retry budget an injected kill is a terminal typed
    /// failure — and the service keeps serving other jobs.
    #[test]
    fn exhausted_retry_budget_is_a_typed_failure() {
        let spec = JobSpec::new(App::Airfoil, 16, 8, Backend::Seq, 5).with_seed(2);
        let service = Service::new(ServiceConfig {
            pools: 1,
            team: 1,
            fault: Some(Arc::new(FaultPlan::new().with_kill_job(1, 2).injector())),
            ..ServiceConfig::default()
        });
        let out = service.submit(spec).unwrap().wait();
        match &out.status {
            JobStatus::Failed(why) => {
                assert!(why.contains("injected fault"), "unexpected reason: {why}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(out.attempts, 0);
        assert_eq!(service.stats().failed, 1);
        // the pool survived the kill; an untargeted job completes
        let ok = service.submit(spec.with_seed(9)).unwrap().wait();
        assert_eq!(ok.status, JobStatus::Completed);
    }

    /// Backpressure under churn: repeated saturate → drain → resubmit
    /// waves, with cancels mixed in, must reconcile exactly —
    /// queued + running + terminal == submitted, and nothing leaks.
    #[test]
    fn saturation_churn_reconciles_accounting() {
        let service = Service::new(ServiceConfig {
            pools: 2,
            team: 1,
            admission_capacity: 4,
            slice_steps: 2,
            ..ServiceConfig::default()
        });
        let mut outcomes = Vec::new();
        let mut rejected = 0u64;
        let mut cancel_requested = Vec::new();
        for wave in 0..6u64 {
            // burst well past capacity
            let mut wave_handles = Vec::new();
            for j in 0..8u64 {
                let spec =
                    JobSpec::new(App::Volna, 12, 10, Backend::Seq, 4).with_seed(wave * 100 + j);
                match service.submit(spec) {
                    Ok(h) => wave_handles.push(h),
                    Err(Rejection::Saturated {
                        in_flight,
                        capacity,
                    }) => {
                        assert!(in_flight >= capacity, "premature saturation");
                        rejected += 1;
                    }
                    Err(other) => panic!("unexpected rejection: {other:?}"),
                }
            }
            // churn: cancel one admitted job per wave (may race with
            // completion — both outcomes are terminal, both reconcile)
            if let Some(h) = wave_handles.first() {
                service.cancel(h.id);
                cancel_requested.push(h.id);
            }
            // drain the wave so the next burst finds fresh capacity
            // (wait() consumes the one-shot outcome — keep it)
            for h in wave_handles {
                outcomes.push((h.id, h.wait()));
            }
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, outcomes.len() as u64);
        assert_eq!(stats.rejected, rejected);
        assert!(rejected > 0, "the bursts never saturated the queue");
        assert_eq!((stats.queued, stats.running), (0, 0), "work leaked");
        assert_eq!(
            stats.completed + stats.cancelled + stats.failed,
            stats.submitted,
            "terminal states do not reconcile: {stats:?}"
        );
        assert_eq!(stats.failed, 0);
        // every admitted job observed a terminal status
        for (id, out) in &outcomes {
            assert!(
                matches!(out.status, JobStatus::Completed | JobStatus::Cancelled),
                "job {id}: {:?}",
                out.status
            );
        }
    }
}
