//! `submit_auto`: the service consults the tuner, admits the job under
//! the concrete tuned backend, surfaces tuning activity in
//! `ServiceStats`, and the tuned run's numbers match the sequential
//! reference within the conformance tolerance.

use std::sync::Arc;
use ump_core::Backend;
use ump_serve::{App, JobSpec, JobStatus, Service, ServiceConfig, Tuner};

fn test_service() -> Service {
    Service::new(ServiceConfig {
        pools: 2,
        team: 2,
        tuner: Some(Arc::new(Tuner::new().with_trial_steps(1).with_team(2))),
        ..ServiceConfig::default()
    })
}

#[test]
fn auto_submission_is_tuned_counted_and_correct() {
    let service = test_service();
    // the spec's backend is a placeholder: submit_auto overwrites it
    let spec = JobSpec::new(App::Airfoil, 16, 10, Backend::Seq, 4).with_seed(7);

    let out = service.submit_auto(spec).expect("admitted").wait();
    assert_eq!(out.status, JobStatus::Completed);
    assert!(
        Backend::all().contains(&out.spec.backend),
        "job ran on unregistered backend {:?}",
        out.spec.backend
    );

    let stats = service.stats();
    assert_eq!(stats.tuned, 1);
    assert_eq!(stats.tune_store_misses, 1);
    assert_eq!(stats.tune_store_hits, 0);
    assert!(stats.tune_trials > 0, "cold auto submission must trial");

    // the tuned run agrees with a plain sequential job step for step
    let seq = service
        .submit(JobSpec::new(App::Airfoil, 16, 10, Backend::Seq, 4).with_seed(7))
        .expect("admitted")
        .wait();
    assert_eq!(out.history.len(), seq.history.len());
    for (step, (a, s)) in out.history.iter().zip(&seq.history).enumerate() {
        assert!(
            (a - s).abs() <= 1e-12,
            "step {step}: tuned {} vs seq {}",
            a,
            s
        );
    }
}

#[test]
fn second_auto_submission_is_a_store_hit() {
    let service = test_service();
    let spec = JobSpec::new(App::Volna, 14, 10, Backend::Seq, 3).with_seed(3);

    let first = service.submit_auto(spec).expect("admitted").wait();
    assert_eq!(first.status, JobStatus::Completed);
    let trials_after_first = service.stats().tune_trials;
    assert!(trials_after_first > 0);

    let second = service.submit_auto(spec).expect("admitted").wait();
    assert_eq!(second.status, JobStatus::Completed);
    assert_eq!(second.spec.backend, first.spec.backend);

    let stats = service.stats();
    assert_eq!(stats.tuned, 2);
    assert_eq!(
        stats.tune_store_hits, 1,
        "second identical auto submission must hit the store"
    );
    assert_eq!(
        stats.tune_trials, trials_after_first,
        "a store hit must run zero additional trials"
    );
}
