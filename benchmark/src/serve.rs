//! `serve_mixed`: a closed loop of small mixed jobs through `ump_serve`.
//! One driver thread keeps `in_flight` jobs admitted, waits on the
//! oldest and replaces it on completion.

use std::collections::VecDeque;
use std::time::Instant;

use ump_apps::airfoil::Airfoil;
use ump_core::{ExecPool, PlanCache, Recorder};
use ump_serve::{App, JobHandle, JobSpec, JobState, JobStatus, Service, ServiceConfig};

use crate::measure::{clamp_to_host, median, percentile};
use crate::run::{
    is_traced_op, put_core, put_end_to_end, put_fusion, put_kernels, put_op_tail, Args, CoreCounts,
    Outcome, Window, TRACED_MIN_OPS,
};
use crate::sim::put_setup_layers;
use crate::table::{ServeConfig, BLOCK, MIN_OPS, SETUPS, TOL_F64};
use crate::trace::Tracer;

/// Job `index` of the stream: apps alternate, backends cycle, and the
/// seed is the run's base seed plus the index.
fn spec(cfg: &ServeConfig, base_seed: u64, index: u64) -> JobSpec {
    let backend = cfg.backends[index as usize % cfg.backends.len()];
    let (app, (nx, ny)) = if index.is_multiple_of(2) {
        (App::Airfoil, cfg.airfoil)
    } else {
        (App::Volna, cfg.volna)
    };
    JobSpec::new(app, nx, ny, backend, cfg.steps)
        .with_seed(base_seed.wrapping_add(index))
        .with_block_size(BLOCK)
}

fn service(cfg: &ServeConfig, pools: usize) -> Service {
    Service::new(ServiceConfig {
        pools,
        team: cfg.team,
        admission_capacity: cfg.admission,
        ..ServiceConfig::default()
    })
}

/// What the metrics need of a `JobOutcome`; the outcome itself carries
/// a megabyte snapshot and is dropped as soon as it is judged.
struct Done {
    app: App,
    completed: bool,
    steps_done: u64,
    busy_ms: f64,
    /// Submit to outcome.
    latency_ms: f64,
}

/// One closed-loop window; `done` is in completion order.
struct Batch {
    window: Window,
    done: Vec<Done>,
    rejected: u64,
}

/// Jobs of a window of `seconds`. The batch is sized, not time-boxed:
/// the service keeps every finished job's snapshot, so a batch that
/// grew when the code got faster would report a higher peak RSS.
fn batch_jobs(cfg: &ServeConfig, seconds: f64, min_ops: usize) -> usize {
    ((cfg.jobs_per_second * seconds).round() as usize).max(min_ops)
}

/// Keep `cfg.in_flight` jobs admitted until `jobs` were submitted, then
/// drain. The window spans the whole batch: first submit to last
/// outcome. The tracer records the jobs of a traced run's traced class
/// (the service takes no recorder: the spans are all tracing adds here).
fn closed_loop(
    service: &Service,
    cfg: &ServeConfig,
    base_seed: u64,
    next_index: &mut u64,
    jobs: usize,
    tracer: &mut Tracer,
) -> Batch {
    let mut batch = Batch {
        window: Window::default(),
        done: Vec::new(),
        rejected: 0,
    };
    let mut flying: VecDeque<(JobHandle, Instant, u64, bool)> = VecDeque::new();
    let mut submitted = 0usize;
    let t0 = Instant::now();
    loop {
        while submitted < jobs && flying.len() < cfg.in_flight {
            let index = *next_index;
            *next_index += 1;
            let traced = is_traced_op(submitted as u64);
            submitted += 1;
            let sent = Instant::now();
            let span = tracer.begin_if(traced, "serve.submit", "ump_serve", Some(index));
            let admitted = service.submit(spec(cfg, base_seed, index));
            tracer.end(span);
            match admitted {
                Ok(handle) => flying.push_back((handle, sent, index, traced)),
                Err(why) => {
                    eprintln!("job {index} rejected: {why:?}");
                    batch.rejected += 1;
                    batch.window.failed += 1;
                    batch.window.op_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        let Some((handle, sent, index, traced)) = flying.pop_front() else {
            break;
        };
        let span = tracer.begin_if(traced, "serve.wait", "ump_serve", Some(index));
        let outcome = handle.wait();
        tracer.end(span);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        batch.window.op_ms.push(latency_ms);
        let finite = outcome.history.last().is_some_and(|v| v.is_finite());
        let completed = outcome.status == JobStatus::Completed && finite;
        if !completed {
            eprintln!("job {index} failed: {:?}", outcome.status);
            batch.window.failed += 1;
        }
        batch.done.push(Done {
            app: outcome.spec.app,
            completed,
            steps_done: outcome.steps_done,
            busy_ms: outcome.busy_seconds * 1e3,
            latency_ms,
        });
    }
    batch.window.wall_s = t0.elapsed().as_secs_f64();
    batch
}

struct Checked {
    ok: bool,
    note: String,
    /// Cells of the Airfoil and of the Volna job mesh.
    cells: [f64; 2],
    /// Pool rounds per timestep of the directly stepped jobs.
    rounds_per_step: f64,
    /// Wall seconds of the direct steps.
    direct_s: f64,
}

/// The warm-up jobs' outcomes against the same specs stepped directly.
/// With a recorder the direct steps also yield the per-kernel numbers
/// the service (which records nothing) cannot.
fn check(
    service: &Service,
    cfg: &ServeConfig,
    seed: u64,
    next_index: &mut u64,
    rec: Option<&Recorder>,
    tracer: &mut Tracer,
) -> Checked {
    let pool = ExecPool::new(cfg.team);
    let cache = PlanCache::new();
    let (mut worst_field, mut worst_red, mut direct_s) = (0.0f64, 0.0f64, 0.0);
    let mut cells = [0.0; 2];
    let mut all_completed = true;
    let handles: Vec<_> = (0..cfg.warmup_jobs as u64)
        .map(|_| {
            let index = *next_index;
            *next_index += 1;
            (index, service.submit(spec(cfg, seed, index)))
        })
        .collect();
    let rounds0 = pool.dispatch_rounds();
    for (index, handle) in handles {
        let Ok(handle) = handle else {
            all_completed = false;
            continue;
        };
        let outcome = handle.wait();
        all_completed &= outcome.status == JobStatus::Completed;
        let job = spec(cfg, seed, index);
        let mut direct = JobState::new(job);
        let scoped = cache.scoped(&job.cache_scope());
        let t = Instant::now();
        tracer.span("check.direct_steps", "ump_apps", Some(index), || {
            while !direct.is_done() {
                direct.step(&pool, &scoped, rec);
            }
        });
        direct_s += t.elapsed().as_secs_f64();
        cells[usize::from(job.app == App::Volna)] = direct.primary().set_size as f64;
        worst_field = worst_field.max(outcome.final_state().max_abs_diff(&direct));
        let (got, want) = (
            outcome.history.last().copied().unwrap_or(f64::NAN),
            direct.history().last().copied().unwrap_or(f64::NAN),
        );
        let red = ((got - want) / want).abs();
        worst_red = if red.is_nan() {
            f64::INFINITY
        } else {
            worst_red.max(red)
        };
    }
    let steps = cfg.warmup_jobs as f64 * cfg.steps as f64;
    Checked {
        ok: all_completed && worst_field <= TOL_F64 && worst_red <= TOL_F64,
        note: format!(
            "{} warm-up jobs vs direct JobState: field diff {worst_field:.3e}, \
             reduction rel diff {worst_red:.3e}, bound {TOL_F64:.0e}",
            cfg.warmup_jobs
        ),
        cells,
        rounds_per_step: (pool.dispatch_rounds() - rounds0) as f64 / steps,
        direct_s,
    }
}

pub fn run(cfg: &ServeConfig, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new(args);
    let pools = clamp_to_host(cfg.pools);
    out.provenance.put("pools_requested", cfg.pools);
    out.provenance.put("pools_granted", pools);
    out.provenance.put("team", cfg.team);
    out.provenance.put("in_flight", cfg.in_flight);
    out.provenance.put("block", BLOCK);

    // a set-up is: spawn the service (pools, shared PlanCache) and take
    // the first job from submit to outcome — mesh generation and plan
    // builds happen on the worker
    let n_setups = if args.traced { 1 } else { SETUPS };
    let mut next_index = 0u64;
    let mut setups = Vec::with_capacity(n_setups);
    let mut last = None;
    let (mut first_op_ms, mut setup_ok) = (0.0, true);
    for _ in 0..n_setups {
        drop(last.take());
        next_index = 0;
        let span = tracer.begin("setup", "benchmark", None);
        let t = Instant::now();
        let svc = tracer.span("setup.service_spawn", "ump_serve", None, || {
            service(cfg, pools)
        });
        let t_op = Instant::now();
        let first = tracer.span("setup.first_op", "ump_serve", Some(0), || {
            svc.submit(spec(cfg, args.seed, 0)).map(|h| h.wait())
        });
        first_op_ms = t_op.elapsed().as_secs_f64() * 1e3;
        setups.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        setup_ok &= matches!(first, Ok(ref o) if o.status == JobStatus::Completed);
        next_index += 1;
        last = Some(svc);
    }
    let svc = last.expect("at least one set-up");

    let rec = Recorder::new();
    let checked = check(
        &svc,
        cfg,
        args.seed,
        &mut next_index,
        args.traced.then_some(&rec),
        tracer,
    );
    out.correct = checked.ok && setup_ok;
    out.check_note = checked.note;
    let cells = checked.cells;

    // cells x steps of the jobs that completed
    let cell_steps = |done: &[Done]| -> f64 {
        done.iter()
            .filter(|d| d.completed)
            .map(|d| cells[usize::from(d.app == App::Volna)] * d.steps_done as f64)
            .sum()
    };

    if !args.traced {
        let batch = closed_loop(
            &svc,
            cfg,
            args.seed,
            &mut next_index,
            batch_jobs(cfg, args.seconds, MIN_OPS),
            tracer,
        );
        put_end_to_end(&mut out, &batch.window, cell_steps(&batch.done), &setups);
        out.provenance.put("op_samples", batch.window.op_ms.len());
        return out;
    }

    let stats0 = svc.stats();
    let batch = closed_loop(
        &svc,
        cfg,
        args.seed,
        &mut next_index,
        batch_jobs(cfg, args.seconds, TRACED_MIN_OPS),
        tracer,
    );
    let stats = svc.stats();
    put_op_tail(&mut out, &batch.window);

    let w = &batch.window;
    let jobs = batch.done.len() as f64;
    let busy_ms: f64 = batch.done.iter().map(|d| d.busy_ms).sum();
    let waits: Vec<f64> = batch
        .done
        .iter()
        .map(|d| d.latency_ms - d.busy_ms)
        .collect();
    out.put("serve.jobs_per_s", jobs / w.wall_s);
    out.put("serve.job_ms_p90", percentile(&w.op_ms, 0.9));
    out.put("serve.busy_ms_per_job", busy_ms / jobs);
    out.put("serve.queue_wait_ms_p50", median(&waits));
    out.put(
        "serve.pool_util",
        busy_ms * 1e-3 / (pools as f64 * w.wall_s),
    );
    let (hits, builds) = (
        (stats.plan_hits - stats0.plan_hits) as f64,
        (stats.plan_builds - stats0.plan_builds) as f64,
    );
    out.put("serve.plan_hit_ratio", hits / (hits + builds));
    out.put("serve.rejected", batch.rejected as f64);
    out.put("serve.retried", (stats.retried - stats0.retried) as f64);
    put_core(
        &mut out,
        tracer,
        &ExecPool::new(cfg.team),
        CoreCounts {
            plan_builds: stats.plan_builds as f64,
            plan_hits_per_op: hits / jobs,
            rounds_per_op: checked.rounds_per_step * cfg.steps as f64,
            steps_per_op: cfg.steps as f64,
            op_ms: busy_ms / jobs,
        },
    );

    // kernels and fusion from the check phase's direct steps: half the
    // warm-up jobs are Airfoil, half Volna
    let app_steps = cfg.warmup_jobs as f64 / 2.0 * cfg.steps as f64;
    put_kernels(&mut out, &rec, [app_steps; 2], 1.0, checked.direct_s);
    put_fusion(&mut out, &rec);

    put_setup_layers::<Airfoil<f64>>(&mut out, tracer, cfg.airfoil, cfg.team, first_op_ms, 1);
    out
}
