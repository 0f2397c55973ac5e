//! The simulation service: bounded admission, shared-pool scheduling,
//! streamed frames, cancellation, and checkpoint-based resume.
//!
//! # Scheduling policy
//!
//! The service owns `pools` worker threads, each with its own persistent
//! [`ExecPool`] of `team` threads. Admitted jobs sit in one FIFO *ready
//! queue*; a worker leases the head job, runs at most `slice_steps`
//! timesteps, and — if the job is unfinished — requeues it at the
//! *tail*. This is plain round-robin time slicing: with `J` runnable
//! jobs, every job receives a slice within `J − 1` lease turns of its
//! last one, so N jobs make fair progress over M ≪ N pools with no
//! priorities, no work stealing, and no job-side cooperation. A slice
//! is steps, not wall time, so heavier meshes get proportionally longer
//! turns; slices never migrate a job mid-step, and because every
//! backend is deterministic for a fixed team size, *which* pool runs a
//! slice never affects the bits it produces.
//!
//! # Admission and backpressure
//!
//! `admission_capacity` bounds jobs in flight (queued + leased).
//! [`Service::submit`] rejects — immediately, with a
//! [`Rejection`] naming the reason — rather than blocking the caller:
//! a saturated service sheds load at the door instead of queueing
//! unboundedly. Requeued slices are already admitted and bypass the
//! bound.
//!
//! # Determinism
//!
//! A job's results depend only on its [`JobSpec`] and the service's
//! `team` size — never on pool count, queue order, slice length, or
//! contention. The checkpoint/restart tests assert the strongest form:
//! a job cancelled mid-flight and resumed from its snapshot finishes
//! bit-identical to an uninterrupted run.
//!
//! # What the service holds
//!
//! Held memory grows with the jobs in flight, not with the jobs ever
//! served: the live state of each admitted job, the latest periodic
//! checkpoint of each running one, and one built mesh per distinct
//! in-flight mesh identity ([`JobSpec::cache_scope`]) — a pristine,
//! seed-0 simulation built at the identity's first lease, cloned into
//! every job of that identity, and freed when the last one ends. A
//! finished job leaves nothing behind: [`JobOutcome::snapshot`] is the
//! only copy of its final state.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use ump_core::{Backend, ExecPool, PlanCache};
use ump_fault::{FaultInjector, JobFault};

use ump_tune::Tuner;

use crate::job::{JobSpec, JobState, Sim};

/// Bounded retry-with-backoff for failed or stuck jobs.
///
/// A job whose slice fails (kernel panic, injected kill, watchdog
/// abort) is restored from its last periodic checkpoint — or restarted
/// from its original spec/snapshot when no checkpoint is decodable —
/// and requeued, up to `max_attempts` retries with a linear backoff of
/// `backoff × attempt`. Because every backend is deterministic, a
/// retried run finishes bit-identical to an uninterrupted one (the
/// resilience golden tests assert exactly this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail fast, the default).
    pub max_attempts: u32,
    /// Base backoff; retry `k` (1-based) is delayed `backoff × k`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// Service sizing knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads, each owning one shared `ExecPool` (jobs are
    /// multiplexed over these — the ≤ 4 pools of the acceptance run).
    pub pools: usize,
    /// Threads per pool. Part of the determinism contract: resuming a
    /// snapshot under a different team size is allowed but only the
    /// same team size guarantees bit-identity for threaded backends.
    pub team: usize,
    /// Maximum jobs in flight (queued + running); submissions beyond
    /// this are rejected with [`Rejection::Saturated`].
    pub admission_capacity: usize,
    /// Timesteps per lease before an unfinished job is requeued.
    pub slice_steps: u64,
    /// Capacity of the shared cross-job plan cache.
    pub plan_cache_capacity: usize,
    /// Recovery policy for failed/stuck jobs.
    pub retry: RetryPolicy,
    /// Per-lease watchdog deadline: a lease that holds a pool longer
    /// than this is aborted at its next cooperative check (step
    /// boundary or stall poll) and handled by the retry policy.
    /// `Duration::ZERO` (the default) disables the watchdog.
    pub lease_timeout: Duration,
    /// Deterministic fault injection for resilience tests (`None` in
    /// production: the hooks reduce to one branch per step).
    pub fault: Option<Arc<FaultInjector>>,
    /// Tuner consulted by [`Service::submit_auto`]. `None` builds a
    /// default [`Tuner`] (`Tuner::new()`) lazily on the first auto
    /// submission; supply one to control trial budget or persistence.
    pub tuner: Option<Arc<Tuner>>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pools: 4,
            team: 2,
            admission_capacity: 64,
            slice_steps: 8,
            plan_cache_capacity: 256,
            retry: RetryPolicy::default(),
            lease_timeout: Duration::ZERO,
            fault: None,
            tuner: None,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The in-flight bound is reached; retry after jobs complete.
    Saturated {
        /// Jobs currently in flight.
        in_flight: usize,
        /// The configured admission bound.
        capacity: usize,
    },
    /// The spec (or snapshot) failed validation; the string names the
    /// offending field.
    Invalid(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Saturated {
                in_flight,
                capacity,
            } => {
                write!(
                    f,
                    "service saturated: {in_flight}/{capacity} jobs in flight"
                )
            }
            Rejection::Invalid(why) => write!(f, "invalid job: {why}"),
        }
    }
}

/// One per-step result streamed while a job runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Frame {
    /// 1-based step index within the job.
    pub step: u64,
    /// The step's reduction value (Airfoil RMS / Volna Δt).
    pub value: f64,
}

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran all `spec.steps` steps.
    Completed,
    /// Cancelled via [`Service::cancel`]; the outcome snapshot holds
    /// the state at the point of cancellation, ready for
    /// [`Service::resume`].
    Cancelled,
    /// A step panicked; the payload is the panic message.
    Failed(String),
}

/// Everything a job leaves behind.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The service-assigned job id.
    pub id: u64,
    /// The job's spec (embedded in `snapshot` too).
    pub spec: JobSpec,
    /// How the job ended.
    pub status: JobStatus,
    /// Steps completed.
    pub steps_done: u64,
    /// Per-step reduction values of every completed step.
    pub history: Vec<f64>,
    /// Final state in the versioned snapshot format — decode with
    /// [`JobState::restore`], or feed to [`Service::resume`] to
    /// continue a cancelled job. The service keeps no copy.
    pub snapshot: Vec<u8>,
    /// Pool-seconds this job's leases held a pool: state
    /// materialization (mesh clone, snapshot restore) and its slices.
    pub busy_seconds: f64,
    /// Recovery attempts consumed (0 = the job never failed a slice).
    pub attempts: u32,
}

impl JobOutcome {
    /// Rebuild the final [`JobState`] from the outcome snapshot.
    pub fn final_state(&self) -> JobState {
        JobState::restore(&self.snapshot).expect("service snapshots are self-consistent")
    }
}

/// Client handle: per-step frames plus the terminal outcome.
pub struct JobHandle {
    /// The service-assigned job id (also on every outcome).
    pub id: u64,
    /// The admitted spec.
    pub spec: JobSpec,
    frames: Receiver<Frame>,
    outcome: Receiver<JobOutcome>,
}

impl JobHandle {
    /// Block until the job reaches a terminal state.
    ///
    /// # Panics
    /// If the service was dropped before the job finished.
    pub fn wait(&self) -> JobOutcome {
        self.outcome
            .recv()
            .expect("service dropped before the job completed")
    }

    /// The stream of per-step frames. Frames are buffered unboundedly
    /// until read, so they can also be drained after
    /// [`wait`](JobHandle::wait) returns.
    pub fn frames(&self) -> &Receiver<Frame> {
        &self.frames
    }
}

/// A job owned by the ready queue or a worker.
struct Active {
    id: u64,
    spec: JobSpec,
    /// The snapshot a resumed job was submitted with (`None`: a fresh
    /// job). Kept for the job's whole life: the retry path falls back to
    /// it — or to the spec — when no periodic checkpoint decodes.
    resumed_from: Option<Vec<u8>>,
    state: Option<JobState>,
    /// The pristine simulation of the job's mesh identity, built by the
    /// identity's first lease; holding it keeps it alive while the job
    /// is in flight.
    template: Arc<OnceLock<Sim>>,
    /// Scoped view of the shared plan cache (`JobSpec::cache_scope`).
    cache: PlanCache,
    frames: Sender<Frame>,
    outcome: Sender<JobOutcome>,
    cancel: Arc<AtomicBool>,
    /// Set by the lease watchdog; checked at the same cooperative
    /// boundaries as `cancel`, but routed to the retry policy.
    abort: Arc<AtomicBool>,
    busy_seconds: f64,
    /// Recovery attempts consumed so far.
    attempts: u32,
    /// Backoff gate: not leased again before this instant.
    not_before: Option<Instant>,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    rejected: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    retried: u64,
    watchdog_fired: u64,
    /// Jobs whose backend was chosen by the tuner.
    tuned: u64,
    /// Measured tuning trials run on behalf of auto submissions.
    tune_trials: u64,
    /// Auto submissions answered from the persistent tuning store.
    tune_store_hits: u64,
    /// Auto submissions that required a fresh search.
    tune_store_misses: u64,
    /// Leased right now (≤ pools).
    running: usize,
    /// Materializations that built their mesh identity's template.
    mesh_builds: usize,
    /// Materializations that cloned an already built template.
    mesh_hits: usize,
    /// (steps, busy seconds) per backend.
    per_backend: HashMap<Backend, (u64, f64)>,
}

/// A point-in-time view of service health: queue depths, terminal
/// counts, per-backend step throughput, and the hit/build counters of
/// the shared plan cache and of the mesh templates.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Jobs admitted so far.
    pub submitted: u64,
    /// Submissions rejected (saturation or validation).
    pub rejected: u64,
    /// Jobs waiting in the ready queue.
    pub queued: usize,
    /// Jobs currently leased to a pool.
    pub running: usize,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Recovery retries performed (checkpoint restore + requeue).
    pub retried: u64,
    /// Leases aborted by the watchdog deadline.
    pub watchdog_fired: u64,
    /// Jobs admitted through [`Service::submit_auto`] with a
    /// tuner-chosen backend.
    pub tuned: u64,
    /// Measured tuning trials run on behalf of auto submissions.
    pub tune_trials: u64,
    /// Auto submissions whose backend came straight from the
    /// persistent tuning store (zero trials).
    pub tune_store_hits: u64,
    /// Auto submissions that required a fresh measured search.
    pub tune_store_misses: u64,
    /// Plan-cache hits across all jobs (shared LRU cache).
    pub plan_hits: usize,
    /// Plans actually built across all jobs.
    pub plan_builds: usize,
    /// Job states materialized from an already built mesh (a clone of
    /// the identity's template).
    pub mesh_hits: usize,
    /// Meshes actually built: one per mesh identity each time it goes
    /// from no job in flight to one.
    pub mesh_builds: usize,
    /// Per-backend execution totals.
    pub per_backend: Vec<BackendThroughput>,
}

/// Execution totals for one backend across all jobs.
#[derive(Clone, Debug)]
pub struct BackendThroughput {
    /// Canonical backend name.
    pub backend: String,
    /// Timesteps executed on this backend.
    pub steps: u64,
    /// Pool-seconds of the leases that ran those steps, state
    /// materialization included.
    pub seconds: f64,
}

impl BackendThroughput {
    /// Steps per pool-second (0 when nothing ran).
    pub fn steps_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.steps as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A live lease entry, watched by the watchdog thread.
struct Lease {
    started: Instant,
    abort: Arc<AtomicBool>,
}

struct Shared {
    ready: Mutex<VecDeque<Active>>,
    ready_cv: Condvar,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    counters: Mutex<Counters>,
    cache: PlanCache,
    slice_steps: u64,
    retry: RetryPolicy,
    lease_timeout: Duration,
    fault: Option<Arc<FaultInjector>>,
    /// Latest periodic checkpoint per in-flight job id — the retry
    /// path's restore point; removed when the job ends.
    checkpoints: Mutex<HashMap<u64, Vec<u8>>>,
    /// The template of every mesh identity (`JobSpec::cache_scope`)
    /// with a job in flight; dead entries are pruned on insert.
    templates: Mutex<HashMap<String, Weak<OnceLock<Sim>>>>,
    /// Cancellation flags for every in-flight job.
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    /// Active leases, keyed by job id (the watchdog's scan set).
    leases: Mutex<HashMap<u64, Lease>>,
}

/// The mesh-simulation service. See the module docs for the policies;
/// see [`Service::submit`] for the client entry point.
///
/// ```
/// use ump_core::Backend;
/// use ump_serve::{App, JobSpec, JobStatus, Service, ServiceConfig};
///
/// let service = Service::new(ServiceConfig {
///     pools: 2,
///     team: 1,
///     ..ServiceConfig::default()
/// });
/// let h = service
///     .submit(JobSpec::new(App::Airfoil, 12, 6, Backend::Seq, 3).with_seed(5))
///     .unwrap();
/// let out = h.wait();
/// assert_eq!(out.status, JobStatus::Completed);
/// assert_eq!(out.history.len(), 3);
/// // one frame per step was streamed while the job ran
/// assert_eq!(h.frames().try_iter().count(), 3);
/// ```
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    next_id: AtomicU64,
    capacity: usize,
    tuner: std::sync::OnceLock<Arc<Tuner>>,
}

impl Service {
    /// Start the worker pools, the scheduler state, and (when a lease
    /// timeout is configured) the watchdog thread.
    pub fn new(config: ServiceConfig) -> Service {
        let shared = Arc::new(Shared {
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            counters: Mutex::new(Counters::default()),
            cache: PlanCache::with_capacity(config.plan_cache_capacity.max(1)),
            slice_steps: config.slice_steps.max(1),
            retry: config.retry,
            lease_timeout: config.lease_timeout,
            fault: config.fault.clone(),
            checkpoints: Mutex::new(HashMap::new()),
            templates: Mutex::new(HashMap::new()),
            cancels: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
        });
        let workers = (0..config.pools.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let team = config.team.max(1);
                std::thread::Builder::new()
                    .name(format!("ump-serve-{i}"))
                    .spawn(move || worker_loop(&shared, team))
                    .expect("spawning service worker")
            })
            .collect();
        let watchdog = (config.lease_timeout > Duration::ZERO).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ump-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawning service watchdog")
        });
        let tuner = std::sync::OnceLock::new();
        if let Some(t) = config.tuner {
            let _ = tuner.set(t);
        }
        Service {
            shared,
            workers,
            watchdog,
            next_id: AtomicU64::new(1),
            capacity: config.admission_capacity.max(1),
            tuner,
        }
    }

    /// The tuner behind [`submit_auto`](Service::submit_auto) — the
    /// configured one, or a default `Tuner::new()` built lazily on
    /// first use.
    pub fn tuner(&self) -> &Arc<Tuner> {
        self.tuner.get_or_init(|| Arc::new(Tuner::new()))
    }

    /// Submit a fresh job. Admission either succeeds immediately with a
    /// [`JobHandle`] or fails immediately with the reason — it never
    /// blocks on queue space.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejection> {
        if let Err(why) = spec.validate() {
            self.shared.counters.lock().rejected += 1;
            return Err(Rejection::Invalid(why));
        }
        self.admit(spec, None)
    }

    /// Submit a job whose backend (and block size) the tuner chooses:
    /// the spec's own `backend`/`block_size` are placeholders and are
    /// overwritten by [`Tuner::pick`] before admission. The admitted
    /// job — and any snapshot it produces — carries the concrete tuned
    /// backend, so resume and determinism guarantees are untouched.
    /// Tuning activity is surfaced through [`ServiceStats`]: `tuned`,
    /// `tune_trials`, `tune_store_hits`, `tune_store_misses`.
    pub fn submit_auto(&self, spec: JobSpec) -> Result<JobHandle, Rejection> {
        let choice = self.tuner().pick(spec.app, spec.nx, spec.ny);
        {
            let mut c = self.shared.counters.lock();
            c.tuned += 1;
            c.tune_trials += choice.trials as u64;
            if choice.from_store {
                c.tune_store_hits += 1;
            } else {
                c.tune_store_misses += 1;
            }
        }
        let mut tuned = spec;
        tuned.backend = choice.backend;
        tuned.block_size = choice.block_size;
        self.submit(tuned)
    }

    /// Resume a job from a snapshot (typically a cancelled job's
    /// [`JobOutcome::snapshot`] or a [`Service::checkpoint`]). The job
    /// continues from its recorded step toward `spec.steps`; a snapshot
    /// that already reached its step count is rejected as invalid.
    pub fn resume(&self, snapshot: &[u8]) -> Result<JobHandle, Rejection> {
        let (spec, steps_done) = JobState::peek(snapshot).map_err(|e| {
            self.shared.counters.lock().rejected += 1;
            Rejection::Invalid(e.to_string())
        })?;
        if steps_done >= spec.steps {
            self.shared.counters.lock().rejected += 1;
            return Err(Rejection::Invalid(format!(
                "snapshot already complete: {steps_done}/{} steps",
                spec.steps
            )));
        }
        self.admit(spec, Some(snapshot.to_vec()))
    }

    fn admit(&self, spec: JobSpec, resumed_from: Option<Vec<u8>>) -> Result<JobHandle, Rejection> {
        // reserve an in-flight slot or reject; CAS so concurrent
        // submitters cannot overshoot the bound
        let mut current = self.shared.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.capacity {
                self.shared.counters.lock().rejected += 1;
                return Err(Rejection::Saturated {
                    in_flight: current,
                    capacity: self.capacity,
                });
            }
            match self.shared.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let scope = spec.cache_scope();
        let template = {
            let mut templates = self.shared.templates.lock();
            let live = templates.get(&scope).and_then(Weak::upgrade);
            live.unwrap_or_else(|| {
                templates.retain(|_, t| t.strong_count() > 0);
                let template = Arc::new(OnceLock::new());
                templates.insert(scope.clone(), Arc::downgrade(&template));
                template
            })
        };
        let (frame_tx, frame_rx) = channel();
        let (outcome_tx, outcome_rx) = channel();
        let cancel = Arc::new(AtomicBool::new(false));
        self.shared.cancels.lock().insert(id, Arc::clone(&cancel));
        let job = Active {
            id,
            spec,
            resumed_from,
            state: None,
            template,
            cache: self.shared.cache.scoped(&scope),
            frames: frame_tx,
            outcome: outcome_tx,
            cancel,
            abort: Arc::new(AtomicBool::new(false)),
            busy_seconds: 0.0,
            attempts: 0,
            not_before: None,
        };
        {
            let mut counters = self.shared.counters.lock();
            counters.submitted += 1;
        }
        self.shared.ready.lock().push_back(job);
        self.shared.ready_cv.notify_one();
        Ok(JobHandle {
            id,
            spec,
            frames: frame_rx,
            outcome: outcome_rx,
        })
    }

    /// Request cancellation of a job. Returns `false` for unknown ids.
    /// The job stops at its next step boundary; its outcome carries
    /// status [`JobStatus::Cancelled`] and a resumable snapshot.
    pub fn cancel(&self, id: u64) -> bool {
        match self.shared.cancels.lock().get(&id) {
            Some(flag) => {
                flag.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// The latest periodic checkpoint of an in-flight job (cadence
    /// `spec.checkpoint_every`); `None` before the first one and after
    /// the job ends — its final state is in [`JobOutcome::snapshot`].
    pub fn checkpoint(&self, id: u64) -> Option<Vec<u8>> {
        self.shared.checkpoints.lock().get(&id).cloned()
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        let queued = self.shared.ready.lock().len();
        let counters = self.shared.counters.lock();
        let mut per_backend: Vec<BackendThroughput> = counters
            .per_backend
            .iter()
            .map(|(backend, &(steps, seconds))| BackendThroughput {
                backend: backend.name(),
                steps,
                seconds,
            })
            .collect();
        per_backend.sort_by(|a, b| a.backend.cmp(&b.backend));
        ServiceStats {
            submitted: counters.submitted,
            rejected: counters.rejected,
            queued,
            running: counters.running,
            completed: counters.completed,
            cancelled: counters.cancelled,
            failed: counters.failed,
            retried: counters.retried,
            watchdog_fired: counters.watchdog_fired,
            tuned: counters.tuned,
            tune_trials: counters.tune_trials,
            tune_store_hits: counters.tune_store_hits,
            tune_store_misses: counters.tune_store_misses,
            plan_hits: self.shared.cache.hits(),
            plan_builds: self.shared.cache.builds(),
            mesh_hits: counters.mesh_hits,
            mesh_builds: counters.mesh_builds,
            per_backend,
        }
    }

    /// Jobs in flight right now (queued + running).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }
}

impl Drop for Service {
    /// Graceful drain: workers finish every admitted job, then exit.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.ready_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

/// The lease watchdog: periodically scans live leases and aborts any
/// that outlived the deadline. Abortion is cooperative — the worker
/// notices the flag at its next step boundary (or stall poll) and
/// routes the job to the retry policy.
fn watchdog_loop(shared: &Shared) {
    let poll =
        (shared.lease_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    while !shared.shutdown.load(Ordering::Acquire) || !shared.leases.lock().is_empty() {
        std::thread::sleep(poll);
        let now = Instant::now();
        let mut fired = 0u64;
        {
            let leases = shared.leases.lock();
            for lease in leases.values() {
                if now.duration_since(lease.started) > shared.lease_timeout
                    && !lease.abort.swap(true, Ordering::AcqRel)
                {
                    fired += 1;
                }
            }
        }
        if fired > 0 {
            shared.counters.lock().watchdog_fired += fired;
        }
    }
}

/// One pool worker: lease → slice → requeue/retry/finalize, until
/// shutdown *and* an empty queue (drain semantics — backed-off retries
/// are waited out, not abandoned).
fn worker_loop(shared: &Shared, team: usize) {
    let pool = ExecPool::new(team);
    loop {
        let mut job = {
            let mut ready = shared.ready.lock();
            loop {
                let now = Instant::now();
                // FIFO among leasable entries; backed-off retries are
                // skipped until their gate opens
                if let Some(pos) = ready
                    .iter()
                    .position(|j| j.not_before.is_none_or(|t| t <= now))
                {
                    break ready.remove(pos).expect("position just found");
                }
                let backoff_wait = ready
                    .iter()
                    .filter_map(|j| j.not_before)
                    .map(|t| t.saturating_duration_since(now))
                    .min();
                match backoff_wait {
                    // only backed-off jobs queued: sleep out the nearest
                    // gate (shutdown still drains them afterward)
                    Some(wait) => {
                        shared
                            .ready_cv
                            .wait_for(&mut ready, wait.max(Duration::from_millis(1)));
                    }
                    None => {
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        shared.ready_cv.wait(&mut ready);
                    }
                }
            }
        };
        job.not_before = None;
        shared.counters.lock().running += 1;
        if shared.lease_timeout > Duration::ZERO {
            shared.leases.lock().insert(
                job.id,
                Lease {
                    started: Instant::now(),
                    abort: Arc::clone(&job.abort),
                },
            );
        }
        let disposition = run_slice(shared, &pool, &mut job);
        if shared.lease_timeout > Duration::ZERO {
            shared.leases.lock().remove(&job.id);
        }
        shared.counters.lock().running -= 1;
        match disposition {
            Disposition::Requeue => {
                shared.ready.lock().push_back(job);
                shared.ready_cv.notify_one();
            }
            Disposition::Finished(JobStatus::Failed(_))
                if job.attempts < shared.retry.max_attempts
                    && !job.cancel.load(Ordering::Acquire) =>
            {
                retry(shared, job);
            }
            Disposition::Finished(status) => finalize(shared, job, status),
        }
    }
}

/// Recover a failed job: drop its state, apply the linear backoff, and
/// requeue. The next lease rematerializes it from its last periodic
/// checkpoint, or as at its first lease when none decodes. Determinism makes
/// either restore point bit-safe; the checkpoint just resumes closer to
/// the failure.
fn retry(shared: &Shared, mut job: Active) {
    job.attempts += 1;
    shared.counters.lock().retried += 1;
    job.abort.store(false, Ordering::Release);
    job.state = None;
    let backoff = shared.retry.backoff * job.attempts;
    job.not_before = (backoff > Duration::ZERO).then(|| Instant::now() + backoff);
    shared.ready.lock().push_back(job);
    shared.ready_cv.notify_one();
}

enum Disposition {
    Requeue,
    Finished(JobStatus),
}

/// Run one lease: materialize the state if needed, then
/// [`run_steps`]. The lease clock starts before materialization: a mesh
/// clone or snapshot restore holds the pool as surely as a step does.
fn run_slice(shared: &Shared, pool: &ExecPool, job: &mut Active) -> Disposition {
    let t0 = Instant::now();
    let (steps, status) = match materialize(shared, job) {
        Ok(()) => run_steps(shared, pool, job),
        Err(why) => (0, Some(JobStatus::Failed(why))),
    };
    let busy = t0.elapsed().as_secs_f64();
    job.busy_seconds += busy;
    {
        let mut counters = shared.counters.lock();
        let entry = counters
            .per_backend
            .entry(job.spec.backend)
            .or_insert((0, 0.0));
        entry.0 += steps;
        entry.1 += busy;
    }
    match status {
        None => Disposition::Requeue,
        Some(s) => Disposition::Finished(s),
    }
}

/// Give a job without a state (first lease, or the lease after a failed
/// slice) one: from its last periodic checkpoint when one decodes, else
/// from its submitted snapshot or its spec — either way on a clone of
/// its mesh identity's template, which the identity's first
/// materialization builds. Doing this on the worker keeps `submit`
/// cheap (admission is a queue push).
fn materialize(shared: &Shared, job: &mut Active) -> Result<(), String> {
    if job.state.is_some() {
        return Ok(());
    }
    let (id, spec, template) = (job.id, job.spec, &job.template);
    let resumed_from = job.resumed_from.as_deref();
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut first = false;
        let template = template.get_or_init(|| {
            first = true;
            Sim::pristine(&spec)
        });
        {
            let mut counters = shared.counters.lock();
            if first {
                counters.mesh_builds += 1;
            } else {
                counters.mesh_hits += 1;
            }
        }
        // a corrupt checkpoint must surface as a typed decode error and
        // fall through, never take down the worker
        let checkpoint = shared.checkpoints.lock().get(&id).cloned();
        let resumed = checkpoint.and_then(|bytes| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                JobState::restore_onto(&bytes, &spec, template)
            }))
            .ok()
            .and_then(Result::ok)
        });
        match (resumed, resumed_from) {
            (Some(state), _) => Ok(state),
            (None, None) => Ok(JobState::fresh(spec, template.clone())),
            (None, Some(bytes)) => JobState::restore_onto(bytes, &spec, template),
        }
    }));
    match built {
        Ok(Ok(state)) => {
            job.state = Some(state);
            Ok(())
        }
        Ok(Err(e)) => Err(e.to_string()),
        Err(p) => Err(panic_msg(&p)),
    }
}

/// Up to `slice_steps` timesteps of a materialized job, with frame
/// streaming, periodic checkpointing, and cancellation checks at step
/// boundaries. Returns the steps run and the terminal status, if the
/// job reached one.
fn run_steps(shared: &Shared, pool: &ExecPool, job: &mut Active) -> (u64, Option<JobStatus>) {
    let state = job.state.as_mut().expect("state materialized");
    let spec = job.spec;
    let mut steps_this_slice = 0u64;
    let status = loop {
        if job.cancel.load(Ordering::Acquire) {
            break Some(JobStatus::Cancelled);
        }
        if job.abort.load(Ordering::Acquire) {
            break Some(JobStatus::Failed(
                "watchdog: lease deadline exceeded".into(),
            ));
        }
        if state.is_done() {
            break Some(JobStatus::Completed);
        }
        if steps_this_slice >= shared.slice_steps {
            break None;
        }
        // deterministic fault hook, keyed (job id, 1-based step index);
        // one branch when no injector is configured
        let mut inject_panic = false;
        if let Some(inj) = &shared.fault {
            match inj.on_job_step(job.id, state.steps_done() + 1) {
                Some(JobFault::Kill) => {
                    break Some(JobStatus::Failed(format!(
                        "injected fault: worker killed at step {}",
                        state.steps_done() + 1
                    )));
                }
                Some(JobFault::Panic) => inject_panic = true,
                Some(JobFault::Stall(dur)) => {
                    // cooperative stall: sleeps in watchdog-visible
                    // increments so an abort (or cancel) interrupts it
                    let until = Instant::now() + dur;
                    while Instant::now() < until
                        && !job.abort.load(Ordering::Acquire)
                        && !job.cancel.load(Ordering::Acquire)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue; // re-run the boundary checks
                }
                None => {}
            }
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected fault: kernel panic in job {} step {}",
                    job.id,
                    state.steps_done() + 1
                );
            }
            state.step(pool, &job.cache, None)
        }));
        let value = match stepped {
            Ok(v) => v,
            Err(p) => break Some(JobStatus::Failed(panic_msg(&p))),
        };
        steps_this_slice += 1;
        let step = state.steps_done();
        // receivers may be gone (client dropped the handle) — keep going
        let _ = job.frames.send(Frame { step, value });
        if spec.checkpoint_every > 0 && step.is_multiple_of(spec.checkpoint_every) {
            let mut snap = state.snapshot();
            if let Some(inj) = &shared.fault {
                if let Some(byte) = inj.corrupt_checkpoint(job.id) {
                    if !snap.is_empty() {
                        let i = byte as usize % snap.len();
                        snap[i] ^= 0xff;
                    }
                }
            }
            shared.checkpoints.lock().insert(job.id, snap);
        }
        if state.is_done() {
            break Some(JobStatus::Completed);
        }
    };
    (steps_this_slice, status)
}

/// Record the terminal state, release everything the service held for
/// the job — its checkpoint, its live state, its hold on the mesh
/// template, its admission slot — and deliver the outcome, which
/// carries the only copy of the final snapshot.
fn finalize(shared: &Shared, job: Active, status: JobStatus) {
    let Active {
        id,
        spec,
        state,
        template,
        outcome,
        busy_seconds,
        attempts,
        ..
    } = job;
    let (steps_done, history, snapshot) = match state {
        Some(state) => (
            state.steps_done(),
            state.history().to_vec(),
            state.snapshot(),
        ),
        // failed before materializing: nothing to snapshot
        None => (0, Vec::new(), Vec::new()),
    };
    // released before the outcome is sent, so a client that resubmits on
    // receipt finds this job's template already gone if it was the last
    drop(template);
    {
        let mut counters = shared.counters.lock();
        match &status {
            JobStatus::Completed => counters.completed += 1,
            JobStatus::Cancelled => counters.cancelled += 1,
            JobStatus::Failed(_) => counters.failed += 1,
        }
    }
    shared.checkpoints.lock().remove(&id);
    shared.cancels.lock().remove(&id);
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    let _ = outcome.send(JobOutcome {
        id,
        spec,
        status,
        steps_done,
        history,
        snapshot,
        busy_seconds,
        attempts,
    });
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".into()
    }
}
