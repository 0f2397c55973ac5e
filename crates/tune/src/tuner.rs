//! The tuner: measured trials of every candidate behind a persistent
//! store.

use crate::candidates::{enumerate, Candidate};
use crate::store::{registry_hash, TuneEntry, TuneKey, TuneStore};
use crate::App;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use ump_apps::{airfoil, step_on, volna, Simulation};
use ump_core::exec::default_threads;
use ump_core::{Backend, ExecPool, PlanCache, Recorder};

/// A tuning decision: always a concrete registered [`Backend`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Choice {
    /// The selected backend.
    pub backend: Backend,
    /// The selected block size.
    pub block_size: usize,
    /// Measured trials run to make this decision (0 on a store hit).
    pub trials: u32,
    /// Did the decision come straight from the persistent store?
    pub from_store: bool,
    /// Measured wall seconds per timestep of the winner.
    pub seconds_per_step: f64,
    /// Measured useful bandwidth of the winner, GB/s (per-kernel
    /// [`LoopStats`](ump_core::LoopStats) sum; the fused paths report
    /// through the per-member attribution).
    pub gb_per_s: f64,
}

/// Counters a service layer can surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Total `pick` calls.
    pub picks: u64,
    /// Picks answered from the store with zero trials.
    pub store_hits: u64,
    /// Picks that had to search.
    pub store_misses: u64,
    /// Measured trials run across all searches.
    pub trials_run: u64,
}

/// The self-tuning backend selector. Construction reads the host's core
/// count; `pick` answers from the store when it can and otherwise times
/// every candidate.
pub struct Tuner {
    cores: usize,
    trial_steps: u64,
    team: usize,
    store_path: Option<PathBuf>,
    store: Mutex<TuneStore>,
    pool: OnceLock<ExecPool>,
    picks: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    trials_run: AtomicU64,
}

impl Default for Tuner {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("cores", &self.cores)
            .field("trial_steps", &self.trial_steps)
            .field("team", &self.team)
            .field("store_path", &self.store_path)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Tuner {
    /// A tuner for this host (its `available_parallelism` keys the
    /// store and sizes the default team); no persistence.
    pub fn new() -> Tuner {
        let cores = default_threads();
        Tuner {
            cores,
            trial_steps: 2,
            team: cores.clamp(1, 8),
            store_path: None,
            store: Mutex::new(TuneStore::new()),
            pool: OnceLock::new(),
            picks: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            trials_run: AtomicU64::new(0),
        }
    }

    /// Persist decisions to (and warm-start from) a UMPT file. A
    /// missing, corrupt, or version-mismatched file degrades to an
    /// empty store — cold search, never a panic.
    pub fn with_store_path(mut self, path: impl Into<PathBuf>) -> Tuner {
        let path = path.into();
        if let Ok(loaded) = TuneStore::load(&path) {
            *self.store.lock().unwrap() = loaded;
        }
        self.store_path = Some(path);
        self
    }

    /// Seed the store directly (tests; service layers that manage their
    /// own persistence).
    pub fn with_store(self, store: TuneStore) -> Tuner {
        *self.store.lock().unwrap() = store;
        self
    }

    /// Timed steps per trial after the one planning warm-up step
    /// (default 2).
    pub fn with_trial_steps(mut self, steps: u64) -> Tuner {
        self.trial_steps = steps.max(1);
        self
    }

    /// Worker-team size used for pooled trial backends (default: the
    /// host's cores, capped at 8).
    pub fn with_team(mut self, team: usize) -> Tuner {
        self.team = team.max(1);
        self
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TunerStats {
        TunerStats {
            picks: self.picks.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            trials_run: self.trials_run.load(Ordering::Relaxed),
        }
    }

    /// Current store contents (cloned).
    pub fn store(&self) -> TuneStore {
        self.store.lock().unwrap().clone()
    }

    /// The trial pool (created lazily; shared with the `step_auto`
    /// convenience drivers).
    pub fn pool(&self) -> &ExecPool {
        self.pool.get_or_init(|| ExecPool::new(self.team))
    }

    fn key(&self, app: App, nx: usize, ny: usize) -> TuneKey {
        TuneKey {
            app,
            nx: nx as u64,
            ny: ny as u64,
            registry: registry_hash(),
            cores: self.cores as u64,
        }
    }

    /// Decide the backend for `(app, nx, ny)`: a pure store lookup on a
    /// warm start (zero trials, zero planning), otherwise a measured
    /// search over every candidate whose result is persisted.
    pub fn pick(&self, app: App, nx: usize, ny: usize) -> Choice {
        self.picks.fetch_add(1, Ordering::Relaxed);
        let key = self.key(app, nx, ny);
        if let Some(e) = self.store.lock().unwrap().lookup(&key) {
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            return Choice {
                backend: e.backend,
                block_size: e.block_size,
                trials: 0,
                from_store: true,
                seconds_per_step: e.seconds_per_step,
                gb_per_s: e.gb_per_s,
            };
        }
        self.store_misses.fetch_add(1, Ordering::Relaxed);
        let choice = self.search(app, nx, ny);
        self.trials_run
            .fetch_add(choice.trials as u64, Ordering::Relaxed);
        let mut store = self.store.lock().unwrap();
        store.upsert(TuneEntry {
            key,
            backend: choice.backend,
            block_size: choice.block_size,
            trials: choice.trials,
            seconds_per_step: choice.seconds_per_step.max(f64::MIN_POSITIVE),
            gb_per_s: choice.gb_per_s.max(0.0),
        });
        if let Some(path) = &self.store_path {
            // best-effort persistence: an unwritable store costs a
            // re-search next process, nothing else
            let _ = std::fs::write(path, store.encode());
        }
        choice
    }

    fn search(&self, app: App, nx: usize, ny: usize) -> Choice {
        match app {
            App::Airfoil => self.search_on(app, airfoil::Airfoil::<f64>::seeded(nx, ny, 0)),
            App::Volna => self.search_on(app, volna::Volna::<f64>::seeded(nx, ny, 0)),
        }
    }

    /// The trial search on `pristine`: every trial steps a clone of it
    /// through the registry's `step_on`, once to plan, then timed.
    fn search_on<S: Simulation + Clone>(&self, app: App, pristine: S) -> Choice {
        self.run_trials(app, |cand, rec| {
            let mut sim = pristine.clone();
            let pool = self.pool();
            let cache = PlanCache::new();
            step_on(
                cand.backend,
                &mut sim,
                pool,
                &cache,
                0,
                cand.block_size,
                None,
            );
            let t0 = Instant::now();
            for _ in 0..self.trial_steps {
                step_on(
                    cand.backend,
                    &mut sim,
                    pool,
                    &cache,
                    0,
                    cand.block_size,
                    Some(rec),
                );
            }
            t0.elapsed().as_secs_f64() / self.trial_steps as f64
        })
    }

    /// Run one warmed, timed trial per candidate of [`enumerate`] and
    /// keep the measured-best. `run` returns wall seconds/step;
    /// per-kernel rates come from the recorder it fills.
    fn run_trials<F>(&self, app: App, mut run: F) -> Choice
    where
        F: FnMut(&Candidate, &Recorder) -> f64,
    {
        let mut best: Option<Choice> = None;
        let mut trials = 0u32;
        for cand in &enumerate() {
            let rec = Recorder::new();
            let secs = run(cand, &rec);
            trials += 1;
            let gb = useful_gb_per_s(app, &rec);
            if best.as_ref().is_none_or(|b| secs < b.seconds_per_step) {
                best = Some(Choice {
                    backend: cand.backend,
                    block_size: cand.block_size,
                    trials: 0,
                    from_store: false,
                    seconds_per_step: secs,
                    gb_per_s: gb,
                });
            }
        }
        let mut choice = best.expect("the registry is never empty");
        choice.trials = trials;
        choice
    }
}

/// Sum the app's per-kernel [`LoopStats`](ump_core::LoopStats) into one
/// useful-bandwidth figure (GB/s). With the fused paths attributing
/// group time back to member loops, this works identically across
/// every registered shape.
fn useful_gb_per_s(app: App, rec: &Recorder) -> f64 {
    let mut bytes = 0.0;
    let mut seconds = 0.0;
    for (kernel, _, _) in app.kernels() {
        if let Some(s) = rec.get(kernel) {
            bytes += s.bytes;
            seconds += s.seconds;
        }
    }
    if seconds > 0.0 {
        bytes / seconds / 1e9
    } else {
        0.0
    }
}

/// One auto-tuned timestep of either app on an explicit pool: pick for
/// the app named by `S::NAME` (store hit after the first call), then
/// dispatch through the registry's `step_on`. `nx`/`ny` must be the
/// dims `sim` was built with — the sim does not carry them.
pub fn step_auto_on<S: Simulation<R = f64>>(
    tuner: &Tuner,
    sim: &mut S,
    nx: usize,
    ny: usize,
    pool: &ExecPool,
    cache: &PlanCache,
    rec: Option<&Recorder>,
) -> f64 {
    let app = App::parse(S::NAME).expect("every Simulation is a tuner App");
    let c = tuner.pick(app, nx, ny);
    step_on(c.backend, sim, pool, cache, 0, c.block_size, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_tuner() -> Tuner {
        Tuner::new().with_trial_steps(1).with_team(2)
    }

    #[test]
    fn every_candidate_is_timed_and_the_measured_minimum_wins() {
        // the winner can be any row, even `seq` on a multi-core host, so
        // every candidate is timed and the measured minimum is kept
        let tuner = fast_tuner();
        let mut timed = Vec::new();
        let choice = tuner.run_trials(App::Airfoil, |cand, _rec| {
            timed.push(*cand);
            if cand.backend == Backend::Seq {
                1e-3
            } else {
                2e-3 + timed.len() as f64 * 1e-6
            }
        });
        assert_eq!(choice.backend, Backend::Seq);
        assert_eq!(choice.seconds_per_step, 1e-3);
        assert_eq!(choice.trials as usize, enumerate().len());
        assert_eq!(enumerate().len(), 19, "11 rows, 8 pooled ones at 2 blocks");
        assert_eq!(timed, enumerate(), "each candidate timed once, in order");
    }

    #[test]
    fn cold_pick_searches_then_warm_pick_hits_the_store() {
        let tuner = fast_tuner();
        let cold = tuner.pick(App::Airfoil, 12, 8);
        assert!(Backend::all().contains(&cold.backend));
        assert!(!cold.from_store);
        assert_eq!(
            cold.trials as usize,
            enumerate().len(),
            "a cold pick times every candidate"
        );
        assert!(cold.seconds_per_step > 0.0);

        let warm = tuner.pick(App::Airfoil, 12, 8);
        assert!(warm.from_store);
        assert_eq!(warm.trials, 0, "warm start must run zero trials");
        assert_eq!(warm.backend, cold.backend);
        assert_eq!(warm.block_size, cold.block_size);

        let stats = tuner.stats();
        assert_eq!(stats.picks, 2);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.store_misses, 1);
        assert_eq!(stats.trials_run, enumerate().len() as u64);
    }

    #[test]
    fn different_mesh_or_app_is_a_different_key() {
        let tuner = fast_tuner();
        tuner.pick(App::Airfoil, 12, 8);
        let c2 = tuner.pick(App::Airfoil, 16, 8);
        assert!(!c2.from_store, "different dims must re-search");
        let c3 = tuner.pick(App::Volna, 12, 8);
        assert!(!c3.from_store, "different app must re-search");
        assert_eq!(tuner.stats().store_misses, 3);
    }

    #[test]
    fn step_auto_matches_seq_bitwise_tolerance() {
        let tuner = fast_tuner();
        let pool = ExecPool::new(2);
        let cache = PlanCache::new();
        let mut auto = ump_apps::airfoil::Airfoil::<f64>::seeded(12, 8, 0);
        let mut refr = ump_apps::airfoil::Airfoil::<f64>::seeded(12, 8, 0);
        for _ in 0..3 {
            let a = step_auto_on(&tuner, &mut auto, 12, 8, &pool, &cache, None);
            let s = airfoil::drivers::step_seq(&mut refr, None);
            assert!((a - s).abs() <= 1e-12, "rms diverged: {a} vs {s}");
        }
    }
}
