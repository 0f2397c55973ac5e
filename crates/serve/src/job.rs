//! Job specifications and the resumable per-job simulation state.
//!
//! A [`JobSpec`] is everything needed to reproduce a simulation from
//! nothing: application, mesh dimensions, backend, step count, seed,
//! and block size. Meshes, geometry, and seeded initial conditions are
//! all deterministic functions of the spec, which is what makes the
//! snapshot format small (evolving state only) and restart bit-exact.
//!
//! A [`JobState`] is a spec plus the live simulation: the evolving
//! dats, the step counter, and the per-step reduction history (RMS for
//! Airfoil, Δt for Volna). [`JobState::snapshot`] /
//! [`JobState::restore`] round-trip it through the versioned binary
//! format of [`crate::snapshot`].

use std::io;

use ump_apps::{airfoil, volna};
use ump_core::{Backend, ExecPool, OpDat, PlanCache, Recorder};

/// Which benchmark application a job runs. Both run at `f64` in the
/// service (the precision every backend is conformance-tested at).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// The Airfoil inviscid Euler solver (per-step value: RMS residual).
    Airfoil,
    /// The Volna shallow-water solver (per-step value: Δt).
    Volna,
}

impl App {
    /// Canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            App::Airfoil => "airfoil",
            App::Volna => "volna",
        }
    }

    /// Parse the canonical spelling back.
    pub fn parse(s: &str) -> Option<App> {
        match s {
            "airfoil" => Some(App::Airfoil),
            "volna" => Some(App::Volna),
            _ => None,
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete, self-describing simulation request.
///
/// ```
/// use ump_core::Backend;
/// use ump_serve::{App, JobSpec};
///
/// let spec = JobSpec::new(App::Airfoil, 48, 24, Backend::Fused, 10)
///     .with_seed(7)
///     .with_checkpoint_every(5);
/// assert!(spec.validate().is_ok());
/// assert_eq!(spec.cache_scope(), "airfoil:48x24");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Application to run.
    pub app: App,
    /// Mesh dimensions (generator arguments).
    pub nx: usize,
    /// Second mesh dimension.
    pub ny: usize,
    /// Execution shape, from the unified registry.
    pub backend: Backend,
    /// Total timesteps the job runs.
    pub steps: u64,
    /// Initial-condition seed (0 = pristine case); see
    /// `Airfoil::perturb` / `Volna::perturb`.
    pub seed: u64,
    /// Colored-block size for pool backends.
    pub block_size: usize,
    /// Snapshot cadence in steps (0 = no periodic checkpoints). The
    /// service holds only the latest one, and only while the job is in
    /// flight; the final state travels in the job outcome.
    pub checkpoint_every: u64,
}

impl JobSpec {
    /// A spec with the default seed (0), block size (64), and no
    /// periodic checkpointing.
    pub fn new(app: App, nx: usize, ny: usize, backend: Backend, steps: u64) -> JobSpec {
        JobSpec {
            app,
            nx,
            ny,
            backend,
            steps,
            seed: 0,
            block_size: 64,
            checkpoint_every: 0,
        }
    }

    /// Set the initial-condition seed.
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = seed;
        self
    }

    /// Set the colored-block size.
    pub fn with_block_size(mut self, block_size: usize) -> JobSpec {
        self.block_size = block_size;
        self
    }

    /// Set the periodic checkpoint cadence.
    pub fn with_checkpoint_every(mut self, every: u64) -> JobSpec {
        self.checkpoint_every = every;
        self
    }

    /// Admission-time validation; the error string is the rejection
    /// reason surfaced to the submitter.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("steps must be >= 1".into());
        }
        if self.steps > 10_000_000 {
            return Err(format!("steps {} too large (max 10000000)", self.steps));
        }
        if self.nx < 2 || self.ny < 2 {
            return Err(format!("mesh {}x{} too small (min 2x2)", self.nx, self.ny));
        }
        // upper bounds keep a forged/corrupt snapshot header from
        // committing the restoring worker to a multi-gigabyte mesh
        if self.nx.saturating_mul(self.ny) > (1 << 22) {
            return Err(format!(
                "mesh {}x{} too large (max {} cells)",
                self.nx,
                self.ny,
                1usize << 22
            ));
        }
        if self.block_size == 0 {
            return Err("block_size must be >= 1".into());
        }
        if self.block_size > (1 << 20) {
            return Err(format!(
                "block_size {} too large (max {})",
                self.block_size,
                1usize << 20
            ));
        }
        if !Backend::all().contains(&self.backend) {
            return Err(format!("backend {} is not registered", self.backend));
        }
        Ok(())
    }

    /// The plan-cache namespace all jobs of this mesh identity share —
    /// one scope per (app, dims), so identical jobs hit each other's
    /// coloring plans while distinct meshes can never collide.
    pub fn cache_scope(&self) -> String {
        format!("{}:{}x{}", self.app, self.nx, self.ny)
    }
}

/// The live simulation behind a job (boxed: an `Airfoil`/`Volna` value
/// is several mesh-sized vectors). A clone is exact, so the service
/// builds each mesh identity's [`pristine`](Sim::pristine) simulation
/// once and starts every job of that identity from a clone of it.
#[derive(Clone)]
pub(crate) enum Sim {
    Airfoil(Box<airfoil::Airfoil<f64>>),
    Volna(Box<volna::Volna<f64>>),
}

impl Sim {
    /// The seed-0 simulation of the spec's mesh identity
    /// ([`JobSpec::cache_scope`]): mesh, geometry and the unperturbed
    /// initial conditions — everything of a job but its seed.
    pub(crate) fn pristine(spec: &JobSpec) -> Sim {
        match spec.app {
            App::Airfoil => Sim::Airfoil(Box::new(airfoil::Airfoil::new(spec.nx, spec.ny))),
            App::Volna => Sim::Volna(Box::new(volna::Volna::new(spec.nx, spec.ny))),
        }
    }
}

/// A resumable in-flight simulation: spec, step counter, per-step
/// reduction history, and the evolving dats.
pub struct JobState {
    spec: JobSpec,
    steps_done: u64,
    history: Vec<f64>,
    sim: Sim,
}

impl JobState {
    /// Build the initial state from a spec (deterministic: mesh,
    /// geometry, and seeded initial conditions are all functions of the
    /// spec).
    pub fn new(spec: JobSpec) -> JobState {
        JobState::fresh(spec, Sim::pristine(&spec))
    }

    /// A job at step 0 on `sim`, the [`Sim::pristine`] simulation of
    /// the spec's mesh identity: only the seed is left to apply.
    pub(crate) fn fresh(spec: JobSpec, mut sim: Sim) -> JobState {
        match &mut sim {
            Sim::Airfoil(sim) => sim.perturb(spec.seed),
            Sim::Volna(sim) => sim.perturb(spec.seed),
        }
        JobState {
            spec,
            steps_done: 0,
            // clamp the pre-size: `steps` may come from an unvalidated
            // snapshot header, and history grows fine on demand
            history: Vec::with_capacity(spec.steps.min(1 << 16) as usize),
            sim,
        }
    }

    /// The job's spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Per-step reduction values (RMS / Δt) of every completed step.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// `true` once `spec.steps` steps have run.
    pub fn is_done(&self) -> bool {
        self.steps_done >= self.spec.steps
    }

    /// Advance one timestep through the spec's backend on the given
    /// pool, returning the step's reduction value. `cache` should be a
    /// [`PlanCache::scoped`] view keyed by [`JobSpec::cache_scope`]
    /// when plans are shared across jobs.
    pub fn step(&mut self, pool: &ExecPool, cache: &PlanCache, rec: Option<&Recorder>) -> f64 {
        let spec = self.spec;
        let v = match &mut self.sim {
            Sim::Airfoil(sim) => {
                airfoil::drivers::step_on(spec.backend, sim, pool, cache, 0, spec.block_size, rec)
            }
            Sim::Volna(sim) => {
                volna::drivers::step_on(spec.backend, sim, pool, cache, 0, spec.block_size, rec)
            }
        };
        self.history.push(v);
        self.steps_done += 1;
        v
    }

    /// The primary evolving dat — Airfoil's `q` or Volna's `w` — the
    /// field conformance checks compare against the sequential
    /// reference.
    pub fn primary(&self) -> &OpDat<f64> {
        match &self.sim {
            Sim::Airfoil(sim) => &sim.q,
            Sim::Volna(sim) => &sim.w,
        }
    }

    /// Every dat that evolves over a step, in snapshot order. Geometry
    /// (`x`, `area`, `egeom`, `bgeom`) is rebuilt from the spec on
    /// restore and deliberately not serialized.
    fn evolving_dats(&self) -> Vec<&OpDat<f64>> {
        match &self.sim {
            Sim::Airfoil(sim) => vec![&sim.q, &sim.qold, &sim.adt, &sim.res],
            Sim::Volna(sim) => vec![&sim.w, &sim.w_old, &sim.w1, &sim.res, &sim.eflux],
        }
    }

    fn evolving_dats_mut(&mut self) -> Vec<&mut OpDat<f64>> {
        match &mut self.sim {
            Sim::Airfoil(sim) => vec![&mut sim.q, &mut sim.qold, &mut sim.adt, &mut sim.res],
            Sim::Volna(sim) => vec![
                &mut sim.w,
                &mut sim.w_old,
                &mut sim.w1,
                &mut sim.res,
                &mut sim.eflux,
            ],
        }
    }

    /// Serialize the job to the versioned snapshot format (see
    /// [`crate::snapshot`] for the layout).
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::encode(
            &self.spec,
            self.steps_done,
            &self.history,
            &self.evolving_dats(),
        )
    }

    /// Rebuild a job from a snapshot: reconstruct mesh/geometry from
    /// the embedded spec, then overwrite the evolving dats —
    /// bit-identical continuation is asserted by the golden tests.
    pub fn restore(bytes: &[u8]) -> io::Result<JobState> {
        let decoded = crate::snapshot::decode(bytes)?;
        let sim = Sim::pristine(&decoded.spec);
        JobState::resumed(decoded, sim)
    }

    /// [`restore`](JobState::restore) onto a clone of `template`, the
    /// [`Sim::pristine`] simulation of `spec`'s mesh identity. A
    /// snapshot of any other spec is rejected.
    pub(crate) fn restore_onto(
        bytes: &[u8],
        spec: &JobSpec,
        template: &Sim,
    ) -> io::Result<JobState> {
        let decoded = crate::snapshot::decode(bytes)?;
        if decoded.spec != *spec {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot is of {:?}, expected {spec:?}", decoded.spec),
            ));
        }
        JobState::resumed(decoded, template.clone())
    }

    /// A decoded snapshot's progress and evolving dats on `sim`.
    fn resumed(decoded: crate::snapshot::Decoded, sim: Sim) -> io::Result<JobState> {
        let mut state = JobState {
            spec: decoded.spec,
            steps_done: decoded.steps_done,
            history: decoded.history,
            sim,
        };
        let mut incoming = decoded.dats;
        let targets = state.evolving_dats_mut();
        if incoming.len() != targets.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot holds {} dats, {} expects {}",
                    incoming.len(),
                    decoded.spec.app,
                    targets.len()
                ),
            ));
        }
        for (target, dat) in targets.into_iter().zip(incoming.drain(..)) {
            if dat.name != target.name || dat.set_size != target.set_size || dat.dim != target.dim {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "snapshot dat {}[{}x{}] does not match {}[{}x{}]",
                        dat.name, dat.set_size, dat.dim, target.name, target.set_size, target.dim
                    ),
                ));
            }
            *target = dat;
        }
        Ok(state)
    }

    /// Decode only the spec header and step counter of a snapshot —
    /// cheap admission-time validation for resumed jobs (no mesh
    /// build).
    pub fn peek(bytes: &[u8]) -> io::Result<(JobSpec, u64)> {
        crate::snapshot::peek(bytes)
    }

    /// Maximum |difference| of the primary field against another job
    /// (conformance metric, same semantics as `OpDat::max_abs_diff`).
    pub fn max_abs_diff(&self, other: &JobState) -> f64 {
        self.primary().max_abs_diff(other.primary())
    }

    /// `true` when this job's evolving state and history are
    /// *bit-identical* to another's — the checkpoint/restart
    /// acceptance predicate (stronger than any tolerance).
    pub fn bits_eq(&self, other: &JobState) -> bool {
        if self.steps_done != other.steps_done || self.history.len() != other.history.len() {
            return false;
        }
        let hist_eq = self
            .history
            .iter()
            .zip(&other.history)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let dats_eq = self
            .evolving_dats()
            .into_iter()
            .zip(other.evolving_dats())
            .all(|(a, b)| {
                a.data.len() == b.data.len()
                    && a.data
                        .iter()
                        .zip(&b.data)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            });
        hist_eq && dats_eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ExecPool {
        ExecPool::new(2)
    }

    #[test]
    fn spec_validation_names_the_problem() {
        let ok = JobSpec::new(App::Volna, 8, 6, Backend::Seq, 3);
        assert!(ok.validate().is_ok());
        assert!(JobSpec { steps: 0, ..ok }
            .validate()
            .unwrap_err()
            .contains("steps"));
        assert!(JobSpec { nx: 1, ..ok }
            .validate()
            .unwrap_err()
            .contains("mesh"));
        assert!(JobSpec {
            block_size: 0,
            ..ok
        }
        .validate()
        .unwrap_err()
        .contains("block_size"));
    }

    #[test]
    fn job_steps_match_direct_driver() {
        let pool = pool();
        let cache = PlanCache::new();
        let spec = JobSpec::new(App::Airfoil, 24, 12, Backend::Seq, 4).with_seed(3);
        let mut job = JobState::new(spec);
        let mut reference = airfoil::Airfoil::<f64>::seeded(24, 12, 3);
        for _ in 0..4 {
            let got = job.step(&pool, &cache, None);
            let want = airfoil::drivers::step_seq(&mut reference, None);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert!(job.is_done());
        assert_eq!(job.primary().max_abs_diff(&reference.q), 0.0);
    }

    #[test]
    fn snapshot_restores_bit_identically_mid_run() {
        let pool = pool();
        let cache = PlanCache::new();
        let spec = JobSpec::new(App::Volna, 10, 8, Backend::Seq, 6).with_seed(11);
        let mut full = JobState::new(spec);
        let mut half = JobState::new(spec);
        for _ in 0..3 {
            full.step(&pool, &cache, None);
            half.step(&pool, &cache, None);
        }
        let snap = half.snapshot();
        let mut resumed = JobState::restore(&snap).unwrap();
        assert_eq!(resumed.steps_done(), 3);
        for _ in 0..3 {
            full.step(&pool, &cache, None);
            resumed.step(&pool, &cache, None);
        }
        assert!(resumed.bits_eq(&full), "restart must be bit-identical");
    }

    #[test]
    fn peek_reads_the_header_only() {
        let spec = JobSpec::new(App::Airfoil, 8, 4, Backend::Threaded, 5).with_seed(9);
        let snap = JobState::new(spec).snapshot();
        let (peeked, done) = JobState::peek(&snap).unwrap();
        assert_eq!(peeked, spec);
        assert_eq!(done, 0);
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let snap = JobState::new(JobSpec::new(App::Airfoil, 8, 4, Backend::Seq, 2)).snapshot();
        let mut corrupt = snap.clone();
        corrupt[0] = b'X';
        assert!(JobState::restore(&corrupt).is_err());
        assert!(JobState::restore(&snap[..snap.len() - 10]).is_err());
    }
}
