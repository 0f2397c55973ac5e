//! The Volna rank state of the message-passing backend: same
//! owner-compute + redundant exec-halo scheme as Airfoil's (see
//! `airfoil::mpi`), with the shallow-water twist that the CFL timestep
//! is a *global* min-reduction — the implicit synchronization point §6.5
//! charges the Phi for.
//!
//! A rank does not restate the RK2 step. [`RankState::step_fused_chain`]
//! hands its dats and a [`RankHalo`] to the one recording in
//! [`drivers`](super::drivers), which inserts the `w` / `w1` ghost
//! refreshes and the Δt allreduce around the unchanged loops.
//! Everything around the step is the generic driver in [`crate::dist`],
//! which this state joins by implementing [`RankApp`].

use ump_core::{ExecPool, LocalMesh, OpDat, PlanCache, Recorder};
use ump_lazy::{ExchangePolicy, Fusion, Shape};
use ump_mesh::generators::CoastalCase;
use ump_mesh::Mesh2d;
use ump_minimpi::{Comm, ExchangeGuard};
use ump_simd::Real;

use super::drivers::{recorded_step, StepDats};
use super::Volna;
use crate::dist::{RankApp, RankHalo};
use crate::ChainExec;

/// A rank-local Volna state (geometry-derived dats rebuilt from the
/// local mesh; cell state extracted from the global case).
pub struct RankState<R: Real> {
    /// The rank's mesh piece.
    pub local: LocalMesh,
    /// Halo classification of the rank's executed edges (`true` = reads
    /// a ghost cell; deferred past the exchange in the overlap schedule).
    pub edge_halo: Vec<bool>,
    /// Cell state (owned + ghost).
    pub w: OpDat<R>,
    /// Saved state.
    pub w_old: OpDat<R>,
    /// RK stage state.
    pub w1: OpDat<R>,
    /// Residuals.
    pub res: OpDat<R>,
    /// Cell areas (local geometry).
    pub area: OpDat<R>,
    /// Edge geometry.
    pub egeom: OpDat<R>,
    /// Edge fluxes.
    pub eflux: OpDat<R>,
    /// Boundary-edge geometry.
    pub bgeom: OpDat<R>,
}

impl<R: Real> RankState<R> {
    /// Build a rank's state from the global case and its mesh piece.
    pub fn new(case: &CoastalCase, local: LocalMesh) -> RankState<R> {
        // reuse the single-process constructor on the *local* mesh for
        // all geometry-derived dats, then overwrite the physical state
        // from the global initial condition through the id maps
        let local_case = CoastalCase {
            mesh: local.mesh.clone(),
            bathy_cell: local
                .cell_global
                .iter()
                .map(|&g| case.bathy_cell[g as usize])
                .collect(),
            eta0_cell: local
                .cell_global
                .iter()
                .map(|&g| case.eta0_cell[g as usize])
                .collect(),
        };
        // `from_case_preordered`: the lane-locality pass must not run on
        // a rank-local mesh — `edge_global`, `n_owned_edges` and the
        // halo flags all mirror the distribution's edge order
        let sim = Volna::<R>::from_case_preordered(local_case);
        RankState {
            edge_halo: local.boundary_edges(),
            w: sim.w,
            w_old: sim.w_old,
            w1: sim.w1,
            res: sim.res,
            area: sim.area,
            egeom: sim.egeom,
            eflux: sim.eflux,
            bgeom: sim.bgeom,
            local,
        }
    }
}

impl<R: Real> RankState<R> {
    /// One RK2 step as a rank-local **fused chain with halo/compute
    /// overlap** — the distributed production path: the shared-memory
    /// recording over the rank's owned cells and all its local edges,
    /// with the `w` / `w1` ghost refreshes as non-blocking chain entries
    /// (`sim_1` and the flux group's interior blocks run while the
    /// messages fly, only the ghost-reading boundary blocks wait) and
    /// the CFL Δt agreed through the rank-ordered `allreduce_min` before
    /// `RK_1` consumes it. Returns the globally-agreed Δt.
    ///
    /// `shape` selects threaded or `L`-lane vectorized block bodies;
    /// `policy` overlapped or blocking exchanges (same compute order —
    /// bit-identical results). With `guard: Some(_)` the exchange
    /// finishes route through the [`ExchangeGuard`] — a missed halo
    /// deadline latches a typed timeout and the step completes on stale
    /// ghost data (the resilient driver rolls it back) instead of
    /// blocking forever.
    #[allow(clippy::too_many_arguments)]
    pub fn step_fused_chain<const L: usize>(
        &mut self,
        comm: &Comm,
        cache: &PlanCache,
        pool: &ExecPool,
        shape: Shape,
        block_size: usize,
        policy: ExchangePolicy,
        rec: Option<&Recorder>,
        guard: Option<&ExchangeGuard>,
    ) -> f64 {
        let local = &self.local;
        let halo = RankHalo {
            comm,
            plan: &local.cell_halo,
            guard,
            edge_halo: &self.edge_halo,
            n_owned: local.n_owned_cells,
            policy,
        };
        let dats = StepDats {
            mesh: &local.mesh,
            w: &mut self.w,
            w_old: &mut self.w_old,
            w1: &mut self.w1,
            res: &mut self.res,
            area: &self.area,
            egeom: &self.egeom,
            eflux: &mut self.eflux,
            bgeom: &self.bgeom,
        };
        let exec = ChainExec::on_pool(shape, Fusion::Groups);
        recorded_step::<R, L>(dats, Some(&halo), pool, cache, exec, 0, block_size, rec)
    }
}

impl<R: Real> RankApp for RankState<R> {
    type R = R;
    type Case = CoastalCase;
    type Global = Volna<R>;
    const CELL_DATS: usize = 4;

    fn new(case: &CoastalCase, local: LocalMesh) -> Self {
        RankState::new(case, local)
    }
    fn mesh(case: &CoastalCase) -> &Mesh2d {
        &case.mesh
    }
    fn local(&self) -> &LocalMesh {
        &self.local
    }
    fn evolving(&self) -> Vec<&OpDat<R>> {
        vec![&self.w, &self.w_old, &self.w1, &self.res, &self.eflux]
    }
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<R>> {
        vec![
            &mut self.w,
            &mut self.w_old,
            &mut self.w1,
            &mut self.res,
            &mut self.eflux,
        ]
    }
    fn global_case(global: &Volna<R>) -> &CoastalCase {
        &global.case
    }
    fn global_cell_dats(global: &Volna<R>) -> Vec<&OpDat<R>> {
        vec![&global.w, &global.w_old, &global.w1, &global.res]
    }
    fn global_cell_dats_mut(global: &mut Volna<R>) -> Vec<&mut OpDat<R>> {
        let Volna {
            w, w_old, w1, res, ..
        } = global;
        vec![w, w_old, w1, res]
    }
    /// `total_cells` is unused: Δt is a min, not a mean.
    fn step<const L: usize>(
        &mut self,
        comm: &Comm,
        cache: &PlanCache,
        pool: &ExecPool,
        shape: Shape,
        block_size: usize,
        _total_cells: usize,
        policy: ExchangePolicy,
        rec: Option<&Recorder>,
        guard: Option<&ExchangeGuard>,
    ) -> f64 {
        self.step_fused_chain::<L>(comm, cache, pool, shape, block_size, policy, rec, guard)
    }
}
