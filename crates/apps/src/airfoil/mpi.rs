//! The Airfoil rank state of the message-passing backend: partition →
//! distribute → SPMD ranks with halo exchanges and redundant exec-halo
//! execution (paper §3, §6.5's MPI and MPI+OpenMP configurations).
//!
//! A rank does not restate the timestep. [`RankState::step_fused_chain`]
//! hands its dats and a [`RankHalo`] to the one recording in
//! [`drivers`](super::drivers) — the generated code of paper Fig. 2b,
//! where `op_mpi_halo_exchanges` is placed around an unchanged loop —
//! and merges the residual through the rank-ordered bit-reproducible
//! allreduce. Everything around the step (partitioning, the universe,
//! per-rank pools, checkpoints, assembly) is the generic driver in
//! [`crate::dist`], which this state joins by implementing [`RankApp`].

use ump_core::{ExecPool, LocalMesh, OpDat, PlanCache, Recorder};
use ump_lazy::{ExchangePolicy, Fusion, Shape};
use ump_mesh::generators::AirfoilCase;
use ump_mesh::Mesh2d;
use ump_minimpi::{Comm, ExchangeGuard};
use ump_simd::Real;

use super::drivers::{recorded_step, StepDats};
use super::{Airfoil, Consts};
use crate::dist::{self, RankApp, RankHalo};
use crate::ChainExec;

/// A rank-local Airfoil state.
pub struct RankState<R: Real> {
    /// The rank's mesh piece.
    pub local: LocalMesh,
    /// Boundary tags of the rank's bedges.
    pub bound: Vec<i32>,
    /// Halo classification of the rank's executed edges: `true` for
    /// edges reading a ghost cell (deferred until the exchange finishes
    /// in the overlap schedule).
    pub edge_halo: Vec<bool>,
    /// Node coordinates (replicated where referenced).
    pub x: OpDat<R>,
    /// Flow state (owned + ghost cells).
    pub q: OpDat<R>,
    /// Saved state.
    pub qold: OpDat<R>,
    /// Local timestep.
    pub adt: OpDat<R>,
    /// Residuals.
    pub res: OpDat<R>,
    /// Constants.
    pub consts: Consts<R>,
}

impl<R: Real> RankState<R> {
    /// Build a rank's state from the global case and its mesh piece.
    pub fn new(case: &AirfoilCase, local: LocalMesh) -> RankState<R> {
        let consts = Consts::<R>::default();
        let n_cells = local.mesh.n_cells();
        let x = OpDat::from_fn("x", local.mesh.n_nodes(), 2, |n| {
            let [px, py] = local.mesh.node_xy[n];
            vec![R::from_f64(px), R::from_f64(py)]
        });
        let q = OpDat::from_fn("q", n_cells, 4, |_| consts.qinf.to_vec());
        let bound: Vec<i32> = local
            .bedge_global
            .iter()
            .map(|&gbe| case.bound[gbe as usize])
            .collect();
        RankState {
            bound,
            edge_halo: local.boundary_edges(),
            x,
            q,
            qold: OpDat::zeros("qold", n_cells, 4),
            adt: OpDat::zeros("adt", n_cells, 1),
            res: OpDat::zeros("res", n_cells, 4),
            consts,
            local,
        }
    }
}

impl<R: Real> RankState<R> {
    /// One iteration as a rank-local **fused chain with halo/compute
    /// overlap** — the distributed production path: the shared-memory
    /// recording over the rank's owned cells and all its local edges,
    /// with the `q`/`adt` ghost refreshes as non-blocking chain entries
    /// (`res_calc`'s interior blocks run while the messages fly, only
    /// the ghost-reading boundary blocks wait).
    ///
    /// `shape` selects threaded or `L`-lane vectorized block bodies
    /// (pass [`Shape::Simd`] with `lanes == L`); `policy` selects
    /// overlapped or blocking exchanges — both compute in the same
    /// order, so their results are bit-identical. Returns the global
    /// normalized RMS via the rank-ordered (bit-reproducible) allreduce.
    ///
    /// With `guard: Some(_)` the exchange finishes route through the
    /// [`ExchangeGuard`]: a halo receive that misses the guard's deadline
    /// latches a typed timeout and the step completes on stale ghost
    /// data instead of blocking forever — the resilient driver rolls the
    /// step back at the next health vote. With `None`, a missing packet
    /// panics after the universe watchdog (the fail-fast default).
    #[allow(clippy::too_many_arguments)]
    pub fn step_fused_chain<const L: usize>(
        &mut self,
        comm: &Comm,
        cache: &PlanCache,
        pool: &ExecPool,
        shape: Shape,
        block_size: usize,
        total_cells: usize,
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
            bound: &self.bound,
            consts: &self.consts,
            x: &self.x,
            q: &mut self.q,
            qold: &mut self.qold,
            adt: &mut self.adt,
            res: &mut self.res,
        };
        let exec = ChainExec::on_pool(shape, Fusion::Groups);
        let rms = recorded_step::<R, L>(dats, Some(&halo), pool, cache, exec, 0, block_size, rec);
        (comm.allreduce_sum(rms) / total_cells as f64).sqrt()
    }
}

impl<R: Real> RankApp for RankState<R> {
    type R = R;
    type Case = AirfoilCase;
    type Global = Airfoil<R>;
    const CELL_DATS: usize = 4;

    fn new(case: &AirfoilCase, local: LocalMesh) -> Self {
        RankState::new(case, local)
    }
    fn mesh(case: &AirfoilCase) -> &Mesh2d {
        &case.mesh
    }
    fn local(&self) -> &LocalMesh {
        &self.local
    }
    fn evolving(&self) -> Vec<&OpDat<R>> {
        vec![&self.q, &self.qold, &self.adt, &self.res]
    }
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<R>> {
        vec![&mut self.q, &mut self.qold, &mut self.adt, &mut self.res]
    }
    fn global_case(global: &Airfoil<R>) -> &AirfoilCase {
        &global.case
    }
    fn global_cell_dats(global: &Airfoil<R>) -> Vec<&OpDat<R>> {
        vec![&global.q, &global.qold, &global.adt, &global.res]
    }
    fn global_cell_dats_mut(global: &mut Airfoil<R>) -> Vec<&mut OpDat<R>> {
        let Airfoil {
            q, qold, adt, res, ..
        } = global;
        vec![q, qold, adt, res]
    }
    fn step<const L: usize>(
        &mut self,
        comm: &Comm,
        cache: &PlanCache,
        pool: &ExecPool,
        shape: Shape,
        block_size: usize,
        total_cells: usize,
        policy: ExchangePolicy,
        rec: Option<&Recorder>,
        guard: Option<&ExchangeGuard>,
    ) -> f64 {
        self.step_fused_chain::<L>(
            comm,
            cache,
            pool,
            shape,
            block_size,
            total_cells,
            policy,
            rec,
            guard,
        )
    }
}

/// Initialize a rank state from a *mid-simulation* global state — lets
/// tests and the reference benchmark hand the MPI backend a nontrivial
/// flow field ([`dist::rank_state_from_global`] for this application).
pub fn rank_state_from_global<R: Real>(
    case: &AirfoilCase,
    local: LocalMesh,
    global: &Airfoil<R>,
) -> RankState<R> {
    dist::rank_state_from_global(case, local, global)
}
