//! The Airfoil rank state of the message-passing backend: partition →
//! distribute → SPMD ranks with halo exchanges and redundant exec-halo
//! execution (paper §3, §6.5's MPI and MPI+OpenMP configurations).
//!
//! A rank does not restate the timestep. Its [`RankApp::step`], written
//! once for both applications, hands the rank's dats and a halo to the
//! one recording in [`drivers`](super::drivers) — the generated code of
//! paper Fig. 2b, where `op_mpi_halo_exchanges` is placed around an
//! unchanged loop — and merges the residual through the rank-ordered
//! bit-reproducible allreduce. Everything around the step (partitioning,
//! the universe, per-rank pools, checkpoints, assembly) is the generic
//! driver in [`crate::dist`], which this state joins by implementing
//! [`RankApp`].

use ump_core::{ExecPool, LocalMesh, OpDat, PlanCache, Recorder};
use ump_lazy::{ExchangePolicy, Shape};
use ump_mesh::generators::AirfoilCase;
use ump_mesh::Mesh2d;
use ump_minimpi::{Comm, ExchangeGuard};
use ump_simd::Real;

use super::drivers::StepInputs;
use super::{Airfoil, Consts};
use crate::dist::{self, RankApp};
use crate::Split;

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
    /// One iteration as a rank-local fused chain with halo/compute
    /// overlap: [`RankApp::step`], whose value is the global normalized
    /// RMS.
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
        self.step::<L>(
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

impl<R: Real> RankApp for RankState<R> {
    type R = R;
    type Case = AirfoilCase;
    type Global = Airfoil<R>;

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
        evolving!(self)
    }
    fn split(&mut self) -> (Split<'_, Airfoil<R>>, &LocalMesh, &[bool]) {
        let split = Split {
            mesh: &self.local.mesh,
            inputs: StepInputs {
                bound: &self.bound,
                consts: &self.consts,
                x: &self.x,
            },
            evolving: evolving!(self, mut),
        };
        (split, &self.local, &self.edge_halo)
    }
    fn global_case(global: &Airfoil<R>) -> &AirfoilCase {
        &global.case
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
