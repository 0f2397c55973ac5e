//! The Volna rank state of the message-passing backend: same
//! owner-compute + redundant exec-halo scheme as Airfoil's (see
//! `airfoil::mpi`), with the shallow-water twist that the CFL timestep
//! is a *global* min-reduction — the implicit synchronization point §6.5
//! charges the Phi for.
//!
//! A rank does not restate the RK2 step. Its [`RankApp::step`], written
//! once for both applications, hands the rank's dats and a halo to the
//! one recording in [`drivers`](super::drivers), which inserts the `w` /
//! `w1` ghost refreshes and the Δt allreduce around the unchanged loops.
//! Everything around the step is the generic driver in [`crate::dist`],
//! which this state joins by implementing [`RankApp`].

use ump_core::{LocalMesh, OpDat};
use ump_mesh::generators::CoastalCase;
use ump_mesh::Mesh2d;
use ump_simd::Real;

use super::drivers::StepInputs;
use super::Volna;
use crate::dist::RankApp;
use crate::Split;

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

impl<R: Real> RankApp for RankState<R> {
    type R = R;
    type Case = CoastalCase;
    type Global = Volna<R>;

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
        evolving!(self)
    }
    fn split(&mut self) -> (Split<'_, Volna<R>>, &LocalMesh, &[bool]) {
        let split = Split {
            mesh: &self.local.mesh,
            inputs: StepInputs {
                area: &self.area,
                egeom: &self.egeom,
                bgeom: &self.bgeom,
            },
            evolving: evolving!(self, mut),
        };
        (split, &self.local, &self.edge_halo)
    }
    fn global_case(global: &Volna<R>) -> &CoastalCase {
        &global.case
    }
}
