//! The Volna loop drivers (one step = one RK2 time step; its value is
//! the CFL Δt used). Same structure as the Airfoil drivers: what is
//! Volna's own lives here — the hand-written [`step_seq`] oracle, the
//! `L`-lane chunk bodies, and the one recording of N steps as an
//! `ump_lazy` chain with its Δt slots in the [`Simulation`] impl — and
//! the executors written once for both applications are re-exported:
//! [`step_chain`] (every shared-memory registry row, in a [`Shape`]
//! under a [`Fusion`](ump_lazy::Fusion) policy and in whatever layout
//! the state is stored in), [`run_tiled_on`] (N steps tile by tile) and
//! the [`step_on`] registry dispatcher; a rank of the distributed
//! backend executes the recording with its [`RankHalo`] hooks switched
//! on. The paper benchmarks Volna in single precision through the same
//! MPI / OpenMP / OpenCL / intrinsics configurations.

use ump_core::{
    seq_loop, simd_block_sweep, two_rows_mut, Layout, LocalMesh, OpDat, Recorder, SharedDat,
};
use ump_lazy::{Chain, LoopDesc, Shape, TileCache};
use ump_mesh::generators::CoastalCase;
use ump_mesh::Mesh2d;
use ump_simd::{Addressing, DatView, IdxVec, Real, VecR};

use super::kernels::{bc_flux, compute_flux, numerical_flux, rk_1, rk_2, sim_1, space_disc};
use super::kernels_vec::{
    compute_flux_vec, numerical_flux_vec, rk_1_vec, rk_2_vec, space_disc_vec,
};
use super::{phase_desc, profile, Volna, CFL, GRAVITY, H_MIN};
use crate::dist::RankHalo;
use crate::{maybe_time, Simulation, Split, Sweep};

pub use crate::{run_tiled_on, run_tiled_report_on, step_chain, step_on};

// ---------------------------------------------------------------------------
// sequential reference
// ---------------------------------------------------------------------------

/// One RK2 step, scalar sequential. Returns Δt.
pub fn step_seq<R: Real>(sim: &mut Volna<R>, rec: Option<&Recorder>) -> f64 {
    let wb = R::BYTES;
    let g = R::from_f64(GRAVITY);
    let h_min = R::from_f64(H_MIN);
    let cfl = R::from_f64(CFL);
    let mesh = &sim.case.mesh;
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());

    maybe_time(rec, "sim_1", wb, nc, || {
        let (w, w_old) = (&sim.w, &mut sim.w_old);
        seq_loop(0..nc, |c| sim_1(w.row(c), w_old.row_mut(c)));
    });

    let mut dt = R::INFINITY;
    for phase in 0..2 {
        let state = if phase == 0 { &sim.w } else { &sim.w1 };
        maybe_time(rec, "compute_flux", wb, ne, || {
            let eflux = &mut sim.eflux;
            seq_loop(0..ne, |e| {
                let c = mesh.edge2cell.row(e);
                compute_flux(
                    sim.egeom.row(e),
                    state.row(c[0] as usize),
                    state.row(c[1] as usize),
                    eflux.row_mut(e),
                    g,
                    h_min,
                );
            });
        });
        if phase == 0 {
            maybe_time(rec, "numerical_flux", wb, ne, || {
                seq_loop(0..ne, |e| {
                    let c = mesh.edge2cell.row(e);
                    numerical_flux(
                        sim.egeom.row(e),
                        sim.eflux.row(e),
                        sim.area.row(c[0] as usize)[0],
                        sim.area.row(c[1] as usize)[0],
                        &mut dt,
                        cfl,
                    );
                });
            });
        }
        maybe_time(rec, "space_disc", wb, ne, || {
            let res = &mut sim.res;
            seq_loop(0..ne, |e| {
                let c = mesh.edge2cell.row(e);
                let (c0, c1) = (c[0] as usize, c[1] as usize);
                let (rl, rr) = two_rows_mut(&mut res.data, 4, c0, c1);
                space_disc(
                    sim.egeom.row(e),
                    sim.eflux.row(e),
                    state.row(c0),
                    state.row(c1),
                    rl,
                    rr,
                    g,
                );
            });
        });
        maybe_time(rec, "bc_flux", wb, mesh.n_bedges(), || {
            let res = &mut sim.res;
            seq_loop(0..mesh.n_bedges(), |be| {
                let c0 = mesh.bedge2cell.at(be, 0);
                bc_flux(sim.bgeom.row(be), state.row(c0), res.row_mut(c0), g);
            });
        });
        if phase == 0 {
            maybe_time(rec, "RK_1", wb, nc, || {
                let (w_old, res, w1, area) = (&sim.w_old, &mut sim.res, &mut sim.w1, &sim.area);
                seq_loop(0..nc, |c| {
                    rk_1(
                        w_old.row(c),
                        res.row_mut(c),
                        w1.row_mut(c),
                        area.row(c)[0],
                        dt,
                    );
                });
            });
        } else {
            maybe_time(rec, "RK_2", wb, nc, || {
                let (w_old, w1, res, w, area) =
                    (&sim.w_old, &sim.w1, &mut sim.res, &mut sim.w, &sim.area);
                seq_loop(0..nc, |c| {
                    rk_2(
                        w_old.row(c),
                        w1.row(c),
                        res.row_mut(c),
                        w.row_mut(c),
                        area.row(c)[0],
                        dt,
                    );
                });
            });
        }
    }
    dt.to_f64()
}

// ---------------------------------------------------------------------------
// lane-chunk bodies of the recorded chain
// ---------------------------------------------------------------------------

/// One lane-aligned chunk of vectorized `compute_flux`. Raw-slice +
/// [`DatView<A>`] signature: the chunk bodies have one form,
/// instantiated per layout `A`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn compute_flux_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    egeom: &[R],
    egv: DatView<A>,
    state: &[R],
    sv: DatView<A>,
    eflux: &mut [R],
    efv: DatView<A>,
    g: R,
    h_min: R,
) {
    let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
    let geom: [VecR<R, L>; 4] = egv.load_rows(egeom, es);
    let wl: [VecR<R, L>; 4] = sv.gather_rows(state, c0);
    let wr: [VecR<R, L>; 4] = sv.gather_rows(state, c1);
    let f = compute_flux_vec(&geom, &wl, &wr, g, h_min);
    efv.store_rows(&f, eflux, es);
}

/// One lane-aligned chunk of vectorized `numerical_flux`: folds the
/// chunk's CFL Δt candidates into `dt_acc` (exact — `min` does not
/// reassociate).
#[inline(always)]
pub(crate) fn numerical_flux_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    eflux: &[R],
    efv: DatView<A>,
    area: &[R],
    dt_acc: &mut VecR<R, L>,
    cfl: R,
) {
    let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
    let lam = efv.loadv::<R, L>(eflux, es, 3);
    // area is dim-1: its indexing is layout-invariant, keep the direct gather
    let al = VecR::gather(area, c0, 1, 0);
    let ar = VecR::gather(area, c1, 1, 0);
    numerical_flux_vec(lam, al, ar, dt_acc, cfl);
}

/// One lane-aligned chunk `es..es + L` of vectorized `space_disc`, with
/// *serialized* row scatter (lane by lane, the left cell's row then the
/// right's: the order of the recording's scalar `apply`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn space_disc_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    egeom: &[R],
    egv: DatView<A>,
    eflux: &[R],
    efv: DatView<A>,
    state: &[R],
    sv: DatView<A>,
    res: &mut [R],
    resv: DatView<A>,
    g: R,
) {
    let c0 = IdxVec::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::load_strided(e2c, es * 2 + 1, 2);
    let geom: [VecR<R, L>; 4] = egv.load_rows(egeom, es);
    let ef: [VecR<R, L>; 4] = efv.load_rows(eflux, es);
    let wl: [VecR<R, L>; 4] = sv.gather_rows(state, c0);
    let wr: [VecR<R, L>; 4] = sv.gather_rows(state, c1);
    // slot 3 (bathymetry) carries no increment: three of four components land
    let ([l0, l1, l2, _], [r0, r1, r2, _]) = space_disc_vec(&geom, &ef, &wl, &wr, g);
    resv.scatter_add_rows_serial([(&[l0, l1, l2], c0), (&[r0, r1, r2], c1)], res);
}

/// One lane-aligned chunk of vectorized `RK_1`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn rk1_chunk<R: Real, A: Addressing, const L: usize>(
    cs: usize,
    w_old: &[R],
    woldv: DatView<A>,
    res: &mut [R],
    resv: DatView<A>,
    w1: &mut [R],
    w1v: DatView<A>,
    area: &[R],
    dt: R,
) {
    let w_old_p: [VecR<R, L>; 4] = woldv.load_rows(w_old, cs);
    let mut res_p: [VecR<R, L>; 4] = resv.load_rows(res, cs);
    let area_p = VecR::<R, L>::load(area, cs);
    let mut w1_p = [VecR::<R, L>::zero(); 4];
    rk_1_vec(&w_old_p, &mut res_p, &mut w1_p, area_p, dt);
    w1v.store_rows(&w1_p, w1, cs);
    resv.store_rows(&res_p, res, cs);
}

/// One lane-aligned chunk of vectorized `RK_2`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn rk2_chunk<R: Real, A: Addressing, const L: usize>(
    cs: usize,
    w_old: &[R],
    woldv: DatView<A>,
    w1: &[R],
    w1v: DatView<A>,
    res: &mut [R],
    resv: DatView<A>,
    w: &mut [R],
    wv: DatView<A>,
    area: &[R],
    dt: R,
) {
    let w_old_p: [VecR<R, L>; 4] = woldv.load_rows(w_old, cs);
    let w1_p: [VecR<R, L>; 4] = w1v.load_rows(w1, cs);
    let mut res_p: [VecR<R, L>; 4] = resv.load_rows(res, cs);
    let area_p = VecR::<R, L>::load(area, cs);
    let mut w_p = [VecR::<R, L>::zero(); 4];
    rk_2_vec(&w_old_p, &w1_p, &mut res_p, &mut w_p, area_p, dt);
    wv.store_rows(&w_p, w, cs);
    resv.store_rows(&res_p, res, cs);
}

// ---------------------------------------------------------------------------
// the recorded RK2 step — one ump_lazy chain, every executor
// ---------------------------------------------------------------------------

/// What a recording of Volna steps reads besides the mesh, the evolving
/// dats and the reduction slots.
pub struct StepInputs<'a, R: Real> {
    pub(crate) area: &'a OpDat<R>,
    pub(crate) egeom: &'a OpDat<R>,
    pub(crate) bgeom: &'a OpDat<R>,
}

/// Δt slots per step: the edge loops' block count.
fn edge_blocks<A: Addressing>(sweep: &Sweep<'_, A>) -> usize {
    sweep.mesh.n_edges().div_ceil(sweep.block)
}

impl<R: Real> Simulation for Volna<R> {
    type R = R;
    type Case = CoastalCase;
    type Inputs<'a> = StepInputs<'a, R>;
    const NAME: &'static str = "volna";
    const CELL_DATS: usize = 4;

    /// The global initial condition on the piece's cells; geometry from
    /// the piece itself.
    fn on_rank(case: &CoastalCase, mesh: Mesh2d, local: &LocalMesh) -> Self {
        let gather = |per_cell: &[f64]| {
            local
                .cell_global
                .iter()
                .map(|&g| per_cell[g as usize])
                .collect()
        };
        Volna::preordered(CoastalCase {
            mesh,
            bathy_cell: gather(&case.bathy_cell),
            eta0_cell: gather(&case.eta0_cell),
        })
    }

    fn case(&self) -> &CoastalCase {
        &self.case
    }

    fn case_mesh(case: &CoastalCase) -> &Mesh2d {
        &case.mesh
    }

    fn evolving(&self) -> Vec<&OpDat<R>> {
        evolving!(self)
    }

    fn split(&mut self) -> Split<'_, Self> {
        Split {
            mesh: &self.case.mesh,
            inputs: StepInputs {
                area: &self.area,
                egeom: &self.egeom,
                bgeom: &self.bgeom,
            },
            evolving: evolving!(self, mut),
        }
    }

    fn layout(&self) -> Layout {
        Volna::layout(self)
    }

    fn set_layout(&mut self, to: Layout) {
        Volna::set_layout(self, to);
    }

    fn tiles(&self) -> &TileCache<R> {
        &self.tiles
    }

    fn tiles_mut(&mut self) -> &mut TileCache<R> {
        &mut self.tiles
    }

    fn step_seq(&mut self, rec: Option<&Recorder>) -> f64 {
        step_seq(self, rec)
    }

    /// Step `s`'s Δt in slot `s`, then one slot per (step, edge block).
    fn slots<A: Addressing>(sweep: &Sweep<'_, A>, steps: usize) -> Vec<R> {
        vec![R::INFINITY; steps * (1 + edge_blocks(sweep))]
    }

    /// Each step's Δt, as its epilogue folded it (across ranks already
    /// the min-allreduce).
    fn fold<A: Addressing>(
        _sweep: &Sweep<'_, A>,
        slots: &[R],
        steps: usize,
        _halo: Option<&RankHalo<'_>>,
        _total_cells: usize,
    ) -> Vec<f64> {
        slots[..steps].iter().map(|v| v.to_f64()).collect()
    }

    /// The one recording of the RK2 step: `steps` steps over the evolving
    /// dats `[w, w_old, w1, res, eflux]` — a global state's, a rank's, or
    /// a tile's shadow copies. Step `s`'s `numerical_flux` blocks store
    /// their Δt candidates in slot `steps + s × edge_blocks + block`, its
    /// epilogue folds them into slot `s`, and that step's `RK` loops read
    /// it. Where Airfoil's chain is a single epoch, Volna's Δt is
    /// *consumed* in-chain, so the tiled executor cuts the recording into
    /// two epochs per step at those global barriers — the cross-step
    /// cones span the `RK_1 … compute_flux'` epoch that straddles the
    /// step boundary. A rank's [`RankHalo`] adds what
    /// `op_mpi_halo_exchanges` adds around unchanged loops:
    ///
    /// ```text
    /// exch(w)                            sends posted immediately
    /// sim_1                              owned cells, interior (overlapped)
    /// [compute_flux+numerical_flux+space_disc]
    ///                                    interior blocks → finish(w) → boundary
    ///                                    epilogue: fold Δt blocks, allreduce_min
    /// bc_flux                            serial, owned cells only
    /// RK_1                               owned cells; ghost res zeroed
    /// exch(w1) → [compute_flux+space_disc] → bc_flux → RK_2
    /// ```
    ///
    /// Cell loops cover the owned cells only, edge loops all local edges.
    /// The CFL Δt is the implicit synchronization point §6.5 charges the
    /// Phi for: it merges deterministically (block order within the
    /// rank, rank order across ranks) inside the flux group's epilogue,
    /// before `RK_1` consumes it — and `min` is exact in any order, so Δt
    /// equals every executor's bit-for-bit. The halo markings are applied
    /// only for a rank: `mark_boundary` forces the interior → finish →
    /// boundary split, which a single process must not pay.
    fn record_steps<'s, 'a: 's, A: Addressing, const L: usize>(
        inputs: &'s StepInputs<'a, R>,
        sweep: &'s Sweep<'a, A>,
        evolving: &'s [SharedDat<'s, R>],
        dt: &'s SharedDat<'s, R>,
        steps: usize,
        halo: Option<&'s RankHalo<'s>>,
    ) -> Chain<'s> {
        let StepInputs { area, egeom, bgeom } = *inputs;
        let Sweep {
            mesh,
            n_cells: nc,
            shape,
            ..
        } = *sweep;
        let edge_blocks = edge_blocks(sweep);
        let ([ws, wolds, w1s, ress, efs], &[wv, woldv, w1v, resv, efv]) =
            (evolving, &sweep.views[..])
        else {
            panic!("volna records over [w, w_old, w1, res, eflux]")
        };
        let (egv, bgv) = (egeom.view_as::<A>(), bgeom.view_as::<A>());
        let g = R::from_f64(GRAVITY);
        let h_min = R::from_f64(H_MIN);
        let cfl = R::from_f64(CFL);
        let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
        let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n);

        let mut chain = Chain::new("volna_step");
        for step in 0..steps {
            if let Some(h) = halo {
                // refresh w ghosts for phase 0: posted before sim_1 so the
                // copy loop also hides message latency
                h.record_exchange(&mut chain, "halo[w]", ws, 4, step as u64 * 2);
            }
            chain.record_simd(
                desc("sim_1", nc),
                vec![],
                L,
                move |c| unsafe {
                    let row: [R; 4] = wv.load_row(ws.as_slice(), c);
                    let mut old = [R::ZERO; 4];
                    sim_1(&row, &mut old);
                    woldv.store_row(wolds.slice_mut(0, wolds.len()), c, &old);
                },
                move |cs| unsafe {
                    let rows: [VecR<R, L>; 4] = wv.load_rows(ws.as_slice(), cs);
                    woldv.store_rows(&rows, wolds.slice_mut(0, wolds.len()), cs);
                },
            );
            if halo.is_some() {
                chain.mark_interior();
            }
            // this step's Δt: folded by numerical_flux's epilogue from its
            // block slots, read by RK
            let dt_slots = steps + step * edge_blocks;
            for phase in 0..2 {
                let (state, sv) = if phase == 0 { (ws, wv) } else { (w1s, w1v) };
                if let (1, Some(h)) = (phase, halo) {
                    // refresh w1 ghosts (RK_1 wrote owned rows only)
                    h.record_exchange(&mut chain, "halo[w1]", w1s, 4, step as u64 * 2 + 1);
                }
                chain.record_simd(
                    phase_desc("compute_flux", ne, phase),
                    vec![],
                    L,
                    move |e| {
                        let c = mesh.edge2cell.row(e);
                        unsafe {
                            let ge: [R; 4] = egv.load_row(&egeom.data, e);
                            let s = state.as_slice();
                            let wl: [R; 4] = sv.load_row(s, c[0] as usize);
                            let wr: [R; 4] = sv.load_row(s, c[1] as usize);
                            let mut f = [R::ZERO; 4];
                            compute_flux(&ge, &wl, &wr, &mut f, g, h_min);
                            efv.store_row(efs.slice_mut(0, efs.len()), e, &f);
                        }
                    },
                    move |es| unsafe {
                        compute_flux_chunk::<R, A, L>(
                            es,
                            &mesh.edge2cell.data,
                            &egeom.data,
                            egv,
                            state.as_slice(),
                            sv,
                            efs.slice_mut(0, efs.len()),
                            efv,
                            g,
                            h_min,
                        );
                    },
                );
                if let Some(h) = halo {
                    chain.mark_boundary(h.edge_halo);
                }
                if phase == 0 {
                    // one edge of `numerical_flux`, folding its CFL candidate
                    // into `$dt`; a macro because a closure with two call
                    // sites below stays out of line
                    macro_rules! flux_edge {
                        ($e:expr, $dt:expr) => {{
                            let c = mesh.edge2cell.row($e);
                            let ge: [R; 4] = egv.load_row(&egeom.data, $e);
                            let ef: [R; 4] = efv.load_row(efs.as_slice(), $e);
                            let (al, ar) = (area.row(c[0] as usize)[0], area.row(c[1] as usize)[0]);
                            numerical_flux(&ge, &ef, al, ar, $dt, cfl);
                        }};
                    }
                    // the block's Δt folds in registers — one scalar, and
                    // under the SIMD shape one vector accumulator — and lands
                    // in its block slot with one store (`min` is exact in any
                    // order); a tile's fringe run has no slot
                    let vector = matches!(shape, Shape::Simd { .. });
                    chain.record_blocks(desc("numerical_flux", ne), vec![], move |slot, range| {
                        let Some(b) = slot else { return };
                        let mut local = R::INFINITY;
                        if vector {
                            let mut local_v = VecR::<R, L>::splat(R::INFINITY);
                            simd_block_sweep(
                                range,
                                L,
                                |e| unsafe { flux_edge!(e, &mut local) },
                                |es| unsafe {
                                    numerical_flux_chunk::<R, A, L>(
                                        es,
                                        &mesh.edge2cell.data,
                                        efs.as_slice(),
                                        efv,
                                        &area.data,
                                        &mut local_v,
                                        cfl,
                                    );
                                },
                            );
                            local = local.min(local_v.reduce_min());
                        } else {
                            for e in range.start as usize..range.end as usize {
                                unsafe { flux_edge!(e, &mut local) };
                            }
                        }
                        unsafe { dt.slice_mut(dt_slots + b, 1)[0] = local };
                    });
                    // numerical_flux reads edge-local flux and the local cell
                    // areas — no halo data
                    if halo.is_some() {
                        chain.mark_interior();
                    }
                    // fold the Δt partials; across ranks the global CFL
                    // agreement is the rank-ordered min-allreduce — the step's
                    // implicit synchronization point (exact through f64 at
                    // either precision)
                    chain.epilogue(move || unsafe {
                        let mut merged = R::INFINITY;
                        for &v in dt.slice(dt_slots, edge_blocks) {
                            merged = if v < merged { v } else { merged };
                        }
                        if let Some(h) = halo {
                            merged = R::from_f64(h.comm.allreduce_min(merged.to_f64()));
                        }
                        dt.slice_mut(step, 1)[0] = merged;
                    });
                }
                let compute = move |e: usize| {
                    let c = mesh.edge2cell.row(e);
                    let (c0, c1) = (c[0] as usize, c[1] as usize);
                    let mut rl = [R::ZERO; 4];
                    let mut rr = [R::ZERO; 4];
                    unsafe {
                        let ge: [R; 4] = egv.load_row(&egeom.data, e);
                        let ef: [R; 4] = efv.load_row(efs.as_slice(), e);
                        let s = state.as_slice();
                        let wl: [R; 4] = sv.load_row(s, c0);
                        let wr: [R; 4] = sv.load_row(s, c1);
                        space_disc(&ge, &ef, &wl, &wr, &mut rl, &mut rr, g);
                    }
                    (c0, rl, c1, rr)
                };
                // left row, then right, components ascending, through the
                // layout view
                let apply = move |_e: usize, inc: &(usize, [R; 4], usize, [R; 4])| unsafe {
                    let r = ress.slice_mut(0, ress.len());
                    let (c0, rl, c1, rr) = inc;
                    resv.add_row(r, *c0, rl);
                    resv.add_row(r, *c1, rr);
                };
                chain.record_simd_two_phase(
                    phase_desc("space_disc", ne, phase),
                    vec![&mesh.edge2cell],
                    L,
                    compute,
                    apply,
                    move |es| unsafe {
                        space_disc_chunk::<R, A, L>(
                            es,
                            &mesh.edge2cell.data,
                            &egeom.data,
                            egv,
                            efs.as_slice(),
                            efv,
                            state.as_slice(),
                            sv,
                            ress.slice_mut(0, ress.len()),
                            resv,
                            g,
                        );
                    },
                );
                if let Some(h) = halo {
                    chain.mark_boundary(h.edge_halo);
                }
                chain.record_serial(phase_desc("bc_flux", nb, phase), move |be| {
                    let c0 = mesh.bedge2cell.at(be, 0);
                    unsafe {
                        let bg: [R; 2] = bgv.load_row(&bgeom.data, be);
                        let wrow: [R; 4] = sv.load_row(state.as_slice(), c0);
                        let r = ress.slice_mut(0, ress.len());
                        let mut rrow: [R; 4] = resv.load_row(r, c0);
                        bc_flux(&bg, &wrow, &mut rrow, g);
                        resv.store_row(r, c0, &rrow);
                    }
                });
                // bedges map to owned cells only
                if halo.is_some() {
                    chain.mark_interior();
                }
                if phase == 0 {
                    chain.record_simd(
                        desc("RK_1", nc),
                        vec![],
                        L,
                        move |c| unsafe {
                            let dt = dt.slice(step, 1)[0];
                            let w_old_row: [R; 4] = woldv.load_row(wolds.as_slice(), c);
                            let r = ress.slice_mut(0, ress.len());
                            let mut res_row: [R; 4] = resv.load_row(r, c);
                            let mut w1_row = [R::ZERO; 4];
                            rk_1(&w_old_row, &mut res_row, &mut w1_row, area.row(c)[0], dt);
                            w1v.store_row(w1s.slice_mut(0, w1s.len()), c, &w1_row);
                            resv.store_row(r, c, &res_row);
                        },
                        move |cs| unsafe {
                            rk1_chunk::<R, A, L>(
                                cs,
                                wolds.as_slice(),
                                woldv,
                                ress.slice_mut(0, ress.len()),
                                resv,
                                w1s.slice_mut(0, w1s.len()),
                                w1v,
                                &area.data,
                                dt.slice(step, 1)[0],
                            );
                        },
                    );
                } else {
                    chain.record_simd(
                        desc("RK_2", nc),
                        vec![],
                        L,
                        move |c| unsafe {
                            let dt = dt.slice(step, 1)[0];
                            let w_old_row: [R; 4] = woldv.load_row(wolds.as_slice(), c);
                            let w1_row: [R; 4] = w1v.load_row(w1s.as_slice(), c);
                            let r = ress.slice_mut(0, ress.len());
                            let mut res_row: [R; 4] = resv.load_row(r, c);
                            let mut w_row = [R::ZERO; 4];
                            rk_2(
                                &w_old_row,
                                &w1_row,
                                &mut res_row,
                                &mut w_row,
                                area.row(c)[0],
                                dt,
                            );
                            wv.store_row(ws.slice_mut(0, ws.len()), c, &w_row);
                            resv.store_row(r, c, &res_row);
                        },
                        move |cs| unsafe {
                            rk2_chunk::<R, A, L>(
                                cs,
                                wolds.as_slice(),
                                woldv,
                                w1s.as_slice(),
                                w1v,
                                ress.slice_mut(0, ress.len()),
                                resv,
                                ws.slice_mut(0, ws.len()),
                                wv,
                                &area.data,
                                dt.slice(step, 1)[0],
                            );
                        },
                    );
                }
                if halo.is_some() {
                    chain.mark_interior();
                    // discard ghost increments (owners recompute them)
                    chain.epilogue(move || unsafe {
                        for v in ress.slice_mut(nc * 4, ress.len() - nc * 4) {
                            *v = R::ZERO;
                        }
                    });
                }
            }
        }
        chain
    }
}
