//! The Volna loop drivers (one step = one RK2 time step; returns the CFL
//! Δt used). Same structure as the Airfoil drivers — the hand-written
//! [`step_seq`] oracle, the one recording of the step as an `ump_lazy`
//! chain ([`step_chain`]: every shared-memory registry row is an
//! execution of it, in a [`Shape`] under a [`Fusion`] policy and in
//! whatever layout the state is stored in; a rank of the distributed
//! backend executes it with its [`RankHalo`] hooks switched on), the
//! tiled recording, and the [`step_on`] registry dispatcher; the paper
//! benchmarks Volna in single precision through the same MPI / OpenMP /
//! OpenCL / intrinsics configurations.

use ump_color::PlanInputs;
use ump_core::{
    seq_loop, simd_block_sweep, two_rows_mut, Backend, ExecPool, Layout, OpDat, PlanCache,
    Recorder, Scheme, SharedDat,
};
use ump_lazy::{Chain, ExchangePolicy, Fusion, LoopDesc, Shape, TileReport, TiledChain, VecHint};
use ump_mesh::Mesh2d;
use ump_simd::{DatView, IdxVec, Real, VecR};

use super::kernels::{bc_flux, compute_flux, numerical_flux, rk_1, rk_2, sim_1, space_disc};
use super::kernels_vec::{
    compute_flux_vec, numerical_flux_vec, rk_1_vec, rk_2_vec, space_disc_vec,
};
use super::mpi::RankState;
use super::{phase_desc, profile, Volna, CFL, GRAVITY, H_MIN};
use crate::dist::{step_mpi_fused, RankHalo};
use crate::{
    chain_exec, maybe_time, no_lane_instantiation, ChainExec, Lanes, DISPATCH_TILE_BLOCKS,
};

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
/// [`DatView`] signature: the chunk bodies have one form, and the view's
/// row accessors branch on the layout.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn compute_flux_chunk<R: Real, const L: usize>(
    es: usize,
    e2c: &[i32],
    egeom: &[R],
    egv: DatView,
    state: &[R],
    sv: DatView,
    eflux: &mut [R],
    efv: DatView,
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
pub(crate) fn numerical_flux_chunk<R: Real, const L: usize>(
    es: usize,
    e2c: &[i32],
    eflux: &[R],
    efv: DatView,
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

/// `L` edges of vectorized `space_disc` — a lane-aligned chunk or a
/// color-permuted group — with *serialized* row scatter (lane by lane,
/// the left cell's row then the right's: the order of the recording's
/// scalar `apply`; a permuted group shares no target cell, which makes
/// it §4's true vector scatter).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn space_disc_chunk<R: Real, const L: usize>(
    lanes: Lanes<'_>,
    e2c: &[i32],
    egeom: &[R],
    egv: DatView,
    eflux: &[R],
    efv: DatView,
    state: &[R],
    sv: DatView,
    res: &mut [R],
    resv: DatView,
    g: R,
) {
    let c0 = lanes.mapped::<L>(e2c, 2, 0);
    let c1 = lanes.mapped::<L>(e2c, 2, 1);
    let geom: [VecR<R, L>; 4] = lanes.rows(egv, egeom);
    let ef: [VecR<R, L>; 4] = lanes.rows(efv, eflux);
    let wl: [VecR<R, L>; 4] = sv.gather_rows(state, c0);
    let wr: [VecR<R, L>; 4] = sv.gather_rows(state, c1);
    // slot 3 (bathymetry) carries no increment: three of four components land
    let ([l0, l1, l2, _], [r0, r1, r2, _]) = space_disc_vec(&geom, &ef, &wl, &wr, g);
    resv.scatter_add_rows_serial([(&[l0, l1, l2], c0), (&[r0, r1, r2], c1)], res);
}

/// One lane-aligned chunk of vectorized `RK_1`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn rk1_chunk<R: Real, const L: usize>(
    cs: usize,
    w_old: &[R],
    woldv: DatView,
    res: &mut [R],
    resv: DatView,
    w1: &mut [R],
    w1v: DatView,
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
pub(crate) fn rk2_chunk<R: Real, const L: usize>(
    cs: usize,
    w_old: &[R],
    woldv: DatView,
    w1: &[R],
    w1v: DatView,
    res: &mut [R],
    resv: DatView,
    w: &mut [R],
    wv: DatView,
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
// the recorded RK2 step — one ump_lazy chain, every shared-memory shape
// ---------------------------------------------------------------------------

/// The dats of one Volna step, borrowed from a global [`Volna`] or from
/// a rank's piece of one (`mpi::RankState`).
pub(crate) struct StepDats<'a, R: Real> {
    pub mesh: &'a Mesh2d,
    pub w: &'a mut OpDat<R>,
    pub w_old: &'a mut OpDat<R>,
    pub w1: &'a mut OpDat<R>,
    pub res: &'a mut OpDat<R>,
    pub area: &'a OpDat<R>,
    pub egeom: &'a OpDat<R>,
    pub eflux: &'a mut OpDat<R>,
    pub bgeom: &'a OpDat<R>,
}

/// One RK2 step recorded as an `ump_lazy` loop chain and executed on
/// `pool` in `shape`, grouped per `fusion` — the direct entry to what
/// every shared-memory registry row runs (mirrors
/// [`airfoil::drivers::step_chain`](crate::airfoil::drivers::step_chain)).
/// One recorded chain carries scalar and `L`-lane vector bodies, so it
/// serves [`Shape::Threaded`], [`Shape::Simt`] and
/// [`Shape::Simd`]`{ lanes: L }` on the same plans. Returns Δt.
///
/// Under [`Fusion::PerLoop`] the eight pooled loops are dispatched one
/// by one. Under [`Fusion::Groups`] the three edge loops of phase 0
/// (`compute_flux`, `numerical_flux`, `space_disc`) fuse into a single
/// colored dispatch — their dependencies are direct (the per-edge flux
/// pack) — and phase 1 fuses `compute_flux+space_disc`: three dispatch
/// rounds fewer per step, with the edge working set streamed once per
/// group. Under both, the Δt reduction is merged by an epilogue before
/// `RK_1` consumes it.
#[allow(clippy::too_many_arguments)]
pub fn step_chain<R: Real, const L: usize>(
    pool: &ExecPool,
    sim: &mut Volna<R>,
    cache: &PlanCache,
    shape: Shape,
    fusion: Fusion,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let exec = ChainExec::on_pool(shape, fusion);
    step_exec::<R, L>(exec, pool, sim, cache, n_threads, block_size, rec)
}

/// [`step_chain`] as a registry row executes it.
fn step_exec<R: Real, const L: usize>(
    exec: ChainExec,
    pool: &ExecPool,
    sim: &mut Volna<R>,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let dats = StepDats {
        mesh: &sim.case.mesh,
        w: &mut sim.w,
        w_old: &mut sim.w_old,
        w1: &mut sim.w1,
        res: &mut sim.res,
        area: &sim.area,
        egeom: &sim.egeom,
        eflux: &mut sim.eflux,
        bgeom: &sim.bgeom,
    };
    recorded_step::<R, L>(dats, None, pool, cache, exec, n_threads, block_size, rec)
}

/// The one recording of the RK2 step, executed as `exec` says: over a
/// global state (`halo: None`) or a rank's piece of one. A rank's [`RankHalo`]
/// adds what `op_mpi_halo_exchanges` adds around unchanged loops:
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
/// The CFL Δt is the implicit synchronization point §6.5 charges the Phi
/// for: it merges deterministically (block order within the rank, rank
/// order across ranks) inside the flux group's epilogue, before `RK_1`
/// consumes it. The halo markings are applied only for a rank:
/// `mark_boundary` forces the interior → finish → boundary split, which
/// a single process must not pay. Returns the (globally agreed) Δt.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recorded_step<R: Real, const L: usize>(
    dats: StepDats<'_, R>,
    halo: Option<&RankHalo<'_>>,
    pool: &ExecPool,
    cache: &PlanCache,
    exec: ChainExec,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let shape = exec.shape;
    if let Shape::Simd { lanes } = shape {
        assert_eq!(
            lanes, L,
            "shape sweeps {lanes} lanes, the recorded chunk bodies are {L} wide"
        );
    }
    let g = R::from_f64(GRAVITY);
    let h_min = R::from_f64(H_MIN);
    let cfl = R::from_f64(CFL);
    let StepDats {
        mesh,
        w,
        w_old,
        w1,
        res,
        area,
        egeom,
        eflux,
        bgeom,
    } = dats;
    // layout views, captured before the SharedDat borrows below: every
    // access in the recorded bodies goes through them, so the one chain
    // runs natively on AoS, SoA or AoSoA storage; rank-local dats are
    // always AoS
    let (wv, woldv, w1v, resv) = (w.view(), w_old.view(), w1.view(), res.view());
    let (egv, efv, bgv) = (egeom.view(), eflux.view(), bgeom.view());
    let nc = halo.map_or(mesh.n_cells(), |h| h.n_owned);
    let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
    // the chain's own blocks may span whole sets; the permute plans keep
    // the caller's block size
    let chain_block = exec.chain_block(block_size);
    let n_edge_blocks = ne.div_ceil(chain_block);
    // Δt partials: one slot per edge block, folded by an epilogue into
    // `dt_slot` before RK_1 (a later loop of the same chain) reads it
    let mut dt_blocks = vec![R::INFINITY; n_edge_blocks];
    let mut dt_slot = vec![R::INFINITY; 1];
    {
        let ws = SharedDat::new(&mut w.data);
        let wolds = SharedDat::new(&mut w_old.data);
        let w1s = SharedDat::new(&mut w1.data);
        let ress = SharedDat::new(&mut res.data);
        let efs = SharedDat::new(&mut eflux.data);
        let dts = SharedDat::new(&mut dt_blocks);
        let dtf = SharedDat::new(&mut dt_slot);
        // every recorded vector body runs under `Shape::Simd` (measured:
        // see the Airfoil recording and docs/ARCHITECTURE.md §8)
        let desc =
            |name: &str, n: usize| LoopDesc::new(profile(name), n).with_hint(VecHint::Vector);
        let state_desc = |name: &str, n: usize, phase: usize| {
            phase_desc(name, n, phase).with_hint(VecHint::Vector)
        };

        let mut chain = Chain::new("volna_step");
        if let Some(h) = halo {
            // refresh w ghosts for phase 0: posted before sim_1 so the
            // copy loop also hides message latency
            h.record_exchange(&mut chain, "halo[w]", &ws, 4, 0);
        }
        {
            let (ws, wolds) = (&ws, &wolds);
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
        }
        for phase in 0..2 {
            let state = if phase == 0 { &ws } else { &w1s };
            let sv = if phase == 0 { wv } else { w1v };
            if let (1, Some(h)) = (phase, halo) {
                // refresh w1 ghosts (RK_1 wrote owned rows only)
                h.record_exchange(&mut chain, "halo[w1]", &w1s, 4, 1);
            }
            {
                let efs = &efs;
                chain.record_simd(
                    state_desc("compute_flux", ne, phase),
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
                        compute_flux_chunk::<R, L>(
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
            }
            if phase == 0 {
                {
                    let (efs, dts) = (&efs, &dts);
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
                    // under the SIMD shape one vector accumulator — and
                    // lands in its block slot with one store (`min` is
                    // exact in any order)
                    let flux_desc = desc("numerical_flux", ne);
                    let vector = matches!(shape, Shape::Simd { .. }) && flux_desc.vectorize();
                    chain.record_blocks(flux_desc, vec![], move |b, range| {
                        let mut local = R::INFINITY;
                        if vector {
                            let mut local_v = VecR::<R, L>::splat(R::INFINITY);
                            simd_block_sweep(
                                range,
                                L,
                                |e| unsafe { flux_edge!(e, &mut local) },
                                |es| unsafe {
                                    numerical_flux_chunk::<R, L>(
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
                        unsafe { dts.slice_mut(b, 1)[0] = local };
                    });
                    // numerical_flux reads edge-local flux and the local
                    // cell areas — no halo data
                    if halo.is_some() {
                        chain.mark_interior();
                    }
                }
                {
                    // fold the Δt partials; across ranks the global CFL
                    // agreement is the rank-ordered min-allreduce — the
                    // step's implicit synchronization point (exact
                    // through f64 at either precision)
                    let (dts, dtf) = (&dts, &dtf);
                    chain.epilogue(move || unsafe {
                        let mut merged = R::INFINITY;
                        for &v in dts.slice(0, dts.len()) {
                            merged = if v < merged { v } else { merged };
                        }
                        if let Some(h) = halo {
                            merged = R::from_f64(h.comm.allreduce_min(merged.to_f64()));
                        }
                        dtf.slice_mut(0, 1)[0] = merged;
                    });
                }
            }
            {
                let (efs, ress) = (&efs, &ress);
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
                let space_disc_desc = state_desc("space_disc", ne, phase);
                let chunk = move |lanes: Lanes<'_>| unsafe {
                    space_disc_chunk::<R, L>(
                        lanes,
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
                };
                match exec.scheme {
                    Scheme::TwoLevel => {
                        chain.record_simd_two_phase(
                            space_disc_desc,
                            vec![&mesh.edge2cell],
                            L,
                            compute,
                            apply,
                            move |es| chunk(Lanes::Aligned(es)),
                        );
                    }
                    permute => {
                        // Fig. 8a's schemes: the calling thread walks the
                        // permute plan's conflict-free color groups
                        let inputs = PlanInputs::new(ne, vec![&mesh.edge2cell], block_size);
                        let plan = cache.get(permute, &[&mesh.edge2cell.name], &inputs);
                        chain.record_seq(space_disc_desc, move || {
                            plan.for_each_color_group(
                                L,
                                |ids| chunk(Lanes::Permuted(ids)),
                                |e| apply(e, &compute(e)),
                            );
                        });
                    }
                }
                if let Some(h) = halo {
                    chain.mark_boundary(h.edge_halo);
                }
            }
            {
                let ress = &ress;
                chain.record_seq(state_desc("bc_flux", nb, phase), move || {
                    for be in 0..nb {
                        let c0 = mesh.bedge2cell.at(be, 0);
                        unsafe {
                            let bg: [R; 2] = bgv.load_row(&bgeom.data, be);
                            let wrow: [R; 4] = sv.load_row(state.as_slice(), c0);
                            let r = ress.slice_mut(0, ress.len());
                            let mut rrow: [R; 4] = resv.load_row(r, c0);
                            bc_flux(&bg, &wrow, &mut rrow, g);
                            resv.store_row(r, c0, &rrow);
                        }
                    }
                });
                // bedges map to owned cells only
                if halo.is_some() {
                    chain.mark_interior();
                }
            }
            if phase == 0 {
                let (wolds, w1s, ress, dtf) = (&wolds, &w1s, &ress, &dtf);
                chain.record_simd(
                    desc("RK_1", nc),
                    vec![],
                    L,
                    move |c| unsafe {
                        let dt = dtf.slice(0, 1)[0];
                        let w_old_row: [R; 4] = woldv.load_row(wolds.as_slice(), c);
                        let r = ress.slice_mut(0, ress.len());
                        let mut res_row: [R; 4] = resv.load_row(r, c);
                        let mut w1_row = [R::ZERO; 4];
                        rk_1(&w_old_row, &mut res_row, &mut w1_row, area.row(c)[0], dt);
                        w1v.store_row(w1s.slice_mut(0, w1s.len()), c, &w1_row);
                        resv.store_row(r, c, &res_row);
                    },
                    move |cs| unsafe {
                        let dt = dtf.slice(0, 1)[0];
                        rk1_chunk::<R, L>(
                            cs,
                            wolds.as_slice(),
                            woldv,
                            ress.slice_mut(0, ress.len()),
                            resv,
                            w1s.slice_mut(0, w1s.len()),
                            w1v,
                            &area.data,
                            dt,
                        );
                    },
                );
            } else {
                let (wolds, w1s, ress, ws, dtf) = (&wolds, &w1s, &ress, &ws, &dtf);
                chain.record_simd(
                    desc("RK_2", nc),
                    vec![],
                    L,
                    move |c| unsafe {
                        let dt = dtf.slice(0, 1)[0];
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
                        let dt = dtf.slice(0, 1)[0];
                        rk2_chunk::<R, L>(
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
                            dt,
                        );
                    },
                );
            }
            if halo.is_some() {
                chain.mark_interior();
                // discard ghost increments (owners recompute them)
                let ress = &ress;
                chain.epilogue(move || unsafe {
                    for v in ress.slice_mut(nc * 4, ress.len() - nc * 4) {
                        *v = R::ZERO;
                    }
                });
            }
        }
        let policy = halo.map_or(ExchangePolicy::Overlap, |h| h.policy);
        exec.execute(
            &chain,
            pool,
            cache,
            n_threads,
            block_size,
            R::BYTES,
            rec,
            policy,
        );
    }
    dt_slot[0].to_f64()
}

// ---------------------------------------------------------------------------
// cross-timestep sparse tiling
// ---------------------------------------------------------------------------

/// Record `steps` RK2 steps as one tiled super-chain
/// ([`ump_lazy::TiledChain`]) and sweep it tile-by-tile. Unlike
/// Airfoil's single-epoch chain, Volna's CFL Δt is *consumed* in-chain
/// (`RK_1`/`RK_2` read what `numerical_flux` reduced), so the scheduler
/// cuts the super-chain into two epochs per step at those global
/// barriers — the cross-step cones span the `RK_1 … compute_flux'`
/// epoch that straddles the step boundary. Returns the per-step Δt
/// values.
///
/// Determinism mirrors the Airfoil driver: ascending per-tile execution
/// makes cell/edge state bit-identical to [`step_seq`]; Δt partials land
/// in per-`(step, edge-block)` slots (block-aligned ownership keeps the
/// slots tile-exclusive) merged in block order by an epoch epilogue —
/// and `min` is exact in any order, so Δt equals every other backend's
/// bit-for-bit. Tiled execution is defined on AoS rows: a state in
/// another layout is converted to AoS and back around the call (a pure
/// index permutation, bit-exact).
///
/// The cone schedule is inspected once and kept, with the executor's
/// buffers, in `sim.tiles`: a repeated `(steps, tile_cells,
/// block_size)` only executes. `steps == 0` returns an empty history
/// and leaves the state and the cache untouched.
pub fn run_tiled_on<R: Real, const L: usize>(
    sim: &mut Volna<R>,
    pool: &ExecPool,
    n_threads: usize,
    steps: usize,
    tile_cells: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> Vec<f64> {
    run_tiled_report_on::<R, L>(sim, pool, n_threads, steps, tile_cells, block_size, rec).0
}

/// [`run_tiled_on`] returning the executor's [`TileReport`] alongside
/// the history — the bench harness reads the measured redundant-compute
/// fraction and copy traffic from it.
pub fn run_tiled_report_on<R: Real, const L: usize>(
    sim: &mut Volna<R>,
    pool: &ExecPool,
    n_threads: usize,
    steps: usize,
    tile_cells: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> (Vec<f64>, TileReport) {
    let layout = sim.layout();
    if layout != Layout::Aos {
        sim.set_layout(Layout::Aos);
        let out =
            run_tiled_report_on::<R, L>(sim, pool, n_threads, steps, tile_cells, block_size, rec);
        sim.set_layout(layout);
        return out;
    }
    let g = R::from_f64(GRAVITY);
    let h_min = R::from_f64(H_MIN);
    let cfl = R::from_f64(CFL);
    let Volna {
        case,
        w,
        w_old,
        w1,
        res,
        area,
        egeom,
        eflux,
        bgeom,
        tiles,
    } = sim;
    let mesh = &case.mesh;
    let (area, egeom, bgeom) = (&*area, &*egeom, &*bgeom);
    let (nc, ne, nb) = (mesh.n_cells(), mesh.n_edges(), mesh.n_bedges());
    let neb = ne.div_ceil(block_size);
    // Δt partials per (step, edge block) + the per-step merged minima
    let mut dt_parts = vec![R::INFINITY; steps * neb];
    let mut dt_merged = vec![R::INFINITY; steps];
    let report;
    {
        let dts = SharedDat::new(&mut dt_parts);
        let dtm = SharedDat::new(&mut dt_merged);
        let (dts, dtm) = (&dts, &dtm);
        let mut chain = TiledChain::new("volna_tiled");
        chain.register_set("cells", nc);
        chain.register_set("edges", ne);
        chain.register_set("bedges", nb);
        chain.register_map(&mesh.edge2cell);
        chain.register_map(&mesh.bedge2cell);
        let wd = chain.register_dat("w", "cells", 4, &mut w.data);
        let wod = chain.register_dat("w_old", "cells", 4, &mut w_old.data);
        let w1d = chain.register_dat("w1", "cells", 4, &mut w1.data);
        let resd = chain.register_dat("res", "cells", 4, &mut res.data);
        let efd = chain.register_dat("eflux", "edges", 4, &mut eflux.data);
        for s in 0..steps {
            chain.begin_step();
            chain.record_vec(
                LoopDesc::new(profile("sim_1"), nc),
                move |ctx, c| {
                    let w = ctx.dat(wd);
                    let w_old = unsafe { ctx.dat_mut(wod) };
                    sim_1(&w[c * 4..c * 4 + 4], &mut w_old[c * 4..c * 4 + 4]);
                },
                move |ctx, start, len| {
                    // pure copy: lane moves over the run, scalar tail
                    let w = ctx.dat(wd);
                    let w_old = unsafe { ctx.dat_mut(wod) };
                    let (mut c, end) = (start, start + len);
                    while c + L <= end {
                        for j in 0..4 {
                            let v = VecR::<R, L>::from_fn(|l| w[(c + l) * 4 + j]);
                            for l in 0..L {
                                w_old[(c + l) * 4 + j] = v.lane(l);
                            }
                        }
                        c += L;
                    }
                    while c < end {
                        sim_1(&w[c * 4..c * 4 + 4], &mut w_old[c * 4..c * 4 + 4]);
                        c += 1;
                    }
                },
            );
            for phase in 0..2 {
                let sd = if phase == 0 { wd } else { w1d };
                chain.record(phase_desc("compute_flux", ne, phase), move |ctx, e| {
                    let c = mesh.edge2cell.row(e);
                    let state = ctx.dat(sd);
                    let eflux = unsafe { ctx.dat_mut(efd) };
                    compute_flux(
                        egeom.row(e),
                        &state[c[0] as usize * 4..c[0] as usize * 4 + 4],
                        &state[c[1] as usize * 4..c[1] as usize * 4 + 4],
                        &mut eflux[e * 4..e * 4 + 4],
                        g,
                        h_min,
                    );
                });
                if phase == 0 {
                    chain.record(
                        LoopDesc::new(profile("numerical_flux"), ne),
                        move |ctx, e| {
                            // the cone schedules exactly the owned
                            // iterations of a pure-reduction loop, so the
                            // block slot is tile-exclusive
                            debug_assert!(ctx.owned(e));
                            let c = mesh.edge2cell.row(e);
                            let eflux = ctx.dat(efd);
                            let slot =
                                unsafe { &mut dts.slice_mut(s * neb + e / block_size, 1)[0] };
                            numerical_flux(
                                egeom.row(e),
                                &eflux[e * 4..e * 4 + 4],
                                area.row(c[0] as usize)[0],
                                area.row(c[1] as usize)[0],
                                slot,
                                cfl,
                            );
                        },
                    );
                    // merged at this epoch's barrier, before the next
                    // epoch's RK_1 reads it — block-ascending fold, same
                    // as the fused chain's epilogue (min is exact in any
                    // order, so Δt matches every backend bit-for-bit)
                    chain.epilogue(move || unsafe {
                        let mut merged = R::INFINITY;
                        for &v in dts.slice(s * neb, neb) {
                            merged = if v < merged { v } else { merged };
                        }
                        dtm.slice_mut(s, 1)[0] = merged;
                    });
                }
                chain.record(phase_desc("space_disc", ne, phase), move |ctx, e| {
                    let c = mesh.edge2cell.row(e);
                    let (c0, c1) = (c[0] as usize, c[1] as usize);
                    let state = ctx.dat(sd);
                    let eflux = ctx.dat(efd);
                    let res = unsafe { ctx.dat_mut(resd) };
                    let (rl, rr) = two_rows_mut(res, 4, c0, c1);
                    space_disc(
                        egeom.row(e),
                        &eflux[e * 4..e * 4 + 4],
                        &state[c0 * 4..c0 * 4 + 4],
                        &state[c1 * 4..c1 * 4 + 4],
                        rl,
                        rr,
                        g,
                    );
                });
                chain.record(phase_desc("bc_flux", nb, phase), move |ctx, be| {
                    let c0 = mesh.bedge2cell.at(be, 0);
                    let state = ctx.dat(sd);
                    let res = unsafe { ctx.dat_mut(resd) };
                    bc_flux(
                        bgeom.row(be),
                        &state[c0 * 4..c0 * 4 + 4],
                        &mut res[c0 * 4..c0 * 4 + 4],
                        g,
                    );
                });
                if phase == 0 {
                    chain.record(LoopDesc::new(profile("RK_1"), nc), move |ctx, c| {
                        let dt = unsafe { dtm.slice(s, 1)[0] };
                        let w_old = ctx.dat(wod);
                        let res = unsafe { ctx.dat_mut(resd) };
                        let w1 = unsafe { ctx.dat_mut(w1d) };
                        rk_1(
                            &w_old[c * 4..c * 4 + 4],
                            &mut res[c * 4..c * 4 + 4],
                            &mut w1[c * 4..c * 4 + 4],
                            area.row(c)[0],
                            dt,
                        );
                    });
                } else {
                    chain.record(LoopDesc::new(profile("RK_2"), nc), move |ctx, c| {
                        let dt = unsafe { dtm.slice(s, 1)[0] };
                        let w_old = ctx.dat(wod);
                        let w1 = ctx.dat(w1d);
                        let res = unsafe { ctx.dat_mut(resd) };
                        let w = unsafe { ctx.dat_mut(wd) };
                        rk_2(
                            &w_old[c * 4..c * 4 + 4],
                            &w1[c * 4..c * 4 + 4],
                            &mut res[c * 4..c * 4 + 4],
                            &mut w[c * 4..c * 4 + 4],
                            area.row(c)[0],
                            dt,
                        );
                    });
                }
            }
        }
        report = chain.execute(
            pool,
            tiles,
            tile_cells,
            block_size,
            n_threads,
            L,
            R::BYTES,
            rec,
        );
    }
    (dt_merged.iter().map(|v| v.to_f64()).collect(), report)
}

// ---------------------------------------------------------------------------
// the unified dispatcher — one entry point per execution shape
// ---------------------------------------------------------------------------

/// One RK2 step through any registered [`Backend`], on an explicit pool
/// — the Volna half of the conformance matrix. Mirrors
/// [`airfoil::drivers::step_on`](crate::airfoil::drivers::step_on):
/// pool-free backends ignore `pool`/`n_threads`, lane-carrying backends
/// dispatch to the L = 4 / 8 const instantiations and panic, naming the
/// backend, for unregistered widths.
pub fn step_on<R: Real>(
    backend: Backend,
    sim: &mut Volna<R>,
    pool: &ExecPool,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    // the recorded chain runs natively on SoA/AoSoA storage (and the
    // tiled entry point converts for itself); only the rows that are AoS
    // by definition — the oracle, and the ranks' row extraction from the
    // global state — convert around the step (pure permutation: results
    // are bit-identical to an all-AoS run)
    let layout = sim.layout();
    if layout != Layout::Aos
        && matches!(
            backend,
            Backend::Seq | Backend::MpiFused | Backend::MpiFusedSimd { .. }
        )
    {
        sim.set_layout(Layout::Aos);
        let out = step_on(backend, sim, pool, cache, n_threads, block_size, rec);
        sim.set_layout(layout);
        return out;
    }
    let Some(exec) = chain_exec(backend) else {
        let tile_cells = DISPATCH_TILE_BLOCKS * block_size;
        return match backend {
            Backend::Seq => step_seq(sim, rec),
            // the tiled executor as a 1-step super-chain; multi-step
            // harnesses call `run_tiled_on` directly
            Backend::Tiled => {
                run_tiled_on::<R, 1>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            Backend::TiledSimd { lanes: 4 } => {
                run_tiled_on::<R, 4>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            Backend::TiledSimd { lanes: 8 } => {
                run_tiled_on::<R, 8>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            other => no_lane_instantiation(other),
        };
    };
    // scalar shapes ride on the L = 4 instantiation; distributed rows
    // give every rank its own pool and never touch the caller's
    match (backend.is_distributed(), backend.lanes()) {
        (false, 1 | 4) => step_exec::<R, 4>(exec, pool, sim, cache, n_threads, block_size, rec),
        (false, 8) => step_exec::<R, 8>(exec, pool, sim, cache, n_threads, block_size, rec),
        (true, 1 | 4) => {
            step_mpi_fused::<RankState<R>, 4>(sim, backend.ranks(), block_size, exec.shape, rec)
        }
        (true, 8) => {
            step_mpi_fused::<RankState<R>, 8>(sim, backend.ranks(), block_size, exec.shape, rec)
        }
        _ => no_lane_instantiation(backend),
    }
}
