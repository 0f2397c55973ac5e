//! The Airfoil loop drivers — the code OP2's generator emits from one
//! `op_par_loop` declaration per kernel.
//!
//! Each entry point advances one outer iteration (save_soln + 2 ×
//! {adt_calc, res_calc, bres_calc, update}) and returns the normalized
//! RMS residual:
//!
//! * [`step_seq`] — the hand-written scalar reference (paper Fig. 2b's
//!   per-rank loop); the oracle every other path is tested against,
//! * [`step_chain`] — the timestep recorded once as an `ump_lazy` chain
//!   (scalar element body, `L`-lane chunk body and reduction per loop)
//!   and executed in a [`Shape`] under a [`Fusion`] policy: colored-block
//!   threading (OpenMP), explicit SIMD with gathers, serialized scatters
//!   and the three-sweep structure (Fig. 3b), threads × vectors and the
//!   OpenCL-on-CPU SIMT emulation (Fig. 3a), loop by loop or with
//!   cross-loop fusion, are executions of the one recording, in whatever
//!   layout the state is stored in; a rank of the distributed backend
//!   executes it with its halo hooks ([`RankHalo`]) switched on,
//! * [`run_tiled_on`] — cross-timestep sparse tiling: N iterations of
//!   the same recording executed tile by tile,
//! * [`step_on`] — the registry dispatcher over all of the above.
//!
//! All drivers compute identical physics; integration tests pin them to
//! the sequential reference within floating-point reassociation bounds.

use std::sync::Arc;

use ump_core::plan::AnyPlan;
use ump_core::{
    seq_loop, simd_block_sweep, two_rows_mut, Backend, ExecPool, Layout, OpDat, PlanCache,
    Recorder, SharedDat,
};
use ump_lazy::{Chain, ExchangePolicy, Fusion, LoopDesc, Shape, TileReport, TiledChain, VecHint};
use ump_mesh::Mesh2d;
use ump_simd::{DatView, IdxVec, Real, VecR};

use super::kernels::{adt_calc, bres_calc, res_calc, save_soln, update};
use super::kernels_vec::{adt_calc_vec, res_calc_vec, update_vec};
use super::mpi::RankState;
use super::{profile, Airfoil, Consts};
use crate::dist::{step_mpi_fused, RankHalo};
use crate::{
    chain_exec, maybe_time, no_lane_instantiation, tile_shape, ChainExec, Lanes,
    DISPATCH_TILE_BLOCKS,
};

// ---------------------------------------------------------------------------
// sequential reference
// ---------------------------------------------------------------------------

/// One iteration, scalar sequential. Returns √(Σ del²/cells).
pub fn step_seq<R: Real>(sim: &mut Airfoil<R>, rec: Option<&Recorder>) -> f64 {
    let wb = R::BYTES;
    let Airfoil {
        case,
        consts,
        x,
        q,
        qold,
        adt,
        res,
        ..
    } = sim;
    let mesh = &case.mesh;
    let (nc, ne, nb) = (mesh.n_cells(), mesh.n_edges(), mesh.n_bedges());

    maybe_time(rec, "save_soln", wb, nc, || {
        seq_loop(0..nc, |c| save_soln(q.row(c), qold.row_mut(c)));
    });

    let mut rms = R::ZERO;
    for _phase in 0..2 {
        maybe_time(rec, "adt_calc", wb, nc, || {
            seq_loop(0..nc, |c| {
                let n = mesh.cell2node.row(c);
                let mut a = R::ZERO;
                adt_calc(
                    x.row(n[0] as usize),
                    x.row(n[1] as usize),
                    x.row(n[2] as usize),
                    x.row(n[3] as usize),
                    q.row(c),
                    &mut a,
                    consts,
                );
                adt.row_mut(c)[0] = a;
            });
        });
        maybe_time(rec, "res_calc", wb, ne, || {
            seq_loop(0..ne, |e| {
                let n = mesh.edge2node.row(e);
                let c = mesh.edge2cell.row(e);
                let (c0, c1) = (c[0] as usize, c[1] as usize);
                let (r1, r2) = two_rows_mut(&mut res.data, 4, c0, c1);
                res_calc(
                    x.row(n[0] as usize),
                    x.row(n[1] as usize),
                    q.row(c0),
                    q.row(c1),
                    adt.row(c0)[0],
                    adt.row(c1)[0],
                    r1,
                    r2,
                    consts,
                );
            });
        });
        maybe_time(rec, "bres_calc", wb, nb, || {
            seq_loop(0..nb, |be| {
                let n = mesh.bedge2node.row(be);
                let c0 = mesh.bedge2cell.at(be, 0);
                bres_calc(
                    x.row(n[0] as usize),
                    x.row(n[1] as usize),
                    q.row(c0),
                    adt.row(c0)[0],
                    res.row_mut(c0),
                    case.bound[be],
                    consts,
                );
            });
        });
        maybe_time(rec, "update", wb, nc, || {
            seq_loop(0..nc, |c| {
                let a = adt.row(c)[0];
                let (qr, resr) = (c * 4, c * 4);
                update(
                    &qold.data[qr..qr + 4],
                    &mut q.data[qr..qr + 4],
                    &mut res.data[resr..resr + 4],
                    a,
                    &mut rms,
                );
            });
        });
    }
    sim.normalize_rms(rms.to_f64())
}

// ---------------------------------------------------------------------------
// lane-chunk bodies (paper Fig. 3b) of the recorded chain
// ---------------------------------------------------------------------------

/// One lane-aligned chunk of vectorized `adt_calc`: gather the node
/// coordinate rows through `cell2node`, load the q rows through their
/// layout view, store adt contiguously (dim-1 dats index identically in
/// every layout). Raw-slice + [`DatView`] signature: the chunk bodies
/// have one form, and the view's row accessors branch on the layout.
#[inline(always)]
pub(crate) fn adt_chunk<R: Real, const L: usize>(
    cs: usize,
    c2n: &[i32],
    x: &[R],
    xv: DatView,
    q: &[R],
    qv: DatView,
    adt: &mut [R],
    consts: &super::Consts<R>,
) {
    let x1: [VecR<R, L>; 2] = xv.gather_rows(x, IdxVec::load_strided(c2n, cs * 4, 4));
    let x2: [VecR<R, L>; 2] = xv.gather_rows(x, IdxVec::load_strided(c2n, cs * 4 + 1, 4));
    let x3: [VecR<R, L>; 2] = xv.gather_rows(x, IdxVec::load_strided(c2n, cs * 4 + 2, 4));
    let x4: [VecR<R, L>; 2] = xv.gather_rows(x, IdxVec::load_strided(c2n, cs * 4 + 3, 4));
    let q_p: [VecR<R, L>; 4] = qv.load_rows(q, cs);
    let a = adt_calc_vec(&x1, &x2, &x3, &x4, &q_p, consts);
    a.store(adt, cs);
}

/// `L` edges of vectorized `res_calc` — a lane-aligned chunk or a
/// color-permuted group — with *serialized* row scatter (lane by lane,
/// `c0`'s row then `c1`'s: the order of the recording's scalar `apply`;
/// a permuted group shares no target cell, which makes it §4's true
/// vector scatter).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn res_chunk<R: Real, const L: usize>(
    lanes: Lanes<'_>,
    e2n: &[i32],
    e2c: &[i32],
    x: &[R],
    xv: DatView,
    q: &[R],
    qv: DatView,
    adt: &[R],
    res: &mut [R],
    resv: DatView,
    consts: &super::Consts<R>,
) {
    let n0 = lanes.mapped::<L>(e2n, 2, 0);
    let n1 = lanes.mapped::<L>(e2n, 2, 1);
    let c0 = lanes.mapped::<L>(e2c, 2, 0);
    let c1 = lanes.mapped::<L>(e2c, 2, 1);
    let x1: [VecR<R, L>; 2] = xv.gather_rows(x, n0);
    let x2: [VecR<R, L>; 2] = xv.gather_rows(x, n1);
    let q1: [VecR<R, L>; 4] = qv.gather_rows(q, c0);
    let q2: [VecR<R, L>; 4] = qv.gather_rows(q, c1);
    let a1 = VecR::gather(adt, c0, 1, 0);
    let a2 = VecR::gather(adt, c1, 1, 0);
    let mut r1 = [VecR::<R, L>::zero(); 4];
    let mut r2 = [VecR::<R, L>::zero(); 4];
    res_calc_vec(&x1, &x2, &q1, &q2, a1, a2, &mut r1, &mut r2, consts);
    resv.scatter_add_rows_serial([(&r1, c0), (&r2, c1)], res);
}

/// One lane-aligned chunk of vectorized `update`, folding the residual
/// into `rms` (the caller reduces the accumulator once per block).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_chunk<R: Real, const L: usize>(
    cs: usize,
    qold: &[R],
    qoldv: DatView,
    q: &mut [R],
    qv: DatView,
    res: &mut [R],
    resv: DatView,
    adt: &[R],
    rms: &mut VecR<R, L>,
) {
    let qold_p: [VecR<R, L>; 4] = qoldv.load_rows(qold, cs);
    let mut q_p = [VecR::<R, L>::zero(); 4];
    let mut res_p: [VecR<R, L>; 4] = resv.load_rows(res, cs);
    let adt_p = VecR::<R, L>::load(adt, cs);
    update_vec(&qold_p, &mut q_p, &mut res_p, adt_p, rms);
    qv.store_rows(&q_p, q, cs);
    resv.store_rows(&res_p, res, cs);
}

// ---------------------------------------------------------------------------
// the recorded timestep — one ump_lazy chain, every shared-memory shape
// ---------------------------------------------------------------------------

/// The dats of one Airfoil timestep, borrowed from a global [`Airfoil`]
/// or from a rank's piece of one (`mpi::RankState`).
pub(crate) struct StepDats<'a, R: Real> {
    pub mesh: &'a Mesh2d,
    pub bound: &'a [i32],
    pub consts: &'a Consts<R>,
    pub x: &'a OpDat<R>,
    pub q: &'a mut OpDat<R>,
    pub qold: &'a mut OpDat<R>,
    pub adt: &'a mut OpDat<R>,
    pub res: &'a mut OpDat<R>,
}

/// One iteration recorded as an `ump_lazy` loop chain and executed on
/// `pool` in `shape`, grouped per `fusion` — the direct entry to what
/// every shared-memory registry row runs. One recorded chain carries
/// both scalar and `L`-lane vector bodies, so it serves every shape:
/// scalar bodies under [`Shape::Threaded`] and the SIMT emulation
/// [`Shape::Simt`], and under [`Shape::Simd`]`{ lanes: L }` (any other
/// lane count panics before a loop runs) gathers through the mesh maps,
/// serialized lane scatters for the colored increment and the
/// three-sweep alignment handling.
///
/// Under [`Fusion::PerLoop`] the seven pooled loops of the nine-loop
/// timestep are dispatched one by one (`threaded`, `simd_threaded{L}`,
/// `simt`). Under [`Fusion::Groups`] they fuse into five groups —
/// `save_soln+adt_calc` and `update+adt_calc` share one colored dispatch
/// each (all direct dependencies), `res_calc` stays alone (indirect
/// increment) — so every step issues two dispatch rounds fewer while
/// computing identical physics on the same plans. The tiny `bres_calc`
/// runs serially under both.
#[allow(clippy::too_many_arguments)]
pub fn step_chain<R: Real, const L: usize>(
    pool: &ExecPool,
    sim: &mut Airfoil<R>,
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
    sim: &mut Airfoil<R>,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let dats = StepDats {
        mesh: &sim.case.mesh,
        bound: &sim.case.bound,
        consts: &sim.consts,
        x: &sim.x,
        q: &mut sim.q,
        qold: &mut sim.qold,
        adt: &mut sim.adt,
        res: &mut sim.res,
    };
    let rms = recorded_step::<R, L>(dats, None, pool, cache, exec, n_threads, block_size, rec);
    sim.normalize_rms(rms)
}

/// One iteration of the one recording, executed as `exec` says, over a
/// global state (`halo: None`) or a rank's piece of one. Returns Σ del²
/// over the executed cells (the caller normalizes, a rank after the
/// allreduce).
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
    if let Shape::Simd { lanes } = exec.shape {
        assert_eq!(
            lanes, L,
            "shape sweeps {lanes} lanes, the recorded chunk bodies are {L} wide"
        );
    }
    let n_cells = halo.map_or(dats.mesh.n_cells(), |h| h.n_owned);
    // the chain's own blocks may span whole sets; the permute plans keep
    // the caller's block size
    let permute = exec.permute_plan(cache, &dats.mesh.edge2cell, block_size);
    let inputs = StepInputs::new(
        &dats,
        n_cells,
        exec.chain_block(block_size),
        exec.shape,
        permute,
    );
    // rms partials: one slot per (phase, cell block), merged in block
    // order after the chain runs — a reduction that does not depend on
    // the team size or the grouping
    let mut rms_blocks = vec![R::ZERO; 2 * inputs.cell_blocks];
    {
        let StepDats {
            q, qold, adt, res, ..
        } = dats;
        let evolving = [q, qold, adt, res].map(|d| SharedDat::new(&mut d.data));
        let rms = SharedDat::new(&mut rms_blocks);
        let chain = record_steps::<R, L>(&inputs, &evolving, &rms, 1, halo);
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
    let mut rms = R::ZERO;
    for v in rms_blocks {
        rms += v;
    }
    rms.to_f64()
}

/// What a recording of Airfoil iterations reads besides the evolving
/// dats and the reduction slots.
pub(crate) struct StepInputs<'a, R: Real> {
    mesh: &'a Mesh2d,
    bound: &'a [i32],
    consts: &'a Consts<R>,
    x: &'a OpDat<R>,
    /// Layouts of q, qold and res: every access of the recorded bodies
    /// goes through them, so the one recording executes natively in AoS,
    /// SoA or AoSoA storage (dim-1 adt indexes identically in every
    /// layout); rank-local dats are always AoS.
    views: [DatView; 3],
    /// Cells the cell loops cover: all, or a rank's owned ones.
    n_cells: usize,
    /// rms slots per (iteration, phase): the cell loops' block count.
    cell_blocks: usize,
    /// The shape the recording executes in.
    shape: Shape,
    /// Fig. 8a's rows: the permute plan `res_calc` walks instead of its
    /// colored loop.
    permute: Option<Arc<AnyPlan>>,
}

impl<'a, R: Real> StepInputs<'a, R> {
    /// The inputs of a recording over `dats` with cell loops over
    /// `n_cells` cells, in blocks of `block`.
    fn new(
        dats: &StepDats<'a, R>,
        n_cells: usize,
        block: usize,
        shape: Shape,
        permute: Option<Arc<AnyPlan>>,
    ) -> StepInputs<'a, R> {
        StepInputs {
            mesh: dats.mesh,
            bound: dats.bound,
            consts: dats.consts,
            x: dats.x,
            views: [dats.q.view(), dats.qold.view(), dats.res.view()],
            n_cells,
            cell_blocks: n_cells.div_ceil(block),
            shape,
            permute,
        }
    }
}

/// The one recording of the timestep: `steps` iterations of the nine
/// loops with their scalar and `L`-lane bodies, over the evolving dats
/// `[q, qold, adt, res]` — a global state's, a rank's, or a tile's
/// shadow copies. Each `update` block stores its residual in rms slot
/// `(iteration × 2 + phase) × cell_blocks + block`. A rank's
/// [`RankHalo`] adds what paper Fig. 2b's `op_mpi_halo_exchanges` adds
/// around unchanged loops:
///
/// ```text
/// [save_soln + adt_calc]        owned cells, interior
/// exch(q), exch(adt)            sends posted, finish deferred
/// res_calc                      interior blocks → finish → boundary blocks
/// bres_calc                     serial, owned cells only
/// [update + adt_calc']          owned cells, interior; ghost res zeroed
/// exch(q), exch(adt) … phase 2 … update
/// ```
///
/// Cell loops cover the owned cells only, `res_calc` all local edges
/// (owned + redundantly executed); increments into ghost cells are
/// discarded — the owner computes them via its own copy of the edge —
/// by re-zeroing ghost `res` rows after each phase. The halo markings
/// are applied only for a rank: `mark_boundary` forces the interior →
/// finish → boundary split, which a single process must not pay.
pub(crate) fn record_steps<'s, R: Real, const L: usize>(
    inputs: &'s StepInputs<'_, R>,
    evolving: &'s [SharedDat<'s, R>],
    rms: &'s SharedDat<'s, R>,
    steps: usize,
    halo: Option<&'s RankHalo<'s>>,
) -> Chain<'s> {
    let StepInputs {
        mesh,
        bound,
        consts,
        x,
        views: [qv, qoldv, resv],
        n_cells: nc,
        cell_blocks,
        shape,
        ref permute,
    } = *inputs;
    let [qs, qolds, adts, ress] = evolving else {
        panic!("airfoil records over [q, qold, adt, res]")
    };
    let xv = x.view();
    let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
    // every recorded vector body runs under `Shape::Simd`: moving whole
    // rows it wins or ties its scalar body on every kernel of both apps,
    // in AoS and in SoA (docs/ARCHITECTURE.md §8), where the
    // profile-driven `Auto` would keep the low-intensity kernels
    // (`save_soln`; most of Volna) on their scalar bodies
    let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n).with_hint(VecHint::Vector);

    let mut chain = Chain::new("airfoil_step");
    for step in 0..steps {
        chain.record_simd(
            desc("save_soln", nc),
            vec![],
            L,
            move |c| unsafe {
                let row: [R; 4] = qv.load_row(qs.as_slice(), c);
                let mut old = [R::ZERO; 4];
                save_soln(&row, &mut old);
                qoldv.store_row(qolds.slice_mut(0, qolds.len()), c, &old);
            },
            move |cs| unsafe {
                let rows: [VecR<R, L>; 4] = qv.load_rows(qs.as_slice(), cs);
                qoldv.store_rows(&rows, qolds.slice_mut(0, qolds.len()), cs);
            },
        );
        if halo.is_some() {
            chain.mark_interior();
        }
        for phase in 0..2 {
            chain.record_simd(
                desc("adt_calc", nc),
                vec![],
                L,
                move |c| {
                    let n = mesh.cell2node.row(c);
                    // four loads written out: a nested `array::from_fn`
                    // over the nodes measured 2x on this group
                    let x0: [R; 2] = xv.load_row(&x.data, n[0] as usize);
                    let x1: [R; 2] = xv.load_row(&x.data, n[1] as usize);
                    let x2: [R; 2] = xv.load_row(&x.data, n[2] as usize);
                    let x3: [R; 2] = xv.load_row(&x.data, n[3] as usize);
                    let mut a = R::ZERO;
                    unsafe {
                        let qrow: [R; 4] = qv.load_row(qs.as_slice(), c);
                        adt_calc(&x0, &x1, &x2, &x3, &qrow, &mut a, consts);
                        adts.slice_mut(c, 1)[0] = a;
                    }
                },
                move |cs| unsafe {
                    adt_chunk::<R, L>(
                        cs,
                        &mesh.cell2node.data,
                        &x.data,
                        xv,
                        qs.as_slice(),
                        qv,
                        adts.slice_mut(0, adts.len()),
                        consts,
                    );
                },
            );
            if let Some(h) = halo {
                chain.mark_interior();
                // ghosts of q and adt are stale (update / adt_calc ran on
                // owned cells only): post the sends; the receives finish
                // between res_calc's interior and boundary passes
                let tag = (step * 2 + phase) as u64 * 2;
                h.record_exchange(&mut chain, "halo[q]", qs, 4, tag);
                h.record_exchange(&mut chain, "halo[adt]", adts, 1, tag + 1);
            }
            let compute = move |e: usize| {
                let n = mesh.edge2node.row(e);
                let c = mesh.edge2cell.row(e);
                let (c0, c1) = (c[0] as usize, c[1] as usize);
                let xa: [R; 2] = xv.load_row(&x.data, n[0] as usize);
                let xb: [R; 2] = xv.load_row(&x.data, n[1] as usize);
                let mut r1 = [R::ZERO; 4];
                let mut r2 = [R::ZERO; 4];
                unsafe {
                    let q1: [R; 4] = qv.load_row(qs.as_slice(), c0);
                    let q2: [R; 4] = qv.load_row(qs.as_slice(), c1);
                    res_calc(
                        &xa,
                        &xb,
                        &q1,
                        &q2,
                        adts.slice(c0, 1)[0],
                        adts.slice(c1, 1)[0],
                        &mut r1,
                        &mut r2,
                        consts,
                    );
                }
                (c0, r1, c1, r2)
            };
            // c0's row then c1's, components ascending, through the
            // layout view
            let apply = move |_e: usize, inc: &(usize, [R; 4], usize, [R; 4])| unsafe {
                let r = ress.slice_mut(0, ress.len());
                let (c0, r1, c1, r2) = inc;
                resv.add_row(r, *c0, r1);
                resv.add_row(r, *c1, r2);
            };
            // gather, vector flux kernel, lane scatter (block-exclusive
            // under the plan's coloring)
            let chunk = move |lanes: Lanes<'_>| unsafe {
                res_chunk::<R, L>(
                    lanes,
                    &mesh.edge2node.data,
                    &mesh.edge2cell.data,
                    &x.data,
                    xv,
                    qs.as_slice(),
                    qv,
                    adts.as_slice(),
                    ress.slice_mut(0, ress.len()),
                    resv,
                    consts,
                );
            };
            match permute {
                None => {
                    chain.record_simd_two_phase(
                        desc("res_calc", ne),
                        vec![&mesh.edge2cell],
                        L,
                        compute,
                        apply,
                        move |es| chunk(Lanes::Aligned(es)),
                    );
                }
                // Fig. 8a's schemes: the calling thread walks the permute
                // plan's conflict-free color groups
                Some(plan) => {
                    chain.record_seq(desc("res_calc", ne), move || {
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
            chain.record_serial(desc("bres_calc", nb), move |be| {
                let n = mesh.bedge2node.row(be);
                let c0 = mesh.bedge2cell.at(be, 0);
                let xa: [R; 2] = xv.load_row(&x.data, n[0] as usize);
                let xb: [R; 2] = xv.load_row(&x.data, n[1] as usize);
                unsafe {
                    let qrow: [R; 4] = qv.load_row(qs.as_slice(), c0);
                    let r = ress.slice_mut(0, ress.len());
                    let mut rrow: [R; 4] = resv.load_row(r, c0);
                    bres_calc(
                        &xa,
                        &xb,
                        &qrow,
                        adts.slice(c0, 1)[0],
                        &mut rrow,
                        bound[be],
                        consts,
                    );
                    resv.store_row(r, c0, &rrow);
                }
            });
            // bedges map to owned cells only — never to ghosts
            if halo.is_some() {
                chain.mark_interior();
            }
            // one cell of `update`, folding its residual into `$rms`; a
            // macro because a closure with two call sites below stays
            // out of line (a call per cell, sum via memory)
            macro_rules! update_cell {
                ($c:expr, $rms:expr) => {{
                    let qold_row: [R; 4] = qoldv.load_row(qolds.as_slice(), $c);
                    let mut q_row = [R::ZERO; 4];
                    let r = ress.slice_mut(0, ress.len());
                    let mut res_row: [R; 4] = resv.load_row(r, $c);
                    let adt = adts.slice($c, 1)[0];
                    update(&qold_row, &mut q_row, &mut res_row, adt, $rms);
                    qv.store_row(qs.slice_mut(0, qs.len()), $c, &q_row);
                    resv.store_row(r, $c, &res_row);
                }};
            }
            // the block's residual folds in registers — one scalar, and
            // under the SIMD shape one vector accumulator — and lands in
            // its (iteration, phase, block) slot with one store: a
            // deterministic block-order reduction; a tile's fringe run
            // has no slot (its owner contributes those cells)
            let update_desc = desc("update", nc);
            let vector = matches!(shape, Shape::Simd { .. }) && update_desc.vectorize();
            let slots = (step * 2 + phase) * cell_blocks;
            chain.record_blocks(update_desc, vec![], move |slot, range| {
                let mut local = R::ZERO;
                if vector {
                    let mut local_v = VecR::<R, L>::zero();
                    simd_block_sweep(
                        range,
                        L,
                        |c| unsafe { update_cell!(c, &mut local) },
                        |cs| unsafe {
                            update_chunk::<R, L>(
                                cs,
                                qolds.as_slice(),
                                qoldv,
                                qs.slice_mut(0, qs.len()),
                                qv,
                                ress.slice_mut(0, ress.len()),
                                resv,
                                adts.as_slice(),
                                &mut local_v,
                            );
                        },
                    );
                    local += local_v.reduce_sum();
                } else {
                    for c in range.start as usize..range.end as usize {
                        unsafe { update_cell!(c, &mut local) };
                    }
                }
                if let Some(b) = slot {
                    unsafe { rms.slice_mut(slots + b, 1)[0] = local };
                }
            });
            if halo.is_some() {
                chain.mark_interior();
                // discard ghost increments (owners recompute them via
                // their redundant boundary edges)
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

// ---------------------------------------------------------------------------
// cross-timestep sparse tiling
// ---------------------------------------------------------------------------

/// Record `steps` outer iterations with the one recording (the one
/// [`step_chain`] executes) and execute them tile by tile
/// ([`ump_lazy::TiledChain`]): every tile of `tile_cells` cells runs the
/// loops' own bodies — scalar for `L = 1`, the `L`-lane three-sweep
/// otherwise — for all `steps`, with the dependency-cone fringe computed
/// redundantly, before the next tile starts, so its working set stays
/// cache-resident across timesteps. Returns the per-step normalized RMS
/// residuals.
///
/// Determinism: each tile runs its cone in ascending element order, so
/// with `L = 1` cell state is bit-identical to [`step_seq`] for any
/// `tile_cells`, `steps` or team size; the rms reduction lands in
/// per-`(step, phase, cell-block)` slots (ownership is block-aligned, so
/// each slot belongs to one tile) folded in slot order — the same
/// block-ordered fold as the fused drivers. Tiled execution is defined
/// on AoS rows: a state in another layout is converted to AoS and back
/// around the call (a pure index permutation, bit-exact).
///
/// The cone schedule is inspected once and kept, with the executor's
/// buffers, in `sim.tiles`: a repeated `(steps, tile_cells,
/// block_size)` only executes. `steps == 0` returns an empty history
/// and leaves the state and the cache untouched.
pub fn run_tiled_on<R: Real, const L: usize>(
    sim: &mut Airfoil<R>,
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
    sim: &mut Airfoil<R>,
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
    let Airfoil {
        case,
        consts,
        x,
        q,
        qold,
        adt,
        res,
        tiles,
    } = sim;
    let mesh = &case.mesh;
    let dats = StepDats {
        mesh,
        bound: &case.bound,
        consts,
        x,
        q,
        qold,
        adt,
        res,
    };
    let shape = tile_shape::<L>();
    let inputs = StepInputs::new(&dats, mesh.n_cells(), block_size, shape, None);
    let ncb = inputs.cell_blocks;
    let mut rms_parts = vec![R::ZERO; steps * 2 * ncb];
    let report;
    {
        let rms = SharedDat::new(&mut rms_parts);
        let mut tiled = TiledChain::new("airfoil_tiled");
        tiled.register_set("cells", mesh.n_cells());
        tiled.register_set("edges", mesh.n_edges());
        tiled.register_set("bedges", mesh.n_bedges());
        tiled.register_map(&mesh.edge2cell);
        tiled.register_map(&mesh.bedge2cell);
        let StepDats {
            q, qold, adt, res, ..
        } = dats;
        for d in [q, qold, adt, res] {
            tiled.register_dat(&d.name, "cells", d.dim, &mut d.data);
        }
        report = tiled.execute(
            |dats| record_steps::<R, L>(&inputs, dats, &rms, steps, None),
            pool,
            tiles,
            steps,
            tile_cells,
            block_size,
            n_threads,
            shape,
            R::BYTES,
            rec,
        );
    }
    let hist = rms_parts
        .chunks(2 * ncb)
        .map(|step| {
            let mut rms = R::ZERO;
            for v in step {
                rms += *v;
            }
            sim.normalize_rms(rms.to_f64())
        })
        .collect();
    (hist, report)
}

// ---------------------------------------------------------------------------
// the unified dispatcher — one entry point per execution shape
// ---------------------------------------------------------------------------

/// One iteration through any registered [`Backend`], on an explicit pool
/// — the single dispatcher behind the conformance matrix and the `repro`
/// backend sweep. Backends with `needs_pool() == false` ignore `pool`
/// and `n_threads`; lane-carrying backends are dispatched to the const
/// instantiations the registry lists (L = 4 and 8) and panic, naming the
/// backend, for any other width.
pub fn step_on<R: Real>(
    backend: Backend,
    sim: &mut Airfoil<R>,
    pool: &ExecPool,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    // the recorded chain executes natively in any layout (and the tiled
    // entry point converts for itself); only the rows that are AoS by
    // definition — the oracle, and the ranks' row extraction from the
    // global state — convert around the step (a pure index permutation,
    // bit-exact at any precision)
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
            // the tiled executor over a 1-step recording; multi-step
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
