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
    seq_loop, simd_block_sweep, two_rows_mut, Block, DatRef, Flat, Layout, LocalMesh, OpDat,
    ReadOnly, Recorder, Writable,
};
use ump_lazy::{Chain, LoopDesc, Shape, TileCache};
use ump_mesh::generators::CoastalCase;
use ump_mesh::Mesh2d;
use ump_simd::{Addressing, IdxVec, Real, VecR};

use super::kernels::{bc_flux, compute_flux, numerical_flux, rk_1, rk_2, sim_1, space_disc};
use super::{phase_desc, profile, Volna, CFL, GRAVITY, H_MIN};
use crate::dist::RankHalo;
use crate::{arr, arr_mut, maybe_time, Simulation, Split, Sweep};

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
        seq_loop(0..nc, |c| sim_1(arr(w.row(c)), arr_mut(w_old.row_mut(c))));
    });

    let mut dt = R::INFINITY;
    for phase in 0..2 {
        let state = if phase == 0 { &sim.w } else { &sim.w1 };
        maybe_time(rec, "compute_flux", wb, ne, || {
            let eflux = &mut sim.eflux;
            seq_loop(0..ne, |e| {
                let c = mesh.edge2cell.row(e);
                compute_flux(
                    arr(sim.egeom.row(e)),
                    arr(state.row(c[0] as usize)),
                    arr(state.row(c[1] as usize)),
                    arr_mut(eflux.row_mut(e)),
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
                        sim.eflux.row(e)[3],
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
                    arr(sim.egeom.row(e)),
                    arr(sim.eflux.row(e)),
                    arr(state.row(c0)),
                    arr(state.row(c1)),
                    arr_mut(rl),
                    arr_mut(rr),
                    g,
                );
            });
        });
        maybe_time(rec, "bc_flux", wb, mesh.n_bedges(), || {
            let res = &mut sim.res;
            seq_loop(0..mesh.n_bedges(), |be| {
                let c0 = mesh.bedge2cell.at(be, 0);
                bc_flux(
                    arr(sim.bgeom.row(be)),
                    arr(state.row(c0)),
                    arr_mut(res.row_mut(c0)),
                    g,
                );
            });
        });
        if phase == 0 {
            maybe_time(rec, "RK_1", wb, nc, || {
                let (w_old, res, w1, area) = (&sim.w_old, &mut sim.res, &mut sim.w1, &sim.area);
                seq_loop(0..nc, |c| {
                    rk_1(
                        arr(w_old.row(c)),
                        arr_mut(res.row_mut(c)),
                        arr_mut(w1.row_mut(c)),
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
                        arr(w_old.row(c)),
                        arr(w1.row(c)),
                        arr_mut(res.row_mut(c)),
                        arr_mut(w.row_mut(c)),
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

/// One lane-aligned chunk of vectorized `compute_flux`. The chunk bodies
/// take Volna's dats as handles of the layout type `A` they are
/// instantiated for; its one-component dats are
/// [`column`](DatRef::column)s, which index alike in every layout.
#[inline(always)]
pub(crate) fn compute_flux_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    egeom: DatRef<'_, R, ReadOnly, A>,
    state: DatRef<'_, R, ReadOnly, A>,
    eflux: DatRef<'_, R, Writable, A>,
    g: R,
    h_min: R,
) {
    let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
    let geom: [VecR<R, L>; 4] = egeom.load_rows(es);
    let wl: [VecR<R, L>; 4] = state.gather_rows(c0);
    let wr: [VecR<R, L>; 4] = state.gather_rows(c1);
    let mut f = [VecR::zero(); 4];
    compute_flux(&geom, &wl, &wr, &mut f, g, h_min);
    eflux.store_rows(&f, es);
}

/// One lane-aligned chunk of vectorized `numerical_flux`: folds the
/// chunk's CFL Δt candidates into `dt_acc` (exact — `min` does not
/// reassociate).
#[inline(always)]
pub(crate) fn numerical_flux_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    eflux: DatRef<'_, R, ReadOnly, A>,
    area: DatRef<'_, R, ReadOnly, Flat>,
    dt_acc: &mut VecR<R, L>,
    cfl: R,
) {
    let c0 = IdxVec::<L>::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::<L>::load_strided(e2c, es * 2 + 1, 2);
    let (al, ar) = (area.gatherv(c0, 0), area.gatherv(c1, 0));
    numerical_flux(eflux.loadv(es, 3), al, ar, dt_acc, cfl);
}

/// One lane-aligned chunk `es..es + L` of vectorized `space_disc`, with
/// *serialized* row scatter (lane by lane, the left cell's row then the
/// right's: the order of the recording's scalar `apply`).
#[inline(always)]
pub(crate) fn space_disc_chunk<R: Real, A: Addressing, const L: usize>(
    es: usize,
    e2c: &[i32],
    egeom: DatRef<'_, R, ReadOnly, A>,
    eflux: DatRef<'_, R, ReadOnly, A>,
    state: DatRef<'_, R, ReadOnly, A>,
    res: DatRef<'_, R, Writable, A>,
    g: R,
) {
    let c0 = IdxVec::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::load_strided(e2c, es * 2 + 1, 2);
    let geom: [VecR<R, L>; 4] = egeom.load_rows(es);
    let ef: [VecR<R, L>; 4] = eflux.load_rows(es);
    let wl: [VecR<R, L>; 4] = state.gather_rows(c0);
    let wr: [VecR<R, L>; 4] = state.gather_rows(c1);
    let (mut rl, mut rr) = ([VecR::zero(); 4], [VecR::zero(); 4]);
    space_disc(&geom, &ef, &wl, &wr, &mut rl, &mut rr, g);
    // slot 3 (bathymetry) carries no increment: three of four components land
    let ([l0, l1, l2, _], [r0, r1, r2, _]) = (rl, rr);
    res.scatter_add_rows_serial([(&[l0, l1, l2], c0), (&[r0, r1, r2], c1)]);
}

/// One lane-aligned chunk of vectorized `RK_1`.
#[inline(always)]
pub(crate) fn rk1_chunk<R: Real, A: Addressing, const L: usize>(
    cs: usize,
    w_old: DatRef<'_, R, ReadOnly, A>,
    res: DatRef<'_, R, Writable, A>,
    w1: DatRef<'_, R, Writable, A>,
    area: DatRef<'_, R, ReadOnly, Flat>,
    dt: R,
) {
    let w_old_p: [VecR<R, L>; 4] = w_old.load_rows(cs);
    let mut res_p: [VecR<R, L>; 4] = res.load_rows(cs);
    let mut w1_p = [VecR::<R, L>::zero(); 4];
    rk_1(&w_old_p, &mut res_p, &mut w1_p, area.loadv(cs, 0), dt);
    w1.store_rows(&w1_p, cs);
    res.store_rows(&res_p, cs);
}

/// One lane-aligned chunk of vectorized `RK_2`.
#[inline(always)]
pub(crate) fn rk2_chunk<R: Real, A: Addressing, const L: usize>(
    cs: usize,
    w_old: DatRef<'_, R, ReadOnly, A>,
    w1: DatRef<'_, R, ReadOnly, A>,
    res: DatRef<'_, R, Writable, A>,
    w: DatRef<'_, R, Writable, A>,
    area: DatRef<'_, R, ReadOnly, Flat>,
    dt: R,
) {
    let w_old_p: [VecR<R, L>; 4] = w_old.load_rows(cs);
    let w1_p: [VecR<R, L>; 4] = w1.load_rows(cs);
    let mut res_p: [VecR<R, L>; 4] = res.load_rows(cs);
    let mut w_p = [VecR::<R, L>::zero(); 4];
    rk_2(&w_old_p, &w1_p, &mut res_p, &mut w_p, area.loadv(cs, 0), dt);
    w.store_rows(&w_p, cs);
    res.store_rows(&res_p, cs);
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
fn edge_blocks(sweep: &Sweep<'_>) -> usize {
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
    fn slots(sweep: &Sweep<'_>, steps: usize) -> Vec<R> {
        vec![R::INFINITY; steps * (1 + edge_blocks(sweep))]
    }

    /// Each step's Δt, as its epilogue folded it (across ranks already
    /// the min-allreduce).
    fn fold(
        _sweep: &Sweep<'_>,
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
    fn record_steps<'s, 'a: 's, A: Addressing + Default, const L: usize>(
        inputs: &'s StepInputs<'a, R>,
        sweep: &'s Sweep<'a>,
        evolving: &'s [DatRef<'s, R, Writable, A>],
        dt: DatRef<'s, R, Writable, Flat>,
        steps: usize,
        halo: Option<&'s RankHalo<'s>>,
    ) -> Chain<'s> {
        let Sweep {
            mesh,
            n_cells: nc,
            shape,
            ..
        } = *sweep;
        let edge_blocks = edge_blocks(sweep);
        let &[w, w_old, w1, res, eflux] = evolving else {
            panic!("volna records over [w, w_old, w1, res, eflux]")
        };
        let egeom = inputs.egeom.read_as::<A>();
        let bgeom = inputs.bgeom.read_as::<A>();
        let area = inputs.area.read_as::<A>();
        let area1 = area.column();
        let g = R::from_f64(GRAVITY);
        let h_min = R::from_f64(H_MIN);
        let cfl = R::from_f64(CFL);
        let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
        let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n);

        let mut chain = Chain::new("volna_step");
        chain
            .register_map(&mesh.edge2cell)
            .register_map(&mesh.bedge2cell);
        for step in 0..steps {
            if let Some(h) = halo {
                // refresh w ghosts for phase 0: posted before sim_1 so the
                // copy loop also hides message latency
                h.record_exchange(&mut chain, "halo[w]", w, step as u64 * 2);
            }
            chain.record_simd(
                desc("sim_1", nc),
                L,
                move |r| {
                    Block::with(r, |b| {
                        let (w, w_old) = (w.rows::<4>(b), w_old.rows_mut::<4>(b));
                        for c in b.iter() {
                            let mut old = [R::ZERO; 4];
                            sim_1(&w.load(c), &mut old);
                            w_old.store(c, &old);
                        }
                    })
                },
                move |cs| {
                    let rows: [VecR<R, L>; 4] = w.load_rows(cs);
                    let mut old = [VecR::zero(); 4];
                    sim_1(&rows, &mut old);
                    w_old.store_rows(&old, cs);
                },
            );
            if halo.is_some() {
                chain.mark_interior();
            }
            // this step's Δt: folded by numerical_flux's epilogue from its
            // block slots, read by RK
            let dt_slots = steps + step * edge_blocks;
            for phase in 0..2 {
                let state = if phase == 0 { w } else { w1 }.read();
                if let (1, Some(h)) = (phase, halo) {
                    // refresh w1 ghosts (RK_1 wrote owned rows only)
                    h.record_exchange(&mut chain, "halo[w1]", w1, step as u64 * 2 + 1);
                }
                chain.record_simd(
                    phase_desc("compute_flux", ne, phase),
                    L,
                    move |r| {
                        for e in r {
                            let c = mesh.edge2cell.row(e);
                            let ge: [R; 4] = egeom.load_row(e);
                            let wl: [R; 4] = state.load_row(c[0] as usize);
                            let wr: [R; 4] = state.load_row(c[1] as usize);
                            let mut f = [R::ZERO; 4];
                            compute_flux(&ge, &wl, &wr, &mut f, g, h_min);
                            eflux.store_row(e, &f);
                        }
                    },
                    move |es| {
                        let e2c = &mesh.edge2cell.data;
                        compute_flux_chunk::<R, A, L>(es, e2c, egeom, state, eflux, g, h_min);
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
                            let [.., lam_len] = eflux.load_row::<4>($e);
                            let ([al], [ar]) =
                                (area1.load_row(c[0] as usize), area1.load_row(c[1] as usize));
                            numerical_flux(lam_len, al, ar, $dt, cfl);
                        }};
                    }
                    // the block's Δt folds in registers — one scalar, and
                    // under the SIMD shape one vector accumulator — and lands
                    // in its block slot with one store (`min` is exact in any
                    // order); a tile's fringe run has no slot
                    let vector = matches!(shape, Shape::Simd { .. });
                    chain.record_blocks(desc("numerical_flux", ne), move |slot, range| {
                        let Some(b) = slot else { return };
                        let mut local = R::INFINITY;
                        if vector {
                            let mut local_v = VecR::<R, L>::splat(R::INFINITY);
                            simd_block_sweep(
                                range,
                                L,
                                |e| flux_edge!(e, &mut local),
                                |es| {
                                    let (e2c, ef) = (&mesh.edge2cell.data, eflux.read());
                                    numerical_flux_chunk::<R, A, L>(
                                        es,
                                        e2c,
                                        ef,
                                        area1,
                                        &mut local_v,
                                        cfl,
                                    );
                                },
                            );
                            local = local.min(local_v.reduce_min());
                        } else {
                            for e in range.start as usize..range.end as usize {
                                flux_edge!(e, &mut local);
                            }
                        }
                        dt.store_row(dt_slots + b, &[local]);
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
                    chain.epilogue(move || {
                        let mut merged = R::INFINITY;
                        for slot in dt_slots..dt_slots + edge_blocks {
                            let [v] = dt.load_row(slot);
                            merged = if v < merged { v } else { merged };
                        }
                        if let Some(h) = halo {
                            merged = R::from_f64(h.comm.allreduce_min(merged.to_f64()));
                        }
                        dt.store_row(step, &[merged]);
                    });
                }
                let compute = move |e: usize| {
                    let c = mesh.edge2cell.row(e);
                    let (c0, c1) = (c[0] as usize, c[1] as usize);
                    let ge: [R; 4] = egeom.load_row(e);
                    let ef: [R; 4] = eflux.load_row(e);
                    let wl: [R; 4] = state.load_row(c0);
                    let wr: [R; 4] = state.load_row(c1);
                    let mut rl = [R::ZERO; 4];
                    let mut rr = [R::ZERO; 4];
                    space_disc(&ge, &ef, &wl, &wr, &mut rl, &mut rr, g);
                    (c0, rl, c1, rr)
                };
                // left row, then right, components ascending
                let apply = move |_e: usize, inc: &(usize, [R; 4], usize, [R; 4])| {
                    let (c0, rl, c1, rr) = inc;
                    res.add_row(*c0, rl);
                    res.add_row(*c1, rr);
                };
                chain.record_simd_two_phase(
                    phase_desc("space_disc", ne, phase),
                    L,
                    compute,
                    apply,
                    move |es| {
                        let (e2c, ef) = (&mesh.edge2cell.data, eflux.read());
                        space_disc_chunk::<R, A, L>(es, e2c, egeom, ef, state, res, g);
                    },
                );
                if let Some(h) = halo {
                    chain.mark_boundary(h.edge_halo);
                }
                chain.record_serial(phase_desc("bc_flux", nb, phase), move |be| {
                    let c0 = mesh.bedge2cell.at(be, 0);
                    let bg: [R; 2] = bgeom.load_row(be);
                    let wrow: [R; 4] = state.load_row(c0);
                    let mut rrow: [R; 4] = res.load_row(c0);
                    bc_flux(&bg, &wrow, &mut rrow, g);
                    res.store_row(c0, &rrow);
                });
                // bedges map to owned cells only
                if halo.is_some() {
                    chain.mark_interior();
                }
                if phase == 0 {
                    chain.record_simd(
                        desc("RK_1", nc),
                        L,
                        move |r| {
                            let [dt] = dt.load_row(step);
                            Block::with(r, |b| {
                                let (w_old, area) = (w_old.rows::<4>(b), area.rows::<1>(b));
                                let (res, w1) = (res.rows_mut::<4>(b), w1.rows_mut::<4>(b));
                                for c in b.iter() {
                                    let (mut res_row, mut w1_row) = (res.load(c), [R::ZERO; 4]);
                                    let [a] = area.load(c);
                                    rk_1(&w_old.load(c), &mut res_row, &mut w1_row, a, dt);
                                    w1.store(c, &w1_row);
                                    res.store(c, &res_row);
                                }
                            })
                        },
                        move |cs| {
                            let [dt] = dt.load_row(step);
                            rk1_chunk::<R, A, L>(cs, w_old.read(), res, w1, area1, dt);
                        },
                    );
                } else {
                    chain.record_simd(
                        desc("RK_2", nc),
                        L,
                        move |r| {
                            let [dt] = dt.load_row(step);
                            Block::with(r, |b| {
                                let (w_old, w1) = (w_old.rows::<4>(b), w1.rows::<4>(b));
                                let (res, w) = (res.rows_mut::<4>(b), w.rows_mut::<4>(b));
                                let area = area.rows::<1>(b);
                                for c in b.iter() {
                                    let (mut res_row, mut w_row) = (res.load(c), [R::ZERO; 4]);
                                    let [a] = area.load(c);
                                    rk_2(
                                        &w_old.load(c),
                                        &w1.load(c),
                                        &mut res_row,
                                        &mut w_row,
                                        a,
                                        dt,
                                    );
                                    w.store(c, &w_row);
                                    res.store(c, &res_row);
                                }
                            })
                        },
                        move |cs| {
                            let [dt] = dt.load_row(step);
                            let (w_old, w1) = (w_old.read(), w1.read());
                            rk2_chunk::<R, A, L>(cs, w_old, w1, res, w, area1, dt);
                        },
                    );
                }
                if halo.is_some() {
                    chain.mark_interior();
                    // discard ghost increments (owners recompute them)
                    chain.epilogue(move || {
                        for c in nc..res.view().n {
                            res.store_row(c, &[R::ZERO; 4]);
                        }
                    });
                }
            }
        }
        chain
    }
}
