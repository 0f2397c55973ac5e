//! The Airfoil loop drivers — the code OP2's generator emits from one
//! `op_par_loop` declaration per kernel.
//!
//! What is Airfoil's own lives here: the hand-written scalar reference
//! [`step_seq`] (paper Fig. 2b's per-rank loop; the oracle every other
//! path is tested against), the `L`-lane chunk bodies (paper Fig. 3b),
//! and the one recording of N outer iterations (save_soln + 2 ×
//! {adt_calc, res_calc, bres_calc, update}) as an `ump_lazy` chain —
//! scalar element body, `L`-lane chunk body and reduction per loop — in
//! the [`Simulation`] impl, with the rms slots it folds into the
//! normalized RMS residual. Every executor of that recording is written
//! once for both applications and re-exported here: [`step_chain`] (a
//! [`Shape`] under a [`Fusion`](ump_lazy::Fusion) policy, in whatever
//! layout the state is stored in), [`run_tiled_on`] (cross-timestep
//! sparse tiling) and the registry dispatcher [`step_on`]; a rank of the
//! distributed backend executes the recording with its halo hooks
//! ([`RankHalo`]) switched on.
//!
//! All drivers compute identical physics; integration tests pin them to
//! the sequential reference within floating-point reassociation bounds.

use ump_core::{
    seq_loop, simd_block_sweep, two_rows_mut, Block, DatRef, Flat, Layout, LocalMesh, OpDat,
    ReadOnly, Recorder, Writable,
};
use ump_lazy::{Chain, LoopDesc, Shape, TileCache};
use ump_mesh::generators::AirfoilCase;
use ump_mesh::Mesh2d;
use ump_simd::{Addressing, IdxVec, Real, VecR};

use super::kernels::{adt_calc, bres_calc, res_calc, save_soln, update};
use super::{profile, Airfoil, Consts};
use crate::dist::RankHalo;
use crate::{arr, arr_mut, maybe_time, Simulation, Split, Sweep};

pub use crate::{run_tiled_on, run_tiled_report_on, step_chain, step_on};

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
        seq_loop(0..nc, |c| {
            save_soln(arr(q.row(c)), arr_mut(qold.row_mut(c)))
        });
    });

    let mut rms = R::ZERO;
    for _phase in 0..2 {
        maybe_time(rec, "adt_calc", wb, nc, || {
            seq_loop(0..nc, |c| {
                let n = mesh.cell2node.row(c);
                let mut a = R::ZERO;
                adt_calc(
                    arr(x.row(n[0] as usize)),
                    arr(x.row(n[1] as usize)),
                    arr(x.row(n[2] as usize)),
                    arr(x.row(n[3] as usize)),
                    arr(q.row(c)),
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
                    arr(x.row(n[0] as usize)),
                    arr(x.row(n[1] as usize)),
                    arr(q.row(c0)),
                    arr(q.row(c1)),
                    adt.row(c0)[0],
                    adt.row(c1)[0],
                    arr_mut(r1),
                    arr_mut(r2),
                    consts,
                );
            });
        });
        maybe_time(rec, "bres_calc", wb, nb, || {
            seq_loop(0..nb, |be| {
                let n = mesh.bedge2node.row(be);
                let c0 = mesh.bedge2cell.at(be, 0);
                bres_calc(
                    arr(x.row(n[0] as usize)),
                    arr(x.row(n[1] as usize)),
                    arr(q.row(c0)),
                    adt.row(c0)[0],
                    arr_mut(res.row_mut(c0)),
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
                    arr(&qold.data[qr..qr + 4]),
                    arr_mut(&mut q.data[qr..qr + 4]),
                    arr_mut(&mut res.data[resr..resr + 4]),
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
/// coordinate rows through `cell2node`, load the q rows, store adt
/// contiguously. The chunk bodies take Airfoil's dats as handles of the
/// runtime layout, and dispatch on the layout once per access
/// ([`DatRef::load_rows`] says why); its one-component dats are
/// [`column`](DatRef::column)s, which index alike in every layout.
#[inline(always)]
pub(crate) fn adt_chunk<R: Real, const L: usize>(
    cs: usize,
    c2n: &[i32],
    x: DatRef<'_, R, ReadOnly>,
    q: DatRef<'_, R, ReadOnly>,
    adt: DatRef<'_, R, Writable, Flat>,
    consts: &super::Consts<R>,
) {
    let x1: [VecR<R, L>; 2] = x.gather_rows(IdxVec::load_strided(c2n, cs * 4, 4));
    let x2: [VecR<R, L>; 2] = x.gather_rows(IdxVec::load_strided(c2n, cs * 4 + 1, 4));
    let x3: [VecR<R, L>; 2] = x.gather_rows(IdxVec::load_strided(c2n, cs * 4 + 2, 4));
    let x4: [VecR<R, L>; 2] = x.gather_rows(IdxVec::load_strided(c2n, cs * 4 + 3, 4));
    let q_p: [VecR<R, L>; 4] = q.load_rows(cs);
    let mut a = VecR::zero();
    adt_calc(&x1, &x2, &x3, &x4, &q_p, &mut a, consts);
    adt.storev(a, cs, 0);
}

/// One lane-aligned chunk `es..es + L` of vectorized `res_calc`, with
/// *serialized* row scatter (lane by lane, `c0`'s row then `c1`'s: the
/// order of the recording's scalar `apply`). Kept out of line: inlined
/// into the chain's sweep closure, its SoA form ran 5–10 % slower
/// (`fused_simd4` `res_calc`, 600×300, one thread).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn res_chunk<R: Real, const L: usize>(
    es: usize,
    e2n: &[i32],
    e2c: &[i32],
    x: DatRef<'_, R, ReadOnly>,
    q: DatRef<'_, R, ReadOnly>,
    adt: DatRef<'_, R, ReadOnly, Flat>,
    res: DatRef<'_, R, Writable>,
    consts: &super::Consts<R>,
) {
    let n0 = IdxVec::load_strided(e2n, es * 2, 2);
    let n1 = IdxVec::load_strided(e2n, es * 2 + 1, 2);
    let c0 = IdxVec::load_strided(e2c, es * 2, 2);
    let c1 = IdxVec::load_strided(e2c, es * 2 + 1, 2);
    let x1: [VecR<R, L>; 2] = x.gather_rows(n0);
    let x2: [VecR<R, L>; 2] = x.gather_rows(n1);
    let q1: [VecR<R, L>; 4] = q.gather_rows(c0);
    let q2: [VecR<R, L>; 4] = q.gather_rows(c1);
    let a1 = adt.gatherv(c0, 0);
    let a2 = adt.gatherv(c1, 0);
    let mut r1 = [VecR::<R, L>::zero(); 4];
    let mut r2 = [VecR::<R, L>::zero(); 4];
    res_calc(&x1, &x2, &q1, &q2, a1, a2, &mut r1, &mut r2, consts);
    res.scatter_add_rows_serial([(&r1, c0), (&r2, c1)]);
}

/// One lane-aligned chunk of vectorized `update`, folding the residual
/// into `rms` (the caller reduces the accumulator once per block).
#[inline(always)]
pub(crate) fn update_chunk<R: Real, const L: usize>(
    cs: usize,
    qold: DatRef<'_, R, ReadOnly>,
    q: DatRef<'_, R, Writable>,
    res: DatRef<'_, R, Writable>,
    adt: DatRef<'_, R, ReadOnly, Flat>,
    rms: &mut VecR<R, L>,
) {
    let qold_p: [VecR<R, L>; 4] = qold.load_rows(cs);
    let mut q_p = [VecR::<R, L>::zero(); 4];
    let mut res_p: [VecR<R, L>; 4] = res.load_rows(cs);
    let adt_p = adt.loadv(cs, 0);
    update(&qold_p, &mut q_p, &mut res_p, adt_p, rms);
    q.store_rows(&q_p, cs);
    res.store_rows(&res_p, cs);
}

// ---------------------------------------------------------------------------
// the recorded timestep — one ump_lazy chain, every executor
// ---------------------------------------------------------------------------

/// What a recording of Airfoil iterations reads besides the mesh, the
/// evolving dats and the reduction slots.
pub struct StepInputs<'a, R: Real> {
    pub(crate) bound: &'a [i32],
    pub(crate) consts: &'a Consts<R>,
    pub(crate) x: &'a OpDat<R>,
}

/// rms slots per (iteration, phase): the cell loops' block count.
fn cell_blocks(sweep: &Sweep<'_>) -> usize {
    sweep.n_cells.div_ceil(sweep.block)
}

impl<R: Real> Simulation for Airfoil<R> {
    type R = R;
    type Case = AirfoilCase;
    type Inputs<'a> = StepInputs<'a, R>;
    const NAME: &'static str = "airfoil";
    const CELL_DATS: usize = 4;

    /// Freestream data on the piece, with the boundary tags of its
    /// bedges.
    fn on_rank(case: &AirfoilCase, mesh: Mesh2d, local: &LocalMesh) -> Self {
        let bound = local
            .bedge_global
            .iter()
            .map(|&g| case.bound[g as usize])
            .collect();
        Airfoil::preordered(AirfoilCase { mesh, bound })
    }

    fn case(&self) -> &AirfoilCase {
        &self.case
    }

    fn case_mesh(case: &AirfoilCase) -> &Mesh2d {
        &case.mesh
    }

    fn evolving(&self) -> Vec<&OpDat<R>> {
        evolving!(self)
    }

    fn split(&mut self) -> Split<'_, Self> {
        Split {
            mesh: &self.case.mesh,
            inputs: StepInputs {
                bound: &self.case.bound,
                consts: &self.consts,
                x: &self.x,
            },
            evolving: evolving!(self, mut),
        }
    }

    fn layout(&self) -> Layout {
        Airfoil::layout(self)
    }

    fn set_layout(&mut self, to: Layout) {
        Airfoil::set_layout(self, to);
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

    /// One slot per (iteration, phase, cell block).
    fn slots(sweep: &Sweep<'_>, steps: usize) -> Vec<R> {
        vec![R::ZERO; steps * 2 * cell_blocks(sweep)]
    }

    /// Each iteration's slots summed in slot order — across ranks, the
    /// rank-ordered sum — normalized to √(Σ del²/cells).
    fn fold(
        sweep: &Sweep<'_>,
        slots: &[R],
        steps: usize,
        halo: Option<&RankHalo<'_>>,
        total_cells: usize,
    ) -> Vec<f64> {
        let per_step = 2 * cell_blocks(sweep);
        (0..steps)
            .map(|s| {
                let mut rms = R::ZERO;
                for &v in &slots[s * per_step..(s + 1) * per_step] {
                    rms += v;
                }
                let rms = halo.map_or(rms.to_f64(), |h| h.comm.allreduce_sum(rms.to_f64()));
                (rms / total_cells as f64).sqrt()
            })
            .collect()
    }

    /// The one recording of the timestep: `steps` iterations of the nine
    /// loops with their scalar and `L`-lane bodies, over the evolving
    /// dats `[q, qold, adt, res]` — a global state's, a rank's, or a
    /// tile's shadow copies. Each `update` block stores its residual in
    /// rms slot `(iteration × 2 + phase) × cell_blocks + block`. A rank's
    /// [`RankHalo`] adds what paper Fig. 2b's `op_mpi_halo_exchanges`
    /// adds around unchanged loops:
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
    fn record_steps<'s, 'a: 's, A: Addressing + Default, const L: usize>(
        inputs: &'s StepInputs<'a, R>,
        sweep: &'s Sweep<'a>,
        evolving: &'s [DatRef<'s, R, Writable, A>],
        rms: DatRef<'s, R, Writable, Flat>,
        steps: usize,
        halo: Option<&'s RankHalo<'s>>,
    ) -> Chain<'s> {
        let StepInputs { bound, consts, x } = *inputs;
        let Sweep {
            mesh,
            n_cells: nc,
            shape,
            ..
        } = *sweep;
        let cell_blocks = cell_blocks(sweep);
        let &[q, qold, adt, res] = evolving else {
            panic!("airfoil records over [q, qold, adt, res]")
        };
        let x = x.read_as::<A>();
        // the L-lane bodies move rows through runtime-layout handles, the
        // form LLVM vectorizes best (`DatRef::load_rows`)
        let (xd, qd, qoldd, resd, adtd) = (
            x.runtime(),
            q.runtime(),
            qold.runtime(),
            res.runtime(),
            adt.column(),
        );
        let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
        let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n);

        let mut chain = Chain::new("airfoil_step");
        chain
            .register_map(&mesh.edge2cell)
            .register_map(&mesh.bedge2cell);
        for step in 0..steps {
            chain.record_simd(
                desc("save_soln", nc),
                L,
                move |r| {
                    Block::with(r, |b| {
                        let (q, q_old) = (q.rows::<4>(b), qold.rows_mut::<4>(b));
                        for c in b.iter() {
                            let mut old = [R::ZERO; 4];
                            save_soln(&q.load(c), &mut old);
                            q_old.store(c, &old);
                        }
                    })
                },
                move |cs| {
                    let rows: [VecR<R, L>; 4] = qd.load_rows(cs);
                    let mut old = [VecR::zero(); 4];
                    save_soln(&rows, &mut old);
                    qoldd.store_rows(&old, cs);
                },
            );
            if halo.is_some() {
                chain.mark_interior();
            }
            for phase in 0..2 {
                chain.record_simd(
                    desc("adt_calc", nc),
                    L,
                    move |r| {
                        for c in r {
                            let n = mesh.cell2node.row(c);
                            // four loads written out: a nested `array::from_fn`
                            // over the nodes measured 2x on this group
                            let x0: [R; 2] = x.load_row(n[0] as usize);
                            let x1: [R; 2] = x.load_row(n[1] as usize);
                            let x2: [R; 2] = x.load_row(n[2] as usize);
                            let x3: [R; 2] = x.load_row(n[3] as usize);
                            let mut a = R::ZERO;
                            adt_calc(&x0, &x1, &x2, &x3, &q.load_row(c), &mut a, consts);
                            adt.store_row(c, &[a]);
                        }
                    },
                    move |cs| {
                        let c2n = &mesh.cell2node.data;
                        adt_chunk::<R, L>(cs, c2n, xd, qd.read(), adtd, consts);
                    },
                );
                if let Some(h) = halo {
                    chain.mark_interior();
                    // ghosts of q and adt are stale (update / adt_calc ran on
                    // owned cells only): post the sends; the receives finish
                    // between res_calc's interior and boundary passes
                    let tag = (step * 2 + phase) as u64 * 2;
                    h.record_exchange(&mut chain, "halo[q]", q, tag);
                    h.record_exchange(&mut chain, "halo[adt]", adt, tag + 1);
                }
                let compute = move |e: usize| {
                    let n = mesh.edge2node.row(e);
                    let c = mesh.edge2cell.row(e);
                    let (c0, c1) = (c[0] as usize, c[1] as usize);
                    let xa: [R; 2] = x.load_row(n[0] as usize);
                    let xb: [R; 2] = x.load_row(n[1] as usize);
                    let q1: [R; 4] = q.load_row(c0);
                    let q2: [R; 4] = q.load_row(c1);
                    let ([a1], [a2]) = (adt.load_row(c0), adt.load_row(c1));
                    let mut r1 = [R::ZERO; 4];
                    let mut r2 = [R::ZERO; 4];
                    res_calc(&xa, &xb, &q1, &q2, a1, a2, &mut r1, &mut r2, consts);
                    (c0, r1, c1, r2)
                };
                // c0's row then c1's, components ascending
                let apply = move |_e: usize, inc: &(usize, [R; 4], usize, [R; 4])| {
                    let (c0, r1, c1, r2) = inc;
                    res.add_row(*c0, r1);
                    res.add_row(*c1, r2);
                };
                chain.record_simd_two_phase(
                    desc("res_calc", ne),
                    L,
                    compute,
                    apply,
                    // gather, vector flux kernel, lane scatter
                    // (block-exclusive under the plan's coloring)
                    move |es| {
                        let (e2n, e2c) = (&mesh.edge2node.data, &mesh.edge2cell.data);
                        let (q, adt) = (qd.read(), adtd.read());
                        res_chunk::<R, L>(es, e2n, e2c, xd, q, adt, resd, consts);
                    },
                );
                if let Some(h) = halo {
                    chain.mark_boundary(h.edge_halo);
                }
                chain.record_serial(desc("bres_calc", nb), move |be| {
                    let n = mesh.bedge2node.row(be);
                    let c0 = mesh.bedge2cell.at(be, 0);
                    let xa: [R; 2] = x.load_row(n[0] as usize);
                    let xb: [R; 2] = x.load_row(n[1] as usize);
                    let qrow: [R; 4] = q.load_row(c0);
                    let [a] = adt.load_row(c0);
                    let mut rrow: [R; 4] = res.load_row(c0);
                    bres_calc(&xa, &xb, &qrow, a, &mut rrow, bound[be], consts);
                    res.store_row(c0, &rrow);
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
                        let qold_row: [R; 4] = qold.load_row($c);
                        let mut q_row = [R::ZERO; 4];
                        let mut res_row: [R; 4] = res.load_row($c);
                        let [a] = adt.load_row($c);
                        update(&qold_row, &mut q_row, &mut res_row, a, $rms);
                        q.store_row($c, &q_row);
                        res.store_row($c, &res_row);
                    }};
                }
                // the block's residual folds in registers — one scalar, and
                // under the SIMD shape one vector accumulator — and lands in
                // its (iteration, phase, block) slot with one store: a
                // deterministic block-order reduction; a tile's fringe run
                // has no slot (its owner contributes those cells)
                let vector = matches!(shape, Shape::Simd { .. });
                let slots = (step * 2 + phase) * cell_blocks;
                chain.record_blocks(desc("update", nc), move |slot, range| {
                    let mut local = R::ZERO;
                    if vector {
                        let mut local_v = VecR::<R, L>::zero();
                        simd_block_sweep(
                            range,
                            L,
                            |c| update_cell!(c, &mut local),
                            |cs| {
                                let (qold, adt) = (qoldd.read(), adtd.read());
                                update_chunk::<R, L>(cs, qold, qd, resd, adt, &mut local_v);
                            },
                        );
                        local += local_v.reduce_sum();
                    } else {
                        for c in range.start as usize..range.end as usize {
                            update_cell!(c, &mut local);
                        }
                    }
                    if let Some(b) = slot {
                        rms.store_row(slots + b, &[local]);
                    }
                });
                if halo.is_some() {
                    chain.mark_interior();
                    // discard ghost increments (owners recompute them via
                    // their redundant boundary edges)
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
