//! The Volna message-passing backend: same owner-compute + redundant
//! exec-halo scheme as Airfoil's (see `airfoil::mpi`), with the
//! shallow-water twist that the CFL timestep is a *global* min-reduction
//! — the implicit synchronization point §6.5 charges the Phi for.
//!
//! Per rank and time step:
//!
//! ```text
//! sim_1 over owned cells
//! phase 1: halo-exchange w → compute_flux/numerical_flux/space_disc/bc
//!          over ALL local edges, dt = allreduce_min, RK_1 over owned
//! phase 2: halo-exchange w1 → flux kernels on w1, RK_2 over owned
//! ```
//!
//! The one entry point is [`RankState::step_fused_chain`]: the RK2 step
//! recorded as an `ump_lazy` chain whose `w`/`w1` exchanges are
//! non-blocking — `sim_1` and the fused flux group's **interior** blocks
//! run while the messages fly, the exchange completes, and only the
//! ghost-reading **boundary** blocks wait. The CFL Δt merges through a
//! block-ordered fold and the rank-ordered `allreduce_min` inside the
//! flux group's epilogue, before `RK_1` (a later loop of the same chain)
//! consumes it. [`run_mpi_fused`] drives it end to end.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ump_core::{distribute, ExecPool, LocalMesh, OpDat, PlanCache, Recorder, SharedDat};
use ump_fault::FaultInjector;
use ump_lazy::{Chain, ExchangePolicy, LoopDesc, Shape};
use ump_mesh::generators::CoastalCase;
use ump_minimpi::{Comm, ExchangeGuard, PendingExchange, Universe};
use ump_part::{rcb, Partition};
use ump_simd::{Real, VecR};

use crate::resilience::{resilient_loop, ResilientReport};

use super::drivers;
use super::kernels::{bc_flux, compute_flux, numerical_flux, rk_1, rk_2, sim_1, space_disc};
use super::{profile, Volna, CFL, GRAVITY, H_MIN};

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
    /// overlap** — the distributed production path. Chain structure:
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
    /// The CFL Δt is the implicit synchronization point §6.5 charges the
    /// Phi for: it merges deterministically (block order within the
    /// rank, rank order across ranks) inside the flux group's epilogue,
    /// before `RK_1` consumes it. Returns the globally-agreed Δt.
    ///
    /// With `guard: Some(_)` the `w`/`w1` exchange finishes route
    /// through the [`ExchangeGuard`] — a missed halo deadline latches a
    /// typed timeout and the step completes on stale ghost data (the
    /// resilient driver rolls it back) instead of blocking forever.
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
        let g = R::from_f64(GRAVITY);
        let h_min = R::from_f64(H_MIN);
        let cfl = R::from_f64(CFL);
        let RankState {
            local,
            edge_halo,
            w,
            w_old,
            w1,
            res,
            area,
            egeom,
            eflux,
            bgeom,
        } = self;
        let mesh = &local.mesh;
        let halo = &local.cell_halo;
        let n_owned = local.n_owned_cells;
        let (area, egeom, bgeom, edge_halo) = (&*area, &*egeom, &*bgeom, &*edge_halo);
        // rank-local dats are always AoS (distribution extracts AoS rows);
        // views captured before the SharedDat borrows below
        let (egv, efv, resv) = (egeom.view(), eflux.view(), res.view());
        let (wv, woldv, w1v) = (w.view(), w_old.view(), w1.view());
        let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
        let n_edge_blocks = ne.div_ceil(block_size);
        // Δt partials: one slot per edge block, folded (then allreduced)
        // by the flux group's epilogue before RK_1 reads `dt_slot`
        let mut dt_blocks = vec![R::INFINITY; n_edge_blocks];
        let mut dt_slot = vec![f64::INFINITY; 1];
        {
            let ws = SharedDat::new(&mut w.data);
            let wolds = SharedDat::new(&mut w_old.data);
            let w1s = SharedDat::new(&mut w1.data);
            let ress = SharedDat::new(&mut res.data);
            let efs = SharedDat::new(&mut eflux.data);
            let dts = SharedDat::new(&mut dt_blocks);
            let dtf = SharedDat::new(&mut dt_slot);
            let pending: [Mutex<Option<PendingExchange>>; 2] = [Mutex::new(None), Mutex::new(None)];
            let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n);
            // the state the flux kernels gather switches to w1 in the
            // second RK phase — the dependency analyzer must see it
            let state_desc = |name: &str, n: usize, phase: usize| {
                let mut p = profile(name);
                if phase == 1 {
                    for a in &mut p.args {
                        if a.dat == "w" {
                            a.dat = "w1".into();
                        }
                    }
                }
                LoopDesc::new(p, n)
            };

            let mut chain = Chain::new("volna_step");
            // refresh w ghosts for phase 0: posted before sim_1 so the
            // copy loop also hides message latency
            {
                let (ws, slot) = (&ws, &pending[0]);
                chain.record_exchange(
                    "halo[w]",
                    move || {
                        let started = halo.start(comm, unsafe { ws.as_slice() }, 4, 0);
                        *slot.lock().unwrap() = Some(started);
                    },
                    move || {
                        let started = slot.lock().unwrap().take().expect("w exchange started");
                        match guard {
                            Some(g) => {
                                g.finish(started, comm, unsafe { ws.slice_mut(0, ws.len()) })
                            }
                            None => started.finish(comm, unsafe { ws.slice_mut(0, ws.len()) }),
                        }
                    },
                );
            }
            {
                let (ws, wolds) = (&ws, &wolds);
                chain.record_simd(
                    desc("sim_1", n_owned),
                    vec![],
                    L,
                    move |c| unsafe {
                        sim_1(ws.slice(c * 4, 4), wolds.slice_mut(c * 4, 4));
                    },
                    move |cs| unsafe {
                        let src = ws.as_slice();
                        let dst = wolds.slice_mut(0, wolds.len());
                        for i in 0..4 {
                            VecR::<R, L>::load(src, cs * 4 + i * L).store(dst, cs * 4 + i * L);
                        }
                    },
                );
                chain.mark_interior();
            }
            for phase in 0..2 {
                let state = if phase == 0 { &ws } else { &w1s };
                let sv = if phase == 0 { wv } else { w1v };
                if phase == 1 {
                    // refresh w1 ghosts (RK_1 wrote owned rows only)
                    let (w1s, slot) = (&w1s, &pending[1]);
                    chain.record_exchange(
                        "halo[w1]",
                        move || {
                            let started = halo.start(comm, unsafe { w1s.as_slice() }, 4, 1);
                            *slot.lock().unwrap() = Some(started);
                        },
                        move || {
                            let started = slot.lock().unwrap().take().expect("w1 exchange started");
                            match guard {
                                Some(g) => {
                                    g.finish(started, comm, unsafe { w1s.slice_mut(0, w1s.len()) })
                                }
                                None => {
                                    started.finish(comm, unsafe { w1s.slice_mut(0, w1s.len()) })
                                }
                            }
                        },
                    );
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
                                compute_flux(
                                    egeom.row(e),
                                    state.slice(c[0] as usize * 4, 4),
                                    state.slice(c[1] as usize * 4, 4),
                                    efs.slice_mut(e * 4, 4),
                                    g,
                                    h_min,
                                );
                            }
                        },
                        move |es| unsafe {
                            drivers::compute_flux_chunk::<R, L>(
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
                    chain.mark_boundary(edge_halo);
                }
                if phase == 0 {
                    {
                        let (efs, dts) = (&efs, &dts);
                        if let Shape::Simd { .. } = shape {
                            chain.record_simd(
                                desc("numerical_flux", ne),
                                vec![],
                                L,
                                move |e| {
                                    let c = mesh.edge2cell.row(e);
                                    unsafe {
                                        let slot = &mut dts.slice_mut(e / block_size, 1)[0];
                                        numerical_flux(
                                            egeom.row(e),
                                            efs.slice(e * 4, 4),
                                            area.row(c[0] as usize)[0],
                                            area.row(c[1] as usize)[0],
                                            slot,
                                            cfl,
                                        );
                                    }
                                },
                                move |es| unsafe {
                                    let mut dt_v = VecR::<R, L>::splat(R::INFINITY);
                                    drivers::numerical_flux_chunk::<R, L>(
                                        es,
                                        &mesh.edge2cell.data,
                                        efs.as_slice(),
                                        efv,
                                        &area.data,
                                        &mut dt_v,
                                        cfl,
                                    );
                                    let slot = &mut dts.slice_mut(es / block_size, 1)[0];
                                    *slot = slot.min(dt_v.reduce_min());
                                },
                            );
                        } else {
                            chain.record_blocks(
                                desc("numerical_flux", ne),
                                vec![],
                                move |b, range| {
                                    let mut local = R::INFINITY;
                                    for e in range.start as usize..range.end as usize {
                                        let c = mesh.edge2cell.row(e);
                                        unsafe {
                                            numerical_flux(
                                                egeom.row(e),
                                                efs.slice(e * 4, 4),
                                                area.row(c[0] as usize)[0],
                                                area.row(c[1] as usize)[0],
                                                &mut local,
                                                cfl,
                                            );
                                        }
                                    }
                                    unsafe { dts.slice_mut(b, 1)[0] = local };
                                },
                            );
                        }
                        // numerical_flux reads edge-local flux and the
                        // rank-local cell areas — no halo data
                        chain.mark_interior();
                    }
                    {
                        // fold the Δt partials, then the global CFL
                        // agreement — the rank-ordered min-allreduce, the
                        // step's implicit synchronization point
                        let (dts, dtf) = (&dts, &dtf);
                        chain.epilogue(move || unsafe {
                            let mut merged = R::INFINITY;
                            for &v in dts.slice(0, dts.len()) {
                                merged = if v < merged { v } else { merged };
                            }
                            dtf.slice_mut(0, 1)[0] = comm.allreduce_min(merged.to_f64());
                        });
                    }
                }
                {
                    let (efs, ress) = (&efs, &ress);
                    chain.record_simd_two_phase(
                        state_desc("space_disc", ne, phase),
                        vec![&mesh.edge2cell],
                        L,
                        move |e| {
                            let c = mesh.edge2cell.row(e);
                            let (c0, c1) = (c[0] as usize, c[1] as usize);
                            let mut rl = [R::ZERO; 4];
                            let mut rr = [R::ZERO; 4];
                            unsafe {
                                space_disc(
                                    egeom.row(e),
                                    efs.slice(e * 4, 4),
                                    state.slice(c0 * 4, 4),
                                    state.slice(c1 * 4, 4),
                                    &mut rl,
                                    &mut rr,
                                    g,
                                );
                            }
                            (c0, rl, c1, rr)
                        },
                        move |_e, inc| unsafe { ump_core::apply_edge_inc(ress, inc) },
                        move |es| unsafe {
                            drivers::space_disc_chunk::<R, L>(
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
                    chain.mark_boundary(edge_halo);
                }
                {
                    let ress = &ress;
                    chain.record_seq(state_desc("bc_flux", nb, phase), move || {
                        for be in 0..nb {
                            let c0 = mesh.bedge2cell.at(be, 0);
                            unsafe {
                                bc_flux(
                                    bgeom.row(be),
                                    state.slice(c0 * 4, 4),
                                    ress.slice_mut(c0 * 4, 4),
                                    g,
                                );
                            }
                        }
                    });
                    // bedges map to owned cells only
                    chain.mark_interior();
                }
                if phase == 0 {
                    let (wolds, w1s, ress, dtf) = (&wolds, &w1s, &ress, &dtf);
                    chain.record_simd(
                        desc("RK_1", n_owned),
                        vec![],
                        L,
                        move |c| unsafe {
                            let dt = R::from_f64(dtf.slice(0, 1)[0]);
                            rk_1(
                                wolds.slice(c * 4, 4),
                                ress.slice_mut(c * 4, 4),
                                w1s.slice_mut(c * 4, 4),
                                area.row(c)[0],
                                dt,
                            );
                        },
                        move |cs| unsafe {
                            let dt = R::from_f64(dtf.slice(0, 1)[0]);
                            drivers::rk1_chunk::<R, L>(
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
                    chain.mark_interior();
                } else {
                    let (wolds, w1s, ress, ws, dtf) = (&wolds, &w1s, &ress, &ws, &dtf);
                    chain.record_simd(
                        desc("RK_2", n_owned),
                        vec![],
                        L,
                        move |c| unsafe {
                            let dt = R::from_f64(dtf.slice(0, 1)[0]);
                            rk_2(
                                wolds.slice(c * 4, 4),
                                w1s.slice(c * 4, 4),
                                ress.slice_mut(c * 4, 4),
                                ws.slice_mut(c * 4, 4),
                                area.row(c)[0],
                                dt,
                            );
                        },
                        move |cs| unsafe {
                            let dt = R::from_f64(dtf.slice(0, 1)[0]);
                            drivers::rk2_chunk::<R, L>(
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
                    chain.mark_interior();
                }
                {
                    // discard ghost increments (owners recompute them)
                    let ress = &ress;
                    chain.epilogue(move || unsafe {
                        for v in ress.slice_mut(n_owned * 4, ress.len() - n_owned * 4) {
                            *v = R::ZERO;
                        }
                    });
                }
            }
            chain.execute_policy(pool, cache, shape, 0, block_size, R::BYTES, rec, policy);
        }
        dt_slot[0]
    }
}

/// Run the distributed fused backend end to end: `n_ranks` ranks, each
/// stepping the rank-local fused chain with halo/compute overlap (or
/// blocking exchanges). `shape` selects the per-rank execution shape.
/// Returns the assembled global state and the Δt history.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused<R: Real, const L: usize>(
    case: &CoastalCase,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    steps: usize,
    shape: Shape,
    policy: ExchangePolicy,
) -> (OpDat<R>, Vec<f64>) {
    let mesh = &case.mesh;
    let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    let partition = rcb(&pts, n_ranks as u32);
    run_mpi_fused_with_partition::<R, L>(
        case,
        &partition,
        threads_per_rank,
        block_size,
        steps,
        shape,
        policy,
    )
}

/// As [`run_mpi_fused`] with an explicit partition (ragged-ownership
/// tests).
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused_with_partition<R: Real, const L: usize>(
    case: &CoastalCase,
    partition: &Partition,
    threads_per_rank: usize,
    block_size: usize,
    steps: usize,
    shape: Shape,
    policy: ExchangePolicy,
) -> (OpDat<R>, Vec<f64>) {
    let mesh = &case.mesh;
    let locals = distribute(mesh, partition);
    let total_cells = mesh.n_cells();
    let n_ranks = partition.n_parts as usize;

    let results =
        Universe::new(n_ranks).run(|comm| {
            let cache = PlanCache::new();
            let pool = ExecPool::new(threads_per_rank);
            let mut state = RankState::<R>::new(case, locals[comm.rank()].clone());
            let mut history = Vec::with_capacity(steps);
            for _ in 0..steps {
                history.push(state.step_fused_chain::<L>(
                    comm, &cache, &pool, shape, block_size, policy, None, None,
                ));
            }
            (
                state.w.data,
                state.local.cell_global.clone(),
                state.local.n_owned_cells,
                history,
            )
        });

    let history = results[0].3.clone();
    let parts: Vec<(&[R], &[u32], usize)> = results
        .iter()
        .map(|(data, ids, n_owned, _)| (data.as_slice(), ids.as_slice(), *n_owned))
        .collect();
    let w = OpDat::from_vec(
        "w",
        total_cells,
        4,
        ump_core::dist::assemble_owned(&parts, total_cells, 4),
    );
    (w, history)
}

impl<R: Real> RankState<R> {
    /// Serialize the rank's evolving dats (`w`, `w_old`, `w1`, `res`,
    /// `eflux`) as exact bit patterns — the rank-level
    /// coordinated-checkpoint payload. Geometry (`area`, `egeom`,
    /// `bgeom`) is a deterministic function of the case and partition
    /// and is rebuilt on restart.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((self.w.data.len() * 4 + self.eflux.data.len()) * 8 + 320);
        for dat in [&self.w, &self.w_old, &self.w1, &self.res, &self.eflux] {
            dat.save(&mut out).expect("Vec<u8> writes are infallible");
        }
        out
    }

    /// Restore the evolving dats from [`RankState::snapshot`] bytes.
    /// All-or-nothing: the state is untouched unless every dat decodes
    /// and matches this rank's shape (typed error, never a panic).
    pub fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut r = bytes;
        let mut loaded = Vec::with_capacity(5);
        for dat in [&self.w, &self.w_old, &self.w1, &self.res, &self.eflux] {
            let got = OpDat::<R>::load(&mut r)?;
            if got.set_size != dat.set_size || got.dim != dat.dim {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "snapshot dat {} is {}x{}, rank expects {}x{}",
                        got.name, got.set_size, got.dim, dat.set_size, dat.dim
                    ),
                ));
            }
            loaded.push(got.data);
        }
        let mut it = loaded.into_iter();
        self.w.data = it.next().unwrap();
        self.w_old.data = it.next().unwrap();
        self.w1.data = it.next().unwrap();
        self.res.data = it.next().unwrap();
        self.eflux.data = it.next().unwrap();
        Ok(())
    }
}

/// As [`run_mpi_fused`], but fault-tolerant: coordinated per-rank
/// checkpoints every `checkpoint_every` steps (0 = initial state only)
/// plus the health-vote/rollback protocol of [`resilient_loop`].
/// `injector` supplies deterministic faults; `io_timeout` bounds every
/// halo wait via an [`ExchangeGuard`]. Under any injected plan the
/// returned state and Δt history are bit-identical to a fault-free run.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused_resilient<R: Real, const L: usize>(
    case: &CoastalCase,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    steps: usize,
    shape: Shape,
    policy: ExchangePolicy,
    checkpoint_every: usize,
    injector: Option<Arc<FaultInjector>>,
    io_timeout: Duration,
) -> (OpDat<R>, Vec<f64>, ResilientReport) {
    let mesh = &case.mesh;
    let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    let partition = rcb(&pts, n_ranks as u32);
    let locals = distribute(mesh, &partition);
    let total_cells = mesh.n_cells();

    let mut universe = Universe::new(n_ranks);
    if let Some(inj) = injector.clone() {
        universe = universe.with_fault(inj);
    }
    let results = universe.run(|comm| {
        let cache = PlanCache::new();
        let pool = ExecPool::new(threads_per_rank);
        let guard = ExchangeGuard::new(io_timeout);
        let local = locals[comm.rank()].clone();
        let mut state = RankState::<R>::new(case, local.clone());
        let (history, report) = resilient_loop(
            comm,
            &guard,
            injector.as_ref(),
            steps,
            checkpoint_every,
            &mut state,
            || RankState::<R>::new(case, local.clone()),
            |st| st.snapshot(),
            |st, bytes| st.restore(bytes).expect("rank checkpoint restore"),
            |st, g| {
                st.step_fused_chain::<L>(
                    comm,
                    &cache,
                    &pool,
                    shape,
                    block_size,
                    policy,
                    None,
                    Some(g),
                )
            },
        );
        (
            state.w.data,
            state.local.cell_global.clone(),
            state.local.n_owned_cells,
            history,
            report,
        )
    });

    let history = results[0].3.clone();
    let mut report = ResilientReport::default();
    for (_, _, _, _, r) in &results {
        report.merge(r);
    }
    let parts: Vec<(&[R], &[u32], usize)> = results
        .iter()
        .map(|(data, ids, n_owned, _, _)| (data.as_slice(), ids.as_slice(), *n_owned))
        .collect();
    let w = OpDat::from_vec(
        "w",
        total_cells,
        4,
        ump_core::dist::assemble_owned(&parts, total_cells, 4),
    );
    (w, history, report)
}

/// Initialize a rank state from a *mid-simulation* global state (the
/// inverse of the owned-row assembly).
pub fn rank_state_from_global<R: Real>(
    case: &CoastalCase,
    local: LocalMesh,
    global: &Volna<R>,
) -> RankState<R> {
    use ump_core::extract_rows;
    let mut st = RankState::<R>::new(case, local);
    st.w.data = extract_rows(&global.w.data, 4, &st.local.cell_global);
    st.w_old.data = extract_rows(&global.w_old.data, 4, &st.local.cell_global);
    st.w1.data = extract_rows(&global.w1.data, 4, &st.local.cell_global);
    st.res.data = extract_rows(&global.res.data, 4, &st.local.cell_global);
    st
}

/// One rank's returned state dats: (w, w_old, w1, res).
type RankDats<R> = (Vec<R>, Vec<R>, Vec<R>, Vec<R>);

/// One distributed fused RK2 step on a *global* simulation state — the
/// `step_on` entry point behind `Backend::MpiFused*`. Distributes,
/// steps every rank's overlapped fused chain once, assembles the state
/// back; consecutive calls continue the simulation exactly like a
/// persistent universe. Returns the globally-agreed Δt.
pub fn step_mpi_fused<R: Real, const L: usize>(
    sim: &mut Volna<R>,
    n_ranks: usize,
    block_size: usize,
    shape: Shape,
    rec: Option<&Recorder>,
) -> f64 {
    let mesh = &sim.case.mesh;
    let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    let partition = rcb(&pts, n_ranks as u32);
    let locals = distribute(mesh, &partition);
    let total_cells = mesh.n_cells();

    let results = {
        let sim = &*sim;
        Universe::new(n_ranks).run(|comm| {
            let cache = PlanCache::new();
            let pool = ExecPool::new(2);
            let mut st = rank_state_from_global(&sim.case, locals[comm.rank()].clone(), sim);
            let dt = st.step_fused_chain::<L>(
                comm,
                &cache,
                &pool,
                shape,
                block_size,
                ExchangePolicy::Overlap,
                rec,
                None,
            );
            (
                (st.w.data, st.w_old.data, st.w1.data, st.res.data),
                st.local.cell_global.clone(),
                st.local.n_owned_cells,
                dt,
            )
        })
    };

    let assemble = |pick: &dyn Fn(&RankDats<R>) -> &[R]| {
        let parts: Vec<(&[R], &[u32], usize)> = results
            .iter()
            .map(|(dats, ids, n_owned, _)| (pick(dats), ids.as_slice(), *n_owned))
            .collect();
        ump_core::dist::assemble_owned(&parts, total_cells, 4)
    };
    sim.w.data = assemble(&|d| &d.0);
    sim.w_old.data = assemble(&|d| &d.1);
    sim.w1.data = assemble(&|d| &d.2);
    sim.res.data = assemble(&|d| &d.3);
    results[0].3
}
