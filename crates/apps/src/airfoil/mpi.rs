//! The Airfoil message-passing backend: partition → distribute → SPMD
//! ranks with halo exchanges and redundant exec-halo execution (paper §3,
//! §6.5's MPI and MPI+OpenMP configurations).
//!
//! Per-rank iteration (matching `op_mpi_halo_exchanges` placement in the
//! generated code of paper Fig. 2b):
//!
//! ```text
//! save_soln  over owned cells
//! 2 × { adt_calc over owned cells
//!       halo-exchange q, adt (owners → ghosts)
//!       res_calc over ALL local edges (owned + redundantly executed)
//!       bres_calc over owned boundary edges
//!       update over owned cells, Σ rms allreduced }
//! ```
//!
//! Increments into ghost cells are discarded (the owner computes them via
//! its own copy of the boundary edge); ghost `res` rows are re-zeroed
//! after each phase so they cannot grow unboundedly.
//!
//! The one entry point is [`RankState::step_fused_chain`]: the rank's
//! iteration recorded as an `ump_lazy` chain whose halo exchanges are
//! non-blocking — `res_calc`'s **interior** colored blocks (edges whose
//! cells are both owned) execute while the `q`/`adt` messages are in
//! flight, the exchanges complete, and only the **boundary** blocks
//! (edges reading a ghost cell, [`LocalMesh::boundary_edges`]) wait for
//! the data. Reductions merge through the rank-ordered bit-reproducible
//! allreduce. [`run_mpi_fused`] drives it end to end at any rank count,
//! in threaded or `L`-lane SIMD shape, with overlap or blocking
//! exchanges (same compute order — bit-identical results; the halo
//! bench compares wall time).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use ump_core::{
    distribute, extract_rows, ExecPool, LocalMesh, OpDat, PlanCache, Recorder, SharedDat,
};
use ump_fault::FaultInjector;
use ump_lazy::{Chain, ExchangePolicy, LoopDesc, Shape};
use ump_mesh::generators::AirfoilCase;
use ump_minimpi::{Comm, ExchangeGuard, PendingExchange, Universe};
use ump_part::{rcb, Partition};
use ump_simd::{Real, VecR};

use crate::resilience::{resilient_loop, ResilientReport};

use super::drivers; // lane-chunk bodies shared with the single-process chains
use super::kernels::{adt_calc, bres_calc, res_calc, save_soln, update};
use super::{profile, Airfoil, Consts};

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
    /// overlap** — the distributed production path. The chain records
    /// the same fused groups as the shared-memory
    /// `drivers::step_fused_simd_on` (save_soln+adt_calc and
    /// update+adt_calc share one colored dispatch each), plus the halo
    /// exchanges as non-blocking chain entries:
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
        let RankState {
            local,
            bound,
            edge_halo,
            x,
            q,
            qold,
            adt,
            res,
            consts,
        } = self;
        let mesh = &local.mesh;
        let halo = &local.cell_halo;
        let n_owned = local.n_owned_cells;
        let (x, consts, bound, edge_halo) = (&*x, &*consts, &*bound, &*edge_halo);
        // rank-local dats are always AoS (distribution extracts AoS rows);
        // the views are captured before the SharedDat borrows below
        let (xv, qv, qoldv, resv) = (x.view(), q.view(), qold.view(), res.view());
        let (ne, nb) = (mesh.n_edges(), mesh.n_bedges());
        let n_cell_blocks = n_owned.div_ceil(block_size);
        // rms partials: one slot per (phase, owned-cell block), merged in
        // block order after the chain — deterministic per rank, then
        // rank-ordered across ranks
        let mut rms_blocks = vec![R::ZERO; 2 * n_cell_blocks];
        {
            let qs = SharedDat::new(&mut q.data);
            let qolds = SharedDat::new(&mut qold.data);
            let adts = SharedDat::new(&mut adt.data);
            let ress = SharedDat::new(&mut res.data);
            let rmss = SharedDat::new(&mut rms_blocks);
            // in-flight exchange handles, passed from start to finish
            let pending_q: [Mutex<Option<PendingExchange>>; 2] =
                [Mutex::new(None), Mutex::new(None)];
            let pending_adt: [Mutex<Option<PendingExchange>>; 2] =
                [Mutex::new(None), Mutex::new(None)];
            let desc = |name: &str, n: usize| LoopDesc::new(profile(name), n);

            let mut chain = Chain::new("airfoil_step");
            {
                let (qs, qolds) = (&qs, &qolds);
                chain.record_simd(
                    desc("save_soln", n_owned),
                    vec![],
                    L,
                    move |c| unsafe {
                        save_soln(qs.slice(c * 4, 4), qolds.slice_mut(c * 4, 4));
                    },
                    move |cs| unsafe {
                        let src = qs.as_slice();
                        let dst = qolds.slice_mut(0, qolds.len());
                        for i in 0..4 {
                            VecR::<R, L>::load(src, cs * 4 + i * L).store(dst, cs * 4 + i * L);
                        }
                    },
                );
                chain.mark_interior();
            }
            for phase in 0..2 {
                {
                    let (qs, adts) = (&qs, &adts);
                    chain.record_simd(
                        desc("adt_calc", n_owned),
                        vec![],
                        L,
                        move |c| {
                            let n = mesh.cell2node.row(c);
                            let mut a = R::ZERO;
                            unsafe {
                                adt_calc(
                                    x.row(n[0] as usize),
                                    x.row(n[1] as usize),
                                    x.row(n[2] as usize),
                                    x.row(n[3] as usize),
                                    qs.slice(c * 4, 4),
                                    &mut a,
                                    consts,
                                );
                                adts.slice_mut(c, 1)[0] = a;
                            }
                        },
                        move |cs| unsafe {
                            drivers::adt_chunk::<R, L>(
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
                    chain.mark_interior();
                }
                // ghosts of q and adt are stale (update / adt_calc ran on
                // owned cells only): post the sends; the receives finish
                // between res_calc's interior and boundary passes
                {
                    let (qs, slot) = (&qs, &pending_q[phase]);
                    chain.record_exchange(
                        "halo[q]",
                        move || {
                            let started =
                                halo.start(comm, unsafe { qs.as_slice() }, 4, phase as u64 * 2);
                            *slot.lock().unwrap() = Some(started);
                        },
                        move || {
                            let started = slot.lock().unwrap().take().expect("q exchange started");
                            match guard {
                                Some(g) => {
                                    g.finish(started, comm, unsafe { qs.slice_mut(0, qs.len()) })
                                }
                                None => started.finish(comm, unsafe { qs.slice_mut(0, qs.len()) }),
                            }
                        },
                    );
                }
                {
                    let (adts, slot) = (&adts, &pending_adt[phase]);
                    chain.record_exchange(
                        "halo[adt]",
                        move || {
                            let started = halo.start(
                                comm,
                                unsafe { adts.as_slice() },
                                1,
                                phase as u64 * 2 + 1,
                            );
                            *slot.lock().unwrap() = Some(started);
                        },
                        move || {
                            let started =
                                slot.lock().unwrap().take().expect("adt exchange started");
                            match guard {
                                Some(g) => g.finish(started, comm, unsafe {
                                    adts.slice_mut(0, adts.len())
                                }),
                                None => {
                                    started.finish(comm, unsafe { adts.slice_mut(0, adts.len()) })
                                }
                            }
                        },
                    );
                }
                {
                    let (qs, adts, ress) = (&qs, &adts, &ress);
                    chain.record_simd_two_phase(
                        desc("res_calc", ne),
                        vec![&mesh.edge2cell],
                        L,
                        move |e| {
                            let n = mesh.edge2node.row(e);
                            let c = mesh.edge2cell.row(e);
                            let (c0, c1) = (c[0] as usize, c[1] as usize);
                            let mut r1 = [R::ZERO; 4];
                            let mut r2 = [R::ZERO; 4];
                            unsafe {
                                res_calc(
                                    x.row(n[0] as usize),
                                    x.row(n[1] as usize),
                                    qs.slice(c0 * 4, 4),
                                    qs.slice(c1 * 4, 4),
                                    adts.slice(c0, 1)[0],
                                    adts.slice(c1, 1)[0],
                                    &mut r1,
                                    &mut r2,
                                    consts,
                                );
                            }
                            (c0, r1, c1, r2)
                        },
                        move |_e, inc| unsafe { ump_core::apply_edge_inc(ress, inc) },
                        move |es| unsafe {
                            drivers::res_chunk::<R, L>(
                                es,
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
                        },
                    );
                    chain.mark_boundary(edge_halo);
                }
                {
                    let (qs, adts, ress) = (&qs, &adts, &ress);
                    chain.record_seq(desc("bres_calc", nb), move || {
                        for be in 0..nb {
                            let n = mesh.bedge2node.row(be);
                            let c0 = mesh.bedge2cell.at(be, 0);
                            unsafe {
                                bres_calc(
                                    x.row(n[0] as usize),
                                    x.row(n[1] as usize),
                                    qs.slice(c0 * 4, 4),
                                    adts.slice(c0, 1)[0],
                                    ress.slice_mut(c0 * 4, 4),
                                    bound[be],
                                    consts,
                                );
                            }
                        }
                    });
                    // bedges map to owned cells only — never to ghosts
                    chain.mark_interior();
                }
                {
                    let (qs, qolds, adts, ress, rmss) = (&qs, &qolds, &adts, &ress, &rmss);
                    if let Shape::Simd { .. } = shape {
                        chain.record_simd(
                            desc("update", n_owned),
                            vec![],
                            L,
                            move |c| unsafe {
                                let mut local = R::ZERO;
                                update(
                                    qolds.slice(c * 4, 4),
                                    qs.slice_mut(c * 4, 4),
                                    ress.slice_mut(c * 4, 4),
                                    adts.slice(c, 1)[0],
                                    &mut local,
                                );
                                let slot = phase * n_cell_blocks + c / block_size;
                                rmss.slice_mut(slot, 1)[0] += local;
                            },
                            move |cs| unsafe {
                                let mut local_v = VecR::<R, L>::zero();
                                drivers::update_chunk::<R, L>(
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
                                let slot = phase * n_cell_blocks + cs / block_size;
                                rmss.slice_mut(slot, 1)[0] += local_v.reduce_sum();
                            },
                        );
                    } else {
                        chain.record_blocks(desc("update", n_owned), vec![], move |b, range| {
                            let mut local = R::ZERO;
                            for c in range.start as usize..range.end as usize {
                                unsafe {
                                    update(
                                        qolds.slice(c * 4, 4),
                                        qs.slice_mut(c * 4, 4),
                                        ress.slice_mut(c * 4, 4),
                                        adts.slice(c, 1)[0],
                                        &mut local,
                                    );
                                }
                            }
                            unsafe { rmss.slice_mut(phase * n_cell_blocks + b, 1)[0] = local };
                        });
                    }
                    chain.mark_interior();
                }
                {
                    // discard ghost increments (owners recompute them via
                    // their redundant boundary edges)
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
        let mut rms = R::ZERO;
        for v in rms_blocks {
            rms += v;
        }
        let global = comm.allreduce_sum(rms.to_f64());
        (global / total_cells as f64).sqrt()
    }
}

/// Run the distributed fused backend end to end: `n_ranks` SPMD ranks,
/// each with a persistent per-rank [`ExecPool`], stepping the rank-local
/// fused chain with halo/compute overlap (or blocking exchanges, for the
/// baseline). `shape` is the per-rank execution shape — pass
/// [`Shape::Simd`]`{ lanes: L }` for the vectorized composition. Returns
/// the assembled global flow state and the RMS history.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused<R: Real, const L: usize>(
    case: &AirfoilCase,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
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
        iters,
        shape,
        policy,
    )
}

/// As [`run_mpi_fused`] with an explicit partition — tests use it to
/// stress ragged ownership (a rank with almost no interior, a rank with
/// a huge fringe).
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused_with_partition<R: Real, const L: usize>(
    case: &AirfoilCase,
    partition: &Partition,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
    shape: Shape,
    policy: ExchangePolicy,
) -> (OpDat<R>, Vec<f64>) {
    let mesh = &case.mesh;
    let locals = distribute(mesh, partition);
    let total_cells = mesh.n_cells();
    let n_ranks = partition.n_parts as usize;

    let results = Universe::new(n_ranks).run(|comm| {
        let cache = PlanCache::new();
        let pool = ExecPool::new(threads_per_rank);
        let mut state = RankState::<R>::new(case, locals[comm.rank()].clone());
        let mut history = Vec::with_capacity(iters);
        for _ in 0..iters {
            history.push(state.step_fused_chain::<L>(
                comm,
                &cache,
                &pool,
                shape,
                block_size,
                total_cells,
                policy,
                None,
                None,
            ));
        }
        (
            state.q.data,
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
    let q = OpDat::from_vec(
        "q",
        total_cells,
        4,
        ump_core::dist::assemble_owned(&parts, total_cells, 4),
    );
    (q, history)
}

/// One rank's returned state dats: (q, qold, adt, res).
type RankDats<R> = (Vec<R>, Vec<R>, Vec<R>, Vec<R>);

/// One distributed fused step on a *global* simulation state — the
/// `step_on` entry point behind `Backend::MpiFused*`. Distributes the
/// state across `n_ranks` ranks, runs one overlapped fused-chain
/// iteration per rank, and assembles every dat back, so consecutive
/// calls continue the simulation exactly like a persistent universe
/// (ghost values are refreshed from owners each step either way).
pub fn step_mpi_fused<R: Real, const L: usize>(
    sim: &mut Airfoil<R>,
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
            let rms = st.step_fused_chain::<L>(
                comm,
                &cache,
                &pool,
                shape,
                block_size,
                total_cells,
                ExchangePolicy::Overlap,
                rec,
                None,
            );
            (
                (st.q.data, st.qold.data, st.adt.data, st.res.data),
                st.local.cell_global.clone(),
                st.local.n_owned_cells,
                rms,
            )
        })
    };

    let assemble = |pick: &dyn Fn(&RankDats<R>) -> &[R], dim: usize| {
        let parts: Vec<(&[R], &[u32], usize)> = results
            .iter()
            .map(|(dats, ids, n_owned, _)| (pick(dats), ids.as_slice(), *n_owned))
            .collect();
        ump_core::dist::assemble_owned(&parts, total_cells, dim)
    };
    sim.q.data = assemble(&|d| &d.0, 4);
    sim.qold.data = assemble(&|d| &d.1, 4);
    sim.adt.data = assemble(&|d| &d.2, 1);
    sim.res.data = assemble(&|d| &d.3, 4);
    results[0].3
}

/// Initialize a rank state from a *mid-simulation* global state — lets
/// tests hand the MPI backend a nontrivial flow field.
pub fn rank_state_from_global<R: Real>(
    case: &AirfoilCase,
    local: LocalMesh,
    global: &Airfoil<R>,
) -> RankState<R> {
    let mut st = RankState::<R>::new(case, local);
    st.q.data = extract_rows(&global.q.data, 4, &st.local.cell_global);
    st.qold.data = extract_rows(&global.qold.data, 4, &st.local.cell_global);
    st.adt.data = extract_rows(&global.adt.data, 1, &st.local.cell_global);
    st.res.data = extract_rows(&global.res.data, 4, &st.local.cell_global);
    st
}

impl<R: Real> RankState<R> {
    /// Serialize the rank's evolving dats (`q`, `qold`, `adt`, `res`)
    /// as exact bit patterns — the rank-level coordinated-checkpoint
    /// payload. Mesh topology, geometry, and constants are deterministic
    /// functions of the case and partition, so they are rebuilt on
    /// restart rather than stored.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((self.q.data.len() * 3 + self.adt.data.len()) * 8 + 256);
        for dat in [&self.q, &self.qold, &self.adt, &self.res] {
            dat.save(&mut out).expect("Vec<u8> writes are infallible");
        }
        out
    }

    /// Restore the evolving dats from [`RankState::snapshot`] bytes.
    /// All-or-nothing: the state is untouched unless every dat decodes
    /// and matches this rank's shape (typed error, never a panic).
    pub fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut r = bytes;
        let mut loaded = Vec::with_capacity(4);
        for dat in [&self.q, &self.qold, &self.adt, &self.res] {
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
        self.q.data = it.next().unwrap();
        self.qold.data = it.next().unwrap();
        self.adt.data = it.next().unwrap();
        self.res.data = it.next().unwrap();
        Ok(())
    }
}

/// As [`run_mpi_fused`], but fault-tolerant: each rank checkpoints its
/// evolving dats every `checkpoint_every` steps (0 = initial state only)
/// and the ranks run the coordinated health-vote/rollback protocol of
/// [`resilient_loop`]. `injector` supplies deterministic faults (rank
/// kills, dropped/delayed halo packets); `io_timeout` bounds every halo
/// wait via an [`ExchangeGuard`], so an injected loss surfaces as a
/// typed timeout and a rollback rather than a hang. Under any such plan
/// the returned state and history are bit-identical to a fault-free run.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused_resilient<R: Real, const L: usize>(
    case: &AirfoilCase,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
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
            iters,
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
                    total_cells,
                    policy,
                    None,
                    Some(g),
                )
            },
        );
        (
            state.q.data,
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
    let q = OpDat::from_vec(
        "q",
        total_cells,
        4,
        ump_core::dist::assemble_owned(&parts, total_cells, 4),
    );
    (q, history, report)
}
