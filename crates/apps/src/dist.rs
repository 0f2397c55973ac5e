//! The distributed driver, once for both applications: partition →
//! [`distribute`] → SPMD ranks on a [`Universe`], each with its own
//! [`ExecPool`] and [`PlanCache`] → step loop (plain, or under the
//! checkpoint/rollback protocol of [`resilient_loop`]) → owned rows
//! assembled back into global dats.
//!
//! An application takes part by implementing [`RankApp`] for its
//! rank-local state: how to build a rank from the case and its
//! [`LocalMesh`], and which dats it holds. The step is written once,
//! here, for both applications, and is not a second copy of the
//! timestep: [`RankApp::step`] runs the app's one recording
//! ([`Simulation::record_steps`]) over the rank's dats and passes it a
//! [`RankHalo`], the hooks a rank adds around the unchanged loops (paper
//! Fig. 2b's `op_mpi_halo_exchanges`): ghost refreshes as non-blocking
//! chain entries, the interior/boundary classification that lets
//! compute hide them, the owned-cell extent of the cell loops.
//!
//! [`run_mpi_fused`] is the one message-passing entry point, at any
//! rank count, in threaded or `L`-lane SIMD shape, with overlapped or
//! blocking exchanges (same compute order — bit-identical results; the
//! halo bench compares wall time).

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ump_core::dist::assemble_owned;
use ump_core::{
    distribute, extract_rows, ExecPool, Layout, LocalMesh, OpDat, PlanCache, Recorder, SharedDat,
};
use ump_fault::FaultInjector;
use ump_lazy::{Chain, ExchangePolicy, Fusion, Shape};
use ump_mesh::Mesh2d;
use ump_minimpi::{Comm, ExchangeGuard, ExchangePlan, Universe};
use ump_part::{rcb, Partition};
use ump_simd::Real;

use crate::resilience::{resilient_loop, ResilientReport};
use crate::simulation::recorded_step;
use crate::{ChainExec, Simulation, Split};

/// What a rank adds to an application's recorded chain.
#[derive(Clone, Copy)]
pub struct RankHalo<'a> {
    /// The rank's communicator.
    pub comm: &'a Comm,
    /// The plan refreshing ghost-cell rows from their owners
    /// ([`LocalMesh::cell_halo`]).
    pub plan: &'a ExchangePlan,
    /// With `Some`, exchange finishes route through the guard: a halo
    /// receive that misses its deadline latches a typed timeout and the
    /// step completes on stale ghost data (the resilient driver rolls it
    /// back at the next health vote). With `None` a missing packet
    /// panics after the universe watchdog.
    pub guard: Option<&'a ExchangeGuard>,
    /// `true` for the rank's edges that read a ghost cell
    /// ([`LocalMesh::boundary_edges`]): their blocks wait for the
    /// exchange, the others run while the messages fly.
    pub edge_halo: &'a [bool],
    /// Owned cells — the extent of the cell loops (ghost rows are only
    /// read).
    pub n_owned: usize,
    /// Overlapped or blocking exchange finishes (same compute order).
    pub policy: ExchangePolicy,
}

impl<'a> RankHalo<'a> {
    /// Record a refresh of `dat`'s ghost rows (`dim` components per
    /// cell) at this point of `chain`: the sends are posted when the
    /// executor reaches the entry, the receives finish when the first
    /// later loop needs halo data.
    pub(crate) fn record_exchange<R: Real>(
        &self,
        chain: &mut Chain<'a>,
        name: &str,
        dat: &'a SharedDat<'a, R>,
        dim: usize,
        tag: u64,
    ) {
        let RankHalo {
            comm, plan, guard, ..
        } = *self;
        // the in-flight handle, passed from start to finish
        let posted = Arc::new(Mutex::new(None));
        let pending = Arc::clone(&posted);
        chain.record_exchange(
            name,
            move || {
                // SAFETY: the loops that write owned rows of `dat` have
                // completed (the chain runs entries in recorded order)
                let started = plan.start(comm, unsafe { dat.as_slice() }, dim, tag);
                *posted.lock().expect("exchange slot poisoned") = Some(started);
            },
            move || {
                let started = pending
                    .lock()
                    .expect("exchange slot poisoned")
                    .take()
                    .expect("exchange finished before it started");
                // SAFETY: only ghost rows are written, and every loop
                // that reads them is deferred until this finish returns
                let data = unsafe { dat.slice_mut(0, dat.len()) };
                match guard {
                    Some(g) => g.finish(started, comm, data),
                    None => started.finish(comm, data),
                }
            },
        );
    }
}

/// A rank-local application state the distributed driver can run.
pub trait RankApp: Sized + Send {
    /// Working precision.
    type R: Real;
    /// The global case a run starts from.
    type Case: Sync;
    /// The single-process state a rank holds a piece of.
    type Global: Simulation<R = Self::R>;
    /// How many leading entries of [`evolving`](RankApp::evolving) live
    /// on the cell set — the dats that distribute from and assemble
    /// into a [`Global`](RankApp::Global).
    const CELL_DATS: usize = <Self::Global as Simulation>::CELL_DATS;

    /// Build a rank's state from the global case and its mesh piece.
    fn new(case: &Self::Case, local: LocalMesh) -> Self;
    /// The mesh of a case.
    fn mesh(case: &Self::Case) -> &Mesh2d;
    /// The rank's mesh piece.
    fn local(&self) -> &LocalMesh;
    /// The dats a step changes, in the global state's
    /// [`evolving`](Simulation::evolving) order. Everything else is a
    /// deterministic function of the case and the partition and is
    /// rebuilt, not stored.
    fn evolving(&self) -> Vec<&OpDat<Self::R>>;
    /// The rank's dats as its step borrows them — the app's
    /// [`Split`] over the rank's mesh piece — with the piece itself and
    /// the halo classification of its executed edges (`true` for edges
    /// reading a ghost cell, deferred until the exchange finishes in the
    /// overlap schedule).
    fn split(&mut self) -> (Split<'_, Self::Global>, &LocalMesh, &[bool]);
    /// The case of a global state.
    fn global_case(global: &Self::Global) -> &Self::Case;

    /// [`evolving`](RankApp::evolving), mutably and in the same order.
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<Self::R>> {
        self.split().0.evolving
    }

    /// The global counterparts of the first
    /// [`CELL_DATS`](RankApp::CELL_DATS) evolving dats.
    fn global_cell_dats(global: &Self::Global) -> Vec<&OpDat<Self::R>> {
        let mut dats = global.evolving();
        dats.truncate(Self::CELL_DATS);
        dats
    }

    /// [`global_cell_dats`](RankApp::global_cell_dats), mutably.
    fn global_cell_dats_mut(global: &mut Self::Global) -> Vec<&mut OpDat<Self::R>> {
        let mut dats = global.evolving_mut();
        dats.truncate(Self::CELL_DATS);
        dats
    }

    /// One step of the rank's fused chain — the distributed production
    /// path: the app's one recording over the rank's owned cells and all
    /// its local edges, with the ghost refreshes as non-blocking chain
    /// entries (the interior blocks run while the messages fly, only the
    /// ghost-reading boundary blocks wait). Returns the step's global
    /// reduction through the rank-ordered, bit-reproducible allreduce
    /// (identical on every rank). `total_cells` is the global cell count.
    ///
    /// `shape` selects threaded or `L`-lane vectorized block bodies
    /// (pass [`Shape::Simd`] with `lanes == L`); `policy` overlapped or
    /// blocking exchanges — both compute in the same order, so their
    /// results are bit-identical. With `guard: Some(_)` the exchange
    /// finishes route through the [`ExchangeGuard`]: a halo receive that
    /// misses the guard's deadline latches a typed timeout and the step
    /// completes on stale ghost data instead of blocking forever — the
    /// resilient driver rolls the step back at the next health vote.
    /// With `None`, a missing packet panics after the universe watchdog
    /// (the fail-fast default).
    #[allow(clippy::too_many_arguments)]
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
        let (split, local, edge_halo) = self.split();
        let halo = RankHalo {
            comm,
            plan: &local.cell_halo,
            guard,
            edge_halo,
            n_owned: local.n_owned_cells,
            policy,
        };
        let exec = ChainExec::on_pool(shape, Fusion::Groups);
        recorded_step::<Self::Global, L>(
            split,
            Some(&halo),
            total_cells,
            pool,
            cache,
            exec,
            0,
            block_size,
            rec,
        )
    }
}

/// Serialize the rank's evolving dats as exact bit patterns — the
/// rank-level coordinated-checkpoint payload.
pub fn snapshot<S: RankApp>(state: &S) -> Vec<u8> {
    let dats = state.evolving();
    // payload plus room for each dat's header
    let mut out = Vec::with_capacity(dats.iter().map(|d| d.bytes() + 64).sum());
    for dat in dats {
        dat.save(&mut out).expect("Vec<u8> writes are infallible");
    }
    out
}

/// Restore the evolving dats from [`snapshot`] bytes. All-or-nothing:
/// the state is untouched unless every dat decodes and matches this
/// rank's shape (typed error, never a panic).
pub fn restore<S: RankApp>(state: &mut S, bytes: &[u8]) -> io::Result<()> {
    let mut r = bytes;
    let mut loaded = Vec::new();
    for dat in state.evolving() {
        let got = OpDat::<S::R>::load(&mut r)?;
        if got.set_size != dat.set_size || got.dim != dat.dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot dat {} is {}x{}, rank expects {}x{}",
                    got.name, got.set_size, got.dim, dat.set_size, dat.dim
                ),
            ));
        }
        loaded.push(got.data);
    }
    for (dat, data) in state.evolving_mut().into_iter().zip(loaded) {
        dat.data = data;
    }
    Ok(())
}

/// The cell dats of `global`, checked to be in AoS storage: `caller`
/// slices rows out of them by index, which would silently scramble any
/// other layout.
fn aos_cell_dats<'g, S: RankApp>(global: &'g S::Global, caller: &str) -> Vec<&'g OpDat<S::R>> {
    let dats = S::global_cell_dats(global);
    for g in &dats {
        assert!(
            g.layout == Layout::Aos,
            "dist::{caller} slices AoS rows, but global dat {} is {}",
            g.name,
            g.layout.name()
        );
    }
    dats
}

/// Initialize a rank state from a *mid-simulation* global state (the
/// inverse of the owned-row assembly). `global` must be in AoS storage.
pub fn rank_state_from_global<S: RankApp>(
    case: &S::Case,
    local: LocalMesh,
    global: &S::Global,
) -> S {
    let globals = aos_cell_dats::<S>(global, "rank_state_from_global");
    let mut st = S::new(case, local);
    let ids = st.local().cell_global.clone();
    for (dat, g) in st.evolving_mut().into_iter().zip(globals) {
        dat.data = extract_rows(&g.data, g.dim, &ids);
    }
    st
}

fn rcb_partition(mesh: &Mesh2d, n_ranks: usize) -> Partition {
    let pts: Vec<[f64; 2]> = (0..mesh.n_cells()).map(|c| mesh.cell_centroid(c)).collect();
    rcb(&pts, n_ranks as u32)
}

/// The frame of every distributed run: distribute `mesh`, run `body` on
/// every rank of a universe with the rank's mesh piece and its own plan
/// cache and `threads_per_rank`-wide pool, then assemble the owned rows
/// of the first `n_dats` evolving dats of the states the ranks return.
/// Returns the assembled dats and the ranks' other results in rank order.
fn on_ranks<S: RankApp, T: Send>(
    mesh: &Mesh2d,
    partition: &Partition,
    threads_per_rank: usize,
    injector: Option<Arc<FaultInjector>>,
    n_dats: usize,
    body: impl Fn(&Comm, LocalMesh, &PlanCache, &ExecPool) -> (S, T) + Sync,
) -> (Vec<OpDat<S::R>>, Vec<T>) {
    let locals = distribute(mesh, partition);
    let mut universe = Universe::new(partition.n_parts as usize);
    if let Some(inj) = injector {
        universe = universe.with_fault(inj);
    }
    let (states, outs): (Vec<S>, Vec<T>) = universe
        .run(|comm| {
            let cache = PlanCache::new();
            let pool = ExecPool::new(threads_per_rank);
            body(comm, locals[comm.rank()].clone(), &cache, &pool)
        })
        .into_iter()
        .unzip();
    let total = mesh.n_cells();
    let dats = (0..n_dats)
        .map(|i| {
            let parts: Vec<_> = states
                .iter()
                .map(|st| {
                    let local = st.local();
                    (
                        st.evolving()[i].data.as_slice(),
                        local.cell_global.as_slice(),
                        local.n_owned_cells,
                    )
                })
                .collect();
            let like = states[0].evolving()[i];
            let data = assemble_owned(&parts, total, like.dim);
            OpDat::from_vec(like.name.clone(), total, like.dim, data)
        })
        .collect();
    (dats, outs)
}

/// Run the distributed fused backend end to end: `n_ranks` SPMD ranks
/// (recursive coordinate bisection of the cell centroids), each with a
/// persistent per-rank [`ExecPool`], stepping the rank-local fused chain
/// with halo/compute overlap (or blocking exchanges, for the baseline).
/// `shape` is the per-rank execution shape — pass [`Shape::Simd`]`{
/// lanes: L }` for the vectorized composition. Returns the assembled
/// primary state and the reduction history.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_fused<S: RankApp, const L: usize>(
    case: &S::Case,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
    shape: Shape,
    policy: ExchangePolicy,
) -> (OpDat<S::R>, Vec<f64>) {
    let partition = rcb_partition(S::mesh(case), n_ranks);
    run_mpi_fused_with_partition::<S, L>(
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
pub fn run_mpi_fused_with_partition<S: RankApp, const L: usize>(
    case: &S::Case,
    partition: &Partition,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
    shape: Shape,
    policy: ExchangePolicy,
) -> (OpDat<S::R>, Vec<f64>) {
    let mesh = S::mesh(case);
    let total_cells = mesh.n_cells();
    let (mut dats, mut histories) = on_ranks(
        mesh,
        partition,
        threads_per_rank,
        None,
        1,
        |comm, local, cache, pool| {
            let mut state = S::new(case, local);
            let history: Vec<f64> = (0..iters)
                .map(|_| {
                    state.step::<L>(
                        comm,
                        cache,
                        pool,
                        shape,
                        block_size,
                        total_cells,
                        policy,
                        None,
                        None,
                    )
                })
                .collect();
            (state, history)
        },
    );
    (dats.swap_remove(0), histories.swap_remove(0))
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
pub fn run_mpi_fused_resilient<S: RankApp, const L: usize>(
    case: &S::Case,
    n_ranks: usize,
    threads_per_rank: usize,
    block_size: usize,
    iters: usize,
    shape: Shape,
    policy: ExchangePolicy,
    checkpoint_every: usize,
    injector: Option<Arc<FaultInjector>>,
    io_timeout: Duration,
) -> (OpDat<S::R>, Vec<f64>, ResilientReport) {
    let mesh = S::mesh(case);
    let total_cells = mesh.n_cells();
    let (mut dats, mut outs) = on_ranks(
        mesh,
        &rcb_partition(mesh, n_ranks),
        threads_per_rank,
        injector.clone(),
        1,
        |comm, local, cache, pool| {
            let guard = ExchangeGuard::new(io_timeout);
            let mut state = S::new(case, local.clone());
            let out = resilient_loop(
                comm,
                &guard,
                injector.as_ref(),
                iters,
                checkpoint_every,
                &mut state,
                || S::new(case, local.clone()),
                snapshot,
                |st, bytes| restore(st, bytes).expect("rank checkpoint restore"),
                |st, g| {
                    st.step::<L>(
                        comm,
                        cache,
                        pool,
                        shape,
                        block_size,
                        total_cells,
                        policy,
                        None,
                        Some(g),
                    )
                },
            );
            (state, out)
        },
    );
    let mut report = ResilientReport::default();
    for (_, r) in &outs {
        report.merge(r);
    }
    (dats.swap_remove(0), outs.swap_remove(0).0, report)
}

/// One distributed fused step on a *global* simulation state — the
/// `step_on` entry point behind `Backend::MpiFused*`. Distributes the
/// state across `n_ranks` ranks (two pool threads each), runs one
/// overlapped fused-chain step per rank, and assembles every cell dat
/// back, so consecutive calls continue the simulation exactly like a
/// persistent universe (ghost values are refreshed from owners each step
/// either way). `sim` must be in AoS storage. Returns the step's global
/// reduction.
pub fn step_mpi_fused<S: RankApp, const L: usize>(
    sim: &mut S::Global,
    n_ranks: usize,
    block_size: usize,
    shape: Shape,
    rec: Option<&Recorder>,
) -> f64 {
    aos_cell_dats::<S>(sim, "step_mpi_fused");
    let (dats, reductions) = {
        let sim = &*sim;
        let case = S::global_case(sim);
        let mesh = S::mesh(case);
        let total_cells = mesh.n_cells();
        on_ranks(
            mesh,
            &rcb_partition(mesh, n_ranks),
            2,
            None,
            S::CELL_DATS,
            |comm, local, cache, pool| {
                let mut st: S = rank_state_from_global(case, local, sim);
                let reduction = st.step::<L>(
                    comm,
                    cache,
                    pool,
                    shape,
                    block_size,
                    total_cells,
                    ExchangePolicy::Overlap,
                    rec,
                    None,
                );
                (st, reduction)
            },
        )
    };
    for (global, dat) in S::global_cell_dats_mut(sim).into_iter().zip(dats) {
        global.data = dat.data;
    }
    reductions[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{airfoil, volna};

    /// One piece of a 2-rank split of `case`, as the given rank state.
    fn rank_of<S: RankApp>(case: &S::Case) -> S {
        let mesh = S::mesh(case);
        let locals = distribute(mesh, &rcb_partition(mesh, 2));
        S::new(case, locals[1].clone())
    }

    fn snapshot_round_trips<S: RankApp>(case: &S::Case, n_evolving: usize) {
        let mut a: S = rank_of(case);
        assert_eq!(a.evolving().len(), n_evolving);
        for (i, dat) in a.evolving_mut().into_iter().enumerate() {
            for (j, v) in dat.data.iter_mut().enumerate() {
                *v = S::R::from_f64((i * 1000 + j) as f64 + 0.25);
            }
        }
        let bytes = snapshot(&a);
        let mut b: S = rank_of(case);
        restore(&mut b, &bytes).unwrap();
        for (x, y) in a.evolving().into_iter().zip(b.evolving()) {
            assert_eq!(x.name, y.name);
            assert!(
                x.data
                    .iter()
                    .zip(&y.data)
                    .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits()),
                "{} did not round-trip",
                x.name
            );
        }

        // a dat of the wrong shape is a typed error and leaves the state
        // untouched
        let mut wrong: S = rank_of(case);
        let last = wrong.evolving_mut().pop().unwrap();
        *last = OpDat::zeros(last.name.clone(), last.set_size + 1, last.dim);
        let err = restore(&mut b, &snapshot(&wrong)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(snapshot(&b), bytes);
    }

    #[test]
    fn snapshot_restore_round_trips_both_apps() {
        let acase = airfoil::Airfoil::<f64>::new(10, 6).case;
        snapshot_round_trips::<airfoil::mpi::RankState<f64>>(&acase, 4);
        let vcase = volna::Volna::<f32>::new(8, 6).case;
        snapshot_round_trips::<volna::mpi::RankState<f32>>(&vcase, 5);
    }

    #[test]
    #[should_panic(expected = "dist::rank_state_from_global slices AoS rows, but global dat q")]
    fn rank_state_from_global_rejects_non_aos_state() {
        let mut sim = airfoil::Airfoil::<f64>::new(10, 6);
        sim.set_layout(Layout::Soa);
        let mesh = &sim.case.mesh;
        let locals = distribute(mesh, &rcb_partition(mesh, 2));
        let _: airfoil::mpi::RankState<f64> =
            rank_state_from_global(&sim.case, locals[0].clone(), &sim);
    }
}
