//! The executors around an application's one recording, written once
//! for both applications.
//!
//! In OP2 the runtime around a loop does not depend on the application:
//! the code generator emits every backend from the app's `op_par_loop`
//! declarations, so only kernels and declarations are per app. Here an
//! app states what is really its own by implementing [`Simulation`] —
//! its evolving dats, its recording ([`Simulation::record_steps`]), its
//! reduction slots and how they fold into the per-step value, and its
//! `step_seq` oracle — and everything that executes the recording is
//! generic over it: [`step_chain`] (every shared-memory registry row),
//! the rank step [`Rank::step_fused_chain`](crate::dist::Rank::step_fused_chain)
//! with the rest of the distributed driver in [`crate::dist`],
//! [`run_tiled_on`] / [`run_tiled_report_on`] (cross-timestep tiling)
//! and the registry dispatcher [`step_on`]. A rank of the distributed
//! run is the same state built on its mesh piece
//! ([`Simulation::on_rank`]), so an app declares its dats once.

use ump_core::{
    Addressing, Aos, Backend, ExecPool, Layout, LocalMesh, OpDat, PlanCache, Recorder, SharedDat,
    Soa,
};
use ump_lazy::{Chain, ExchangePolicy, Fusion, Shape, TileCache, TileReport, TiledChain};
use ump_mesh::Mesh2d;
use ump_simd::{DatView, Real};

use crate::dist::RankHalo;
use crate::{chain_exec, ChainExec, DISPATCH_TILE_BLOCKS};

/// One of the paper's applications as the executors around its
/// recording see it. [`Airfoil`](crate::airfoil::Airfoil) and
/// [`Volna`](crate::volna::Volna) implement it once each.
pub trait Simulation: Send + Sync + Sized + 'static {
    /// Working precision.
    type R: Real;
    /// What a state is built from: the mesh and the app's per-element
    /// inputs.
    type Case: Sync;
    /// What a recording reads besides the mesh, the evolving dats and
    /// the reduction slots: the app's geometry and constants.
    type Inputs<'a>: Sync;
    /// Name the tiled executor reports under (`"<NAME>_tiled"`).
    const NAME: &'static str;
    /// How many leading [`evolving`](Simulation::evolving) dats live on
    /// the cell set; the rest live on the edge set.
    const CELL_DATS: usize;

    /// The state of one rank of a distributed run on `mesh`, the
    /// localized mesh of the rank's piece `local` (moved out of it): the
    /// case's per-cell and per-bedge data gathered through
    /// `local.cell_global` / `local.bedge_global`. The global
    /// constructors' cell-major edge ordering is skipped: the piece keeps
    /// [`distribute`](ump_core::dist::distribute)'s core-first edge order,
    /// which `edge_global`, `n_owned_edges` and the halo flags mirror and
    /// which keeps the global order within each class.
    fn on_rank(case: &Self::Case, mesh: Mesh2d, local: &LocalMesh) -> Self;
    /// The case this state was built from.
    fn case(&self) -> &Self::Case;
    /// The mesh of a case.
    fn case_mesh(case: &Self::Case) -> &Mesh2d;
    /// The dats a step changes, in snapshot order, primary state first.
    /// Everything else is a deterministic function of the case.
    fn evolving(&self) -> Vec<&OpDat<Self::R>>;
    /// The state as one recording borrows it.
    fn split(&mut self) -> Split<'_, Self>;
    /// Storage layout of the dats. [`set_layout`](Simulation::set_layout)
    /// keeps it uniform across them, and a step enforces that: the
    /// recording runs instantiated for this layout, and panics, naming
    /// the dat, before any loop runs if a dat is stored otherwise.
    fn layout(&self) -> Layout;
    /// Convert every dat to `to` (a pure index permutation, bit-exact).
    fn set_layout(&mut self, to: Layout);
    /// The tiled executor's schedule and buffers, reused by every
    /// [`run_tiled_on`] call on this state.
    fn tiles(&self) -> &TileCache<Self::R>;
    /// [`tiles`](Simulation::tiles), mutably.
    fn tiles_mut(&mut self) -> &mut TileCache<Self::R>;
    /// One step of the hand-written sequential reference — the oracle
    /// every executor of the recording is tested against.
    fn step_seq(&mut self, rec: Option<&Recorder>) -> f64;

    /// The one recording: `steps` steps of the app's loops with their
    /// scalar and `L`-lane bodies, over `evolving` — a global state's
    /// dats, a rank's, or a tile's shadow copies, in
    /// [`evolving`](Simulation::evolving) order, all stored in the layout
    /// `A` — storing reductions in `slots` (laid out as
    /// [`slots`](Simulation::slots) says). The scalar bodies reach every
    /// dat through a [`DatView<A>`] — the sweep's views of the evolving
    /// dats, and [`OpDat::view_as`] for the inputs, which panics on an
    /// input stored in another layout. Airfoil's `L`-lane bodies go
    /// through the runtime views made from them
    /// ([`DatView::<Layout>::load_rows`] says why). A rank's [`RankHalo`] adds the hooks of paper Fig. 2b's
    /// `op_mpi_halo_exchanges` around the unchanged loops.
    fn record_steps<'s, 'a: 's, A: Addressing, const L: usize>(
        inputs: &'s Self::Inputs<'a>,
        sweep: &'s Sweep<'a, A>,
        evolving: &'s [SharedDat<'s, Self::R>],
        slots: &'s SharedDat<'s, Self::R>,
        steps: usize,
        halo: Option<&'s RankHalo<'s>>,
    ) -> Chain<'s>;
    /// The reduction slots of a recording of `steps` steps, initialized.
    fn slots<A: Addressing>(sweep: &Sweep<'_, A>, steps: usize) -> Vec<Self::R>;
    /// The per-step values of a recording of `steps` steps, from its
    /// slots: over a global state, or a rank's piece of one with
    /// `total_cells` cells globally (identical on every rank).
    fn fold<A: Addressing>(
        sweep: &Sweep<'_, A>,
        slots: &[Self::R],
        steps: usize,
        halo: Option<&RankHalo<'_>>,
        total_cells: usize,
    ) -> Vec<f64>;

    /// The mesh (a rank's: its piece).
    fn mesh(&self) -> &Mesh2d {
        Self::case_mesh(self.case())
    }

    /// [`evolving`](Simulation::evolving), mutably and in the same order.
    fn evolving_mut(&mut self) -> Vec<&mut OpDat<Self::R>> {
        self.split().evolving
    }

    /// The primary evolving dat (Airfoil's `q`, Volna's `w`).
    fn primary(&self) -> &OpDat<Self::R> {
        self.evolving()[0]
    }
}

/// A state's dats as one recording borrows them ([`Simulation::split`]):
/// a global state's or a rank's.
pub struct Split<'a, S: Simulation> {
    /// The mesh (a rank's: its piece).
    pub mesh: &'a Mesh2d,
    /// What the recording reads besides the evolving dats.
    pub inputs: S::Inputs<'a>,
    /// The evolving dats, in [`evolving`](Simulation::evolving) order.
    pub evolving: Vec<&'a mut OpDat<S::R>>,
}

/// How one recording sweeps the mesh — the inputs every app's recording
/// shares — with the evolving dats stored in the layout `A`.
pub struct Sweep<'a, A: Addressing> {
    /// The mesh (a rank's: its piece).
    pub(crate) mesh: &'a Mesh2d,
    /// Views of the evolving dats, in order, typed for the layout the
    /// step dispatched: every access of the recorded bodies goes through
    /// them, so the one recording executes natively in AoS or SoA
    /// storage with no layout test in its scalar accessors. Built by
    /// [`OpDat::view_as`], so a dat stored otherwise panics, named,
    /// before any loop runs.
    pub(crate) views: Vec<DatView<A>>,
    /// Cells the cell loops cover: all, or a rank's owned ones.
    pub(crate) n_cells: usize,
    /// Block size of the loops whose blocks own reduction slots.
    pub(crate) block: usize,
    /// The shape the recording executes in.
    pub(crate) shape: Shape,
}

impl<'a, A: Addressing> Sweep<'a, A> {
    fn new<R: Real>(
        mesh: &'a Mesh2d,
        evolving: &[&mut OpDat<R>],
        n_cells: usize,
        block: usize,
        shape: Shape,
    ) -> Sweep<'a, A> {
        Sweep {
            mesh,
            views: evolving.iter().map(|d| d.view_as()).collect(),
            n_cells,
            block,
            shape,
        }
    }
}

/// One step recorded as an `ump_lazy` loop chain and executed on `pool`
/// in `shape`, grouped per `fusion` — the direct entry to what every
/// shared-memory registry row runs. One recorded chain carries both
/// scalar and `L`-lane vector bodies, so it serves every shape: scalar
/// bodies under [`Shape::Threaded`] and the SIMT emulation
/// [`Shape::Simt`], and under [`Shape::Simd`]`{ lanes: L }` (any other
/// lane count panics before a loop runs) gathers through the mesh maps,
/// serialized lane scatters for the colored increments and the
/// three-sweep alignment handling.
///
/// Under [`Fusion::PerLoop`] the pooled loops are dispatched one by one
/// (`threaded`, `simd_threaded{L}`, `simt`); under [`Fusion::Groups`]
/// the recording's dependency analysis fuses compatible neighbours into
/// one colored dispatch each — Airfoil's `save_soln+adt_calc` and
/// `update+adt_calc`, Volna's flux loops — computing identical physics
/// on the same plans. The tiny boundary loops run serially under both.
/// Returns the step's value (Airfoil's normalized RMS residual, Volna's
/// Δt).
#[allow(clippy::too_many_arguments)]
pub fn step_chain<R: Real, const L: usize>(
    pool: &ExecPool,
    sim: &mut impl Simulation<R = R>,
    cache: &PlanCache,
    shape: Shape,
    fusion: Fusion,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let exec = ChainExec::on_pool(shape, fusion);
    step_exec::<_, L>(exec, pool, sim, cache, n_threads, block_size, rec)
}

/// [`step_chain`] as a registry row executes it: the recording
/// instantiated for the state's layout — the one layout dispatch of a
/// step.
fn step_exec<S: Simulation, const L: usize>(
    exec: ChainExec,
    pool: &ExecPool,
    sim: &mut S,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let layout = sim.layout();
    let split = sim.split();
    let total_cells = split.mesh.n_cells();
    match layout {
        Layout::Aos => recorded_step::<S, Aos, L>(
            split,
            None,
            total_cells,
            pool,
            cache,
            exec,
            n_threads,
            block_size,
            rec,
        ),
        Layout::Soa => recorded_step::<S, Soa, L>(
            split,
            None,
            total_cells,
            pool,
            cache,
            exec,
            n_threads,
            block_size,
            rec,
        ),
    }
}

/// One step of the one recording instantiated for the layout `A`,
/// executed as `exec` says, over a global state (`halo: None`) or a
/// rank's piece of one (always AoS). Returns the step's value, agreed
/// across ranks. Panics, naming the dat, before any loop runs if a dat
/// of `split` is not stored in `A`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recorded_step<S: Simulation, A: Addressing, const L: usize>(
    split: Split<'_, S>,
    halo: Option<&RankHalo<'_>>,
    total_cells: usize,
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
    let Split {
        mesh,
        inputs,
        evolving,
    } = split;
    let sweep = Sweep::<A>::new(
        mesh,
        &evolving,
        halo.map_or(mesh.n_cells(), |h| h.n_owned),
        exec.chain_block(block_size),
        exec.shape,
    );
    // one slot per (reduction, block), merged in block order after the
    // chain runs — a reduction that does not depend on the team size or
    // the grouping
    let mut slots = S::slots(&sweep, 1);
    {
        let evolving: Vec<_> = evolving
            .into_iter()
            .map(|d| SharedDat::new(&mut d.data))
            .collect();
        let shared = SharedDat::new(&mut slots);
        let chain = S::record_steps::<A, L>(&inputs, &sweep, &evolving, &shared, 1, halo);
        let policy = halo.map_or(ExchangePolicy::Overlap, |h| h.policy);
        exec.execute(
            &chain,
            pool,
            cache,
            n_threads,
            block_size,
            S::R::BYTES,
            rec,
            policy,
        );
    }
    S::fold(&sweep, &slots, 1, halo, total_cells)[0]
}

/// Record `steps` steps with the one recording (the one [`step_chain`]
/// executes) and execute them tile by tile ([`ump_lazy::TiledChain`]):
/// every tile of `tile_cells` cells runs the loops' own bodies — scalar
/// for `L = 1`, the `L`-lane three-sweep otherwise — for all `steps`,
/// with the dependency-cone fringe computed redundantly, before the
/// next tile starts, so its working set stays cache-resident across
/// timesteps. Where a recording consumes a global reduction in-chain
/// (Volna's Δt), the scheduler cuts it into epochs at those barriers.
/// Returns the per-step values.
///
/// Determinism: each tile runs its cone in ascending element order, so
/// with `L = 1` cell state is bit-identical to the app's `step_seq` for
/// any `tile_cells`, `steps` or team size; reductions land in per-`(step,
/// block)` slots (ownership is block-aligned, so each slot belongs to
/// one tile) folded in slot order — the same block-ordered fold as the
/// fused drivers. Tiled execution is defined on AoS rows: a state in
/// another layout is converted to AoS and back around the call (a pure
/// index permutation, bit-exact).
///
/// The cone schedule is inspected once and kept, with the executor's
/// buffers, in [`Simulation::tiles`]: a repeated `(steps, tile_cells,
/// block_size)` only executes. `steps == 0` returns an empty history
/// and leaves the state and the cache untouched.
pub fn run_tiled_on<R: Real, const L: usize>(
    sim: &mut impl Simulation<R = R>,
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
    sim: &mut impl Simulation<R = R>,
    pool: &ExecPool,
    n_threads: usize,
    steps: usize,
    tile_cells: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> (Vec<f64>, TileReport) {
    in_aos(sim, |sim| {
        // the cache is lent to the executor while the split borrows the
        // rest of the state
        let mut tiles = std::mem::take(sim.tiles_mut());
        let out = tiled_steps::<_, L>(
            sim.split(),
            &mut tiles,
            pool,
            n_threads,
            steps,
            tile_cells,
            block_size,
            rec,
        );
        *sim.tiles_mut() = tiles;
        out
    })
}

/// [`run_tiled_report_on`] over an AoS state's split.
#[allow(clippy::too_many_arguments)]
fn tiled_steps<S: Simulation, const L: usize>(
    split: Split<'_, S>,
    tiles: &mut TileCache<S::R>,
    pool: &ExecPool,
    n_threads: usize,
    steps: usize,
    tile_cells: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> (Vec<f64>, TileReport) {
    let Split {
        mesh,
        inputs,
        evolving,
    } = split;
    let shape = tile_shape::<L>();
    let sweep = Sweep::<Aos>::new(mesh, &evolving, mesh.n_cells(), block_size, shape);
    let mut slots = S::slots(&sweep, steps);
    let report;
    {
        let shared = SharedDat::new(&mut slots);
        let mut tiled = TiledChain::new(format!("{}_tiled", S::NAME));
        tiled.register_set("cells", mesh.n_cells());
        tiled.register_set("edges", mesh.n_edges());
        tiled.register_set("bedges", mesh.n_bedges());
        tiled.register_map(&mesh.edge2cell);
        tiled.register_map(&mesh.bedge2cell);
        for (i, d) in evolving.into_iter().enumerate() {
            let set = if i < S::CELL_DATS { "cells" } else { "edges" };
            tiled.register_dat(&d.name, set, d.dim, &mut d.data);
        }
        report = tiled.execute(
            |dats| S::record_steps::<Aos, L>(&inputs, &sweep, dats, &shared, steps, None),
            pool,
            tiles,
            steps,
            tile_cells,
            block_size,
            n_threads,
            shape,
            S::R::BYTES,
            rec,
        );
    }
    let hist = S::fold(&sweep, &slots, steps, None, mesh.n_cells());
    (hist, report)
}

/// The shape tiles run an `L`-lane recording in: its scalar bodies for
/// `L = 1`, the three-sweep vector bodies otherwise.
fn tile_shape<const L: usize>() -> Shape {
    if L == 1 {
        Shape::Threaded
    } else {
        Shape::Simd { lanes: L }
    }
}

/// `f(sim)` on AoS rows: a state in another layout is converted to AoS
/// and back around the call (a pure index permutation, bit-exact at any
/// precision).
fn in_aos<S: Simulation, T>(sim: &mut S, f: impl FnOnce(&mut S) -> T) -> T {
    let layout = sim.layout();
    if layout == Layout::Aos {
        return f(sim);
    }
    sim.set_layout(Layout::Aos);
    let out = f(sim);
    sim.set_layout(layout);
    out
}

/// One step through any registered [`Backend`], on an explicit pool —
/// the single dispatcher behind the conformance matrix, the `repro`
/// backend sweep, the service and the tuner. Backends with `needs_pool()
/// == false` ignore `pool` and `n_threads`; lane-carrying backends are
/// dispatched to the const instantiations the registry lists (L = 4 and
/// 8) and panic, naming the backend, for any other width.
///
/// The recorded chain executes natively in any layout; the rows that
/// are AoS by definition — the oracle and the tiled executor — run on
/// AoS rows converted around the step. Distributed steps are not a
/// row: they run through [`crate::dist::run_mpi_fused`], whose ranks
/// persist across steps.
pub fn step_on<S: Simulation>(
    backend: Backend,
    sim: &mut S,
    pool: &ExecPool,
    cache: &PlanCache,
    n_threads: usize,
    block_size: usize,
    rec: Option<&Recorder>,
) -> f64 {
    let Some(exec) = chain_exec(backend) else {
        let tile_cells = DISPATCH_TILE_BLOCKS * block_size;
        return match backend {
            Backend::Seq => in_aos(sim, |sim| sim.step_seq(rec)),
            // the tiled executor over a 1-step recording; multi-step
            // harnesses call `run_tiled_on` directly
            Backend::Tiled => {
                run_tiled_on::<S::R, 1>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            Backend::TiledSimd { lanes: 4 } => {
                run_tiled_on::<S::R, 4>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            Backend::TiledSimd { lanes: 8 } => {
                run_tiled_on::<S::R, 8>(sim, pool, n_threads, 1, tile_cells, block_size, rec)[0]
            }
            other => no_lane_instantiation(other),
        };
    };
    // scalar shapes ride on the L = 4 instantiation
    match backend.lanes() {
        1 | 4 => step_exec::<S, 4>(exec, pool, sim, cache, n_threads, block_size, rec),
        8 => step_exec::<S, 8>(exec, pool, sim, cache, n_threads, block_size, rec),
        _ => no_lane_instantiation(backend),
    }
}

/// [`step_on`]'s answer to a lane width the registry lists but the
/// executors have no const instantiation for.
fn no_lane_instantiation(backend: Backend) -> ! {
    panic!(
        "backend {} has no compiled lane instantiation — add it to step_on",
        backend.name()
    )
}
