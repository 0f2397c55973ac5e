//! # ump-apps — the paper's two benchmark applications
//!
//! * [`airfoil`] — the Airfoil benchmark (paper §6.1, Table II): a
//!   non-linear 2-D inviscid finite-volume Euler solver with the five OP2
//!   kernels `save_soln`, `adt_calc`, `res_calc`, `bres_calc`, `update`.
//!   Generic over precision (`f32`/`f64`), as the paper runs both.
//! * [`volna`] — the Volna shallow-water tsunami code (paper §6.1,
//!   Table III): single precision, six kernels `sim_1`, `compute_flux`,
//!   `numerical_flux`, `space_disc`, `RK_1`, `RK_2`.
//!
//! Each application provides *kernels* (the "user code" of the OP2
//! abstraction — each written once over an [`ump_simd::Lane`] type and
//! instantiated at `R` for the scalar loops and at `VecR<R, L>` for the
//! vector ones, as paper Fig. 3b instantiates `res_calc` with the vector
//! class, §4.2) and what is its own of the *drivers* OP2's code
//! generator would emit (Figs 2b/3a/3b): a hand-written sequential
//! reference and one recording of N timesteps as an `ump_lazy` chain
//! (scalar body, `L`-lane chunk body and reduction per loop). Both state
//! it by implementing one trait, [`Simulation`]; everything that executes
//! the recording is written once, generic over it. Every row of the
//! registry other than `seq` executes that one recording: threaded
//! colored blocks, explicit SIMD with gather/scatter and the three-sweep
//! structure, the SIMT emulation — loop by loop or fused — are the
//! [`Shape`] and [`Fusion`] it is executed under ([`step_chain`]), and
//! [`step_on`] dispatches a registry row to them. Cross-timestep tiling
//! is not a row: [`run_tiled_on`] records N steps and runs their bodies
//! tile by tile (through [`ump_lazy::TiledChain`]), keeping its tiles
//! across the steps of one call. The message-passing backend declares
//! nothing of its own either: a rank is the app's own [`Simulation`]
//! state built on its mesh piece ([`Simulation::on_rank`], held by a
//! [`dist::Rank`]), it executes the one recording with its halo hooks on
//! ([`dist::Rank::step_fused_chain`]), and [`dist`] drives any
//! [`Simulation`] end to end (halo exchanges, redundant exec-halo
//! execution, checkpoints, assembly).

#![deny(missing_docs)]

pub mod airfoil;
pub mod dist;
#[cfg(test)]
mod lane_check;
pub mod resilience;
mod simulation;
pub mod volna;

pub use resilience::{resilient_loop, ResilientReport};
pub use simulation::{
    run_tiled_on, run_tiled_report_on, step_chain, step_on, Simulation, Split, Sweep,
};

use ump_core::{Backend, ExecPool, PlanCache, Recorder, DISPATCH_SIMT_WIDTH};
use ump_lazy::{Chain, ExchangePolicy, Fusion, Shape};

/// `f()`, timed as one invocation of kernel `name` when a recorder is
/// attached. Kernel names are unique across the two applications, so
/// one lookup serves both.
pub(crate) fn maybe_time<T>(
    rec: Option<&Recorder>,
    name: &str,
    word_bytes: usize,
    n_elems: usize,
    f: impl FnOnce() -> T,
) -> T {
    let Some(rec) = rec else { return f() };
    let profile = airfoil::find_profile(name)
        .or_else(|| volna::find_profile(name))
        .unwrap_or_else(|| panic!("unknown kernel {name}"));
    rec.time(&profile, word_bytes, n_elems, f)
}

/// An AoS row slice as the `[R; D]` array a kernel takes (the
/// hand-written `step_seq` loops index their dats by row slice).
#[inline(always)]
pub(crate) fn arr<R, const D: usize>(row: &[R]) -> &[R; D] {
    row.try_into().expect("rows have the kernel's width")
}

/// [`arr`] for a row the kernel writes.
#[inline(always)]
pub(crate) fn arr_mut<R, const D: usize>(row: &mut [R]) -> &mut [R; D] {
    row.try_into().expect("rows have the kernel's width")
}

/// How an application's recorded chain is executed — what a registry
/// row *is*, for every row that executes the recording.
#[derive(Clone, Copy)]
pub(crate) struct ChainExec {
    /// Block bodies: scalar, SIMT lock-step, or `L`-lane three-sweep.
    pub shape: Shape,
    /// One dispatch per fusable group, or per loop.
    pub fusion: Fusion,
    /// The paper's pure-MPI shape: no coloring, no team. The chain runs
    /// on a workerless one-member pool with one block spanning each set,
    /// so every loop sweeps its set in sequential order.
    pub calling_thread: bool,
}

/// The execution of `backend`'s row; `None` for the row that executes
/// no chain recording (`seq`).
pub(crate) fn chain_exec(backend: Backend) -> Option<ChainExec> {
    let shape = match backend {
        Backend::Seq => return None,
        Backend::Threaded | Backend::Fused => Shape::Threaded,
        Backend::Simt | Backend::FusedSimt => Shape::Simt {
            width: DISPATCH_SIMT_WIDTH,
            sched_overhead_ns: 0,
        },
        Backend::Simd { .. } | Backend::SimdThreaded { .. } | Backend::FusedSimd { .. } => {
            Shape::Simd {
                lanes: backend.lanes(),
            }
        }
    };
    let fusion = if backend.is_fused() {
        Fusion::Groups
    } else {
        Fusion::PerLoop
    };
    Some(ChainExec {
        shape,
        fusion,
        calling_thread: matches!(backend, Backend::Simd { .. }),
    })
}

impl ChainExec {
    /// The chain as recorded (colored increment loop), on the caller's
    /// pool at the caller's block size.
    pub(crate) fn on_pool(shape: Shape, fusion: Fusion) -> ChainExec {
        ChainExec {
            shape,
            fusion,
            calling_thread: false,
        }
    }

    /// Block size the chain's plans (and per-block reduction partials)
    /// are built at, given the caller's.
    pub(crate) fn chain_block(&self, block_size: usize) -> usize {
        if self.calling_thread {
            usize::MAX
        } else {
            block_size
        }
    }

    /// Execute `chain` as this row does, on the caller's pool or — for
    /// the calling-thread rows — on a one-member pool of its own.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        chain: &Chain<'_>,
        pool: &ExecPool,
        cache: &PlanCache,
        n_threads: usize,
        block_size: usize,
        word_bytes: usize,
        rec: Option<&Recorder>,
        policy: ExchangePolicy,
    ) {
        let own_pool;
        let (pool, n_threads) = if self.calling_thread {
            own_pool = ExecPool::new(1);
            (&own_pool, 1)
        } else {
            (pool, n_threads)
        };
        chain.execute_policy(
            pool,
            cache,
            self.shape,
            n_threads,
            self.chain_block(block_size),
            word_bytes,
            rec,
            policy,
            self.fusion,
        );
    }
}
