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
//! abstraction — a scalar form generic over `R: Real` and a vector form
//! generic over `VecR<R, LANES>`, mirroring `res_calc` / `res_calc_vec`
//! in paper Fig. 3b) and *drivers* — what OP2's code generator would
//! emit (Figs 2b/3a/3b): a hand-written sequential reference, one
//! per-loop declaration of the timestep that
//! [`ump_core::LoopShape`] executes as threaded colored blocks,
//! explicit SIMD with gather/scatter and the three-sweep structure, or
//! the SIMT emulation, and the fused and tiled `ump_lazy` recordings.
//! The message-passing backend does not restate the timestep: a rank
//! executes the fused recording with its halo hooks on, and [`dist`]
//! drives any [`dist::RankApp`] end to end (halo exchanges, redundant
//! exec-halo execution, checkpoints, assembly).

#![deny(missing_docs)]

pub mod airfoil;
pub mod dist;
pub mod resilience;
pub mod volna;

pub use resilience::{resilient_loop, ResilientReport};

use ump_core::{Backend, Layout, Recorder};
use ump_lazy::{LoopDesc, VecHint};

/// Default anchor-blocks-per-tile of the registry dispatchers' tiled
/// arms: `tile_cells = DISPATCH_TILE_BLOCKS × block_size`.
pub const DISPATCH_TILE_BLOCKS: usize = 4;

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

/// Per-kernel lane selection of the fused recordings, measured on the
/// bench host (docs/ARCHITECTURE.md §8): once storage is lane-friendly
/// (SoA/AoSoA) every kernel *without* a serialized indirect scatter runs
/// faster vectorized, while the scatter kernels (`res_calc`,
/// `bres_calc`; `space_disc`, `bc_flux`) stay scalar — their chunks end
/// in per-lane serial increments that never amortize the gathers. Under
/// AoS the vector bodies pay strided loads everywhere, so the
/// profile-driven Auto decision stands.
pub(crate) fn lane_hint(desc: LoopDesc, layout: Layout) -> LoopDesc {
    if layout == Layout::Aos {
        return desc;
    }
    let hint = if desc.has_indirect_write() {
        VecHint::Scalar
    } else {
        VecHint::Vector
    };
    desc.with_hint(hint)
}

/// The `step_on` dispatchers' answer to a lane width the registry lists
/// but the drivers have no const instantiation for.
pub(crate) fn no_lane_instantiation(backend: Backend) -> ! {
    panic!(
        "backend {} has no compiled lane instantiation — add it to step_on",
        backend.name()
    )
}
