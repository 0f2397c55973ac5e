//! # ump-tune — self-tuning backend selection
//!
//! The paper's core finding (§6.6) is that the winning execution shape
//! flips with kernel, mesh, and machine: direct kernels are
//! bandwidth-bound everywhere, `res_calc`-class indirect kernels trade
//! gather efficiency against scatter serialization, and latency-bound
//! boundary loops punish per-loop launch overhead. With 11 registered
//! [`Backend`](ump_core::Backend)s, hand-picking one per app per host
//! is exactly the burden the OP2-lineage runtimes exist to remove.
//!
//! This crate goes from *measurement* to *persisted decision*:
//!
//! 1. **Candidate space** ([`candidates`]): the `(backend, block_size)`
//!    cross product is enumerated from registry capability flags.
//! 2. **Measured trials** ([`tuner`]): every candidate runs one planning
//!    warm-up step and a few timed steps through the registry's
//!    `step_on` dispatcher on the actual mesh, scored by wall
//!    seconds/step, and the measured minimum wins. Per-kernel
//!    [`LoopStats`](ump_core::LoopStats) give the winner's bandwidth
//!    (the fused paths attribute group time back to member loops).
//! 3. **Persistent store** ([`store`]): decisions land in a versioned
//!    little-endian `UMPT` file keyed by `(app, mesh dims, backend-set
//!    hash, core count)`, so a warm start skips both planning and
//!    search. Corrupt or version-mismatched stores degrade to a fresh
//!    search — a typed [`Err`](std::io::Error), never a panic.
//!
//! No model prunes the candidates before timing. On a 2-CPU host the
//! archsim host model ranked the measured winner 10th or lower of 25 on
//! four of five meshes, so a search times them all: about a second on
//! Airfoil 600×300 there, once per key.
//!
//! `auto` is deliberately an *entry point*, not a 12th registry
//! variant: [`Tuner::pick`] always returns a concrete registered
//! [`Backend`](ump_core::Backend), so checkpoints, job specs, and
//! conformance tests keep their closed-world guarantees. [`HostProbe`] is not the tuner's: it
//! reports a host's cores and triad bandwidth to harnesses.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod probe;
pub mod store;
pub mod tuner;

pub use candidates::{enumerate, Candidate};
pub use probe::HostProbe;
pub use store::{
    registry_hash, TuneEntry, TuneKey, TuneStore, TUNE_STORE_MAGIC, TUNE_STORE_VERSION,
};
pub use tuner::{step_auto_on, Choice, Tuner, TunerStats};

/// The two applications the tuner knows how to drive — also the
/// service's `ump_serve::App` (serve depends on tune, not the other way
/// around).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// The 2D Euler airfoil benchmark (5 kernels).
    Airfoil,
    /// The Volna shallow-water solver (7 kernels).
    Volna,
}

impl App {
    /// Stable lowercase name (store encoding uses the tag, not this).
    pub fn name(self) -> &'static str {
        match self {
            App::Airfoil => "airfoil",
            App::Volna => "volna",
        }
    }

    /// Parse from [`name`](App::name).
    pub fn parse(s: &str) -> Option<App> {
        match s {
            "airfoil" => Some(App::Airfoil),
            "volna" => Some(App::Volna),
            _ => None,
        }
    }

    /// One-byte tag, stable across versions: the tuning store's and the
    /// service's job-snapshot encoding of the app.
    pub fn tag(self) -> u8 {
        match self {
            App::Airfoil => 0,
            App::Volna => 1,
        }
    }

    /// Inverse of [`tag`](App::tag).
    pub fn from_tag(t: u8) -> Option<App> {
        match t {
            0 => Some(App::Airfoil),
            1 => Some(App::Volna),
            _ => None,
        }
    }

    /// The per-timestep kernel table `(kernel, set, calls_per_step)` —
    /// the same bookkeeping the `repro` harness uses for Tables V–VIII.
    pub fn kernels(self) -> &'static [(&'static str, &'static str, f64)] {
        match self {
            App::Airfoil => &[
                ("save_soln", "cells", 1.0),
                ("adt_calc", "cells", 2.0),
                ("res_calc", "edges", 2.0),
                ("bres_calc", "bedges", 2.0),
                ("update", "cells", 2.0),
            ],
            App::Volna => &[
                ("sim_1", "cells", 1.0),
                ("compute_flux", "edges", 2.0),
                ("numerical_flux", "edges", 1.0),
                ("space_disc", "edges", 2.0),
                ("bc_flux", "bedges", 2.0),
                ("RK_1", "cells", 1.0),
                ("RK_2", "cells", 1.0),
            ],
        }
    }

    /// Look up this app's [`LoopProfile`](ump_core::LoopProfile) by
    /// kernel name.
    pub fn profile(self, kernel: &str) -> ump_core::LoopProfile {
        match self {
            App::Airfoil => ump_apps::airfoil::profile(kernel),
            App::Volna => ump_apps::volna::profile(kernel),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_round_trip() {
        for app in [App::Airfoil, App::Volna] {
            assert_eq!(App::parse(app.name()), Some(app));
            assert_eq!(App::from_tag(app.tag()), Some(app));
        }
        assert_eq!(App::parse("cfd"), None);
        assert_eq!(App::from_tag(9), None);
    }

    #[test]
    fn kernel_tables_name_real_profiles() {
        for app in [App::Airfoil, App::Volna] {
            for (kernel, set, calls) in app.kernels() {
                let p = app.profile(kernel);
                assert_eq!(p.set, *set, "{app}/{kernel} set mismatch");
                assert!(*calls >= 1.0);
            }
        }
    }
}
