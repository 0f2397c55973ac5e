//! The unified backend registry: every execution shape of the runtime as
//! one enumerable surface.
//!
//! The paper evaluates vectorization and execution-shape choices as
//! separate axes (threads, SIMT emulation, explicit SIMD); this
//! reproduction adds cross-loop fusion on top. Its fourth axis, the
//! coloring scheme of Fig. 8a, is not a row: the permute schemes change
//! only the order in which a loop visits its edges, so `repro fig8a`
//! reorders the mesh's edges and times the `simd4` row. Distribution is
//! not a row either: a row is one step of a whole state, and ranks that
//! are partitioned, spawned and gathered back every step win nowhere.
//! `ump_apps::dist::run_mpi_fused` keeps its ranks for the whole run, as
//! `ump_apps::run_tiled_on` keeps its tiles.
//!
//! [`Backend`] names each shape as data. [`Backend::all`] enumerates the
//! registry, [`Backend::parse`]/[`Backend::name`] round-trip CLI
//! spellings, and the capability accessors ([`needs_pool`], [`lanes`],
//! [`is_fused`]) tell harnesses what a backend requires
//! without hard-coding its identity. One generic dispatcher,
//! `ump_apps::step_on(backend, …)`, serves both applications, so a
//! backend added here is automatically reachable from the conformance
//! matrix (`tests/backend_conformance.rs`), the `repro --smoke
//! --backends …` sweep, and any future harness that iterates
//! [`Backend::all`].
//!
//! Lane counts are *data* here but *const generics* in the drivers, so
//! the registry only lists widths the applications actually instantiate:
//! 4 (the AVX double-precision shape) and 8 (IMCI/AVX-512). A request
//! for a width outside the registry panics in the dispatcher with the
//! backend's name — add the instantiation to `ump_apps::step_on`
//! alongside the registry entry.
//!
//! [`needs_pool`]: Backend::needs_pool
//! [`lanes`]: Backend::lanes
//! [`is_fused`]: Backend::is_fused

/// SIMT lock-step width of the registry's SIMT rows (`simt`,
/// `fused_simt`); the paper's OpenCL work-group sub-width.
pub const DISPATCH_SIMT_WIDTH: usize = 8;

/// One execution shape of the runtime — the unified registry the
/// `step_on` dispatcher and the conformance harness enumerate. See the module docs for how to add a backend.
///
/// ```
/// use ump_core::Backend;
///
/// // every registered shape round-trips its CLI spelling
/// for b in Backend::all() {
///     assert_eq!(Backend::parse(&b.name()), Some(b));
/// }
/// // capability flags describe a backend without hard-coding identity
/// let b = Backend::parse("fused_simd4").unwrap();
/// assert!(b.is_fused() && b.needs_pool());
/// assert_eq!(b.lanes(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Scalar sequential reference (the paper's per-rank loop, Fig. 2b).
    Seq,
    /// Colored-block threading on the persistent pool (OpenMP analogue).
    Threaded,
    /// Explicit SIMD at `lanes` lanes, single thread (Fig. 3b).
    Simd {
        /// Vector width (4 = AVX DP, 8 = IMCI/AVX-512 DP).
        lanes: usize,
    },
    /// Threads × explicit SIMD (the vectorized MPI+OpenMP shape).
    SimdThreaded {
        /// Vector width inside each colored block.
        lanes: usize,
    },
    /// SIMT (OpenCL-on-CPU) emulation: lock-step work-items, colored
    /// increments (Fig. 3a).
    Simt,
    /// Fused loop chains (`ump_lazy`), threaded shape.
    Fused,
    /// Fused loop chains executed in the SIMT shape.
    FusedSimt,
    /// Fused loop chains with vectorized lane bodies — cross-loop fusion
    /// *and* the paper's explicit SIMD composed on one dispatch path.
    FusedSimd {
        /// Vector width of the fused lane bodies.
        lanes: usize,
    },
    /// Cross-timestep sparse tiling (`ump_lazy::TiledChain`): N
    /// timesteps of the app's one recording swept tile-by-tile through
    /// per-tile dependency cones with redundant fringe compute —
    /// bandwidth elimination on top of fusion's barrier reduction. Tiles
    /// run every loop's scalar body.
    Tiled,
    /// Cross-timestep tiling running every loop's `lanes`-wide chunk
    /// body (gathers, serialized lane scatters, the three-sweep
    /// alignment) on the cone runs inside each tile.
    TiledSimd {
        /// Vector width of the recorded chunk bodies.
        lanes: usize,
    },
}

impl Backend {
    /// Every registered execution shape, in a stable order. A backend
    /// added here is automatically covered by the conformance matrix and
    /// the `repro` smoke sweep.
    pub fn all() -> Vec<Backend> {
        vec![
            Backend::Seq,
            Backend::Threaded,
            Backend::Simd { lanes: 4 },
            Backend::Simd { lanes: 8 },
            Backend::SimdThreaded { lanes: 4 },
            Backend::SimdThreaded { lanes: 8 },
            Backend::Simt,
            Backend::Fused,
            Backend::FusedSimt,
            Backend::FusedSimd { lanes: 4 },
            Backend::FusedSimd { lanes: 8 },
            Backend::Tiled,
            Backend::TiledSimd { lanes: 4 },
            Backend::TiledSimd { lanes: 8 },
        ]
    }

    /// Canonical CLI spelling; [`parse`](Backend::parse) round-trips it.
    pub fn name(self) -> String {
        match self {
            Backend::Seq => "seq".into(),
            Backend::Threaded => "threaded".into(),
            Backend::Simd { lanes } => format!("simd{lanes}"),
            Backend::SimdThreaded { lanes } => format!("simd_threaded{lanes}"),
            Backend::Simt => "simt".into(),
            Backend::Fused => "fused".into(),
            Backend::FusedSimt => "fused_simt".into(),
            Backend::FusedSimd { lanes } => format!("fused_simd{lanes}"),
            Backend::Tiled => "tiled".into(),
            Backend::TiledSimd { lanes } => format!("tiled_simd{lanes}"),
        }
    }

    /// Parse a canonical backend name (the inverse of
    /// [`name`](Backend::name), over the registered set).
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::all().into_iter().find(|b| b.name() == s)
    }

    /// `true` when execution dispatches rounds on an [`ExecPool`]
    /// (worker-pool backends); the conformance harness asserts these
    /// backends actually move the pool's round counter.
    ///
    /// [`ExecPool`]: crate::pool::ExecPool
    pub fn needs_pool(self) -> bool {
        match self {
            Backend::Seq | Backend::Simd { .. } => false,
            Backend::Threaded
            | Backend::SimdThreaded { .. }
            | Backend::Simt
            | Backend::Fused
            | Backend::FusedSimt
            | Backend::FusedSimd { .. }
            | Backend::Tiled
            | Backend::TiledSimd { .. } => true,
        }
    }

    /// Vector width of the backend's lane bodies (1 for scalar shapes;
    /// the SIMT emulation's lock-step width is a work-group parameter,
    /// not a register shape, so it reports 1 too).
    pub fn lanes(self) -> usize {
        match self {
            Backend::Simd { lanes }
            | Backend::SimdThreaded { lanes }
            | Backend::FusedSimd { lanes }
            | Backend::TiledSimd { lanes } => lanes,
            _ => 1,
        }
    }

    /// `true` for the deferred-execution (`ump_lazy` chain) backends.
    pub fn is_fused(self) -> bool {
        matches!(
            self,
            Backend::Fused
                | Backend::FusedSimt
                | Backend::FusedSimd { .. }
                | Backend::Tiled
                | Backend::TiledSimd { .. }
        )
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_covers_every_shape_once() {
        let all = Backend::all();
        assert_eq!(all.len(), 14, "registry size changed");
        let names: HashSet<String> = all.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), all.len(), "duplicate backend names");
        // the acceptance shapes are all present
        for required in [
            "seq",
            "threaded",
            "simd4",
            "simd8",
            "simd_threaded4",
            "simd_threaded8",
            "simt",
            "fused",
            "fused_simt",
            "fused_simd4",
            "fused_simd8",
            "tiled",
            "tiled_simd4",
            "tiled_simd8",
        ] {
            assert!(names.contains(required), "missing {required}");
        }
    }

    #[test]
    fn names_parse_back_to_themselves() {
        for b in Backend::all() {
            assert_eq!(Backend::parse(&b.name()), Some(b), "{b}");
        }
        assert_eq!(Backend::parse("bogus"), None);
    }

    #[test]
    fn capability_flags_are_consistent() {
        assert!(!Backend::Seq.needs_pool());
        assert!(!Backend::Simd { lanes: 4 }.needs_pool());
        assert!(Backend::Threaded.needs_pool());
        assert!(Backend::FusedSimd { lanes: 8 }.needs_pool());
        assert_eq!(Backend::FusedSimd { lanes: 8 }.lanes(), 8);
        assert_eq!(Backend::Threaded.lanes(), 1);
        assert!(Backend::FusedSimd { lanes: 4 }.is_fused());
        assert!(!Backend::Simt.is_fused());
        assert!(Backend::Tiled.needs_pool(), "tile sweeps dispatch rounds");
        assert!(Backend::Tiled.is_fused());
        assert_eq!(Backend::Tiled.lanes(), 1);
        assert_eq!(Backend::TiledSimd { lanes: 4 }.lanes(), 4);
        assert!(Backend::TiledSimd { lanes: 8 }.needs_pool());
    }
}
