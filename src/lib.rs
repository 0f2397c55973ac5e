//! # ump — vectorizing unstructured-mesh computations
//!
//! Facade crate for the `ump` workspace, a from-scratch Rust reproduction
//! of *"Vectorizing Unstructured Mesh Computations for Many-core
//! Architectures"* (Reguly, László, Mudalige, Giles): an OP2-style
//! domain-specific layer for unstructured-mesh parallel loops with
//! scalar, threaded (colored blocks), explicitly-SIMD, SIMT-emulated,
//! message-passing and fused lazy-execution ([`lazy`]) backends, plus
//! the two benchmark applications
//! (Airfoil CFD and the Volna tsunami code), an analytic model of the
//! paper's four machines, and a job-queue service layer ([`serve`])
//! multiplexing simulations over shared pools with deterministic
//! checkpoint/restart.
//!
//! ```
//! use ump::apps::airfoil::{drivers, Airfoil};
//! use ump::core::{ExecPool, PlanCache};
//! use ump::Backend;
//!
//! // a small Airfoil instance, one scalar and one SIMD iteration
//! let mut sim = Airfoil::<f64>::new(24, 12);
//! let rms_scalar = drivers::step_seq(&mut sim, None);
//! let (pool, cache) = (ExecPool::new(1), PlanCache::new());
//! let simd = Backend::Simd { lanes: 4 };
//! let rms_simd = drivers::step_on(simd, &mut sim, &pool, &cache, 0, 1024, None);
//! assert!(rms_scalar.is_finite() && rms_simd.is_finite());
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and paper-substitution notes, and `EXPERIMENTS.md`
//! for the reproduced tables and figures.

#![deny(missing_docs)]

pub use ump_apps as apps;
pub use ump_archsim as archsim;
pub use ump_color as color;
pub use ump_core as core;
pub use ump_core::Backend;
pub use ump_fault as fault;
pub use ump_lazy as lazy;
pub use ump_mesh as mesh;
pub use ump_minimpi as minimpi;
pub use ump_part as part;
pub use ump_serve as serve;
pub use ump_simd as simd;
pub use ump_tune as tune;
