//! # ump-core — the OP2-style abstraction layer
//!
//! OP2 (paper §3) describes unstructured-mesh computation as parallel
//! loops over sets with access-annotated arguments, and compiles each
//! loop to backend-specific stub code. The Rust equivalent here:
//!
//! * [`dat::OpDat`] — typed data on a set with an arity (`op_dat`),
//! * [`arg::ArgInfo`]/[`arg::Access`] — the access descriptors of
//!   `op_arg_dat(dat, idx, map, dim, "typ", access)`,
//! * [`profile::LoopProfile`] — per-loop metadata from which the
//!   Table II/III transfer & FLOP characteristics are *derived* rather
//!   than hard-coded,
//! * [`plan::PlanCache`] — `op_plan_get`: coloring plans computed once per
//!   (loop shape, block size) and reused,
//! * [`exec`] — the sequential reference loop; colored concurrency
//!   mutates dats race-free through [`DatRef`] handles,
//! * [`pool`] — the persistent worker-pool runtime ([`pool::ExecPool`]):
//!   a fixed team of parked threads dispatched per color round,
//!   mirroring the persistent OpenMP `parallel` region the paper's
//!   threading measurements assume, plus the per-block sweeps of the
//!   SIMT (OpenCL analogue) and explicit-SIMD shapes,
//! * [`dist`] — mesh distribution for the message-passing backend:
//!   owner-compute cells, redundantly executed boundary edges (OP2's
//!   import-exec halo), ghost-cell exchange plans,
//! * [`instrument`] — the per-loop time/bytes/FLOP registry behind every
//!   reproduced table,
//! * [`backend`] — the unified backend registry ([`Backend`]): every
//!   execution shape as one enumerable, parseable surface, behind which
//!   the applications expose a single `step_on` dispatcher.
//!
//! Per-kernel loop *drivers* (what OP2's code generator emits, Figs
//! 2b/3a/3b) live in `ump-apps`, assembled from these building blocks.

#![deny(missing_docs)]

pub mod arg;
pub mod backend;
pub mod dat;
pub mod dist;
pub mod exec;
pub mod instrument;
pub mod plan;
pub mod pool;
pub mod profile;

pub use arg::{Access, ArgInfo, Indirection};
pub use backend::{Backend, DISPATCH_SIMT_WIDTH};
pub use dat::{OpDat, DAT_SNAPSHOT_MAGIC, DAT_SNAPSHOT_VERSION};
pub use dist::{assemble_owned, distribute, extract_rows, LocalMesh};
pub use exec::{seq_loop, two_rows_mut};
pub use instrument::{FusionStats, LoopStats, Recorder};
pub use plan::PlanCache;
pub use pool::{simd_block_sweep, simt_block_sweep, ExecPool, PoolPanic};
pub use profile::LoopProfile;
pub use ump_simd::{
    Addressing, Aos, Block, DatRef, DatView, Flat, Layout, ReadOnly, Row, Soa, Writable,
};
