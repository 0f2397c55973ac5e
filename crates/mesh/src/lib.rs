//! # ump-mesh — unstructured mesh substrate
//!
//! The OP2 abstraction (paper §3) describes a mesh as *sets* (nodes, edges,
//! cells, boundary edges), *mappings* between sets, and *data* on sets.
//! This crate provides the concrete substrate behind that abstraction:
//!
//! * [`MapTable`] — a fixed-arity mapping between two sets (OP2's `op_map`),
//!   with validation and CSR inversion,
//! * [`Csr`] — compressed sparse row adjacency used by the coloring and
//!   partitioning crates,
//! * [`Mesh2d`] — a two-dimensional finite-volume mesh: node coordinates,
//!   cell→node connectivity, and *derived* edge sets (interior edges with
//!   `edge→node`/`edge→cell` maps, boundary edges with `bedge→node`/
//!   `bedge→cell`), exactly the sets and maps the Airfoil and Volna
//!   applications declare,
//! * generators for the two benchmark families:
//!   [`generators::quad_channel`] (Airfoil's structured-quad-stored-as-
//!   unstructured mesh; the paper's 720k/2.8M-cell grids are
//!   1200×600 / 2400×1200 instances) and [`generators::tri_coastal`]
//!   (Volna's triangle mesh with synthetic coastal bathymetry replacing
//!   the proprietary NE-Pacific survey data — see DESIGN.md substitutions),
//! * [`renumber`] — reverse Cuthill–McKee reordering (OP2 renumbers for
//!   locality before forming mini-partitions) and the canonical
//!   cell-major edge order the applications run in,
//! * [`stats`] — set sizes and memory footprints (Table IV),
//! * [`io`] — a small self-describing binary format on top of `bytes`.

#![deny(missing_docs)]

pub mod csr;
pub mod dual;
pub mod generators;
pub mod io;
pub mod mesh;
pub mod renumber;
pub mod rng;
pub mod stats;
pub mod topology;

pub use csr::Csr;
pub use mesh::Mesh2d;
pub use rng::SplitMix64;
pub use stats::MeshStats;
pub use topology::MapTable;
