//! # ump-simd — portable SIMD wrapper classes for unstructured-mesh kernels
//!
//! This crate is the Rust analogue of the vector wrapper classes the paper
//! builds on top of Intel's `dvec.h` / `micvec.h` headers (paper Fig. 4):
//! fixed-width vector value types with overloaded operators, explicit
//! gather/scatter constructors driven by mesh mappings, masked `select`
//! instead of branches, and horizontal reductions.
//!
//! The paper selects the lane count per ISA with preprocessor macros
//! (`#define VEC 4` for AVX, `8` for IMCI). Here the lane count is a const
//! generic parameter, so the same kernel source instantiates at any width:
//!
//! * [`F64x4`] — the AVX double-precision shape (4 × f64, 256 bit)
//! * [`F64x8`] — the IMCI/AVX-512 double shape (8 × f64, 512 bit)
//! * [`F32x8`] / [`F32x16`] — the single-precision equivalents
//! * `VecR<R, 1>` — a degenerate scalar vector, handy for testing
//!
//! The baseline implementation is *portable*: lanes are `[R; L]` arrays
//! and every operation is an `#[inline(always)]` lane loop. Compiled with
//! `-C target-cpu=native` (set in this workspace's `.cargo/config.toml`)
//! LLVM lowers most of these loops to packed vector instructions on
//! AVX2/AVX-512 hosts. For the operations where that lowering is not
//! guaranteed — unaligned packed moves, map-driven gathers, FMA, blends,
//! square roots — [`arch`] supplies explicit `std::arch` AVX2+FMA kernels
//! for the `f64×4` and `f32×8` shapes (selected at compile time by
//! `target_feature`, bit-identical to the portable path), which is exactly
//! the machine code the paper's intrinsics produce, without tying the
//! crate to one ISA.
//!
//! Beyond the value types, the crate provides:
//!
//! * [`Lane`] — the number type a user kernel is written over, so one
//!   kernel source runs on `R` and on `VecR<R, L>` (paper §4.2, Fig. 3b),
//! * [`IdxVec`] — a lane-wide vector of `i32` mapping indices (the paper's
//!   `I32vec4`/`I32vec8`), loaded straight from `op_map` tables,
//! * gather/scatter helpers for both *strided* direct data
//!   (`arg.data[n*dim + d]`) and *map-indexed* indirect data
//!   (`arg.data[map[n]*dim + d]`),
//! * [`Sweep`] — the scalar-presweep / aligned-vector-body / scalar-postsweep
//!   loop decomposition the generated SIMD loops use (paper §4.2),
//! * [`Mask`] + [`select`](VecR::select) — branch handling inside vectorized
//!   kernels (paper §4.2's `select()` requirement).

#![deny(missing_docs)]

pub mod arch;
pub mod idx;
pub mod lane;
pub mod layout;
pub mod mask;
pub mod mem;
pub mod real;
pub mod sweep;
pub mod vecr;

pub use arch::{have_avx2, isa_name};
pub use idx::IdxVec;
pub use lane::Lane;
pub use layout::{
    Addressing, Aos, Block, DatRef, DatView, Flat, Layout, ReadOnly, Row, Rows, RowsMut, Soa,
    Writable,
};
pub use mask::Mask;
pub use real::Real;
pub use sweep::{split_sweep, Sweep};
pub use vecr::VecR;

/// AVX-shaped double-precision vector: 4 × `f64` (256 bit).
pub type F64x4 = VecR<f64, 4>;
/// IMCI/AVX-512-shaped double-precision vector: 8 × `f64` (512 bit).
pub type F64x8 = VecR<f64, 8>;
/// AVX-shaped single-precision vector: 8 × `f32` (256 bit).
pub type F32x8 = VecR<f32, 8>;
/// IMCI/AVX-512-shaped single-precision vector: 16 × `f32` (512 bit).
pub type F32x16 = VecR<f32, 16>;

/// Lane count used by the "AVX" configuration for a given element type
/// (4 doubles or 8 floats per 256-bit register).
pub const fn avx_lanes<R: Real>() -> usize {
    256 / (8 * R::BYTES)
}

/// Lane count used by the "IMCI"/AVX-512 configuration for a given element
/// type (8 doubles or 16 floats per 512-bit register).
pub const fn imci_lanes<R: Real>() -> usize {
    512 / (8 * R::BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_widths_match_paper_table() {
        assert_eq!(avx_lanes::<f64>(), 4);
        assert_eq!(avx_lanes::<f32>(), 8);
        assert_eq!(imci_lanes::<f64>(), 8);
        assert_eq!(imci_lanes::<f32>(), 16);
    }
}
