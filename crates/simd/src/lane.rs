//! The number type a user kernel is written over.
//!
//! In the paper a kernel is written once: the vectorized `res_calc` of
//! Fig. 3b is the scalar source instantiated with the vector class in
//! place of `double` (§4.2). [`Lane`] is that substitution point. A
//! kernel generic over `T: Lane<R>` instantiates at `T = R` (one element:
//! the sequential reference and the scalar loop bodies) and at
//! `T = VecR<R, L>` (`L` elements per call: the chunk bodies of the
//! vectorized loops), and lane `k` of the vector call computes exactly
//! what the scalar call computes on lane `k`'s inputs: every operation
//! is the same IEEE operation, applied lane by lane.
//!
//! §4.2 also turns kernel branches into `select`; no kernel with a vector
//! caller branches, so the trait carries no mask.

use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::{Real, VecR};

/// What a user kernel computes with: arithmetic on `Self` and by the
/// scalar `R` (written with the scalar on the right), broadcast, and the
/// lane-wise functions the Airfoil and Volna kernels call. Implemented by
/// `f32`, `f64` (`R` itself) and [`VecR<R, L>`] (see the module docs).
pub trait Lane<R>:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + Mul<R, Output = Self>
    + Div<R, Output = Self>
{
    /// `v` in every lane.
    fn splat(v: R) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Minimum (IEEE `min`).
    fn min(self, other: Self) -> Self;
    /// Maximum (IEEE `max`).
    fn max(self, other: Self) -> Self;
}

impl<R: Real> Lane<R> for R {
    #[inline(always)]
    fn splat(v: R) -> Self {
        v
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        Real::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        Real::abs(self)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        Real::min(self, other)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        Real::max(self, other)
    }
}

impl<R: Real, const L: usize> Lane<R> for VecR<R, L> {
    #[inline(always)]
    fn splat(v: R) -> Self {
        VecR::splat(v)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        VecR::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        VecR::abs(self)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        VecR::min(self, other)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        VecR::max(self, other)
    }
}
