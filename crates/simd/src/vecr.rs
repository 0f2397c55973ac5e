//! The vector value type and its arithmetic.
//!
//! [`VecR<R, L>`] corresponds to the paper's `F64vec4` / `F64vec8` /
//! `F32vec8` / `F32vec16` wrapper classes (Fig. 4): a register-shaped pack
//! of `L` lanes of element type `R` with overloaded operators, so user
//! kernels keep "the original simple arithmetic expressions … but instead
//! of scalars they will now operate on vectors".
//!
//! Memory operations (aligned/unaligned loads, strided and map-indexed
//! gathers/scatters) live in [`crate::mem`]; comparison and blending
//! support for branch-free kernels is here (`simd_lt`, `select`, …).

use std::ops::{Add, AddAssign, Div, DivAssign, Index, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::{Mask, Real};

/// An `L`-lane SIMD vector of `R` (see module docs).
///
/// `#[repr(C)]` with natural array layout; with `-C target-cpu=native` the
/// lane loops below compile to packed vector instructions.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
pub struct VecR<R: Real, const L: usize>(pub(crate) [R; L]);

impl<R: Real, const L: usize> VecR<R, L> {
    /// Number of lanes.
    pub const LANES: usize = L;

    /// All lanes equal to `v` (the broadcast constructor).
    #[inline(always)]
    pub fn splat(v: R) -> Self {
        VecR([v; L])
    }

    /// All lanes zero — the accumulator initializer of indirect-increment
    /// arguments (`doublev arg3_p[4] = {0.0,…}` in paper Fig. 3b).
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(R::ZERO)
    }

    /// Construct from an explicit lane array.
    #[inline(always)]
    pub fn from_array(a: [R; L]) -> Self {
        VecR(a)
    }

    /// Construct lane `k` as `f(k)`.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> R) -> Self {
        VecR(std::array::from_fn(f))
    }

    /// The lane array.
    #[inline(always)]
    pub fn to_array(self) -> [R; L] {
        self.0
    }

    /// Value of lane `k`.
    #[inline(always)]
    pub fn lane(self, k: usize) -> R {
        self.0[k]
    }

    /// Overwrite lane `k`.
    #[inline(always)]
    pub fn set_lane(&mut self, k: usize, v: R) {
        self.0[k] = v;
    }

    // ---- elementwise math ------------------------------------------------

    /// Lane-wise square root (`vsqrtpd` / `_mm512_sqrt_pd`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        if let Some(r) = crate::arch::sqrt(self) {
            return r;
        }
        self.map(R::sqrt)
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        self.map(R::abs)
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        self.zip(rhs, R::min)
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        self.zip(rhs, R::max)
    }

    /// Lane-wise fused multiply-add `self * b + c`.
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        if let Some(r) = crate::arch::mul_add(self, b, c) {
            return r;
        }
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = self.0[k].mul_add(b.0[k], c.0[k]);
        }
        VecR(out)
    }

    /// Lane-wise reciprocal `1/x`.
    #[inline(always)]
    pub fn recip(self) -> Self {
        Self::splat(R::ONE) / self
    }

    /// Apply `f` to every lane.
    #[inline(always)]
    pub fn map(self, mut f: impl FnMut(R) -> R) -> Self {
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = f(self.0[k]);
        }
        VecR(out)
    }

    /// Combine lanes of two vectors with `f`.
    #[inline(always)]
    pub fn zip(self, rhs: Self, mut f: impl FnMut(R, R) -> R) -> Self {
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = f(self.0[k], rhs.0[k]);
        }
        VecR(out)
    }

    // ---- comparisons and blending ---------------------------------------

    /// Lane-wise `self < rhs`.
    #[inline(always)]
    pub fn simd_lt(self, rhs: Self) -> Mask<L> {
        self.cmp(rhs, |a, b| a < b)
    }

    /// Lane-wise `self <= rhs`.
    #[inline(always)]
    pub fn simd_le(self, rhs: Self) -> Mask<L> {
        self.cmp(rhs, |a, b| a <= b)
    }

    /// Lane-wise `self > rhs`.
    #[inline(always)]
    pub fn simd_gt(self, rhs: Self) -> Mask<L> {
        self.cmp(rhs, |a, b| a > b)
    }

    /// Lane-wise `self >= rhs`.
    #[inline(always)]
    pub fn simd_ge(self, rhs: Self) -> Mask<L> {
        self.cmp(rhs, |a, b| a >= b)
    }

    #[inline(always)]
    fn cmp(self, rhs: Self, mut f: impl FnMut(R, R) -> bool) -> Mask<L> {
        let mut out = [false; L];
        for k in 0..L {
            out[k] = f(self.0[k], rhs.0[k]);
        }
        Mask::from_array(out)
    }

    /// Per-lane blend: lane `k` is `if_true[k]` where `mask[k]` is set,
    /// else `if_false[k]`.
    ///
    /// This is the `select()` primitive the paper requires user kernels to
    /// adopt in place of `if`/`else` (paper §4.2).
    #[inline(always)]
    pub fn select(mask: Mask<L>, if_true: Self, if_false: Self) -> Self {
        if let Some(r) = crate::arch::select(mask, if_true, if_false) {
            return r;
        }
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = if mask.lane(k) {
                if_true.0[k]
            } else {
                if_false.0[k]
            };
        }
        VecR(out)
    }

    // ---- horizontal reductions -------------------------------------------

    /// Sum of all lanes — the tail step of vectorized `OP_INC` global
    /// reductions ("first the reduction is carried out on vectors and at
    /// the end values of the accumulator vector are added up", §4.1).
    #[inline(always)]
    #[allow(clippy::assign_op_pattern)] // Real requires Add, not AddAssign
    pub fn reduce_sum(self) -> R {
        // Pairwise tree reduction: deterministic and matches how a
        // hardware horizontal add associates, independent of L.
        let mut buf = self.0;
        let mut n = L;
        while n > 1 {
            let half = n / 2;
            for k in 0..half {
                buf[k] = buf[k] + buf[k + n - half];
            }
            n -= half;
        }
        buf[0]
    }

    /// Minimum over all lanes — vectorized `OP_MIN` reductions (CFL dt).
    #[inline(always)]
    pub fn reduce_min(self) -> R {
        let mut acc = self.0[0];
        for k in 1..L {
            acc = acc.min(self.0[k]);
        }
        acc
    }

    /// Maximum over all lanes.
    #[inline(always)]
    pub fn reduce_max(self) -> R {
        let mut acc = self.0[0];
        for k in 1..L {
            acc = acc.max(self.0[k]);
        }
        acc
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl<R: Real, const L: usize> $trait for VecR<R, L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                let mut out = [R::ZERO; L];
                for k in 0..L {
                    out[k] = self.0[k] $op rhs.0[k];
                }
                VecR(out)
            }
        }
        impl<R: Real, const L: usize> $trait<R> for VecR<R, L> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: R) -> Self {
                self $op Self::splat(rhs)
            }
        }
        impl<R: Real, const L: usize> $assign_trait for VecR<R, L> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Self) {
                *self = *self $op rhs;
            }
        }
        impl<R: Real, const L: usize> $assign_trait<R> for VecR<R, L> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: R) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, +, AddAssign, add_assign, +=);
impl_binop!(Sub, sub, -, SubAssign, sub_assign, -=);
impl_binop!(Mul, mul, *, MulAssign, mul_assign, *=);
impl_binop!(Div, div, /, DivAssign, div_assign, /=);

impl<R: Real, const L: usize> Neg for VecR<R, L> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = -self.0[k];
        }
        VecR(out)
    }
}

impl<R: Real, const L: usize> Index<usize> for VecR<R, L> {
    type Output = R;
    #[inline(always)]
    fn index(&self, k: usize) -> &R {
        &self.0[k]
    }
}

impl<R: Real, const L: usize> Default for VecR<R, L> {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F32x8, F64x4};

    /// Distinct, sign-mixed lanes for the per-lane scalar comparisons.
    fn lanes<R: Real, const L: usize>(scale: f64, shift: f64) -> VecR<R, L> {
        VecR::from_fn(|k| R::from_f64(scale * (k * k) as f64 + shift))
    }

    #[test]
    fn arithmetic_is_lanewise() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::from_array([4.0, 3.0, 2.0, 1.0]);
        assert_eq!((a + b).to_array(), [5.0; 4]);
        assert_eq!((a - b).to_array(), [-3.0, -1.0, 1.0, 3.0]);
        assert_eq!((a * b).to_array(), [4.0, 6.0, 6.0, 4.0]);
        assert_eq!((a / b).to_array(), [0.25, 2.0 / 3.0, 1.5, 4.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn scalar_rhs_broadcasts() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        assert_eq!((a * 2.0).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a + 1.0).to_array(), [2.0, 3.0, 4.0, 5.0]);
        let mut c = a;
        c += 1.0;
        c *= 2.0;
        assert_eq!(c.to_array(), [4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn math_functions() {
        let a = F64x4::from_array([4.0, 9.0, 16.0, 25.0]);
        assert_eq!(a.sqrt().to_array(), [2.0, 3.0, 4.0, 5.0]);
        let b = F64x4::from_array([-1.0, 1.0, -2.0, 2.0]);
        assert_eq!(b.abs().to_array(), [1.0, 1.0, 2.0, 2.0]);
        assert_eq!(a.min(b).to_array(), [-1.0, 1.0, -2.0, 2.0]);
        assert_eq!(a.max(b).to_array(), [4.0, 9.0, 16.0, 25.0]);
        assert_eq!(
            a.mul_add(F64x4::splat(2.0), F64x4::splat(1.0)).to_array(),
            [9.0, 19.0, 33.0, 51.0]
        );
        assert_eq!(F64x4::splat(4.0).recip().to_array(), [0.25; 4]);

        // `sqrt` and `mul_add` have `std::arch` kernels at the apps'
        // register shapes — Airfoil's f64×4 and Volna's f32×8 — and must
        // agree with the scalar math lane by lane at both
        fn per_lane<R: Real, const L: usize>() {
            let (a, b, c) = (lanes::<R, L>(0.7, 0.5), lanes(-0.3, 1.5), lanes(0.1, -2.0));
            let (root, fma) = (a.sqrt(), a.mul_add(b, c));
            for k in 0..L {
                assert_eq!(root.lane(k), a.lane(k).sqrt(), "sqrt lane {k} of {L}");
                let want = a.lane(k).mul_add(b.lane(k), c.lane(k));
                assert_eq!(fma.lane(k), want, "mul_add lane {k} of {L}");
            }
        }
        per_lane::<f64, 4>();
        per_lane::<f32, 8>();
        assert_eq!(
            F32x8::splat(2.0).mul_add(F32x8::splat(3.0), F32x8::splat(1.0)),
            F32x8::splat(7.0)
        );
    }

    #[test]
    fn compare_and_select_replaces_branches() {
        let a = F64x4::from_array([1.0, 5.0, 3.0, 7.0]);
        let b = F64x4::splat(4.0);
        let m = a.simd_lt(b);
        assert_eq!(m.to_array(), [true, false, true, false]);
        // branchless `if (a<b) a else b` == lanewise min:
        let sel = F64x4::select(m, a, b);
        assert_eq!(sel.to_array(), a.min(b).to_array());
        assert_eq!(a.simd_ge(b).to_array(), [false, true, false, true]);
        assert_eq!(a.simd_le(a).to_array(), [true; 4]);
        assert_eq!(a.simd_gt(a).to_array(), [false; 4]);

        // `select` is a `std::arch` blend at f64×4 and f32×8
        fn per_lane<R: Real, const L: usize>() {
            let (a, b) = (lanes::<R, L>(0.5, -3.0), lanes(-0.25, 2.0));
            let m = a.simd_lt(b);
            let sel = VecR::select(m, a, b);
            for k in 0..L {
                let want = if a.lane(k) < b.lane(k) {
                    a.lane(k)
                } else {
                    b.lane(k)
                };
                assert_eq!(sel.lane(k), want, "select lane {k} of {L}");
            }
        }
        per_lane::<f64, 4>();
        per_lane::<f32, 8>();
    }

    #[test]
    fn reductions() {
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.reduce_sum(), 10.0);
        assert_eq!(a.reduce_min(), 1.0);
        assert_eq!(a.reduce_max(), 4.0);
        // single-lane degenerate vector
        let s = VecR::<f32, 1>::splat(3.5);
        assert_eq!(s.reduce_sum(), 3.5);
        assert_eq!(s.reduce_min(), 3.5);
    }

    #[test]
    fn reduce_sum_is_pairwise_deterministic() {
        // Pairwise order: ((a0+a2)+(a1+a3)) for L=4 — check against that
        // exact association rather than a left fold.
        let a = F64x4::from_array([1e16, 1.0, -1e16, 1.0]);
        let pairwise = (1e16 + -1e16) + (1.0 + 1.0);
        assert_eq!(a.reduce_sum(), pairwise);
    }

    #[test]
    fn from_fn_and_lane_access() {
        let v = VecR::<f64, 8>::from_fn(|k| k as f64 * 0.5);
        assert_eq!(v.lane(5), 2.5);
        assert_eq!(v[7], 3.5);
        let mut w = v;
        w.set_lane(0, 9.0);
        assert_eq!(w.lane(0), 9.0);
        assert_eq!(VecR::<f64, 4>::LANES, 4);
    }
}
