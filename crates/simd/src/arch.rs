//! `std::arch` specializations behind the portable [`VecR`] operations.
//!
//! The paper's wrapper classes compile straight to AVX/IMCI intrinsics;
//! the portable lane loops in this crate rely on LLVM doing the same.
//! For the hot operations where autovectorization is not guaranteed —
//! unaligned packed moves, map-driven gathers, FMA, blends, square
//! roots — this module provides explicit AVX2(+FMA) kernels for the two
//! register shapes the benches exercise, `f64×4` (256-bit AVX double)
//! and `f32×8` (256-bit AVX single), selected at compile time by
//! `target_feature` (the workspace builds with `-C target-cpu=native`,
//! see `.cargo/config.toml`).
//!
//! Every function returns `Option`: `Some(result)` when a specialization
//! exists for `(R, L)` on this target, `None` otherwise — the caller
//! (in [`crate::vecr`] / [`crate::mem`]) falls back to the portable lane
//! loop. All kernels are bit-identical to the scalar paths: loads,
//! stores and gathers move bits; `vfmadd` fuses exactly like
//! [`f64::mul_add`]; `vsqrtpd` is correctly rounded like [`f64::sqrt`].

#![allow(clippy::missing_safety_doc)]

use crate::{IdxVec, Mask, Real, VecR};

/// Name of the instruction set the vector kernels compile to — recorded
/// in bench JSON so measurements name the ISA they ran on.
pub fn isa_name() -> &'static str {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "fma"
    ))]
    {
        "avx512f+avx2+fma"
    }
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(target_feature = "avx512f")
    ))]
    {
        "avx2+fma"
    }
    #[cfg(all(
        target_arch = "x86_64",
        not(all(target_feature = "avx2", target_feature = "fma"))
    ))]
    {
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// `true` when the explicit AVX2 kernels below are compiled in (vs the
/// portable lane-loop fallback).
pub const fn have_avx2() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;
    use std::any::TypeId;

    #[inline(always)]
    pub fn is_f64x4<R: Real, const L: usize>() -> bool {
        L == 4 && TypeId::of::<R>() == TypeId::of::<f64>()
    }

    #[inline(always)]
    pub fn is_f32x8<R: Real, const L: usize>() -> bool {
        L == 8 && TypeId::of::<R>() == TypeId::of::<f32>()
    }

    // `VecR` is `#[repr(C)]` over `[R; L]`, so a `VecR<f64, 4>` is four
    // consecutive f64 — loadu/storeu through raw pointers is exact.
    #[inline(always)]
    pub unsafe fn ld_pd<R: Real, const L: usize>(v: &VecR<R, L>) -> __m256d {
        _mm256_loadu_pd(v as *const VecR<R, L> as *const f64)
    }

    #[inline(always)]
    pub unsafe fn st_pd<R: Real, const L: usize>(r: __m256d) -> VecR<R, L> {
        let mut out = VecR::<R, L>::zero();
        _mm256_storeu_pd(&mut out as *mut VecR<R, L> as *mut f64, r);
        out
    }

    #[inline(always)]
    pub unsafe fn ld_ps<R: Real, const L: usize>(v: &VecR<R, L>) -> __m256 {
        _mm256_loadu_ps(v as *const VecR<R, L> as *const f32)
    }

    #[inline(always)]
    pub unsafe fn st_ps<R: Real, const L: usize>(r: __m256) -> VecR<R, L> {
        let mut out = VecR::<R, L>::zero();
        _mm256_storeu_ps(&mut out as *mut VecR<R, L> as *mut f32, r);
        out
    }
}

macro_rules! no_avx2_fallback {
    ($($arg:ident),*) => {
        #[cfg(not(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        )))]
        {
            $(let _ = $arg;)*
            None
        }
    };
}

/// Packed unaligned load of `data[start..start+L]` (`vmovupd`/`vmovups`).
#[inline(always)]
pub fn load<R: Real, const L: usize>(data: &[R], start: usize) -> Option<VecR<R, L>> {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            let s = &data[start..start + L];
            return Some(unsafe { avx2::st_pd(_mm256_loadu_pd(s.as_ptr() as *const f64)) });
        }
        if avx2::is_f32x8::<R, L>() {
            let s = &data[start..start + L];
            return Some(unsafe { avx2::st_ps(_mm256_loadu_ps(s.as_ptr() as *const f32)) });
        }
        None
    }
    no_avx2_fallback!(data, start)
}

/// Packed unaligned store to `data[start..start+L]`.
#[inline(always)]
pub fn store<R: Real, const L: usize>(v: VecR<R, L>, data: &mut [R], start: usize) -> bool {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            let s = &mut data[start..start + L];
            unsafe { _mm256_storeu_pd(s.as_mut_ptr() as *mut f64, avx2::ld_pd(&v)) };
            return true;
        }
        if avx2::is_f32x8::<R, L>() {
            let s = &mut data[start..start + L];
            unsafe { _mm256_storeu_ps(s.as_mut_ptr() as *mut f32, avx2::ld_ps(&v)) };
            return true;
        }
        false
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        let _ = (v, data, start);
        false
    }
}

/// Map-driven gather `data[idx[k]*dim + comp]` via `vgatherdpd` /
/// `vgatherdps`, over the `len` values from `data`. Effective indices
/// are bounds-checked once up front; out-of-range indices fall back to
/// the scalar path's panic.
///
/// # Safety
/// `data` is valid for reads of `len` values.
#[inline(always)]
pub unsafe fn gather<R: Real, const L: usize>(
    data: *const R,
    len: usize,
    idx: IdxVec<L>,
    dim: usize,
    comp: usize,
) -> Option<VecR<R, L>> {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            let eff: [i32; 4] = std::array::from_fn(|k| idx.lane(k) * dim as i32 + comp as i32);
            if eff.iter().all(|&i| (i as usize) < len && i >= 0) {
                // SAFETY: every effective index is below `len`
                let v = unsafe {
                    let vi = _mm_loadu_si128(eff.as_ptr() as *const __m128i);
                    avx2::st_pd(_mm256_i32gather_pd::<8>(data as *const f64, vi))
                };
                return Some(v);
            }
            return None; // scalar path reports the OOB index
        }
        if avx2::is_f32x8::<R, L>() {
            let eff: [i32; 8] = std::array::from_fn(|k| idx.lane(k) * dim as i32 + comp as i32);
            if eff.iter().all(|&i| (i as usize) < len && i >= 0) {
                // SAFETY: every effective index is below `len`
                let v = unsafe {
                    let vi = _mm256_loadu_si256(eff.as_ptr() as *const __m256i);
                    avx2::st_ps(_mm256_i32gather_ps::<4>(data as *const f32, vi))
                };
                return Some(v);
            }
            return None;
        }
        None
    }
    no_avx2_fallback!(data, len, idx, dim, comp)
}

/// Fused multiply-add `a*b + c` (`vfmadd213pd`) — fuses exactly like the
/// scalar [`f64::mul_add`], so results are bit-identical to the portable
/// path.
#[inline(always)]
pub fn mul_add<R: Real, const L: usize>(
    a: VecR<R, L>,
    b: VecR<R, L>,
    c: VecR<R, L>,
) -> Option<VecR<R, L>> {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            return Some(unsafe {
                avx2::st_pd(_mm256_fmadd_pd(
                    avx2::ld_pd(&a),
                    avx2::ld_pd(&b),
                    avx2::ld_pd(&c),
                ))
            });
        }
        if avx2::is_f32x8::<R, L>() {
            return Some(unsafe {
                avx2::st_ps(_mm256_fmadd_ps(
                    avx2::ld_ps(&a),
                    avx2::ld_ps(&b),
                    avx2::ld_ps(&c),
                ))
            });
        }
        None
    }
    no_avx2_fallback!(a, b, c)
}

/// Packed square root (`vsqrtpd`) — correctly rounded, identical to the
/// scalar [`f64::sqrt`] per lane.
#[inline(always)]
pub fn sqrt<R: Real, const L: usize>(a: VecR<R, L>) -> Option<VecR<R, L>> {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            return Some(unsafe { avx2::st_pd(_mm256_sqrt_pd(avx2::ld_pd(&a))) });
        }
        if avx2::is_f32x8::<R, L>() {
            return Some(unsafe { avx2::st_ps(_mm256_sqrt_ps(avx2::ld_ps(&a))) });
        }
        None
    }
    no_avx2_fallback!(a)
}

/// Per-lane blend (`vblendvpd`): lane `k` is `t[k]` where `mask[k]` is
/// set, else `f[k]` — the branch-free `select()` of paper §4.2.
#[inline(always)]
pub fn select<R: Real, const L: usize>(
    mask: Mask<L>,
    t: VecR<R, L>,
    f: VecR<R, L>,
) -> Option<VecR<R, L>> {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        use core::arch::x86_64::*;
        if avx2::is_f64x4::<R, L>() {
            return Some(unsafe {
                let m = _mm256_castsi256_pd(_mm256_setr_epi64x(
                    -(mask.lane(0) as i64),
                    -(mask.lane(1) as i64),
                    -(mask.lane(2) as i64),
                    -(mask.lane(3) as i64),
                ));
                avx2::st_pd(_mm256_blendv_pd(avx2::ld_pd(&f), avx2::ld_pd(&t), m))
            });
        }
        if avx2::is_f32x8::<R, L>() {
            return Some(unsafe {
                let lanes: [i32; 8] = std::array::from_fn(|k| -(mask.lane(k) as i32));
                let m = _mm256_castsi256_ps(_mm256_loadu_si256(lanes.as_ptr() as *const __m256i));
                avx2::st_ps(_mm256_blendv_ps(avx2::ld_ps(&f), avx2::ld_ps(&t), m))
            });
        }
        None
    }
    no_avx2_fallback!(mask, t, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    // On AVX2 hosts these exercise the intrinsic kernels; elsewhere they
    // exercise the None fallback — either way the public VecR operations
    // must agree with per-lane scalar math (asserted in vecr/mem tests).

    #[test]
    fn isa_name_is_nonempty() {
        assert!(!isa_name().is_empty());
    }

    #[test]
    fn specializations_agree_with_scalar_lanes() {
        let a4 = VecR::<f64, 4>::from_array([1.5, -2.0, 0.25, 9.0]);
        let b4 = VecR::<f64, 4>::from_array([2.0, 3.0, -4.0, 0.5]);
        let c4 = VecR::<f64, 4>::from_array([0.1, 0.2, 0.3, 0.4]);
        if let Some(r) = mul_add(a4, b4, c4) {
            for k in 0..4 {
                assert_eq!(r.lane(k), a4.lane(k).mul_add(b4.lane(k), c4.lane(k)));
            }
        }
        if let Some(r) = sqrt(VecR::<f64, 4>::from_array([4.0, 9.0, 2.0, 0.0])) {
            assert_eq!(r.to_array(), [2.0, 3.0, 2.0f64.sqrt(), 0.0]);
        }
        let m = Mask::from_array([true, false, false, true]);
        if let Some(r) = select(m, a4, b4) {
            assert_eq!(r.to_array(), [1.5, 3.0, -4.0, 9.0]);
        }

        let a8 = VecR::<f32, 8>::from_fn(|k| k as f32 - 3.0);
        let b8 = VecR::<f32, 8>::splat(2.0);
        if let Some(r) = mul_add(a8, b8, b8) {
            for k in 0..8 {
                assert_eq!(r.lane(k), a8.lane(k).mul_add(2.0, 2.0));
            }
        }
    }

    #[test]
    fn gather_and_load_agree_with_indexing() {
        let data: Vec<f64> = (0..32).map(|i| (i * i) as f64).collect();
        if let Some(v) = load::<f64, 4>(&data, 5) {
            assert_eq!(v.to_array(), [25.0, 36.0, 49.0, 64.0]);
        }
        let idx = IdxVec::<4>::from_array([7, 0, 3, 5]);
        // SAFETY: a slice is valid for reads of its length
        let gathered = |idx| unsafe { gather::<f64, 4>(data.as_ptr(), data.len(), idx, 4, 1) };
        if let Some(v) = gathered(idx) {
            let want: [f64; 4] = std::array::from_fn(|k| data[idx.lane(k) as usize * 4 + 1]);
            assert_eq!(v.to_array(), want);
        }
        // out-of-range effective index: must decline, not fault
        let oob = IdxVec::<4>::from_array([7, 0, 3, 100]);
        assert!(gathered(oob).is_none() || !have_avx2());

        let mut out = vec![0.0f64; 8];
        let stored = store(VecR::<f64, 4>::splat(7.0), &mut out, 2);
        if stored {
            assert_eq!(&out[2..6], &[7.0; 4]);
            assert_eq!(out[0], 0.0);
        }
    }

    #[test]
    fn f32x8_load_store_roundtrip() {
        let data: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        if let Some(v) = load::<f32, 8>(&data, 3) {
            let mut out = vec![0.0f32; 16];
            assert!(store(v, &mut out, 1));
            assert_eq!(&out[1..9], &data[3..11]);
        }
    }
}
