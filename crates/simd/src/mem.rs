//! Memory movement: packing mesh data into vector registers and back.
//!
//! The paper's §2 taxonomy of SIMD memory access — (1) aligned contiguous,
//! (2) unaligned contiguous, (3) gather/scatter from computed addresses —
//! maps onto the methods in this module:
//!
//! | paper operation                                   | method |
//! |---------------------------------------------------|--------|
//! | aligned/unaligned vector load of direct data      | [`VecR::load`] |
//! | strided gather of AoS direct data (`data[n*dim+d]`)| [`VecR::load_strided`] |
//! | map-driven gather (`data[map[n]*dim+d]`)          | [`VecR::gather`] |
//! | vector store of direct data                       | [`VecR::store`] |
//! | strided scatter of AoS direct data                | [`VecR::store_strided`] |
//! | serialized colored increment                      | [`VecR::scatter_add_serial`] |
//! | masked scatter-add (measured slower in the paper) | [`VecR::scatter_add_masked`] |
//!
//! Those move one component of `L` elements. The chunk bodies of the
//! applications move whole rows — all components of `L` elements at
//! once — through the dat handle, which under AoS (the layout the
//! paper's AVX back end keeps) turns each operation into `L` contiguous
//! row moves and an in-register transpose, and otherwise loops the
//! per-component operations above:
//!
//! | paper operation, all components of a row          | method |
//! |---------------------------------------------------|--------|
//! | vector load of direct rows `e0..e0+L`             | [`DatRef::load_rows`](crate::DatRef::load_rows) |
//! | vector store of direct rows                       | [`DatRef::store_rows`](crate::DatRef::store_rows) |
//! | map-driven row gather (`data[map[n]*dim..]`)      | [`DatRef::gather_rows`](crate::DatRef::gather_rows) |
//! | serialized colored increment of whole rows, in the scalar loop's order | [`DatRef::scatter_add_rows_serial`](crate::DatRef::scatter_add_rows_serial) |

use crate::{IdxVec, Mask, Real, VecR};

impl<R: Real, const L: usize> VecR<R, L> {
    /// Load `L` consecutive lanes from `data[start..start+L]`.
    ///
    /// The generated main loop guarantees `start` is a multiple of `L`
    /// (after the scalar pre-sweep), making this the aligned-load case.
    #[inline(always)]
    pub fn load(data: &[R], start: usize) -> Self {
        if let Some(v) = crate::arch::load(data, start) {
            return v;
        }
        let mut out = [R::ZERO; L];
        out.copy_from_slice(&data[start..start + L]);
        VecR(out)
    }

    /// Strided gather of direct AoS data: lane `k` is
    /// `data[start + k*stride]` — the paper's
    /// `doublev(&arg2.data[n*4 + d], 4)` constructor.
    #[inline(always)]
    pub fn load_strided(data: &[R], start: usize, stride: usize) -> Self {
        let mut out = [R::ZERO; L];
        for k in 0..L {
            out[k] = data[start + k * stride];
        }
        VecR(out)
    }

    /// Map-driven gather: lane `k` is `data[idx[k] as usize * dim + comp]` —
    /// the paper's `doublev(arg0.data + comp, dim * map0idx)` constructor
    /// (`_mm512_i32logather_pd` on IMCI).
    #[inline(always)]
    pub fn gather(data: &[R], idx: IdxVec<L>, dim: usize, comp: usize) -> Self {
        // SAFETY: a slice is valid for reads of its length
        unsafe { VecR::gather_raw(data.as_ptr(), data.len(), idx, dim, comp) }
    }

    /// [`gather`](VecR::gather) from the `len` values at `data`: each
    /// effective index is checked against `len`, and only the `L` values
    /// gathered are read.
    ///
    /// # Safety
    /// `data` is valid for reads of `len` values.
    #[inline(always)]
    pub(crate) unsafe fn gather_raw(
        data: *const R,
        len: usize,
        idx: IdxVec<L>,
        dim: usize,
        comp: usize,
    ) -> Self {
        // SAFETY: the caller guarantees `data` holds `len` values
        if let Some(v) = unsafe { crate::arch::gather(data, len, idx, dim, comp) } {
            return v;
        }
        let mut out = [R::ZERO; L];
        for k in 0..L {
            let i = idx.lane(k) as usize * dim + comp;
            if i >= len {
                index_out_of_bounds(i, len);
            }
            // SAFETY: `i < len`
            out[k] = unsafe { data.add(i).read() };
        }
        VecR(out)
    }

    /// Masked map-driven gather; inactive lanes are `fill`.
    #[inline(always)]
    pub fn gather_masked(
        data: &[R],
        idx: IdxVec<L>,
        dim: usize,
        comp: usize,
        mask: Mask<L>,
        fill: R,
    ) -> Self {
        let mut out = [fill; L];
        for k in 0..L {
            if mask.lane(k) {
                out[k] = data[idx.lane(k) as usize * dim + comp];
            }
        }
        VecR(out)
    }

    /// Store all lanes to `data[start..start+L]`.
    #[inline(always)]
    pub fn store(self, data: &mut [R], start: usize) {
        if crate::arch::store(self, data, start) {
            return;
        }
        data[start..start + L].copy_from_slice(&self.0);
    }

    /// Strided scatter of direct AoS data: `data[start + k*stride] = lane k`.
    #[inline(always)]
    pub fn store_strided(self, data: &mut [R], start: usize, stride: usize) {
        for k in 0..L {
            data[start + k * stride] = self.0[k];
        }
    }

    /// Serialized accumulating scatter: lanes applied one at a time in lane
    /// order, so colliding targets accumulate correctly.
    ///
    /// This is the "sequentially scattering data out of the vector
    /// register" fallback the paper uses for the original two-level
    /// coloring scheme, and the serialization bottleneck Table VIII blames
    /// for `res_calc`'s Phi performance.
    #[inline(always)]
    pub fn scatter_add_serial(self, data: &mut [R], idx: IdxVec<L>, dim: usize, comp: usize) {
        // SAFETY: a mutable slice is valid for reads and writes of its
        // length
        unsafe { self.scatter_add_serial_raw(data.as_mut_ptr(), data.len(), idx, dim, comp) }
    }

    /// [`scatter_add_serial`](VecR::scatter_add_serial) into the `len`
    /// values at `data`: each effective index is checked against `len`,
    /// and only the `L` targets are read and written.
    ///
    /// # Safety
    /// `data` is valid for reads and writes of `len` values, and no other
    /// thread accesses the targets meanwhile.
    #[inline(always)]
    pub(crate) unsafe fn scatter_add_serial_raw(
        self,
        data: *mut R,
        len: usize,
        idx: IdxVec<L>,
        dim: usize,
        comp: usize,
    ) {
        for k in 0..L {
            let i = idx.lane(k) as usize * dim + comp;
            if i >= len {
                index_out_of_bounds(i, len);
            }
            // SAFETY: `i < len`
            unsafe { *data.add(i) += self.0[k] };
        }
    }

    /// Masked accumulating scatter: only lanes set in `mask` are applied,
    /// still serialized. The paper measured masked scatters and found them
    /// "slower than just sequentially scattering data"; kept for the
    /// `scatter_modes` ablation bench.
    #[inline(always)]
    pub fn scatter_add_masked(
        self,
        data: &mut [R],
        idx: IdxVec<L>,
        dim: usize,
        comp: usize,
        mask: Mask<L>,
    ) {
        for k in 0..L {
            if mask.lane(k) {
                data[idx.lane(k) as usize * dim + comp] += self.0[k];
            }
        }
    }
}

/// The panic of a gather or scatter lane past the end of its storage,
/// out of line, worded as slice indexing words it.
#[cold]
#[inline(never)]
#[track_caller]
pub(crate) fn index_out_of_bounds(i: usize, len: usize) -> ! {
    panic!("index out of bounds: the len is {len} but the index is {i}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F32x8, F64x4};

    fn data16() -> Vec<f64> {
        (0..16).map(|i| i as f64).collect()
    }

    /// `data[i] = i` over `n` values.
    fn iota<R: Real>(n: usize) -> Vec<R> {
        (0..n).map(|i| R::from_f64(i as f64)).collect()
    }

    #[test]
    fn load_store_roundtrip() {
        let d = data16();
        let v = F64x4::load(&d, 4);
        assert_eq!(v.to_array(), [4.0, 5.0, 6.0, 7.0]);
        let mut out = vec![0.0; 16];
        v.store(&mut out, 8);
        assert_eq!(&out[8..12], &[4.0, 5.0, 6.0, 7.0]);

        // the `std::arch` moves at both of the apps' register shapes
        fn per_lane<R: Real, const L: usize>() {
            let d = iota::<R>(4 * L);
            let v = VecR::<R, L>::load(&d, 3);
            let mut out = vec![R::ZERO; 4 * L];
            v.store(&mut out, L + 1);
            for k in 0..L {
                assert_eq!(v.lane(k), d[3 + k], "load lane {k} of {L}");
                assert_eq!(out[L + 1 + k], d[3 + k], "store lane {k} of {L}");
            }
            assert_eq!(out[L], R::ZERO, "store wrote before its start");
            assert_eq!(out[2 * L + 1], R::ZERO, "store wrote past its end");
        }
        per_lane::<f64, 4>();
        per_lane::<f32, 8>();
    }

    #[test]
    fn strided_load_reads_aos_components() {
        // 4 elements with dim=4 (airfoil q layout), component 2 of each:
        let d = data16();
        let v = F64x4::load_strided(&d, 2, 4);
        assert_eq!(v.to_array(), [2.0, 6.0, 10.0, 14.0]);
        let mut out = vec![0.0; 16];
        v.store_strided(&mut out, 2, 4);
        assert_eq!(out[2], 2.0);
        assert_eq!(out[6], 6.0);
        assert_eq!(out[14], 14.0);
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn gather_follows_mapping() {
        // data for 8 elements of dim 2
        let d: Vec<f64> = (0..16).map(|i| i as f64 * 10.0).collect();
        let idx = IdxVec::<4>::from_array([7, 0, 3, 5]);
        let v = F64x4::gather(&d, idx, 2, 1);
        assert_eq!(v.to_array(), [150.0, 10.0, 70.0, 110.0]);

        // the `std::arch` gathers at f64×4 and f32×8, dim 3, component 2
        fn per_lane<R: Real, const L: usize>() {
            let d = iota::<R>(3 * 2 * L);
            let idx =
                IdxVec::<L>::from_array(std::array::from_fn(|k| ((5 * k + 3) % (2 * L)) as i32));
            let v = VecR::<R, L>::gather(&d, idx, 3, 2);
            for k in 0..L {
                let want = d[idx.lane(k) as usize * 3 + 2];
                assert_eq!(v.lane(k), want, "gather lane {k} of {L}");
            }
        }
        per_lane::<f64, 4>();
        per_lane::<f32, 8>();
    }

    // An out-of-range lane makes the AVX2 gather decline; the portable
    // path's bounds check must then panic instead of reading past the
    // slice.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn gather_out_of_range_lane_panics_f64x4() {
        let d = data16();
        F64x4::gather(&d, IdxVec::from_array([0, 7, 2, 8]), 2, 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn gather_out_of_range_lane_panics_f32x8() {
        let d = iota::<f32>(16);
        F32x8::gather(&d, IdxVec::from_array([0, 1, 15, 3, 16, 5, 6, 7]), 1, 0);
    }

    #[test]
    fn serial_scatter_add_handles_collisions() {
        let mut d = vec![0.0f64; 4];
        // two lanes hit element 1: must accumulate, not race
        let idx = IdxVec::<4>::from_array([1, 1, 0, 1]);
        F64x4::from_array([1.0, 2.0, 5.0, 4.0]).scatter_add_serial(&mut d, idx, 1, 0);
        assert_eq!(d[1], 7.0);
        assert_eq!(d[0], 5.0);
    }

    #[test]
    fn masked_gather_and_scatter() {
        let d: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let idx = IdxVec::<4>::from_array([0, 2, 4, 6]);
        let m = Mask::from_array([true, false, true, false]);
        let v = F64x4::gather_masked(&d, idx, 1, 0, m, -1.0);
        assert_eq!(v.to_array(), [0.0, -1.0, 4.0, -1.0]);

        let mut out = vec![0.0f64; 8];
        v.scatter_add_masked(&mut out, idx, 1, 0, m);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[4], 4.0);
        assert_eq!(out[2], 0.0); // masked-off lane not applied
    }

    #[test]
    fn gather_scatter_roundtrip_permutation() {
        let d: Vec<f64> = (0..8).map(|i| (i * i) as f64).collect();
        let idx = IdxVec::<4>::from_array([6, 4, 1, 3]);
        let mut out = vec![0.0f64; 8];
        F64x4::gather(&d, idx, 1, 0).scatter_add_serial(&mut out, idx, 1, 0);
        for &i in &[6usize, 4, 1, 3] {
            assert_eq!(out[i], d[i]);
        }
    }
}
