//! Storage layouts for set data and the layout-aware accessor view.
//!
//! The paper's CPU backends keep `op_dat`s in AoS (`data[e*dim + c]`),
//! which turns every direct vector load into a strided gather. §4's
//! discussion of gather/scatter cost motivates
//! the alternative implemented here: **SoA** (`data[c*n + e]`), where
//! direct loads/stores of one component across `L` consecutive elements
//! become single contiguous vector moves. Both layouts store exactly
//! `n*dim` values (no padding, no change to byte accounting or
//! serialization sizes).
//!
//! [`DatView`] carries `(n, dim, layout)` and exposes scalar row and
//! vector lane accessors that the recorded drivers use for *every* dat
//! access, so one kernel body serves all layouts. The vector bodies move
//! whole rows of `L` elements at once ([`DatView::load_rows`] and its
//! three siblings): under `Aos` an element's components are one
//! contiguous run, so a row block is `L` row moves and an in-register
//! transpose (the paper's AVX back end keeps AoS for exactly that
//! reason); under `Soa` it is one contiguous
//! [`VecR::load`]/[`VecR::store`] per component.

use crate::{IdxVec, Real, VecR};

/// Storage layout of a `dim`-component dataset over `n` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Array-of-structures: `data[e*dim + c]` (the paper's CPU layout).
    Aos,
    /// Structure-of-arrays: `data[c*n + e]`.
    Soa,
}

impl Layout {
    /// Short name for diagnostics and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Aos => "aos",
            Layout::Soa => "soa",
        }
    }

    /// Parse a [`Layout::name`] string (CLI flags).
    pub fn parse(s: &str) -> Option<Layout> {
        match s {
            "aos" => Some(Layout::Aos),
            "soa" => Some(Layout::Soa),
            _ => None,
        }
    }
}

/// Layout-aware accessor over the raw storage of one dataset: the shape
/// facts (`n`, `dim`, [`Layout`]) without borrowing the data, so it can
/// be captured by recorded loop bodies while `SharedDat` views hand out
/// the slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatView {
    /// Set size.
    pub n: usize,
    /// Components per element.
    pub dim: usize,
    /// Storage layout.
    pub layout: Layout,
}

impl DatView {
    /// View over `n` elements of `dim` components in `layout`.
    pub fn new(n: usize, dim: usize, layout: Layout) -> DatView {
        DatView { n, dim, layout }
    }

    /// Flat storage index of component `c` of element `e`.
    #[inline(always)]
    pub fn idx(&self, e: usize, c: usize) -> usize {
        debug_assert!(e < self.n && c < self.dim);
        match self.layout {
            Layout::Aos => e * self.dim + c,
            Layout::Soa => c * self.n + e,
        }
    }

    /// Copy element `e`'s components into a local row array.
    #[inline(always)]
    pub fn load_row<R: Real, const D: usize>(&self, data: &[R], e: usize) -> [R; D] {
        debug_assert_eq!(D, self.dim);
        if self.layout == Layout::Aos {
            // a row is one contiguous run: one bounds check, constant width
            let row: &[R; D] = data[e * D..][..D].try_into().expect("row width");
            return *row;
        }
        std::array::from_fn(|c| data[self.idx(e, c)])
    }

    /// Store a local row array as element `e`'s components.
    #[inline(always)]
    pub fn store_row<R: Real, const D: usize>(&self, data: &mut [R], e: usize, row: &[R; D]) {
        debug_assert_eq!(D, self.dim);
        if self.layout == Layout::Aos {
            data[e * D..][..D].copy_from_slice(row);
            return;
        }
        for (c, &v) in row.iter().enumerate() {
            data[self.idx(e, c)] = v;
        }
    }

    /// Accumulate a local row array into element `e`'s components (the
    /// colored-increment application).
    #[inline(always)]
    pub fn add_row<R: Real, const D: usize>(&self, data: &mut [R], e: usize, row: &[R; D]) {
        debug_assert_eq!(D, self.dim);
        if self.layout == Layout::Aos {
            for (dst, &v) in data[e * D..][..D].iter_mut().zip(row) {
                *dst += v;
            }
            return;
        }
        for (c, &v) in row.iter().enumerate() {
            let i = self.idx(e, c);
            // `Real` has no `AddAssign` bound, so no `+=` here.
            #[allow(clippy::assign_op_pattern)]
            {
                data[i] = data[i] + v;
            }
        }
    }

    /// Vector load of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn loadv<R: Real, const L: usize>(&self, data: &[R], e0: usize, c: usize) -> VecR<R, L> {
        match self.layout {
            Layout::Aos if self.dim == 1 => VecR::load(data, e0),
            Layout::Aos => VecR::load_strided(data, e0 * self.dim + c, self.dim),
            Layout::Soa => VecR::load(data, c * self.n + e0),
        }
    }

    /// Vector store of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn storev<R: Real, const L: usize>(
        &self,
        v: VecR<R, L>,
        data: &mut [R],
        e0: usize,
        c: usize,
    ) {
        match self.layout {
            Layout::Aos if self.dim == 1 => v.store(data, e0),
            Layout::Aos => v.store_strided(data, e0 * self.dim + c, self.dim),
            Layout::Soa => v.store(data, c * self.n + e0),
        }
    }

    /// Map-driven vector gather of component `c`: lane `k` reads element
    /// `idx[k]`.
    #[inline(always)]
    pub fn gatherv<R: Real, const L: usize>(
        &self,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L> {
        match self.layout {
            Layout::Aos => VecR::gather(data, idx, self.dim, c),
            Layout::Soa => {
                let col = &data[c * self.n..(c + 1) * self.n];
                // a consecutive run moves the same bits with a
                // contiguous load as with the hardware gather, at a
                // fraction of the latency
                match idx.consecutive_base() {
                    Some(b) if b >= 0 && b as usize + L <= col.len() => VecR::load(col, b as usize),
                    _ => VecR::gather(col, idx, 1, 0),
                }
            }
        }
    }

    /// Serialized accumulating vector scatter of component `c`: lanes
    /// applied in ascending lane order (the colored-increment order), so
    /// colliding targets accumulate exactly like the scalar path.
    #[inline(always)]
    pub fn scatter_add_serialv<R: Real, const L: usize>(
        &self,
        v: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        match self.layout {
            Layout::Aos => v.scatter_add_serial(data, idx, self.dim, c),
            Layout::Soa => {
                let col = &mut data[c * self.n..(c + 1) * self.n];
                // consecutive lanes never collide, so a packed
                // load-add-store accumulates bit-identically to the
                // ascending-lane serial order
                match idx.consecutive_base() {
                    Some(b) if b >= 0 && b as usize + L <= col.len() => {
                        let cur = VecR::<R, L>::load(col, b as usize);
                        (cur + v).store(col, b as usize);
                    }
                    _ => v.scatter_add_serial(col, idx, 1, 0),
                }
            }
        }
    }

    /// Components `0..K` of element `e`'s row in `Aos` storage — one
    /// contiguous run, one bounds check, constant width.
    #[inline(always)]
    fn aos_row<'d, R: Real, const K: usize>(&self, data: &'d [R], e: usize) -> &'d [R; K] {
        data[e * self.dim..][..K].try_into().expect("row width")
    }

    /// Mutable [`aos_row`](DatView::aos_row).
    #[inline(always)]
    fn aos_row_mut<'d, R: Real, const K: usize>(
        &self,
        data: &'d mut [R],
        e: usize,
    ) -> &'d mut [R; K] {
        (&mut data[e * self.dim..][..K])
            .try_into()
            .expect("row width")
    }

    /// Components `0..K` of elements `e0..e0+L`, one vector per
    /// component (`K ≤ dim`). Under `Aos` that is `L` row loads and a
    /// transpose that stays in registers.
    #[inline(always)]
    pub fn load_rows<R: Real, const L: usize, const K: usize>(
        &self,
        data: &[R],
        e0: usize,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= self.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        match self.layout {
            Layout::Aos => {
                for l in 0..L {
                    let row: &[R; K] = self.aos_row(data, e0 + l);
                    for c in 0..K {
                        out[c].0[l] = row[c];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    out[c] = self.loadv(data, e0, c);
                }
            }
        }
        out
    }

    /// Store `vals` as components `0..K` of elements `e0..e0+L` (the
    /// inverse of [`load_rows`](DatView::load_rows)).
    #[inline(always)]
    pub fn store_rows<R: Real, const L: usize, const K: usize>(
        &self,
        vals: &[VecR<R, L>; K],
        data: &mut [R],
        e0: usize,
    ) {
        debug_assert!(K <= self.dim);
        match self.layout {
            Layout::Aos => {
                for l in 0..L {
                    let row: &mut [R; K] = self.aos_row_mut(data, e0 + l);
                    for c in 0..K {
                        row[c] = vals[c].0[l];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    self.storev(vals[c], data, e0, c);
                }
            }
        }
    }

    /// Map-driven row gather: lane `l` of vector `c` is component `c` of
    /// element `idx[l]` (`K ≤ dim`). Under `Aos` each lane is one row
    /// load.
    #[inline(always)]
    pub fn gather_rows<R: Real, const L: usize, const K: usize>(
        &self,
        data: &[R],
        idx: IdxVec<L>,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= self.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        match self.layout {
            Layout::Aos => {
                for l in 0..L {
                    let row: &[R; K] = self.aos_row(data, idx.lane(l) as usize);
                    for c in 0..K {
                        out[c].0[l] = row[c];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    out[c] = self.gatherv(data, idx, c);
                }
            }
        }
        out
    }

    /// Serialized accumulating row scatter of `T` increments per lane —
    /// the colored increment of an element that reaches `T` targets
    /// (`res_calc`'s two cells): increment `t` adds lane `l` of its
    /// vectors to components `0..K` of element `idx_t[l]`.
    ///
    /// Under `Aos` the rows land lane by lane ascending, within a lane
    /// target by target — the order in which the scalar loop applies
    /// elements `l = 0..L`, so colliding lanes accumulate exactly like
    /// it, one row read-modify-write each. Under `Soa` each target's
    /// components go through
    /// [`scatter_add_serialv`](DatView::scatter_add_serialv) (ascending
    /// lanes per target, consecutive-run fast path included), which
    /// orders two targets' hits on one element by target instead of by
    /// lane: the same sum up to reassociation.
    #[inline(always)]
    pub fn scatter_add_rows_serial<R: Real, const L: usize, const K: usize, const T: usize>(
        &self,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
        data: &mut [R],
    ) {
        debug_assert!(K <= self.dim);
        match self.layout {
            Layout::Aos => {
                for l in 0..L {
                    for t in 0..T {
                        let (vals, idx) = incs[t];
                        let row: &mut [R; K] = self.aos_row_mut(data, idx.lane(l) as usize);
                        for c in 0..K {
                            row[c] += vals[c].0[l];
                        }
                    }
                }
            }
            Layout::Soa => {
                for t in 0..T {
                    let (vals, idx) = incs[t];
                    for c in 0..K {
                        self.scatter_add_serialv(vals[c], data, idx, c);
                    }
                }
            }
        }
    }

    /// Permute `data` from this view's layout into `to`, returning the
    /// re-laid-out storage. A pure index permutation — bit-exact at any
    /// precision.
    pub fn convert<R: Real>(&self, data: &[R], to: Layout) -> Vec<R> {
        assert_eq!(data.len(), self.n * self.dim, "dat storage size mismatch");
        let mut out = vec![R::ZERO; data.len()];
        let (n, dim) = (self.n, self.dim);
        // The layout dispatch is loop-invariant. The two conversions
        // `step_on` pays every step for a non-fused backend on SoA
        // storage state it outright: left to the optimizer's loop
        // unswitching of `idx`, identical source measured 8 ms in one
        // build and 13.5 ms in the next (Volna f32 274×273 round trip).
        match (self.layout, to) {
            (Layout::Aos, Layout::Soa) => {
                for (e, row) in data.chunks_exact(dim.max(1)).enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        out[c * n + e] = v;
                    }
                }
            }
            (Layout::Soa, Layout::Aos) => {
                for (e, row) in out.chunks_exact_mut(dim.max(1)).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = data[c * n + e];
                    }
                }
            }
            // same layout: the identity
            _ => out.copy_from_slice(data),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, dim: usize) -> Vec<f64> {
        // value encodes (e, c) so permutation mistakes are visible
        (0..n * dim).map(|_| 0.0).collect::<Vec<_>>()
    }

    fn aos_data(n: usize, dim: usize) -> Vec<f64> {
        let mut d = fill(n, dim);
        let v = DatView::new(n, dim, Layout::Aos);
        for e in 0..n {
            for c in 0..dim {
                d[v.idx(e, c)] = (e * 10 + c) as f64;
            }
        }
        d
    }

    #[test]
    fn idx_is_a_bijection_for_every_layout() {
        for layout in [Layout::Aos, Layout::Soa] {
            let (n, dim) = (13, 4);
            let v = DatView::new(n, dim, layout);
            let mut seen = vec![false; n * dim];
            for e in 0..n {
                for c in 0..dim {
                    let i = v.idx(e, c);
                    assert!(i < n * dim, "{layout:?} idx({e},{c}) = {i} out of range");
                    assert!(!seen[i], "{layout:?} idx({e},{c}) = {i} collides");
                    seen[i] = true;
                }
            }
        }
    }

    #[test]
    fn convert_round_trips_bit_exactly() {
        let (n, dim) = (11, 4);
        let aos = aos_data(n, dim);
        let av = DatView::new(n, dim, Layout::Aos);
        for layout in [Layout::Aos, Layout::Soa] {
            let there = av.convert(&aos, layout);
            let back = DatView::new(n, dim, layout).convert(&there, Layout::Aos);
            assert_eq!(aos, back, "{layout:?}");
        }
    }

    #[test]
    fn soa_direct_loads_are_contiguous() {
        let (n, dim) = (12, 4);
        let aos = aos_data(n, dim);
        let soa = DatView::new(n, dim, Layout::Aos).convert(&aos, Layout::Soa);
        let v = DatView::new(n, dim, Layout::Soa);
        let lanes: VecR<f64, 4> = v.loadv(&soa, 4, 2);
        assert_eq!(lanes.to_array(), [42.0, 52.0, 62.0, 72.0]);
        // and the storage really is contiguous: component 2 block
        assert_eq!(&soa[2 * n + 4..2 * n + 8], &[42.0, 52.0, 62.0, 72.0]);
    }

    #[test]
    fn gather_and_serial_scatter_match_scalar_for_every_layout() {
        let (n, dim) = (9, 3);
        let aos = aos_data(n, dim);
        let av = DatView::new(n, dim, Layout::Aos);
        let idx = IdxVec::<4>::from_array([7, 2, 2, 5]);
        for layout in [Layout::Aos, Layout::Soa] {
            let view = DatView::new(n, dim, layout);
            let data = av.convert(&aos, layout);
            let g: VecR<f64, 4> = view.gatherv(&data, idx, 1);
            assert_eq!(g.to_array(), [71.0, 21.0, 21.0, 51.0], "{layout:?}");

            // serialized scatter-add with a lane collision on element 2
            let mut d2 = data.clone();
            view.scatter_add_serialv(VecR::<f64, 4>::splat(1.0), &mut d2, idx, 1);
            assert_eq!(d2[view.idx(7, 1)], 72.0, "{layout:?}");
            assert_eq!(
                d2[view.idx(2, 1)],
                23.0,
                "{layout:?} collision must accumulate"
            );
            assert_eq!(d2[view.idx(5, 1)], 52.0, "{layout:?}");
        }
    }

    #[test]
    fn consecutive_gather_fast_path_matches_the_general_path() {
        // consecutive index lanes take the contiguous-load fast path in
        // gatherv / the packed load-add-store in scatter_add_serialv;
        // both must move exactly the bits the general path moves
        let (n, dim) = (16, 3);
        let aos = aos_data(n, dim);
        let av = DatView::new(n, dim, Layout::Aos);
        let view = DatView::new(n, dim, Layout::Soa);
        let data = av.convert(&aos, Layout::Soa);
        for base in [0, 4, 5, 12] {
            let run = IdxVec::<4>::iota(base);
            let got: VecR<f64, 4> = view.gatherv(&data, run, 2);
            let want: [f64; 4] = std::array::from_fn(|k| ((base as usize + k) * 10 + 2) as f64);
            assert_eq!(got.to_array(), want, "base={base}");

            let mut d2 = data.clone();
            view.scatter_add_serialv(VecR::<f64, 4>::splat(0.25), &mut d2, run, 2);
            for k in 0..4 {
                let e = base as usize + k;
                assert_eq!(d2[view.idx(e, 2)], (e * 10 + 2) as f64 + 0.25);
            }
        }
    }

    /// Every row accessor against the per-component accessor it replaces
    /// (and both against plain `idx` indexing), at one `(R, L, K)`.
    fn check_row_accessors<R: Real, const L: usize, const K: usize>(layout: Layout, dim: usize) {
        let n = 22;
        let view = DatView::new(n, dim, layout);
        let tag = format!("{layout:?} dim={dim} K={K} L={L}");
        let mut data = vec![R::ZERO; n * dim];
        for e in 0..n {
            for c in 0..dim {
                data[view.idx(e, c)] = R::from_f64((e * 10 + c) as f64 + 0.5);
            }
        }
        let vals: [VecR<R, L>; K] =
            std::array::from_fn(|c| VecR::from_fn(|l| R::from_f64(1e-3 * (1 + l + 10 * c) as f64)));
        for e0 in 0..=n - L {
            let rows: [VecR<R, L>; K] = view.load_rows(&data, e0);
            let (mut by_rows, mut by_comp) = (data.clone(), data.clone());
            view.store_rows(&vals, &mut by_rows, e0);
            for c in 0..K {
                let want: VecR<R, L> = VecR::from_fn(|l| data[view.idx(e0 + l, c)]);
                assert_eq!(rows[c], want, "{tag} load e0={e0} c={c}");
                assert_eq!(
                    view.loadv::<R, L>(&data, e0, c),
                    want,
                    "{tag} loadv e0={e0}"
                );
                view.storev(vals[c], &mut by_comp, e0, c);
            }
            assert_eq!(by_rows, by_comp, "{tag} store e0={e0}");
        }
        // scattered, repeated (colliding) and consecutive index lanes
        let patterns: [[usize; 8]; 3] = [
            [21, 3, 3, 17, 0, 3, 12, 21],
            [5, 6, 7, 8, 9, 10, 11, 12],
            [14, 15, 16, 17, 18, 19, 20, 21],
        ];
        for pat in patterns {
            let idx = IdxVec::<L>::from_array(std::array::from_fn(|l| pat[l] as i32));
            let rows: [VecR<R, L>; K] = view.gather_rows(&data, idx);
            let (mut by_rows, mut by_comp) = (data.clone(), data.clone());
            view.scatter_add_rows_serial([(&vals, idx)], &mut by_rows);
            for c in 0..K {
                let want: VecR<R, L> = VecR::from_fn(|l| data[view.idx(pat[l], c)]);
                assert_eq!(rows[c], want, "{tag} gather {pat:?} c={c}");
                assert_eq!(view.gatherv::<R, L>(&data, idx, c), want, "{tag} gatherv");
                view.scatter_add_serialv(vals[c], &mut by_comp, idx, c);
            }
            assert_eq!(by_rows, by_comp, "{tag} scatter {pat:?}");
        }
    }

    #[test]
    fn row_accessors_equal_the_per_component_accessors() {
        macro_rules! check {
            ($layout:expr, $dim:expr, $($k:literal),+) => {$(
                check_row_accessors::<f64, 4, $k>($layout, $dim);
                check_row_accessors::<f64, 8, $k>($layout, $dim);
                check_row_accessors::<f32, 4, $k>($layout, $dim);
                check_row_accessors::<f32, 8, $k>($layout, $dim);
            )+};
        }
        for layout in [Layout::Aos, Layout::Soa] {
            check!(layout, 1, 1);
            check!(layout, 2, 1, 2);
            check!(layout, 4, 1, 2, 3, 4);
        }
    }

    #[test]
    fn aos_row_scatter_lands_in_the_scalar_loops_order() {
        // two targets per lane, lanes colliding across targets: element 1
        // is lane 0's second target and lane 1's first. The scalar loop
        // lands lane 0 whole, then lane 1; magnitudes are chosen so any
        // other order rounds differently.
        let view = DatView::new(4, 2, Layout::Aos);
        let (i0, i1) = (
            IdxVec::<4>::from_array([0, 1, 2, 1]),
            IdxVec::<4>::from_array([1, 2, 3, 3]),
        );
        let v0 = [VecR::<f64, 4>::from_array([1.0, 1e16, 3.0, 1.0]); 2];
        let v1 = [VecR::<f64, 4>::from_array([-1e16, 1.0, 1.0, 2.0]); 2];
        let mut got = vec![1.0f64; 8];
        view.scatter_add_rows_serial([(&v0, i0), (&v1, i1)], &mut got);
        let mut want = vec![1.0f64; 8];
        for l in 0..4 {
            for (v, i) in [(&v0, i0), (&v1, i1)] {
                for c in 0..2 {
                    want[i.lane(l) as usize * 2 + c] += v[c].lane(l);
                }
            }
        }
        assert_eq!(got, want);
        // target-major order (all of i0, then all of i1) would differ
        assert_eq!(got[2], ((1.0 - 1e16) + 1e16) + 1.0);
        assert_ne!(got[2], ((1.0 + 1e16) + 1.0) - 1e16);
    }

    #[test]
    fn row_accessors_panic_on_an_out_of_range_index() {
        use std::panic::catch_unwind;
        for layout in [Layout::Aos, Layout::Soa] {
            let view = DatView::new(6, 4, layout);
            let data = vec![0.0f64; 24];
            for bad in [6, -1] {
                let idx = IdxVec::<4>::from_array([0, 5, bad, 1]);
                let gathered =
                    catch_unwind(|| -> [VecR<f64, 4>; 4] { view.gather_rows(&data, idx) });
                assert!(gathered.is_err(), "{layout:?} gather of {bad}");
                let scattered = catch_unwind(|| {
                    let mut d = data.clone();
                    view.scatter_add_rows_serial([(&[VecR::<f64, 4>::zero(); 4], idx)], &mut d);
                });
                assert!(scattered.is_err(), "{layout:?} scatter to {bad}");
            }
            let past_end = catch_unwind(|| -> [VecR<f64, 4>; 4] { view.load_rows(&data, 3) });
            assert!(past_end.is_err(), "{layout:?} load past the end");
        }
    }

    #[test]
    fn rows_round_trip_for_every_layout() {
        let (n, dim) = (7, 4);
        for layout in [Layout::Aos, Layout::Soa] {
            let view = DatView::new(n, dim, layout);
            let mut data = vec![0.0f64; n * dim];
            for e in 0..n {
                let row: [f64; 4] = std::array::from_fn(|c| (e * 10 + c) as f64);
                view.store_row(&mut data, e, &row);
            }
            for e in 0..n {
                let row: [f64; 4] = view.load_row(&data, e);
                assert_eq!(
                    row,
                    std::array::from_fn(|c| (e * 10 + c) as f64),
                    "{layout:?}"
                );
            }
            view.add_row(&mut data, 3, &[0.5f64; 4]);
            let row: [f64; 4] = view.load_row(&data, 3);
            assert_eq!(row[2], 32.5, "{layout:?}");
        }
    }

    #[test]
    fn layout_names_parse_back() {
        for layout in [Layout::Aos, Layout::Soa] {
            assert_eq!(Layout::parse(layout.name()), Some(layout));
        }
        assert_eq!(Layout::parse("aosoa8"), None);
        assert_eq!(Layout::parse("banana"), None);
    }
}
