//! Storage layouts for set data and the layout-typed accessor views.
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
//! Each layout's addressing is written once, in a zero-sized type behind
//! [`Addressing`]: [`Aos`] and [`Soa`]. A [`DatView<A>`] carries `(n,
//! dim)` and the layout type `A`, and its accessors are what the recorded
//! drivers use for every dat access, so one kernel body serves all
//! layouts. As OP2's generated code fixes each dat's layout when it emits
//! a loop, the recording is instantiated per layout and the executor
//! picks the instantiation once per step from the runtime [`Layout`] an
//! `OpDat` stores: the scalar row accessors of the recorded bodies test
//! no layout at run time. The runtime view `DatView<Layout>` is a thin
//! dispatcher onto the two types. Code outside the recordings addresses
//! dats through it, it converts storage between layouts
//! ([`convert`](DatView::convert)), and Airfoil's `L`-lane chunk bodies
//! move rows through it, one dispatch per access of a chunk, because
//! that is the form LLVM vectorizes best for them
//! ([`load_rows`](DatView::<Layout>::load_rows) has the measurement).
//!
//! The vector bodies move whole rows of `L` elements at once
//! ([`DatView::load_rows`] and its three siblings): under `Aos` an
//! element's components are one contiguous run, so a row block is `L`
//! row moves and an in-register transpose (the paper's AVX back end
//! keeps AoS for exactly that reason); under `Soa` it is one contiguous
//! [`VecR::load`]/[`VecR::store`] per component.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

use crate::{IdxVec, Real, VecR};

/// Storage layout of a `dim`-component dataset over `n` elements, as an
/// `OpDat` stores it and converts between.
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

/// One storage layout's addressing, implemented by the zero-sized
/// [`Aos`] and [`Soa`]. Each method is documented, and called, as the
/// [`DatView`] method of the same name.
pub trait Addressing: Copy + Default + Debug + Eq + Send + Sync + 'static {
    /// The runtime layout this type addresses.
    const LAYOUT: Layout;
    /// See [`DatView::idx`].
    fn idx(v: DatView<Self>, e: usize, c: usize) -> usize;
    /// The distance between two consecutive elements' values of one
    /// component of `D`-component rows: `D` under `Aos`, 1 under `Soa`.
    fn stride<const D: usize>() -> usize;
    /// Where component `c` of element `e ≤ n` of `D`-component rows lies
    /// (the first row of a [`Rows`] block; `idx` without its check).
    fn slot<const D: usize>(v: DatView<Self>, e: usize, c: usize) -> usize;
    /// See [`DatView::load_row`].
    fn load_row<R: Real, const D: usize>(v: DatView<Self>, data: &[R], e: usize) -> [R; D];
    /// See [`DatView::store_row`].
    fn store_row<R: Real, const D: usize>(v: DatView<Self>, data: &mut [R], e: usize, row: &[R; D]);
    /// See [`DatView::add_row`].
    fn add_row<R: Real, const D: usize>(v: DatView<Self>, data: &mut [R], e: usize, row: &[R; D]);
    /// See [`DatView::loadv`].
    fn loadv<R: Real, const L: usize>(
        v: DatView<Self>,
        data: &[R],
        e0: usize,
        c: usize,
    ) -> VecR<R, L>;
    /// See [`DatView::storev`].
    fn storev<R: Real, const L: usize>(
        v: DatView<Self>,
        vals: VecR<R, L>,
        data: &mut [R],
        e0: usize,
        c: usize,
    );
    /// See [`DatView::gatherv`].
    fn gatherv<R: Real, const L: usize>(
        v: DatView<Self>,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L>;
    /// See [`DatView::scatter_add_serialv`].
    fn scatter_add_serialv<R: Real, const L: usize>(
        v: DatView<Self>,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    );
    /// See [`DatView::load_rows`].
    fn load_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Self>,
        data: &[R],
        e0: usize,
    ) -> [VecR<R, L>; K];
    /// See [`DatView::store_rows`].
    fn store_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Self>,
        vals: &[VecR<R, L>; K],
        data: &mut [R],
        e0: usize,
    );
    /// See [`DatView::gather_rows`].
    fn gather_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Self>,
        data: &[R],
        idx: IdxVec<L>,
    ) -> [VecR<R, L>; K];
    /// See [`DatView::scatter_add_rows_serial`].
    fn scatter_add_rows_serial<R: Real, const L: usize, const K: usize, const T: usize>(
        v: DatView<Self>,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
        data: &mut [R],
    );
}

/// Array-of-structures addressing, `data[e*dim + c]`: an element's row
/// is one contiguous run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Aos;

/// Structure-of-arrays addressing, `data[c*n + e]`: one component of
/// consecutive elements is one contiguous run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Soa;

/// The shape of one dataset's storage — `n` elements of `dim`
/// components addressed as `A` says — without borrowing the data, so it
/// can be captured by recorded loop bodies while `SharedDat` views hand
/// out the slices. `A` is a layout type ([`Aos`], [`Soa`]) for the
/// accessors of a recording, or the runtime [`Layout`] (the default) for
/// the dispatching view an `OpDat` hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatView<A = Layout> {
    /// Set size.
    pub n: usize,
    /// Components per element.
    pub dim: usize,
    /// Storage layout: a value of the layout type, or the runtime one.
    pub layout: A,
}

impl<A> DatView<A> {
    /// View over `n` elements of `dim` components in `layout`.
    pub fn new(n: usize, dim: usize, layout: A) -> DatView<A> {
        DatView { n, dim, layout }
    }
}

impl<A: Addressing> DatView<A> {
    /// Flat storage index of component `c` of element `e`.
    #[inline(always)]
    pub fn idx(&self, e: usize, c: usize) -> usize {
        A::idx(*self, e, c)
    }

    /// Copy element `e`'s components into a local row array (`D ==
    /// dim`).
    #[inline(always)]
    pub fn load_row<R: Real, const D: usize>(&self, data: &[R], e: usize) -> [R; D] {
        A::load_row(*self, data, e)
    }

    /// Store a local row array as element `e`'s components.
    #[inline(always)]
    pub fn store_row<R: Real, const D: usize>(&self, data: &mut [R], e: usize, row: &[R; D]) {
        A::store_row(*self, data, e, row)
    }

    /// Accumulate a local row array into element `e`'s components (the
    /// colored-increment application).
    #[inline(always)]
    pub fn add_row<R: Real, const D: usize>(&self, data: &mut [R], e: usize, row: &[R; D]) {
        A::add_row(*self, data, e, row)
    }

    /// The rows of the elements `range` (`D == dim`), bounds checked once
    /// here instead of at every row.
    #[inline(always)]
    pub fn rows<'d, R: Real, const D: usize>(
        &self,
        data: &'d [R],
        range: Range<usize>,
    ) -> Rows<'d, R, A, D> {
        let (comps, len) = self.block::<R, D>(data.as_ptr().cast_mut(), data.len(), range);
        Rows {
            comps: comps.map(|p| p.cast_const()),
            len,
            _data: PhantomData,
        }
    }

    /// Mutable [`rows`](DatView::rows).
    #[inline(always)]
    pub fn rows_mut<'d, R: Real, const D: usize>(
        &self,
        data: &'d mut [R],
        range: Range<usize>,
    ) -> RowsMut<'d, R, A, D> {
        let (comps, len) = self.block::<R, D>(data.as_mut_ptr(), data.len(), range);
        RowsMut {
            comps,
            len,
            _data: PhantomData,
        }
    }

    /// Where each component of the first element of `range` lies, and
    /// the element count: the one bounds check of a [`Rows`] block.
    #[inline(always)]
    fn block<R, const D: usize>(
        &self,
        base: *mut R,
        len: usize,
        range: Range<usize>,
    ) -> ([*mut R; D], usize) {
        // `D == dim` and `n × D ≤ len` put every slot of an element below
        // `n` inside `data` under either layout
        if !(D == self.dim && range.start <= range.end && range.end <= self.n && self.n <= len / D)
        {
            rows_out_of_bounds(range, self.n, self.dim, D, len);
        }
        let e0 = range.start;
        // `wrapping_add`: an empty block at `e0 == n` may point one row past
        // the end under `Aos`; no access reaches it
        let comps = std::array::from_fn(|c| base.wrapping_add(A::slot::<D>(*self, e0, c)));
        (comps, range.end - e0)
    }

    /// Vector load of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn loadv<R: Real, const L: usize>(&self, data: &[R], e0: usize, c: usize) -> VecR<R, L> {
        A::loadv(*self, data, e0, c)
    }

    /// Vector store of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn storev<R: Real, const L: usize>(
        &self,
        vals: VecR<R, L>,
        data: &mut [R],
        e0: usize,
        c: usize,
    ) {
        A::storev(*self, vals, data, e0, c)
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
        A::gatherv(*self, data, idx, c)
    }

    /// Serialized accumulating vector scatter of component `c`: lanes
    /// applied in ascending lane order (the colored-increment order), so
    /// colliding targets accumulate exactly like the scalar path.
    #[inline(always)]
    pub fn scatter_add_serialv<R: Real, const L: usize>(
        &self,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        A::scatter_add_serialv(*self, vals, data, idx, c)
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
        A::load_rows(*self, data, e0)
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
        A::store_rows(*self, vals, data, e0)
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
        A::gather_rows(*self, data, idx)
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
        A::scatter_add_rows_serial(*self, incs, data)
    }
}

/// `$call` on `$view` typed for its runtime layout, bound to `$v`.
macro_rules! dispatch {
    ($view:expr, $v:ident => $call:expr) => {
        match $view.layout {
            Layout::Aos => {
                let $v = $view.with(Aos);
                $call
            }
            Layout::Soa => {
                let $v = $view.with(Soa);
                $call
            }
        }
    };
}

/// The runtime view: each accessor dispatches onto the layout type of the
/// view's [`Layout`]. Code outside the recordings addresses dats through
/// it, and so do Airfoil's vector chunk bodies (see
/// [`load_rows`](DatView::<Layout>::load_rows)).
impl DatView<Layout> {
    /// This view typed for `A`, if `A` addresses its layout.
    pub fn typed<A: Addressing>(self) -> Option<DatView<A>> {
        (self.layout == A::LAYOUT).then(|| DatView::new(self.n, self.dim, A::default()))
    }

    /// [`DatView::<A>::idx`](DatView::idx) in the view's layout.
    #[inline]
    pub fn idx(&self, e: usize, c: usize) -> usize {
        dispatch!(self, v => v.idx(e, c))
    }

    /// [`DatView::<A>::gatherv`](DatView::gatherv) in the view's layout.
    #[inline(always)]
    pub fn gatherv<R: Real, const L: usize>(
        &self,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L> {
        dispatch!(self, v => v.gatherv(data, idx, c))
    }

    /// [`DatView::<A>::scatter_add_serialv`](DatView::scatter_add_serialv)
    /// in the view's layout.
    #[inline(always)]
    pub fn scatter_add_serialv<R: Real, const L: usize>(
        &self,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        dispatch!(self, v => v.scatter_add_serialv(vals, data, idx, c))
    }

    /// [`DatView::<A>::load_rows`](DatView::load_rows) in the view's
    /// layout.
    ///
    /// Airfoil's vector chunk bodies move rows through the runtime view,
    /// one dispatch per access, although the step dispatched the layout
    /// already: with both arms in the body, LLVM computes its `res_calc`
    /// kernel in lane vectors between the AoS row transposes. Given the
    /// AoS arm alone it computes the kernel one lane at a time along the
    /// row's components instead, and single-thread `simd4` `res_calc`
    /// measured 0.82–0.86 of `seq`'s against 0.62–0.69
    /// (`simd4_res_calc_beats_seq_per_core`, 600×300).
    #[inline(always)]
    pub fn load_rows<R: Real, const L: usize, const K: usize>(
        &self,
        data: &[R],
        e0: usize,
    ) -> [VecR<R, L>; K] {
        dispatch!(self, v => v.load_rows(data, e0))
    }

    /// [`DatView::<A>::store_rows`](DatView::store_rows) in the view's
    /// layout.
    #[inline(always)]
    pub fn store_rows<R: Real, const L: usize, const K: usize>(
        &self,
        vals: &[VecR<R, L>; K],
        data: &mut [R],
        e0: usize,
    ) {
        dispatch!(self, v => v.store_rows(vals, data, e0))
    }

    /// [`DatView::<A>::gather_rows`](DatView::gather_rows) in the view's
    /// layout.
    #[inline(always)]
    pub fn gather_rows<R: Real, const L: usize, const K: usize>(
        &self,
        data: &[R],
        idx: IdxVec<L>,
    ) -> [VecR<R, L>; K] {
        dispatch!(self, v => v.gather_rows(data, idx))
    }

    /// [`DatView::<A>::scatter_add_rows_serial`](DatView::scatter_add_rows_serial)
    /// in the view's layout.
    #[inline(always)]
    pub fn scatter_add_rows_serial<R: Real, const L: usize, const K: usize, const T: usize>(
        &self,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
        data: &mut [R],
    ) {
        dispatch!(self, v => v.scatter_add_rows_serial(incs, data))
    }

    /// Permute `data` from this view's layout into `to`, returning the
    /// re-laid-out storage. A pure index permutation — bit-exact at any
    /// precision.
    pub fn convert<R: Real>(&self, data: &[R], to: Layout) -> Vec<R> {
        assert_eq!(data.len(), self.n * self.dim, "dat storage size mismatch");
        let mut out = vec![R::ZERO; data.len()];
        let (n, dim) = (self.n, self.dim);
        // The layout dispatch is loop-invariant; stating it outright
        // keeps the permutation loops free of it. Left to the optimizer's
        // loop unswitching of `idx`, identical source measured 8 ms in
        // one build and 13.5 ms in the next (Volna f32 274×273 round
        // trip).
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

    /// The same shape under the layout type `a`.
    fn with<A: Addressing>(&self, a: A) -> DatView<A> {
        debug_assert_eq!(self.layout, A::LAYOUT);
        DatView::new(self.n, self.dim, a)
    }
}

impl<A: Addressing> From<DatView<A>> for DatView<Layout> {
    /// The runtime view of the same shape and layout.
    fn from(v: DatView<A>) -> DatView<Layout> {
        DatView::new(v.n, v.dim, A::LAYOUT)
    }
}

impl Aos {
    /// The `K` values from `start` — one contiguous run, one bounds
    /// check, constant width.
    #[inline(always)]
    fn run<R: Real, const K: usize>(data: &[R], start: usize) -> &[R; K] {
        data[start..][..K].try_into().expect("row width")
    }

    /// Mutable [`run`](Aos::run).
    #[inline(always)]
    fn run_mut<R: Real, const K: usize>(data: &mut [R], start: usize) -> &mut [R; K] {
        (&mut data[start..][..K]).try_into().expect("row width")
    }
}

impl Addressing for Aos {
    const LAYOUT: Layout = Layout::Aos;

    #[inline(always)]
    fn idx(v: DatView<Aos>, e: usize, c: usize) -> usize {
        debug_assert!(e < v.n && c < v.dim);
        e * v.dim + c
    }

    #[inline(always)]
    fn stride<const D: usize>() -> usize {
        D
    }

    #[inline(always)]
    fn slot<const D: usize>(_: DatView<Aos>, e: usize, c: usize) -> usize {
        e * D + c
    }

    #[inline(always)]
    fn load_row<R: Real, const D: usize>(v: DatView<Aos>, data: &[R], e: usize) -> [R; D] {
        debug_assert_eq!(D, v.dim);
        *Aos::run(data, e * D)
    }

    #[inline(always)]
    fn store_row<R: Real, const D: usize>(v: DatView<Aos>, data: &mut [R], e: usize, row: &[R; D]) {
        debug_assert_eq!(D, v.dim);
        *Aos::run_mut(data, e * D) = *row;
    }

    #[inline(always)]
    fn add_row<R: Real, const D: usize>(v: DatView<Aos>, data: &mut [R], e: usize, row: &[R; D]) {
        debug_assert_eq!(D, v.dim);
        for (dst, &x) in Aos::run_mut::<R, D>(data, e * D).iter_mut().zip(row) {
            *dst += x;
        }
    }

    #[inline(always)]
    fn loadv<R: Real, const L: usize>(
        v: DatView<Aos>,
        data: &[R],
        e0: usize,
        c: usize,
    ) -> VecR<R, L> {
        if v.dim == 1 {
            VecR::load(data, e0)
        } else {
            VecR::load_strided(data, e0 * v.dim + c, v.dim)
        }
    }

    #[inline(always)]
    fn storev<R: Real, const L: usize>(
        v: DatView<Aos>,
        vals: VecR<R, L>,
        data: &mut [R],
        e0: usize,
        c: usize,
    ) {
        if v.dim == 1 {
            vals.store(data, e0)
        } else {
            vals.store_strided(data, e0 * v.dim + c, v.dim)
        }
    }

    #[inline(always)]
    fn gatherv<R: Real, const L: usize>(
        v: DatView<Aos>,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L> {
        VecR::gather(data, idx, v.dim, c)
    }

    #[inline(always)]
    fn scatter_add_serialv<R: Real, const L: usize>(
        v: DatView<Aos>,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        vals.scatter_add_serial(data, idx, v.dim, c)
    }

    #[inline(always)]
    fn load_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Aos>,
        data: &[R],
        e0: usize,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= v.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        for l in 0..L {
            let row: &[R; K] = Aos::run(data, (e0 + l) * v.dim);
            for c in 0..K {
                out[c].0[l] = row[c];
            }
        }
        out
    }

    #[inline(always)]
    fn store_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Aos>,
        vals: &[VecR<R, L>; K],
        data: &mut [R],
        e0: usize,
    ) {
        debug_assert!(K <= v.dim);
        for l in 0..L {
            let row: &mut [R; K] = Aos::run_mut(data, (e0 + l) * v.dim);
            for c in 0..K {
                row[c] = vals[c].0[l];
            }
        }
    }

    #[inline(always)]
    fn gather_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Aos>,
        data: &[R],
        idx: IdxVec<L>,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= v.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        for l in 0..L {
            let row: &[R; K] = Aos::run(data, idx.lane(l) as usize * v.dim);
            for c in 0..K {
                out[c].0[l] = row[c];
            }
        }
        out
    }

    #[inline(always)]
    fn scatter_add_rows_serial<R: Real, const L: usize, const K: usize, const T: usize>(
        v: DatView<Aos>,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
        data: &mut [R],
    ) {
        debug_assert!(K <= v.dim);
        for l in 0..L {
            for t in 0..T {
                let (vals, idx) = incs[t];
                let row: &mut [R; K] = Aos::run_mut(data, idx.lane(l) as usize * v.dim);
                for c in 0..K {
                    row[c] += vals[c].0[l];
                }
            }
        }
    }
}

impl Soa {
    /// The one bounds check of a scalar row access: element `e` exists
    /// (`e < n`) and `data` holds at least `n × D` values. Together they
    /// put every slot `c * n + e`, `c < D`, below `D × n ≤ data.len()`.
    #[inline(always)]
    fn check_row<const D: usize>(v: DatView<Soa>, len: usize, e: usize) {
        debug_assert_eq!(D, v.dim);
        if !(e < v.n && v.n <= len / D) {
            soa_row_out_of_bounds(e, v.n, D, len);
        }
    }

    /// Element `e`'s `D` components, `n` apart.
    #[inline(always)]
    fn row<R: Real, const D: usize>(v: DatView<Soa>, data: &[R], e: usize) -> [&R; D] {
        Soa::check_row::<D>(v, data.len(), e);
        // SAFETY: `check_row` checked `e < n` and `n × D ≤ data.len()`,
        // so `c * n + e < D × n` is in bounds for every `c < D`.
        std::array::from_fn(|c| unsafe { data.get_unchecked(c * v.n + e) })
    }

    /// Mutable [`row`](Soa::row).
    #[inline(always)]
    fn row_mut<R: Real, const D: usize>(v: DatView<Soa>, data: &mut [R], e: usize) -> [&mut R; D] {
        Soa::check_row::<D>(v, data.len(), e);
        let base = data.as_mut_ptr();
        // SAFETY: `check_row` checked `e < n` and `n × D ≤ data.len()`,
        // so `c * n + e < D × n` is in bounds for every `c < D`; the
        // slots lie `n ≥ 1` apart, so the `D` references are disjoint.
        std::array::from_fn(|c| unsafe { &mut *base.add(c * v.n + e) })
    }
}

/// The panic of [`DatView::rows`], out of line.
#[cold]
#[inline(never)]
#[track_caller]
fn rows_out_of_bounds(range: Range<usize>, n: usize, dim: usize, d: usize, len: usize) -> ! {
    panic!("rows {range:?} of {d} components out of bounds: {n} elements × {dim} in {len} values")
}

/// The rows of a block of consecutive elements of one dat, bounds checked
/// once when [`DatView::rows`] borrows them: row `i` is element
/// `range.start + i`. A direct loop's scalar body walks its block
/// through it, so that the element loop carries no per-row branch and
/// LLVM vectorizes it across elements, under `Soa` with one contiguous
/// run per component.
pub struct Rows<'d, R, A, const D: usize> {
    comps: [*const R; D],
    len: usize,
    _data: PhantomData<(&'d [R], A)>,
}

impl<R: Real, A: Addressing, const D: usize> Rows<'_, R, A, D> {
    /// Row `i`.
    ///
    /// # Safety
    /// `i` is below the length of the block's range. Unchecked: a check
    /// per row, even one that the loop bound makes redundant, kept LLVM
    /// from vectorizing the loop.
    #[inline(always)]
    pub unsafe fn load(&self, i: usize) -> [R; D] {
        debug_assert!(i < self.len, "row {i} of a block of {}", self.len);
        // SAFETY: `DatView::rows` checked the block, and `i < len`
        std::array::from_fn(|c| unsafe { *self.comps[c].add(i * A::stride::<D>()) })
    }
}

/// Mutable [`Rows`], from [`DatView::rows_mut`].
pub struct RowsMut<'d, R, A, const D: usize> {
    comps: [*mut R; D],
    len: usize,
    _data: PhantomData<(&'d mut [R], A)>,
}

impl<R: Real, A: Addressing, const D: usize> RowsMut<'_, R, A, D> {
    /// Row `i`.
    ///
    /// # Safety
    /// As for [`Rows::load`].
    #[inline(always)]
    pub unsafe fn load(&self, i: usize) -> [R; D] {
        debug_assert!(i < self.len, "row {i} of a block of {}", self.len);
        // SAFETY: `DatView::rows_mut` checked the block, and `i < len`
        std::array::from_fn(|c| unsafe { *self.comps[c].add(i * A::stride::<D>()) })
    }

    /// Store `row` as row `i`.
    ///
    /// # Safety
    /// As for [`Rows::load`].
    #[inline(always)]
    pub unsafe fn store(&mut self, i: usize, row: &[R; D]) {
        debug_assert!(i < self.len, "row {i} of a block of {}", self.len);
        for (p, &x) in self.comps.iter().zip(row) {
            // SAFETY: as in `load`; the block borrows `data` mutably
            unsafe { *p.add(i * A::stride::<D>()) = x };
        }
    }
}

/// The panic of [`Soa::check_row`], out of line: formatting its message
/// in place spilled the arguments to the stack on every row.
#[cold]
#[inline(never)]
#[track_caller]
fn soa_row_out_of_bounds(e: usize, n: usize, dim: usize, len: usize) -> ! {
    panic!("soa row {e} out of bounds: {n} elements × {dim} components in {len} values")
}

impl Addressing for Soa {
    const LAYOUT: Layout = Layout::Soa;

    #[inline(always)]
    fn idx(v: DatView<Soa>, e: usize, c: usize) -> usize {
        debug_assert!(e < v.n && c < v.dim);
        c * v.n + e
    }

    #[inline(always)]
    fn stride<const D: usize>() -> usize {
        1
    }

    #[inline(always)]
    fn slot<const D: usize>(v: DatView<Soa>, e: usize, c: usize) -> usize {
        c * v.n + e
    }

    #[inline(always)]
    fn load_row<R: Real, const D: usize>(v: DatView<Soa>, data: &[R], e: usize) -> [R; D] {
        Soa::row::<R, D>(v, data, e).map(|x| *x)
    }

    #[inline(always)]
    fn store_row<R: Real, const D: usize>(v: DatView<Soa>, data: &mut [R], e: usize, row: &[R; D]) {
        for (dst, &x) in Soa::row_mut::<R, D>(v, data, e).into_iter().zip(row) {
            *dst = x;
        }
    }

    #[inline(always)]
    fn add_row<R: Real, const D: usize>(v: DatView<Soa>, data: &mut [R], e: usize, row: &[R; D]) {
        for (dst, &x) in Soa::row_mut::<R, D>(v, data, e).into_iter().zip(row) {
            *dst += x;
        }
    }

    #[inline(always)]
    fn loadv<R: Real, const L: usize>(
        v: DatView<Soa>,
        data: &[R],
        e0: usize,
        c: usize,
    ) -> VecR<R, L> {
        VecR::load(data, c * v.n + e0)
    }

    #[inline(always)]
    fn storev<R: Real, const L: usize>(
        v: DatView<Soa>,
        vals: VecR<R, L>,
        data: &mut [R],
        e0: usize,
        c: usize,
    ) {
        vals.store(data, c * v.n + e0)
    }

    #[inline(always)]
    fn gatherv<R: Real, const L: usize>(
        v: DatView<Soa>,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L> {
        let col = &data[c * v.n..(c + 1) * v.n];
        // a consecutive run moves the same bits with a contiguous load
        // as with the hardware gather, at a fraction of the latency
        match idx.consecutive_base() {
            Some(b) if b >= 0 && b as usize + L <= col.len() => VecR::load(col, b as usize),
            _ => VecR::gather(col, idx, 1, 0),
        }
    }

    #[inline(always)]
    fn scatter_add_serialv<R: Real, const L: usize>(
        v: DatView<Soa>,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        let col = &mut data[c * v.n..(c + 1) * v.n];
        // consecutive lanes never collide, so a packed load-add-store
        // accumulates bit-identically to the ascending-lane serial order
        match idx.consecutive_base() {
            Some(b) if b >= 0 && b as usize + L <= col.len() => {
                let cur = VecR::<R, L>::load(col, b as usize);
                (cur + vals).store(col, b as usize);
            }
            _ => vals.scatter_add_serial(col, idx, 1, 0),
        }
    }

    #[inline(always)]
    fn load_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Soa>,
        data: &[R],
        e0: usize,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= v.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        for c in 0..K {
            out[c] = Soa::loadv(v, data, e0, c);
        }
        out
    }

    #[inline(always)]
    fn store_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Soa>,
        vals: &[VecR<R, L>; K],
        data: &mut [R],
        e0: usize,
    ) {
        debug_assert!(K <= v.dim);
        for c in 0..K {
            Soa::storev(v, vals[c], data, e0, c);
        }
    }

    #[inline(always)]
    fn gather_rows<R: Real, const L: usize, const K: usize>(
        v: DatView<Soa>,
        data: &[R],
        idx: IdxVec<L>,
    ) -> [VecR<R, L>; K] {
        debug_assert!(K <= v.dim);
        let mut out = [VecR::<R, L>::zero(); K];
        for c in 0..K {
            out[c] = Soa::gatherv(v, data, idx, c);
        }
        out
    }

    #[inline(always)]
    fn scatter_add_rows_serial<R: Real, const L: usize, const K: usize, const T: usize>(
        v: DatView<Soa>,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
        data: &mut [R],
    ) {
        debug_assert!(K <= v.dim);
        for t in 0..T {
            let (vals, idx) = incs[t];
            for c in 0..K {
                Soa::scatter_add_serialv(v, vals[c], data, idx, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aos_data(n: usize, dim: usize) -> Vec<f64> {
        // value encodes (e, c) so permutation mistakes are visible
        let mut d = vec![0.0; n * dim];
        let v = DatView::new(n, dim, Aos);
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
        let v = DatView::new(n, dim, Soa);
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
    /// (and both against plain `idx` indexing), at one `(A, R, L, K)`.
    fn check_row_accessors<A: Addressing, R: Real, const L: usize, const K: usize>(dim: usize) {
        let n = 22;
        let view = DatView::new(n, dim, A::default());
        let tag = format!("{:?} dim={dim} K={K} L={L}", A::LAYOUT);
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
            ($layout:ty, $dim:expr, $($k:literal),+) => {$(
                check_row_accessors::<$layout, f64, 4, $k>($dim);
                check_row_accessors::<$layout, f64, 8, $k>($dim);
                check_row_accessors::<$layout, f32, 4, $k>($dim);
                check_row_accessors::<$layout, f32, 8, $k>($dim);
            )+};
        }
        check!(Aos, 1, 1);
        check!(Aos, 2, 1, 2);
        check!(Aos, 4, 1, 2, 3, 4);
        check!(Soa, 1, 1);
        check!(Soa, 2, 1, 2);
        check!(Soa, 4, 1, 2, 3, 4);
    }

    /// Rounding-sensitive stored values and increments: `1e16`-scale
    /// entries next to fractions, so an increment landing on the wrong
    /// slot, twice, or in another order changes the bits.
    fn sensitive<R: Real>(i: usize) -> R {
        let mag = [1e16, 0.1, -3.7e-5, 2.5e15, 1.0 / 3.0][i % 5];
        R::from_f64(mag * (1.0 + i as f64 * 1e-3))
    }

    /// The scalar row and row-block accessors of one layout type against
    /// plain [`DatView::idx`] addressing, compared bit for bit.
    fn check_accessors_against_idx<A: Addressing, R: Real, const L: usize>() {
        const D: usize = 4;
        let n = 19;
        let view = DatView::new(n, D, A::default());
        let tag = format!("{:?} L={L} R={}B", A::LAYOUT, R::BYTES);
        let bits = |d: &[R]| d.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        let data: Vec<R> = (0..n * D).map(sensitive).collect();
        let row: [R; D] = std::array::from_fn(|c| sensitive(7 * c + 3));
        for e in 0..n {
            let got: [R; D] = view.load_row(&data, e);
            let want: [R; D] = std::array::from_fn(|c| data[view.idx(e, c)]);
            assert_eq!(bits(&got), bits(&want), "{tag} load_row e={e}");

            let (mut got, mut want) = (data.clone(), data.clone());
            view.store_row(&mut got, e, &row);
            for c in 0..D {
                want[view.idx(e, c)] = row[c];
            }
            assert_eq!(bits(&got), bits(&want), "{tag} store_row e={e}");

            let (mut got, mut want) = (data.clone(), data.clone());
            view.add_row(&mut got, e, &row);
            for c in 0..D {
                let i = view.idx(e, c);
                want[i] += row[c];
            }
            assert_eq!(bits(&got), bits(&want), "{tag} add_row e={e}");
        }
        // blocks of rows, the empty one past the last element included
        for (s, e) in [(0, n), (0, 7), (7, n), (5, 6), (n, n)] {
            let rows: Rows<R, A, D> = view.rows(&data, s..e);
            let mut got = data.clone();
            let mut block: RowsMut<R, A, D> = view.rows_mut(&mut got, s..e);
            for i in 0..e - s {
                // SAFETY: `i` is below the length of both blocks' range
                let (r, b) = unsafe { (rows.load(i), block.load(i)) };
                let want: [R; D] = view.load_row(&data, s + i);
                assert_eq!(bits(&r), bits(&want), "{tag} rows {s}..{e} load {i}");
                assert_eq!(bits(&b), bits(&want), "{tag} rows_mut {s}..{e} load {i}");
                unsafe { block.store(i, &row) };
            }
            let mut want = data.clone();
            for el in s..e {
                view.store_row(&mut want, el, &row);
            }
            assert_eq!(bits(&got), bits(&want), "{tag} rows_mut {s}..{e} store");
        }
        let vals: [VecR<R, L>; D] =
            std::array::from_fn(|c| VecR::from_fn(|l| sensitive(11 * l + c + 1)));
        for e0 in 0..=n - L {
            let got: [VecR<R, L>; D] = view.load_rows(&data, e0);
            for c in 0..D {
                let want: [R; L] = std::array::from_fn(|l| data[view.idx(e0 + l, c)]);
                assert_eq!(bits(&got[c].to_array()), bits(&want), "{tag} load_rows");
            }
            let (mut got, mut want) = (data.clone(), data.clone());
            view.store_rows(&vals, &mut got, e0);
            for l in 0..L {
                for c in 0..D {
                    want[view.idx(e0 + l, c)] = vals[c].lane(l);
                }
            }
            assert_eq!(bits(&got), bits(&want), "{tag} store_rows e0={e0}");
        }
        // one target per lane, lanes colliding on element 3: both layouts
        // land the lanes in ascending order
        let pat: [usize; 8] = [18, 3, 3, 0, 3, 11, 12, 5];
        let idx = IdxVec::<L>::from_array(std::array::from_fn(|l| pat[l] as i32));
        let got: [VecR<R, L>; D] = view.gather_rows(&data, idx);
        for c in 0..D {
            let want: [R; L] = std::array::from_fn(|l| data[view.idx(pat[l], c)]);
            assert_eq!(bits(&got[c].to_array()), bits(&want), "{tag} gather_rows");
        }
        let (mut got, mut want) = (data.clone(), data.clone());
        view.scatter_add_rows_serial([(&vals, idx)], &mut got);
        for l in 0..L {
            for c in 0..D {
                let i = view.idx(pat[l], c);
                want[i] += vals[c].lane(l);
            }
        }
        assert_eq!(bits(&got), bits(&want), "{tag} scatter_add_rows_serial");
    }

    /// A block of rows is checked when it is borrowed: a range past `n`,
    /// a reversed range, a row width other than `dim` and storage shorter
    /// than `n × dim` all panic there, under both layouts.
    #[test]
    fn rows_check_the_block_when_borrowed() {
        fn panics(f: impl FnOnce()) -> bool {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        }
        fn check<A: Addressing>() {
            let view = DatView::new(5, 4, A::default());
            let data = vec![0.0f64; 20];
            assert!(!panics(|| {
                let _ = view.rows::<f64, 4>(&data, 0..5);
            }));
            assert!(panics(|| {
                let _ = view.rows::<f64, 4>(&data, 2..6);
            }));
            #[allow(clippy::reversed_empty_ranges)]
            let reversed = 3..2;
            assert!(panics(|| {
                let _ = view.rows::<f64, 4>(&data, reversed);
            }));
            assert!(panics(|| {
                let _ = view.rows::<f64, 2>(&data, 0..5);
            }));
            assert!(panics(|| {
                let _ = view.rows::<f64, 4>(&data[..19], 0..1);
            }));
            let mut short = vec![0.0f64; 19];
            assert!(panics(|| {
                let _ = view.rows_mut::<f64, 4>(&mut short, 0..1);
            }));
        }
        check::<Aos>();
        check::<Soa>();
    }

    #[test]
    fn scalar_and_block_accessors_match_idx_addressing_bit_for_bit() {
        check_accessors_against_idx::<Aos, f64, 4>();
        check_accessors_against_idx::<Aos, f32, 8>();
        check_accessors_against_idx::<Soa, f64, 4>();
        check_accessors_against_idx::<Soa, f32, 8>();
    }

    // The SoA scalar row accessors check bounds once per row: `e < n`
    // and storage of at least `n × dim` values. Each half of that check
    // has to stop every accessor on its own. The short storage is one
    // value short and the row the last one, so the row's last component
    // would read or write past the end.

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_load_row_panics_past_the_last_element() {
        let _: [f64; 4] = DatView::new(6, 4, Soa).load_row(&[0.0; 24], 6);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_load_row_panics_on_short_storage() {
        let _: [f64; 4] = DatView::new(6, 4, Soa).load_row(&[0.0; 23], 5);
    }

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_store_row_panics_past_the_last_element() {
        DatView::new(6, 4, Soa).store_row(&mut [0.0; 24], 6, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_store_row_panics_on_short_storage() {
        DatView::new(6, 4, Soa).store_row(&mut [0.0; 23], 5, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_add_row_panics_past_the_last_element() {
        DatView::new(6, 4, Soa).add_row(&mut [0.0; 24], 6, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_add_row_panics_on_short_storage() {
        DatView::new(6, 4, Soa).add_row(&mut [0.0; 23], 5, &[1.0f64; 4]);
    }

    #[test]
    fn aos_row_scatter_lands_in_the_scalar_loops_order() {
        // two targets per lane, lanes colliding across targets: element 1
        // is lane 0's second target and lane 1's first. The scalar loop
        // lands lane 0 whole, then lane 1; magnitudes are chosen so any
        // other order rounds differently.
        let view = DatView::new(4, 2, Aos);
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

    fn check_rows_panic_out_of_range<A: Addressing + std::panic::RefUnwindSafe>() {
        use std::panic::catch_unwind;
        let layout = A::LAYOUT;
        let view = DatView::new(6, 4, A::default());
        let data = vec![0.0f64; 24];
        for bad in [6, -1] {
            let idx = IdxVec::<4>::from_array([0, 5, bad, 1]);
            let gathered = catch_unwind(|| -> [VecR<f64, 4>; 4] { view.gather_rows(&data, idx) });
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

    #[test]
    fn row_accessors_panic_on_an_out_of_range_index() {
        check_rows_panic_out_of_range::<Aos>();
        check_rows_panic_out_of_range::<Soa>();
    }

    fn check_rows_round_trip<A: Addressing>() {
        let (n, dim) = (7, 4);
        let layout = A::LAYOUT;
        let view = DatView::new(n, dim, A::default());
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

    #[test]
    fn rows_round_trip_for_every_layout() {
        check_rows_round_trip::<Aos>();
        check_rows_round_trip::<Soa>();
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
