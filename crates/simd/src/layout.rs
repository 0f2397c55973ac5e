//! Storage layouts for set data, and [`DatRef`], the one handle through
//! which a recorded loop body reaches a dat.
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
//! A layout is named by a type behind [`Addressing`]: the zero-sized
//! [`Aos`] and [`Soa`], or the runtime [`Layout`] an `OpDat` stores. A
//! [`DatView<A>`] is a dat's shape, `(n, dim)` addressed as `A` says. A
//! [`DatRef`] is a dat as a loop body sees it, like the pointer OP2's
//! `op_par_loop` hands a kernel for each `op_arg`: the storage's base
//! pointer, its view, and an access type, [`ReadOnly`] or [`Writable`].
//! Every row accessor is written once, on that pointer, and touches
//! exactly the values it moves. As OP2's generated code fixes each dat's
//! layout when it emits a loop, the recording is instantiated per layout
//! type, and the handles of a recording test no layout at run time. A
//! handle over the runtime `Layout` dispatches once per access; code
//! outside the recordings addresses dats that way, and so do Airfoil's
//! `L`-lane chunk bodies, because that is the form LLVM vectorizes best
//! for them ([`load_rows`](DatRef::load_rows) has the measurement).
//!
//! The vector bodies move whole rows of `L` elements at once
//! ([`DatRef::load_rows`] and its three siblings): under `Aos` an
//! element's components are one contiguous run, so a row block is `L`
//! row moves and an in-register transpose (the paper's AVX back end
//! keeps AoS for exactly that reason); under `Soa` it is one contiguous
//! [`VecR::load`]/[`VecR::store`] per component.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{AddAssign, Range};

use crate::mem::index_out_of_bounds;
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

/// What a view or handle addresses its storage by: a layout type
/// ([`Aos`], [`Soa`], [`Flat`]), whose accessors test no layout at run
/// time, or the runtime [`Layout`], whose accessors dispatch on it.
pub trait Addressing: Copy + Debug + Eq + Send + Sync + 'static {
    /// Components per element, if the type fixes it.
    const DIM: Option<usize> = None;
    /// The layout addressed: a constant for a layout type.
    fn layout(self) -> Layout;
}

/// Array-of-structures addressing, `data[e*dim + c]`: an element's row
/// is one contiguous run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Aos;

/// Structure-of-arrays addressing, `data[c*n + e]`: one component of
/// consecutive elements is one contiguous run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Soa;

/// The addressing of a one-component dat, whose storage is one run of
/// `n` values in every layout: a handle typed `Flat` tests neither the
/// layout nor the component count. Reduction slots, and the
/// [`column`](DatRef::column)s of one-component dats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Flat;

impl Addressing for Flat {
    const DIM: Option<usize> = Some(1);

    #[inline(always)]
    fn layout(self) -> Layout {
        Layout::Aos
    }
}

impl Addressing for Aos {
    #[inline(always)]
    fn layout(self) -> Layout {
        Layout::Aos
    }
}

impl Addressing for Soa {
    #[inline(always)]
    fn layout(self) -> Layout {
        Layout::Soa
    }
}

impl Addressing for Layout {
    #[inline(always)]
    fn layout(self) -> Layout {
        self
    }
}

/// The shape of one dataset's storage — `n` elements of `dim`
/// components addressed as `A` says — without the data. `A` is a layout
/// type ([`Aos`], [`Soa`]) for a recording's handles, or the runtime
/// [`Layout`] (the default) for the view an `OpDat` hands out.
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
        debug_assert!(e < self.n && c < self.dim);
        match self.layout.layout() {
            Layout::Aos => e * self.dim + c,
            Layout::Soa => c * self.n + e,
        }
    }

    /// The storage ranges that hold the elements `rows`: one run under
    /// `Aos`, one run per component under `Soa`.
    pub fn spans(&self, rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
        let (runs, width, gap) = match self.layout.layout() {
            Layout::Aos => (1, self.dim, 0),
            Layout::Soa => (self.dim, 1, self.n),
        };
        (0..runs).map(move |c| c * gap + rows.start * width..c * gap + rows.end * width)
    }

    /// The same shape under the runtime layout.
    pub fn runtime(self) -> DatView {
        DatView::new(self.n, self.dim, self.layout.layout())
    }
}

impl DatView<Layout> {
    /// This view typed for `A`, if `A` addresses its layout (and its
    /// component count, if `A` fixes one).
    pub fn typed<A: Addressing + Default>(self) -> Option<DatView<A>> {
        let fits = self.layout == A::default().layout() && A::DIM.is_none_or(|d| d == self.dim);
        fits.then(|| DatView::new(self.n, self.dim, A::default()))
    }

    /// Map-driven vector gather of component `c` of `data` stored as this
    /// view says: [`DatRef::gatherv`].
    #[inline(always)]
    pub fn gatherv<R: Real, const L: usize>(
        &self,
        data: &[R],
        idx: IdxVec<L>,
        c: usize,
    ) -> VecR<R, L> {
        DatRef::new(data, *self).gatherv(idx, c)
    }

    /// Serialized accumulating vector scatter of component `c` into
    /// `data` stored as this view says: [`DatRef::scatter_add_serialv`].
    #[inline(always)]
    pub fn scatter_add_serialv<R: Real, const L: usize>(
        &self,
        vals: VecR<R, L>,
        data: &mut [R],
        idx: IdxVec<L>,
        c: usize,
    ) {
        // SAFETY: the handle lives for this one call on this thread
        unsafe { DatRef::new_mut(data, *self) }.scatter_add_serialv(vals, idx, c)
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
}

/// Access type of a [`DatRef`] that only reads: built from `&[R]`, or
/// by [`DatRef::read`].
#[derive(Clone, Copy, Debug)]
pub struct ReadOnly;

/// Access type of a [`DatRef`] built from `&mut [R]`: it reads, and has
/// the write accessors besides.
#[derive(Clone, Copy, Debug)]
pub struct Writable;

/// One dat as a loop body reaches it: the base pointer of its storage,
/// its [`DatView`] and an access type `M`, [`ReadOnly`] or [`Writable`].
/// It is `Copy`, `Send` and `Sync`, so every body a chain runs on its
/// pool's threads may hold it, and every accessor is implemented on the
/// raw pointer: none borrows more than the values it moves, so two
/// threads' accesses to different rows of one dat never alias.
///
/// # The shared-write contract
///
/// A writable handle is `Copy` and `Send`, so several threads may hold
/// it at once; what keeps their accesses apart is one contract: *no
/// value is written through a handle while another access running at
/// the same time reads or writes it*. Building a writable handle
/// ([`DatRef::new_mut`], [`DatRef::flat_mut`]) is `unsafe` because its
/// caller takes the contract on for every copy of the handle; the write
/// accessors are then safe to call, as an `op_par_loop` kernel writes
/// through its arguments without ceremony. Under the executors of
/// `ump_lazy` the contract splits in two. A recording keeps its side:
/// a **direct** body writes only its own element's rows (a vector body
/// only rows `cs..cs + lanes`), an **increment** body only the rows its
/// element reaches through the loop's written maps, and a dat a group
/// writes is read only at those same rows. The executor keeps the other:
/// blocks are disjoint element ranges, blocks that reach a common row
/// through a written map get different colors, only blocks of one color
/// run at once, and every round ends in a barrier, so every write
/// happens-before the next round and before `execute` returns. Each
/// `unsafe` block of this type relies on exactly that, plus the bounds
/// check in front of it; nothing outside the type reaches the pointer
/// except through the three `unsafe` slice methods. A handle used by one
/// thread at a time keeps the contract trivially, as `&mut [R]` would.
///
/// Only the writable form has write methods, so a store through a handle
/// built from `&[R]` does not compile:
///
/// ```compile_fail
/// use ump_simd::{Aos, DatRef, DatView};
///
/// let data = vec![0.0f64; 8];
/// let q = DatRef::new(&data, DatView::new(2, 4, Aos));
/// q.store_row(0, &[1.0; 4]);
/// ```
pub struct DatRef<'d, R, M, A = Layout> {
    ptr: *mut R,
    len: usize,
    view: DatView<A>,
    _access: PhantomData<(&'d [R], M)>,
}

impl<R, M, A: Copy> Clone for DatRef<'_, R, M, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R, M, A: Copy> Copy for DatRef<'_, R, M, A> {}

// SAFETY: `ptr` and `len` are a slice borrowed for `'d`, `view` and the
// access marker are plain values. Sent to another thread, the handle
// reads and writes `R`s there (`R: Send + Sync`), as `&[R]` / `&mut [R]`
// would; what it adds is writes shared between threads, which the
// shared-write contract above keeps apart.
unsafe impl<R: Send + Sync, M, A: Send> Send for DatRef<'_, R, M, A> {}
// SAFETY: as for `Send`.
unsafe impl<R: Send + Sync, M, A: Sync> Sync for DatRef<'_, R, M, A> {}

impl<'d, R, A: Addressing> DatRef<'d, R, ReadOnly, A> {
    /// A read-only handle of `data`, stored as `view` says.
    pub fn new(data: &'d [R], view: DatView<A>) -> DatRef<'d, R, ReadOnly, A> {
        DatRef {
            ptr: data.as_ptr().cast_mut(),
            len: data.len(),
            view,
            _access: PhantomData,
        }
    }
}

impl<'d, R, A: Addressing> DatRef<'d, R, Writable, A> {
    /// A writable handle of `data`, stored as `view` says.
    ///
    /// # Safety
    /// The caller keeps the [shared-write contract](DatRef#the-shared-write-contract)
    /// for the handle and every copy of it, for as long as any lives: no
    /// value is written through one while another access running at the
    /// same time reads or writes it.
    pub unsafe fn new_mut(data: &'d mut [R], view: DatView<A>) -> DatRef<'d, R, Writable, A> {
        DatRef {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            view,
            _access: PhantomData,
        }
    }

    /// The read-only form of this handle.
    #[inline(always)]
    pub fn read(self) -> DatRef<'d, R, ReadOnly, A> {
        DatRef {
            ptr: self.ptr,
            len: self.len,
            view: self.view,
            _access: PhantomData,
        }
    }
}

impl<'d, R> DatRef<'d, R, Writable, Flat> {
    /// A writable handle of a plain array of values — reduction slots,
    /// or any buffer without rows: `data.len()` elements of one
    /// component.
    ///
    /// # Safety
    /// As for [`DatRef::new_mut`].
    pub unsafe fn flat_mut(data: &'d mut [R]) -> DatRef<'d, R, Writable, Flat> {
        let n = data.len();
        // SAFETY: the caller takes the contract on
        unsafe { DatRef::new_mut(data, DatView::new(n, 1, Flat)) }
    }
}

impl<'d, R: Copy, M, A: Addressing> DatRef<'d, R, M, A> {
    /// The handle's shape.
    #[inline(always)]
    pub fn view(&self) -> DatView<A> {
        self.view
    }

    /// Values of the storage.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the storage holds no value.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The same handle under the runtime layout: its accessors dispatch
    /// on the layout once per access.
    #[inline(always)]
    pub fn runtime(self) -> DatRef<'d, R, M, Layout> {
        self.with(self.view.runtime())
    }

    /// The handle of a one-component dat typed [`Flat`]: its storage is
    /// one run of `n` values in every layout, so its accessors test no
    /// layout. Panics if the dat has another component count.
    pub fn column(self) -> DatRef<'d, R, M, Flat> {
        assert_eq!(
            self.view.dim, 1,
            "column() of a {}-component dat",
            self.view.dim
        );
        self.with(DatView::new(self.view.n, 1, Flat))
    }

    /// Components per element: a constant if `A` fixes it.
    #[inline(always)]
    fn dim(&self) -> usize {
        A::DIM.unwrap_or(self.view.dim)
    }

    fn with<B>(self, view: DatView<B>) -> DatRef<'d, R, M, B> {
        DatRef {
            ptr: self.ptr,
            len: self.len,
            view,
            _access: PhantomData,
        }
    }

    /// The whole storage as a slice.
    ///
    /// # Safety
    /// No thread writes any of it while the slice lives.
    #[inline(always)]
    pub unsafe fn as_slice(&self) -> &'d [R] {
        // SAFETY: the handle borrows `len` values for `'d`; the caller
        // rules out concurrent writes
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The storage values `start..start + len` as a slice.
    ///
    /// # Safety
    /// No thread writes any of them while the slice lives.
    #[inline(always)]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &'d [R] {
        self.check_run(start, len);
        // SAFETY: the run lies in the storage; the caller rules out
        // concurrent writes
        unsafe { std::slice::from_raw_parts(self.ptr.add(start), len) }
    }

    /// The one bounds check of a run of `k` values from `start`, in the
    /// two steps slicing `[start..][..k]` takes: one branch each, where
    /// one condition of both cost LLVM a flag and a test per row.
    #[inline(always)]
    fn check_run(&self, start: usize, k: usize) {
        let Some(rest) = self.len.checked_sub(start) else {
            range_out_of_bounds(start, start.wrapping_add(k), self.len)
        };
        if k > rest {
            range_out_of_bounds(start, start.wrapping_add(k), self.len);
        }
    }

    /// The one bounds check of the values `start..end`, in the form
    /// slicing `[start..end]` takes: the vector moves and the `Soa`
    /// columns keep the checks the slices they replace had.
    #[inline(always)]
    fn check_range(&self, start: usize, end: usize) {
        if start > end || end > self.len {
            range_out_of_bounds(start, end, self.len);
        }
    }

    /// Where the `K` values from storage index `start` lie, checked.
    #[inline(always)]
    fn run<const K: usize>(&self, start: usize) -> *mut [R; K] {
        self.check_run(start, K);
        // SAFETY: `start ≤ len`: in the storage, or one past its end
        unsafe { self.ptr.add(start).cast() }
    }

    /// Where element `e`'s first component lies under `Soa`, checked: `e
    /// < n` and the storage holds at least `n × D` values, which put
    /// every slot `c * n + e`, `c < D`, below `D × n ≤ len`.
    #[inline(always)]
    fn soa_row<const D: usize>(&self, e: usize) -> *mut R {
        debug_assert_eq!(D, self.dim());
        let n = self.view.n;
        if e >= n {
            soa_row_out_of_bounds(e, n, D, self.len);
        }
        if n > self.len / D {
            soa_row_out_of_bounds(e, n, D, self.len);
        }
        // SAFETY: `e < n ≤ len`
        unsafe { self.ptr.add(e) }
    }

    /// Copy element `e`'s components into a local row array (`D ==
    /// dim`).
    #[inline(always)]
    pub fn load_row<const D: usize>(&self, e: usize) -> [R; D] {
        match self.view.layout.layout() {
            Layout::Aos => {
                debug_assert_eq!(D, self.dim());
                // SAFETY: `run` checked the row (the contract: no
                // concurrent writer)
                unsafe { self.run::<D>(e * D).read() }
            }
            Layout::Soa => {
                let (p, n) = (self.soa_row::<D>(e), self.view.n);
                // SAFETY: `soa_row` checked every component's slot
                std::array::from_fn(|c| unsafe { p.add(c * n).read() })
            }
        }
    }

    /// The rows of the elements of `block` (`D == dim`), bounds checked
    /// once here instead of at every row.
    #[inline(always)]
    pub fn rows<'b, const D: usize>(&self, block: Block<'b>) -> Rows<'b, 'd, R, A, D> {
        Rows {
            comps: self.block::<D>(block).map(|p| p.cast_const()),
            layout: self.view.layout,
            _rows: PhantomData,
        }
    }

    /// Where each component of `block`'s first element lies: the one
    /// bounds check of a [`Rows`] block.
    #[inline(always)]
    fn block<const D: usize>(&self, block: Block<'_>) -> [*mut R; D] {
        let (n, dim) = (self.view.n, self.dim());
        let Block { start, len, .. } = block;
        // `D == dim` and `n × D ≤ len` put every slot of an element below
        // `n` inside the storage under either layout
        if !(D == dim && len <= n && start <= n - len && n <= self.len / D) {
            rows_out_of_bounds(start..start + len, n, dim, D, self.len);
        }
        // `wrapping_add`: an empty block at `start == n` may point one row
        // past the end under `Aos`; no access reaches it
        std::array::from_fn(|c| {
            self.ptr.wrapping_add(match self.view.layout.layout() {
                Layout::Aos => start * D + c,
                Layout::Soa => c * n + start,
            })
        })
    }
}

impl<R: Real, M, A: Addressing> DatRef<'_, R, M, A> {
    /// The `L` values from storage index `start` as one vector.
    #[inline(always)]
    fn vload<const L: usize>(&self, start: usize) -> VecR<R, L> {
        self.check_range(start, start + L);
        // SAFETY: checked run of exactly the values loaded
        VecR::load(
            unsafe { std::slice::from_raw_parts(self.ptr.add(start), L) },
            0,
        )
    }

    /// The value at storage index `i`, checked.
    #[inline(always)]
    fn at(&self, i: usize) -> R {
        if i >= self.len {
            index_out_of_bounds(i, self.len);
        }
        // SAFETY: `i < len`
        unsafe { self.ptr.add(i).read() }
    }

    /// Vector load of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn loadv<const L: usize>(&self, e0: usize, c: usize) -> VecR<R, L> {
        let (n, dim) = (self.view.n, self.dim());
        match self.view.layout.layout() {
            Layout::Aos if dim == 1 => self.vload(e0),
            Layout::Aos => VecR::from_fn(|l| self.at((e0 + l) * dim + c)),
            Layout::Soa => self.vload(c * n + e0),
        }
    }

    /// Map-driven vector gather of component `c`: lane `k` reads element
    /// `idx[k]`.
    #[inline(always)]
    pub fn gatherv<const L: usize>(&self, idx: IdxVec<L>, c: usize) -> VecR<R, L> {
        match self.view.layout.layout() {
            // SAFETY: the handle's storage is `len` values
            Layout::Aos => unsafe { VecR::gather_raw(self.ptr, self.len, idx, self.dim(), c) },
            Layout::Soa => self.soa_gatherv(idx, c),
        }
    }

    /// Where component `c`'s run of `n` values starts under `Soa`,
    /// checked, and `n`.
    #[inline(always)]
    fn soa_column(&self, c: usize) -> (*mut R, usize) {
        let n = self.view.n;
        self.check_range(c * n, (c + 1) * n);
        // SAFETY: `c × n ≤ len`
        (unsafe { self.ptr.add(c * n) }, n)
    }

    /// [`gatherv`](DatRef::gatherv) under `Soa`.
    #[inline(always)]
    fn soa_gatherv<const L: usize>(&self, idx: IdxVec<L>, c: usize) -> VecR<R, L> {
        let (col, n) = self.soa_column(c);
        // a consecutive run moves the same bits with a contiguous load as
        // with the hardware gather, at a fraction of the latency
        match idx.consecutive_base() {
            Some(b) if b >= 0 && b as usize + L <= n => {
                // SAFETY: values `b..b + L` of the column
                VecR::load(
                    unsafe { std::slice::from_raw_parts(col.add(b as usize), L) },
                    0,
                )
            }
            // SAFETY: the column is `n` values of the storage
            _ => unsafe { VecR::gather_raw(col, n, idx, 1, 0) },
        }
    }

    /// Components `0..K` of elements `e0..e0+L`, one vector per
    /// component (`K ≤ dim`). Under `Aos` that is `L` row loads and a
    /// transpose that stays in registers.
    ///
    /// Airfoil's vector chunk bodies move rows through handles of the
    /// runtime layout, one dispatch per access, although the step
    /// dispatched the layout already: with both arms in the body, LLVM
    /// computes its `res_calc` kernel in lane vectors between the AoS row
    /// transposes. Given the AoS arm alone it computes the kernel one
    /// lane at a time along the row's components instead, and
    /// single-thread `simd4` `res_calc` measured 0.82–0.86 of `seq`'s
    /// against 0.62–0.69 (`simd4_res_calc_beats_seq_per_core`, 600×300).
    #[inline(always)]
    pub fn load_rows<const L: usize, const K: usize>(&self, e0: usize) -> [VecR<R, L>; K] {
        let (n, dim) = (self.view.n, self.dim());
        debug_assert!(K <= dim);
        let mut out = [VecR::<R, L>::zero(); K];
        match self.view.layout.layout() {
            Layout::Aos => {
                for l in 0..L {
                    // SAFETY: `run` checked the row
                    let row: &[R; K] = unsafe { &*self.run((e0 + l) * dim) };
                    for c in 0..K {
                        out[c].0[l] = row[c];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    out[c] = self.vload(c * n + e0);
                }
            }
        }
        out
    }

    /// Map-driven row gather: lane `l` of vector `c` is component `c` of
    /// element `idx[l]` (`K ≤ dim`). Under `Aos` each lane is one row
    /// load.
    #[inline(always)]
    pub fn gather_rows<const L: usize, const K: usize>(&self, idx: IdxVec<L>) -> [VecR<R, L>; K] {
        let dim = self.dim();
        debug_assert!(K <= dim);
        let mut out = [VecR::<R, L>::zero(); K];
        match self.view.layout.layout() {
            Layout::Aos => {
                for l in 0..L {
                    // SAFETY: `run` checked the row
                    let row: &[R; K] = unsafe { &*self.run(idx.lane(l) as usize * dim) };
                    for c in 0..K {
                        out[c].0[l] = row[c];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    out[c] = self.soa_gatherv(idx, c);
                }
            }
        }
        out
    }
}

impl<R: Copy, A: Addressing> DatRef<'_, R, Writable, A> {
    /// The storage values `start..start + len` as a mutable slice.
    ///
    /// # Safety
    /// No other thread reads or writes any of them while the slice lives.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [R] {
        self.check_run(start, len);
        // SAFETY: the run lies in the storage; the caller rules out
        // concurrent access
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// Store a local row array as element `e`'s components.
    #[inline(always)]
    pub fn store_row<const D: usize>(&self, e: usize, row: &[R; D]) {
        match self.view.layout.layout() {
            Layout::Aos => {
                debug_assert_eq!(D, self.dim());
                // SAFETY: `run` checked the row; the contract keeps other
                // bodies off it
                unsafe { self.run::<D>(e * D).write(*row) }
            }
            Layout::Soa => {
                let (p, n) = (self.soa_row::<D>(e), self.view.n);
                for (c, &x) in row.iter().enumerate() {
                    // SAFETY: `soa_row` checked every component's slot
                    unsafe { p.add(c * n).write(x) };
                }
            }
        }
    }
}

impl<'d, R: Copy, A: Addressing> DatRef<'d, R, Writable, A> {
    /// Mutable [`rows`](DatRef::rows).
    #[inline(always)]
    pub fn rows_mut<'b, const D: usize>(&self, block: Block<'b>) -> RowsMut<'b, 'd, R, A, D> {
        RowsMut {
            comps: self.block::<D>(block),
            layout: self.view.layout,
            _rows: PhantomData,
        }
    }
}

impl<R: Copy + AddAssign, A: Addressing> DatRef<'_, R, Writable, A> {
    /// Accumulate a local row array into element `e`'s components (the
    /// colored-increment application).
    #[inline(always)]
    pub fn add_row<const D: usize>(&self, e: usize, row: &[R; D]) {
        match self.view.layout.layout() {
            Layout::Aos => {
                debug_assert_eq!(D, self.dim());
                let p = self.run::<D>(e * D).cast::<R>();
                for (c, &x) in row.iter().enumerate() {
                    // SAFETY: `run` checked the row
                    unsafe { *p.add(c) += x };
                }
            }
            Layout::Soa => {
                let (p, n) = (self.soa_row::<D>(e), self.view.n);
                for (c, &x) in row.iter().enumerate() {
                    // SAFETY: `soa_row` checked every component's slot
                    unsafe { *p.add(c * n) += x };
                }
            }
        }
    }
}

impl<R: Real, A: Addressing> DatRef<'_, R, Writable, A> {
    /// Store one vector as the `L` values from storage index `start`.
    #[inline(always)]
    fn vstore<const L: usize>(&self, vals: VecR<R, L>, start: usize) {
        self.check_range(start, start + L);
        // SAFETY: checked run of exactly the values stored; the contract
        // keeps other bodies off them
        vals.store(
            unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), L) },
            0,
        )
    }

    /// Vector store of component `c` for elements `e0..e0+L`.
    #[inline(always)]
    pub fn storev<const L: usize>(&self, vals: VecR<R, L>, e0: usize, c: usize) {
        let (n, dim) = (self.view.n, self.dim());
        match self.view.layout.layout() {
            Layout::Aos if dim == 1 => self.vstore(vals, e0),
            Layout::Aos => {
                for l in 0..L {
                    let i = (e0 + l) * dim + c;
                    if i >= self.len {
                        index_out_of_bounds(i, self.len);
                    }
                    // SAFETY: `i < len`
                    unsafe { self.ptr.add(i).write(vals.0[l]) };
                }
            }
            Layout::Soa => self.vstore(vals, c * n + e0),
        }
    }

    /// Serialized accumulating vector scatter of component `c`: lanes
    /// applied in ascending lane order (the colored-increment order), so
    /// colliding targets accumulate exactly like the scalar path.
    #[inline(always)]
    pub fn scatter_add_serialv<const L: usize>(&self, vals: VecR<R, L>, idx: IdxVec<L>, c: usize) {
        let dim = self.dim();
        match self.view.layout.layout() {
            // SAFETY: the handle's storage is `len` values
            Layout::Aos => unsafe { vals.scatter_add_serial_raw(self.ptr, self.len, idx, dim, c) },
            Layout::Soa => self.soa_scatter_add_serialv(vals, idx, c),
        }
    }

    /// [`scatter_add_serialv`](DatRef::scatter_add_serialv) under `Soa`.
    #[inline(always)]
    fn soa_scatter_add_serialv<const L: usize>(&self, vals: VecR<R, L>, idx: IdxVec<L>, c: usize) {
        let (col, n) = self.soa_column(c);
        // consecutive lanes never collide, so a packed load-add-store
        // accumulates bit-identically to the ascending-lane serial order
        match idx.consecutive_base() {
            Some(b) if b >= 0 && b as usize + L <= n => {
                // SAFETY: values `b..b + L` of the column; the contract
                // keeps other bodies off them
                let run = unsafe { std::slice::from_raw_parts_mut(col.add(b as usize), L) };
                (VecR::<R, L>::load(run, 0) + vals).store(run, 0);
            }
            // SAFETY: the column is `n` values of the storage
            _ => unsafe { vals.scatter_add_serial_raw(col, n, idx, 1, 0) },
        }
    }

    /// Store `vals` as components `0..K` of elements `e0..e0+L` (the
    /// inverse of [`load_rows`](DatRef::load_rows)).
    #[inline(always)]
    pub fn store_rows<const L: usize, const K: usize>(&self, vals: &[VecR<R, L>; K], e0: usize) {
        let (n, dim) = (self.view.n, self.dim());
        debug_assert!(K <= dim);
        match self.view.layout.layout() {
            Layout::Aos => {
                for l in 0..L {
                    // SAFETY: `run` checked the row
                    let row: &mut [R; K] = unsafe { &mut *self.run((e0 + l) * dim) };
                    for c in 0..K {
                        row[c] = vals[c].0[l];
                    }
                }
            }
            Layout::Soa => {
                for c in 0..K {
                    self.vstore(vals[c], c * n + e0);
                }
            }
        }
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
    /// [`scatter_add_serialv`](DatRef::scatter_add_serialv) (ascending
    /// lanes per target, consecutive-run fast path included), which
    /// orders two targets' hits on one element by target instead of by
    /// lane: the same sum up to reassociation.
    #[inline(always)]
    pub fn scatter_add_rows_serial<const L: usize, const K: usize, const T: usize>(
        &self,
        incs: [(&[VecR<R, L>; K], IdxVec<L>); T],
    ) {
        let dim = self.dim();
        debug_assert!(K <= dim);
        match self.view.layout.layout() {
            Layout::Aos => {
                for l in 0..L {
                    for t in 0..T {
                        let (vals, idx) = incs[t];
                        // SAFETY: `run` checked the row
                        let row: &mut [R; K] =
                            unsafe { &mut *self.run(idx.lane(l) as usize * dim) };
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
                        self.soa_scatter_add_serialv(vals[c], idx, c);
                    }
                }
            }
        }
    }
}

/// The panic of a run of values past the end of a handle's storage, out
/// of line.
#[cold]
#[inline(never)]
#[track_caller]
fn range_out_of_bounds(start: usize, end: usize, len: usize) -> ! {
    panic!("values {start}..{end} out of bounds of {len}")
}

/// The panic of an `Soa` scalar row access, out of line: formatting its
/// message in place spilled the arguments to the stack on every row.
#[cold]
#[inline(never)]
#[track_caller]
fn soa_row_out_of_bounds(e: usize, n: usize, dim: usize, len: usize) -> ! {
    panic!("soa row {e} out of bounds: {n} elements × {dim} components in {len} values")
}

/// The panic of [`DatRef::rows`], out of line.
#[cold]
#[inline(never)]
#[track_caller]
fn rows_out_of_bounds(range: Range<usize>, n: usize, dim: usize, d: usize, len: usize) -> ! {
    panic!("rows {range:?} of {d} components out of bounds: {n} elements × {dim} in {len} values")
}

/// A block of consecutive elements, as a direct loop's scalar body runs
/// it: the range the rows of several dats are borrowed for, checked once
/// per dat ([`DatRef::rows`]). Its [`Row`] indices carry the block's
/// lifetime `'b`, which [`Block::with`] makes unique to one call, so a
/// row index of one block cannot index another block's rows: the
/// element loop over [`iter`](Block::iter) carries neither a per-row
/// check nor `unsafe`, and LLVM vectorizes it across elements, under
/// `Soa` with one contiguous run per component.
#[derive(Clone, Copy)]
pub struct Block<'b> {
    start: usize,
    len: usize,
    _brand: PhantomData<fn(&'b ()) -> &'b ()>,
}

/// Row `i` of the block `'b`, from [`Block::iter`].
#[derive(Clone, Copy)]
pub struct Row<'b> {
    i: usize,
    _brand: PhantomData<fn(&'b ()) -> &'b ()>,
}

impl Block<'_> {
    /// `f` on the block of the elements `range`, with a lifetime of its
    /// own. Panics on a reversed range.
    #[inline(always)]
    pub fn with<T>(range: Range<usize>, f: impl for<'b> FnOnce(Block<'b>) -> T) -> T {
        if range.start > range.end {
            reversed_block(range.clone());
        }
        f(Block {
            start: range.start,
            len: range.end - range.start,
            _brand: PhantomData,
        })
    }
}

impl<'b> Block<'b> {
    /// The block's rows, in ascending element order.
    #[inline(always)]
    pub fn iter(self) -> impl Iterator<Item = Row<'b>> {
        (0..self.len).map(|i| Row {
            i,
            _brand: PhantomData,
        })
    }
}

/// The panic of [`Block::with`], out of line.
#[cold]
#[inline(never)]
#[track_caller]
fn reversed_block(range: Range<usize>) -> ! {
    panic!("block of the reversed range {range:?}")
}

/// The rows of a [`Block`] of one dat, bounds checked once when
/// [`DatRef::rows`] borrows them: row `i` is element `block.start + i`.
pub struct Rows<'b, 'd, R, A, const D: usize> {
    comps: [*const R; D],
    layout: A,
    _rows: PhantomData<(Block<'b>, &'d [R])>,
}

impl<'b, R: Copy, A: Addressing, const D: usize> Rows<'b, '_, R, A, D> {
    /// Row `r`.
    #[inline(always)]
    pub fn load(&self, r: Row<'b>) -> [R; D] {
        let at = r.i * stride::<D>(self.layout);
        // SAFETY: `DatRef::rows` checked every row of the block, and `r`
        // is one of them
        std::array::from_fn(|c| unsafe { *self.comps[c].add(at) })
    }
}

/// Mutable [`Rows`], from [`DatRef::rows_mut`].
pub struct RowsMut<'b, 'd, R, A, const D: usize> {
    comps: [*mut R; D],
    layout: A,
    _rows: PhantomData<(Block<'b>, &'d [R])>,
}

impl<'b, R: Copy, A: Addressing, const D: usize> RowsMut<'b, '_, R, A, D> {
    /// Row `r`.
    #[inline(always)]
    pub fn load(&self, r: Row<'b>) -> [R; D] {
        let at = r.i * stride::<D>(self.layout);
        // SAFETY: `DatRef::rows_mut` checked every row of the block, and
        // `r` is one of them
        std::array::from_fn(|c| unsafe { *self.comps[c].add(at) })
    }

    /// Store `row` as row `r`.
    #[inline(always)]
    pub fn store(&self, r: Row<'b>, row: &[R; D]) {
        let at = r.i * stride::<D>(self.layout);
        for (p, &x) in self.comps.iter().zip(row) {
            // SAFETY: as in `load`; the contract keeps other bodies off
            // the block's rows
            unsafe { *p.add(at) = x };
        }
    }
}

/// The distance between two consecutive elements' values of one
/// component of `D`-component rows: `D` under `Aos`, 1 under `Soa`.
#[inline(always)]
fn stride<const D: usize>(layout: impl Addressing) -> usize {
    match layout.layout() {
        Layout::Aos => D,
        Layout::Soa => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writable handle that only this test's thread uses.
    fn writable<R, A: Addressing>(data: &mut [R], view: DatView<A>) -> DatRef<'_, R, Writable, A> {
        // SAFETY: one thread, which keeps the contract trivially
        unsafe { DatRef::new_mut(data, view) }
    }

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
            // the spans of a run of rows hold exactly those rows' values
            let mut spanned: Vec<usize> = v.spans(3..9).flatten().collect();
            let mut want: Vec<usize> = (3..9)
                .flat_map(|e| (0..dim).map(move |c| v.idx(e, c)))
                .collect();
            spanned.sort_unstable();
            want.sort_unstable();
            assert_eq!(spanned, want, "{layout:?} spans");
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
        let v = DatRef::new(&soa, DatView::new(n, dim, Soa));
        let lanes: VecR<f64, 4> = v.loadv(4, 2);
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
    fn check_row_accessors<A: Addressing + Default, R: Real, const L: usize, const K: usize>(
        dim: usize,
    ) {
        let n = 22;
        let view = DatView::new(n, dim, A::default());
        let tag = format!("{:?} dim={dim} K={K} L={L}", A::default());
        let mut data = vec![R::ZERO; n * dim];
        for e in 0..n {
            for c in 0..dim {
                data[view.idx(e, c)] = R::from_f64((e * 10 + c) as f64 + 0.5);
            }
        }
        let dat = DatRef::new(&data, view);
        let vals: [VecR<R, L>; K] =
            std::array::from_fn(|c| VecR::from_fn(|l| R::from_f64(1e-3 * (1 + l + 10 * c) as f64)));
        for e0 in 0..=n - L {
            let rows: [VecR<R, L>; K] = dat.load_rows(e0);
            let (mut by_rows, mut by_comp) = (data.clone(), data.clone());
            writable(&mut by_rows, view).store_rows(&vals, e0);
            let comp = writable(&mut by_comp, view);
            for c in 0..K {
                let want: VecR<R, L> = VecR::from_fn(|l| data[view.idx(e0 + l, c)]);
                assert_eq!(rows[c], want, "{tag} load e0={e0} c={c}");
                assert_eq!(dat.loadv::<L>(e0, c), want, "{tag} loadv e0={e0}");
                comp.storev(vals[c], e0, c);
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
            let rows: [VecR<R, L>; K] = dat.gather_rows(idx);
            let (mut by_rows, mut by_comp) = (data.clone(), data.clone());
            writable(&mut by_rows, view).scatter_add_rows_serial([(&vals, idx)]);
            let comp = writable(&mut by_comp, view);
            for c in 0..K {
                let want: VecR<R, L> = VecR::from_fn(|l| data[view.idx(pat[l], c)]);
                assert_eq!(rows[c], want, "{tag} gather {pat:?} c={c}");
                assert_eq!(dat.gatherv::<L>(idx, c), want, "{tag} gatherv");
                comp.scatter_add_serialv(vals[c], idx, c);
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

    /// The scalar row and row-block accessors of a handle against plain
    /// [`DatView::idx`] addressing, compared bit for bit: typed `A`, and
    /// the same handle under the runtime layout.
    fn check_accessors_against_idx<A: Addressing + Default, R: Real, const L: usize>() {
        check_handle_against_idx::<A, R, L>(DatView::new(19, 4, A::default()));
        check_handle_against_idx::<Layout, R, L>(DatView::new(19, 4, A::default()).runtime());
    }

    fn check_handle_against_idx<A: Addressing, R: Real, const L: usize>(view: DatView<A>) {
        const D: usize = 4;
        let n = view.n;
        let tag = format!("{:?} L={L} R={}B", view.layout, R::BYTES);
        let bits = |d: &[R]| d.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
        let data: Vec<R> = (0..n * D).map(sensitive).collect();
        let dat = DatRef::new(&data, view);
        let row: [R; D] = std::array::from_fn(|c| sensitive(7 * c + 3));
        for e in 0..n {
            let got: [R; D] = dat.load_row(e);
            let want: [R; D] = std::array::from_fn(|c| data[view.idx(e, c)]);
            assert_eq!(bits(&got), bits(&want), "{tag} load_row e={e}");

            let (mut got, mut want) = (data.clone(), data.clone());
            writable(&mut got, view).store_row(e, &row);
            for c in 0..D {
                want[view.idx(e, c)] = row[c];
            }
            assert_eq!(bits(&got), bits(&want), "{tag} store_row e={e}");

            let (mut got, mut want) = (data.clone(), data.clone());
            writable(&mut got, view).add_row(e, &row);
            for c in 0..D {
                let i = view.idx(e, c);
                want[i] += row[c];
            }
            assert_eq!(bits(&got), bits(&want), "{tag} add_row e={e}");
        }
        // blocks of rows, the empty one past the last element included
        for (s, e) in [(0, n), (0, 7), (7, n), (5, 6), (n, n)] {
            let mut got = data.clone();
            let out = writable(&mut got, view);
            Block::with(s..e, |b| {
                let (rows, block) = (dat.rows::<D>(b), out.rows_mut::<D>(b));
                for (i, r) in b.iter().enumerate() {
                    let want: [R; D] = dat.load_row(s + i);
                    assert_eq!(bits(&rows.load(r)), bits(&want), "{tag} rows {s}..{e} {i}");
                    assert_eq!(bits(&block.load(r)), bits(&want), "{tag} rows_mut {s}..{e}");
                    block.store(r, &row);
                }
            });
            let mut want = data.clone();
            let w = writable(&mut want, view);
            for el in s..e {
                w.store_row(el, &row);
            }
            assert_eq!(bits(&got), bits(&want), "{tag} rows_mut {s}..{e} store");
        }
        let vals: [VecR<R, L>; D] =
            std::array::from_fn(|c| VecR::from_fn(|l| sensitive(11 * l + c + 1)));
        for e0 in 0..=n - L {
            let got: [VecR<R, L>; D] = dat.load_rows(e0);
            for c in 0..D {
                let want: [R; L] = std::array::from_fn(|l| data[view.idx(e0 + l, c)]);
                assert_eq!(bits(&got[c].to_array()), bits(&want), "{tag} load_rows");
            }
            let (mut got, mut want) = (data.clone(), data.clone());
            writable(&mut got, view).store_rows(&vals, e0);
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
        let got: [VecR<R, L>; D] = dat.gather_rows(idx);
        for c in 0..D {
            let want: [R; L] = std::array::from_fn(|l| data[view.idx(pat[l], c)]);
            assert_eq!(bits(&got[c].to_array()), bits(&want), "{tag} gather_rows");
        }
        let (mut got, mut want) = (data.clone(), data.clone());
        writable(&mut got, view).scatter_add_rows_serial([(&vals, idx)]);
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
        fn check<A: Addressing + Default>() {
            let view = DatView::new(5, 4, A::default());
            let data = vec![0.0f64; 20];
            let dat = DatRef::new(&data, view);
            assert!(!panics(|| Block::with(0..5, |b| {
                dat.rows::<4>(b);
            })));
            assert!(panics(|| Block::with(2..6, |b| {
                dat.rows::<4>(b);
            })));
            #[allow(clippy::reversed_empty_ranges)]
            let reversed = 3..2;
            assert!(panics(|| Block::with(reversed, |b| {
                dat.rows::<4>(b);
            })));
            assert!(panics(|| Block::with(0..5, |b| {
                dat.rows::<2>(b);
            })));
            let short = DatRef::new(&data[..19], view);
            assert!(panics(|| Block::with(0..1, |b| {
                short.rows::<4>(b);
            })));
            let mut short = vec![0.0f64; 19];
            let short = writable(&mut short, view);
            assert!(panics(|| Block::with(0..1, |b| {
                short.rows_mut::<4>(b);
            })));
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

    fn soa(data: &mut [f64]) -> DatRef<'_, f64, Writable, Soa> {
        writable(data, DatView::new(6, 4, Soa))
    }

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_load_row_panics_past_the_last_element() {
        let _: [f64; 4] = soa(&mut [0.0; 24]).load_row(6);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_load_row_panics_on_short_storage() {
        let _: [f64; 4] = soa(&mut [0.0; 23]).load_row(5);
    }

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_store_row_panics_past_the_last_element() {
        soa(&mut [0.0; 24]).store_row(6, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_store_row_panics_on_short_storage() {
        soa(&mut [0.0; 23]).store_row(5, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 6 out of bounds")]
    fn soa_add_row_panics_past_the_last_element() {
        soa(&mut [0.0; 24]).add_row(6, &[1.0f64; 4]);
    }

    #[test]
    #[should_panic(expected = "soa row 5 out of bounds")]
    fn soa_add_row_panics_on_short_storage() {
        soa(&mut [0.0; 23]).add_row(5, &[1.0f64; 4]);
    }

    #[test]
    fn aos_row_scatter_lands_in_the_scalar_loops_order() {
        // two targets per lane, lanes colliding across targets: element 1
        // is lane 0's second target and lane 1's first. The scalar loop
        // lands lane 0 whole, then lane 1; magnitudes are chosen so any
        // other order rounds differently.
        let (i0, i1) = (
            IdxVec::<4>::from_array([0, 1, 2, 1]),
            IdxVec::<4>::from_array([1, 2, 3, 3]),
        );
        let v0 = [VecR::<f64, 4>::from_array([1.0, 1e16, 3.0, 1.0]); 2];
        let v1 = [VecR::<f64, 4>::from_array([-1e16, 1.0, 1.0, 2.0]); 2];
        let mut got = vec![1.0f64; 8];
        writable(&mut got, DatView::new(4, 2, Aos)).scatter_add_rows_serial([(&v0, i0), (&v1, i1)]);
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

    fn check_rows_panic_out_of_range<A: Addressing + Default + std::panic::RefUnwindSafe>() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let layout = A::default();
        let view = DatView::new(6, 4, layout);
        let data = vec![0.0f64; 24];
        let dat = DatRef::new(&data, view);
        for bad in [6, -1] {
            let idx = IdxVec::<4>::from_array([0, 5, bad, 1]);
            let gathered = catch_unwind(AssertUnwindSafe(|| -> [VecR<f64, 4>; 4] {
                dat.gather_rows(idx)
            }));
            assert!(gathered.is_err(), "{layout:?} gather of {bad}");
            let scattered = catch_unwind(|| {
                let mut d = data.clone();
                writable(&mut d, view)
                    .scatter_add_rows_serial([(&[VecR::<f64, 4>::zero(); 4], idx)]);
            });
            assert!(scattered.is_err(), "{layout:?} scatter to {bad}");
        }
        let past_end = catch_unwind(AssertUnwindSafe(|| -> [VecR<f64, 4>; 4] {
            dat.load_rows(3)
        }));
        assert!(past_end.is_err(), "{layout:?} load past the end");
    }

    #[test]
    fn row_accessors_panic_on_an_out_of_range_index() {
        check_rows_panic_out_of_range::<Aos>();
        check_rows_panic_out_of_range::<Soa>();
    }

    fn check_rows_round_trip<A: Addressing + Default>() {
        let (n, dim) = (7, 4);
        let layout = A::default();
        let mut data = vec![0.0f64; n * dim];
        let dat = writable(&mut data, DatView::new(n, dim, layout));
        for e in 0..n {
            let row: [f64; 4] = std::array::from_fn(|c| (e * 10 + c) as f64);
            dat.store_row(e, &row);
        }
        for e in 0..n {
            let row: [f64; 4] = dat.load_row(e);
            assert_eq!(
                row,
                std::array::from_fn(|c| (e * 10 + c) as f64),
                "{layout:?}"
            );
        }
        dat.add_row(3, &[0.5f64; 4]);
        let row: [f64; 4] = dat.read().load_row(3);
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
