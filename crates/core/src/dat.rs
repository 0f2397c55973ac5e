//! Data on sets: the `op_dat`, plus its versioned binary snapshot
//! format (the persistence layer under `ump_serve`'s deterministic
//! checkpoint/restart).

use std::io::{self, Read, Write};

use ump_simd::{Addressing, DatView, Layout, Real};

/// Magic prefix of the [`OpDat::save`] binary format.
pub const DAT_SNAPSHOT_MAGIC: [u8; 4] = *b"UMPD";

/// Current version of the [`OpDat::save`] binary format. Bump on any
/// layout change; [`OpDat::load`] rejects other versions instead of
/// guessing.
pub const DAT_SNAPSHOT_VERSION: u32 = 1;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// A dataset over a set: `dim` components of type `R` per element.
///
/// Storage defaults to AoS (`data[e*dim + c]`) as the paper's CPU
/// backends use; [`OpDat::to_layout`] re-permutes the same values into
/// SoA so `VecR::load/store` on direct data become contiguous
/// vector moves (tentpole of the fused-SIMD fix). Code that indexes
/// `data` directly assumes AoS — use [`OpDat::view`] / [`OpDat::at`]
/// for layout-aware access.
#[derive(Clone, Debug, PartialEq)]
pub struct OpDat<R: Real> {
    /// Dataset name (diagnostics / table rows).
    pub name: String,
    /// Number of set elements.
    pub set_size: usize,
    /// Components per element.
    pub dim: usize,
    /// Storage layout of `data`. Always `set_size * dim` values; only
    /// the index formula changes between layouts.
    pub layout: Layout,
    /// The values, `set_size * dim` long, indexed per `layout`.
    pub data: Vec<R>,
}

impl<R: Real> OpDat<R> {
    /// Zero-initialized dat.
    pub fn zeros(name: impl Into<String>, set_size: usize, dim: usize) -> OpDat<R> {
        OpDat {
            name: name.into(),
            set_size,
            dim,
            layout: Layout::Aos,
            data: vec![R::ZERO; set_size * dim],
        }
    }

    /// Dat initialized per element by `f(element) -> [components]`.
    pub fn from_fn(
        name: impl Into<String>,
        set_size: usize,
        dim: usize,
        mut f: impl FnMut(usize) -> Vec<R>,
    ) -> OpDat<R> {
        let mut data = Vec::with_capacity(set_size * dim);
        for e in 0..set_size {
            let row = f(e);
            assert_eq!(row.len(), dim, "initializer arity mismatch");
            data.extend_from_slice(&row);
        }
        OpDat {
            name: name.into(),
            set_size,
            dim,
            layout: Layout::Aos,
            data,
        }
    }

    /// Wrap existing storage.
    pub fn from_vec(
        name: impl Into<String>,
        set_size: usize,
        dim: usize,
        data: Vec<R>,
    ) -> OpDat<R> {
        assert_eq!(data.len(), set_size * dim, "dat storage size mismatch");
        OpDat {
            name: name.into(),
            set_size,
            dim,
            layout: Layout::Aos,
            data,
        }
    }

    /// The component slice of element `e` (AoS layouts only — rows are
    /// not contiguous under SoA, except for `dim == 1` dats whose
    /// storage is identical under every layout).
    #[inline]
    pub fn row(&self, e: usize) -> &[R] {
        debug_assert!(
            self.layout == Layout::Aos || self.dim == 1,
            "row() on non-AoS dat"
        );
        &self.data[e * self.dim..(e + 1) * self.dim]
    }

    /// Mutable component slice of element `e` (AoS layouts only; `dim ==
    /// 1` dats are layout-invariant).
    #[inline]
    pub fn row_mut(&mut self, e: usize) -> &mut [R] {
        debug_assert!(
            self.layout == Layout::Aos || self.dim == 1,
            "row_mut() on non-AoS dat"
        );
        &mut self.data[e * self.dim..(e + 1) * self.dim]
    }

    /// Layout-aware index view over the storage (see
    /// [`ump_simd::DatView`] for the vector load/store/gather helpers).
    #[inline]
    pub fn view(&self) -> DatView {
        DatView::new(self.set_size, self.dim, self.layout)
    }

    /// [`view`](OpDat::view) typed for the layout `A`: the view a
    /// recording instantiated for `A` indexes this dat through. Panics,
    /// naming the dat, if it is stored in another layout — that
    /// recording would index it wrongly.
    pub fn view_as<A: Addressing>(&self) -> DatView<A> {
        self.view().typed().unwrap_or_else(|| {
            panic!(
                "dat {} is stored {}, but the recording was instantiated for {}: \
                 set_layout converts a state's dats together",
                self.name,
                self.layout.name(),
                A::LAYOUT.name()
            )
        })
    }

    /// Component `c` of element `e`, valid under every layout.
    #[inline]
    pub fn at(&self, e: usize, c: usize) -> R {
        self.data[self.view().idx(e, c)]
    }

    /// Mutable component `c` of element `e`, valid under every layout.
    #[inline]
    pub fn at_mut(&mut self, e: usize, c: usize) -> &mut R {
        let i = self.view().idx(e, c);
        &mut self.data[i]
    }

    /// Re-permute storage into `to` layout. A pure permutation of the
    /// same values — bit-exact, so conformance and checkpoint tests are
    /// unaffected by layout choice.
    pub fn set_layout(&mut self, to: Layout) {
        if self.layout == to {
            return;
        }
        self.data = self.view().convert(&self.data, to);
        self.layout = to;
    }

    /// Copy of this dat in `to` layout.
    pub fn to_layout(&self, to: Layout) -> OpDat<R> {
        let mut out = self.clone();
        out.set_layout(to);
        out
    }

    /// Total bytes of payload (Table IV memory accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * R::BYTES
    }

    /// Maximum |difference| against another dat (backend equivalence
    /// tests). Compares logical `(element, component)` values, so dats
    /// in different layouts compare correctly.
    pub fn max_abs_diff(&self, other: &OpDat<R>) -> f64 {
        assert_eq!(
            (self.set_size, self.dim),
            (other.set_size, other.dim),
            "dat shape mismatch"
        );
        if self.layout == other.layout {
            return self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
                .fold(0.0, f64::max);
        }
        let (va, vb) = (self.view(), other.view());
        let mut worst = 0.0f64;
        for e in 0..self.set_size {
            for c in 0..self.dim {
                let d =
                    (self.data[va.idx(e, c)].to_f64() - other.data[vb.idx(e, c)].to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }

    /// `true` when every value is finite — failure-injection guard used
    /// by integration tests after each backend run.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Serialize to a versioned binary snapshot.
    ///
    /// Values are stored as the bit pattern of their exact `f64`
    /// widening: for `f64` dats that *is* the value, and every finite
    /// `f32` widens and narrows back to the identical bits, so a
    /// save/load round trip is bit-exact at either precision — the
    /// property `ump_serve`'s checkpoint/restart golden tests assert.
    ///
    /// ```
    /// use ump_core::OpDat;
    ///
    /// let dat: OpDat<f64> = OpDat::from_vec("q", 2, 2, vec![1.0, -2.5, 0.125, 3.0]);
    /// let mut buf = Vec::new();
    /// dat.save(&mut buf).unwrap();
    /// let back = OpDat::<f64>::load(&mut buf.as_slice()).unwrap();
    /// assert_eq!(dat, back);
    /// ```
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&DAT_SNAPSHOT_MAGIC)?;
        w.write_all(&DAT_SNAPSHOT_VERSION.to_le_bytes())?;
        w.write_all(&(R::BYTES as u32).to_le_bytes())?;
        let name = self.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(self.set_size as u64).to_le_bytes())?;
        w.write_all(&(self.dim as u64).to_le_bytes())?;
        // one buffered pass over the payload: 8 bytes per value, always
        // in canonical AoS (element, component) order regardless of the
        // in-memory layout — snapshots are layout-independent
        let v = self.view();
        let mut buf = Vec::with_capacity(self.data.len() * 8);
        for e in 0..self.set_size {
            for c in 0..self.dim {
                buf.extend_from_slice(&self.data[v.idx(e, c)].to_f64().to_bits().to_le_bytes());
            }
        }
        w.write_all(&buf)
    }

    /// Deserialize a snapshot written by [`OpDat::save`]. Fails with
    /// `InvalidData` on a wrong magic, version, or element width (an
    /// `f32` snapshot is not silently widened into an `f64` dat).
    pub fn load<Rd: Read>(r: &mut Rd) -> io::Result<OpDat<R>> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != DAT_SNAPSHOT_MAGIC {
            return Err(bad_data(format!("not an OpDat snapshot: magic {magic:?}")));
        }
        let version = read_u32(r)?;
        if version != DAT_SNAPSHOT_VERSION {
            return Err(bad_data(format!(
                "OpDat snapshot version {version}, expected {DAT_SNAPSHOT_VERSION}"
            )));
        }
        let word = read_u32(r)? as usize;
        if word != R::BYTES {
            return Err(bad_data(format!(
                "OpDat snapshot holds {word}-byte words, loading as {}-byte {}",
                R::BYTES,
                R::NAME
            )));
        }
        let name_len = read_u32(r)? as usize;
        // length fields are untrusted (a corrupt snapshot can hold any
        // bits): bound them so damage surfaces as InvalidData, not as a
        // multi-gigabyte allocation
        if name_len > 4096 {
            return Err(bad_data(format!("dat name length {name_len} implausible")));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|e| bad_data(format!("dat name: {e}")))?;
        let set_size = read_u64(r)? as usize;
        let dim = read_u64(r)? as usize;
        let n = set_size
            .checked_mul(dim)
            .ok_or_else(|| bad_data("dat shape overflow".into()))?;
        // grow-on-demand past a sane pre-size: a truncated stream then
        // fails in read_u64 long before a bogus `n` can exhaust memory
        let mut data = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            data.push(R::from_f64(f64::from_bits(read_u64(r)?)));
        }
        Ok(OpDat {
            name,
            set_size,
            dim,
            layout: Layout::Aos,
            data,
        })
    }

    /// Convert precision (used to set up SP runs from DP initial data).
    pub fn convert<T: Real>(&self) -> OpDat<T> {
        OpDat {
            name: self.name.clone(),
            set_size: self.set_size,
            dim: self.dim,
            layout: self.layout,
            data: self.data.iter().map(|&v| T::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let d: OpDat<f64> = OpDat::zeros("q", 10, 4);
        assert_eq!(d.data.len(), 40);
        assert_eq!(d.bytes(), 320);
        assert_eq!(d.row(3), &[0.0; 4]);
    }

    #[test]
    fn from_fn_rows() {
        let d: OpDat<f32> = OpDat::from_fn("x", 3, 2, |e| vec![e as f32, -(e as f32)]);
        assert_eq!(d.row(2), &[2.0, -2.0]);
        assert_eq!(d.bytes(), 24);
    }

    #[test]
    fn row_mut_updates() {
        let mut d: OpDat<f64> = OpDat::zeros("r", 4, 2);
        d.row_mut(1)[0] = 5.0;
        assert_eq!(d.data[2], 5.0);
    }

    #[test]
    fn diff_and_finite() {
        let a: OpDat<f64> = OpDat::from_vec("a", 2, 1, vec![1.0, 2.0]);
        let b: OpDat<f64> = OpDat::from_vec("a", 2, 1, vec![1.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.all_finite());
        let nan: OpDat<f64> = OpDat::from_vec("n", 1, 1, vec![f64::NAN]);
        assert!(!nan.all_finite());
    }

    #[test]
    fn precision_conversion() {
        let a: OpDat<f64> = OpDat::from_vec("a", 2, 1, vec![1.25, -3.5]);
        let s: OpDat<f32> = a.convert();
        assert_eq!(s.data, vec![1.25f32, -3.5]);
    }

    #[test]
    #[should_panic(expected = "storage size mismatch")]
    fn from_vec_validates_shape() {
        let _: OpDat<f64> = OpDat::from_vec("bad", 3, 2, vec![0.0; 5]);
    }

    #[test]
    fn layout_round_trip_is_bit_exact() {
        let d: OpDat<f64> = OpDat::from_fn("q", 11, 4, |e| {
            (0..4).map(|c| (e * 4 + c) as f64 * 0.37 - 2.0).collect()
        });
        let mut s = d.clone();
        s.set_layout(Layout::Soa);
        assert_eq!(s.layout, Layout::Soa);
        assert_eq!(s.max_abs_diff(&d), 0.0);
        for e in 0..11 {
            for c in 0..4 {
                assert_eq!(s.at(e, c).to_bits(), d.at(e, c).to_bits());
            }
        }
        s.set_layout(Layout::Aos);
        assert_eq!(s, d);
    }

    #[test]
    fn snapshot_is_canonical_across_layouts() {
        let d: OpDat<f64> = OpDat::from_fn("q", 9, 3, |e| {
            (0..3).map(|c| (e + c) as f64 * 1.5).collect()
        });
        let mut aos_bytes = Vec::new();
        d.save(&mut aos_bytes).unwrap();
        let mut soa = d.clone();
        soa.set_layout(Layout::Soa);
        let mut soa_bytes = Vec::new();
        soa.save(&mut soa_bytes).unwrap();
        assert_eq!(aos_bytes, soa_bytes);
        // load always yields AoS, equal to the original
        let back = OpDat::<f64>::load(&mut soa_bytes.as_slice()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn at_mut_writes_through_layout() {
        let mut d: OpDat<f64> = OpDat::zeros("r", 7, 2);
        d.set_layout(Layout::Soa);
        *d.at_mut(6, 1) = 9.0;
        *d.at_mut(0, 0) = -1.0;
        d.set_layout(Layout::Aos);
        assert_eq!(d.row(6), &[0.0, 9.0]);
        assert_eq!(d.row(0), &[-1.0, 0.0]);
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact_dp() {
        let d: OpDat<f64> = OpDat::from_fn("q", 7, 3, |e| {
            vec![e as f64 * 0.1, -(e as f64).sqrt(), 1.0 / (e as f64 + 1.0)]
        });
        let mut buf = Vec::new();
        d.save(&mut buf).unwrap();
        let back = OpDat::<f64>::load(&mut buf.as_slice()).unwrap();
        assert_eq!(back.name, "q");
        assert_eq!((back.set_size, back.dim), (7, 3));
        for (a, b) in d.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact_sp() {
        let d: OpDat<f32> = OpDat::from_fn("w", 5, 4, |e| {
            vec![e as f32 * 0.3, -1.5, f32::MIN_POSITIVE, (e as f32).exp()]
        });
        let mut buf = Vec::new();
        d.save(&mut buf).unwrap();
        let back = OpDat::<f32>::load(&mut buf.as_slice()).unwrap();
        for (a, b) in d.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_rejects_foreign_bytes() {
        let d: OpDat<f32> = OpDat::zeros("w", 2, 1);
        let mut buf = Vec::new();
        d.save(&mut buf).unwrap();
        // wrong precision
        let err = OpDat::<f64>::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("4-byte words"), "{err}");
        // wrong magic
        let err = OpDat::<f32>::load(&mut b"XXXX\0\0\0\0".as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // wrong version
        let mut bad = buf.clone();
        bad[4] = 99;
        let err = OpDat::<f32>::load(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // truncated payload
        let err = OpDat::<f32>::load(&mut buf[..buf.len() - 3].as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
