//! The dense tensor type backing the functional runtime.

use std::sync::Arc;

use crate::{kernels, stats, CounterRng, DType, Shape, TensorError, F16};

/// The owned element storage, one variant per [`DType`].
#[derive(Debug, PartialEq)]
pub(crate) enum BufferData {
    F16(Vec<F16>),
    F32(Vec<f32>),
}

impl BufferData {
    fn len(&self) -> usize {
        match self {
            BufferData::F16(v) => v.len(),
            BufferData::F32(v) => v.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            BufferData::F16(_) => DType::F16,
            BufferData::F32(_) => DType::F32,
        }
    }
}

/// A copy-on-write window into shared element storage.
///
/// Cloning a `Buffer` copies the [`Arc`] handle, not the elements, and
/// `(offset, len)` lets [`Tensor::slice_flat`] hand out chunk views of
/// the same allocation — the substrate that makes `comm.send` a handle
/// transfer and the ring collectives copy-free (§5's "don't materialize
/// what you can alias"). The first *write* through a shared or sliced
/// handle materializes a private copy of exactly the window
/// ([`Buffer::unshare`]), so aliasing is never observable: two tensors
/// may share bytes, never updates.
#[derive(Clone, Debug)]
pub(crate) struct Buffer {
    data: Arc<BufferData>,
    offset: usize,
    len: usize,
}

impl Buffer {
    fn from_data(data: BufferData) -> Buffer {
        stats::record_alloc(data.len() * data.dtype().size_bytes());
        Buffer {
            len: data.len(),
            data: Arc::new(data),
            offset: 0,
        }
    }

    pub(crate) fn from_f32_vec(v: Vec<f32>) -> Buffer {
        Buffer::from_data(BufferData::F32(v))
    }

    pub(crate) fn from_f16_vec(v: Vec<F16>) -> Buffer {
        Buffer::from_data(BufferData::F16(v))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// A zero-copy sub-window. Caller checks bounds.
    fn view(&self, start: usize, len: usize) -> Buffer {
        debug_assert!(start + len <= self.len);
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len,
        }
    }

    /// Whether two buffers share the same underlying allocation.
    fn shares_data(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The one window covering `parts` when they are adjacent windows of
    /// one allocation, in order — the zero-copy inverse of cutting a
    /// buffer into consecutive views. Empty parts cover nothing and are
    /// skipped; `None` when the parts are not such a run (or all empty).
    pub(crate) fn rejoin<'a>(parts: impl IntoIterator<Item = &'a Buffer>) -> Option<Buffer> {
        let mut whole: Option<Buffer> = None;
        for part in parts.into_iter().filter(|p| p.len > 0) {
            match &mut whole {
                None => whole = Some(part.clone()),
                Some(w) if w.shares_data(part) && w.offset + w.len == part.offset => {
                    w.len += part.len;
                }
                Some(_) => return None,
            }
        }
        whole
    }

    #[inline]
    fn get(&self, i: usize) -> f32 {
        debug_assert!(i < self.len);
        match &*self.data {
            BufferData::F16(v) => v[self.offset + i].to_f32(),
            BufferData::F32(v) => v[self.offset + i],
        }
    }

    pub(crate) fn as_f32(&self) -> Option<&[f32]> {
        match &*self.data {
            BufferData::F32(v) => Some(&v[self.offset..self.offset + self.len]),
            BufferData::F16(_) => None,
        }
    }

    pub(crate) fn as_f16(&self) -> Option<&[F16]> {
        match &*self.data {
            BufferData::F16(v) => Some(&v[self.offset..self.offset + self.len]),
            BufferData::F32(_) => None,
        }
    }

    /// Ensures this handle exclusively owns a full-range allocation,
    /// materializing a private copy of the window if it is shared or
    /// sliced — the copy-on-write step, counted in
    /// [`alloc_stats`](crate::alloc_stats).
    fn unshare(&mut self) {
        let full = self.offset == 0 && self.len == self.data.len();
        if full && Arc::get_mut(&mut self.data).is_some() {
            return;
        }
        let owned = match &*self.data {
            BufferData::F16(v) => BufferData::F16(v[self.offset..self.offset + self.len].to_vec()),
            BufferData::F32(v) => BufferData::F32(v[self.offset..self.offset + self.len].to_vec()),
        };
        stats::record_cow(self.len * self.dtype().size_bytes());
        self.data = Arc::new(owned);
        self.offset = 0;
    }

    /// Mutable access to the elements, unsharing first.
    pub(crate) fn make_mut(&mut self) -> &mut BufferData {
        self.unshare();
        Arc::get_mut(&mut self.data).expect("unique after unshare")
    }

    pub(crate) fn as_f32_mut(&mut self) -> Option<&mut [f32]> {
        // Check the dtype before unsharing: a probe on an F16 buffer
        // must not trigger a pointless copy-on-write materialization.
        if matches!(&*self.data, BufferData::F16(_)) {
            return None;
        }
        match self.make_mut() {
            BufferData::F32(v) => Some(v),
            BufferData::F16(_) => unreachable!("dtype checked above"),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, value: f32) {
        debug_assert!(i < self.len);
        match self.make_mut() {
            BufferData::F16(v) => v[i] = F16::from_f32(value),
            BufferData::F32(v) => v[i] = value,
        }
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Buffer) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&*self.data, &*other.data) {
            (BufferData::F16(a), BufferData::F16(b)) => {
                a[self.offset..self.offset + self.len] == b[other.offset..other.offset + other.len]
            }
            (BufferData::F32(a), BufferData::F32(b)) => {
                a[self.offset..self.offset + self.len] == b[other.offset..other.offset + other.len]
            }
            _ => false,
        }
    }
}

/// A dense, row-major tensor on the (simulated) device.
///
/// This is the substrate the paper's generated CUDA kernels operate on;
/// here the same operations run on the CPU so that transformed programs
/// can be executed and compared against their untransformed originals.
///
/// Values are read and written through `f32` (the widest supported type);
/// FP16 tensors round on store, mirroring mixed-precision GPU kernels.
///
/// Storage is an [`Arc`]-backed copy-on-write buffer: `clone` and
/// [`slice_flat`](Tensor::slice_flat) are O(1) handle operations that
/// share the allocation (so sending a tensor between ranks moves a
/// handle, not the elements), and the first *write* through a shared
/// handle materializes a private copy of exactly the written window.
/// Aliasing is therefore never observable through the API — tensors
/// share bytes, never updates — which the copy-on-write property suite
/// machine-checks across every mutating operation.
///
/// # Examples
///
/// ```
/// use coconet_tensor::{DType, Shape, Tensor};
///
/// let a = Tensor::full(Shape::from([2, 2]), DType::F32, 3.0);
/// let b = Tensor::full(Shape::from([2, 2]), DType::F32, 4.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.get(3), 7.0);
/// # Ok::<(), coconet_tensor::TensorError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    pub(crate) shape: Shape,
    pub(crate) buf: Buffer,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>, dtype: DType) -> Tensor {
        Tensor::full(shape, dtype, 0.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, dtype: DType, value: f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let buf = match dtype {
            DType::F16 => Buffer::from_f16_vec(vec![F16::from_f32(value); n]),
            DType::F32 => Buffer::from_f32_vec(vec![value; n]),
        };
        Tensor { shape, buf }
    }

    /// A rank-0 tensor holding a single value.
    pub fn scalar(dtype: DType, value: f32) -> Tensor {
        Tensor::full(Shape::scalar(), dtype, value)
    }

    /// A tensor whose element at linear index `i` is `f(i)`.
    pub fn from_fn(shape: impl Into<Shape>, dtype: DType, f: impl Fn(usize) -> f32) -> Tensor {
        let shape = shape.into();
        let n = shape.numel();
        let buf = match dtype {
            DType::F16 => Buffer::from_f16_vec((0..n).map(|i| F16::from_f32(f(i))).collect()),
            DType::F32 => Buffer::from_f32_vec((0..n).map(f).collect()),
        };
        Tensor { shape, buf }
    }

    /// Adopts an existing `f32` vector as the tensor's storage without
    /// copying (FP16 tensors still round element-wise on conversion).
    ///
    /// This is the zero-staging construction path for kernels that
    /// compute into a scratch `Vec<f32>` (the GEMM does): the vector
    /// *becomes* the buffer instead of being read back element by
    /// element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not
    /// match the shape's element count.
    pub fn from_f32_vec(
        shape: impl Into<Shape>,
        dtype: DType,
        data: Vec<f32>,
    ) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataLength {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        let buf = match dtype {
            DType::F32 => Buffer::from_f32_vec(data),
            DType::F16 => Buffer::from_f16_vec(data.into_iter().map(F16::from_f32).collect()),
        };
        Ok(Tensor { shape, buf })
    }

    /// An FP16 tensor adopting `data` as its storage without a copy —
    /// the half-precision counterpart of
    /// [`from_f32_vec`](Tensor::from_f32_vec), used by the striped
    /// collectives to promote an accumulated `Vec<F16>` into the
    /// output tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not
    /// match the shape's element count.
    pub fn from_f16_vec(shape: impl Into<Shape>, data: Vec<F16>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataLength {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            buf: Buffer::from_f16_vec(data),
        })
    }

    /// A tensor built from explicit `f32` data (rounded for FP16 tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not match
    /// the shape's element count.
    pub fn from_f32(
        shape: impl Into<Shape>,
        dtype: DType,
        data: &[f32],
    ) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::DataLength {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor::from_fn(shape, dtype, |i| data[i]))
    }

    /// A tensor of standard-normal values drawn from the deterministic
    /// counter RNG: element `i` is `rng.normal_at(offset + i)`, so two
    /// ranks materializing different slices of the same logical tensor
    /// see consistent values.
    pub fn randn(shape: impl Into<Shape>, dtype: DType, rng: CounterRng, offset: u64) -> Tensor {
        Tensor::from_fn(shape, dtype, |i| rng.normal_at(offset + i as u64) as f32)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.buf.dtype()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.buf.len()
    }

    /// Size of the tensor's storage in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }

    /// Reads element `i` (linear, row-major) as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.numel()`.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        assert!(i < self.numel(), "index {i} out of range");
        self.buf.get(i)
    }

    /// Writes element `i` (linear, row-major), rounding for FP16
    /// tensors. Writing through a handle that shares its buffer (a
    /// clone or a [`slice_flat`](Tensor::slice_flat) view) first
    /// materializes a private copy — aliased tensors never observe each
    /// other's updates.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.numel()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: f32) {
        assert!(i < self.numel(), "index {i} out of range");
        self.buf.set(i, value);
    }

    /// The elements as a contiguous `f32` slice, when the tensor is
    /// F32 — the zero-staging read path kernels use instead of
    /// [`to_f32_vec`](Tensor::to_f32_vec). `None` for FP16 tensors.
    #[inline]
    pub fn as_f32_slice(&self) -> Option<&[f32]> {
        self.buf.as_f32()
    }

    /// The elements as a contiguous [`F16`] slice, when the tensor is
    /// FP16. `None` for F32 tensors.
    #[inline]
    pub fn as_f16_slice(&self) -> Option<&[F16]> {
        self.buf.as_f16()
    }

    /// Mutable access to the elements of an F32 tensor, unsharing the
    /// buffer first (one copy-on-write materialization at most). `None`
    /// for FP16 tensors.
    #[inline]
    pub fn as_f32_slice_mut(&mut self) -> Option<&mut [f32]> {
        self.buf.as_f32_mut()
    }

    /// Whether two tensors alias the same underlying allocation (the
    /// zero-copy relationship [`clone`](Clone::clone) and
    /// [`slice_flat`](Tensor::slice_flat) establish, broken by the
    /// first write to either side).
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        self.buf.shares_data(&other.buf)
    }

    /// A materialized copy with private, full-range storage — the
    /// explicit deep copy that `clone` no longer performs. Benchmarks
    /// use it to reconstruct the pre-copy-on-write cost model.
    pub fn deep_clone(&self) -> Tensor {
        let buf = match (self.buf.as_f32(), self.buf.as_f16()) {
            (Some(v), _) => Buffer::from_f32_vec(v.to_vec()),
            (_, Some(v)) => Buffer::from_f16_vec(v.to_vec()),
            _ => unreachable!("buffer is F32 or F16"),
        };
        Tensor {
            shape: self.shape.clone(),
            buf,
        }
    }

    /// Copies all elements out as `f32`.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match self.buf.as_f32() {
            Some(v) => v.to_vec(),
            None => (0..self.numel()).map(|i| self.get(i)).collect(),
        }
    }

    /// A zero-copy view of the flat element range `start..start+len`
    /// as a 1-D tensor (a communication chunk). The view shares the
    /// buffer; writing either side triggers copy-on-write.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::SliceOutOfRange`] for an out-of-bounds
    /// range.
    pub fn slice_flat(&self, start: usize, len: usize) -> Result<Tensor, TensorError> {
        if start + len > self.numel() {
            return Err(TensorError::SliceOutOfRange {
                dim: 0,
                start,
                len,
                extent: self.numel(),
            });
        }
        Ok(Tensor {
            shape: Shape::from([len]),
            buf: self.buf.view(start, len),
        })
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::DataLength {
                expected: self.numel(),
                actual: shape.numel(),
            });
        }
        Ok(Tensor {
            shape,
            buf: self.buf.clone(),
        })
    }

    /// Converts to another element type (no-op when equal). Widening
    /// and narrowing run through the slice codecs
    /// ([`kernels::f16_decode`](crate::kernels::f16_decode) /
    /// [`kernels::f16_encode`](crate::kernels::f16_encode)): the same
    /// per-element conversion as a [`get`](Tensor::get) /
    /// [`set`](Tensor::set) round trip, without the per-element
    /// dispatch.
    pub fn cast(&self, dtype: DType) -> Tensor {
        let buf = match (self.buf.as_f32(), self.buf.as_f16()) {
            (Some(src), _) if dtype == DType::F16 => {
                let mut dst = vec![F16::ZERO; src.len()];
                kernels::f16_encode(src, &mut dst);
                Buffer::from_f16_vec(dst)
            }
            (_, Some(src)) if dtype == DType::F32 => {
                let mut dst = vec![0.0f32; src.len()];
                kernels::f16_decode(src, &mut dst);
                Buffer::from_f32_vec(dst)
            }
            _ => return self.clone(),
        };
        Tensor {
            shape: self.shape.clone(),
            buf,
        }
    }

    /// Elementwise comparison within mixed absolute/relative tolerance:
    /// `|a - b| <= atol + rtol * |b|` for every element.
    ///
    /// Shapes and dtypes must match exactly; otherwise returns `false`.
    pub fn allclose(&self, other: &Tensor, rtol: f32, atol: f32) -> bool {
        if self.shape != other.shape || self.dtype() != other.dtype() {
            return false;
        }
        (0..self.numel()).all(|i| {
            let (a, b) = (self.get(i), other.get(i));
            if a.is_nan() || b.is_nan() {
                return false;
            }
            (a - b).abs() <= atol + rtol * b.abs()
        })
    }

    /// The maximum absolute elementwise difference (∞-norm of `a - b`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires identical shapes"
        );
        (0..self.numel())
            .map(|i| (self.get(i) - other.get(i)).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3], DType::F16);
        assert_eq!(z.numel(), 6);
        assert_eq!(z.dtype(), DType::F16);
        assert_eq!(z.size_bytes(), 12);
        assert!(z.to_f32_vec().iter().all(|&x| x == 0.0));

        let f = Tensor::full([4], DType::F32, 2.5);
        assert!(f.to_f32_vec().iter().all(|&x| x == 2.5));

        let s = Tensor::scalar(DType::F32, 7.0);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.get(0), 7.0);

        let iota = Tensor::from_fn([3], DType::F32, |i| i as f32);
        assert_eq!(iota.to_f32_vec(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn from_f32_validates_length() {
        assert!(Tensor::from_f32([2, 2], DType::F32, &[1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_f32([2, 2], DType::F32, &[1.0; 3]),
            Err(TensorError::DataLength {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn f16_rounds_on_store() {
        let mut t = Tensor::zeros([1], DType::F16);
        t.set(0, 1.0 + 2.0f32.powi(-12)); // rounds to 1.0 in f16
        assert_eq!(t.get(0), 1.0);
        let mut t = Tensor::zeros([1], DType::F32);
        t.set(0, 1.0 + 2.0f32.powi(-12));
        assert!(t.get(0) > 1.0);
    }

    #[test]
    fn randn_offset_consistency() {
        // A rank materializing elements [4..8) of a logical [8] tensor
        // sees the same values as the full materialization.
        let rng = CounterRng::new(99);
        let full = Tensor::randn([8], DType::F32, rng, 0);
        let slice = Tensor::randn([4], DType::F32, rng, 4);
        for i in 0..4 {
            assert_eq!(full.get(4 + i), slice.get(i));
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn([2, 3], DType::F32, |i| i as f32);
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.to_f32_vec(), t.to_f32_vec());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn cast_roundtrip() {
        let t = Tensor::from_fn([4], DType::F32, |i| i as f32 + 0.5);
        let h = t.cast(DType::F16);
        assert_eq!(h.dtype(), DType::F16);
        let back = h.cast(DType::F32);
        assert_eq!(back.to_f32_vec(), t.to_f32_vec()); // exact for small values
    }

    /// The slice codecs behind `cast` convert exactly as a per-element
    /// `get` / `set` round trip does, views included.
    #[test]
    fn cast_matches_the_per_element_conversion() {
        let t = Tensor::from_fn([300], DType::F32, |i| (i as f32 * 0.731).sin() * 70_000.0);
        for src in [t.clone(), t.slice_flat(7, 250).unwrap()] {
            let half = src.cast(DType::F16);
            let per_element = Tensor::from_fn(src.shape().clone(), DType::F16, |i| src.get(i));
            assert_eq!(half, per_element);
            let wide = half.cast(DType::F32);
            assert_eq!(wide.dtype(), DType::F32);
            for i in 0..src.numel() {
                assert_eq!(wide.get(i).to_bits(), half.get(i).to_bits());
            }
        }
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::full([3], DType::F32, 1.0);
        let mut b = a.clone();
        assert!(a.allclose(&b, 0.0, 0.0));
        b.set(1, 1.001);
        assert!(!a.allclose(&b, 0.0, 1e-4));
        assert!(a.allclose(&b, 1e-2, 0.0));
        assert!((a.max_abs_diff(&b) - 0.001).abs() < 1e-6);
    }

    #[test]
    fn clone_shares_until_written() {
        let a = Tensor::from_fn([8], DType::F32, |i| i as f32);
        let mut b = a.clone();
        assert!(a.shares_storage(&b));
        b.set(3, 99.0);
        assert!(!a.shares_storage(&b), "write must unshare");
        assert_eq!(a.get(3), 3.0, "original unchanged");
        assert_eq!(b.get(3), 99.0);
    }

    #[test]
    fn slice_flat_is_a_zero_copy_view() {
        let a = Tensor::from_fn([8], DType::F32, |i| i as f32);
        let v = a.slice_flat(2, 4).unwrap();
        assert!(a.shares_storage(&v));
        assert_eq!(v.shape().dims(), &[4]);
        assert_eq!(v.to_f32_vec(), vec![2.0, 3.0, 4.0, 5.0]);
        // Writing the view detaches it and leaves the parent intact.
        let mut w = v.clone();
        w.set(0, -1.0);
        assert_eq!(a.get(2), 2.0);
        assert_eq!(v.get(0), 2.0);
        assert_eq!(w.get(0), -1.0);
    }

    #[test]
    fn writing_the_parent_leaves_views_intact() {
        let mut a = Tensor::from_fn([6], DType::F16, |i| i as f32);
        let v = a.slice_flat(0, 3).unwrap();
        a.set(1, 41.0);
        assert_eq!(v.get(1), 1.0, "view reads the pre-write values");
        assert_eq!(a.get(1), 41.0);
    }

    #[test]
    fn deep_clone_never_shares() {
        let a = Tensor::from_fn([4], DType::F32, |i| i as f32);
        let d = a.deep_clone();
        assert!(!a.shares_storage(&d));
        assert_eq!(d, a);
        let s = a.slice_flat(1, 2).unwrap().deep_clone();
        assert_eq!(s.to_f32_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn from_f32_vec_adopts_storage() {
        let t = Tensor::from_f32_vec([2, 2], DType::F32, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.to_f32_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::from_f32_vec([2], DType::F16, vec![1.5, 2.5]).unwrap();
        assert_eq!(h.dtype(), DType::F16);
        assert_eq!(h.to_f32_vec(), vec![1.5, 2.5]);
        assert!(Tensor::from_f32_vec([3], DType::F32, vec![0.0]).is_err());
    }

    #[test]
    fn views_compare_by_contents() {
        let a = Tensor::from_fn([8], DType::F32, |i| (i % 4) as f32);
        let front = a.slice_flat(0, 4).unwrap();
        let back = a.slice_flat(4, 4).unwrap();
        assert_eq!(front, back, "equal contents at different offsets");
        assert_ne!(front, a.slice_flat(1, 4).unwrap());
    }

    #[test]
    fn allclose_rejects_mismatched_meta() {
        let a = Tensor::zeros([2], DType::F32);
        assert!(!a.allclose(&Tensor::zeros([3], DType::F32), 1.0, 1.0));
        assert!(!a.allclose(&Tensor::zeros([2], DType::F16), 1.0, 1.0));
    }
}
