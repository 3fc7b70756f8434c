//! The sparse communication chunk — the wire representation of a
//! top-k sparsified tensor.
//!
//! SparCML's observation (PAPERS.md) is that gradient streams are
//! compressible: shipping only the `k` largest-magnitude entries as
//! `(index, value)` pairs moves `k · 8` bytes instead of `n ·
//! dtype_size`. A [`SparseChunk`] is that pair list plus the dense
//! length it was cut from, the payload the runtime's sparse collectives
//! exchange and the [`BytesLedger`](../../coconet_runtime) accounts at
//! [`SparseChunk::wire_bytes`].
//!
//! Entries are kept **sorted by index** (ties cannot occur — indices
//! are unique) so that merging two chunks is a linear zip and every
//! rank that merges the same pair of chunks produces the identical
//! result, the determinism the sparse AllReduce's replicated output
//! rests on.

use crate::{DType, Shape, Tensor, TensorError};

/// Bytes of one `(index, value)` wire entry: a `u32` index plus an
/// `f32` value.
pub const SPARSE_ENTRY_BYTES: usize = 8;

/// A sparse view of a 1-D dense tensor: `(index, value)` pairs sorted
/// by index, plus the dense length they index into.
///
/// # Examples
///
/// ```
/// use coconet_tensor::{DType, SparseChunk, Tensor};
///
/// let chunk = SparseChunk::new(8, vec![1, 5], vec![2.0, -3.0])?;
/// assert_eq!(chunk.wire_bytes(), 16);
/// let dense = chunk.to_dense(DType::F32);
/// assert_eq!(dense.get(5), -3.0);
/// assert_eq!(dense.get(0), 0.0);
/// # Ok::<(), coconet_tensor::TensorError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SparseChunk {
    dense_len: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseChunk {
    /// A chunk from parallel index/value lists. Indices must be strictly
    /// increasing (sorted, unique) and in range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] when the lists disagree in
    /// length and [`TensorError::SliceOutOfRange`] when an index is out
    /// of range or out of order.
    pub fn new(
        dense_len: usize,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<SparseChunk, TensorError> {
        if indices.len() != values.len() {
            return Err(TensorError::DataLength {
                expected: indices.len(),
                actual: values.len(),
            });
        }
        let mut prev: Option<u32> = None;
        for &i in &indices {
            let ordered = prev.is_none_or(|p| i > p);
            if (i as usize) >= dense_len || !ordered {
                return Err(TensorError::SliceOutOfRange {
                    dim: 0,
                    start: i as usize,
                    len: 1,
                    extent: dense_len,
                });
            }
            prev = Some(i);
        }
        Ok(SparseChunk {
            dense_len,
            indices,
            values,
        })
    }

    /// An empty chunk over a dense length.
    pub fn empty(dense_len: usize) -> SparseChunk {
        SparseChunk {
            dense_len,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the chunk stores no entries.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The dense length the indices address.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// The bytes this chunk occupies on the wire:
    /// [`SPARSE_ENTRY_BYTES`] per entry. This is what the runtime's
    /// [`BytesLedger`] records when a sparse chunk is sent — the whole
    /// point of the sparse representation.
    ///
    /// [`BytesLedger`]: ../../coconet_runtime
    pub fn wire_bytes(&self) -> usize {
        self.len() * SPARSE_ENTRY_BYTES
    }

    /// The entries as `(index, value)` pairs, ascending by index.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Materializes the chunk as a dense 1-D tensor of `dense_len`
    /// elements (zeros where no entry exists).
    pub fn to_dense(&self, dtype: DType) -> Tensor {
        let mut out = Tensor::zeros(Shape::from([self.dense_len]), dtype);
        self.add_into(&mut out);
        out
    }

    /// Scatter-adds the entries into a dense tensor of matching element
    /// count (the decode half of the sparse codec).
    ///
    /// # Panics
    ///
    /// Panics if `out.numel() != self.dense_len()`.
    pub fn add_into(&self, out: &mut Tensor) {
        assert_eq!(out.numel(), self.dense_len, "dense target length mismatch");
        if let Some(dst) = out.as_f32_slice_mut() {
            for (i, v) in self.entries() {
                dst[i as usize] += v;
            }
            return;
        }
        for (i, v) in self.entries() {
            let at = i as usize;
            out.set(at, out.get(at) + v);
        }
    }

    /// The elementwise sum of two chunks over the same dense length, as
    /// a new chunk whose entries are the union of indices (duplicates
    /// summed). A linear merge of the two sorted entry lists — both
    /// operands of a symmetric exchange compute the identical result.
    ///
    /// # Panics
    ///
    /// Panics if the dense lengths differ.
    pub fn merge_sum(&self, other: &SparseChunk) -> SparseChunk {
        assert_eq!(
            self.dense_len, other.dense_len,
            "merged chunks must cover the same dense length"
        );
        let mut indices = Vec::with_capacity(self.len() + other.len());
        let mut values = Vec::with_capacity(self.len() + other.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.len() || b < other.len() {
            let ia = self.indices.get(a).copied();
            let ib = other.indices.get(b).copied();
            match (ia, ib) {
                (Some(x), Some(y)) if x == y => {
                    indices.push(x);
                    values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
                (Some(x), Some(y)) if x < y => {
                    indices.push(x);
                    values.push(self.values[a]);
                    a += 1;
                }
                (Some(_) | None, Some(y)) => {
                    indices.push(y);
                    values.push(other.values[b]);
                    b += 1;
                }
                (Some(x), None) => {
                    indices.push(x);
                    values.push(self.values[a]);
                    a += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        SparseChunk {
            dense_len: self.dense_len,
            indices,
            values,
        }
    }

    /// Splits the entries into the `k` largest by `|value|` (ties break
    /// toward the lower index) and the rest — the re-sparsification
    /// step of the recursive-doubling sparse AllReduce, selected by
    /// [`top_k_positions`] over the magnitudes' IEEE bits. Both returned
    /// chunks keep index order. When the chunk has at most `k` entries
    /// the second chunk is empty.
    pub fn split_top_k(&self, k: usize) -> (SparseChunk, SparseChunk) {
        if self.len() <= k {
            return (self.clone(), SparseChunk::empty(self.dense_len));
        }
        let split = |len| SparseChunk {
            dense_len: self.dense_len,
            indices: Vec::with_capacity(len),
            values: Vec::with_capacity(len),
        };
        let (mut top, mut rest) = (split(k), split(self.len() - k));
        let mut kept = top_k_positions(&self.values, k, |v| v.abs().to_bits())
            .into_iter()
            .peekable();
        for (pos, (&i, &v)) in self.indices.iter().zip(&self.values).enumerate() {
            let into = if kept.next_if_eq(&(pos as u32)).is_some() {
                &mut top
            } else {
                &mut rest
            };
            into.indices.push(i);
            into.values.push(v);
        }
        (top, rest)
    }
}

/// The positions of the `k` elements of `vals` with the largest `key`,
/// ties to the lower position, in ascending order — the selection of
/// every top-k cut (`k ≥ vals.len()` keeps everything). A
/// most-significant-digit-first radix select, with no sort and no
/// `vals`-long scratch:
///
/// 1. one histogram pass over every key counts its top 11-bit digit and
///    finds the digit `D` the `k`-th largest key `T` falls in;
/// 2. one pass collects, in position order, every element whose digit
///    is `D` or above — all of the top `k` and few others;
/// 3. the lower 11 and 10 bits of `T` resolve on the candidates of
///    digit `D` alone;
/// 4. the candidates keep every key above `T` plus the first
///    `k − #{key > T}` equal to it — the lower-position tie-break, with
///    the output already in ascending order.
pub fn top_k_positions<T>(vals: &[T], k: usize, key: impl Fn(&T) -> u32) -> Vec<u32> {
    let k = k.min(vals.len());
    if k == 0 {
        return Vec::new();
    }
    let mut hist = [0u32; 1 << 11];
    for v in vals {
        hist[(key(v) >> 21) as usize] += 1;
    }
    // Keys strictly above the digits of `T` found so far.
    let mut above = 0usize;
    let mut threshold = descend(&hist, k, &mut above) << 21;
    let mut candidates = Vec::with_capacity(above + hist[(threshold >> 21) as usize] as usize);
    for (i, v) in vals.iter().enumerate() {
        let kv = key(v);
        if kv >= threshold {
            candidates.push((i as u32, kv));
        }
    }
    for (shift, bits) in [(10u32, 11u32), (0, 10)] {
        let prefix = threshold >> (shift + bits);
        let hist = &mut hist[..1 << bits];
        hist.fill(0);
        for &(_, kv) in &candidates {
            if kv >> (shift + bits) == prefix {
                hist[((kv >> shift) & ((1 << bits) - 1)) as usize] += 1;
            }
        }
        threshold |= descend(hist, k, &mut above) << shift;
    }
    let mut ties = k - above;
    let mut kept = Vec::with_capacity(k);
    for (i, kv) in candidates {
        if kv > threshold || (kv == threshold && ties > 0) {
            ties -= usize::from(kv == threshold);
            kept.push(i);
        }
    }
    debug_assert_eq!(kept.len(), k);
    kept
}

/// Walks a digit histogram from the top and returns the digit at which
/// `above` plus the counts so far reaches `k`, leaving in `above` the
/// count strictly above that digit.
fn descend(hist: &[u32], k: usize, above: &mut usize) -> u32 {
    for (digit, &count) in hist.iter().enumerate().rev() {
        if *above + count as usize >= k {
            return digit as u32;
        }
        *above += count as usize;
    }
    unreachable!("the histogram holds at least k keys")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparison sort [`SparseChunk::split_top_k`] selected with
    /// before the radix select: the positions of the top `k` by
    /// `(Reverse(|value|), index)`, ascending.
    fn split_oracle(c: &SparseChunk, k: usize) -> Vec<u32> {
        let mut order: Vec<usize> = (0..c.len()).collect();
        order.sort_by(|&a, &b| {
            c.values[b]
                .abs()
                .partial_cmp(&c.values[a].abs())
                .expect("finite magnitudes")
                .then(c.indices[a].cmp(&c.indices[b]))
        });
        let mut kept: Vec<u32> = order[..k.min(c.len())].iter().map(|&p| p as u32).collect();
        kept.sort_unstable();
        kept
    }

    proptest! {
        /// Heavy ties — a handful of magnitudes of both signs, zeros of
        /// both signs — at any `k`: the radix split keeps exactly the
        /// oracle's entries, and the rest are the complement in order.
        #[test]
        fn split_top_k_matches_the_sort_oracle(
            picks in prop::collection::vec(0usize..8, 1..300),
            k in 1usize..320,
        ) {
            const POOL: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 0.25, -0.25, 3.5, 1e-30];
            let n = picks.len();
            let values: Vec<f32> = picks.iter().map(|&p| POOL[p]).collect();
            let c = SparseChunk::new(4 * n, (0..n as u32).map(|i| 4 * i + 1).collect(), values)
                .unwrap();
            for k in [k, 1, n - 1, n] {
                let (top, rest) = c.split_top_k(k);
                let want: Vec<(u32, f32)> = if n <= k {
                    c.entries().collect()
                } else {
                    split_oracle(&c, k)
                        .iter()
                        .map(|&p| (c.indices[p as usize], c.values[p as usize]))
                        .collect()
                };
                let got: Vec<(u32, f32)> = top.entries().collect();
                prop_assert_eq!(got.len(), want.len());
                prop_assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()));
                prop_assert_eq!(top.merge_sum(&rest).len(), n);
                prop_assert_eq!(rest.len(), n - want.len());
            }
        }
    }

    #[test]
    fn construction_validates() {
        assert!(SparseChunk::new(4, vec![0, 3], vec![1.0, 2.0]).is_ok());
        // Length mismatch.
        assert!(SparseChunk::new(4, vec![0], vec![1.0, 2.0]).is_err());
        // Out of range.
        assert!(SparseChunk::new(4, vec![4], vec![1.0]).is_err());
        // Out of order / duplicate.
        assert!(SparseChunk::new(4, vec![2, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseChunk::new(4, vec![2, 2], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn wire_bytes_counts_entries() {
        let c = SparseChunk::new(100, vec![1, 2, 50], vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.wire_bytes(), 3 * SPARSE_ENTRY_BYTES);
        assert_eq!(SparseChunk::empty(100).wire_bytes(), 0);
        assert!(SparseChunk::empty(100).is_empty());
    }

    #[test]
    fn dense_roundtrip_and_scatter_add() {
        let c = SparseChunk::new(5, vec![0, 4], vec![1.5, -2.0]).unwrap();
        let d = c.to_dense(DType::F32);
        assert_eq!(d.to_f32_vec(), vec![1.5, 0.0, 0.0, 0.0, -2.0]);
        let mut acc = Tensor::full([5], DType::F32, 1.0);
        c.add_into(&mut acc);
        assert_eq!(acc.to_f32_vec(), vec![2.5, 1.0, 1.0, 1.0, -1.0]);
    }

    #[test]
    fn merge_sums_duplicates_and_keeps_order() {
        let a = SparseChunk::new(8, vec![1, 3, 6], vec![1.0, 2.0, 3.0]).unwrap();
        let b = SparseChunk::new(8, vec![0, 3, 7], vec![10.0, 20.0, 30.0]).unwrap();
        let m = a.merge_sum(&b);
        assert_eq!(m, b.merge_sum(&a), "merge is symmetric");
        let entries: Vec<(u32, f32)> = m.entries().collect();
        assert_eq!(
            entries,
            vec![(0, 10.0), (1, 1.0), (3, 22.0), (6, 3.0), (7, 30.0)]
        );
    }

    #[test]
    fn split_top_k_is_deterministic() {
        let c = SparseChunk::new(8, vec![0, 2, 4, 6], vec![1.0, -5.0, 5.0, 0.5]).unwrap();
        let (top, rest) = c.split_top_k(2);
        // |−5| and |5| tie with nothing; both selected. Order by index.
        assert_eq!(top.entries().collect::<Vec<_>>(), vec![(2, -5.0), (4, 5.0)]);
        assert_eq!(rest.entries().collect::<Vec<_>>(), vec![(0, 1.0), (6, 0.5)]);
        // Tie on magnitude: lower index wins.
        let t = SparseChunk::new(4, vec![1, 2], vec![3.0, -3.0]).unwrap();
        let (top, _) = t.split_top_k(1);
        assert_eq!(top.entries().collect::<Vec<_>>(), vec![(1, 3.0)]);
        // k >= len keeps everything.
        let (all, none) = c.split_top_k(10);
        assert_eq!(all, c);
        assert!(none.is_empty());
    }
}
