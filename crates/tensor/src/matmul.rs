//! Matrix multiplication.
//!
//! The model-parallel workloads (§2.1, Figure 3) multiply an activation
//! tensor `[B, S, H]` by a weight `[H, H']`: the leading dimensions are
//! flattened into rows, i.e. a `[B*S, H] x [H, H']` GEMM. Accumulation
//! is in `f32` even for FP16 inputs, mirroring tensor-core MMA behaviour.
//!
//! The GEMM is a packed register-tile kernel, the CPU counterpart of the
//! CUTLASS tiled GEMM the paper's overlap (§5.3) is built on. `C` is cut
//! into `BLOCK`-row blocks that fan out over the kernel worker pool. For
//! each `KC`-deep slab of the contraction, a block packs that slab of `B`
//! into `NR`-wide column panels and each `MR`-row strip of its `A` rows
//! into `[kc][MR]`, every `A` value broadcast across an `NR`-wide row,
//! widening FP16 operands as it copies. `micro_tile` then holds one
//! `MR × NR` tile of `C` in registers across the slab; its step is
//! vector loads, multiplies and adds, with no shuffle.
//!
//! Every output element still accumulates `a[i,kk]·b[kk,j]` from `0.0`
//! in ascending `kk`, one rounding per multiply and per add (Rust never
//! contracts them to an FMA), and an `f32` stored to `C` between slabs
//! reloads exactly. The product is therefore bit-identical to the naive
//! triple loop, and a row block of it to the same rows of the whole
//! product — what `overlapped_matmul_all_reduce`'s producer relies on.

use crate::{DType, Shape, Tensor, TensorError, F16};

/// Output rows per parallel task: `C` is split into `BLOCK`-row blocks,
/// each a serial GEMM with its own packing scratch.
const BLOCK: usize = 64;

/// Rows of the register tile.
const MR: usize = 4;

/// Columns of the register tile: `MR × NR` accumulators, two SSE2
/// vectors per row, fit the sixteen vector registers with room for the
/// `B` row and one `A` operand.
const NR: usize = 8;

/// Contraction depth of one packed slab: a tile's `B` panel (4 KiB) and
/// broadcast `A` strip (16 KiB) stay in L1 across it. A block's scratch
/// is one slab of `B`, `KC × n` rounded up to whole panels, on the heap,
/// plus one strip of `A` on the stack.
const KC: usize = 128;

impl Tensor {
    /// Matrix product `self @ rhs`.
    ///
    /// `self` may have any rank ≥ 1; its trailing dimension is the
    /// contraction dimension. `rhs` must be 2-D `[K, N]`. The result
    /// replaces the trailing dimension of `self` with `N`, e.g.
    /// `[B, S, K] @ [K, N] -> [B, S, N]`. A zero-length contraction
    /// (`K == 0`) yields zeros, the empty sum.
    ///
    /// The output dtype is the promotion of the input dtypes;
    /// accumulation is always `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatMulDims`] if `rhs` is not 2-D or the
    /// contraction dimensions disagree.
    ///
    /// # Examples
    ///
    /// ```
    /// use coconet_tensor::{DType, Tensor};
    ///
    /// let a = Tensor::from_f32([2, 2], DType::F32, &[1.0, 2.0, 3.0, 4.0])?;
    /// let i = Tensor::from_f32([2, 2], DType::F32, &[1.0, 0.0, 0.0, 1.0])?;
    /// assert_eq!(a.matmul(&i)?.to_f32_vec(), a.to_f32_vec());
    /// # Ok::<(), coconet_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let lhs_shape = self.shape();
        let rhs_shape = rhs.shape();
        if rhs_shape.rank() != 2 || lhs_shape.rank() < 1 {
            return Err(TensorError::MatMulDims {
                lhs: lhs_shape.clone(),
                rhs: rhs_shape.clone(),
            });
        }
        let (lead, k) = lhs_shape.dims().split_at(lhs_shape.rank() - 1);
        let k = k[0];
        if rhs_shape.dim(0) != k {
            return Err(TensorError::MatMulDims {
                lhs: lhs_shape.clone(),
                rhs: rhs_shape.clone(),
            });
        }
        let n = rhs_shape.dim(1);
        let m = lead.iter().product();

        // The accumulator vector becomes the output buffer without a
        // read-back pass; with `k == 0` it is the answer as allocated.
        let mut c = vec![0.0f32; m * n];
        gemm_blocked(Operand::of(self), Operand::of(rhs), &mut c, m, k, n);

        let mut out_dims = lead.to_vec();
        out_dims.push(n);
        let dtype = DType::promote(self.dtype(), rhs.dtype());
        Tensor::from_f32_vec(Shape::new(out_dims), dtype, c)
    }
}

/// A row-major matrix in its stored precision. F32 is read in place;
/// FP16 widens element by element inside the packing, with no staged
/// `f32` copy of the whole operand.
#[derive(Clone, Copy)]
enum Operand<'a> {
    F32(&'a [f32]),
    F16(&'a [F16]),
}

impl<'a> Operand<'a> {
    fn of(t: &'a Tensor) -> Operand<'a> {
        match t.as_f32_slice() {
            Some(s) => Operand::F32(s),
            None => Operand::F16(t.as_f16_slice().expect("a tensor is F32 or F16")),
        }
    }

    /// Packs `B[k0..k0 + kc, :]` of this `[_, n]` matrix into `NR`-wide
    /// column panels: panel `p` is `out[p * kc..(p + 1) * kc]`, one
    /// `NR`-array per contraction step, zero past column `n`.
    fn pack_b(self, k0: usize, kc: usize, n: usize, out: &mut [[f32; NR]]) {
        match self {
            Operand::F32(s) => pack_b(s, |x| x, k0, kc, n, out),
            Operand::F16(s) => pack_b(s, F16::to_f32, k0, kc, n, out),
        }
    }

    /// Packs the `mr`-row strip of this `[_, k]` matrix that starts at
    /// flat index `start` (row `r`, column `k0`) into `out[kk][i] =
    /// [A[r + i, k0 + kk]; NR]`, zero for rows `mr..MR`.
    fn pack_a(self, start: usize, k: usize, mr: usize, out: &mut [[[f32; NR]; MR]]) {
        match self {
            Operand::F32(s) => pack_a(s, |x| x, start, k, mr, out),
            Operand::F16(s) => pack_a(s, F16::to_f32, start, k, mr, out),
        }
    }
}

/// [`Operand::pack_b`] for one storage type: written panel by panel, a
/// full panel step as one fixed-width copy.
fn pack_b<T: Copy>(
    src: &[T],
    widen: impl Fn(T) -> f32,
    k0: usize,
    kc: usize,
    n: usize,
    out: &mut [[f32; NR]],
) {
    for (p, panel) in out.chunks_exact_mut(kc).enumerate() {
        let j0 = p * NR;
        let nr = NR.min(n - j0);
        for (kk, dst) in panel.iter_mut().enumerate() {
            let row = &src[(k0 + kk) * n + j0..][..nr];
            match <&[T; NR]>::try_from(row) {
                Ok(full) => *dst = full.map(&widen),
                Err(_) => {
                    *dst = [0.0; NR];
                    for (d, &x) in dst.iter_mut().zip(row) {
                        *d = widen(x);
                    }
                }
            }
        }
    }
}

/// [`Operand::pack_a`] for one storage type.
fn pack_a<T: Copy>(
    src: &[T],
    widen: impl Fn(T) -> f32,
    start: usize,
    k: usize,
    mr: usize,
    out: &mut [[[f32; NR]; MR]],
) {
    for i in 0..MR {
        if i < mr {
            let row = &src[start + i * k..][..out.len()];
            for (dst, &x) in out.iter_mut().zip(row) {
                dst[i] = [widen(x); NR];
            }
        } else {
            for dst in out.iter_mut() {
                dst[i] = [0.0; NR];
            }
        }
    }
}

/// `C = A @ B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]` row-major and
/// `C` zero on entry.
///
/// Row blocks of `C` are disjoint, so they fan out across the kernel
/// worker pool when the output clears the engine's size threshold
/// (small products stay on the single-threaded path). Each row block
/// runs the identical serial body, so the parallel product is
/// bit-identical to the serial one.
///
/// No term is skipped for a zero `a[i,kk]`, so `0 · inf` is NaN, as in
/// the naive triple loop. Skipping zeros would change a result only
/// where `B` holds a non-finite value, and there it would be wrong; it
/// would also put a data-dependent branch in the tile.
fn gemm_blocked(a: Operand, b: Operand, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    crate::kernels::parallel_chunks_mut(c, BLOCK * n, |blk, c_rows| {
        gemm_row_block(a, b, c_rows, blk * BLOCK, k, n);
    });
}

/// The serial GEMM body for the output rows `i0..i0 + c_rows.len() / n`
/// (`c_rows` is their contiguous window of `C`).
fn gemm_row_block(a: Operand, b: Operand, c_rows: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = c_rows.len() / n;
    let panels = n.div_ceil(NR);
    let mut b_pack = vec![[0.0f32; NR]; panels * KC.min(k)];
    let mut a_pack = [[[0.0f32; NR]; MR]; KC];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        let b_pack = &mut b_pack[..panels * kc];
        b.pack_b(k0, kc, n, b_pack);
        let a_pack = &mut a_pack[..kc];
        for r0 in (0..rows).step_by(MR) {
            // Strip rows past the block's end pack as zero; their tile
            // rows are never stored.
            let mr = MR.min(rows - r0);
            a.pack_a((i0 + r0) * k + k0, k, mr, a_pack);
            for (p, panel) in b_pack.chunks_exact(kc).enumerate() {
                let j0 = p * NR;
                let nr = NR.min(n - j0);
                let mut acc = [[0.0f32; NR]; MR];
                if k0 > 0 {
                    for (i, acc_row) in acc.iter_mut().enumerate().take(mr) {
                        let at = (r0 + i) * n + j0;
                        acc_row[..nr].copy_from_slice(&c_rows[at..at + nr]);
                    }
                }
                let acc = micro_tile(acc, a_pack, panel);
                for (i, acc_row) in acc.iter().enumerate().take(mr) {
                    let at = (r0 + i) * n + j0;
                    c_rows[at..at + nr].copy_from_slice(&acc_row[..nr]);
                }
            }
        }
    }
}

/// The register tile: `acc[i][j] += a[i] * bp[kk][j]` for each `kk` in
/// order, where `ap[kk][i]` holds `a[i]` broadcast across the row (see
/// [`Operand::pack_a`]). Its own function over fixed-size arrays, taken and
/// returned by value, so the accumulators live in registers for the
/// whole slab and the `NR`-wide row auto-vectorizes on baseline SSE2;
/// inlined into a caller whose loads are of dynamic width, they spill.
#[inline(never)]
fn micro_tile(
    mut acc: [[f32; NR]; MR],
    ap: &[[[f32; NR]; MR]],
    bp: &[[f32; NR]],
) -> [[f32; NR]; MR] {
    for (a, b) in ap.iter().zip(bp) {
        for (acc_row, ai) in acc.iter_mut().zip(a) {
            for ((cij, &aij), &bj) in acc_row.iter_mut().zip(ai).zip(b) {
                *cij += aij * bj;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// The `axpy` body the packed kernel replaced, kept verbatim as the
    /// bit-level oracle: `BLOCK`-tiled over `k` and `n`, one
    /// `kernels::axpy` per `(row, kk)`, skipping `a[i,kk] == 0`.
    fn axpy_row_block(a: &[f32], b: &[f32], c_rows: &mut [f32], i0: usize, k: usize, n: usize) {
        let rows = c_rows.len() / n;
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for r in 0..rows {
                    for kk in k0..k1 {
                        let aik = a[(i0 + r) * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        crate::kernels::axpy(
                            &mut c_rows[r * n + j0..r * n + j1],
                            &b[kk * n + j0..kk * n + j1],
                            aik,
                        );
                    }
                }
            }
        }
    }

    fn axpy_oracle(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        axpy_row_block(a, b, &mut c, 0, k, n);
        c
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Non-integral values, so a changed summation order changes bits,
    /// with signed zeros mixed in.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                match h % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (h % 4001) as f32 / 97.0 - 20.0,
                }
            })
            .collect()
    }

    fn tensor(dims: [usize; 2], v: &[f32]) -> Tensor {
        Tensor::from_f32(dims, DType::F32, v).unwrap()
    }

    #[test]
    fn identity() {
        let a = Tensor::from_fn([3, 3], DType::F32, |i| i as f32);
        let eye = Tensor::from_fn(
            [3, 3],
            DType::F32,
            |i| {
                if i / 3 == i % 3 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        assert_eq!(a.matmul(&eye).unwrap().to_f32_vec(), a.to_f32_vec());
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_f32([2, 3], DType::F32, &[1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_f32([3, 2], DType::F32, &[7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::from([2, 2]));
        assert_eq!(c.to_f32_vec(), vec![58., 64., 139., 154.]);
    }

    #[test]
    fn batched_3d() {
        // [2, 2, 3] @ [3, 2] -> [2, 2, 2]; equals flattening to [4, 3].
        let a = Tensor::from_fn([2, 2, 3], DType::F32, |i| i as f32);
        let b = Tensor::from_fn([3, 2], DType::F32, |i| (i % 3) as f32);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::from([2, 2, 2]));
        let flat = a.reshape([4, 3]).unwrap().matmul(&b).unwrap();
        assert_eq!(c.to_f32_vec(), flat.to_f32_vec());
    }

    #[test]
    fn dim_mismatch() {
        let a = Tensor::zeros([2, 3], DType::F32);
        let b = Tensor::zeros([4, 2], DType::F32);
        assert!(matches!(a.matmul(&b), Err(TensorError::MatMulDims { .. })));
        let b1 = Tensor::zeros([3], DType::F32);
        assert!(a.matmul(&b1).is_err(), "rhs must be 2-D");
    }

    #[test]
    fn zero_contraction_is_the_empty_sum() {
        let b = Tensor::zeros([0, 5], DType::F32);
        let c = Tensor::zeros([3, 0], DType::F32).matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::from([3, 5]));
        assert_eq!(bits(&c.to_f32_vec()), vec![0; 15]);
        let c = Tensor::zeros([0], DType::F32).matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::from([5]));
        assert_eq!(bits(&c.to_f32_vec()), vec![0; 5]);
    }

    /// No term is skipped for a zero `a[i,kk]`: `0 · inf` is NaN, as in
    /// the naive loop (the replaced axpy body returned 1 here).
    #[test]
    fn zero_times_inf_is_nan() {
        let (a, b) = ([0.0, 1.0], [f32::INFINITY, 1.0]);
        let c = tensor([1, 2], &a).matmul(&tensor([2, 1], &b)).unwrap();
        assert!(c.to_f32_vec()[0].is_nan());
        assert!(naive(&a, &b, 1, 2, 1)[0].is_nan());
    }

    #[test]
    fn mixed_precision_output() {
        let a = Tensor::full([2, 2], DType::F16, 1.0);
        let b = Tensor::full([2, 2], DType::F16, 1.0);
        assert_eq!(a.matmul(&b).unwrap().dtype(), DType::F16);
        let b32 = Tensor::full([2, 2], DType::F32, 1.0);
        assert_eq!(a.matmul(&b32).unwrap().dtype(), DType::F32);
    }

    /// FP16 operands widen inside the packing: every dtype pairing is
    /// bit-identical to the F32 product of the widened operands, rounded
    /// to the output dtype.
    #[test]
    fn fp16_operands_match_the_product_of_their_widened_values() {
        let (m, k, n) = (37, KC + 9, 21);
        let a = tensor([m, k], &values(m * k, 5)).cast(DType::F16);
        let b = tensor([k, n], &values(k * n, 6)).cast(DType::F16);
        let (a32, b32) = (a.cast(DType::F32), b.cast(DType::F32));
        let wide = a32.matmul(&b32).unwrap();
        for (lhs, rhs) in [(&a, &b32), (&a32, &b)] {
            let c = lhs.matmul(rhs).unwrap();
            assert_eq!(c.dtype(), DType::F32);
            assert_eq!(bits(&c.to_f32_vec()), bits(&wide.to_f32_vec()));
        }
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dtype(), DType::F16);
        let rounded = wide.cast(DType::F16);
        assert_eq!(bits(&c.to_f32_vec()), bits(&rounded.to_f32_vec()));
    }

    /// What `overlapped_matmul_all_reduce`'s producer computes: the
    /// product of a row window of `A` equals the same rows of the whole
    /// product, bit for bit, at windows that cut strips and blocks.
    #[test]
    fn a_row_block_equals_the_same_rows_of_the_full_product() {
        let (rows, inner, cols) = (BLOCK + 6, KC + 5, 37);
        assert_ne!(rows % MR, 0);
        let a = tensor([rows, inner], &values(rows * inner, 1));
        let w = tensor([inner, cols], &values(inner * cols, 2));
        let full = a.matmul(&w).unwrap().to_f32_vec();
        for (r0, r1) in [(0, rows), (0, 35), (35, rows), (3, 10), (17, 66)] {
            let block = a
                .slice_flat(r0 * inner, (r1 - r0) * inner)
                .and_then(|t| t.reshape([r1 - r0, inner]))
                .unwrap()
                .matmul(&w)
                .unwrap();
            assert_eq!(
                bits(&block.to_f32_vec()),
                bits(&full[r0 * cols..r1 * cols]),
                "rows {r0}..{r1}"
            );
        }
    }

    #[test]
    fn blocked_matches_naive_large() {
        // Cross the BLOCK boundary to exercise tiling edges.
        let (m, k, n) = (70, 65, 130);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 104729) % 11) as f32 - 5.0)
            .collect();
        let ta = Tensor::from_f32([m, k], DType::F32, &a).unwrap();
        let tb = Tensor::from_f32([k, n], DType::F32, &b).unwrap();
        let c = ta.matmul(&tb).unwrap();
        assert_eq!(c.to_f32_vec(), naive(&a, &b, m, k, n));
    }

    #[test]
    fn parallel_row_blocks_match_naive() {
        // Large enough that the output crosses the kernel engine's
        // parallel threshold, so row blocks fan out over the pool;
        // the result must stay exactly the serial product.
        let (m, k, n) = (300, 40, 256);
        assert!(m * n >= crate::kernels::PAR_THRESHOLD);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 104729) % 11) as f32 - 5.0)
            .collect();
        let ta = Tensor::from_f32([m, k], DType::F32, &a).unwrap();
        let tb = Tensor::from_f32([k, n], DType::F32, &b).unwrap();
        let c = ta.matmul(&tb).unwrap();
        assert_eq!(c.to_f32_vec(), naive(&a, &b, m, k, n));
    }

    /// Contraction depths around and past one packed slab.
    fn slab_depths() -> impl Strategy<Value = usize> {
        prop_oneof![Just(KC - 1), Just(KC), Just(KC + 1), Just(2 * KC + 3)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Blocked GEMM agrees with the naive triple loop.
        #[test]
        fn gemm_matches_naive(
            m in 1usize..20,
            k in 1usize..20,
            n in 1usize..20,
            seed in any::<u32>(),
        ) {
            let gen = |i: usize| (((i as u64 + seed as u64) * 2654435761) % 7) as f32 - 3.0;
            let a: Vec<f32> = (0..m * k).map(gen).collect();
            let b: Vec<f32> = (0..k * n).map(|i| gen(i + 1000)).collect();
            let ta = Tensor::from_f32([m, k], DType::F32, &a).unwrap();
            let tb = Tensor::from_f32([k, n], DType::F32, &b).unwrap();
            prop_assert_eq!(ta.matmul(&tb).unwrap().to_f32_vec(), naive(&a, &b, m, k, n));
        }

        /// The packed kernel is bit-identical to the axpy body it
        /// replaced, at shapes that are not multiples of `MR`, `NR` or
        /// `KC`, with `m` crossing `BLOCK` and, in the last arm, the
        /// output crossing the pool's parallel threshold.
        #[test]
        fn packed_gemm_matches_the_axpy_oracle_bit_for_bit(
            mkn in prop_oneof![
                Just((3usize, 2usize, 5usize)),
                (1usize..20, 1usize..20, 1usize..20),
                (BLOCK - 3..BLOCK + 9, slab_depths(), 1usize..40),
                (4 * BLOCK + 1..4 * BLOCK + 7, 1usize..KC + 3, 256usize..262),
            ],
            seed in any::<u64>(),
        ) {
            let (m, k, n) = mkn;
            let (a, b) = (values(m * k, seed), values(k * n, !seed));
            let c = tensor([m, k], &a).matmul(&tensor([k, n], &b)).unwrap();
            prop_assert_eq!(bits(&c.to_f32_vec()), bits(&axpy_oracle(&a, &b, m, k, n)));
        }
    }
}
