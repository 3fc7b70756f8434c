//! # coconet-compress
//!
//! The wire-compression subsystem: what a collective's payload looks
//! like *on the wire*, promoted to a tuned schedule dimension.
//!
//! The paper's thesis is that communication choices must be visible to
//! the optimizer instead of hidden behind an opaque `AllReduce`; NCCL's
//! protocol and logical topology are already tuned dimensions in this
//! reproduction, and SparCML (PAPERS.md) shows the *representation* of
//! the payload is one too: half-precision and top-k sparsified gradient
//! streams move a fraction of the dense volume, with a dense switchover
//! once density makes the sparse form larger. [`WireFormat`] is that
//! dimension; this crate holds the codecs, the deterministic top-k
//! selection with SparCML-style error-feedback residuals, the Q15.16
//! fixed-point quantizer the in-network aggregation path
//! (`CollAlgo::Switch`, SwitchML-style) rides, and the analytic
//! wire-volume formulas the bytes ledger and the simulator's
//! admissible pruning bounds share.
//!
//! Layering: `coconet-compress` sits between the tensor substrate and
//! `coconet-core` — the DSL's `CommConfig` carries a [`WireFormat`],
//! the simulator costs compressed bytes-on-wire with it, and the
//! runtime's collectives encode/decode real payloads with it.

#![warn(missing_docs)]

use std::fmt;

use coconet_tensor::{
    kernels, top_k_positions, DType, ReduceOp, SparseChunk, Tensor, SPARSE_ENTRY_BYTES,
};

/// How a collective's payload is represented on the wire.
///
/// Like the protocol and the collective algorithm, the format is a
/// *schedule* choice: it never changes what a program computes (up to
/// the stated loss), only how many bytes the interconnect carries.
///
/// # Examples
///
/// ```
/// use coconet_compress::WireFormat;
/// use coconet_tensor::DType;
///
/// let topk = WireFormat::TopK { k_permille: 10 };
/// assert_eq!(topk.k_for(1000), 10);
/// // FP16 halves an F32 payload; Dense moves it whole.
/// assert_eq!(WireFormat::Fp16.payload_bytes(100, DType::F32), 200);
/// assert_eq!(WireFormat::Dense.payload_bytes(100, DType::F32), 400);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// The payload travels in its own element type, uncompressed.
    #[default]
    Dense,
    /// Every element is rounded to IEEE 754 binary16 before the send
    /// and widened after the receive (lossless when the payload is
    /// already FP16; otherwise a half-ULP rounding per hop).
    Fp16,
    /// Only the `k = k_permille/1000 · n` largest-magnitude entries
    /// travel, as `(index, value)` pairs, with per-rank error-feedback
    /// residuals carrying the dropped mass into the next iteration
    /// (SparCML). Applies to sum AllReduces; everything else and any
    /// density past the switchover runs dense.
    TopK {
        /// Kept entries per thousand elements (1 ‰ – 1000 ‰).
        k_permille: u16,
    },
}

impl WireFormat {
    /// The default autotuner sweep: dense, FP16, and 10 ‰ top-k — the
    /// three points that expose the format crossovers without blowing
    /// up the grid.
    pub const SWEEP: [WireFormat; 3] = [
        WireFormat::Dense,
        WireFormat::Fp16,
        WireFormat::TopK { k_permille: 10 },
    ];

    /// Whether decoding can differ from the encoded input (FP16
    /// rounding, top-k truncation).
    pub fn is_lossy(self) -> bool {
        !matches!(self, WireFormat::Dense)
    }

    /// The top-k entry count for an `n`-element payload: at least one
    /// entry, at most all of them.
    pub fn k_for(self, n: u64) -> u64 {
        match self {
            WireFormat::TopK { k_permille } => {
                (n * u64::from(k_permille) / 1000).clamp(1.min(n), n)
            }
            _ => n,
        }
    }

    /// The bytes an `n`-element message of `dtype` occupies on the wire
    /// under this format. For [`WireFormat::TopK`] this is the *sparse
    /// chunk* size (`k` entries of [`SPARSE_ENTRY_BYTES`]); whether the
    /// sparse exchange pattern applies at all is the collective's
    /// decision (see [`sparse_all_reduce_wire_bytes`]).
    pub fn payload_bytes(self, elems: u64, dtype: DType) -> u64 {
        match self {
            WireFormat::Dense => elems * dtype.size_bytes() as u64,
            // Already-FP16 payloads are unchanged; F32 halves.
            WireFormat::Fp16 => elems * (dtype.size_bytes().min(2)) as u64,
            WireFormat::TopK { .. } => self.k_for(elems) * SPARSE_ENTRY_BYTES as u64,
        }
    }

    /// The element type payloads carry on the wire under this format
    /// (the sparse format's values are F32 entries).
    pub fn wire_dtype(self, dtype: DType) -> DType {
        match self {
            WireFormat::Dense | WireFormat::TopK { .. } => dtype,
            WireFormat::Fp16 => DType::F16,
        }
    }
}

impl fmt::Display for WireFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireFormat::Dense => write!(f, "Dense"),
            WireFormat::Fp16 => write!(f, "FP16"),
            WireFormat::TopK { k_permille } => write!(f, "TopK{k_permille}"),
        }
    }
}

/// The analytic per-rank send volume of the *dense* ring AllReduce —
/// `2·(p−1)/p · n · dtype_size` (exact when `p` divides `n`) — what the
/// switchover rule compares against and the runtime ledger asserts.
pub fn dense_ring_all_reduce_wire_bytes(n: u64, p: u64, dtype: DType) -> u64 {
    if p <= 1 {
        return 0;
    }
    2 * (p - 1) * (n / p) * dtype.size_bytes() as u64
}

/// The analytic per-rank send volume of the sparse AllReduce of an
/// `n`-element tensor over `p` ranks with `k` kept entries:
///
/// - power-of-two groups run the SparCML recursive-doubling exchange
///   with fixed-`k` re-sparsification — `log2(p)` rounds of one
///   `k`-entry chunk each, `log2(p) · k · 8` bytes;
/// - other groups run the AllGather form — every rank's `k`-entry
///   chunk travels the ring, `(p−1) · k · 8` bytes per rank (the
///   aggregate is `p · (p−1) · k` entries, "`p · k` chunks on the
///   wire" in SparCML's accounting).
///
/// Both forms pad every chunk to exactly `k` entries, so the volume is
/// data-independent and the ledger can assert it exactly.
pub fn sparse_all_reduce_wire_bytes(n: u64, p: u64, k: u64) -> u64 {
    if p <= 1 {
        return 0;
    }
    let k = k.min(n);
    let entry = SPARSE_ENTRY_BYTES as u64;
    if p.is_power_of_two() {
        u64::from(p.ilog2()) * k * entry
    } else {
        (p - 1) * k * entry
    }
}

/// The dense switchover rule: the sparse AllReduce runs only while it
/// is *strictly smaller* than the dense ring AllReduce of the same
/// tensor — past that density the collective silently runs dense.
/// Shared verbatim by the runtime dispatch and the simulator's cost
/// model so the tuner always prices exactly what runs.
pub fn sparse_beats_dense(n: u64, p: u64, k: u64, dtype: DType) -> bool {
    p > 1 && sparse_all_reduce_wire_bytes(n, p, k) < dense_ring_all_reduce_wire_bytes(n, p, dtype)
}

/// The exchange rounds of the sparse AllReduce (for latency modeling):
/// `log2(p)` pairwise rounds on power-of-two groups, `p − 1` ring hops
/// on the AllGather form.
pub fn sparse_all_reduce_rounds(p: u64) -> u64 {
    if p <= 1 {
        0
    } else if p.is_power_of_two() {
        u64::from(p.ilog2())
    } else {
        p - 1
    }
}

/// Fractional bits of the switch wire's fixed-point format (Q15.16,
/// SwitchML-style): values are scaled by `2^16` and rounded to `i32`
/// words, so the switch can aggregate with plain saturating integer
/// adds. Chosen so gradient-scale magnitudes (`|v| ≲ 100`) round-trip
/// within `2^-16` while the integer range still reaches `±32768`.
pub const FIXED_POINT_FRAC_BITS: u32 = 16;

/// The fixed-point scale, `2^FIXED_POINT_FRAC_BITS` (exactly 65536.0).
pub const FIXED_POINT_SCALE: f32 = (1u32 << FIXED_POINT_FRAC_BITS) as f32;

/// Bytes of one fixed-point wire word (`i32`). The switch wire always
/// carries 4-byte words regardless of the payload's element type —
/// FP16 payloads widen on the switch wire.
pub const QUANT_WORD_BYTES: usize = 4;

/// Quantizes one value to a Q15.16 fixed-point word.
///
/// The round-trip contract ([`dequantize_value`] of this):
///
/// - for finite `|v| ≤ 128.0` the absolute error is at most
///   `1.0 / FIXED_POINT_SCALE` (half a quantization step from the
///   round-to-nearest, plus at most half an integer step of f32
///   multiply rounding — the product stays below `2^23` where the f32
///   ULP is 1);
/// - `|v| ≥ i32::MAX / FIXED_POINT_SCALE` (≈ 32768) saturates to
///   `i32::MAX` / `i32::MIN` — the SwitchML clamp, never a wrap;
/// - `+∞` / `−∞` saturate like out-of-range values; `NaN` maps to 0;
/// - subnormals (and everything below `0.5 / FIXED_POINT_SCALE` in
///   magnitude) quantize to exactly 0.
///
/// Quantization is monotone (non-strictly), so `Min`/`Max` reductions
/// commute with it and the switch can serve those ops too.
///
/// The word is `(v · 2^16).round() as i32` — round half away from
/// zero, saturating — bit for bit on every `f32`, computed as
/// straight-line float and integer arithmetic so a slice loop over it
/// vectorizes (the libm `round` call and the saturating float-to-int
/// cast both stay scalar on baseline x86-64):
///
/// - adding `1.5 · 2^23` rounds a magnitude below `2^22` to an integer
///   (ties to even) held in the sum's low mantissa bits;
/// - `v` splits exactly into that rounding of itself, `a`, and a
///   remainder `y = (v − a) · 2^16` with `|y| ≤ 2^15`, which rounds
///   the same way, so the word is `a · 2^16 + round(y)` in wrapping
///   `i32` arithmetic;
/// - an exact tie of `y` moves one step away from zero (the sign of
///   the whole value decides), and NaN and the two saturated ends are
///   chosen by `select`.
#[inline]
pub fn quantize_value(v: f32) -> i32 {
    /// `1.5 · 2^23`: adding it leaves `round(x)` in the low mantissa
    /// bits for `|x| < 2^22`; those bits minus `MAGIC`'s are the `i32`.
    const MAGIC: f32 = 12_582_912.0;
    const MAGIC_BITS: i32 = 0x4B40_0000;
    let x = v * FIXED_POINT_SCALE;
    let a = v + MAGIC;
    let y = (v - (a - MAGIC)) * FIXED_POINT_SCALE;
    let b = y + MAGIC;
    let tie = y - (b - MAGIC);
    let away = i32::from(tie == 0.5 && x > 0.0) - i32::from(tie == -0.5 && x < 0.0);
    let word = ((a.to_bits() as i32).wrapping_sub(MAGIC_BITS) << FIXED_POINT_FRAC_BITS)
        .wrapping_add((b.to_bits() as i32).wrapping_sub(MAGIC_BITS))
        .wrapping_add(away);
    if x >= 2_147_483_648.0 {
        i32::MAX
    } else if x <= -2_147_483_648.0 {
        i32::MIN
    } else if x.is_nan() {
        0
    } else {
        word
    }
}

/// The inverse of [`quantize_value`]: `q / 2^16`. Exact for `|q| <
/// 2^24`; beyond that the f32 mantissa rounds (relative error ≤ 2^-24).
#[inline]
pub fn dequantize_value(q: i32) -> f32 {
    q as f32 / FIXED_POINT_SCALE
}

/// A fixed-point-quantized payload: the wire unit of the in-network
/// aggregation path (`CollAlgo::Switch`). Workers quantize their dense
/// tensors into `QuantChunk`s, the emulated switch folds them with
/// saturating integer arithmetic, and every worker dequantizes the
/// multicast result.
///
/// The scale travels with the chunk (as SwitchML's scaling exponent
/// does) and aggregation insists both sides agree, so a mixed-scale
/// fold can never silently produce garbage.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantChunk {
    values: Vec<i32>,
    scale: f32,
}

impl QuantChunk {
    /// Quantizes a tensor elementwise (see [`quantize_value`] for the
    /// round-trip contract).
    ///
    /// Both storage dtypes run through the kernel engine's slice codec
    /// — F16 tensors widen inside the monomorphic pass instead of
    /// degrading to per-element `Tensor::get` virtual indexing — and
    /// payloads above the engine's threshold quantize in parallel.
    pub fn quantize(t: &Tensor) -> QuantChunk {
        let mut values = vec![0i32; t.numel()];
        match (t.as_f32_slice(), t.as_f16_slice()) {
            (Some(vals), _) => kernels::par_map(vals, &mut values, |&v| quantize_value(v)),
            (_, Some(vals)) => kernels::par_map(vals, &mut values, |h| quantize_value(h.to_f32())),
            _ => unreachable!("tensor storage is F32 or F16"),
        }
        QuantChunk {
            values,
            scale: FIXED_POINT_SCALE,
        }
    }

    /// Number of fixed-point words.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The scale the values were quantized under.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw fixed-point words.
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Bytes this chunk occupies on the wire: `len · 4` (the scale
    /// header is excluded, like every other wire header).
    pub fn wire_bytes(&self) -> u64 {
        self.values.len() as u64 * QUANT_WORD_BYTES as u64
    }

    /// Folds another worker's contribution into this one in the
    /// switch's integer domain: saturating adds for `Sum` (the
    /// SwitchML dataplane op), integer `min`/`max` otherwise (valid
    /// because quantization is monotone). Each operator is its own
    /// loop through [`kernels::zip_assign`], at the CPU's vector tier
    /// and parallel for large chunks.
    ///
    /// # Panics
    ///
    /// When the chunks disagree on length or scale — a protocol error,
    /// not a data condition.
    pub fn accumulate(&mut self, other: &QuantChunk, op: ReduceOp) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "switch aggregation requires equal-length chunks"
        );
        assert_eq!(
            self.scale, other.scale,
            "switch aggregation requires a common fixed-point scale"
        );
        let (acc, inc) = (&mut self.values, &other.values);
        match op {
            ReduceOp::Sum => kernels::zip_assign(acc, inc, i32::saturating_add),
            ReduceOp::Min => kernels::zip_assign(acc, inc, i32::min),
            ReduceOp::Max => kernels::zip_assign(acc, inc, i32::max),
        }
    }

    /// Dequantizes into a flat tensor of `dtype` (the caller reshapes
    /// if the original payload was multi-dimensional). Runs through the
    /// kernel engine, so large chunks dequantize in parallel.
    pub fn dequantize(&self, dtype: DType) -> Tensor {
        let mut vals = vec![0.0f32; self.values.len()];
        kernels::par_map(&self.values, &mut vals, |&q| dequantize_value(q));
        Tensor::from_f32_vec([vals.len()], dtype, vals).expect("length matches shape")
    }
}

/// The analytic per-worker send volume of the switch AllReduce of an
/// `n`-element tensor: one quantized copy up to the switch and one
/// multicast copy back down — `2 · n · 4` bytes, *independent of the
/// worker count* (SwitchML's headline property, vs the ring's
/// `2(p−1)/p` factor). The word size is fixed at 4 bytes whatever the
/// payload dtype, so FP16 payloads pay a 2× wire widening for the
/// constant-in-`p` exchange.
pub fn switch_all_reduce_wire_bytes(n: u64) -> u64 {
    2 * n * QUANT_WORD_BYTES as u64
}

/// Deterministic top-k sparsification: the `k` largest-magnitude
/// elements (ties break toward the lower index) as a [`SparseChunk`].
/// `k` is clamped to the element count, so the chunk always holds
/// exactly `min(k, n)` entries — zero values included when the tensor
/// has that few large ones — which is what keeps the sparse wire
/// volume data-independent.
///
/// The selection is [`top_k_positions`]' radix select over the
/// magnitudes' IEEE bits, read straight off the storage slice — two
/// passes over it, with no index permutation, no sort and no `n`-long
/// scratch; the tie-break is exact.
pub fn sparsify_top_k(t: &Tensor, k: usize) -> SparseChunk {
    fn select<T>(vals: &[T], k: usize, widen: impl Fn(&T) -> f32) -> (Vec<u32>, Vec<f32>) {
        let indices = top_k_positions(vals, k, |v| ordered(widen(v).abs()));
        let values = indices.iter().map(|&i| widen(&vals[i as usize])).collect();
        (indices, values)
    }
    let (indices, values) = match (t.as_f32_slice(), t.as_f16_slice()) {
        (Some(vals), _) => select(vals, k, |&v| v),
        (_, Some(vals)) => select(vals, k, |h| h.to_f32()),
        _ => unreachable!("tensor storage is F32 or F16"),
    };
    SparseChunk::new(t.numel(), indices, values).expect("sorted unique in-range indices")
}

/// Total-orders a non-NaN magnitude via its IEEE bits (non-negative
/// floats sort identically to their bit patterns).
fn ordered(v: f32) -> u32 {
    debug_assert!(!v.is_nan(), "gradients must be finite");
    v.to_bits()
}

/// The per-rank error-feedback residual of a top-k compressed gradient
/// stream (SparCML / 1-bit-SGD style): everything the wire dropped is
/// remembered and re-injected into the next iteration's gradient, which
/// is what makes top-k SGD converge to the dense trajectory.
///
/// One accumulator per logical tensor per rank; the runtime's one-shot
/// collectives take `Option<&mut ErrorFeedback>` and simply drop the
/// residual when none is supplied.
#[derive(Clone, Debug, Default)]
pub struct ErrorFeedback {
    residual: Option<Tensor>,
}

impl ErrorFeedback {
    /// A fresh residual (zero).
    pub fn new() -> ErrorFeedback {
        ErrorFeedback::default()
    }

    /// The gradient with the carried residual re-injected (`g + r`),
    /// in F32. The first call is a plain widening copy.
    pub fn inject(&self, grad: &Tensor) -> Tensor {
        let g = grad.cast(DType::F32);
        match &self.residual {
            None => g,
            Some(r) => g.add(r).expect("residual tracks the gradient shape"),
        }
    }

    /// Records what this iteration's wire dropped: `residual =
    /// corrected − sent`, where `corrected` is [`inject`]'s output and
    /// `sent` is the chunk that actually traveled. The residual is
    /// `corrected`'s own buffer, written in place: once a residual
    /// exists [`inject`] returns a fresh buffer and nothing is copied;
    /// before that `corrected` is a handle of the caller's gradient,
    /// which the write detaches (one copy) and so never mutates.
    ///
    /// [`inject`]: ErrorFeedback::inject
    pub fn absorb(&mut self, corrected: Tensor, sent: &SparseChunk) {
        let mut r = corrected;
        let vals = r.as_f32_slice_mut().expect("inject's output is F32");
        for (i, v) in sent.entries() {
            vals[i as usize] -= v;
        }
        self.residual = Some(r);
    }

    /// Folds additional dropped mass (e.g. a re-sparsification round's
    /// truncation, pre-scaled by the caller) into the residual.
    pub fn absorb_scaled(&mut self, dropped: &SparseChunk, scale: f32) {
        let r = self
            .residual
            .get_or_insert_with(|| Tensor::zeros([dropped.dense_len()], DType::F32));
        let vals = r.as_f32_slice_mut().expect("residual is F32");
        for (i, v) in dropped.entries() {
            vals[i as usize] += v * scale;
        }
    }

    /// The current residual, if any iteration has run.
    pub fn residual(&self) -> Option<&Tensor> {
        self.residual.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The libm-rounding quantizer the branch-free [`quantize_value`]
    /// replaced, kept as its bit-exact oracle.
    fn quantize_oracle(v: f32) -> i32 {
        (v * FIXED_POINT_SCALE).round() as i32
    }

    /// Every exponent (both signs) with edge mantissas — where the
    /// scaled value's remainder sits at, just below and just above a
    /// half — plus every 4099th bit pattern of the `u32` space: the
    /// tier-1 cut of the exhaustive check below.
    #[test]
    fn quantize_matches_the_oracle_on_every_exponent_and_a_stride() {
        let mut patterns: Vec<u32> = (0..=u32::MAX).step_by(4099).collect();
        for sign in [0u32, 0x8000_0000] {
            for exp in 0u32..256 {
                for man in [
                    0u32, 1, 0x3F_FFFF, 0x40_0000, 0x40_0001, 0x7F_FFFE, 0x7F_FFFF,
                ] {
                    patterns.push(sign | (exp << 23) | man);
                }
            }
        }
        // Exact halves and their neighbours, on both sides of 2^23.
        for q in [0i32, 1, 2, 7, 1 << 22, (1 << 23) - 1, 1 << 23] {
            let half = (q as f32 + 0.5) / FIXED_POINT_SCALE;
            for v in [half, -half] {
                let b = v.to_bits();
                patterns.extend([b - 1, b, b + 1]);
            }
        }
        for bits in patterns {
            let v = f32::from_bits(bits);
            assert_eq!(
                quantize_value(v),
                quantize_oracle(v),
                "f32 bits {bits:#010x}"
            );
        }
    }

    /// All 2^32 `f32` patterns against the oracle, one at a time and
    /// in 2^15-element blocks through [`QuantChunk::quantize`], whose
    /// slice kernel runs at the CPU's vector tier (blocks stay below
    /// the kernel's parallel threshold, so each runs inline on its
    /// sweep task; about 15 s in release; run with
    /// `--release -- --ignored`).
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn quantize_matches_the_oracle_on_all_f32() {
        const BLOCK_BITS: u32 = 15;
        let mismatches = std::sync::atomic::AtomicU64::new(0);
        kernels::parallel_for(1 << (32 - BLOCK_BITS), 1, |blocks| {
            for b in blocks {
                let block: Vec<f32> = (0..1 << BLOCK_BITS)
                    .map(|lo| f32::from_bits((b as u32) << BLOCK_BITS | lo))
                    .collect();
                let t = Tensor::from_f32_vec([block.len()], DType::F32, block)
                    .expect("length matches shape");
                let quantized = QuantChunk::quantize(&t);
                let bad = (t.as_f32_slice().expect("an F32 tensor").iter())
                    .zip(quantized.values())
                    .filter(|(&v, &q)| {
                        let want = quantize_oracle(v);
                        quantize_value(v) != want || q != want
                    })
                    .count();
                mismatches.fetch_add(bad as u64, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert_eq!(mismatches.into_inner(), 0);
    }

    /// The selection the radix select replaced: an `n`-long index
    /// permutation partially selected by `(Reverse(key), index)`, then
    /// sorted — kept as the top-k oracle.
    fn top_k_oracle(t: &Tensor, k: usize) -> Vec<u32> {
        let n = t.numel();
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let keys: Vec<u32> = (0..n).map(|i| ordered(t.get(i).abs())).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.select_nth_unstable_by_key(k - 1, |i| (std::cmp::Reverse(keys[*i as usize]), *i));
        let mut selected = order[..k].to_vec();
        selected.sort_unstable();
        selected
    }

    /// The radix selection equals the oracle's, indices and value bits,
    /// on F32 and F16 storage.
    fn assert_top_k_matches_oracle(values: &[f32], k: usize) {
        for dtype in [DType::F32, DType::F16] {
            let t = Tensor::from_f32([values.len()], dtype, values).unwrap();
            let chunk = sparsify_top_k(&t, k);
            let want = top_k_oracle(&t, k);
            let got: Vec<u32> = chunk.entries().map(|(i, _)| i).collect();
            assert_eq!(got, want, "{dtype:?} n={} k={k}", values.len());
            for (i, v) in chunk.entries() {
                assert_eq!(
                    v.to_bits(),
                    t.get(i as usize).to_bits(),
                    "{dtype:?} entry {i}"
                );
            }
        }
    }

    #[test]
    fn radix_top_k_matches_the_oracle_on_ties_and_edge_k() {
        // n just under 2^16: a spread of magnitudes, every 7th element
        // tied at one value of alternating sign, every 11th a zero.
        let n = (1 << 16) - 1;
        let values: Vec<f32> = (0..n)
            .map(|i| match (i % 7, i % 11) {
                (0, _) => {
                    if i % 2 == 0 {
                        3.0
                    } else {
                        -3.0
                    }
                }
                (_, 0) => 0.0,
                _ => ((i * 2_654_435_761usize) % 1_000_003) as f32 * 1e-5 - 5.0,
            })
            .collect();
        let all_equal = vec![-1.25f32; 300];
        // Magnitudes one f32 ULP apart: one high digit, distinct low ones.
        let adjacent: Vec<f32> = (0..500u32)
            .map(|i| {
                f32::from_bits(1.0f32.to_bits() + i % 37) * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect();
        let zeros: Vec<f32> = (0..400)
            .map(|i| if i % 50 == 0 { 0.5 } else { 0.0 })
            .collect();
        for v in [&values, &all_equal, &adjacent, &zeros] {
            let n = v.len();
            for k in [1, 2, n / 100, n / 3, n - 1, n] {
                assert_top_k_matches_oracle(v, k.max(1));
            }
        }
    }

    proptest! {
        /// Heavy ties: values drawn from a handful of magnitudes of
        /// both signs and zeros, any `k` including `1`, `n − 1` and `n`.
        #[test]
        fn radix_top_k_matches_the_oracle_under_heavy_ties(
            picks in prop::collection::vec(0usize..9, 1..200),
            k in 1usize..220,
        ) {
            const POOL: [f32; 9] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1e-8];
            let values: Vec<f32> = picks.iter().map(|&p| POOL[p]).collect();
            let n = values.len();
            for k in [k, 1, n.saturating_sub(1).max(1), n] {
                assert_top_k_matches_oracle(&values, k);
            }
        }
    }

    #[test]
    fn display_and_sweep() {
        assert_eq!(WireFormat::Dense.to_string(), "Dense");
        assert_eq!(WireFormat::Fp16.to_string(), "FP16");
        assert_eq!(WireFormat::TopK { k_permille: 10 }.to_string(), "TopK10");
        assert_eq!(WireFormat::SWEEP.len(), 3);
        assert_eq!(WireFormat::default(), WireFormat::Dense);
        assert!(!WireFormat::Dense.is_lossy());
        assert!(WireFormat::Fp16.is_lossy());
    }

    #[test]
    fn k_clamps() {
        let f = WireFormat::TopK { k_permille: 10 };
        assert_eq!(f.k_for(1000), 10);
        assert_eq!(f.k_for(50), 1, "at least one entry");
        assert_eq!(f.k_for(0), 0, "empty tensors stay empty");
        assert_eq!(WireFormat::TopK { k_permille: 1000 }.k_for(64), 64);
        assert_eq!(WireFormat::Dense.k_for(64), 64);
    }

    #[test]
    fn payload_bytes_per_format() {
        assert_eq!(WireFormat::Dense.payload_bytes(64, DType::F32), 256);
        assert_eq!(WireFormat::Fp16.payload_bytes(64, DType::F32), 128);
        assert_eq!(
            WireFormat::Fp16.payload_bytes(64, DType::F16),
            64 * 2,
            "already-half payloads are unchanged"
        );
        let topk = WireFormat::TopK { k_permille: 125 };
        assert_eq!(topk.payload_bytes(64, DType::F32), 8 * 8);
    }

    #[test]
    fn analytic_volumes() {
        // Recursive doubling on 8 ranks: 3 rounds of k entries.
        assert_eq!(
            sparse_all_reduce_wire_bytes(1 << 20, 8, 1 << 10),
            3 * (1 << 10) * 8
        );
        // AllGather form on 6 ranks: 5 chunks of k entries.
        assert_eq!(sparse_all_reduce_wire_bytes(1 << 20, 6, 100), 5 * 100 * 8);
        assert_eq!(sparse_all_reduce_wire_bytes(64, 1, 10), 0);
        assert_eq!(
            dense_ring_all_reduce_wire_bytes(16, 4, DType::F32),
            96,
            "matches the runtime ledger formula"
        );
    }

    #[test]
    fn acceptance_volume_ratio() {
        // The acceptance criterion's numbers: a 2^24-element, 8-rank
        // F32 AllReduce at 10 ‰ moves under 5 % of the dense volume.
        let (n, p) = (1u64 << 24, 8u64);
        let k = WireFormat::TopK { k_permille: 10 }.k_for(n);
        let sparse = sparse_all_reduce_wire_bytes(n, p, k);
        let dense = dense_ring_all_reduce_wire_bytes(n, p, DType::F32);
        assert!(
            (sparse as f64) < 0.05 * dense as f64,
            "sparse {sparse} vs dense {dense}"
        );
        assert!(sparse_beats_dense(n, p, k, DType::F32));
    }

    #[test]
    fn switchover_trips_at_high_density() {
        // 100 ‰ on an FP16 tensor over 8 ranks: sparse = 3·0.1n·8 =
        // 2.4n, dense = 2·(7/8)·2n = 3.5n — still sparse. At 200 ‰
        // sparse is 4.8n > 3.5n: dense wins.
        let n = 1u64 << 16;
        let k100 = WireFormat::TopK { k_permille: 100 }.k_for(n);
        let k200 = WireFormat::TopK { k_permille: 200 }.k_for(n);
        assert!(sparse_beats_dense(n, 8, k100, DType::F16));
        assert!(!sparse_beats_dense(n, 8, k200, DType::F16));
        // Single rank never goes sparse.
        assert!(!sparse_beats_dense(n, 1, 1, DType::F32));
    }

    #[test]
    fn sparsify_selects_magnitudes_deterministically() {
        let t =
            coconet_tensor::Tensor::from_f32([6], DType::F32, &[0.5, -4.0, 1.0, 4.0, -0.25, 2.0])
                .unwrap();
        let c = sparsify_top_k(&t, 3);
        assert_eq!(
            c.entries().collect::<Vec<_>>(),
            vec![(1, -4.0), (3, 4.0), (5, 2.0)]
        );
        // Ties break toward the lower index.
        let t = coconet_tensor::Tensor::full([4], DType::F32, 1.0);
        let c = sparsify_top_k(&t, 2);
        assert_eq!(c.entries().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 1]);
        // k >= n keeps everything (lossless).
        let all = sparsify_top_k(&t, 10);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn error_feedback_carries_dropped_mass() {
        let grad =
            coconet_tensor::Tensor::from_f32([4], DType::F32, &[3.0, 0.5, -2.0, 0.25]).unwrap();
        let mut ef = ErrorFeedback::new();
        let corrected = ef.inject(&grad);
        assert_eq!(corrected.to_f32_vec(), grad.to_f32_vec());
        let sent = sparsify_top_k(&corrected, 2); // keeps 3.0 and -2.0
        ef.absorb(corrected, &sent);
        assert_eq!(
            ef.residual().unwrap().to_f32_vec(),
            vec![0.0, 0.5, 0.0, 0.25]
        );
        // Next iteration: the residual rides along.
        let next = ef.inject(&grad);
        assert_eq!(next.to_f32_vec(), vec![3.0, 1.0, -2.0, 0.5]);
        // Scaled absorption accumulates.
        let extra = SparseChunk::new(4, vec![1], vec![2.0]).unwrap();
        ef.absorb_scaled(&extra, 0.5);
        assert_eq!(ef.residual().unwrap().get(1), 0.5 + 1.0);
    }

    #[test]
    fn fixed_point_pinned_edge_cases() {
        // Saturation: past ±i32::MAX/2^16 ≈ ±32768 the cast clamps.
        assert_eq!(quantize_value(1.0e9), i32::MAX);
        assert_eq!(quantize_value(-1.0e9), i32::MIN);
        assert_eq!(quantize_value(f32::INFINITY), i32::MAX);
        assert_eq!(quantize_value(f32::NEG_INFINITY), i32::MIN);
        // NaN maps to zero (the `as` cast's defined behavior).
        assert_eq!(quantize_value(f32::NAN), 0);
        // Subnormals and anything below half a step flush to zero.
        assert_eq!(quantize_value(f32::MIN_POSITIVE / 2.0), 0);
        assert_eq!(quantize_value(0.4 / FIXED_POINT_SCALE), 0);
        // ...and half a step rounds away from zero.
        assert_eq!(quantize_value(0.5 / FIXED_POINT_SCALE), 1);
        assert_eq!(quantize_value(-0.5 / FIXED_POINT_SCALE), -1);
        // Exact lattice points round-trip exactly.
        assert_eq!(dequantize_value(quantize_value(1.0)), 1.0);
        assert_eq!(dequantize_value(quantize_value(-2.5)), -2.5);
        assert_eq!(dequantize_value(0), 0.0);
        assert_eq!(FIXED_POINT_SCALE, 65536.0);
    }

    #[test]
    fn quant_chunk_aggregates_with_saturation() {
        let a = Tensor::from_f32([3], DType::F32, &[1.0, -2.0, 30000.0]).unwrap();
        let b = Tensor::from_f32([3], DType::F32, &[0.5, -2.0, 30000.0]).unwrap();
        let mut qa = QuantChunk::quantize(&a);
        let qb = QuantChunk::quantize(&b);
        assert_eq!(qa.len(), 3);
        assert_eq!(qa.wire_bytes(), 12);
        assert_eq!(qa.scale(), FIXED_POINT_SCALE);
        qa.accumulate(&qb, ReduceOp::Sum);
        let sum = qa.dequantize(DType::F32);
        assert_eq!(sum.get(0), 1.5);
        assert_eq!(sum.get(1), -4.0);
        // 60000 exceeds the ±32768 fixed-point range: the saturating
        // add clamps instead of wrapping to a negative value.
        assert!(
            sum.get(2) > 32000.0,
            "saturated, not wrapped: {}",
            sum.get(2)
        );
        // Min/Max commute with the (monotone) quantization.
        let mut qmin = QuantChunk::quantize(&a);
        qmin.accumulate(&QuantChunk::quantize(&b), ReduceOp::Min);
        assert_eq!(qmin.dequantize(DType::F32).get(0), 0.5);
        let mut qmax = QuantChunk::quantize(&a);
        qmax.accumulate(&QuantChunk::quantize(&b), ReduceOp::Max);
        assert_eq!(qmax.dequantize(DType::F32).get(0), 1.0);
    }

    #[test]
    fn switch_volume_is_constant_in_worker_count() {
        let n = 1u64 << 24;
        let expected = 2 * n * 4;
        assert_eq!(switch_all_reduce_wire_bytes(n), expected);
        // The per-worker ring volume grows with p toward 2n·ds; the
        // switch volume is the same expression at every p.
        for p in [2u64, 8, 32, 256] {
            assert!(switch_all_reduce_wire_bytes(n) == expected, "p = {p}");
            let ring = dense_ring_all_reduce_wire_bytes(n, p, DType::F32);
            assert!(ring <= expected, "dense F32 ring never exceeds 2n words");
        }
    }

    proptest! {
        /// Fixed-point round-trip: within 1/2^16 absolute error for
        /// gradient-scale magnitudes (half a quantization step plus at
        /// most half a step of f32 multiply rounding).
        #[test]
        fn fixed_point_round_trip_within_one_step(v in -128.0f32..128.0) {
            let rt = dequantize_value(quantize_value(v));
            prop_assert!(
                (rt - v).abs() <= 1.0 / FIXED_POINT_SCALE,
                "round-trip {v} -> {rt}"
            );
        }

        /// Quantization is monotone — the property that makes Min/Max
        /// switch reductions sound.
        #[test]
        fn quantization_is_monotone(a in -40000.0f32..40000.0, b in -40000.0f32..40000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(quantize_value(lo) <= quantize_value(hi));
        }

        /// Sparsify keeps exactly min(k, n) entries and they dominate
        /// everything it dropped.
        #[test]
        fn sparsify_keeps_the_largest(
            values in prop::collection::vec(-100.0f32..100.0, 1..64),
            k in 1usize..16,
        ) {
            let n = values.len();
            let t = coconet_tensor::Tensor::from_f32([n], DType::F32, &values).unwrap();
            let c = sparsify_top_k(&t, k);
            prop_assert_eq!(c.len(), k.min(n));
            let kept: std::collections::HashSet<u32> = c.entries().map(|(i, _)| i).collect();
            let min_kept = c
                .entries()
                .map(|(_, v)| ordered(v.abs()))
                .min()
                .unwrap();
            for (i, &v) in values.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    prop_assert!(ordered(v.abs()) <= min_kept);
                }
            }
        }

        /// The switchover is consistent with the raw byte counts.
        #[test]
        fn switchover_matches_byte_comparison(
            log_n in 4u32..24,
            p in 2u64..17,
            k_permille in 1u16..1000,
        ) {
            let n = 1u64 << log_n;
            let k = WireFormat::TopK { k_permille }.k_for(n);
            let sparse = sparse_all_reduce_wire_bytes(n, p, k);
            let dense = dense_ring_all_reduce_wire_bytes(n, p, DType::F32);
            prop_assert_eq!(sparse_beats_dense(n, p, k, DType::F32), sparse < dense);
        }
    }
}
