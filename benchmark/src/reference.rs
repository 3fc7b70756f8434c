//! Reference results as plain loops over `Vec<f32>`.
//!
//! Nothing here calls a kernel, codec or collective of the program:
//! these are the answers the program's outputs are checked against.
//! `std` sorting and selection are used; they are not code under test.

use coconet_tensor::CounterRng;

/// `n` standard-normal `f32` values: element `i` is
/// `rng.normal_at(offset + i)`.
pub fn normal_vec(rng: CounterRng, offset: u64, n: usize) -> Vec<f32> {
    (0..n as u64)
        .map(|i| rng.normal_at(offset + i) as f32)
        .collect()
}

/// What an output must equal, element by element.
#[derive(Clone, Debug)]
pub struct Expected {
    pub values: Vec<f32>,
    /// Allowed absolute error per element; empty means bit-identical.
    pub tol: Vec<f32>,
}

impl Expected {
    pub fn exact(values: Vec<f32>) -> Expected {
        Expected {
            values,
            tol: Vec::new(),
        }
    }

    pub fn within(values: Vec<f32>, tol: f32) -> Expected {
        let tol = vec![tol; values.len()];
        Expected { values, tol }
    }

    /// Number of checked elements of `out` that miss the expectation,
    /// looking at every `step`-th element (`step = 1` checks all). A
    /// length mismatch counts every element as missed.
    pub fn mismatches(&self, out: &[f32], step: usize) -> usize {
        if out.len() != self.values.len() {
            return self.values.len().max(1);
        }
        (0..out.len())
            .step_by(step.max(1))
            .filter(|&i| {
                if self.tol.is_empty() {
                    out[i].to_bits() != self.values[i].to_bits()
                } else {
                    let err = (out[i] - self.values[i]).abs();
                    err.is_nan() || err > self.tol[i]
                }
            })
            .count()
    }
}

/// Elementwise `a + b` in `f32`: the dense two-rank AllReduce, exact
/// because one addition has no order.
pub fn sum2(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `x` rounded to the nearest IEEE half-precision value (ties to even),
/// returned as `f32`. Overflow goes to infinity.
pub fn f16_round(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let a = x.abs();
    if a >= 65520.0 {
        return f32::INFINITY.copysign(x);
    }
    // Spacing of half-precision values around `a`: 2^(e-10) for normal
    // values with exponent e >= -14, 2^-24 below that.
    let e = (a.to_bits() >> 23) as i32 - 127;
    let ulp = f32::from_bits(((e.max(-14) - 10 + 127) as u32) << 23);
    // a / ulp < 2^11 and ulp is a power of two, so both the division
    // and the multiplication are exact.
    let q = a / ulp;
    let mut r = q.floor();
    let frac = q - r;
    if frac > 0.5 || (frac == 0.5 && r % 2.0 == 1.0) {
        r += 1.0;
    }
    (r * ulp).copysign(x)
}

/// Spacing of half-precision values at magnitude `a`.
pub fn f16_ulp(a: f32) -> f32 {
    let e = (a.abs().max(f32::MIN_POSITIVE).to_bits() >> 23) as i32 - 127;
    f32::from_bits(((e.clamp(-14, 15) - 10 + 127) as u32) << 23)
}

/// The two-rank sum over an FP16 wire: each rank's value is rounded
/// once on encode and the fold rounds once more, so the result is
/// within three half-ULPs (`2p − 1` roundings at `p = 2`) of the exact
/// sum, taken at the largest magnitude involved.
pub fn sum2_fp16_wire(a: &[f32], b: &[f32]) -> Expected {
    let values = sum2(a, b);
    let tol = a
        .iter()
        .zip(b)
        .map(|(x, y)| 1.5 * f16_ulp(x.abs() + y.abs()))
        .collect();
    Expected { values, tol }
}

/// One Q15.16 fixed-point step.
pub const Q1516_STEP: f32 = 1.0 / 65536.0;

/// The two-rank sum over the switch's Q15.16 wire: each rank rounds to
/// the nearest step, the integer sum is exact, so the result is within
/// half a step per rank of the exact sum.
pub fn sum2_q1516_wire(a: &[f32], b: &[f32]) -> Expected {
    // One f32 rounding of the reference sum itself rides on top.
    Expected::within(sum2(a, b), 2.0 * 0.5 * Q1516_STEP + 1e-6)
}

/// Indices of the `k` largest `|value|`s, ties to the lower index, in
/// ascending index order.
fn top_k_indices(values: &[(u32, f32)], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    let key = |&i: &usize| (std::cmp::Reverse(values[i].1.abs().to_bits()), values[i].0);
    if k < order.len() {
        order.select_nth_unstable_by_key(k, key);
        order.truncate(k);
    }
    order.sort_unstable();
    order
}

/// The two-rank top-k AllReduce: each rank keeps its `k`
/// largest-magnitude entries, the two selections are summed by index,
/// and the `k` largest of that sum survive; everything else is zero.
pub fn sum2_top_k(a: &[f32], b: &[f32], k: usize) -> Expected {
    let n = a.len();
    let select = |v: &[f32]| -> Vec<(u32, f32)> {
        let indexed: Vec<(u32, f32)> = v.iter().enumerate().map(|(i, &x)| (i as u32, x)).collect();
        top_k_indices(&indexed, k.min(n))
            .into_iter()
            .map(|i| indexed[i])
            .collect()
    };
    let (sa, sb) = (select(a), select(b));
    let mut merged: Vec<(u32, f32)> = Vec::with_capacity(sa.len() + sb.len());
    let (mut i, mut j) = (0, 0);
    while i < sa.len() || j < sb.len() {
        match (sa.get(i), sb.get(j)) {
            (Some(&(x, vx)), Some(&(y, vy))) if x == y => {
                merged.push((x, vx + vy));
                i += 1;
                j += 1;
            }
            (Some(&(x, vx)), Some(&(y, _))) if x < y => {
                merged.push((x, vx));
                i += 1;
            }
            (_, Some(&e)) => {
                merged.push(e);
                j += 1;
            }
            (Some(&e), None) => {
                merged.push(e);
                i += 1;
            }
            (None, None) => break,
        }
    }
    let mut dense = vec![0.0f32; n];
    for idx in top_k_indices(&merged, k.min(merged.len())) {
        let (at, v) = merged[idx];
        dense[at as usize] = v;
    }
    Expected::exact(dense)
}

/// Entries a top-k wire keeps of `n` at a density in permille: the
/// share rounded down, at least one.
pub fn top_k_count(n: u64, permille: u16) -> u64 {
    (n * u64::from(permille) / 1000).clamp(1.min(n), n)
}

/// Bytes rank 0 of two puts on the wire for one AllReduce of `n`
/// elements, as plain arithmetic on the algorithm's hops. The ledger
/// must show exactly this; nothing here asks the program what it
/// thinks it sends.
pub mod wire_bytes {
    /// Ring (and the hierarchical algorithm at one rank per node, which
    /// is a ring over the two node leaders): half the payload in the
    /// reduce-scatter hop, half in the all-gather hop.
    pub fn ring(n: u64, elem_bytes: u64) -> u64 {
        2 * (n / 2) * elem_bytes
    }

    /// Binomial tree: rank 0 receives the reduce and sends the
    /// broadcast, the whole payload once.
    pub fn tree(n: u64, elem_bytes: u64) -> u64 {
        n * elem_bytes
    }

    /// Top-k over two ranks: one recursive-doubling round of `k`
    /// entries, each a `u32` index and an `f32` value.
    pub fn top_k(k: u64) -> u64 {
        k * 8
    }

    /// Switch: `n` Q15.16 words up from the worker; rank 0 also hosts
    /// the emulated dataplane, which multicasts the folded `n` words to
    /// both workers.
    pub fn switch(n: u64) -> u64 {
        n * 4 + 2 * n * 4
    }
}

/// Adam hyper-parameters of the reference step (the program's
/// defaults).
#[derive(Clone, Copy, Debug)]
pub struct AdamHyper {
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
}

/// One scalar Adam step on `p` from state `(m, v)` with the summed
/// gradient `g`, learning rate `lr`, step count `t`. Returns the new
/// parameters.
pub fn adam_step(
    h: AdamHyper,
    p: &[f32],
    m: &[f32],
    v: &[f32],
    g: &[f32],
    lr: f32,
    t: f32,
) -> Vec<f32> {
    let corr1 = 1.0 - h.beta1.powf(t);
    let corr2 = 1.0 - h.beta2.powf(t);
    (0..p.len())
        .map(|i| {
            let mi = m[i] * h.beta1 + (1.0 - h.beta1) * g[i];
            let vi = v[i] * h.beta2 + (g[i] * g[i]) * (1.0 - h.beta2);
            let update = (mi / corr1) / ((vi / corr2).sqrt() + h.eps);
            p[i] - update * lr
        })
        .collect()
}

/// Row-major `[m×k]·[k×n]` as a triple loop, accumulated in `f64`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += f64::from(a[i * k + l]) * f64::from(b[l * n + j]);
            }
            c[i * n + j] = acc as f32;
        }
    }
    c
}

/// The sum of every entry of `A·B` without forming the product:
/// `Σ_l (Σ_i A[i,l]) · (Σ_j B[l,j])`, plus the same expression over
/// absolute values as the scale an error is judged against.
pub fn matmul_checksum(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (f64, f64) {
    let (mut sum, mut scale) = (0.0f64, 0.0f64);
    for l in 0..k {
        let (mut col, mut col_abs) = (0.0f64, 0.0f64);
        for i in 0..m {
            col += f64::from(a[i * k + l]);
            col_abs += f64::from(a[i * k + l].abs());
        }
        let (mut row, mut row_abs) = (0.0f64, 0.0f64);
        for j in 0..n {
            row += f64::from(b[l * n + j]);
            row_abs += f64::from(b[l * n + j].abs());
        }
        sum += col * row;
        scale += col_abs * row_abs;
    }
    (sum, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_hits_known_values() {
        assert_eq!(f16_round(1.0), 1.0);
        assert_eq!(f16_round(-2.5), -2.5);
        assert_eq!(f16_round(0.0), 0.0);
        // 1 + 2^-11 is the midpoint between 1 and 1 + 2^-10: ties to even.
        assert_eq!(f16_round(1.0 + 2f32.powi(-11)), 1.0);
        assert_eq!(f16_round(1.0 + 3.0 * 2f32.powi(-11)), 1.0 + 2f32.powi(-9));
        assert_eq!(f16_round(65504.0), 65504.0);
        assert_eq!(f16_round(70000.0), f32::INFINITY);
        // Subnormal spacing is 2^-24.
        assert_eq!(f16_round(2f32.powi(-24) * 2.6), 2f32.powi(-24) * 3.0);
        assert_eq!(f16_ulp(1.0), 2f32.powi(-10));
        assert_eq!(f16_ulp(3.9), 2f32.powi(-9));
        assert_eq!(f16_ulp(0.0), 2f32.powi(-24));
    }

    #[test]
    fn expected_counts_misses_and_rejects_nan_and_length() {
        let e = Expected::exact(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.mismatches(&[1.0, 2.0, 3.0, 4.0], 1), 0);
        assert_eq!(e.mismatches(&[1.0, 2.5, 3.0, 4.5], 1), 2);
        assert_eq!(e.mismatches(&[1.0, 2.5, 3.0, 4.5], 2), 0);
        assert_eq!(e.mismatches(&[1.0], 1), 4);
        let w = Expected::within(vec![1.0, 2.0], 0.1);
        assert_eq!(w.mismatches(&[1.05, 2.2], 1), 1);
        assert_eq!(w.mismatches(&[f32::NAN, 2.0], 1), 1);
    }

    #[test]
    fn top_k_keeps_largest_magnitudes_with_low_index_ties() {
        let a = [5.0, -1.0, 0.5, 5.0, 0.0, 0.0];
        let b = [0.0, 0.0, -4.0, -5.0, 3.0, 0.1];
        // k = 2: a keeps {0, 3}, b keeps {2, 3}; merged {0:5, 2:-4, 3:0};
        // the two largest of those are indices 0 and 2.
        let e = sum2_top_k(&a, &b, 2);
        assert_eq!(e.values, vec![5.0, 0.0, -4.0, 0.0, 0.0, 0.0]);
        // k >= n keeps everything: the dense sum.
        assert_eq!(sum2_top_k(&a, &b, 6).values, sum2(&a, &b));
    }

    #[test]
    fn wire_volumes_of_the_two_rank_algorithms() {
        // 4096 f32: two hops of 2048 elements on the ring, the whole
        // payload once on the tree, half of either over an FP16 wire.
        assert_eq!(wire_bytes::ring(4096, 4), 16384);
        assert_eq!(wire_bytes::tree(4096, 4), 16384);
        assert_eq!(wire_bytes::ring(4096, 2), 8192);
        assert_eq!(wire_bytes::switch(4096), 3 * 16384);
        // 10 permille of 2^20 is 10485.76: 10485 entries of 8 bytes.
        assert_eq!(top_k_count(1 << 20, 10), 10485);
        assert_eq!(wire_bytes::top_k(10485), 83880);
        assert_eq!(top_k_count(64, 10), 1, "never fewer than one entry");
        assert_eq!(top_k_count(0, 10), 0);
    }

    #[test]
    fn adam_step_moves_against_the_gradient() {
        let h = AdamHyper {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-6,
        };
        let p = adam_step(
            h,
            &[1.0, 1.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[2.0, -2.0],
            0.1,
            1.0,
        );
        // With zero state and t = 1 the bias-corrected update is g/|g|.
        assert!(
            (p[0] - 0.9).abs() < 1e-5 && (p[1] - 1.1).abs() < 1e-5,
            "{p:?}"
        );
    }

    #[test]
    fn matmul_and_checksum_agree() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = [1.0, 0.0, -1.0, 2.0, 0.5, 0.0]; // 3x2
        let c = matmul(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![0.5, 4.0, 2.0, 10.0]);
        let (sum, scale) = matmul_checksum(&a, &b, 2, 3, 2);
        assert_eq!(sum, 16.5);
        assert!(scale >= sum);
    }
}
