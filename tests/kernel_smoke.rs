//! Tier-1 smoke for the kernel engine (`coconet::tensor::kernels`): the
//! worker-pool reduction, the monomorphic serial loop and a scalar
//! reference written as a plain loop agree bit for bit, on both sides
//! of the parallel threshold, for Sum and Max; `axpy` likewise. The
//! property-based version lives in
//! `crates/tensor/tests/kernel_correctness.rs`, which tier-1 does not
//! run.

use coconet::tensor::kernels::{self, PAR_THRESHOLD};
use coconet::tensor::ReduceOp;

/// Sign-varied, non-integral values with NaN, infinities and a signed
/// zero mixed in, so a regrouped sum or a swapped `max` operand shows.
fn operand(salt: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| match (i + salt) % 1013 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            r => (r as f32 - 506.0) * 0.173 + salt as f32 * 0.011,
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn pool_serial_and_scalar_reductions_are_bit_identical() {
    assert!(kernels::pool_width() >= 1);
    // Below the threshold (the pool is bypassed), just above it, and
    // well above it at a length no chunking divides evenly.
    for len in [
        1,
        1000,
        PAR_THRESHOLD - 1,
        PAR_THRESHOLD + 37,
        4 * PAR_THRESHOLD + 3,
    ] {
        let acc = operand(7, len);
        let inc = operand(401, len);
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let scalar: Vec<f32> = acc
                .iter()
                .zip(&inc)
                .map(|(&a, &b)| match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                })
                .collect();
            let mut serial = acc.clone();
            kernels::reduce_f32_serial(&mut serial, &inc, op);
            let mut pooled = acc.clone();
            kernels::reduce_f32(&mut pooled, &inc, op);
            assert_eq!(bits(&serial), bits(&scalar), "serial, {op:?}, len {len}");
            assert_eq!(bits(&pooled), bits(&scalar), "pool, {op:?}, len {len}");
        }
    }
}

#[test]
fn axpy_matches_the_scalar_loop() {
    for len in [1, 1000, PAR_THRESHOLD + 37] {
        let b = operand(29, len);
        let c0 = operand(113, len);
        let a = -1.37f32;
        let scalar: Vec<f32> = c0.iter().zip(&b).map(|(&c, &b)| c + a * b).collect();
        let mut c = c0.clone();
        kernels::axpy(&mut c, &b, a);
        assert_eq!(bits(&c), bits(&scalar), "len {len}");
    }
}
