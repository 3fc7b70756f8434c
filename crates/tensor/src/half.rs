//! A software IEEE 754 binary16 ("half precision") implementation.
//!
//! The paper's workloads run mixed-precision (FP16 parameters/gradients,
//! FP32 optimizer state). There is no half-precision primitive in stable
//! Rust, so [`F16`] stores the 16 raw bits and converts through `f32` for
//! arithmetic — the same semantics as CUDA `__half` arithmetic promoted to
//! float, which is what the generated kernels in the paper do for the
//! mixed-precision case (§5.2, "Mixed Precision").

use std::cmp::Ordering;
use std::fmt;

/// IEEE 754 binary16 floating point number stored as its raw bit pattern.
///
/// Arithmetic is performed by converting to `f32`, operating, and rounding
/// back to the nearest representable half (round-to-nearest-even), so
/// `F16` arithmetic matches hardware half-precision up to that rounding.
///
/// # Examples
///
/// ```
/// use coconet_tensor::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!((x + x).to_f32(), 3.0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// The machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit representation.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit representation.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to the nearest representable half
    /// (round-to-nearest-even, overflow to infinity, NaN to a quiet NaN
    /// keeping the top nine payload bits).
    ///
    /// Straight-line code — every case is computed and the answer
    /// chosen by `select`, with no data-dependent branch or loop — so a
    /// slice loop over it auto-vectorizes:
    ///
    /// * normal halves round to nearest even by one integer add of the
    ///   rebiased exponent, `0xFFF` and the kept mantissa's low bit,
    ///   then a shift (a carry into the exponent is the correct
    ///   rounding up, to infinity past `MAX`);
    /// * subnormal halves are one `f32` add of `0.5`, whose `2^-24`
    ///   ULP is the subnormal step, so the hardware's own
    ///   round-to-nearest-even does the rounding;
    /// * NaN, ±∞ and overflow are the `select`ed special word.
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = (bits >> 16) as u16 & 0x8000;
        let a = bits & 0x7FFF_FFFF;
        // Rebias 127 → 15 in place ((15 − 127) << 23, wrapping), add
        // the round-half-up constant, plus one more when the kept
        // mantissa is odd: ties go to even.
        let normal = a.wrapping_add(0xC800_0FFF).wrapping_add((a >> 13) & 1) >> 13;
        // 0.5 + |x| for |x| < 2^-14 lands in [0.5, 1), where the f32
        // ULP is 2^-24: the low mantissa bits are the rounded subnormal.
        let subnormal = (f32::from_bits(a) + 0.5)
            .to_bits()
            .wrapping_sub(0x3F00_0000);
        let special = if a > 0x7F80_0000 {
            0x7E00 | ((a >> 13) & 0x01FF)
        } else {
            0x7C00
        };
        let h = if a >= 0x4780_0000 {
            // |x| ≥ 2^16 (past the half range), ±∞ or NaN.
            special
        } else if a < 0x3880_0000 {
            // |x| < 2^-14: subnormal half or zero.
            subnormal
        } else {
            normal
        };
        F16(sign | h as u16)
    }

    /// Converts to `f32` exactly (every half is representable in
    /// `f32`; NaN comes back quiet with its payload).
    ///
    /// Straight-line like [`from_f32`](F16::from_f32): the exponent
    /// and mantissa shift into place and rebias with one add; a
    /// subnormal normalizes by one exact magic-constant subtraction
    /// (`2^-14·(1 + m/2^10) − 2^-14 = m·2^-24`) instead of a shift loop;
    /// ±∞ and NaN rebias once more. The case is chosen by `select`.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = u32::from(self.0);
        let sign = (h & 0x8000) << 16;
        let em = (h & 0x7FFF) << 13;
        let exp = em & 0x0F80_0000;
        let normal = em + (112 << 23);
        let special = (normal + (112 << 23)) | (u32::from(h & 0x03FF != 0) << 22);
        let subnormal = (f32::from_bits(em + (113 << 23)) - f32::from_bits(113 << 23)).to_bits();
        let bits = if exp == 0x0F80_0000 {
            special
        } else if exp == 0 {
            subnormal
        } else {
            normal
        };
        f32::from_bits(sign | bits)
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<f32> for F16 {
    fn from(value: f32) -> F16 {
        F16::from_f32(value)
    }
}

impl From<F16> for f32 {
    fn from(value: F16) -> f32 {
        value.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

macro_rules! impl_f16_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_f16_binop!(Add, add, +);
impl_f16_binop!(Sub, sub, -);
impl_f16_binop!(Mul, mul, *);
impl_f16_binop!(Div, div, /);

impl std::ops::Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar conversion the branch-free [`F16::from_f32`] replaced,
    /// kept as its bit-exact oracle.
    fn from_f32_oracle(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;
        if exp == 0xFF {
            return if mantissa == 0 {
                sign | 0x7C00
            } else {
                sign | 0x7E00 | ((mantissa >> 13) as u16 & 0x01FF)
            };
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7C00;
        }
        if unbiased >= -14 {
            let half_exp = (unbiased + 15) as u16;
            let half_man = (mantissa >> 13) as u16;
            let mut h = sign | (half_exp << 10) | half_man;
            let round_bits = mantissa & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (half_man & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return h;
        }
        if unbiased >= -25 {
            let full_man = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_man = (full_man >> shift) as u16;
            let mut h = sign | half_man;
            let round_mask = 1u32 << (shift - 1);
            let round = full_man & round_mask != 0;
            let sticky = full_man & (round_mask - 1) != 0;
            if round && (sticky || (half_man & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return h;
        }
        sign
    }

    /// The scalar widening the branch-free [`F16::to_f32`] replaced
    /// (a shift loop normalizes subnormals), kept as its oracle.
    fn to_f32_oracle(h: u16) -> u32 {
        let sign = u32::from(h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let man = u32::from(h & 0x03FF);
        match (exp, man) {
            (0, 0) => sign,
            (0, _) => {
                let mut exp32: i32 = -14 + 127;
                let mut m = man;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    exp32 -= 1;
                }
                sign | ((exp32 as u32) << 23) | ((m & 0x03FF) << 13)
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, _) => sign | 0x7FC0_0000 | (man << 13),
            _ => sign | ((u32::from(exp) + 112) << 23) | (man << 13),
        }
    }

    fn assert_encodes_like_the_oracle(bits: u32) {
        let got = F16::from_f32(f32::from_bits(bits)).to_bits();
        assert_eq!(
            got,
            from_f32_oracle(f32::from_bits(bits)),
            "f32 bits {bits:#010x}"
        );
    }

    /// Every exponent (both signs) with the mantissas where rounding
    /// changes — zero, the round and sticky bits around the 13 dropped
    /// ones, all-ones — plus every 4099th bit pattern of the `u32`
    /// space: the tier-1 cut of the exhaustive check below.
    #[test]
    fn from_f32_matches_the_oracle_on_every_exponent_and_a_stride() {
        let edges: [u32; 14] = [
            0,
            1,
            0x0FFF,
            0x1000,
            0x1001,
            0x1FFF,
            0x2000,
            0x2FFF,
            0x3000,
            0x3001,
            0x0040_0000,
            0x007F_E000,
            0x007F_F000,
            0x007F_FFFF,
        ];
        for sign in [0u32, 0x8000_0000] {
            for exp in 0u32..256 {
                for &man in &edges {
                    assert_encodes_like_the_oracle(sign | (exp << 23) | man);
                }
                // Every subnormal-shift round/sticky position.
                for shift in 0u32..23 {
                    let round = 1u32 << shift;
                    for man in [round, round | 1, round - 1, round | (round << 1)] {
                        assert_encodes_like_the_oracle(sign | (exp << 23) | (man & 0x007F_FFFF));
                    }
                }
            }
        }
        for bits in (0..=u32::MAX).step_by(4099) {
            assert_encodes_like_the_oracle(bits);
        }
    }

    /// Every half, one at a time and through the slice kernel that
    /// runs at the CPU's vector tier.
    #[test]
    fn to_f32_matches_the_oracle_on_every_half() {
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let mut wide = vec![0.0f32; halves.len()];
        crate::kernels::f16_decode(&halves, &mut wide);
        for (h, w) in halves.into_iter().zip(wide) {
            let want = to_f32_oracle(h.to_bits());
            assert_eq!(h.to_f32().to_bits(), want, "half bits {:#06x}", h.to_bits());
            assert_eq!(
                w.to_bits(),
                want,
                "f16_decode, half bits {:#06x}",
                h.to_bits()
            );
        }
    }

    /// All 2^32 `f32` patterns against the oracle, one at a time and in
    /// 2^15-element blocks through `simd::narrow` at every vector tier
    /// this CPU supports (about 10 s in release; run with
    /// `--release -- --ignored`).
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn from_f32_matches_the_oracle_on_all_f32() {
        const BLOCK_BITS: u32 = 15;
        let mismatches = std::sync::atomic::AtomicU64::new(0);
        let tiers = crate::simd::supported();
        crate::kernels::parallel_for(1 << (32 - BLOCK_BITS), 1, |blocks| {
            let mut block = vec![0.0f32; 1 << BLOCK_BITS];
            let mut want = vec![0u16; 1 << BLOCK_BITS];
            let mut encoded = vec![F16::ZERO; 1 << BLOCK_BITS];
            for b in blocks {
                for ((lo, v), w) in (0..).zip(block.iter_mut()).zip(want.iter_mut()) {
                    *v = f32::from_bits((b as u32) << BLOCK_BITS | lo);
                    *w = from_f32_oracle(*v);
                }
                let mut bad = block
                    .iter()
                    .zip(&want)
                    .filter(|(&v, &w)| F16::from_f32(v).to_bits() != w)
                    .count();
                for &tier in &tiers {
                    crate::simd::dispatch!(at tier, |t| crate::simd::narrow(t, &block, &mut encoded));
                    bad += encoded
                        .iter()
                        .zip(&want)
                        .filter(|(h, &w)| h.to_bits() != w)
                        .count();
                }
                mismatches.fetch_add(bad as u64, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert_eq!(mismatches.into_inner(), 0);
    }

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn simple_values() {
        for v in [0.5f32, 1.0, 1.5, 2.0, -3.25, 100.0, 0.099975586] {
            let h = F16::from_f32(v);
            assert!((h.to_f32() - v).abs() <= v.abs() * 0.001 + 1e-6, "{v}");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_infinite());
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        // 65520 rounds to infinity (midpoint rounds to even => infinity).
        assert!(F16::from_f32(65520.0).is_infinite());
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-12).to_f32(), 0.0);
        let neg = F16::from_f32(-1e-12);
        assert_eq!(neg.to_f32(), 0.0);
        assert_eq!(neg.to_bits(), 0x8000, "sign of zero preserved");
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        let h = F16::from_f32(tiny);
        assert_eq!(h.to_f32(), tiny);
        // A mid-range subnormal.
        let v = 3.0 * 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(v).to_f32(), v);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10; must round to 1.0 (even).
        let v = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(v), F16::ONE);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9; rounds up to even.
        let v = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(v).to_f32(), 1.0 + 2.0 * 2.0f32.powi(-10));
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
    }

    #[test]
    fn arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert_eq!((a + b).to_f32(), 4.0);
        assert_eq!((a - b).to_f32(), -1.0);
        assert_eq!((a * b).to_f32(), 3.75);
        assert_eq!((b / a).to_f32(), F16::from_f32(2.5 / 1.5).to_f32());
        assert_eq!((-a).to_f32(), -1.5);
    }

    /// The ULP of the half-precision value nearest `v`: `2^(e-10)` for
    /// a normal with unbiased exponent `e`, the constant `2^-24` in
    /// the subnormal range.
    fn f16_ulp(v: f32) -> f32 {
        let mag = v.abs();
        if mag < 2.0f32.powi(-14) {
            2.0f32.powi(-24)
        } else {
            // Exact unbiased exponent from the f32 bit pattern (the
            // magnitude is normal in f32 whenever it is normal in f16),
            // clamped to the normal-half exponents.
            let e = (((mag.to_bits() >> 23) & 0xFF) as i32 - 127).clamp(-14, 15);
            2.0f32.powi(e - 10)
        }
    }

    #[test]
    fn nan_inf_subnormal_pinned() {
        // NaN: any f32 NaN encodes to a half NaN, sign and quietness
        // aside, and decodes back to an f32 NaN.
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
            let h = F16::from_f32(nan);
            assert!(h.is_nan());
            assert!(h.to_f32().is_nan());
        }
        // Infinities roundtrip exactly, signs preserved.
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        // The subnormal boundary values are exact.
        let min_sub = 2.0f32.powi(-24); // smallest positive subnormal
        let max_sub = 2.0f32.powi(-14) - 2.0f32.powi(-24); // largest subnormal
        for v in [min_sub, -min_sub, max_sub, -max_sub] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "{v}");
        }
        // Half of the smallest subnormal is a tie to zero (round to
        // even), and anything strictly below that underflows too.
        assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_f32(), 0.0);
        assert_eq!(F16::from_f32(-2.0f32.powi(-25)).to_bits(), 0x8000);
        // Just above the tie rounds up to the smallest subnormal.
        assert_eq!(F16::from_f32(1.1 * 2.0f32.powi(-25)).to_f32(), min_sub);
    }

    proptest! {
        /// The round-trip error of encode/decode is at most half a ULP
        /// of the destination format for every finite `f32` inside the
        /// half range — the bound round-to-nearest-even guarantees,
        /// and the bound the FP16 wire format's loss analysis quotes.
        #[test]
        fn conversion_error_within_half_ulp(bits in any::<u32>()) {
            let v = f32::from_bits(bits);
            // Constrain to finite values inside the half range: above
            // 65520 the correct answer is infinity, handled separately.
            prop_assume!(v.is_finite() && v.abs() < 65520.0);
            let h = F16::from_f32(v);
            prop_assert!(h.is_finite(), "in-range input stayed finite");
            let err = (h.to_f32() - v).abs();
            let bound = f16_ulp(v) / 2.0;
            prop_assert!(
                err <= bound,
                "|{} - {}| = {err} > ulp/2 = {bound}", h.to_f32(), v
            );
        }

        /// Values beyond the finite half range round to infinity, and
        /// every finite half decodes/encodes losslessly.
        #[test]
        fn out_of_range_overflows_and_halves_roundtrip(bits in any::<u16>()) {
            let h = F16::from_bits(bits);
            prop_assume!(!h.is_nan());
            prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), h.to_bits());
            // Push the magnitude past the range: overflow to infinity.
            let big = h.to_f32() * 3.0 + 1e6 * h.to_f32().signum();
            if big != 0.0 {
                prop_assert!(F16::from_f32(big * 65536.0).is_infinite() || big.abs() < 65520.0);
            }
        }
    }

    proptest! {
        /// Converting f16 -> f32 -> f16 is the identity on all bit patterns
        /// (modulo NaN payload, which must stay NaN).
        #[test]
        fn bits_roundtrip(bits in any::<u16>()) {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                prop_assert!(back.is_nan());
            } else {
                prop_assert_eq!(h.to_bits(), back.to_bits());
            }
        }

        /// from_f32 never increases the error beyond half the ulp-ish bound.
        #[test]
        fn conversion_error_bounded(v in -60000.0f32..60000.0) {
            let h = F16::from_f32(v);
            let err = (h.to_f32() - v).abs();
            // Relative error bounded by 2^-11 for normals, absolute by 2^-25
            // for subnormals.
            prop_assert!(err <= v.abs() * 2.0f32.powi(-11) + 2.0f32.powi(-25));
        }

        /// Ordering agrees with f32 ordering.
        #[test]
        fn ordering_consistent(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
            let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
            prop_assert_eq!(
                ha.partial_cmp(&hb),
                ha.to_f32().partial_cmp(&hb.to_f32())
            );
        }
    }
}
