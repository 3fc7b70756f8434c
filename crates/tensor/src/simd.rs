//! The vector width the kernel bodies run at, chosen once at run time.
//!
//! The crate builds for baseline x86-64, where a slice loop vectorizes
//! four `f32` lanes wide (SSE2). Each hot body in [`crate::kernels`],
//! and the GEMM's register tile in `matmul`, is a named
//! `#[inline(always)]` fn that the caller runs through
//! [`dispatch!`]; on a CPU with AVX2 and F16C (every AVX2 CPU has
//! both) it is inlined into a `#[target_feature(enable = "avx2,f16c")]`
//! frame, so the same loop compiles a second time eight lanes wide.
//! The tier is read from the CPU once and cached — there is no option,
//! variable or build flag that selects it. Other targets compile the
//! base tier only.
//!
//! The F16 bodies convert halves through [`widen`] and [`narrow`]: a
//! loop of the software [`F16::to_f32`] / [`F16::from_f32`] at the base
//! tier, one `vcvtph2ps` / `vcvtps2ph` (round to nearest even) per
//! eight lanes at the AVX2 tier. The instructions compute exactly the
//! software conversions, NaN payloads included (the `--ignored` sweep
//! in `half.rs` checks every `f32` at every tier).
//!
//! The bits do not depend on the tier: every body is element-wise
//! (the GEMM tile per output element, in ascending `k`), each element
//! sees the same sequence of IEEE operations at either width, and
//! LLVM does not contract a multiply and an add into an FMA without
//! fast-math flags. The one thing Rust leaves open is which
//! payload an operation on two NaNs returns (LLVM may commute an add's
//! operands, differently per width); it is a NaN at every tier.

use crate::F16;
use std::sync::OnceLock;

/// A vector tier the kernel bodies compile for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The build's own target: SSE2 on x86-64, the baseline elsewhere.
    Base,
    /// x86-64 with AVX2 and F16C: eight `f32` lanes, variable integer
    /// shifts and the hardware half conversions.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Found),
}

/// Proof that this CPU has AVX2 and F16C. Its field is private to this
/// module, so only [`tier`]'s detection can make one, and [`run`] and
/// [`widen`] / [`narrow`] may enter code compiled for both features
/// whenever they hold one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx2Found(());

static TIER: OnceLock<Tier> = OnceLock::new();

/// The widest tier this CPU supports, detected on the first call.
pub(crate) fn tier() -> Tier {
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("f16c")
        {
            return Tier::Avx2(Avx2Found(()));
        }
        Tier::Base
    })
}

/// Runs `$body` — a call of a named `#[inline(always)]` loop over
/// slices — at the detected tier, or at `$tier` after `at`. A body that
/// converts halves names the tier it runs at, `|t| body(t, ..)`, and
/// hands it to [`widen`] / [`narrow`].
///
/// The body is wrapped in an `#[inline(always)]` closure: a plain
/// closure is called from both tiers' frames and may stay an
/// out-of-line call compiled for the base tier, so its loop would
/// never run wide.
macro_rules! dispatch {
    (at $tier:expr, |$t:ident| $body:expr) => {
        $crate::simd::run($tier, #[inline(always)] |$t| $body)
    };
    (at $tier:expr, $body:expr) => {
        $crate::simd::run($tier, #[inline(always)] |_| $body)
    };
    (|$t:ident| $body:expr) => {
        $crate::simd::dispatch!(at $crate::simd::tier(), |$t| $body)
    };
    ($body:expr) => {
        $crate::simd::dispatch!(at $crate::simd::tier(), $body)
    };
}
pub(crate) use dispatch;

/// Runs `body` at `tier`, telling it the tier it runs at. Called
/// through [`dispatch!`] only.
#[inline(always)]
pub(crate) fn run<R>(tier: Tier, body: impl FnOnce(Tier) -> R) -> R {
    match tier {
        // SAFETY: an `Avx2Found` exists only once
        // `is_x86_feature_detected!` found AVX2 and F16C on this CPU
        // (see `tier`), so both target features are present.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(found) => unsafe { avx2(found, body) },
        Tier::Base => body(Tier::Base),
    }
}

/// The AVX2 frame: `body`, inlined here, compiles with AVX2 and F16C
/// enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn avx2<R>(found: Avx2Found, body: impl FnOnce(Tier) -> R) -> R {
    body(Tier::Avx2(found))
}

/// `dst[i] = src[i].to_f32()` over equal-length slices: the software
/// [`F16::to_f32`] at the base tier, one `vcvtph2ps` per eight lanes at
/// the AVX2 tier — the same bits.
#[inline(always)]
pub(crate) fn widen(tier: Tier, src: &[F16], dst: &mut [f32]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(found) => by_eight(
            src,
            dst,
            #[inline(always)]
            |h| f16c(found, h, &[0.0; 8]).0,
        ),
        Tier::Base => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.to_f32();
            }
        }
    }
}

/// `dst[i] = F16::from_f32(src[i])` over equal-length slices: the
/// software [`F16::from_f32`] at the base tier, one `vcvtps2ph`
/// rounding to nearest even per eight lanes at the AVX2 tier — the
/// same bits.
#[inline(always)]
pub(crate) fn narrow(tier: Tier, src: &[f32], dst: &mut [F16]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(found) => by_eight(
            src,
            dst,
            #[inline(always)]
            |w| f16c(found, &[F16::ZERO; 8], w).1,
        ),
        Tier::Base => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = F16::from_f32(s);
            }
        }
    }
}

/// `dst`'s blocks of eight become `f(src's block)`; the last, short
/// block is zero-padded and only its live lanes are stored.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn by_eight<T: Copy + Default, U: Copy>(src: &[T], dst: &mut [U], f: impl Fn(&[T; 8]) -> [U; 8]) {
    let mut s = src.chunks_exact(8);
    let mut d = dst.chunks_exact_mut(8);
    for (d, s) in (&mut d).zip(&mut s) {
        d.copy_from_slice(&f(s.try_into().expect("eight lanes")));
    }
    let d = d.into_remainder();
    if !d.is_empty() {
        let mut block = [T::default(); 8];
        block[..s.remainder().len()].copy_from_slice(s.remainder());
        d.copy_from_slice(&f(&block)[..d.len()]);
    }
}

/// The one entry into F16C: eight lanes of `h` widened and of `w`
/// narrowed side by side. [`widen`] and [`narrow`] each keep one result
/// and pass zeros for the other operand, whose conversion the optimizer
/// drops once this is inlined into a body.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn f16c(_: Avx2Found, h: &[F16; 8], w: &[f32; 8]) -> ([f32; 8], [F16; 8]) {
    // SAFETY: an `Avx2Found` exists only once `is_x86_feature_detected!`
    // found AVX2 and F16C on this CPU (see `tier`).
    unsafe { f16c_lanes(h, w) }
}

/// [`f16c`]'s instructions. Array values in and out, built and taken
/// apart lane by lane, keep it free of pointer loads and stores; the
/// optimizer folds them into one vector load or store per operand.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
#[inline]
fn f16c_lanes(h: &[F16; 8], w: &[f32; 8]) -> ([f32; 8], [F16; 8]) {
    use std::arch::x86_64::{
        _mm256_castps_si256, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_extract_epi32,
        _mm256_setr_ps, _mm_extract_epi16, _mm_setr_epi16, _MM_FROUND_TO_NEAREST_INT,
    };
    let b = h.map(|x| x.to_bits() as i16);
    let halves = _mm_setr_epi16(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]);
    let wide = _mm256_castps_si256(_mm256_cvtph_ps(halves));
    let wide = [
        _mm256_extract_epi32::<0>(wide),
        _mm256_extract_epi32::<1>(wide),
        _mm256_extract_epi32::<2>(wide),
        _mm256_extract_epi32::<3>(wide),
        _mm256_extract_epi32::<4>(wide),
        _mm256_extract_epi32::<5>(wide),
        _mm256_extract_epi32::<6>(wide),
        _mm256_extract_epi32::<7>(wide),
    ];
    let floats = _mm256_setr_ps(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]);
    let narrow = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(floats);
    let narrow = [
        _mm_extract_epi16::<0>(narrow),
        _mm_extract_epi16::<1>(narrow),
        _mm_extract_epi16::<2>(narrow),
        _mm_extract_epi16::<3>(narrow),
        _mm_extract_epi16::<4>(narrow),
        _mm_extract_epi16::<5>(narrow),
        _mm_extract_epi16::<6>(narrow),
        _mm_extract_epi16::<7>(narrow),
    ];
    (
        wide.map(|x| f32::from_bits(x as u32)),
        // `_mm_extract_epi16` zero-extends the lane into the `i32`.
        narrow.map(|x| F16::from_bits(x as u16)),
    )
}

/// Every tier this CPU supports, base first: the cross-tier tests run
/// each body under each of them and compare bits.
#[cfg(test)]
pub(crate) fn supported() -> Vec<Tier> {
    let mut tiers = vec![Tier::Base];
    if tier() != Tier::Base {
        tiers.push(tier());
    }
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f32` patterns where a narrowing could go wrong: signed zeros,
    /// `f32` subnormals, the ties below the least subnormal half, a
    /// subnormal-half tie, ties to even, 65504 (the largest half) and
    /// 65520 (the first value that rounds to ∞), ±∞ and NaN payloads.
    const EDGES: [u32; 24] = [
        0,
        0x8000_0000,
        1,
        0x8000_0001,
        0x0040_0000,
        0x807F_FFFF,
        0x3300_0000,
        0x3300_0001,
        0x3340_0000,
        0x3380_0000,
        0x387F_E000,
        0x3880_0000,
        0x3F80_1000,
        0x3F80_3000,
        0x477F_E000,
        0x477F_EFFF,
        0x477F_F000,
        0xC77F_F000,
        0x7F80_0000,
        0xFF80_0000,
        0x7F80_0001,
        0x7FC0_0000,
        0xFFC0_2001,
        0x7FBF_FFFF,
    ];

    /// Every `f32` the narrow is checked on: the edges, every half
    /// widened, and the midpoint between each pair of neighbouring
    /// halves (a tie) with its two `f32` neighbours.
    fn narrow_cases() -> Vec<f32> {
        let mut cases: Vec<f32> = EDGES.iter().map(|&b| f32::from_bits(b)).collect();
        for bits in 0..=u16::MAX {
            let (lo, hi) = (F16::from_bits(bits), F16::from_bits(bits.wrapping_add(1)));
            cases.push(lo.to_f32());
            if lo.is_finite() && hi.is_finite() {
                let mid = f32::midpoint(lo.to_f32(), hi.to_f32());
                cases.extend([
                    mid,
                    f32::from_bits(mid.to_bits() - 1),
                    f32::from_bits(mid.to_bits() + 1),
                ]);
            }
        }
        cases
    }

    /// [`widen`] and [`narrow`] at every tier this CPU supports equal
    /// [`F16::to_f32`] and [`F16::from_f32`]: on all 2^16 halves, and
    /// on the edge and tie `f32`s of [`narrow_cases`].
    #[test]
    fn widen_and_narrow_match_the_software_conversions_at_every_tier() {
        let halves: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        let floats = narrow_cases();
        for tier in supported() {
            let mut wide = vec![0.0f32; halves.len()];
            dispatch!(at tier, |t| widen(t, &halves, &mut wide));
            for (h, w) in halves.iter().zip(&wide) {
                let want = h.to_f32().to_bits();
                assert_eq!(w.to_bits(), want, "{tier:?}: widen {:#06x}", h.to_bits());
            }
            let mut narrowed = vec![F16::ZERO; floats.len()];
            dispatch!(at tier, |t| narrow(t, &floats, &mut narrowed));
            for (w, h) in floats.iter().zip(&narrowed) {
                let want = F16::from_f32(*w).to_bits();
                assert_eq!(h.to_bits(), want, "{tier:?}: narrow {:#010x}", w.to_bits());
            }
        }
    }
}
