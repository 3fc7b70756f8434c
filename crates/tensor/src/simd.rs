//! The vector width the kernel bodies run at, chosen once at run time.
//!
//! The crate builds for baseline x86-64, where a slice loop vectorizes
//! four `f32` lanes wide (SSE2). Each hot body in [`crate::kernels`],
//! and the GEMM's register tile in `matmul`, is a named
//! `#[inline(always)]` fn that the caller runs through
//! [`dispatch!`]; on a CPU with AVX2 it is inlined into a
//! `#[target_feature(enable = "avx2")]` frame, so the same loop
//! compiles a second time eight lanes wide. The tier is read from the
//! CPU once and cached — there is no option, variable or build flag
//! that selects it. Other targets compile the base tier only.
//!
//! The bits do not depend on the tier: every body is element-wise
//! (the GEMM tile per output element, in ascending `k`), each element
//! sees the same sequence of IEEE operations at either width, and
//! LLVM does not contract a multiply and an add into an FMA without
//! fast-math flags. The one thing Rust leaves open is which
//! payload an operation on two NaNs returns (LLVM may commute an add's
//! operands, differently per width); it is a NaN at every tier.

use std::sync::OnceLock;

/// A vector tier the kernel bodies compile for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The build's own target: SSE2 on x86-64, the baseline elsewhere.
    Base,
    /// x86-64 with AVX2: eight `f32` lanes and variable integer shifts.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Found),
}

/// Proof that this CPU has AVX2. Its field is private to this module,
/// so only [`tier`]'s detection can make one, and [`run`] may enter
/// the AVX2 frame whenever it holds one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Avx2Found(());

static TIER: OnceLock<Tier> = OnceLock::new();

/// The widest tier this CPU supports, detected on the first call.
pub(crate) fn tier() -> Tier {
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2(Avx2Found(()));
        }
        Tier::Base
    })
}

/// Runs `$body` — a call of a named `#[inline(always)]` loop over
/// slices — at the detected tier, or at `$tier` after `at`.
///
/// The body is wrapped in an `#[inline(always)]` closure: a plain
/// closure is called from both tiers' frames and may stay an
/// out-of-line call compiled for the base tier, so its loop would
/// never run wide.
macro_rules! dispatch {
    ($body:expr) => {
        $crate::simd::dispatch!(at $crate::simd::tier(), $body)
    };
    (at $tier:expr, $body:expr) => {
        $crate::simd::run($tier, #[inline(always)] || $body)
    };
}
pub(crate) use dispatch;

/// Runs `body` at `tier`. Called through [`dispatch!`] only.
#[inline(always)]
pub(crate) fn run<R>(tier: Tier, body: impl FnOnce() -> R) -> R {
    match tier {
        // SAFETY: an `Avx2Found` exists only once
        // `is_x86_feature_detected!("avx2")` found AVX2 on this CPU
        // (see `tier`), so the `avx2` target feature is present.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2(_) => unsafe { avx2(body) },
        Tier::Base => body(),
    }
}

/// The AVX2 frame: `body`, inlined here, compiles with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
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
