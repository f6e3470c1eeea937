//! AVX2 + FMA micro-kernels.
//!
//! The f32 tile uses the classic Haswell register allocation: 12 `ymm`
//! accumulators (6 tile rows × two 8-lane halves of the 16-wide tile),
//! two `ymm` B-row vectors, and one A broadcast — 15 of the 16
//! architectural `ymm` registers. Lane `j` of the accumulators always
//! holds output column `j`, and every k-step performs one
//! `vfmadd231ps` per half-row, so the per-element operation sequence is
//! identical to the scalar kernel's `mul_add` chain — bit-identical
//! results (FMA is correctly rounded in both).

use super::{MR, NR};
use std::arch::x86_64::*;

/// Safe wrapper over the `#[target_feature]` implementation.
///
/// Soundness: callers reach this fn pointer only through the dispatch
/// layer, which hands out the AVX2 table exclusively when `avx2` and
/// `fma` were runtime-detected (or explicitly forced, which asserts
/// availability first).
pub(super) fn accumulate_f32(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    debug_assert!(std::arch::is_x86_feature_detected!("fma"));
    unsafe { accumulate_f32_impl(apan, bpan, acc) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn accumulate_f32_impl(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    let kc = bpan.len() / NR;
    debug_assert_eq!(apan.len(), kc * MR);
    let mut lo = [_mm256_setzero_ps(); MR];
    let mut hi = [_mm256_setzero_ps(); MR];
    for i in 0..MR {
        lo[i] = _mm256_loadu_ps(acc[i].as_ptr());
        hi[i] = _mm256_loadu_ps(acc[i].as_ptr().add(8));
    }
    let ap = apan.as_ptr();
    let bp = bpan.as_ptr();
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * NR));
        let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
        for i in 0..MR {
            let ai = _mm256_set1_ps(*ap.add(p * MR + i));
            lo[i] = _mm256_fmadd_ps(ai, b0, lo[i]);
            hi[i] = _mm256_fmadd_ps(ai, b1, hi[i]);
        }
    }
    for i in 0..MR {
        _mm256_storeu_ps(acc[i].as_mut_ptr(), lo[i]);
        _mm256_storeu_ps(acc[i].as_mut_ptr().add(8), hi[i]);
    }
}

/// Safe wrapper over the `#[target_feature]` axpy; same soundness
/// argument as [`accumulate_f32`].
pub(super) fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    debug_assert!(std::arch::is_x86_feature_detected!("fma"));
    assert!(x.len() >= y.len(), "axpy reads one x per y");
    unsafe { axpy_f32_impl(alpha, x, y) }
}

/// Eight lanes per `vfmadd231ps`; the tail uses `mul_add`, which this
/// feature set lowers to the same correctly-rounded FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let a = _mm256_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut j = 0;
    while j + 8 <= n {
        let sum = _mm256_fmadd_ps(a, _mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)));
        _mm256_storeu_ps(yp.add(j), sum);
        j += 8;
    }
    for (y, &x) in y[j..].iter_mut().zip(&x[j..n]) {
        *y = alpha.mul_add(x, *y);
    }
}
