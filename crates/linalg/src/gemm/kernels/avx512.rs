//! AVX-512 micro-kernels.
//!
//! With `NR = 16`, one tile row is exactly one `zmm` register: the f32
//! kernel runs 6 `zmm` accumulators, one B-row vector, and one A
//! broadcast — a fraction of the 32-register file, with one
//! `vfmadd231ps` per tile row per k-step. Per-element operation order
//! matches the scalar kernel's `mul_add` chain exactly, so results are
//! bit-identical (both correctly rounded FMA).

use super::{MR, NR};
use std::arch::x86_64::*;

/// Safe wrapper over the `#[target_feature]` implementation.
///
/// Soundness: reached only through the dispatch layer, which hands out
/// the AVX-512 table exclusively when `avx512f` was runtime-detected
/// (or explicitly forced, which asserts availability).
pub(super) fn accumulate_f32(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    unsafe { accumulate_f32_impl(apan, bpan, acc) }
}

#[target_feature(enable = "avx512f")]
unsafe fn accumulate_f32_impl(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    let kc = bpan.len() / NR;
    debug_assert_eq!(apan.len(), kc * MR);
    let mut tile = [_mm512_setzero_ps(); MR];
    for i in 0..MR {
        tile[i] = _mm512_loadu_ps(acc[i].as_ptr());
    }
    let ap = apan.as_ptr();
    let bp = bpan.as_ptr();
    for p in 0..kc {
        let b0 = _mm512_loadu_ps(bp.add(p * NR));
        for (i, t) in tile.iter_mut().enumerate() {
            let ai = _mm512_set1_ps(*ap.add(p * MR + i));
            *t = _mm512_fmadd_ps(ai, b0, *t);
        }
    }
    for i in 0..MR {
        _mm512_storeu_ps(acc[i].as_mut_ptr(), tile[i]);
    }
}

/// Safe wrapper over the `#[target_feature]` axpy; same soundness
/// argument as [`accumulate_f32`].
pub(super) fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    assert!(x.len() >= y.len(), "axpy reads one x per y");
    unsafe { axpy_f32_impl(alpha, x, y) }
}

/// Sixteen lanes per `vfmadd231ps`; the tail uses `mul_add`, which
/// this feature set lowers to the same correctly-rounded FMA.
#[target_feature(enable = "avx512f")]
unsafe fn axpy_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    let n = y.len();
    let a = _mm512_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut j = 0;
    while j + 16 <= n {
        let sum = _mm512_fmadd_ps(a, _mm512_loadu_ps(xp.add(j)), _mm512_loadu_ps(yp.add(j)));
        _mm512_storeu_ps(yp.add(j), sum);
        j += 16;
    }
    for (y, &x) in y[j..].iter_mut().zip(&x[j..n]) {
        *y = alpha.mul_add(x, *y);
    }
}
