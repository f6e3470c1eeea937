//! Portable scalar micro-kernels — the dispatch floor and the bit-exact
//! oracle every SIMD variant is property-tested against.

use super::{MR, NR};

/// Accumulates the `MR×NR` register tile over the packed panels.
///
/// `f32::mul_add` is used **unconditionally**: it is correctly rounded
/// whether it lowers to a hardware FMA instruction or a libm `fmaf`
/// call, which is exactly what makes this kernel bit-identical to the
/// AVX2/AVX-512 variants (same fused operations, same per-element
/// k-order). On targets without hardware FMA the libm path is slow —
/// accepted: this variant is the portability fallback, and bit-identity
/// across variants is worth more than fallback speed.
pub(super) fn accumulate_f32(apan: &[f32], bpan: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in apan.chunks_exact(MR).zip(bpan.chunks_exact(NR)) {
        // Fixed-size array views: no bounds checks, and LLVM sees the
        // static MR×NR shape, keeping the tile in registers where the
        // target allows.
        let a: &[f32; MR] = a.try_into().expect("chunk is exactly MR");
        let b: &[f32; NR] = b.try_into().expect("chunk is exactly NR");
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(b[j], acc[i][j]);
            }
        }
    }
}

/// `y[j] = fma(alpha, x[j], y[j])`, `mul_add` for the same reason as
/// above.
pub(super) fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y = alpha.mul_add(x, *y);
    }
}
