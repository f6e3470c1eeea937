//! Int8 weight storage: the sealed form of a projection weight.
//!
//! Symmetric per-output-channel int8: an `in_dim × out_dim` f32 weight
//! becomes a [`QuantizedMatrix`] of i8 codes, stored **transposed**
//! (`out_dim × in_dim`, row-major) so each output channel's codes are
//! one contiguous row sharing one scale `s_j = max|W[·][j]| / 127`.
//!
//! Nothing here computes in int8. The `gnnvault` snapshot codec
//! quantizes a weight when it writes an int8 image and dequantizes it
//! when it reads one; every forward pass runs the f32 GEMM over the
//! dequantized ("grid") weights. What the codec relies on is that the
//! grid is a **fixed point**: `quantize(dequantize(q)) == q` for every
//! `q` that [`QuantizedMatrix::quantize`] returns, so a restored vault
//! re-seals to the bytes it was restored from. That holds because a
//! channel's largest weight always takes code ±127 and
//! `fl(fl(127·s)/127) == s` for every normal `s` — checked for every
//! f32 mantissa in `tests::the_int8_grid_is_a_fixed_point`. The two
//! ends of the range are handled explicitly: a channel too small for a
//! normal scale is stored as zeros (see
//! [`QuantizedMatrix::quantize`]), and the one channel maximum whose
//! grid overflows, `f32::MAX` itself (`127·s = inf`), dequantizes to a
//! non-finite weight the snapshot decoder rejects.

use crate::{DenseMatrix, LinalgError};

/// An int8 weight matrix with per-output-channel scales, stored
/// transposed (`out_dim × in_dim`): one contiguous row of codes per
/// channel.
///
/// # Examples
///
/// ```
/// use linalg::{DenseMatrix, QuantizedMatrix};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let w = DenseMatrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]])?;
/// let q = QuantizedMatrix::quantize(&w);
/// assert_eq!((q.in_dim(), q.out_dim()), (2, 2));
/// // Dequantization returns the logical in×out orientation.
/// assert!(q.dequantize().approx_eq(&w, 4.0 / 127.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    out_dim: usize,
    in_dim: usize,
    /// `out_dim × in_dim` row-major: row `j` holds output channel `j`.
    data: Vec<i8>,
    /// One symmetric scale per output channel (`len == out_dim`).
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes an `in_dim × out_dim` f32 weight matrix.
    ///
    /// Each output channel (column of `w`) gets the symmetric scale
    /// `max|column| / 127`; an all-zero channel stores scale 0 and
    /// zero codes (dequantizing back to exact zeros). Codes are
    /// round-to-nearest (ties away from zero), clamped to `[-127, 127]`
    /// — the symmetric range, never -128.
    ///
    /// A channel whose scale would be subnormal (`max|column| <
    /// 127 · f32::MIN_POSITIVE ≈ 1.5e-36`) is stored as an all-zero
    /// channel too: a subnormal scale has too few significant bits for
    /// the grid to be a fixed point (`max|column| = 445 · 2⁻¹⁴⁹` is the
    /// smallest of 1,119 channel maxima that re-quantize to a different
    /// scale), and weights that small contribute nothing.
    pub fn quantize(w: &DenseMatrix) -> Self {
        let (in_dim, out_dim) = w.shape();
        let src = w.as_slice();
        let mut scales = vec![0.0f32; out_dim];
        for (j, scale) in scales.iter_mut().enumerate() {
            let mut max_abs = 0.0f32;
            for i in 0..in_dim {
                max_abs = max_abs.max(src[i * out_dim + j].abs());
            }
            *scale = channel_scale(max_abs);
        }
        let mut data = vec![0i8; out_dim * in_dim];
        for j in 0..out_dim {
            let scale = scales[j];
            if scale == 0.0 {
                continue;
            }
            let row = &mut data[j * in_dim..(j + 1) * in_dim];
            for (i, q) in row.iter_mut().enumerate() {
                *q = code(src[i * out_dim + j], scale);
            }
        }
        Self {
            out_dim,
            in_dim,
            data,
            scales,
        }
    }

    /// Rebuilds a quantized matrix from its stored parts (snapshot
    /// decode path).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DataLength`] when `data` is not
    /// `out_dim × in_dim` codes or `scales` is not one per channel.
    pub fn from_parts(
        out_dim: usize,
        in_dim: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<Self, LinalgError> {
        if data.len() != out_dim * in_dim {
            return Err(LinalgError::DataLength {
                expected: out_dim * in_dim,
                actual: data.len(),
            });
        }
        if scales.len() != out_dim {
            return Err(LinalgError::DataLength {
                expected: out_dim,
                actual: scales.len(),
            });
        }
        Ok(Self {
            out_dim,
            in_dim,
            data,
            scales,
        })
    }

    /// Input (contraction) dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output-channel dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The i8 codes, `out_dim × in_dim` row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-output-channel scales (`len == out_dim`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantizes back to the logical `in_dim × out_dim` f32 matrix
    /// (`W'[i][j] = code[j][i] · s_j`) — the grid weights every forward
    /// pass of an int8 deployment runs over.
    pub fn dequantize(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.in_dim, self.out_dim, |i, j| {
            f32::from(self.data[j * self.in_dim + i]) * self.scales[j]
        })
    }
}

/// A channel's scale from its largest magnitude; 0 marks a channel
/// stored as zeros (see [`QuantizedMatrix::quantize`]).
fn channel_scale(max_abs: f32) -> f32 {
    let scale = max_abs / 127.0;
    if scale < f32::MIN_POSITIVE {
        0.0
    } else {
        scale
    }
}

/// A weight's code on a channel's (non-zero) scale.
fn code(w: f32, scale: f32) -> i8 {
    (w / scale).round().clamp(-127.0, 127.0) as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        // Symmetric int8: per channel, |W - dequant(quant(W))| ≤ s/2
        // with s = max|channel|/127.
        let w = small(13, 7, 3);
        let q = QuantizedMatrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..7 {
            let mut max_abs = 0.0f32;
            for i in 0..13 {
                max_abs = max_abs.max(w.get(i, j).abs());
            }
            let half_step = max_abs / 127.0 / 2.0 + 1e-6;
            for i in 0..13 {
                assert!(
                    (w.get(i, j) - back.get(i, j)).abs() <= half_step,
                    "channel {j} row {i}"
                );
            }
        }
    }

    #[test]
    fn the_int8_grid_is_a_fixed_point() {
        // What lets a restored vault re-seal to the bytes it came from:
        // re-quantizing dequantized weights reproduces every scale and
        // every code. Per channel that is three facts about the largest
        // magnitude M and its scale s = fl(M/127): M takes code 127,
        // fl(fl(127·s)/127) == s, and every code c survives
        // round(fl(c·s)/s).
        //
        // The first two are checked for every one of the 2²³ mantissas
        // of three binades of M: the one the zero-channel threshold
        // falls in (the smallest scales there are), [1, 2), and the
        // largest finite one. Rounding of normal f32s does not depend
        // on the binade, so [1, 2) stands for every binade between the
        // other two.
        let threshold = 127.0 * f32::MIN_POSITIVE;
        let binade_of = |v: f32| v.to_bits() & 0x7f80_0000;
        for binade in [threshold, 1.0, f32::MAX].map(binade_of) {
            for mantissa in 0..1u32 << 23 {
                let m = f32::from_bits(binade | mantissa);
                let s = channel_scale(m);
                if m < threshold {
                    assert_eq!(s, 0.0, "M = {m:e} is below the threshold");
                    continue;
                }
                assert!(s.is_normal(), "M = {m:e}");
                assert_eq!(code(m, s), 127, "M = {m:e}");
                let top = 127.0 * s;
                if m == f32::MAX {
                    // The one maximum whose grid leaves the finite
                    // range; the snapshot decoder refuses such a slot.
                    assert!(top.is_infinite());
                    continue;
                }
                assert_eq!(channel_scale(top), s, "M = {m:e}");
                // The codes on a sample of the scales (both ends of the
                // binade and a stride through it): the two roundings
                // move c by at most 127·2⁻²³, nowhere near the 0.5 it
                // would take, so this needs no exhaustive sweep.
                if mantissa % 4099 == 0 || !(64..(1 << 23) - 64).contains(&mantissa) {
                    for c in -127i8..=127 {
                        assert_eq!(code(f32::from(c) * s, s), c, "M = {m:e}");
                    }
                }
            }
        }
        // Below the threshold a scale would be subnormal, and a scale of
        // a few significant bits is not a fixed point: for M = 445·2⁻¹⁴⁹
        // it would be 4·2⁻¹⁴⁹, M would take code 111, and
        // fl(111·4/127) = 3. Such channels are stored as zeros instead.
        for tiny in [f32::from_bits(1), f32::from_bits(445), f32::MIN_POSITIVE] {
            assert_eq!(channel_scale(tiny), 0.0);
        }

        // On a whole matrix: the grid re-quantizes to itself, and the
        // parts a snapshot stores rebuild the same value.
        let mut w = small(24, 9, 17);
        w.set(3, 4, 445.0 * f32::from_bits(1)); // lost in a normal channel
        for r in 0..24 {
            w.set(r, 8, f32::from_bits(r as u32 * 700)); // a sub-threshold channel
        }
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.scales()[8], 0.0);
        assert_eq!(QuantizedMatrix::quantize(&q.dequantize()), q);
        let (data, scales) = (q.data().to_vec(), q.scales().to_vec());
        let rebuilt = QuantizedMatrix::from_parts(q.out_dim(), q.in_dim(), data, scales);
        assert_eq!(rebuilt.unwrap(), q);
    }

    #[test]
    fn zero_channel_and_empty_shapes() {
        let w = DenseMatrix::zeros(4, 2);
        let q = QuantizedMatrix::quantize(&w);
        assert_eq!(q.scales(), &[0.0, 0.0]);
        assert_eq!(q.dequantize(), w);
        let empty = QuantizedMatrix::quantize(&DenseMatrix::zeros(0, 0));
        assert!(empty.data().is_empty() && empty.scales().is_empty());
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(QuantizedMatrix::from_parts(2, 3, vec![0; 5], vec![1.0; 2]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 3, vec![0; 6], vec![1.0; 3]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 3, vec![0; 6], vec![1.0; 2]).is_ok());
    }
}
