//! The sparse × dense product that returns the packed engine's bits.
//!
//! [`csr_gemm_into_ws`] computes `epilogue(A · B)` for a CSR `A` and
//! returns exactly what [`gemm_into_ws`](super::gemm_into_ws) returns
//! for `A` densified. The packed engine's order is not one chain per
//! element: for each [`KC`]-wide block of k it runs a fused
//! multiply-add chain from `+0`, stores the first block's sum, adds each
//! later block's sum, and applies the epilogue after the last block
//! (`micro_tile`). This product walks each row's stored entries in
//! column order and runs the same chains, block by block, through the
//! dispatched FMA axpy.
//!
//! Skipping is exact. A chain from `+0` is never `-0`, so for a finite
//! `b` the skipped term `fma(0, b, acc)` returns `acc`, and an all-zero
//! block adds `+0` to a sum that is not `-0`. A non-finite `B` breaks
//! the first argument (`0 · ∞` is NaN in the dense chain), so such a
//! call runs the dense engine over `A` densified instead. The check is
//! one pass over `B` per call.
//!
//! `Aᵀ · B` is this product over an explicit transpose: the dense
//! engine's `GemmOp::AtB` blocks k over `A`'s rows, which are the
//! transpose's columns. Rows are partitioned over the pool by nonzero
//! count, as [`CsrMatrix::spmm`] partitions them; each output row is
//! computed by one worker, so the result is the same at any width.
//! (`spmm` itself accumulates `*o += v * b`, unfused, which is why this
//! product is a second kernel.)

use super::{gemm_with_kernels, kernels, Epilogue, GemmOp, GemmStrategy, Kernels, KC};
use crate::pool::{self, ThreadPool};
use crate::sparse::SPMM_PARALLEL_FLOP_THRESHOLD;
use crate::{CsrMatrix, DenseMatrix, LinalgError, Workspace};

/// `out = epilogue(a · b)`, bit-identical to
/// [`gemm_into_ws`](super::gemm_into_ws)`(GemmOp::AB, ..)` over `a`
/// densified, in time proportional to `a`'s stored entries rather than
/// its area. `out` is overwritten; `ws` is drawn on only when `b` holds
/// a non-finite value (see the module docs).
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`,
/// when `out` is not `a.rows() × b.cols()`, or when the epilogue bias
/// length differs from `b.cols()`.
///
/// # Examples
///
/// ```
/// use linalg::{csr_gemm_into_ws, gemm_into_ws, CsrMatrix, DenseMatrix, Epilogue, GemmOp, Workspace};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let mut ws = Workspace::new();
/// let x = DenseMatrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 0.0]])?;
/// let w = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
/// let mut sparse = DenseMatrix::zeros(2, 2);
/// csr_gemm_into_ws(&CsrMatrix::from_dense(&x), &w, &mut sparse, Epilogue::None, &mut ws)?;
/// let mut dense = DenseMatrix::zeros(2, 2);
/// gemm_into_ws(GemmOp::AB, &x, &w, &mut dense, Epilogue::None, &mut ws)?;
/// assert_eq!(sparse, dense);
/// # Ok(())
/// # }
/// ```
pub fn csr_gemm_into_ws(
    a: &CsrMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epilogue: Epilogue<'_>,
    ws: &mut Workspace,
) -> Result<(), LinalgError> {
    let threaded = a.nnz() * b.cols() >= SPMM_PARALLEL_FLOP_THRESHOLD;
    csr_gemm_with(
        kernels::active(),
        pool::global(),
        threaded,
        a,
        b,
        out,
        epilogue,
        ws,
    )
}

/// [`csr_gemm_into_ws`] with the kernel table, the pool and the
/// threading decision pinned: the hook this module's tests use to hold
/// every variant and pool width to the dense engine in one process.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn csr_gemm_with(
    kern: &'static Kernels,
    pool: &ThreadPool,
    threaded: bool,
    a: &CsrMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epilogue: Epilogue<'_>,
    ws: &mut Workspace,
) -> Result<(), LinalgError> {
    let (m, n) = (a.rows(), b.cols());
    if a.cols() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "csr_gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (m, n) {
        return Err(LinalgError::ShapeMismatch {
            op: "csr_gemm_into",
            lhs: (m, n),
            rhs: out.shape(),
        });
    }
    if let Some(bias) = epilogue.bias() {
        if bias.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "csr_gemm_epilogue",
                lhs: (m, n),
                rhs: (1, bias.len()),
            });
        }
    }
    if !b.as_slice().iter().all(|v| v.is_finite()) {
        let mut dense = ws.take(m, a.cols());
        for (r, c, v) in a.iter() {
            dense.set(r, c, v);
        }
        let done = gemm_with_kernels(
            kern,
            GemmOp::AB,
            &dense,
            b,
            out,
            epilogue,
            GemmStrategy::Auto,
            ws,
        );
        ws.give(dense);
        return done;
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let workers = if threaded {
        pool.num_threads().min(m)
    } else {
        1
    };
    if workers <= 1 {
        rows_into(kern, a, b, out.as_mut_slice(), 0, epilogue);
        return Ok(());
    }
    let row_bounds = a.row_bounds_by_nnz(workers);
    let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| r * n).collect();
    pool.run_on_partitions(out.as_mut_slice(), &elem_bounds, |index, chunk| {
        rows_into(kern, a, b, chunk, row_bounds[index], epilogue);
    });
    Ok(())
}

/// Overwrites `out` with output rows `row0..` of `epilogue(a · b)`, one
/// `b.cols()`-wide row per chunk. The first block holding a non-zero
/// term chains straight into the zeroed output row (`+0 + s = s` is the
/// engine's store of the first block); each later one chains into
/// `block` and is added.
fn rows_into(
    kern: &'static Kernels,
    a: &CsrMatrix,
    b: &DenseMatrix,
    out: &mut [f32],
    row0: usize,
    epilogue: Epilogue<'_>,
) {
    let n = b.cols();
    let mut block = vec![0.0f32; n];
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        orow.fill(0.0);
        let (cols, vals) = a.row_entries(row0 + i);
        let mut started = false;
        let mut e = 0;
        while e < cols.len() {
            let end = e + cols[e..].partition_point(|&c| c / KC == cols[e] / KC);
            let mut touched = false;
            for (&c, &v) in cols[e..end].iter().zip(&vals[e..end]) {
                if v == 0.0 {
                    continue;
                }
                let acc = if started {
                    if !touched {
                        block.fill(0.0);
                    }
                    &mut block[..]
                } else {
                    &mut *orow
                };
                (kern.axpy_f32)(v, b.row(c), acc);
                touched = true;
            }
            if started && touched {
                for (o, &s) in orow.iter_mut().zip(&block) {
                    *o += s;
                }
            }
            started |= touched;
            e = end;
        }
        epilogue.apply_to_row(orow, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernels::{available_kernel_variants, kernels_for};
    use super::*;
    use crate::gemm_into_ws;
    use proptest::prelude::*;

    /// The inner dimensions the suite covers: empty, a single term, one
    /// block minus, at and plus one term, and three blocks plus a
    /// partial fourth.
    const KS: [usize; 6] = [0, 1, KC - 1, KC, KC + 1, 3 * KC + 5];

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn dense_values(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut next = xorshift(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| ((next() % 2000) as f32 - 1000.0) / 250.0)
    }

    /// A `rows × cols` sparse matrix at roughly `density`, with every
    /// case the product must skip exactly: empty rows (every third),
    /// empty columns (every fifth), the second [`KC`] block of rows and
    /// of columns left empty when there is one, stored `+0` and `-0`
    /// entries, and negative values spread over 20 binades so any
    /// reordering shows in low bits.
    fn sparse_values(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut next = xorshift(seed ^ 0x5EED);
        let mut triplets = Vec::new();
        for r in (0..rows).filter(|r| r % 3 != 1 && r / KC != 1) {
            for c in (0..cols).filter(|c| c % 5 != 2 && c / KC != 1) {
                let roll = next() % 10_000;
                if (roll as f64) < density * 10_000.0 {
                    let scale = 2f32.powi((next() % 21) as i32 - 10);
                    let v = match roll % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => ((next() % 2000) as f32 - 1000.0) / 250.0 * scale,
                    };
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets).expect("in range")
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The product under every available variant at pool widths 1 and
    /// 4, each against `reference` bit for bit.
    fn check_all(a: &CsrMatrix, b: &DenseMatrix, epi: Epilogue<'_>, reference: &DenseMatrix) {
        let pools = [ThreadPool::with_workers(1), ThreadPool::with_workers(4)];
        let mut ws = Workspace::new();
        for variant in available_kernel_variants() {
            for pool in &pools {
                let mut out = DenseMatrix::filled(a.rows(), b.cols(), f32::NAN);
                let kern = kernels_for(variant);
                csr_gemm_with(kern, pool, true, a, b, &mut out, epi, &mut ws).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(reference),
                    "variant {} width {}",
                    variant.label(),
                    pool.num_threads()
                );
            }
        }
    }

    fn epilogues(bias: &[f32]) -> [Epilogue<'_>; 3] {
        [
            Epilogue::None,
            Epilogue::Bias(bias),
            Epilogue::BiasRelu(bias),
        ]
    }

    fn dense_product(
        op: GemmOp,
        a: &DenseMatrix,
        b: &DenseMatrix,
        epi: Epilogue<'_>,
    ) -> DenseMatrix {
        let rows = if op == GemmOp::AtB {
            a.cols()
        } else {
            a.rows()
        };
        let mut out = DenseMatrix::filled(rows, b.cols(), f32::NAN);
        gemm_into_ws(op, a, b, &mut out, epi, &mut Workspace::new()).unwrap();
        out
    }

    #[test]
    fn shapes_are_checked() {
        let a = CsrMatrix::zeros(3, 4);
        let mut ws = Workspace::new();
        let mut out = DenseMatrix::zeros(3, 2);
        let b = DenseMatrix::zeros(5, 2);
        assert!(csr_gemm_into_ws(&a, &b, &mut out, Epilogue::None, &mut ws).is_err());
        let b = DenseMatrix::zeros(4, 2);
        let mut wrong = DenseMatrix::zeros(3, 3);
        assert!(csr_gemm_into_ws(&a, &b, &mut wrong, Epilogue::None, &mut ws).is_err());
        let short = Epilogue::Bias(&[1.0]);
        assert!(csr_gemm_into_ws(&a, &b, &mut out, short, &mut ws).is_err());
        csr_gemm_into_ws(&a, &b, &mut out, Epilogue::Bias(&[1.0, 2.0]), &mut ws).unwrap();
        assert_eq!(out.row(2), &[1.0, 2.0]);
    }

    /// `0 · ∞` is NaN in the dense chain: a non-finite operand behind a
    /// column with no stored entry still poisons every row, as it does
    /// densely.
    #[test]
    fn a_non_finite_operand_matches_the_dense_engine() {
        let x = sparse_values(9, 2 * KC + 3, 0.05, 3);
        let empty_col = 2; // `sparse_values` never stores column 2
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut w = dense_values(x.cols(), 5, 4);
            w.set(empty_col, 1, bad);
            let reference = dense_product(GemmOp::AB, &x.to_dense(), &w, Epilogue::None);
            assert!(reference.get(0, 1).is_nan());
            check_all(&x, &w, Epilogue::None, &reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `A · W` against the dense engine's `AB`, bit for bit.
        #[test]
        fn ab_matches_the_dense_engine_bit_for_bit(
            m in 0usize..20, k in 0usize..6, n in 0usize..20,
            density in 0usize..4, seed in 0u64..1000,
        ) {
            let k = KS[k];
            let x = sparse_values(m, k, [0.02, 0.1, 0.4, 1.0][density], seed);
            let w = dense_values(k, n, seed + 1);
            let bias = dense_values(1, n, seed + 2).into_vec();
            for epi in epilogues(&bias) {
                let reference = dense_product(GemmOp::AB, &x.to_dense(), &w, epi);
                check_all(&x, &w, epi, &reference);
            }
        }

        /// `Aᵀ · G` through the explicit transpose against the dense
        /// engine's `AtB`, bit for bit: k runs over `A`'s rows.
        #[test]
        fn at_b_matches_the_dense_engine_bit_for_bit(
            k in 0usize..6, f in 0usize..20, n in 0usize..20,
            density in 0usize..4, seed in 0u64..1000,
        ) {
            let k = KS[k];
            let x = sparse_values(k, f, [0.02, 0.1, 0.4, 1.0][density], seed);
            let g = dense_values(k, n, seed + 1);
            let bias = dense_values(1, n, seed + 2).into_vec();
            let xt = x.transpose();
            for epi in epilogues(&bias) {
                let reference = dense_product(GemmOp::AtB, &x.to_dense(), &g, epi);
                check_all(&xt, &g, epi, &reference);
            }
        }
    }
}
