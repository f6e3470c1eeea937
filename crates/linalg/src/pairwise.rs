//! Tiled pool-parallel pairwise-similarity engine.
//!
//! Substitute-graph construction, silhouette scoring, and attack
//! scoring are all pairwise computations over row vectors: they need
//! `G = X·Xᵀ` (or distances derived from it via cached row norms), then
//! a per-row reduction such as top-k neighbours or a threshold scan.
//! This module restructures that work into cache-sized row tiles driven
//! by the same blocked kernel shape as [`crate::matmul`] and dispatched
//! across the shared [`crate::pool`]:
//!
//! - [`gram`] / [`gram_into`] materialize the full symmetric Gram
//!   matrix, computing only the upper triangle and mirroring it,
//! - [`map_tiles`] / [`map_tiles_upper`] are the **streaming** mode: the
//!   caller's closure visits one `tile_rows × n` similarity panel at a
//!   time, so memory stays `O(tile_rows · n)` and consumers scale past
//!   the point where an `n × n` matrix fits in RAM,
//! - [`top_k_by_similarity`] is a bounded partial selection (heap of
//!   size `k`, `O(n log k)`) that replaces full per-row sorts while
//!   preserving the deterministic `(similarity desc, index asc)`
//!   ranking,
//! - [`sq_norms`] caches squared row norms so Euclidean distances
//!   decompose as `d²(i,j) = ‖xᵢ‖² + ‖xⱼ‖² − 2·G[i][j]`.
//!
//! Tiles are independent jobs on the pool's work queue, so scheduling
//! is dynamically balanced; every output element is produced by exactly
//! one job in the same accumulation order as the sequential kernel, and
//! per-tile results are merged in tile order, so results are
//! bit-deterministic for any worker count. Panel values come from the
//! 4×-unrolled blocked kernel rather than per-pair scalar dots, so they
//! can differ from a naive `Σ aᵢbᵢ` loop by normal f32 reassociation
//! error (≈1e-6 relative); consumers document that tolerance.
//!
//! The panel kernel's summation order is part of the paper fixed
//! point: the KNN substitute graphs take their neighbours from these
//! values, so reassociating them flips ties and moves the paper
//! artifacts (folding the panel onto the packed GEMM engine changed 6
//! of the 7 `--epochs 30` outputs), which the root test
//! `substitute_digests` catches.

use crate::{pool, DenseMatrix, LinalgError};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// k-dimension block edge for the panel kernel (matches the GEMM
/// kernel's blocking so both stream `BLOCK` transposed rows at a time).
const BLOCK: usize = 64;

/// Default row-tile height for the streaming mode: 128 rows keeps a
/// tile of a 100k-node graph at ~51 MB (f32) while giving the pool
/// plenty of independent jobs to balance.
pub const TILE_ROWS: usize = 128;

/// One `rows × (n − col_start)` panel of the similarity matrix
/// `X·Xᵀ`, covering global rows `row_start..row_start + rows` and
/// global columns `col_start..n`.
#[derive(Debug)]
pub struct GramTile<'a> {
    row_start: usize,
    col_start: usize,
    rows: usize,
    n: usize,
    data: &'a [f32],
}

impl GramTile<'_> {
    /// First global row covered by this tile.
    pub fn row_start(&self) -> usize {
        self.row_start
    }

    /// First global column covered by this tile (0 for [`map_tiles`],
    /// `row_start` for [`map_tiles_upper`]).
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// Number of rows in this tile.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global row index of local row `local`.
    pub fn global_row(&self, local: usize) -> usize {
        self.row_start + local
    }

    /// Similarities of local row `local` against global columns
    /// `col_start..n`; entry `j` is `dot(x[global_row], x[col_start + j])`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= rows`.
    pub fn row(&self, local: usize) -> &[f32] {
        assert!(local < self.rows, "tile row out of bounds");
        let width = self.n - self.col_start;
        &self.data[local * width..(local + 1) * width]
    }

    /// Iterator over `(global_col, similarity)` strictly above the
    /// diagonal for local row `local` — the natural scan order for
    /// symmetric threshold consumers.
    pub fn above_diagonal(&self, local: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let u = self.global_row(local);
        let col_start = self.col_start;
        self.row(local)
            .iter()
            .enumerate()
            .map(move |(off, &s)| (col_start + off, s))
            .filter(move |&(v, _)| v > u)
    }
}

/// Cached squared L2 norms of every row, the `‖xᵢ‖²` terms that let
/// Euclidean distances decompose over Gram panels.
pub fn sq_norms(x: &DenseMatrix) -> Vec<f32> {
    x.iter_rows()
        .map(|row| row.iter().map(|v| v * v).sum())
        .collect()
}

/// The symmetric Gram matrix `X·Xᵀ` (`n × n`), computed tile-parallel
/// on the upper triangle and mirrored.
///
/// # Errors
///
/// Never fails today; the `Result` keeps the signature uniform with the
/// other allocating kernels.
pub fn gram(x: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
    let mut out = DenseMatrix::zeros(x.rows(), x.rows());
    gram_into(x, &mut out)?;
    Ok(out)
}

/// Computes `X·Xᵀ` into `out`, overwriting it. Only upper-triangle
/// panels are computed (row tiles dispatched across the pool); the
/// lower triangle is mirrored afterwards, so the result is exactly
/// symmetric.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `out` is not
/// `x.rows() × x.rows()`.
pub fn gram_into(x: &DenseMatrix, out: &mut DenseMatrix) -> Result<(), LinalgError> {
    let n = x.rows();
    if out.shape() != (n, n) {
        return Err(LinalgError::ShapeMismatch {
            op: "gram_into",
            lhs: (n, n),
            rhs: out.shape(),
        });
    }
    if n == 0 {
        return Ok(());
    }
    let d = x.cols();
    let xt = x.transpose();
    let x_data = x.as_slice();
    let xt_data = xt.as_slice();
    let bounds = tile_bounds(n, TILE_ROWS, n);
    let out_data = out.as_mut_slice();
    pool::global().run_on_partitions(out_data, &bounds, |index, chunk| {
        let row0 = index * TILE_ROWS;
        let rows = chunk.len() / n;
        chunk.fill(0.0);
        // Row i of the chunk gets columns row0..n; the sub-slice at
        // col offset row0 keeps the chunk's row stride of n.
        gram_panel(
            x_data,
            xt_data,
            &mut chunk[row0..],
            n,
            row0,
            rows,
            row0,
            n - row0,
            d,
            n,
        );
    });
    // Mirror the strict upper triangle; every (u, v) was written once.
    for v in 0..n {
        for u in v + 1..n {
            out_data[u * n + v] = out_data[v * n + u];
        }
    }
    Ok(())
}

/// Streams full-width similarity panels: `f` is called once per row
/// tile with a `tile_rows × n` [`GramTile`], tiles running concurrently
/// on the pool. Returns the per-tile results **in tile order**, so the
/// merge is deterministic regardless of scheduling. Peak memory is
/// `O(tile_rows · n)` per in-flight tile — the full `n × n` matrix is
/// never materialized.
pub fn map_tiles<T, F>(x: &DenseMatrix, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GramTile<'_>) -> T + Sync,
{
    map_tiles_inner(x, TILE_ROWS, false, f)
}

/// [`map_tiles`] with an explicit tile height, for tuning and for
/// exercising tile-boundary behaviour in tests.
pub fn map_tiles_with<T, F>(x: &DenseMatrix, tile_rows: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GramTile<'_>) -> T + Sync,
{
    map_tiles_inner(x, tile_rows.max(1), false, f)
}

/// Streams **upper-triangle** panels: each tile covers columns
/// `row_start..n` only, halving the flops for symmetric consumers
/// (threshold graphs, Gram assembly) that never look below the
/// diagonal.
pub fn map_tiles_upper<T, F>(x: &DenseMatrix, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GramTile<'_>) -> T + Sync,
{
    map_tiles_inner(x, TILE_ROWS, true, f)
}

fn map_tiles_inner<T, F>(x: &DenseMatrix, tile_rows: usize, upper: bool, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(GramTile<'_>) -> T + Sync,
{
    let n = x.rows();
    if n == 0 {
        return Vec::new();
    }
    let d = x.cols();
    let xt = x.transpose();
    let x_data = x.as_slice();
    let xt_data = xt.as_slice();
    let num_tiles = n.div_ceil(tile_rows);
    let mut results: Vec<Option<T>> = (0..num_tiles).map(|_| None).collect();
    let bounds: Vec<usize> = (0..=num_tiles).collect();
    let f = &f;
    pool::global().run_on_partitions(&mut results, &bounds, |index, slot| {
        let row0 = index * tile_rows;
        let rows = tile_rows.min(n - row0);
        let col0 = if upper { row0 } else { 0 };
        let width = n - col0;
        let mut panel = vec![0.0f32; rows * width];
        gram_panel(
            x_data, xt_data, &mut panel, width, row0, rows, col0, width, d, n,
        );
        slot[0] = Some(f(GramTile {
            row_start: row0,
            col_start: col0,
            rows,
            n,
            data: &panel,
        }));
    });
    results
        .into_iter()
        .map(|r| r.expect("every tile job ran"))
        .collect()
}

/// Boundaries (in elements) splitting `rows * row_len` elements into
/// `tile_rows`-row chunks.
fn tile_bounds(rows: usize, tile_rows: usize, row_len: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = (0..rows).step_by(tile_rows).map(|r| r * row_len).collect();
    bounds.push(rows * row_len);
    bounds
}

/// Accumulates the `rows × cols` panel `out[i][j] = dot(x[row0+i],
/// x[col0+j])` into `out` (row stride `out_stride`, pre-zeroed),
/// reading the transposed matrix `xt` (`d × n` row-major).
///
/// Same structure as the blocked GEMM kernel: the k-dimension (`d`) is
/// blocked so the touched `xt` rows stay cache-resident, and the p-loop
/// is unrolled 4× for a clean vectorizable inner loop.
#[allow(clippy::too_many_arguments)] // a flat hot-kernel signature; bundling would obscure the slices' roles
fn gram_panel(
    x: &[f32],
    xt: &[f32],
    out: &mut [f32],
    out_stride: usize,
    row0: usize,
    rows: usize,
    col0: usize,
    cols: usize,
    d: usize,
    n: usize,
) {
    if cols == 0 {
        return;
    }
    for pp in (0..d).step_by(BLOCK) {
        let p_end = (pp + BLOCK).min(d);
        for i in 0..rows {
            let arow = &x[(row0 + i) * d..(row0 + i) * d + d];
            let orow = &mut out[i * out_stride..i * out_stride + cols];
            let mut p = pp;
            while p + 4 <= p_end {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let b0 = &xt[p * n + col0..p * n + col0 + cols];
                    let b1 = &xt[(p + 1) * n + col0..(p + 1) * n + col0 + cols];
                    let b2 = &xt[(p + 2) * n + col0..(p + 2) * n + col0 + cols];
                    let b3 = &xt[(p + 3) * n + col0..(p + 3) * n + col0 + cols];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                    }
                }
                p += 4;
            }
            while p < p_end {
                let av = arow[p];
                if av != 0.0 {
                    let brow = &xt[p * n + col0..p * n + col0 + cols];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
                p += 1;
            }
        }
    }
}

/// Ranking comparator shared by the selection and its consumers:
/// `Ordering::Less` means `(sim_a, idx_a)` ranks **before** (is more
/// similar than) `(sim_b, idx_b)` — similarity descending, index
/// ascending on ties, matching the substitute-graph sort order.
pub fn rank_pairs(sim_a: f32, idx_a: usize, sim_b: f32, idx_b: usize) -> Ordering {
    sim_b
        .partial_cmp(&sim_a)
        .unwrap_or(Ordering::Equal)
        .then(idx_a.cmp(&idx_b))
}

/// Heap entry ordered so the BinaryHeap's max is the *worst-ranked*
/// kept candidate (the one a better newcomer evicts).
struct WorstFirst {
    sim: f32,
    idx: usize,
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        // `rank_pairs` puts better candidates first (Less), so the
        // heap's maximum is the worst-ranked kept candidate.
        rank_pairs(self.sim, self.idx, other.sim, other.idx)
    }
}

/// Selects the `k` best-ranked `(index, similarity)` pairs from a score
/// row without sorting all of it: a bounded heap gives `O(n log k)`.
/// `skip` excludes one index (a row's self-similarity). The result is
/// sorted by [`rank_pairs`] — similarity descending, index ascending on
/// ties — exactly the prefix a full sort of all candidates would
/// produce.
pub fn top_k_by_similarity(scores: &[f32], k: usize, skip: Option<usize>) -> Vec<(usize, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k + 1);
    for (idx, &sim) in scores.iter().enumerate() {
        if Some(idx) == skip {
            continue;
        }
        if heap.len() < k {
            heap.push(WorstFirst { sim, idx });
        } else if let Some(worst) = heap.peek() {
            if rank_pairs(sim, idx, worst.sim, worst.idx) == Ordering::Less {
                heap.pop();
                heap.push(WorstFirst { sim, idx });
            }
        }
    }
    let mut out: Vec<(usize, f32)> = heap.into_iter().map(|c| (c.idx, c.sim)).collect();
    out.sort_by(|a, b| rank_pairs(a.1, a.0, b.1, b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    /// Reference: per-pair scalar dot products.
    fn naive_gram(x: &DenseMatrix) -> DenseMatrix {
        let n = x.rows();
        DenseMatrix::from_fn(n, n, |u, v| {
            x.row(u).iter().zip(x.row(v)).map(|(a, b)| a * b).sum()
        })
    }

    #[test]
    fn gram_matches_naive_across_tile_boundaries() {
        // > TILE_ROWS rows so multiple tiles and the mirror both run.
        let x = pseudo(TILE_ROWS + 37, 5, 3);
        let g = gram(&x).unwrap();
        assert!(g.approx_eq(&naive_gram(&x), 1e-3));
        // Exact symmetry from the mirror, not just approximate.
        for u in 0..x.rows() {
            for v in 0..x.rows() {
                assert_eq!(g.get(u, v).to_bits(), g.get(v, u).to_bits());
            }
        }
    }

    #[test]
    fn gram_handles_degenerate_shapes() {
        // Empty matrix.
        let g = gram(&DenseMatrix::zeros(0, 0)).unwrap();
        assert_eq!(g.shape(), (0, 0));
        // Single row.
        let x = pseudo(1, 9, 5);
        let g = gram(&x).unwrap();
        assert_eq!(g.shape(), (1, 1));
        assert!((g.get(0, 0) - x.row(0).iter().map(|v| v * v).sum::<f32>()).abs() < 1e-3);
        // Zero-width features: gram is all zeros.
        let g = gram(&DenseMatrix::zeros(4, 0)).unwrap();
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn gram_into_validates_shape_and_overwrites() {
        let x = pseudo(6, 4, 8);
        let mut bad = DenseMatrix::zeros(6, 5);
        assert!(gram_into(&x, &mut bad).is_err());
        let mut out = DenseMatrix::filled(6, 6, 77.0); // dirty buffer
        gram_into(&x, &mut out).unwrap();
        assert!(out.approx_eq(&naive_gram(&x), 1e-4));
    }

    #[test]
    fn tiles_reassemble_the_full_gram() {
        let x = pseudo(53, 7, 11);
        let reference = gram(&x).unwrap();
        for tile_rows in [1usize, 7, 16, 64] {
            let rows: Vec<Vec<f32>> = map_tiles_with(&x, tile_rows, |tile| {
                (0..tile.rows())
                    .map(|l| tile.row(l).to_vec())
                    .collect::<Vec<Vec<f32>>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(rows.len(), x.rows());
            for (u, row) in rows.iter().enumerate() {
                for (v, &s) in row.iter().enumerate() {
                    assert!(
                        (s - reference.get(u, v)).abs() < 1e-3,
                        "tile_rows {tile_rows} ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_tiles_cover_exactly_the_upper_triangle() {
        let x = pseudo(23, 4, 17);
        let reference = gram(&x).unwrap();
        let pairs: Vec<(usize, usize, f32)> = map_tiles_upper(&x, |tile| {
            let mut out = Vec::new();
            for local in 0..tile.rows() {
                let u = tile.global_row(local);
                for (v, s) in tile.above_diagonal(local) {
                    out.push((u, v, s));
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(pairs.len(), 23 * 22 / 2);
        for (u, v, s) in pairs {
            assert!(v > u);
            assert!((s - reference.get(u, v)).abs() < 1e-3);
        }
    }

    #[test]
    fn top_k_basics() {
        let scores = [0.1f32, 0.9, 0.5, 0.9, -1.0];
        // Tie between indices 1 and 3 resolves to the lower index first.
        assert_eq!(
            top_k_by_similarity(&scores, 3, None),
            vec![(1, 0.9), (3, 0.9), (2, 0.5)]
        );
        // Skip removes a candidate entirely.
        assert_eq!(
            top_k_by_similarity(&scores, 2, Some(1)),
            vec![(3, 0.9), (2, 0.5)]
        );
        // k = 0 and k > len degenerate sanely.
        assert!(top_k_by_similarity(&scores, 0, None).is_empty());
        assert_eq!(top_k_by_similarity(&scores, 99, Some(0)).len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gram_matches_naive_on_random_shapes(
            rows in 0usize..40, cols in 0usize..12, seed in 0u64..1000
        ) {
            let x = pseudo(rows, cols, seed);
            let g = gram(&x).unwrap();
            prop_assert!(g.approx_eq(&naive_gram(&x), 1e-3));
        }

        #[test]
        fn streaming_tiles_match_gram(
            rows in 1usize..40, cols in 1usize..10, tile in 1usize..20, seed in 0u64..1000
        ) {
            let x = pseudo(rows, cols, seed);
            let reference = gram(&x).unwrap();
            let flat: Vec<f32> = map_tiles_with(&x, tile, |t| {
                (0..t.rows()).flat_map(|l| t.row(l).to_vec()).collect::<Vec<f32>>()
            }).into_iter().flatten().collect();
            prop_assert_eq!(flat.len(), rows * rows);
            for u in 0..rows {
                for v in 0..rows {
                    prop_assert!((flat[u * rows + v] - reference.get(u, v)).abs() < 1e-3);
                }
            }
        }

        #[test]
        fn top_k_matches_full_sort_with_ties(
            // Scores drawn from a 5-value set to force heavy ties.
            raw in proptest::collection::vec(0u8..5, 1..60),
            k in 1usize..12,
            skip_at in 0usize..80, // >= 60 means "no skip"
        ) {
            let scores: Vec<f32> = raw.iter().map(|&v| v as f32 / 4.0).collect();
            let skip = Some(skip_at).filter(|&s| s < scores.len());
            let mut full: Vec<(usize, f32)> = scores
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| Some(i) != skip)
                .collect();
            full.sort_by(|a, b| rank_pairs(a.1, a.0, b.1, b.0));
            full.truncate(k);
            let selected = top_k_by_similarity(&scores, k, skip);
            prop_assert_eq!(selected, full);
        }
    }
}
