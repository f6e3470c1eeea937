//! Packed-panel dense matrix multiplication with transpose-free
//! operand views and fused epilogues.
//!
//! The engine follows the BLIS discipline: both operands are packed
//! once per call into panel-major buffers — A into [`MR`]-row panels, B
//! into [`NR`]-column panels, both k-major and zero-padded to the panel
//! edge — and an `MR×NR` register-tiled micro-kernel streams the panels
//! with `KC`/`MC` cache blocking. Packing is where operand orientation
//! is absorbed: [`GemmOp::AtB`] and [`GemmOp::ABt`] read the source in
//! transposed order *during the O(n²) pack*, so no transpose is ever
//! materialized for the O(n³) multiply. An [`Epilogue`] (bias add,
//! bias + ReLU) is applied while the output tile is still
//! register-resident, replacing separate broadcast/activation passes.
//!
//! How a product runs is decided here and nowhere else. The engine runs
//! on the caller's thread, or — only when the problem is large *and* the
//! shared [`crate::pool`] actually has more than one worker — with A's
//! row panels partitioned across the pool. Every output element is
//! produced by exactly one worker with the same k-accumulation order as
//! the single-threaded engine, so results are **bit-identical at any
//! pool width** and no caller has a reason to choose; at pool width 1
//! the engine never pays dispatch overhead for no parallelism.
//!
//! The micro-kernel itself is **runtime-dispatched** (see [`kernels`]):
//! explicit AVX2+FMA, AVX-512, and portable-scalar implementations,
//! selected once per process from detected CPU features (or pinned via
//! `LINALG_FORCE_KERNEL=scalar|avx2|avx512`). Every variant performs
//! the same correctly-rounded fused multiply-adds in the same
//! per-element k-order, so results are bit-identical across variants —
//! the dispatch changes speed, never bits. This is what lets release
//! binaries ship without `-C target-cpu=native` and still run the FMA
//! path on hardware that has it.
//!
//! Packing buffers are drawn from the caller's [`Workspace`] so training
//! loops recycle them across calls; the allocating [`matmul`] brings a
//! throwaway one.

use crate::{pool, DenseMatrix, LinalgError, Workspace};

mod csr;
pub mod kernels;

pub use csr::csr_gemm_into_ws;
use kernels::Kernels;

/// Rows per A panel / micro-tile (register-tile height). `6×16` is the
/// classic Haswell-era BLIS shape: 12 accumulator vectors at 8-wide
/// plus the two B row vectors and an A broadcast fit the architectural
/// register file with room to spare, and the shape proved the most
/// robust across the swept alternatives (8×8, 4×16, 8×16, 12×16 — the
/// wider tiles fall off a register-spill cliff).
const MR: usize = 6;

/// Columns per B panel / micro-tile (register-tile width): two 8-wide
/// vectors per accumulator row.
const NR: usize = 16;

/// k-dimension block: one `KC×NR` B panel slice (16 KiB) stays
/// L1-resident across a row block of micro-tiles. It also fixes the
/// summation order (one chain per block), which `csr` reproduces.
const KC: usize = 256;

/// Row block: `MC×KC` of packed A (~128 KiB) stays L2-resident while
/// the inner loops sweep every B panel.
const MC: usize = 126;

/// FLOP threshold (`m·k·n` multiply-adds) above which the engine
/// partitions A's row panels over the pool, when it has more than 1 worker.
const THREADED_FLOP_THRESHOLD: usize = 1 << 22;

/// How one product runs. Callers never pick — [`gemm_into_ws`] always
/// passes `Auto`; the pinned values exist so this module's tests can
/// hold the paths to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum GemmStrategy {
    /// Threaded only when the problem exceeds the flop threshold **and**
    /// the pool has more than one worker (at width 1 the threaded path
    /// is pure dispatch overhead).
    Auto,
    /// Single-threaded packed-panel engine.
    Packed,
    /// Packed-panel engine, A row panels partitioned over the shared
    /// pool. Bit-identical to `Packed` at any width.
    Threaded,
}

/// Operand orientation for [`gemm_into_ws`]: which transpose view the
/// packing stage reads.
///
/// The transposed views cost nothing beyond a different read order
/// during packing — the multiply itself always streams packed panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmOp {
    /// `C = A · B`.
    #[default]
    AB,
    /// `C = Aᵀ · B` (gradient-of-weights shape, `Hᵀ · dZ`).
    AtB,
    /// `C = A · Bᵀ` (gradient-of-input shape, `dZ · Wᵀ`).
    ABt,
}

/// A fused output transform applied while the `MR×NR` tile is still in
/// registers, before it is stored.
///
/// Replaces the separate `add_row_broadcast` + ReLU passes a layer
/// forward would otherwise run over the whole output matrix.
///
/// Results are **bit-identical** to running the product unfused
/// and then applying the broadcast/ReLU passes afterwards: the epilogue
/// performs the same `+ bias[j]` / `max(0, ·)` operations on the same
/// fully-accumulated sums, just without a round trip through memory.
///
/// # Examples
///
/// ```
/// use linalg::{gemm_into_ws, DenseMatrix, Epilogue, GemmOp, Workspace};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[1.0, -1.0]])?;
/// let i = DenseMatrix::identity(2);
/// let mut z = DenseMatrix::zeros(1, 2);
/// let epilogue = Epilogue::BiasRelu(&[0.5, 0.5]);
/// gemm_into_ws(GemmOp::AB, &a, &i, &mut z, epilogue, &mut Workspace::new())?;
/// assert_eq!(z.row(0), &[1.5, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub enum Epilogue<'a> {
    /// Store the product unchanged.
    #[default]
    None,
    /// Add `bias[j]` to every element of output column `j`.
    Bias(&'a [f32]),
    /// Add `bias[j]`, then clamp at zero (fused bias + ReLU).
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// The bias slice, if any.
    fn bias(&self) -> Option<&[f32]> {
        match self {
            Epilogue::None => None,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) => Some(b),
        }
    }

    /// Applies the epilogue to one output row slice starting at output
    /// column `col_offset`.
    ///
    /// The single definition every fused path shares — the GEMM
    /// micro-kernel's store phase, the whole-buffer unfused pass, and
    /// SpMM's per-row epilogue — so the "bit-identical to unfused"
    /// contract cannot drift between the dense and sparse engines.
    #[inline(always)]
    pub(crate) fn apply_to_row(&self, row: &mut [f32], col_offset: usize) {
        match self {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                for (o, b) in row.iter_mut().zip(&bias[col_offset..]) {
                    *o += b;
                }
            }
            Epilogue::BiasRelu(bias) => {
                for (o, b) in row.iter_mut().zip(&bias[col_offset..]) {
                    *o = (*o + b).max(0.0);
                }
            }
        }
    }
}

/// Multiplies `a × b` into a freshly allocated matrix.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use linalg::{matmul, DenseMatrix};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let i = DenseMatrix::identity(2);
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    let mut ws = Workspace::new();
    gemm_into_ws(GemmOp::AB, a, b, &mut out, Epilogue::None, &mut ws)?;
    Ok(out)
}

/// Multiplies `a × b` into `out` with a fused [`Epilogue`], drawing
/// packing buffers from `ws` — the layer-forward hot path
/// ([`gemm_into_ws`] with [`GemmOp::AB`]).
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] on inner-dimension, output
/// shape, or bias-length mismatches.
///
/// # Examples
///
/// ```
/// use linalg::{matmul_fused_into_ws, DenseMatrix, Epilogue, Workspace};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let mut ws = Workspace::new();
/// let h = DenseMatrix::from_rows(&[&[2.0, 0.0]])?;
/// let w = DenseMatrix::identity(2);
/// let mut z = ws.take_for_overwrite(1, 2);
/// matmul_fused_into_ws(&h, &w, &mut z, Epilogue::Bias(&[1.0, -1.0]), &mut ws)?;
/// assert_eq!(z.row(0), &[3.0, -1.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul_fused_into_ws(
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epilogue: Epilogue<'_>,
    ws: &mut Workspace,
) -> Result<(), LinalgError> {
    gemm_into_ws(GemmOp::AB, a, b, out, epilogue, ws)
}

/// The dense product: `out = epilogue(op(a, b))`, packing buffers drawn
/// from `ws`.
///
/// `out` is overwritten (it need not be zeroed). [`GemmOp::AtB`] is the
/// gradient-of-weights shape `∂L/∂W = Hᵀ · ∂L/∂Z` and [`GemmOp::ABt`]
/// the gradient-of-input shape `∂L/∂H = ∂L/∂Z · Wᵀ`; neither
/// materializes a transpose. Whether the product runs on the caller's
/// thread or across the pool is chosen from the problem size and the
/// pool width, and changes no bit of the result.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when the operand shapes are
/// inconsistent under `op`, when `out` has the wrong shape, or when the
/// epilogue bias length differs from the output column count.
///
/// # Examples
///
/// ```
/// use linalg::{gemm_into_ws, matmul, DenseMatrix, Epilogue, GemmOp, Workspace};
///
/// # fn main() -> Result<(), linalg::LinalgError> {
/// let mut ws = Workspace::new();
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
/// let b = DenseMatrix::from_rows(&[&[1.0], &[0.0], &[1.0]])?;
/// let mut at_b = DenseMatrix::zeros(2, 1);
/// gemm_into_ws(GemmOp::AtB, &a, &b, &mut at_b, Epilogue::None, &mut ws)?;
/// assert_eq!(at_b, matmul(&a.transpose(), &b)?);
/// # Ok(())
/// # }
/// ```
pub fn gemm_into_ws(
    op: GemmOp,
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epilogue: Epilogue<'_>,
    ws: &mut Workspace,
) -> Result<(), LinalgError> {
    let kern = kernels::active();
    gemm_with_kernels(kern, op, a, b, out, epilogue, GemmStrategy::Auto, ws)
}

/// [`gemm_into_ws`] with the micro-kernel table and the strategy pinned:
/// the hook this module's tests use to hold every variant and both
/// engine paths to each other inside one process.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn gemm_with_kernels(
    kern: &'static Kernels,
    op: GemmOp,
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epilogue: Epilogue<'_>,
    strategy: GemmStrategy,
    ws: &mut Workspace,
) -> Result<(), LinalgError> {
    let (m, k, n) = check_shapes(op, a, b)?;
    if out.shape() != (m, n) {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm_into",
            lhs: (m, n),
            rhs: out.shape(),
        });
    }
    if let Some(bias) = epilogue.bias() {
        if bias.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "gemm_epilogue",
                lhs: (m, n),
                rhs: (1, bias.len()),
            });
        }
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        // Empty inner dimension: the product is all zeros, but the
        // epilogue still applies.
        out.as_mut_slice().fill(0.0);
        apply_epilogue_rows(out.as_mut_slice(), n, epilogue);
        return Ok(());
    }
    let threaded = resolve_for_pool(strategy, m, k, n, pool::num_threads()) == Kernel::Threaded;
    packed(kern, op, a, b, out, epilogue, threaded, ws);
    Ok(())
}

/// Validates operand shapes under `op`, returning `(m, k, n)`.
fn check_shapes(
    op: GemmOp,
    a: &DenseMatrix,
    b: &DenseMatrix,
) -> Result<(usize, usize, usize), LinalgError> {
    let (m, k, bk, n, name) = match op {
        GemmOp::AB => (a.rows(), a.cols(), b.rows(), b.cols(), "matmul"),
        GemmOp::AtB => (a.cols(), a.rows(), b.rows(), b.cols(), "matmul_at_b"),
        GemmOp::ABt => (a.rows(), a.cols(), b.cols(), b.rows(), "matmul_a_bt"),
    };
    if k != bk {
        return Err(LinalgError::ShapeMismatch {
            op: name,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok((m, k, n))
}

/// The engine path a strategy resolves to for a given problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Packed,
    Threaded,
}

/// Resolves a strategy against problem size and the *actual* pool
/// width. With a 1-worker pool, `Auto` (and even a pinned `Threaded`)
/// resolves to the single-thread packed engine: the threaded path with
/// one worker runs the same code plus dispatch overhead, which the
/// `gemm_256` bench showed to be pure loss.
fn resolve_for_pool(
    strategy: GemmStrategy,
    m: usize,
    k: usize,
    n: usize,
    workers: usize,
) -> Kernel {
    let can_thread = workers > 1 && m > MR;
    match strategy {
        GemmStrategy::Packed => Kernel::Packed,
        GemmStrategy::Threaded => {
            if can_thread {
                Kernel::Threaded
            } else {
                Kernel::Packed
            }
        }
        GemmStrategy::Auto => {
            if can_thread && m * k * n >= THREADED_FLOP_THRESHOLD {
                Kernel::Threaded
            } else {
                Kernel::Packed
            }
        }
    }
}

/// Applies an epilogue to a whole row-major buffer (the unfused path,
/// used by the `k == 0` edge case).
fn apply_epilogue_rows(data: &mut [f32], n: usize, epilogue: Epilogue<'_>) {
    if matches!(epilogue, Epilogue::None) {
        return;
    }
    for row in data.chunks_exact_mut(n) {
        epilogue.apply_to_row(row, 0);
    }
}

/// Reference triple loop: the oracle this crate's tests hold every
/// product to (transposed operands are materialized by the caller).
#[cfg(test)]
pub(crate) fn matmul_naive(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
    let (m, k, n) = check_shapes(GemmOp::AB, a, b)?;
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            for (o, bv) in out.row_mut(i).iter_mut().zip(b.row(p)) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// The packed-panel engine. Packs both operands (absorbing `op`'s
/// transposes), then runs the blocked micro-kernel sweep — on the
/// caller's thread, or with A's row panels partitioned over the pool.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn packed(
    kern: &'static Kernels,
    op: GemmOp,
    a: &DenseMatrix,
    b: &DenseMatrix,
    out: &mut DenseMatrix,
    epi: Epilogue<'_>,
    threaded: bool,
    ws: &mut Workspace,
) {
    let (m, k, n) = check_shapes(op, a, b).expect("caller validated shapes");
    let a_panels = m.div_ceil(MR);
    let b_panels = n.div_ceil(NR);

    let mut ap = ws.take_for_overwrite(1, a_panels * MR * k);
    let mut bp = ws.take_for_overwrite(1, b_panels * NR * k);
    pack_a(a, matches!(op, GemmOp::AtB), m, k, ap.as_mut_slice());
    pack_b(b, matches!(op, GemmOp::ABt), k, n, bp.as_mut_slice());

    let (apd, bpd) = (ap.as_slice(), bp.as_slice());
    let out_data = out.as_mut_slice();
    let workers = if threaded {
        pool::num_threads().min(a_panels)
    } else {
        1
    };
    if workers <= 1 {
        gemm_panels(kern, apd, bpd, out_data, 0, a_panels, m, k, n, epi);
    } else {
        // Partition A's row panels; each worker owns a disjoint slice
        // of output rows, so no synchronization and no accumulation
        // reordering — results are bit-identical at any pool width.
        let panel_bounds: Vec<usize> = (0..=workers).map(|w| a_panels * w / workers).collect();
        let elem_bounds: Vec<usize> = panel_bounds.iter().map(|&p| (p * MR).min(m) * n).collect();
        pool::global().run_on_partitions(out_data, &elem_bounds, |index, chunk| {
            gemm_panels(
                kern,
                apd,
                bpd,
                chunk,
                panel_bounds[index],
                panel_bounds[index + 1],
                m,
                k,
                n,
                epi,
            );
        });
    }
    ws.give(bp);
    ws.give(ap);
}

/// Packs logical `m×k` A (reading `src` transposed when `trans`) into
/// `MR`-row panels, k-major: panel `pi` holds, for each `p`, the `MR`
/// values `A[pi·MR .. pi·MR+MR, p]`, zero-padded past row `m`.
fn pack_a(src: &DenseMatrix, trans: bool, m: usize, k: usize, ap: &mut [f32]) {
    let data = src.as_slice();
    let sc = src.cols();
    for (pi, panel) in ap.chunks_exact_mut(MR * k).enumerate() {
        let i0 = pi * MR;
        let rows = MR.min(m - i0);
        if rows < MR {
            panel.fill(0.0);
        }
        if trans {
            // Stored (k×m): logical A[i][p] = data[p·m + i]; each packed
            // k-slot copies a contiguous run of the stored row p.
            for (p, slot) in panel.chunks_exact_mut(MR).enumerate() {
                let srow = &data[p * sc + i0..p * sc + i0 + rows];
                slot[..rows].copy_from_slice(srow);
            }
        } else {
            // Stored (m×k): read each source row contiguously, scatter
            // into stride-MR slots.
            for (r, srow) in data[i0 * sc..(i0 + rows) * sc].chunks_exact(sc).enumerate() {
                for (p, &v) in srow.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            }
        }
    }
}

/// Packs logical `k×n` B (reading `src` transposed when `trans`) into
/// `NR`-column panels, k-major: panel `pj` holds, for each `p`, the `NR`
/// values `B[p, pj·NR .. pj·NR+NR]`, zero-padded past column `n`.
fn pack_b(src: &DenseMatrix, trans: bool, k: usize, n: usize, bp: &mut [f32]) {
    let data = src.as_slice();
    let sc = src.cols();
    for (pj, panel) in bp.chunks_exact_mut(NR * k).enumerate() {
        let j0 = pj * NR;
        let cols = NR.min(n - j0);
        if cols < NR {
            panel.fill(0.0);
        }
        if trans {
            // Stored (n×k): logical B[p][j] = data[j·k + p]; read each
            // stored row contiguously, scatter into stride-NR slots.
            for c in 0..cols {
                let srow = &data[(j0 + c) * sc..(j0 + c) * sc + k];
                for (p, &v) in srow.iter().enumerate() {
                    panel[p * NR + c] = v;
                }
            }
        } else {
            // Stored (k×n): each packed k-slot copies a contiguous run
            // of the stored row p.
            for (p, slot) in panel.chunks_exact_mut(NR).enumerate() {
                let srow = &data[p * sc + j0..p * sc + j0 + cols];
                slot[..cols].copy_from_slice(srow);
            }
        }
    }
}

/// Runs the blocked micro-kernel sweep for A panels `[p_lo, p_hi)`,
/// writing into `out`, whose first element is global row `p_lo·MR`,
/// column 0. The k loop is outermost in `KC` blocks (partial sums are
/// accumulated into `out` between blocks, in fixed block order), with
/// `MC`-row blocks inside so one packed A block stays L2-resident while
/// the inner loops sweep every B panel.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
fn gemm_panels(
    kern: &'static Kernels,
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    p_lo: usize,
    p_hi: usize,
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    let b_panels = n.div_ceil(NR);
    let panels_per_block = MC / MR;
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let first = pc == 0;
        let last = pc + kc == k;
        let mut ic = p_lo;
        while ic < p_hi {
            let ic_end = (ic + panels_per_block).min(p_hi);
            for pj in 0..b_panels {
                let bpan = &bp[pj * NR * k + pc * NR..pj * NR * k + (pc + kc) * NR];
                let j0 = pj * NR;
                let cols = NR.min(n - j0);
                for pi in ic..ic_end {
                    let apan = &ap[pi * MR * k + pc * MR..pi * MR * k + (pc + kc) * MR];
                    let row0 = (pi - p_lo) * MR;
                    let rows = MR.min(m - pi * MR);
                    micro_tile(
                        kern, apan, bpan, out, n, row0, j0, rows, cols, first, last, epi,
                    );
                }
            }
            ic = ic_end;
        }
        pc += kc;
    }
}

/// The register-tiled micro-kernel: accumulates an `MR×NR` tile over
/// `kc` packed k-steps through the dispatched variant (which keeps the
/// tile in vector registers), then stores it — overwriting on the first
/// k block, accumulating on later ones, and applying the epilogue on
/// the last, while the tile is still hot.
#[allow(clippy::too_many_arguments)] // internal kernel plumbing, not API
#[inline(always)]
fn micro_tile(
    kern: &'static Kernels,
    apan: &[f32],
    bpan: &[f32],
    out: &mut [f32],
    n: usize,
    row0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    first: bool,
    last: bool,
    epi: Epilogue<'_>,
) {
    let mut acc = [[0.0f32; NR]; MR];
    (kern.accumulate_f32)(apan, bpan, &mut acc);
    for (i, accrow) in acc.iter().enumerate().take(rows) {
        let base = (row0 + i) * n + j0;
        let orow = &mut out[base..base + cols];
        if !first {
            for (o, &v) in orow.iter_mut().zip(accrow.iter()) {
                *o += v;
            }
        } else {
            orow.copy_from_slice(&accrow[..cols]);
        }
        if last {
            epi.apply_to_row(orow, j0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::GemmStrategy::{Packed, Threaded};
    use super::*;
    use proptest::prelude::*;

    fn small(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Deterministic pseudo-random fill without pulling in rand here.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 500.0
        })
    }

    fn bias_vec(n: usize, seed: u64) -> Vec<f32> {
        small(1, n.max(1), seed).as_slice()[..n].to_vec()
    }

    /// `epilogue(op(a, b))` through the private hook, with the kernel
    /// table and the strategy pinned.
    fn pinned(
        variant: kernels::KernelVariant,
        strategy: GemmStrategy,
        op: GemmOp,
        a: &DenseMatrix,
        b: &DenseMatrix,
        epilogue: Epilogue<'_>,
    ) -> Result<DenseMatrix, LinalgError> {
        let (m, _, n) = check_shapes(op, a, b)?;
        // Start from a dirty buffer: every path must overwrite it.
        let mut out = DenseMatrix::filled(m, n, f32::NAN);
        let kern = kernels::kernels_for(variant);
        let mut ws = Workspace::new();
        gemm_with_kernels(kern, op, a, b, &mut out, epilogue, strategy, &mut ws)?;
        Ok(out)
    }

    /// Plain `a × b` on the process's kernel variant, strategy pinned.
    fn ab(
        strategy: GemmStrategy,
        a: &DenseMatrix,
        b: &DenseMatrix,
    ) -> Result<DenseMatrix, LinalgError> {
        let variant = kernels::kernel_variant();
        pinned(variant, strategy, GemmOp::AB, a, b, Epilogue::None)
    }

    /// The public entry point for any op and epilogue, allocating.
    fn product(
        op: GemmOp,
        a: &DenseMatrix,
        b: &DenseMatrix,
        epilogue: Epilogue<'_>,
    ) -> Result<DenseMatrix, LinalgError> {
        let (m, _, n) = check_shapes(op, a, b)?;
        let mut out = DenseMatrix::filled(m, n, f32::NAN);
        gemm_into_ws(op, a, b, &mut out, epilogue, &mut Workspace::new())?;
        Ok(out)
    }

    #[test]
    fn identity_is_neutral() {
        let a = small(5, 5, 3);
        let i = DenseMatrix::identity(5);
        assert!(matmul(&a, &i).unwrap().approx_eq(&a, 1e-6));
        assert!(matmul(&i, &a).unwrap().approx_eq(&a, 1e-6));
    }

    #[test]
    fn known_product() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul_naive(&a, &b).unwrap();
        let expected = DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn mismatched_inner_dimension_is_error() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 2);
        assert!(matmul_naive(&a, &b).is_err());
        assert!(ab(Packed, &a, &b).is_err());
        assert!(ab(Threaded, &a, &b).is_err());
        assert!(matmul(&a, &b).is_err());
        let none = Epilogue::None;
        assert!(product(GemmOp::AtB, &DenseMatrix::zeros(3, 2), &b, none).is_err());
        assert!(product(GemmOp::ABt, &a, &DenseMatrix::zeros(2, 2), none).is_err());
    }

    #[test]
    fn kernels_agree_on_rectangular_input() {
        let a = small(33, 71, 1);
        let b = small(71, 17, 2);
        let reference = matmul_naive(&a, &b).unwrap();
        assert!(ab(Packed, &a, &b).unwrap().approx_eq(&reference, 1e-3));
        assert!(ab(Threaded, &a, &b).unwrap().approx_eq(&reference, 1e-3));
    }

    #[test]
    fn threaded_is_bit_identical_to_packed() {
        // Panel partitioning must not change any element's accumulation
        // order, so this holds exactly, not just within tolerance.
        let a = small(67, 130, 5);
        let b = small(130, 29, 6);
        assert_eq!(ab(Packed, &a, &b).unwrap(), ab(Threaded, &a, &b).unwrap());
        // The fused epilogue and the transposed views share the same
        // guarantee (run under LINALG_NUM_THREADS=4 in CI, this is a
        // real cross-thread assertion; at width 1 it pins the inline
        // fallback).
        let bias = bias_vec(29, 7);
        let variant = kernels::kernel_variant();
        let both = |op, a: &DenseMatrix, b: &DenseMatrix, epi| {
            [Packed, Threaded].map(|strategy| pinned(variant, strategy, op, a, b, epi).unwrap())
        };
        let [fused_p, fused_t] = both(GemmOp::AB, &a, &b, Epilogue::BiasRelu(&bias));
        assert_eq!(fused_p, fused_t);
        let b_short = small(67, 29, 8);
        let [at_b_p, at_b_t] = both(GemmOp::AtB, &a, &b_short, Epilogue::None);
        assert_eq!(at_b_p.shape(), (130, 29));
        assert_eq!(at_b_p, at_b_t);
    }

    #[test]
    fn auto_never_picks_threaded_on_a_one_worker_pool() {
        // The regression this guards: Auto used to dispatch the threaded
        // kernel purely on problem size; with a 1-worker pool that runs
        // the same code plus dispatch overhead for zero parallelism.
        let huge = 1 << 12;
        assert_eq!(
            resolve_for_pool(GemmStrategy::Auto, huge, huge, huge, 1),
            Kernel::Packed
        );
        // Even an explicit Threaded request degrades gracefully.
        assert_eq!(
            resolve_for_pool(GemmStrategy::Threaded, huge, huge, huge, 1),
            Kernel::Packed
        );
        // With workers available, Auto threads large problems only.
        assert_eq!(
            resolve_for_pool(GemmStrategy::Auto, huge, huge, huge, 4),
            Kernel::Threaded
        );
        assert_eq!(
            resolve_for_pool(GemmStrategy::Auto, 8, 8, 8, 4),
            Kernel::Packed
        );
    }

    #[test]
    fn threaded_handles_single_row() {
        let a = small(1, 16, 4);
        let b = small(16, 8, 5);
        let reference = matmul_naive(&a, &b).unwrap();
        assert!(ab(Threaded, &a, &b).unwrap().approx_eq(&reference, 1e-4));
    }

    #[test]
    fn empty_matrices_multiply() {
        let a = DenseMatrix::zeros(0, 0);
        let b = DenseMatrix::zeros(0, 0);
        assert_eq!(matmul(&a, &b).unwrap().shape(), (0, 0));
        let a = DenseMatrix::zeros(3, 0);
        let b = DenseMatrix::zeros(0, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.sum(), 0.0);
        let a = DenseMatrix::zeros(3, 2);
        let b = DenseMatrix::zeros(2, 0);
        assert_eq!(ab(Threaded, &a, &b).unwrap().shape(), (3, 0));
        // Transposed views on empty shapes.
        let (z03, z02) = (DenseMatrix::zeros(0, 3), DenseMatrix::zeros(0, 2));
        let at_b = product(GemmOp::AtB, &z03, &z02, Epilogue::None).unwrap();
        assert_eq!(at_b, DenseMatrix::zeros(3, 2));
        let (z20, z30) = (DenseMatrix::zeros(2, 0), DenseMatrix::zeros(3, 0));
        let a_bt = product(GemmOp::ABt, &z20, &z30, Epilogue::None).unwrap();
        assert_eq!(a_bt, DenseMatrix::zeros(2, 3));
    }

    #[test]
    fn zero_inner_dimension_still_applies_epilogue() {
        let a = DenseMatrix::zeros(2, 0);
        let b = DenseMatrix::zeros(0, 3);
        let bias = [1.0, 2.0, 3.0];
        let z = product(GemmOp::AB, &a, &b, Epilogue::Bias(&bias)).unwrap();
        assert_eq!(z.row(0), &bias);
        assert_eq!(z.row(1), &bias);
    }

    #[test]
    fn gemm_into_ws_overwrites_dirty_buffers() {
        let a = small(9, 13, 6);
        let b = small(13, 5, 7);
        let reference = matmul_naive(&a, &b).unwrap();
        let mut ws = Workspace::new();
        // Start from a dirty buffer to prove it is overwritten.
        let mut out = DenseMatrix::filled(9, 5, 123.0);
        matmul_fused_into_ws(&a, &b, &mut out, Epilogue::None, &mut ws).unwrap();
        assert!(out.approx_eq(&reference, 1e-4));
        // Wrong output shape is an error, not a silent resize.
        let mut bad = DenseMatrix::zeros(9, 6);
        assert!(matmul_fused_into_ws(&a, &b, &mut bad, Epilogue::None, &mut ws).is_err());
    }

    #[test]
    fn fused_epilogue_matches_unfused_bit_exactly() {
        // The epilogue performs identical float operations on identical
        // sums, so fused output equals unfused same-path output
        // exactly — not merely within tolerance.
        let a = small(21, 34, 8);
        let b = small(34, 19, 9);
        let bias = bias_vec(19, 10);
        let unfused = ab(Packed, &a, &b)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        let fused = product(GemmOp::AB, &a, &b, Epilogue::Bias(&bias)).unwrap();
        assert_eq!(fused, unfused);
        let fused_relu = product(GemmOp::AB, &a, &b, Epilogue::BiasRelu(&bias)).unwrap();
        let mut unfused_relu = unfused;
        unfused_relu.map_inplace(|v| v.max(0.0));
        assert_eq!(fused_relu, unfused_relu);
    }

    #[test]
    fn epilogue_bias_length_is_checked() {
        let a = small(3, 4, 11);
        let b = small(4, 5, 12);
        assert!(product(GemmOp::AB, &a, &b, Epilogue::Bias(&[1.0, 2.0])).is_err());
        assert!(product(GemmOp::AB, &a, &b, Epilogue::BiasRelu(&[0.0; 6])).is_err());
    }

    #[test]
    fn ws_variants_recycle_packing_buffers() {
        let mut ws = Workspace::new();
        let a = small(17, 23, 13);
        let b = small(23, 11, 14);
        let mut out = ws.take_for_overwrite(17, 11);
        matmul_fused_into_ws(&a, &b, &mut out, Epilogue::None, &mut ws).unwrap();
        assert!(out.approx_eq(&matmul_naive(&a, &b).unwrap(), 1e-3));
        // Packing buffers were given back for the next call.
        assert!(ws.cached() >= 2);
        let cached_before = ws.cached_elements();
        let b2 = small(17, 11, 15);
        let mut out2 = ws.take_for_overwrite(23, 11);
        gemm_into_ws(GemmOp::AtB, &a, &b2, &mut out2, Epilogue::None, &mut ws).unwrap();
        // Steady state: no new allocations beyond the first call's.
        assert!(ws.cached_elements() <= cached_before.max(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn packed_and_threaded_match_naive(
            m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
        ) {
            let a = small(m, k, seed);
            let b = small(k, n, seed.wrapping_add(1));
            let reference = matmul_naive(&a, &b).unwrap();
            prop_assert!(ab(Packed, &a, &b).unwrap().approx_eq(&reference, 1e-3));
            prop_assert!(ab(Threaded, &a, &b).unwrap().approx_eq(&reference, 1e-3));
        }

        /// `GemmOp::AtB`/`GemmOp::ABt` against the materialized
        /// `transpose() + matmul_naive` reference, over random
        /// non-square shapes including empty and single-row operands.
        /// Agreement is to 1e-3 absolute (the packed engine's k-block
        /// summation tree differs from the naive left-to-right order).
        #[test]
        fn transposed_views_match_materialized_transpose(
            m in 0usize..24, k in 0usize..24, n in 0usize..24, seed in 0u64..1000
        ) {
            let a = small(k, m, seed); // stored (k×m): logical Aᵀ is (m×k)
            let b = small(k, n, seed.wrapping_add(1));
            let reference = matmul_naive(&a.transpose(), &b).unwrap();
            let at_b = product(GemmOp::AtB, &a, &b, Epilogue::None).unwrap();
            prop_assert!(at_b.approx_eq(&reference, 1e-3));

            let a2 = small(m, k, seed.wrapping_add(2));
            let b2 = small(n, k, seed.wrapping_add(3)); // stored (n×k): logical Bᵀ is (k×n)
            let reference = matmul_naive(&a2, &b2.transpose()).unwrap();
            let a_bt = product(GemmOp::ABt, &a2, &b2, Epilogue::None).unwrap();
            prop_assert!(a_bt.approx_eq(&reference, 1e-3));
        }

        /// Every epilogue variant against the unfused
        /// matmul + broadcast + ReLU reference: bit-exact against the
        /// same packed path, 1e-3 against the naive kernel.
        #[test]
        fn epilogues_match_unfused_reference(
            m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000
        ) {
            let a = small(m, k, seed);
            let b = small(k, n, seed.wrapping_add(1));
            let bias = bias_vec(n, seed.wrapping_add(2));
            let packed_plain = ab(Packed, &a, &b).unwrap();
            let naive_plain = matmul_naive(&a, &b).unwrap();

            let fused_none = product(GemmOp::AB, &a, &b, Epilogue::None).unwrap();
            prop_assert_eq!(&fused_none, &packed_plain);

            let fused_bias = product(GemmOp::AB, &a, &b, Epilogue::Bias(&bias)).unwrap();
            prop_assert_eq!(&fused_bias, &packed_plain.add_row_broadcast(&bias).unwrap());
            prop_assert!(fused_bias.approx_eq(&naive_plain.add_row_broadcast(&bias).unwrap(), 1e-3));

            let fused_relu = product(GemmOp::AB, &a, &b, Epilogue::BiasRelu(&bias)).unwrap();
            let mut unfused_relu = packed_plain.add_row_broadcast(&bias).unwrap();
            unfused_relu.map_inplace(|v| v.max(0.0));
            prop_assert_eq!(&fused_relu, &unfused_relu);
        }

        #[test]
        fn matmul_is_associative_with_identity(m in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
            let a = small(m, n, seed);
            let i = DenseMatrix::identity(n);
            prop_assert!(matmul(&a, &i).unwrap().approx_eq(&a, 1e-4));
        }

        /// Every available dispatch variant is bit-identical to the
        /// scalar kernel for every op (`AB`/`AtB`/`ABt`), with and
        /// without a fused epilogue, across 0..24-dim shapes — the
        /// dispatch layer's core contract: variant selection changes
        /// speed, never bits.
        #[test]
        fn dispatch_variants_bit_identical_to_scalar(
            m in 0usize..24, k in 0usize..24, n in 0usize..24, seed in 0u64..1000
        ) {
            let bias = bias_vec(n, seed.wrapping_add(9));
            // (op, a, b) triples covering every packing orientation.
            let cases = [
                (GemmOp::AB, small(m, k, seed), small(k, n, seed.wrapping_add(1))),
                (GemmOp::AtB, small(k, m, seed.wrapping_add(2)), small(k, n, seed.wrapping_add(3))),
                (GemmOp::ABt, small(m, k, seed.wrapping_add(4)), small(n, k, seed.wrapping_add(5))),
            ];
            for (op, a, b) in cases {
                for epi_bias in [false, true] {
                    let epi = if epi_bias {
                        Epilogue::BiasRelu(&bias)
                    } else {
                        Epilogue::None
                    };
                    let reference = pinned(
                        kernels::KernelVariant::Scalar, GemmStrategy::Packed, op, &a, &b, epi,
                    ).unwrap();
                    for variant in kernels::available_kernel_variants() {
                        for strategy in [Packed, Threaded] {
                            let out = pinned(variant, strategy, op, &a, &b, epi).unwrap();
                            prop_assert_eq!(
                                &out, &reference,
                                "variant {} strategy {:?} op {:?} bias {}",
                                variant.label(), strategy, op, epi_bias
                            );
                        }
                    }
                }
            }
        }
    }
}
