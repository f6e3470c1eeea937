//! Reusable scratch buffers for allocation-free steady-state training.
//!
//! Every epoch of a GCN training loop allocates the same set of
//! activation, gradient, and projection matrices, only to free them at
//! the end of the epoch. A [`Workspace`] breaks that churn: finished
//! matrices are [given back](Workspace::give) and their heap
//! allocations are handed out again by [`Workspace::take`], so after
//! the first epoch the hot loop performs no large allocations at all.
//!
//! The workspace is deliberately dumb — a pile of `Vec<f32>` carcasses,
//! not a keyed cache — which keeps it correct under any take/give
//! ordering and makes misuse (taking without giving back) degrade to
//! plain allocation, never to aliasing.

use crate::DenseMatrix;

/// A recycling pool of matrix allocations. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a zeroed `rows × cols` matrix, reusing the largest
    /// cached allocation when one exists.
    pub fn take(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        let mut m = self.take_for_overwrite(rows, cols);
        m.as_mut_slice().fill(0.0);
        m
    }

    /// Returns a `rows × cols` matrix with **arbitrary contents** —
    /// for callers that fully overwrite it (the `*_into` kernels zero
    /// or assign every element themselves). Skipping the memset here
    /// is what keeps `take` + `gemm_into_ws`/`spmm_fused_into` from paying
    /// two zeroing passes per buffer in the training hot loop.
    pub fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> DenseMatrix {
        let len = rows * cols;
        let mut data = match self.pick(len) {
            Some(buf) => buf,
            None => Vec::with_capacity(len),
        };
        // Recycled contents are stale but valid f32s; only growth needs
        // initialization.
        if data.len() > len {
            data.truncate(len);
        } else {
            data.resize(len, 0.0);
        }
        DenseMatrix::from_vec(rows, cols, data).expect("length matches by construction")
    }

    /// Returns a copy of `src`, backed by a recycled allocation.
    pub fn take_copy(&mut self, src: &DenseMatrix) -> DenseMatrix {
        let len = src.len();
        let mut data = match self.pick(len) {
            Some(buf) => buf,
            None => Vec::with_capacity(len),
        };
        data.clear();
        data.extend_from_slice(src.as_slice());
        DenseMatrix::from_vec(src.rows(), src.cols(), data).expect("length matches by construction")
    }

    /// Maximum number of cached allocations; beyond it, [`Workspace::give`]
    /// keeps only the largest buffers so a give-heavy caller (one whose
    /// layers never take) cannot grow the workspace without bound.
    const MAX_CACHED: usize = 64;

    /// Recycles a matrix's allocation for future [`Workspace::take`]s.
    pub fn give(&mut self, matrix: DenseMatrix) {
        let buf = matrix.into_vec();
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() >= Self::MAX_CACHED {
            if let Some(smallest) = self
                .free
                .iter_mut()
                .min_by_key(|b| b.capacity())
                .filter(|b| b.capacity() < buf.capacity())
            {
                *smallest = buf;
            }
            return;
        }
        self.free.push(buf);
    }

    /// Number of cached allocations.
    pub fn cached(&self) -> usize {
        self.free.len()
    }

    /// Total cached capacity in f32 elements.
    pub fn cached_elements(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    /// Picks the cached buffer whose capacity best fits `len`: the
    /// smallest one that already holds `len`, else the largest overall
    /// (it will grow once and then stick).
    fn pick(&mut self, len: usize) -> Option<Vec<f32>> {
        if self.free.is_empty() {
            return None;
        }
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let (bc, ic) = (self.free[b].capacity(), buf.capacity());
                    if bc >= len {
                        ic >= len && ic < bc
                    } else {
                        ic > bc
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        best.map(|i| self.free.swap_remove(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_matrices() {
        let mut ws = Workspace::new();
        let mut m = ws.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
        m.set(1, 1, 7.0);
        ws.give(m);
        // The recycled buffer must come back zeroed, not dirty.
        let again = ws.take(3, 4);
        assert_eq!(again.sum(), 0.0);
    }

    #[test]
    fn allocations_are_recycled() {
        let mut ws = Workspace::new();
        let m = ws.take(100, 10);
        ws.give(m);
        assert_eq!(ws.cached(), 1);
        let cap_before = ws.cached_elements();
        // A smaller request reuses the big buffer rather than allocating.
        let small = ws.take(5, 5);
        assert_eq!(ws.cached(), 0);
        ws.give(small);
        assert_eq!(ws.cached_elements(), cap_before);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        ws.give(DenseMatrix::zeros(100, 1));
        ws.give(DenseMatrix::zeros(10, 1));
        let m = ws.take(8, 1);
        // The 10-element buffer should have been chosen.
        assert!(m.len() == 8);
        assert_eq!(ws.cached(), 1);
        assert!(ws.cached_elements() >= 100);
    }

    #[test]
    fn take_copy_duplicates_contents() {
        let mut ws = Workspace::new();
        let src = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let copy = ws.take_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn empty_matrices_are_not_cached() {
        let mut ws = Workspace::new();
        ws.give(DenseMatrix::zeros(0, 0));
        assert_eq!(ws.cached(), 0);
    }
}
