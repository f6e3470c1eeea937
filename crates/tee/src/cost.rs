/// Calibrated cost constants for simulated SGX operations.
///
/// Defaults follow published SGX microbenchmarks (Costan & Devadas,
/// "Intel SGX Explained"; Weisse et al., HotCalls) for a Skylake-class
/// part like the paper's i7-7700:
///
/// - an ECALL/OCALL world switch costs ~8 µs,
/// - crossing data is marshalled and integrity-protected at ~1 GB/s
///   (≈1 ns/byte),
/// - evicting or reloading one 4 KiB EPC page (EWB/ELDU: AES encrypt +
///   MAC + version-tree update) costs ~12 µs,
/// - compute *inside* the enclave runs slower than the same code in the
///   normal world (Memory Encryption Engine traffic and restricted
///   optimizations); measured SGX1 slowdowns for memory-bound kernels
///   are 1.2–3×, modelled here as a multiplier (default 2×).
///
/// These drive the *simulated* component of the Fig. 6 time breakdown;
/// compute inside and outside the enclave is measured as real wall-clock
/// time of the Rust kernels.
///
/// # Examples
///
/// ```
/// let cost = tee::CostModel::default();
/// assert_eq!(cost.transfer_ns(1024), 8_000 + 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of one ECALL or OCALL transition, in nanoseconds.
    pub transition_ns: u64,
    /// Per-byte marshalling cost for world-crossing copies, in
    /// nanoseconds (fixed-point: ns per byte).
    pub per_byte_ns: u64,
    /// Cost of evicting or loading one EPC page, in nanoseconds.
    pub page_swap_ns: u64,
    /// In-enclave compute slowdown in percent *extra* time (100 = code
    /// inside the enclave takes 2× its normal-world wall clock). Stored
    /// as an integer so the model stays `Eq`/hashable.
    pub compute_slowdown_pct: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            transition_ns: 8_000,
            per_byte_ns: 1,
            page_swap_ns: 12_000,
            compute_slowdown_pct: 100,
        }
    }
}

impl CostModel {
    /// A zero-cost model, useful for tests that assert pure accounting.
    pub fn free() -> Self {
        Self {
            transition_ns: 0,
            per_byte_ns: 0,
            page_swap_ns: 0,
            compute_slowdown_pct: 0,
        }
    }

    /// Extra simulated nanoseconds charged for `wall_ns` of in-enclave
    /// compute (the slowdown surcharge beyond the measured time).
    pub fn enclave_surcharge_ns(&self, wall_ns: u64) -> u64 {
        wall_ns * self.compute_slowdown_pct as u64 / 100
    }

    /// Simulated nanoseconds to move `bytes` across the enclave boundary
    /// (one transition plus per-byte marshalling).
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        self.transition_ns + self.per_byte_ns * bytes as u64
    }

    /// Simulated nanoseconds to swap `pages` EPC pages.
    pub fn swap_ns(&self, pages: usize) -> u64 {
        self.page_swap_ns * pages as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_nonzero_free_is_zero() {
        let d = CostModel::default();
        assert!(d.transfer_ns(0) > 0);
        let f = CostModel::free();
        assert_eq!(f.transfer_ns(1_000_000), 0);
        assert_eq!(f.swap_ns(100), 0);
    }

    #[test]
    fn transfer_scales_linearly_in_bytes() {
        let c = CostModel::default();
        let base = c.transfer_ns(0);
        assert_eq!(c.transfer_ns(1000) - base, 1000 * c.per_byte_ns);
    }

    #[test]
    fn enclave_surcharge_doubles_at_default() {
        let c = CostModel::default();
        assert_eq!(c.enclave_surcharge_ns(1_000), 1_000);
        assert_eq!(CostModel::free().enclave_surcharge_ns(1_000), 0);
    }
}
