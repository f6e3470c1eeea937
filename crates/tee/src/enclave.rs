use crate::{CostModel, TeeError, PAGE_BYTES, SGX_EPC_BYTES};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Handle to one live enclave allocation; returned by
/// [`EnclaveSim::alloc`] and consumed by [`EnclaveSim::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(u64);

/// Behaviour when an allocation would push usage past the EPC budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverBudgetPolicy {
    /// Model SGX paging: the allocation succeeds but every page beyond
    /// the budget is charged an EWB/ELDU swap cost — the "frequent page
    /// swapping … high overhead" regime of §III-C.
    #[default]
    Swap,
    /// Refuse the allocation — useful for asserting that a deployment
    /// (e.g. every GNNVault rectifier, per Fig. 6) stays inside the EPC.
    Fail,
}

/// Software model of one SGX enclave and its one ledger: live
/// allocations against the EPC budget, plus cumulative counters of
/// what the boundary has cost — transitions, and simulated transfer,
/// in-enclave and page-swap nanoseconds (Fig. 6's breakdown). A caller
/// that wants the cost of one inference reads the counters before and
/// after it.
///
/// The simulator does not execute code "inside" anything — isolation is
/// modelled structurally: the [`gnnvault`](../gnnvault) deployment keeps
/// private data in types that never cross back out (see
/// [`EnclaveSession`](crate::EnclaveSession)); this type makes the
/// *resource* constraints of that placement measurable.
///
/// # Examples
///
/// ```
/// use tee::{EnclaveSim, OverBudgetPolicy, MB};
///
/// # fn main() -> Result<(), tee::TeeError> {
/// let mut enclave = EnclaveSim::new(8 * MB, Default::default(), OverBudgetPolicy::Fail);
/// let a = enclave.alloc(6 * MB)?;
/// assert!(enclave.alloc(4 * MB).is_err());
/// enclave.free(a)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EnclaveSim {
    epc_budget: usize,
    policy: OverBudgetPolicy,
    cost: CostModel,
    /// Live allocations: id → bytes.
    ledger: HashMap<u64, usize>,
    next_id: u64,
    in_use: usize,
    peak: usize,
    swapped_pages: u64,
    transitions: u64,
    transfer_ns: u64,
    page_swap_ns: u64,
    /// Charged by [`EnclaveSim::run`], which takes `&self`.
    enclave_ns: AtomicU64,
}

impl EnclaveSim {
    /// Creates an enclave with an explicit budget, cost model, and
    /// over-budget policy.
    pub fn new(epc_budget: usize, cost: CostModel, policy: OverBudgetPolicy) -> Self {
        Self {
            epc_budget,
            policy,
            cost,
            ledger: HashMap::new(),
            next_id: 0,
            in_use: 0,
            peak: 0,
            swapped_pages: 0,
            transitions: 0,
            transfer_ns: 0,
            page_swap_ns: 0,
            enclave_ns: AtomicU64::new(0),
        }
    }

    /// Creates an enclave with the classic SGX1 96 MB EPC, default cost
    /// model, and the [`OverBudgetPolicy::Swap`] paging behaviour.
    pub fn with_defaults() -> Self {
        Self::new(
            SGX_EPC_BYTES,
            CostModel::default(),
            OverBudgetPolicy::default(),
        )
    }

    /// The configured EPC budget in bytes.
    pub fn epc_budget(&self) -> usize {
        self.epc_budget
    }

    /// Bytes currently allocated.
    pub fn current_usage(&self) -> usize {
        self.in_use
    }

    /// High-water mark of allocated bytes — the "enclave runtime memory
    /// usage" series of Fig. 6 (bottom).
    pub fn peak_usage(&self) -> usize {
        self.peak
    }

    /// Number of EPC pages charged as swapped so far.
    pub fn swapped_pages(&self) -> u64 {
        self.swapped_pages
    }

    /// Number of world transitions (ECALLs/OCALLs) charged so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Simulated nanoseconds charged for marshalling data in, over the
    /// enclave's lifetime (one transition plus per-byte cost per send).
    pub fn transfer_ns(&self) -> u64 {
        self.transfer_ns
    }

    /// Nanoseconds of in-enclave work over the enclave's lifetime: each
    /// [`run`](Self::run)'s wall clock plus the cost model's slowdown
    /// surcharge on it.
    pub fn enclave_ns(&self) -> u64 {
        self.enclave_ns.load(Ordering::Relaxed)
    }

    /// Simulated nanoseconds charged for EPC page swaps over the
    /// enclave's lifetime (only under [`OverBudgetPolicy::Swap`]).
    pub fn page_swap_ns(&self) -> u64 {
        self.page_swap_ns
    }

    /// The enclave's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Allocates `bytes` inside the enclave.
    ///
    /// # Errors
    ///
    /// Under [`OverBudgetPolicy::Fail`], returns
    /// [`TeeError::EpcExhausted`] when the allocation would exceed the
    /// budget. Under [`OverBudgetPolicy::Swap`] it always succeeds and
    /// charges swap costs for pages beyond the budget.
    pub fn alloc(&mut self, bytes: usize) -> Result<AllocationId, TeeError> {
        let new_total = self.in_use + bytes;
        if new_total > self.epc_budget {
            match self.policy {
                OverBudgetPolicy::Fail => {
                    return Err(TeeError::EpcExhausted {
                        requested: bytes,
                        in_use: self.in_use,
                        budget: self.epc_budget,
                    });
                }
                OverBudgetPolicy::Swap => {
                    let overflow = new_total - self.epc_budget.max(self.in_use);
                    let pages = overflow.div_ceil(PAGE_BYTES);
                    self.swapped_pages += pages as u64;
                    self.page_swap_ns += self.cost.swap_ns(pages);
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ledger.insert(id, bytes);
        self.in_use = new_total;
        self.peak = self.peak.max(self.in_use);
        Ok(AllocationId(id))
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnknownAllocation`] on double-free or a stale
    /// id.
    pub fn free(&mut self, id: AllocationId) -> Result<(), TeeError> {
        let bytes = self
            .ledger
            .remove(&id.0)
            .ok_or(TeeError::UnknownAllocation { id: id.0 })?;
        self.in_use -= bytes;
        Ok(())
    }

    /// Charges one ECALL transition plus marshalling for `bytes` of
    /// ingress data to the transfer counter.
    pub(crate) fn charge_ingress(&mut self, bytes: usize) {
        self.transitions += 1;
        self.transfer_ns += self.cost.transfer_ns(bytes);
    }

    /// Runs enclave-side work, charging its wall clock plus the cost
    /// model's in-enclave compute surcharge to the enclave counter.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let charged = wall_ns + self.cost.enclave_surcharge_ns(wall_ns);
        self.enclave_ns.fetch_add(charged, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MB;

    #[test]
    fn alloc_free_roundtrip_updates_usage() {
        let mut e = EnclaveSim::with_defaults();
        let a = e.alloc(MB).unwrap();
        let b = e.alloc(2 * MB).unwrap();
        assert_eq!(e.current_usage(), 3 * MB);
        e.free(a).unwrap();
        assert_eq!(e.current_usage(), 2 * MB);
        assert_eq!(e.peak_usage(), 3 * MB);
        e.free(b).unwrap();
        assert_eq!(e.current_usage(), 0);
    }

    #[test]
    fn double_free_is_an_error() {
        let mut e = EnclaveSim::with_defaults();
        let a = e.alloc(10).unwrap();
        e.free(a).unwrap();
        assert!(matches!(e.free(a), Err(TeeError::UnknownAllocation { .. })));
    }

    #[test]
    fn fail_policy_rejects_over_budget() {
        let mut e = EnclaveSim::new(MB, CostModel::free(), OverBudgetPolicy::Fail);
        assert!(e.alloc(2 * MB).is_err());
        let _ = e.alloc(MB / 2).unwrap();
        assert!(e.alloc(MB).is_err());
    }

    #[test]
    fn swap_policy_charges_pages_beyond_budget() {
        let mut e = EnclaveSim::new(MB, CostModel::default(), OverBudgetPolicy::Swap);
        let _ = e.alloc(MB).unwrap();
        assert_eq!(e.swapped_pages(), 0);
        let _ = e.alloc(8192).unwrap();
        assert_eq!(e.swapped_pages(), 2);
        assert_eq!(e.page_swap_ns(), CostModel::default().swap_ns(2));
    }

    #[test]
    fn ingress_counts_transitions_and_cost() {
        let mut e = EnclaveSim::with_defaults();
        let cost = CostModel::default();
        e.charge_ingress(1000);
        assert_eq!(e.transfer_ns(), cost.transfer_ns(1000));
        assert_eq!(e.transitions(), 1);
        e.charge_ingress(0);
        assert_eq!(e.transitions(), 2);
        assert_eq!(
            e.transfer_ns(),
            cost.transfer_ns(1000) + cost.transfer_ns(0)
        );
    }

    #[test]
    fn run_charges_the_enclave_counter() {
        let e = EnclaveSim::with_defaults();
        let v = e.run(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            1 + 1
        });
        assert_eq!(v, 2);
        // The default model doubles in-enclave time.
        assert!(e.enclave_ns() >= 4_000_000, "{}", e.enclave_ns());
        let free = EnclaveSim::new(MB, CostModel::free(), OverBudgetPolicy::Swap);
        free.run(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(free.enclave_ns() >= 2_000_000, "{}", free.enclave_ns());
        assert_eq!(free.transfer_ns() + free.page_swap_ns(), 0);
    }
}
