//! Deterministic fault injection for chaos-testing the serving runtime.
//!
//! A [`FaultPlan`] is a *schedule*, not a probability: each entry names
//! the shard and the per-shard ordinal (a counter starting at 1) it
//! fires on — the shard's n-th flushed batch, or its n-th restore — so
//! a chaos run is reproducible bit-for-bit: the same plan against the
//! same request stream injects the same faults in the same places.
//! Plans are built explicitly ([`FaultPlan::with_fault`]) or generated
//! from a seed ([`FaultPlan::random`]); either way the constructor
//! calls are the reproduction.
//!
//! Both faults change shard state — a panic takes the shard down, a
//! failed restore keeps it down or refuses an install — so every
//! health transition of the shard state machine can be reached on
//! purpose, with no clock. The module is always compiled. The hooks
//! live in each shard's state machine behind
//! [`ServingEngine`](crate::ServingEngine): one ordinal check per batch
//! and one per restore, each on an empty list unless
//! [`ServeConfig::fault_plan`](crate::ServeConfig::fault_plan) is set.

/// One injected fault: where (shard), when (per-shard batch or restore
/// ordinal), and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the shard's batch execution — exercises the
    /// `catch_unwind` supervision and restore-from-snapshot path.
    PanicAt {
        /// Shard the panic fires on.
        shard: usize,
        /// Per-shard batch ordinal (1-based) that panics.
        batch_n: u64,
    },
    /// Fail the shard's `restore_n`-th snapshot restore — exercises
    /// all-or-nothing deploy rollback (an install), a rollback that
    /// cannot reinstall, and a shard left `Down` until a deploy
    /// resurrects it (a supervised restart).
    FailRestore {
        /// Shard whose restore fails.
        shard: usize,
        /// Per-shard restore ordinal (1-based), counting installs,
        /// rollbacks and supervised restarts alike.
        restore_n: u64,
    },
}

/// A schedule of injected faults, threaded into the engine through
/// [`ServeConfig::fault_plan`](crate::ServeConfig::fault_plan).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// SplitMix64, as a seeded stream for [`FaultPlan::random`].
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl FaultPlan {
    /// An empty plan: it injects nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: appends one fault to the schedule.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Generates a reproducible schedule for a `shards`-shard engine
    /// from `seed`: every shard gets one panic at a batch ordinal in
    /// `1..=horizon`, and exactly one shard gets one failed restore
    /// among its first three. The same `(seed, shards, horizon)` always
    /// yields the same plan.
    pub fn random(seed: u64, shards: usize, horizon: u64) -> Self {
        let shards = shards.max(1);
        let horizon = horizon.max(1);
        let mut rng = SplitMix64(seed);
        let mut plan = Self::new();
        for shard in 0..shards {
            plan.faults.push(Fault::PanicAt {
                shard,
                batch_n: 1 + rng.next() % horizon,
            });
        }
        plan.faults.push(Fault::FailRestore {
            shard: (rng.next() % shards as u64) as usize,
            restore_n: 1 + rng.next() % 3,
        });
        plan
    }

    /// Extracts the faults aimed at one shard — the bundle a shard
    /// carries so firing a hook never touches shared state.
    pub(crate) fn shard_faults(&self, shard: usize) -> ShardFaults {
        let mut faults = ShardFaults::default();
        for fault in &self.faults {
            match *fault {
                Fault::PanicAt { shard: s, batch_n } if s == shard => faults.panics.push(batch_n),
                Fault::FailRestore {
                    shard: s,
                    restore_n,
                } if s == shard => faults.failed_restores.push(restore_n),
                _ => {}
            }
        }
        faults
    }
}

/// The slice of a [`FaultPlan`] one shard carries: triggers keyed by
/// per-shard batch or restore ordinal.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardFaults {
    panics: Vec<u64>,
    failed_restores: Vec<u64>,
}

impl ShardFaults {
    /// Whether batch ordinal `n` is scheduled to panic.
    pub(crate) fn should_panic(&self, n: u64) -> bool {
        self.panics.contains(&n)
    }

    /// Whether restore ordinal `n` is scheduled to fail.
    pub(crate) fn should_fail_restore(&self, n: u64) -> bool {
        self.failed_restores.contains(&n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(7, 4, 6);
        let b = FaultPlan::random(7, 4, 6);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::random(8, 4, 6), "different seed differs");
        // Every shard is scheduled to panic at least once.
        for shard in 0..4 {
            assert!(a
                .faults
                .iter()
                .any(|f| matches!(f, Fault::PanicAt { shard: s, .. } if *s == shard)));
        }
        // Exactly one failed restore, among the shard's first three.
        let failed: Vec<u64> = a
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::FailRestore { restore_n, .. } => Some(*restore_n),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert!((1..=3).contains(&failed[0]));
    }

    #[test]
    fn shard_faults_filter_and_consume() {
        let plan = FaultPlan::new()
            .with_fault(Fault::PanicAt {
                shard: 1,
                batch_n: 2,
            })
            .with_fault(Fault::FailRestore {
                shard: 1,
                restore_n: 2,
            });
        let one = plan.shard_faults(1);
        assert!(one.should_panic(2) && !one.should_panic(1));
        assert!(one.should_fail_restore(2));
        assert!(!one.should_fail_restore(1) && !one.should_fail_restore(3));
        let zero = plan.shard_faults(0);
        assert!(!zero.should_panic(2));
        assert!(
            !zero.should_fail_restore(2),
            "restore fault belongs to shard 1"
        );
    }
}
