//! The five workloads: names, engine configuration, load shape.

use serve::{ServeConfig, Topology};

/// Load threads (`nproc` on the bench box). `open_mixed` uses them as
/// one generator and one collector, `deploy_churn` as one reader and one
/// operator.
pub const CLIENTS: usize = 2;
/// Arrival rate of `open_mixed`, requests per second.
pub const OPEN_RATE: f64 = 150.0;
/// Pause between a `deploy` return and the next `deploy` call.
pub const DEPLOY_PAUSE_MS: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSingle,
    ColdBatch64,
    HotZipf,
    OpenMixed,
    DeployChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdSingle,
        Workload::ColdBatch64,
        Workload::HotZipf,
        Workload::OpenMixed,
        Workload::DeployChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSingle => "cold_single",
            Workload::ColdBatch64 => "cold_batch64",
            Workload::HotZipf => "hot_zipf",
            Workload::OpenMixed => "open_mixed",
            Workload::DeployChurn => "deploy_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's requests can be answered from a cache, so
    /// the hot set is touched before anything is timed.
    pub fn is_cached(self) -> bool {
        !matches!(self, Workload::ColdSingle | Workload::ColdBatch64)
    }

    /// Request streams: one per closed-loop client, one for the
    /// open-loop generator.
    pub fn streams(self) -> usize {
        match self {
            Workload::OpenMixed => 1,
            // Two zero-think-time clients lock into one of two stable
            // phases here (sharing each batch, or alternating batches at
            // twice the latency) and flip between them at random, which
            // makes p99 a coin toss. One client pays exactly what the
            // workload is about: the flush deadline plus one batch.
            Workload::ColdSingle => 1,
            Workload::DeployChurn => 1,
            _ => CLIENTS,
        }
    }

    /// The engine this workload runs against. Batch policy, sentinel
    /// and every other knob stay at the program's defaults.
    pub fn serve_config(self) -> ServeConfig {
        let base = ServeConfig::default();
        match self {
            // Caches off stand in for a corpus far larger than any
            // cache: the workload stays cold at any speed.
            Workload::ColdSingle | Workload::ColdBatch64 => ServeConfig {
                cache_capacity: 0,
                fast_cache_slots: 0,
                ..base
            },
            Workload::HotZipf => ServeConfig {
                cache_capacity: 4096,
                fast_cache_slots: 4096,
                ..base
            },
            // LRU only: every request, hit or miss, goes through the one
            // queue, so a cold batch in flight delays the hits behind it
            // (with the fast cache on, hits never meet the queue), and
            // the median request is an LRU hit waiting out the flush
            // deadline, which repeats far better than a microsecond hit
            // timed on a thread that has just slept.
            Workload::OpenMixed => ServeConfig {
                cache_capacity: 4096,
                fast_cache_slots: 0,
                ..base
            },
            Workload::DeployChurn => ServeConfig {
                cache_capacity: 4096,
                fast_cache_slots: 4096,
                shards: 2,
                topology: Topology::Partitioned,
                ..base
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("cold"), None);
    }
}
