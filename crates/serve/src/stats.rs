//! Serving statistics: the per-shard [`ShardStats`] each shard's state
//! machine fills in, and the engine-wide [`ServeStats`] aggregate
//! [`ServingEngine::shutdown`](crate::ServingEngine::shutdown) returns.

use crate::{LatencyHistogram, SentinelStats};
use gnnvault::InferenceReport;

/// Per-shard serving statistics: the
/// [`FlushReason`](crate::FlushReason) balance, batch, failure, and
/// recovery counts, and hot-swap installs. One entry per shard lands in
/// [`ServeStats::shards`], so operators can see deadline-vs-size flush
/// balance (and load skew) per shard instead of only in aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index (partitioned, also the partition it owns).
    pub shard: usize,
    /// Sub-requests this shard answered.
    pub requests: u64,
    /// Node queries this shard answered.
    pub answered_nodes: u64,
    /// Batches flushed from this shard's admission queue.
    pub batches: u64,
    /// Batches that reached this shard's enclave.
    pub enclave_batches: u64,
    /// Batches flushed because the size bound was reached.
    pub full_flushes: u64,
    /// Partial batches flushed by the deadline.
    pub deadline_flushes: u64,
    /// Batches flushed while draining at shutdown.
    pub drain_flushes: u64,
    /// Batches that failed inside this shard's vault (typed vault
    /// errors) or died in a panic.
    pub failed_batches: u64,
    /// Panics this shard's supervision caught mid-batch.
    pub panics_caught: u64,
    /// Successful supervisor restores after a caught panic.
    pub restarts: u64,
    /// Installs rolled back after a partially failed
    /// [`ServingEngine::deploy`](crate::ServingEngine::deploy).
    pub rollbacks: u64,
    /// Requests this shard dropped for exceeding
    /// [`ServeConfig::request_timeout`](crate::ServeConfig::request_timeout).
    pub timed_out: u64,
    /// Model epochs hot-swapped in via
    /// [`ServingEngine::deploy`](crate::ServingEngine::deploy).
    pub deploys: u64,
    /// Queue depth (requests still pending) when the shard exited —
    /// non-zero only if the drain was cut short.
    pub queue_depth: usize,
    /// Deepest this shard's admission queue ever got, in requests —
    /// the operator's backlog-headroom gauge against
    /// `max_queue_requests`.
    pub queue_high_water: usize,
    /// Submit-to-respond latency of every node query this shard
    /// answered successfully through the queued (enclave) path.
    pub latency: LatencyHistogram,
}

/// Aggregate serving statistics, returned by
/// [`ServingEngine::shutdown`](crate::ServingEngine::shutdown).
///
/// Aggregates are summed across shards; [`ServeStats::shards`] holds
/// the per-shard breakdown. With more than one shard, a multi-node
/// client request is split into one sub-request per shard that owns
/// some of its nodes, and [`ServeStats::requests`] counts those
/// *sub-requests* — for single-node request streams the two notions
/// coincide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Sub-requests answered (successfully or with a typed error).
    pub requests: u64,
    /// Node queries answered across all requests.
    pub answered_nodes: u64,
    /// Node queries resolved without new enclave work (LRU hit, or
    /// duplicate of a node already in the same batch).
    pub cache_hits: u64,
    /// Unique node queries that entered an enclave.
    pub cache_misses: u64,
    /// Batches flushed from the admission queues.
    pub batches: u64,
    /// Batches that reached an enclave (all-hit batches don't).
    pub enclave_batches: u64,
    /// Batches flushed because the size bound was reached.
    pub full_flushes: u64,
    /// Partial batches flushed by the deadline.
    pub deadline_flushes: u64,
    /// Batches flushed while draining at shutdown.
    pub drain_flushes: u64,
    /// Batches that failed inside a vault or died in a panic.
    pub failed_batches: u64,
    /// Panics caught by shard supervision (each fails one batch, never
    /// the engine).
    pub panics_caught: u64,
    /// Successful supervisor restores of crashed shards.
    pub shard_restarts: u64,
    /// Installs rolled back by all-or-nothing
    /// [`ServingEngine::deploy`](crate::ServingEngine::deploy) after
    /// another shard failed to install.
    pub deploy_rollbacks: u64,
    /// Requests dropped for exceeding
    /// [`ServeConfig::request_timeout`](crate::ServeConfig::request_timeout).
    pub timed_out_requests: u64,
    /// Submissions shed at the admission bound
    /// ([`ServeError::Overloaded`](crate::ServeError::Overloaded)).
    pub requests_shed: u64,
    /// Node queries answered in place on the submit thread by the
    /// lock-free [`FastCache`](crate::FastCache) — zero queue, zero
    /// cross-thread traffic (not counted in [`ServeStats::requests`] or
    /// [`ServeStats::cache_hits`], which describe the queued path).
    pub fast_path_hits: u64,
    /// Submit-to-resolve latency of fast-path requests (probe plus
    /// histogram bookkeeping; no queue, no enclave).
    pub fast_path_latency: LatencyHistogram,
    /// Submit-to-respond latency of node queries answered through the
    /// queued (enclave) path, merged bucket-wise across shards —
    /// deterministic for a fixed trace at any shard count.
    pub queued_latency: LatencyHistogram,
    /// Enclave transitions (ECALLs) across all batches and shards.
    pub enclave_transitions: u64,
    /// Bytes marshalled into the enclaves across all batches.
    pub transferred_bytes: u64,
    /// Aggregate backbone / transfer / rectifier time over all enclave
    /// batches, in nanoseconds (wall + simulated, from the meters).
    pub backbone_ns: u64,
    /// See [`ServeStats::backbone_ns`].
    pub transfer_ns: u64,
    /// See [`ServeStats::backbone_ns`].
    pub rectifier_ns: u64,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardStats>,
    /// The abuse sentinel's aggregate counters and per-client-session
    /// breakdown (filled at
    /// [`ServingEngine::shutdown`](crate::ServingEngine::shutdown);
    /// per-shard stats leave it empty — the sentinel fronts the whole
    /// engine).
    pub sentinel: SentinelStats,
}

impl ServeStats {
    /// Fraction of node queries served without new enclave work.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Enclave transitions per answered node query — the amortization
    /// headline (per-node [`Vault::infer`](gnnvault::Vault::infer)
    /// pays the full tap count for every single query).
    pub fn transitions_per_node(&self) -> f64 {
        if self.answered_nodes == 0 {
            return 0.0;
        }
        self.enclave_transitions as f64 / self.answered_nodes as f64
    }

    /// Mean unique nodes per enclave batch.
    pub fn mean_enclave_batch_nodes(&self) -> f64 {
        if self.enclave_batches == 0 {
            return 0.0;
        }
        self.cache_misses as f64 / self.enclave_batches as f64
    }

    pub(crate) fn absorb_report(&mut self, report: &InferenceReport) {
        self.enclave_batches += 1;
        self.enclave_transitions += report.transitions;
        self.transferred_bytes += report.transferred_bytes as u64;
        self.backbone_ns += report.backbone_ns;
        self.transfer_ns += report.transfer_ns;
        self.rectifier_ns += report.rectifier_ns;
    }

    /// Folds one shard's run into the engine-wide aggregate.
    pub(crate) fn merge(&mut self, shard: ServeStats) {
        self.requests += shard.requests;
        self.answered_nodes += shard.answered_nodes;
        self.cache_hits += shard.cache_hits;
        self.cache_misses += shard.cache_misses;
        self.batches += shard.batches;
        self.enclave_batches += shard.enclave_batches;
        self.full_flushes += shard.full_flushes;
        self.deadline_flushes += shard.deadline_flushes;
        self.drain_flushes += shard.drain_flushes;
        self.failed_batches += shard.failed_batches;
        self.panics_caught += shard.panics_caught;
        self.shard_restarts += shard.shard_restarts;
        self.deploy_rollbacks += shard.deploy_rollbacks;
        self.timed_out_requests += shard.timed_out_requests;
        self.requests_shed += shard.requests_shed;
        self.fast_path_hits += shard.fast_path_hits;
        self.fast_path_latency.merge(&shard.fast_path_latency);
        self.queued_latency.merge(&shard.queued_latency);
        self.enclave_transitions += shard.enclave_transitions;
        self.transferred_bytes += shard.transferred_bytes;
        self.backbone_ns += shard.backbone_ns;
        self.transfer_ns += shard.transfer_ns;
        self.rectifier_ns += shard.rectifier_ns;
        self.shards.extend(shard.shards);
    }
}
