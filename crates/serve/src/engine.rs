//! The sharded serving runtime: N supervised worker shards, each owning
//! a vault replica restored from one sealed snapshot, fronted by a
//! health-aware deterministic node-hash router, with zero-downtime
//! model hot-swap and automatic crash recovery.
//!
//! ## Topology
//!
//! [`ServingEngine::start`] spawns [`ServeConfig::shards`] worker
//! threads. Under the default [`Topology::Replicated`], shard 0 owns
//! the vault it was given; every other shard owns a replica restored
//! from one shared sealed snapshot ([`Vault::recovery_handle`]), so all
//! shards answer from bit-identical weights under the *same epoch*.
//! Each shard runs the full single-vault stack — its own
//! [`AdmissionQueue`], its own epoch-keyed [`LruCache`], and its own
//! [`tee::EnclaveSession`] — and a [`Router`] in every
//! [`ServeHandle`] assigns each queried node to a shard by a
//! deterministic hash of its id, so repeat queries for a node always
//! land on the same shard and that shard's cache stays effective.
//!
//! Under [`Topology::Partitioned`] the private graph is *partitioned*
//! instead of replicated ([`Vault::partition_recovery_handles`]): shard `i` owns
//! partition `i` of a contiguous-block layout — its owned nodes, their
//! L-hop halo (L = rectifier depth), and nothing else — so N shards
//! hold ~1/N of the private state each instead of N full copies, and
//! each shard's retained recovery snapshot is its own (strictly
//! smaller) per-partition snapshot. The router becomes an *owner
//! lookup* over the same [`graph::partition::PartitionSpec`]; because
//! ownership is a pure function of the node id (never of the private
//! edges), routing still needs no private data. Labels stay
//! bit-identical to sequential inference — the halo gives every owned
//! node its full L-hop receptive field — but a Down shard's nodes have
//! no substitute holder, so they fail typed instead of re-routing (see
//! the failure model below).
//!
//! ## Threading model
//!
//! Each [`Vault`] replica (and its simulated enclave) is owned by a
//! single shard worker thread — the analogue of the SGX rule that
//! enclave state is touched only through controlled entry points.
//! Concurrency comes from three places: any number of client threads
//! submit through cloned [`ServeHandle`]s; shards execute batches
//! independently; and inside each batch the backbone forward fans out
//! over the shared `linalg` pool. A shard runs one batch at a time
//! through its one enclave session.
//!
//! ## Determinism
//!
//! Results never depend on batching, caching, routing, or shard count.
//! Every replica runs the same full-graph rectification with the same
//! weights, so an N-shard engine's labels are bit-identical to a
//! single-shard engine's — and to sequential [`Vault::infer`] — for any
//! request stream (asserted in `tests/engine.rs`). Supervision keeps
//! the invariant: a restored shard serves the same retained snapshot,
//! and a re-routed request is answered by a replica of the same model,
//! so every *successful* answer is bit-identical to sequential
//! inference no matter what failed around it.
//!
//! ## Failure model
//!
//! Each shard worker wraps batch execution in
//! [`catch_unwind`](std::panic::catch_unwind). A panic fails only the
//! batch in flight — its requests resolve to
//! [`ServeError::ShardFailed`] — then the shard discards the
//! (possibly poisoned) replica, marks itself [`ShardHealth::Down`] on
//! the engine's [`HealthBoard`], and restores a fresh replica from its
//! retained [`RecoveryHandle`] — once, with no sleep: a restore is a
//! pure function of (sealed bytes, key), so a retry could only repeat
//! its answer. If that restore fails the shard stays `Down` until a
//! deploy resurrects it. Replicated, handles route *new* requests
//! around `Down` shards (trading cache affinity for availability,
//! counted in [`ServeStats::rerouted_subrequests`]); partitioned, a
//! `Down` shard's nodes have no other holder, so their requests stay
//! home and resolve to the typed `ShardFailed` until the owner recovers
//! or a deploy resurrects it — never a silently misrouted answer.
//! Overload sheds at the admission high-water mark
//! ([`ServeError::Overloaded`]), stale requests are dropped by the
//! per-request timeout ([`ServeError::TimedOut`]), and
//! [`ServingEngine::deploy`] is all-or-nothing: one install per shard,
//! and rollback to the previously installed epoch when any shard fails.
//! Install, rollback and restart all restore through one worker
//! function, the single hook for [`Fault::FailRestore`](crate::Fault).
//!
//! ## Hot swap
//!
//! [`ServingEngine::deploy`] installs a new model epoch from a sealed
//! [`VaultSnapshot`] across all shards with zero downtime: admission
//! never pauses, each shard finishes (drains) its in-flight batch on
//! the old epoch, installs the replica between batches, and answers
//! everything after that from the new epoch. Each shard's result cache
//! is dropped at install (epoch numbers are process-local, so keying
//! alone could not rule out a collision with a foreign snapshot), so a
//! stale entry can never be served. The submit-path
//! [`FastCache`](crate::FastCache) (when enabled) is invalidated *by
//! tag alone*: the deploy mints a fresh install generation, shards
//! publish new-model labels under it as they install, and the engine
//! flips probes to it only after every shard acked — old entries just
//! stop matching, with no flush pass. `deploy` returns `Ok` once every
//! shard has installed the new epoch: responses to requests submitted
//! after it returns are answered exclusively by the new model.
//!
//! ## Abuse sentinel
//!
//! Every submission passes the engine's [`sentinel`](crate::sentinel)
//! before routing: per-session sliding-window detectors score the query
//! stream for extraction signatures, and an enforcement ladder
//! escalates abusive sessions to [`ServeError::RateLimited`] and
//! [`ServeError::Quarantined`] — both *admission* rejections, issued
//! before any shard, cache, or enclave sees the request. Attribute
//! traffic with [`ServeHandle::submit_as`]; unattributed
//! [`submit`](ServeHandle::submit) calls share the
//! [`ClientId::ANONYMOUS`] session. The sentinel is engine-global
//! (shared by all handles), its counters land in
//! [`ServeStats::sentinel`] at shutdown, and a successful
//! [`ServingEngine::deploy`] optionally grants amnesty
//! ([`SentinelConfig::reset_on_deploy`]).

use crate::faults::{FaultPlan, ShardFaults};
use crate::latency::AtomicLatency;
use crate::sentinel::Sentinel;
use crate::{
    AdmissionQueue, BatchPolicy, BatchPoll, ClientId, FastCache, FlushReason, LatencyHistogram,
    LruCache, PendingRequest, SentinelConfig, SentinelStats, ServeError, Ticket,
};
use gnnvault::{InferenceReport, Precision, RecoveryHandle, Vault, VaultSnapshot};
use graph::partition::PartitionSpec;
use linalg::DenseMatrix;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tee::{ClassLabel, SealKey};

/// How long a shard worker waits in one queue poll before re-checking
/// its control channel. [`AdmissionQueue::notify`] cuts the wait short,
/// so this is a liveness backstop, not a latency bound.
const CONTROL_POLL: Duration = Duration::from_millis(50);

/// How the private real graph is distributed across worker shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// Every shard owns a full vault replica restored from one shared
    /// sealed snapshot. Any shard can answer any node, so the router
    /// hashes node ids across shards and a [`ShardHealth::Down`] shard
    /// is routed around without changing any answer.
    #[default]
    Replicated,
    /// The private graph is edge-cut partitioned
    /// ([`Vault::partition_recovery_handles`]): shard `i` owns partition `i` of a
    /// contiguous-block [`PartitionSpec`] and holds only its owned
    /// nodes plus an L-hop halo — ~1/N of the private state instead of
    /// N full copies. Routing becomes an owner lookup
    /// ([`PartitionSpec::owner_of`]), and because no other shard can
    /// answer a partition's nodes, a `Down` owner is *not* routed
    /// around: its queries fail with the typed
    /// [`ServeError::ShardFailed`] until recovery or a deploy
    /// resurrects it.
    Partitioned,
}

/// Configuration for [`ServingEngine::start`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Abuse-sentinel thresholds and mode (see
    /// [`SentinelConfig`]); defaults to shadow-mode observation.
    pub sentinel: SentinelConfig,
    /// Batching and admission-control knobs, applied per shard.
    pub policy: BatchPolicy,
    /// LRU result-cache entries *per shard*, keyed
    /// `(vault epoch, node id)`; 0 disables caching.
    pub cache_capacity: usize,
    /// Packed slots in the engine-wide lock-free [`FastCache`] probed
    /// on the submit path (rounded up to a power of two; each slot is
    /// 16 bytes). 0 — the default — disables the fast path entirely:
    /// every request takes the queued path, which keeps per-shard
    /// request counts deterministic.
    pub fast_cache_slots: usize,
    /// Worker shards (clamped to ≥ 1). Under [`Topology::Replicated`]
    /// each owns a full vault replica and node ids are hash-routed, so
    /// raising this scales enclave throughput without changing any
    /// answer; under [`Topology::Partitioned`] each owns one graph
    /// partition and answers exactly its owned nodes.
    pub shards: usize,
    /// Whether shards hold full replicas or graph partitions. Either
    /// way, every successful answer is bit-identical to sequential
    /// [`Vault::infer`].
    pub topology: Topology,
    /// Sealed form installed on the vault before shard fan-out
    /// ([`Vault::set_precision`]). Under [`Precision::Int8`] the
    /// projection weights are snapped onto their int8 grid once and
    /// every image the fan-out ships — replica or partition — is the
    /// smaller int8 form; shards restore the same grid weights, so
    /// they stay bit-identical to each other and to a reference int8
    /// [`Vault::infer`]. Compute is the f32 path at both settings.
    /// Later [`ServingEngine::deploy`] calls install their snapshot's
    /// own precision.
    pub precision: Precision,
    /// Per-request queue-time budget: a request that has already waited
    /// longer than this when its batch is flushed is answered
    /// [`ServeError::TimedOut`] instead of stale labels (and instead of
    /// stalling shutdown or deploy behind it). `Duration::ZERO`
    /// disables the check.
    pub request_timeout: Duration,
    /// Deterministic fault schedule for chaos testing (see
    /// [`faults`](crate::faults)); `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    /// Default policy, one shard, 4096 cached results, the submit-path
    /// fast cache off (`fast_cache_slots` = 0), no request timeout, no
    /// fault plan, and the sentinel in shadow mode with default
    /// thresholds.
    fn default() -> Self {
        Self {
            sentinel: SentinelConfig::default(),
            policy: BatchPolicy::default(),
            cache_capacity: 4096,
            fast_cache_slots: 0,
            shards: 1,
            topology: Topology::Replicated,
            precision: Precision::F32,
            request_timeout: Duration::ZERO,
            fault_plan: None,
        }
    }
}

/// Health of one worker shard, as tracked on the [`HealthBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Recovered from a failure (or resurrected by a deploy) but has
    /// not served a batch since; routed to normally.
    Degraded,
    /// Crashed and not yet restored (or its restore failed, until a
    /// deploy resurrects it): handles route new requests around it,
    /// and anything still queued at it is answered
    /// [`ServeError::ShardFailed`] until it comes back.
    Down,
}

impl ShardHealth {
    fn as_u8(self) -> u8 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Down => 2,
        }
    }

    fn from_u8(value: u8) -> Self {
        match value {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Degraded,
            _ => ShardHealth::Down,
        }
    }
}

/// Lock-free per-shard health states (one `AtomicU8` per shard), shared
/// by the engine, its workers, and every [`ServeHandle`].
///
/// Workers flip their own entry (`Down` on panic, `Degraded` after a
/// successful restore or deploy-resurrection, `Healthy` after the next
/// successfully served batch); handles read it on every multi-shard
/// submission to route around `Down` shards.
#[derive(Debug)]
pub struct HealthBoard {
    states: Vec<AtomicU8>,
}

impl HealthBoard {
    fn new(shards: usize) -> Self {
        Self {
            states: (0..shards.max(1))
                .map(|_| AtomicU8::new(ShardHealth::Healthy.as_u8()))
                .collect(),
        }
    }

    /// Number of shards tracked.
    pub fn num_shards(&self) -> usize {
        self.states.len()
    }

    /// Current health of `shard`.
    pub fn state(&self, shard: usize) -> ShardHealth {
        ShardHealth::from_u8(self.states[shard].load(Ordering::Acquire))
    }

    /// Snapshot of every shard's health, in shard order.
    pub fn states(&self) -> Vec<ShardHealth> {
        (0..self.states.len()).map(|s| self.state(s)).collect()
    }

    fn set(&self, shard: usize, health: ShardHealth) {
        self.states[shard].store(health.as_u8(), Ordering::Release);
    }
}

/// Handle-side telemetry the workers never see: shed submissions,
/// re-routed sub-requests, and submit-path fast-cache hits (with their
/// latency histogram), folded into [`ServeStats`] at shutdown.
#[derive(Debug, Default)]
struct FrontStats {
    shed: AtomicU64,
    rerouted: AtomicU64,
    fast_hits: AtomicU64,
    fast_latency: AtomicLatency,
}

/// Deterministic node-id → shard router.
///
/// In the replicated topology ([`Router::new`]) it applies the
/// SplitMix64 finalizer to the node id, so the mapping is a pure
/// function of `(node, shard count)`: every handle routes the same node
/// to the same shard, which keeps that shard's `(epoch, node)` result
/// cache effective and makes routing reproducible across runs. In the
/// partitioned topology ([`Router::partitioned`]) hashing is replaced
/// by the partition owner lookup — shard `i` is the *only* holder of
/// partition `i`'s private state, so `shard_of` is ownership, not load
/// spreading.
///
/// Either way the router needs no private data: block and hash
/// ownership are pure functions of the node id, never of the private
/// edges.
///
/// # Examples
///
/// ```
/// use graph::partition::PartitionSpec;
/// use serve::Router;
///
/// let router = Router::new(4);
/// assert_eq!(router.num_shards(), 4);
/// let shard = router.shard_of(17);
/// assert_eq!(shard, router.shard_of(17), "routing is deterministic");
/// assert!(shard < 4);
/// assert_eq!(Router::new(1).shard_of(17), 0);
///
/// // Partitioned: owner lookup replaces the hash.
/// let spec = PartitionSpec::block(100, 4).unwrap();
/// let router = Router::partitioned(spec);
/// assert!(router.is_partitioned());
/// assert_eq!(router.shard_of(0), 0, "block partitions are contiguous");
/// assert_eq!(router.shard_of(99), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Router {
    shards: usize,
    spec: Option<PartitionSpec>,
}

impl Router {
    /// A hash router over `shards` full-replica shards (clamped to
    /// ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            spec: None,
        }
    }

    /// An owner-lookup router for a partitioned deployment: shard `i`
    /// answers exactly the nodes `spec` assigns to partition `i`.
    pub fn partitioned(spec: PartitionSpec) -> Self {
        Self {
            shards: spec.num_parts(),
            spec: Some(spec),
        }
    }

    /// Number of shards this router spreads nodes across.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Whether this router maps nodes by partition ownership instead of
    /// by hash.
    pub fn is_partitioned(&self) -> bool {
        self.spec.is_some()
    }

    /// The partition layout behind an owner-lookup router (`None` for a
    /// hash router).
    pub fn partition_spec(&self) -> Option<PartitionSpec> {
        self.spec
    }

    /// The shard that owns `node`'s queries.
    pub fn shard_of(&self, node: usize) -> usize {
        if let Some(spec) = &self.spec {
            return spec.owner_of(node);
        }
        if self.shards == 1 {
            return 0;
        }
        let mut z = (node as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.shards as u64) as usize
    }
}

/// Per-shard serving statistics: the [`FlushReason`] balance, batch,
/// failure, and recovery counts, and hot-swap installs. One entry per
/// shard lands in
/// [`ServeStats::shards`], so operators can see deadline-vs-size flush
/// balance (and load skew) per worker instead of only in aggregate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index (also the routing target of
    /// [`Router::shard_of`]).
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
    /// [`ServingEngine::deploy`].
    pub rollbacks: u64,
    /// Requests this shard dropped for exceeding
    /// [`ServeConfig::request_timeout`].
    pub timed_out: u64,
    /// Model epochs hot-swapped in via [`ServingEngine::deploy`].
    pub deploys: u64,
    /// Queue depth (requests still pending) when the worker exited —
    /// non-zero only if the drain was cut short.
    pub queue_depth: usize,
    /// Deepest this shard's admission queue ever got, in requests —
    /// the operator's backlog-headroom gauge against
    /// `max_queue_requests` / `shed_high_water`.
    pub queue_high_water: usize,
    /// Submit-to-respond latency of every node query this shard
    /// answered successfully through the queued (enclave) path.
    pub latency: LatencyHistogram,
}

/// Aggregate serving statistics, returned by
/// [`ServingEngine::shutdown`].
///
/// Aggregates are summed across shards; [`ServeStats::shards`] holds
/// the per-shard breakdown. With more than one shard, a multi-node
/// client request is split into one sub-request per shard its nodes
/// hash to, and [`ServeStats::requests`] counts those *sub-requests* —
/// for single-node request streams the two notions coincide.
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
    /// Installs rolled back by all-or-nothing [`ServingEngine::deploy`]
    /// after another shard failed to install.
    pub deploy_rollbacks: u64,
    /// Requests dropped for exceeding
    /// [`ServeConfig::request_timeout`].
    pub timed_out_requests: u64,
    /// Submissions shed at the admission high-water mark
    /// ([`ServeError::Overloaded`]).
    pub requests_shed: u64,
    /// Sub-requests routed away from their home shard because it was
    /// [`ShardHealth::Down`] — the degraded-mode availability trade.
    pub rerouted_subrequests: u64,
    /// Node queries answered in place on the submit thread by the
    /// lock-free [`FastCache`] — zero queue, zero cross-thread traffic
    /// (not counted in [`ServeStats::requests`] or
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
    /// breakdown (filled at [`ServingEngine::shutdown`]; per-shard
    /// stats leave it empty — the sentinel fronts the whole engine).
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
    /// headline (per-node [`Vault::infer`] pays the full tap count for
    /// every single query).
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

    fn absorb_report(&mut self, report: &InferenceReport) {
        self.enclave_batches += 1;
        self.enclave_transitions += report.transitions;
        self.transferred_bytes += report.transferred_bytes as u64;
        self.backbone_ns += report.backbone_ns;
        self.transfer_ns += report.transfer_ns;
        self.rectifier_ns += report.rectifier_ns;
    }

    /// Folds one shard's run into the engine-wide aggregate.
    fn merge(&mut self, shard: ServeStats) {
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
        self.rerouted_subrequests += shard.rerouted_subrequests;
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

/// Cloneable client handle onto a running engine: the router plus one
/// admission queue per shard, consulting the [`HealthBoard`] to route
/// around [`ShardHealth::Down`] shards.
///
/// Node ids are validated at admission against the deployment's corpus
/// size, so a bad id is rejected immediately instead of failing the
/// batch it would have ridden in. With more than one shard, a
/// multi-node request is split into per-shard sub-requests; the
/// returned [`Ticket`] reassembles the labels into request order.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    queues: Vec<Arc<AdmissionQueue>>,
    router: Router,
    num_nodes: usize,
    health: Arc<HealthBoard>,
    front: Arc<FrontStats>,
    sentinel: Arc<Sentinel>,
    /// The engine-wide submit-path fast cache (`None` when
    /// [`ServeConfig::fast_cache_slots`] is 0).
    fast: Option<Arc<FastCache>>,
}

impl ServeHandle {
    /// Submits an *unattributed* multi-node inference request — booked
    /// under the shared [`ClientId::ANONYMOUS`] sentinel session. See
    /// [`submit_as`](Self::submit_as), which attributed deployments
    /// should prefer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit_as`](Self::submit_as).
    pub fn submit(&self, nodes: Vec<usize>) -> Result<Ticket, ServeError> {
        self.submit_as(ClientId::ANONYMOUS, nodes)
    }

    /// Submits a multi-node inference request on behalf of `client`;
    /// blocks nowhere. The returned labels (via [`Ticket::wait`]) are
    /// in request order.
    ///
    /// The submission first passes the engine's abuse sentinel — which
    /// updates `client`'s detector state on this thread, *before*
    /// routing, so sentinel statistics for a fixed trace are identical
    /// at any shard count — and the client identity is stamped into
    /// every per-shard sub-request
    /// ([`PendingRequest::client`](crate::PendingRequest::client)), so
    /// each one stays attributable wherever it lands.
    ///
    /// With [`ServeConfig::fast_cache_slots`] > 0, a request whose
    /// nodes *all* hit the lock-free [`FastCache`] under the current
    /// install tag resolves right here on the submit thread — no
    /// queue, no worker wakeup, no enclave — and its ticket is already
    /// ready. Any miss sends the whole request down the queued path.
    /// The sentinel has already accounted the submission either way.
    ///
    /// Under [`Topology::Replicated`], nodes whose home shard is
    /// [`ShardHealth::Down`] are routed to the next live shard (every
    /// replica serves the same model, so the answer is unchanged — only
    /// that shard's cache affinity is lost). Under
    /// [`Topology::Partitioned`] no other shard holds the home's
    /// partition, so its nodes are *never* re-routed: while the owner
    /// is down they resolve to the typed [`ServeError::ShardFailed`]
    /// instead of a silently wrong shard, and are answerable again once
    /// recovery or a [`ServingEngine::deploy`] brings the owner back.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] on empty/out-of-range node lists or a
    /// full shard queue; [`ServeError::Overloaded`] when the shard is
    /// shedding load; [`ServeError::RateLimited`] /
    /// [`ServeError::Quarantined`] when the sentinel (in
    /// [`SentinelMode::Enforce`](crate::SentinelMode)) rejects the
    /// session's traffic; [`ServeError::Closed`] after shutdown began.
    /// When a multi-shard submission fails part-way, already-admitted
    /// sub-requests are still answered by their shards, but into a
    /// dropped ticket — the request as a whole fails.
    pub fn submit_as(&self, client: ClientId, nodes: Vec<usize>) -> Result<Ticket, ServeError> {
        if nodes.is_empty() {
            return Err(ServeError::Rejected {
                reason: "request contains no query nodes".into(),
            });
        }
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.num_nodes) {
            return Err(ServeError::Rejected {
                reason: format!("query node {bad} out of range for {} nodes", self.num_nodes),
            });
        }
        self.sentinel.admit(client, &nodes)?;
        // Fast path: probe the lock-free cache on this thread, strictly
        // *after* sentinel accounting (a replayed hot node still climbs
        // the abuse ladder) and *before* any queue admission.
        // All-or-nothing: the request resolves here only if every node
        // hits under the current install tag; otherwise the whole
        // request takes the queued path unchanged, so per-shard request
        // semantics never depend on partial fast hits.
        if let Some(fast) = &self.fast {
            let started = Instant::now();
            let tag = fast.current_tag();
            let mut labels = Vec::with_capacity(nodes.len());
            for &node in &nodes {
                match fast.probe(tag, node) {
                    Some(label) => labels.push(label),
                    None => {
                        labels.clear();
                        break;
                    }
                }
            }
            if labels.len() == nodes.len() {
                self.front
                    .fast_hits
                    .fetch_add(nodes.len() as u64, Ordering::Relaxed);
                self.front.fast_latency.record(started.elapsed());
                return Ok(Ticket::ready(labels));
            }
        }
        if self.router.num_shards() == 1 {
            return self.track_shed(self.queues[0].submit_as(client, nodes));
        }
        let total = nodes.len();
        let mut per_shard: Vec<(Vec<usize>, Vec<usize>, bool)> =
            vec![(Vec::new(), Vec::new(), false); self.router.num_shards()];
        for (position, &node) in nodes.iter().enumerate() {
            let home = self.router.shard_of(node);
            // A partition's nodes have exactly one holder: routing a
            // query away from a Down owner could only misroute it, so
            // partitioned mode keeps it home and lets the worker answer
            // the typed `ShardFailed` instead.
            let target = if self.router.is_partitioned() {
                home
            } else {
                self.route_around_down(home)
            };
            let (shard_nodes, positions, rerouted) = &mut per_shard[target];
            shard_nodes.push(node);
            positions.push(position);
            *rerouted |= target != home;
        }
        let mut parts = Vec::new();
        for (shard, (shard_nodes, positions, rerouted)) in per_shard.into_iter().enumerate() {
            if shard_nodes.is_empty() {
                continue;
            }
            let ticket = self.track_shed(self.queues[shard].submit_as(client, shard_nodes))?;
            if rerouted {
                self.front.rerouted.fetch_add(1, Ordering::Relaxed);
            }
            parts.push((ticket, positions));
        }
        Ok(Ticket::from_routed_parts(parts, total))
    }

    /// Submits a single-node request (routed to the node's shard),
    /// unattributed.
    ///
    /// # Errors
    ///
    /// Same as [`ServeHandle::submit`].
    pub fn submit_one(&self, node: usize) -> Result<Ticket, ServeError> {
        self.submit(vec![node])
    }

    /// Submits a single-node request on behalf of `client`.
    ///
    /// # Errors
    ///
    /// Same as [`ServeHandle::submit_as`].
    pub fn submit_one_as(&self, client: ClientId, node: usize) -> Result<Ticket, ServeError> {
        self.submit_as(client, vec![node])
    }

    /// Live snapshot of the engine's sentinel counters (also available
    /// from [`ServingEngine::sentinel_stats`] and, at shutdown, in
    /// [`ServeStats::sentinel`]).
    pub fn sentinel_stats(&self) -> SentinelStats {
        self.sentinel.stats()
    }

    /// Number of nodes in the served deployment (valid ids are
    /// `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node-id router this handle submits through.
    pub fn router(&self) -> Router {
        self.router
    }

    /// The engine's live per-shard health board.
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Picks the serving shard for a sub-request whose home is `home`:
    /// the home itself unless it is `Down`, otherwise the next live
    /// shard (wrapping). With every shard down the home keeps the
    /// request — its worker answers a typed [`ServeError::ShardFailed`]
    /// rather than letting anything hang.
    fn route_around_down(&self, home: usize) -> usize {
        if self.health.state(home) != ShardHealth::Down {
            return home;
        }
        let shards = self.router.num_shards();
        for offset in 1..shards {
            let candidate = (home + offset) % shards;
            if self.health.state(candidate) != ShardHealth::Down {
                return candidate;
            }
        }
        home
    }

    /// Counts [`ServeError::Overloaded`] admissions for the shutdown
    /// stats while passing the result through.
    fn track_shed(&self, result: Result<Ticket, ServeError>) -> Result<Ticket, ServeError> {
        if matches!(result, Err(ServeError::Overloaded { .. })) {
            self.front.shed.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

/// Control messages the engine sends to a shard worker between batches.
enum ShardControl {
    /// Install a new model epoch from a sealed snapshot. `tag` is the
    /// fast-cache install generation minted for this deploy: the shard
    /// publishes under it from the moment the install succeeds, and
    /// the engine makes it current only once *every* shard has acked.
    Deploy {
        source: RecoveryHandle,
        tag: u64,
        ack: Sender<Result<u64, ServeError>>,
    },
    /// Reinstall the epoch retained before the last install — the
    /// all-or-nothing deploy's compensation step.
    Rollback {
        ack: Sender<Result<u64, ServeError>>,
    },
}

/// One worker shard: its queue, its control channel, and the worker
/// thread owning its vault replica.
struct Shard {
    queue: Arc<AdmissionQueue>,
    control: Sender<ShardControl>,
    worker: Option<std::thread::JoinHandle<(Option<Vault>, ServeStats)>>,
}

/// The set of worker shards behind a running engine.
struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Closes every shard queue (idempotent).
    fn close(&self) {
        for shard in &self.shards {
            shard.queue.close();
        }
    }
}

/// A running sharded vault-serving engine: a [`Router`] over per-shard
/// admission queues, caches, and supervised enclave workers.
///
/// See the crate-level example for the serving quickstart. End a run
/// with [`shutdown`](Self::shutdown) to get a surviving vault and the
/// aggregated stats back; merely dropping the engine (e.g. on an early
/// return) closes every queue so the workers drain, answer what they
/// can, and exit — but the vaults they own are then dropped with them.
#[derive(Debug)]
pub struct ServingEngine {
    set: ShardSet,
    router: Router,
    num_nodes: usize,
    health: Arc<HealthBoard>,
    front: Arc<FrontStats>,
    sentinel: Arc<Sentinel>,
    /// The engine-wide submit-path fast cache shared with every handle
    /// and worker (`None` when disabled).
    fast: Option<Arc<FastCache>>,
    /// Partitioned topology only: the full (unpartitioned) vault the
    /// engine started from — or, after a successful deploy, the full
    /// vault it last installed — parked so [`shutdown`] can return a
    /// vault that answers every node, not a single partition.
    ///
    /// [`shutdown`]: ServingEngine::shutdown
    parked: Mutex<Option<Vault>>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Drop for ServingEngine {
    /// Closes every queue so an abandoned engine's workers unblock,
    /// drain, and exit instead of parking forever on their condvars.
    fn drop(&mut self) {
        self.set.close();
    }
}

impl ServingEngine {
    /// Deploys `vault` behind a sharded serving runtime over the corpus
    /// `features` (one row per node, the same matrix the vault's
    /// backbone was meant to serve).
    ///
    /// Under [`Topology::Replicated`], shard 0 takes ownership of
    /// `vault`; shards `1..N` each own a replica restored from the one
    /// [`RecoveryHandle`] ([`Vault::recovery_handle`] — one encode/seal
    /// pass however many shards) that every shard also retains as the
    /// supervisor's restore source, sharing the vault's epoch. Under
    /// [`Topology::Partitioned`], the private graph is block-partitioned
    /// across the shards instead
    /// ([`Vault::partition_recovery_handles`] — one encode/seal pass per
    /// partition): shard `i` is restored from, and retains, partition
    /// `i`'s snapshot — its owned nodes, their L-hop halo, and nothing
    /// else — while the full vault is parked engine-side (it is what
    /// [`shutdown`](Self::shutdown) returns).
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when `features` has a different row
    /// count than the vault's deployed graph (the corpus and the graph
    /// must describe the same nodes — catching the mismatch here keeps
    /// admission validation aligned with what [`Vault::infer_batch`]
    /// will accept) or when `vault` is itself a partition replica (an
    /// engine always starts from the full deployment),
    /// [`ServeError::Vault`] when a replica or partition cannot be
    /// spawned, and [`ServeError::StartFailed`] when a worker thread
    /// cannot be spawned. Start failures leave nothing running: any
    /// worker spawned before the failure drains and exits.
    pub fn start(
        vault: Vault,
        features: DenseMatrix,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if features.rows() != vault.num_nodes() {
            return Err(ServeError::Rejected {
                reason: format!(
                    "serving corpus has {} feature rows for {} deployed graph nodes",
                    features.rows(),
                    vault.num_nodes()
                ),
            });
        }
        if let Some((part, parts)) = vault.partition_info() {
            return Err(ServeError::Rejected {
                reason: format!(
                    "vault is partition replica {part}/{parts}; start the engine from the full vault"
                ),
            });
        }
        // Install the configured precision on the full vault before any
        // fan-out: replicas restore from its snapshot and partitions are
        // carved from it, so every shard inherits the exact same grid
        // weights (or stays f32).
        let mut vault = vault;
        vault
            .set_precision(config.precision)
            .map_err(ServeError::Vault)?;
        let shard_count = config.shards.max(1);
        let num_nodes = vault.num_nodes();
        let features = Arc::new(features);
        let health = Arc::new(HealthBoard::new(shard_count));
        let front = Arc::new(FrontStats::default());
        // The sentinel scores pair probes against the backbone's public
        // substitute graph — the structure a benign client could learn
        // from public data anyway.
        let substitute = vault.backbone().substitute_graph().cloned().map(Arc::new);
        let sentinel = Arc::new(Sentinel::new(config.sentinel, num_nodes, substitute));
        // The submit-path fast cache: one lock-free table shared by
        // every handle and worker. Minting and publishing the first
        // install generation here means entries are probeable from the
        // first completed batch on.
        let fast = if config.fast_cache_slots > 0 {
            let fast = Arc::new(FastCache::new(config.fast_cache_slots));
            let tag = fast.mint_tag();
            fast.set_current(tag);
            Some(fast)
        } else {
            None
        };
        let initial_tag = fast.as_ref().map_or(0, |fast| fast.current_tag());

        let (router, parked, vaults, retained) = match config.topology {
            Topology::Replicated => {
                // One sealed snapshot of the starting model is every
                // shard's retained recovery source until a deploy
                // replaces it. Shard 0 serves the original; 1..N serve
                // replicas restored from that same handle (one
                // encode/seal pass, N-1 restores).
                let handle = vault.recovery_handle();
                let mut vaults = vec![vault];
                for _ in 1..shard_count {
                    vaults.push(handle.restore().map_err(ServeError::Vault)?);
                }
                let retained = vec![handle; shard_count];
                (Router::new(shard_count), None, vaults, retained)
            }
            Topology::Partitioned => {
                // Shard i serves partition i of a contiguous-block
                // layout, restored from the very per-partition snapshot
                // it retains as its recovery source (each strictly
                // smaller than a full-replica snapshot; one encode/seal
                // pass per partition). The full vault is parked for
                // shutdown.
                let spec = PartitionSpec::block(num_nodes, shard_count)
                    .map_err(|e| ServeError::Vault(e.into()))?;
                let retained = vault
                    .partition_recovery_handles(&spec)
                    .map_err(ServeError::Vault)?;
                let vaults = retained
                    .iter()
                    .map(RecoveryHandle::restore)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(ServeError::Vault)?;
                (Router::partitioned(spec), Some(vault), vaults, retained)
            }
        };

        let mut shards: Vec<Shard> = Vec::with_capacity(shard_count);
        for (index, (vault, worker_retained)) in vaults.into_iter().zip(retained).enumerate() {
            let queue = Arc::new(AdmissionQueue::for_shard(config.policy, index));
            let (control, control_rx) = channel();
            let worker_queue = Arc::clone(&queue);
            let worker_features = Arc::clone(&features);
            let worker_health = Arc::clone(&health);
            let worker_fast = fast.clone();
            let worker_faults = config
                .fault_plan
                .as_ref()
                .map(|plan| plan.shard_faults(index))
                .unwrap_or_default();
            let spawned = std::thread::Builder::new()
                .name(format!("vault-serve-shard-{index}"))
                .spawn(move || {
                    ShardWorker::new(
                        index,
                        vault,
                        worker_features,
                        config.cache_capacity,
                        config.request_timeout,
                        worker_health,
                        worker_retained,
                        worker_fast,
                        initial_tag,
                        worker_faults,
                    )
                    .run(&worker_queue, &control_rx)
                });
            match spawned {
                Ok(worker) => shards.push(Shard {
                    queue,
                    control,
                    worker: Some(worker),
                }),
                Err(e) => {
                    // Unwind cleanly: close the queues so the already
                    // spawned workers drain and exit on their own.
                    for shard in &shards {
                        shard.queue.close();
                    }
                    return Err(ServeError::StartFailed {
                        reason: format!("spawn worker thread for shard {index}: {e}"),
                    });
                }
            }
        }
        Ok(Self {
            set: ShardSet { shards },
            router,
            num_nodes,
            health,
            front,
            sentinel,
            fast,
            parked: Mutex::new(parked),
        })
    }

    /// A cloneable submission handle. Hand one to every client thread.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            queues: self
                .set
                .shards
                .iter()
                .map(|shard| Arc::clone(&shard.queue))
                .collect(),
            router: self.router,
            num_nodes: self.num_nodes,
            health: Arc::clone(&self.health),
            front: Arc::clone(&self.front),
            sentinel: Arc::clone(&self.sentinel),
            fast: self.fast.clone(),
        }
    }

    /// Live snapshot of the abuse sentinel's counters and per-session
    /// breakdown.
    pub fn sentinel_stats(&self) -> SentinelStats {
        self.sentinel.stats()
    }

    /// Clears every sentinel session's detector state, strikes,
    /// verdicts, and token buckets — the operator's amnesty lever (also
    /// pulled automatically by a successful [`deploy`](Self::deploy)
    /// when [`SentinelConfig::reset_on_deploy`] is set). Aggregate
    /// counters are monotonic and survive.
    pub fn reset_sentinel(&self) {
        self.sentinel.reset();
    }

    /// Number of shards serving this deployment.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// The live per-shard health board (shared with every handle).
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Number of queued (not yet batched) sub-requests right now,
    /// summed over shards.
    pub fn queued_requests(&self) -> usize {
        self.set.shards.iter().map(|shard| shard.queue.len()).sum()
    }

    /// Installs a new model epoch across all shards with zero downtime
    /// and returns the new epoch. All-or-nothing: when any shard fails
    /// its one install, every shard that *did* install is rolled back
    /// to the previously retained epoch and the first error is
    /// returned — the engine never serves two models at once past the
    /// call.
    ///
    /// `snapshot` is a sealed [`VaultSnapshot`] (from
    /// [`Vault::snapshot`] on the retrained vault) and `seal_key` the
    /// deployment key it was sealed under. Admission never pauses:
    /// each shard finishes its in-flight batch on the old epoch,
    /// restores the replica between batches (once — a restore is a
    /// pure function of its inputs, so nothing retries it), and
    /// answers every later batch from the new epoch. Each shard drops
    /// its result cache at install — epoch keying alone could not rule
    /// out an epoch-number collision with a snapshot minted in another
    /// process — so no stale answer can survive the swap. A
    /// [`ShardHealth::Down`] shard that installs successfully is
    /// *resurrected* by the deploy. When `deploy` returns `Ok`, every
    /// shard has installed the new epoch, so all responses to requests
    /// submitted afterwards come from the new model.
    ///
    /// The corpus is unchanged — the snapshot must describe the same
    /// node set the engine was started with. It must be a *full-vault*
    /// snapshot in either topology: a partitioned engine restores it
    /// engine-side, re-partitions the new model's private graph with
    /// the layout it was started with, and installs each shard's own
    /// per-partition snapshot (which also becomes that shard's retained
    /// recovery source); the restored full vault replaces the parked
    /// one once every shard has installed.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the snapshot's node count differs
    /// from the served corpus or the snapshot is itself a partition
    /// snapshot, [`ServeError::Vault`] when a shard (or, partitioned,
    /// the engine-side restore) fails to restore it (wrong key, corrupt
    /// payload — the old model keeps serving everywhere after
    /// rollback), [`ServeError::ShardFailed`] when a shard's ack
    /// channel died, and [`ServeError::Closed`] when the engine is
    /// shutting down.
    pub fn deploy(&self, snapshot: &VaultSnapshot, seal_key: SealKey) -> Result<u64, ServeError> {
        if snapshot.num_nodes() != self.num_nodes {
            return Err(ServeError::Rejected {
                reason: format!(
                    "snapshot describes {} nodes, engine serves {}",
                    snapshot.num_nodes(),
                    self.num_nodes
                ),
            });
        }
        if let Some(p) = snapshot.partition() {
            return Err(ServeError::Rejected {
                reason: format!(
                    "snapshot holds partition {}/{}; deploy takes a full-vault snapshot",
                    p.part(),
                    p.parts()
                ),
            });
        }
        // Partitioned topology: restore the new model engine-side and
        // cut its private graph with the engine's own layout, failing
        // fast (before any shard is touched) on a bad snapshot or key.
        let (per_shard, full) = match self.router.partition_spec() {
            None => {
                // One shared allocation, deliberately: every replica
                // installs the same full snapshot.
                let shared = Arc::new(snapshot.clone());
                (vec![shared; self.set.shards.len()], None)
            }
            Some(spec) => {
                let full = Vault::restore(snapshot, seal_key).map_err(ServeError::Vault)?;
                let parts = full.partition_snapshots(&spec).map_err(ServeError::Vault)?;
                (parts.into_iter().map(Arc::new).collect(), Some(full))
            }
        };
        // One fast-cache install generation for the whole deploy:
        // shards publish new-model labels under it from the moment they
        // install, but probes keep matching the old generation until
        // *every* shard has acked — so no handle can fast-hit a
        // new-model entry while any shard still serves the old one, and
        // a failed (rolled back) deploy leaves its never-current tag
        // permanently unmatchable. Tags are minted monotonically and
        // never reused, so no flush pass is ever needed.
        let tag = self.fast.as_ref().map_or(0, |fast| fast.mint_tag());
        let mut acks = Vec::with_capacity(self.set.shards.len());
        for (index, shard) in self.set.shards.iter().enumerate() {
            let (ack, ack_rx) = channel();
            shard
                .control
                .send(ShardControl::Deploy {
                    source: RecoveryHandle::from_shared(Arc::clone(&per_shard[index]), seal_key),
                    tag,
                    ack,
                })
                .map_err(|_| ServeError::Closed)?;
            // Wake the worker if it is idling in a queue poll.
            shard.queue.notify();
            acks.push((index, ack_rx));
        }
        // Collect *every* ack before deciding: an early return on the
        // first failure would leave later shards' installs unobserved —
        // and possibly installed, splitting the engine across epochs.
        let results: Vec<(usize, Result<u64, ServeError>)> = acks
            .into_iter()
            .map(|(index, ack)| {
                let result = ack
                    .recv()
                    .unwrap_or(Err(ServeError::ShardFailed { shard: index }));
                (index, result)
            })
            .collect();
        let first_error = results
            .iter()
            .find_map(|(_, result)| result.as_ref().err().cloned());
        let Some(error) = first_error else {
            let epoch = results
                .first()
                .and_then(|(_, result)| result.as_ref().ok().copied())
                .expect("engine has at least one shard");
            // Every shard installed: flip fast-cache probes to the new
            // generation *before* returning, so a request submitted
            // after deploy() returns can only fast-hit new-model
            // entries. Old-generation entries become unmatchable in the
            // same store — no stale label survives the swap.
            if let Some(fast) = &self.fast {
                fast.set_current(tag);
            }
            // Deploy-time amnesty: a new epoch starts every session at
            // the bottom of the ladder. Failed (rolled back) deploys
            // deliberately grant nothing.
            if self.sentinel.config().reset_on_deploy {
                self.sentinel.reset();
            }
            // Partitioned: the new full vault supersedes the parked
            // one, so shutdown returns the model actually serving.
            if let Some(full) = full {
                *self
                    .parked
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(full);
            }
            return Ok(epoch);
        };
        // All-or-nothing: compensate the shards that did install.
        let mut rollback_acks = Vec::new();
        for (index, result) in &results {
            if result.is_err() {
                continue;
            }
            let (ack, ack_rx) = channel();
            let shard = &self.set.shards[*index];
            if shard.control.send(ShardControl::Rollback { ack }).is_ok() {
                shard.queue.notify();
                rollback_acks.push(ack_rx);
            }
        }
        for ack in rollback_acks {
            // Rollback reinstalls a snapshot that already restored once
            // on this shard; await it so the engine is single-epoch
            // again before the error surfaces.
            let _ = ack.recv();
        }
        Err(error)
    }

    /// Stops admission, drains and answers every already-admitted
    /// request on all shards, and joins the workers; returns a
    /// surviving vault and the run's aggregate statistics. Replicated,
    /// the vault is the lowest-numbered live shard's (`None` only if
    /// every shard died permanently); partitioned, it is the parked
    /// *full* vault of the serving epoch — the shards' partial vaults
    /// each answer only one partition and are dropped with their
    /// workers.
    pub fn shutdown(mut self) -> (Option<Vault>, ServeStats) {
        let parked = self
            .parked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        self.set.close();
        let mut merged = ServeStats::default();
        let mut first_vault = None;
        for shard in &mut self.set.shards {
            let Some(worker) = shard.worker.take() else {
                continue;
            };
            match worker.join() {
                Ok((vault, stats)) => {
                    if first_vault.is_none() {
                        first_vault = vault;
                    }
                    merged.merge(stats);
                }
                // A panic that escaped supervision (e.g. during drain
                // bookkeeping) loses that shard's stats but must not
                // poison shutdown for the others.
                Err(_) => merged.panics_caught += 1,
            }
        }
        merged.requests_shed += self.front.shed.load(Ordering::Relaxed);
        merged.rerouted_subrequests += self.front.rerouted.load(Ordering::Relaxed);
        merged.fast_path_hits += self.front.fast_hits.load(Ordering::Relaxed);
        merged
            .fast_path_latency
            .merge(&self.front.fast_latency.snapshot());
        merged.sentinel = self.sentinel.stats();
        (parked.or(first_vault), merged)
    }
}

/// The state owned by one shard's worker thread: the vault replica (or
/// `None` while down), its enclave session, the epoch-keyed result
/// cache, the retained recovery snapshot, and shard-local statistics.
struct ShardWorker {
    shard: usize,
    vault: Option<Vault>,
    features: Arc<DenseMatrix>,
    /// The long-lived ingress channel every batch of the current
    /// replica goes through; reopened at every restore.
    session: tee::EnclaveSession,
    cache: LruCache<(u64, usize), ClassLabel>,
    epoch: u64,
    /// The snapshot this shard restores from after a crash — replaced
    /// on every successful install.
    retained: RecoveryHandle,
    /// The epoch retained before the last install — the rollback
    /// target of an all-or-nothing deploy.
    previous: Option<RecoveryHandle>,
    /// Per-shard flushed-batch ordinal (1-based), the time axis of a
    /// [`FaultPlan`]'s batch faults.
    batch_seq: u64,
    /// Per-shard restore ordinal (1-based) over installs, rollbacks and
    /// restarts, the time axis of [`Fault::FailRestore`].
    ///
    /// [`Fault::FailRestore`]: crate::Fault::FailRestore
    restore_seq: u64,
    deploys: u64,
    /// The engine-wide submit-path fast cache this worker publishes
    /// completed labels into (`None` when disabled).
    fast: Option<Arc<FastCache>>,
    /// The fast-cache install generation this worker's current model
    /// publishes under. Captured at install: a worker that hasn't
    /// installed a racing deploy yet keeps publishing under its old
    /// (still correct for its model) tag.
    tag: u64,
    /// The tag before the last install — reverted to on rollback, just
    /// like the retained snapshot.
    previous_tag: u64,
    request_timeout: Duration,
    health: Arc<HealthBoard>,
    faults: ShardFaults,
    stats: ServeStats,
}

impl ShardWorker {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shard: usize,
        mut vault: Vault,
        features: Arc<DenseMatrix>,
        cache_capacity: usize,
        request_timeout: Duration,
        health: Arc<HealthBoard>,
        retained: RecoveryHandle,
        fast: Option<Arc<FastCache>>,
        initial_tag: u64,
        faults: ShardFaults,
    ) -> Self {
        Self {
            shard,
            session: vault.open_session(),
            epoch: vault.epoch(),
            vault: Some(vault),
            features,
            cache: LruCache::new(cache_capacity),
            retained,
            previous: None,
            batch_seq: 0,
            restore_seq: 0,
            deploys: 0,
            fast,
            tag: initial_tag,
            previous_tag: initial_tag,
            request_timeout,
            health,
            faults,
            stats: ServeStats::default(),
        }
    }

    /// The shard's one restore: unseals `source` into a fresh replica
    /// and swaps it in — a fresh enclave session, a cleared result
    /// cache, the replica's epoch — resurrecting a `Down` shard as
    /// `Degraded`. Install, rollback and supervised restart each call
    /// it exactly once: a restore is a pure function of (sealed bytes,
    /// key), so a retry could only repeat its answer. On failure the
    /// current replica (or its absence) is left untouched. Every call
    /// advances the ordinal [`Fault::FailRestore`] is addressed by.
    ///
    /// [`Fault::FailRestore`]: crate::Fault::FailRestore
    fn restore(&mut self, source: &RecoveryHandle) -> Result<(), ServeError> {
        self.restore_seq += 1;
        if self.faults.should_fail_restore(self.restore_seq) {
            return Err(ServeError::Vault(gnnvault::VaultError::Snapshot {
                reason: format!(
                    "injected fault: FailRestore {{ shard: {}, restore_n: {} }}",
                    self.shard, self.restore_seq
                ),
            }));
        }
        let mut vault = source.restore().map_err(ServeError::Vault)?;
        self.session = vault.open_session();
        // Epoch numbers are only unique within the process that minted
        // them; a snapshot shipped in from another worker could carry
        // an epoch this cache already holds entries for — under a
        // different model. Dropping the cache outright (instead of
        // trusting the epoch key) makes the no-stale-answer guarantee
        // unconditional; post-swap entries for the old epoch were dead
        // weight anyway.
        self.cache.clear();
        self.epoch = vault.epoch();
        if self.vault.replace(vault).is_none() {
            self.health.set(self.shard, ShardHealth::Degraded);
        }
        Ok(())
    }

    /// The shard main loop: service control between batches, process
    /// batches until the queue is closed and drained, then return the
    /// vault (if the shard is alive) and this shard's statistics (with
    /// its [`ShardStats`] entry filled in).
    fn run(
        mut self,
        queue: &AdmissionQueue,
        control: &Receiver<ShardControl>,
    ) -> (Option<Vault>, ServeStats) {
        loop {
            // Hot-swap deploys and rollbacks install strictly *between*
            // batches: whatever was in flight drained on the old epoch.
            while let Ok(message) = control.try_recv() {
                self.control(message);
            }
            match queue.poll_batch(CONTROL_POLL) {
                BatchPoll::Batch(batch, reason) => self.handle_batch(batch, reason),
                BatchPoll::Idle => continue,
                BatchPoll::Drained => break,
            }
        }
        // Late control messages that arrived after the drain finished
        // cannot be honoured; fail them instead of leaving the caller
        // hanging.
        while let Ok(message) = control.try_recv() {
            match message {
                ShardControl::Deploy { ack, .. } | ShardControl::Rollback { ack } => {
                    let _ = ack.send(Err(ServeError::Closed));
                }
            }
        }
        let shard_stats = ShardStats {
            shard: self.shard,
            queue_depth: queue.len(),
            queue_high_water: queue.high_water(),
            latency: self.stats.queued_latency.clone(),
            requests: self.stats.requests,
            answered_nodes: self.stats.answered_nodes,
            batches: self.stats.batches,
            enclave_batches: self.stats.enclave_batches,
            full_flushes: self.stats.full_flushes,
            deadline_flushes: self.stats.deadline_flushes,
            drain_flushes: self.stats.drain_flushes,
            failed_batches: self.stats.failed_batches,
            panics_caught: self.stats.panics_caught,
            restarts: self.stats.shard_restarts,
            rollbacks: self.stats.deploy_rollbacks,
            timed_out: self.stats.timed_out_requests,
            deploys: self.deploys,
        };
        self.stats.shards = vec![shard_stats];
        (self.vault.take(), self.stats)
    }

    /// Services one control message, acking the outcome.
    fn control(&mut self, message: ShardControl) {
        match message {
            ShardControl::Deploy { source, tag, ack } => {
                let _ = ack.send(self.install(source, tag));
            }
            ShardControl::Rollback { ack } => {
                let _ = ack.send(self.rollback());
            }
        }
    }

    /// Installs the epoch `source` seals, retaining it for crash
    /// recovery and keeping the previous handle as the rollback target.
    /// On failure the old replica keeps serving untouched. Installing
    /// into a down shard resurrects it.
    fn install(&mut self, source: RecoveryHandle, tag: u64) -> Result<u64, ServeError> {
        // The last deploy's rollback target is stale once a new one
        // begins; free it before restoring the new replica.
        self.previous = None;
        self.restore(&source)?;
        self.previous = Some(std::mem::replace(&mut self.retained, source));
        // Publish new-model labels under the deploy's fast-cache
        // generation from here on; they stay unprobeable until the
        // engine flips the current tag after every shard acks.
        self.previous_tag = std::mem::replace(&mut self.tag, tag);
        self.deploys += 1;
        Ok(self.epoch)
    }

    /// Reinstalls the epoch retained before the last install — the
    /// compensation step of an all-or-nothing deploy. Consumes the
    /// rollback target: a deploy that never installed here has nothing
    /// to roll back (acked as an error, which the engine ignores).
    fn rollback(&mut self) -> Result<u64, ServeError> {
        let previous = self.previous.clone().ok_or_else(|| ServeError::Rejected {
            reason: format!("shard {} has no previous epoch to roll back to", self.shard),
        })?;
        self.restore(&previous)?;
        self.previous = None;
        self.retained = previous;
        // Publish under the pre-install generation again; the failed
        // deploy's tag never becomes current, so any entries published
        // under it are unreachable forever.
        self.tag = self.previous_tag;
        self.stats.deploy_rollbacks += 1;
        Ok(self.epoch)
    }

    /// Executes one flushed batch under supervision: shed stale
    /// requests, run the computation inside `catch_unwind`, respond to
    /// every request with labels or a typed error, and recover the
    /// shard if the computation panicked.
    fn handle_batch(&mut self, mut batch: Vec<PendingRequest>, reason: FlushReason) {
        self.batch_seq += 1;
        self.stats.batches += 1;
        match reason {
            FlushReason::Full => self.stats.full_flushes += 1,
            FlushReason::Deadline => self.stats.deadline_flushes += 1,
            FlushReason::Drain => self.stats.drain_flushes += 1,
        }

        // A down shard answers typed failures immediately — queued
        // requests drain fast instead of hanging behind a dead vault.
        if self.vault.is_none() {
            for request in batch {
                self.stats.requests += 1;
                request.respond(Err(ServeError::ShardFailed { shard: self.shard }));
            }
            return;
        }

        // Per-request timeout: a request that already overstayed its
        // budget is dropped *before* spending enclave work on it.
        if self.request_timeout > Duration::ZERO {
            let timeout = self.request_timeout;
            let mut live = Vec::with_capacity(batch.len());
            for request in batch {
                let waited = request.waited();
                if waited > timeout {
                    self.stats.requests += 1;
                    self.stats.timed_out_requests += 1;
                    request.respond(Err(ServeError::TimedOut { waited }));
                } else {
                    live.push(request);
                }
            }
            batch = live;
            if batch.is_empty() {
                return;
            }
        }

        // Injected stall: simulates slow enclave compute (after
        // admission filtering, like the real thing).
        if let Some(delay) = self.faults.slow_delay(self.batch_seq) {
            std::thread::sleep(delay);
        }
        let inject_panic = self.faults.should_panic(self.batch_seq);

        // Supervision boundary: the computation may panic (a vault bug,
        // or an injected fault); responding happens outside it, so the
        // batch's requests are never lost with the unwound stack.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected fault: PanicAt {{ shard: {}, batch_n: {} }}",
                    self.shard, self.batch_seq
                );
            }
            self.compute(&batch)
        }));
        match outcome {
            Ok(results) => {
                debug_assert_eq!(results.len(), batch.len());
                // A completed batch proves a recovered shard out —
                // flipped before responding, so a client holding this
                // batch's answer sees the shard healthy.
                if self.health.state(self.shard) == ShardHealth::Degraded {
                    self.health.set(self.shard, ShardHealth::Healthy);
                }
                let mut responses: Vec<(PendingRequest, Result<Vec<ClassLabel>, ServeError>)> =
                    batch.into_iter().zip(results).collect();
                // Injected answer drop: the work was done, but the
                // first response is lost — its client's ticket resolves
                // through the disconnect path.
                if self.faults.should_drop(self.batch_seq) && !responses.is_empty() {
                    let (request, _lost) = responses.remove(0);
                    self.stats.requests += 1;
                    drop(request);
                }
                for (request, result) in responses {
                    self.stats.requests += 1;
                    if let Ok(labels) = &result {
                        self.stats.answered_nodes += labels.len() as u64;
                        // Queued-path tail latency: submit to respond,
                        // recorded per successfully answered request.
                        self.stats.queued_latency.record(request.waited());
                    }
                    request.respond(result);
                }
            }
            Err(_) => {
                // The replica's invariants may be torn mid-batch: mark
                // the shard down and discard the replica *before*
                // answering the batch with a typed failure, so a client
                // holding the failure sees the shard down.
                self.health.set(self.shard, ShardHealth::Down);
                self.vault = None;
                self.stats.panics_caught += 1;
                self.stats.failed_batches += 1;
                for request in batch {
                    self.stats.requests += 1;
                    request.respond(Err(ServeError::ShardFailed { shard: self.shard }));
                }
                // Supervised restart: one restore from the retained
                // snapshot, no sleep. If it fails the shard stays down
                // (routed around; queued requests answer `ShardFailed`)
                // until a deploy resurrects it.
                let retained = self.retained.clone();
                if self.restore(&retained).is_ok() {
                    self.stats.shard_restarts += 1;
                }
            }
        }
    }

    /// Computes one batch's per-request results: resolve cached nodes,
    /// run the unique remainder through the shard's enclave session.
    /// Pure compute — responding is the caller's job, so a
    /// panic in here can never strand the batch's tickets.
    fn compute(&mut self, batch: &[PendingRequest]) -> Vec<Result<Vec<ClassLabel>, ServeError>> {
        let vault = self.vault.as_mut().expect("compute requires a live vault");
        // Resolve what the cache already knows; collect the unique
        // remainder for the enclave.
        let mut resolved: HashMap<usize, ClassLabel> = HashMap::new();
        let mut needed: HashSet<usize> = HashSet::new();
        let mut need: Vec<usize> = Vec::new();
        let mut occurrences = 0u64;
        for request in batch {
            for &node in request.nodes() {
                occurrences += 1;
                if resolved.contains_key(&node) || needed.contains(&node) {
                    continue;
                }
                match self.cache.get(&(self.epoch, node)) {
                    Some(&label) => {
                        resolved.insert(node, label);
                    }
                    None => {
                        needed.insert(node);
                        need.push(node);
                    }
                }
            }
        }
        if !need.is_empty() {
            let transitions_before = vault.enclave_transitions();
            match vault.infer_batch(&mut self.session, &self.features, &need) {
                Ok((labels, report)) => {
                    for (&node, label) in need.iter().zip(labels) {
                        resolved.insert(node, label);
                        self.cache.insert((self.epoch, node), label);
                        // Publish to the submit-path fast cache under
                        // this worker's captured install generation, so
                        // later probes for the node resolve with zero
                        // cross-thread traffic.
                        if let Some(fast) = &self.fast {
                            fast.publish(self.tag, node, label);
                        }
                    }
                    self.stats.absorb_report(&report);
                }
                Err(error) => {
                    // The batch failed, but requests whose nodes were
                    // fully resolved from the cache are still
                    // answerable — only the requests that needed the
                    // enclave see the error. Hit/miss stats count
                    // answered queries only. ECALLs the failed attempt
                    // already charged stay accounted, keeping the
                    // transition stats meter-exact.
                    self.stats.failed_batches += 1;
                    self.stats.enclave_transitions +=
                        vault.enclave_transitions() - transitions_before;
                    return batch
                        .iter()
                        .map(|request| {
                            let labels: Option<Vec<ClassLabel>> = request
                                .nodes()
                                .iter()
                                .map(|node| resolved.get(node).copied())
                                .collect();
                            match labels {
                                Some(labels) => {
                                    self.stats.cache_hits += labels.len() as u64;
                                    Ok(labels)
                                }
                                None => Err(ServeError::Vault(error.clone())),
                            }
                        })
                        .collect();
                }
            }
        }

        // Hit/miss accounting describes answered queries: the unique
        // nodes that entered the enclave are the misses, everything
        // else was cache- or batch-local.
        self.stats.cache_misses += need.len() as u64;
        self.stats.cache_hits += occurrences - need.len() as u64;
        batch
            .iter()
            .map(|request| {
                Ok(request
                    .nodes()
                    .iter()
                    .map(|node| resolved[node])
                    .collect::<Vec<_>>())
            })
            .collect()
    }
}
