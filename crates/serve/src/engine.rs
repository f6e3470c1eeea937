//! The serving runtime: supervised worker shards, each owning one
//! vault restored from a sealed snapshot, behind per-shard admission
//! queues, with zero-downtime model hot-swap and automatic crash
//! recovery.
//!
//! ## Topology
//!
//! Under the default [`Topology::Replicated`], [`ServingEngine::start`]
//! spawns exactly one worker shard, which owns the vault it was given
//! and retains a sealed snapshot of it ([`Vault::recovery_handle`]) as
//! its restore source. The shard runs the full single-vault stack: its
//! [`AdmissionQueue`], its epoch-keyed [`LruCache`](crate::LruCache)
//! and its [`tee::EnclaveSession`]. A second full replica would only
//! contend for the same cores and the same `linalg` pool, so `start`
//! rejects `Replicated` with [`ServeConfig::shards`] above 1.
//!
//! [`Topology::Partitioned`] is the one multi-shard mode
//! ([`Vault::partition_recovery_handles`]): shard `i` owns partition
//! `i` of a contiguous-block layout — its owned nodes, their L-hop halo
//! (L = rectifier depth), and nothing else — so N shards hold ~1/N of
//! the private state each, and each shard's retained recovery snapshot
//! is its own per-partition snapshot. Every [`ServeHandle`] routes a
//! node by owner lookup over the same
//! [`graph::partition::PartitionSpec`]; ownership is a pure function of
//! the node id (never of the private edges), so routing needs no
//! private data. The halo gives every owned node its full L-hop
//! receptive field, so labels stay bit-identical to sequential
//! inference, and a Down shard's nodes have no other holder, so they
//! fail typed (see the failure model below).
//!
//! ## Threading model
//!
//! Each shard's [`Vault`] (and its simulated enclave) is owned by the
//! shard's state machine, `ShardCore` (`worker.rs`), whose whole
//! behaviour is three calls: serve a flushed batch, install an epoch,
//! roll the last install back — the analogue of the SGX rule that
//! enclave state is touched only through controlled entry points. The
//! core has no thread, channel, queue or sleep of its own. One worker
//! thread per shard drives it: poll the shard's admission queue, apply
//! any pending control messages, call the core, ack. Concurrency comes
//! from three places: any number of client threads submit through
//! cloned [`ServeHandle`]s; shards execute batches independently; and
//! inside each batch the backbone forward fans out over the shared
//! `linalg` pool. A shard runs one batch at a time through its one
//! enclave session.
//!
//! ## Determinism
//!
//! Results never depend on batching, caching, routing, or shard count.
//! A partition's shard rectifies its owned nodes over their whole
//! receptive field with the same weights, so an N-shard engine's labels
//! are bit-identical to a single-shard engine's — and to sequential
//! [`Vault::infer`] — for any request stream (held by the seeded
//! traces of `tests/trace.rs`). Supervision keeps the invariant: a restored
//! shard serves the same retained snapshot, and a node is only ever
//! answered by its owner, so every *successful* answer is bit-identical
//! to sequential inference no matter what failed around it.
//!
//! ## Failure model
//!
//! Each shard wraps batch execution in
//! [`catch_unwind`](std::panic::catch_unwind). A panic fails only the
//! batch in flight: the shard marks itself [`ShardHealth::Down`] on the
//! engine's [`HealthBoard`], discards the (possibly poisoned) vault,
//! restores a fresh one from its retained [`RecoveryHandle`] — once,
//! with no sleep: a restore is a pure function of (sealed bytes, key),
//! so a retry could only repeat its answer — and only then answers the
//! batch's requests with [`ServeError::ShardFailed`]. A client holding
//! the failure therefore already sees the shard's final health:
//! `Degraded` after a good restart, `Down` if it failed, in which case
//! the shard stays `Down` until a deploy resurrects it. No other shard
//! holds what a `Down` shard serves, so requests for its nodes resolve
//! to the typed `ShardFailed` until it recovers or a deploy resurrects
//! it — never a silently misrouted answer.
//! Overload sheds at the admission bound
//! ([`ServeError::Overloaded`]), stale requests are dropped by the
//! per-request timeout ([`ServeError::TimedOut`]), and
//! [`ServingEngine::deploy`] is all-or-nothing: one install per shard,
//! and rollback to the previously installed epoch when any shard fails.
//! Install, rollback and restart all restore through one core
//! function, the single hook for
//! [`Fault::FailRestore`](crate::Fault::FailRestore).
//!
//! ## Hot swap
//!
//! [`ServingEngine::deploy`] installs a new model epoch from a sealed
//! [`VaultSnapshot`] across all shards with zero downtime: admission
//! never pauses, each shard finishes (drains) its in-flight batch on
//! the old epoch, installs its new vault between batches, and answers
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
//! [`ClientId::ANONYMOUS`](crate::ClientId::ANONYMOUS) session. The
//! sentinel is engine-global (shared by all handles), its counters land in
//! [`ServeStats::sentinel`] at shutdown, and a successful
//! [`ServingEngine::deploy`] grants amnesty: a new model epoch starts
//! every session at the bottom of the ladder.

use crate::faults::FaultPlan;
use crate::router::FrontStats;
// The engine's public surface: the crate root re-exports these types
// together with the engine's own.
pub use crate::router::{HealthBoard, ServeHandle, ShardHealth};
use crate::sentinel::Sentinel;
pub use crate::stats::{ServeStats, ShardStats};
use crate::worker::ShardCore;
use crate::{
    AdmissionQueue, BatchPolicy, BatchPoll, FastCache, PendingRequest, SentinelConfig,
    SentinelStats, ServeError,
};
use gnnvault::{NodeFeatures, RecoveryHandle, Vault, VaultSnapshot};
use graph::partition::PartitionSpec;
use linalg::DenseMatrix;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tee::SealKey;

/// How long a shard's driver waits in one queue poll before re-checking
/// its control channel. [`AdmissionQueue::notify`] cuts the wait short,
/// so this is a liveness backstop, not a latency bound.
const CONTROL_POLL: Duration = Duration::from_millis(50);

/// How the private real graph is distributed across worker shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// One shard owns the full vault. [`ServingEngine::start`] rejects
    /// this topology with more than one shard: a second replica of the
    /// whole vault only contends for the same cores.
    #[default]
    Replicated,
    /// The private graph is edge-cut partitioned
    /// ([`Vault::partition_recovery_handles`]): shard `i` owns partition `i` of a
    /// contiguous-block [`PartitionSpec`] and holds only its owned
    /// nodes plus an L-hop halo — ~1/N of the private state. Routing is
    /// an owner lookup ([`PartitionSpec::owner_of`]), and because no
    /// other shard can answer a partition's nodes, a `Down` owner's
    /// queries fail with the typed [`ServeError::ShardFailed`] until
    /// recovery or a deploy resurrects it.
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
    /// Worker shards (clamped to ≥ 1). Under [`Topology::Partitioned`]
    /// each owns one graph partition and answers exactly its owned
    /// nodes; [`Topology::Replicated`] takes only 1.
    pub shards: usize,
    /// Whether one shard holds the full vault or each shard holds a
    /// graph partition. Either way, every successful answer is
    /// bit-identical to sequential [`Vault::infer`].
    pub topology: Topology,
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
            request_timeout: Duration::ZERO,
            fault_plan: None,
        }
    }
}

/// Control messages the engine sends to a shard's driver, applied
/// between batches.
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

/// One shard: its queue, its control channel, and the worker thread
/// driving the [`ShardCore`] that owns its vault.
#[derive(Debug)]
struct Shard {
    queue: Arc<AdmissionQueue>,
    control: Sender<ShardControl>,
    worker: Option<std::thread::JoinHandle<(Option<Vault>, ServeStats)>>,
}

/// A running vault-serving engine: per-shard admission queues, caches,
/// and supervised enclave workers.
///
/// See the crate-level example for the serving quickstart. End a run
/// with [`shutdown`](Self::shutdown) to get a surviving vault and the
/// aggregated stats back; merely dropping the engine (e.g. on an early
/// return) closes every queue so the workers drain, answer what they
/// can, and exit — but the vaults they own are then dropped with them.
#[derive(Debug)]
pub struct ServingEngine {
    shards: Vec<Shard>,
    /// The partition layout (`None` under [`Topology::Replicated`]).
    spec: Option<PartitionSpec>,
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

impl Drop for ServingEngine {
    /// Closes every queue so an abandoned engine's workers unblock,
    /// drain, and exit instead of parking forever on their condvars.
    fn drop(&mut self) {
        self.close();
    }
}

impl ServingEngine {
    /// Deploys `vault` behind a serving runtime over the corpus
    /// `features` (one row per node, the same matrix the vault's
    /// backbone was meant to serve).
    ///
    /// The corpus is prepared here once, as [`NodeFeatures`] that every
    /// shard shares: a corpus no denser than 15 % keeps its CSR rows,
    /// which the backbone's GCN first layer multiplies on every flush
    /// with the dense product's bits.
    ///
    /// Under [`Topology::Replicated`], the one shard takes ownership of
    /// `vault` and retains its [`RecoveryHandle`]
    /// ([`Vault::recovery_handle`]) as the supervisor's restore source.
    /// Under [`Topology::Partitioned`], the private graph is
    /// block-partitioned across the shards
    /// ([`Vault::partition_recovery_handles`] — one encode/seal pass per
    /// partition): shard `i` is restored from, and retains, partition
    /// `i`'s snapshot — its owned nodes, their L-hop halo, and nothing
    /// else — while the full vault is parked engine-side (it is what
    /// [`shutdown`](Self::shutdown) returns). Snapshots are sealed at
    /// the vault's own precision, so every shard answers like it: to
    /// serve the int8 grid, call [`Vault::set_precision`] before
    /// `start`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when `features` has a different row
    /// count than the vault's deployed graph (the corpus and the graph
    /// must describe the same nodes — catching the mismatch here keeps
    /// admission validation aligned with what [`Vault::infer_batch`]
    /// will accept), when `vault` is itself a partition replica (an
    /// engine always starts from the full deployment) or when
    /// [`Topology::Replicated`] asks for more than one shard,
    /// [`ServeError::Vault`] when a partition cannot be restored, and
    /// [`ServeError::StartFailed`] when a worker thread cannot be
    /// spawned. Start failures leave nothing running: any worker
    /// spawned before the failure drains and exits.
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
        if config.topology == Topology::Replicated && config.shards > 1 {
            return Err(ServeError::Rejected {
                reason: format!(
                    "Topology::Replicated runs one shard, not {}; use Topology::Partitioned for more",
                    config.shards
                ),
            });
        }
        let shard_count = config.shards.max(1);
        let num_nodes = vault.num_nodes();
        let features = Arc::new(NodeFeatures::new(features));
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

        let (spec, parked, vaults, retained) = match config.topology {
            Topology::Replicated => {
                // The one shard serves the original and retains a sealed
                // snapshot of it until a deploy replaces it.
                let retained = vec![vault.recovery_handle()];
                (None, None, vec![vault], retained)
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
                (Some(spec), Some(vault), vaults, retained)
            }
        };

        let mut shards: Vec<Shard> = Vec::with_capacity(shard_count);
        for (index, (vault, retained)) in vaults.into_iter().zip(retained).enumerate() {
            let queue = Arc::new(AdmissionQueue::for_shard(config.policy, index));
            let (control, control_rx) = channel();
            let core = ShardCore::new(
                index,
                vault,
                retained,
                Arc::clone(&features),
                &config,
                Arc::clone(&health),
                fast.clone(),
            );
            let worker_queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name(format!("vault-serve-shard-{index}"))
                .spawn(move || drive(core, &worker_queue, &control_rx));
            match spawned {
                Ok(worker) => shards.push(Shard {
                    queue,
                    control,
                    worker: Some(worker),
                }),
                Err(e) => {
                    // Unwind cleanly: close the queues so the already
                    // spawned workers drain and exit on their own.
                    shards.iter().for_each(|shard| shard.queue.close());
                    return Err(ServeError::StartFailed {
                        reason: format!("spawn worker thread for shard {index}: {e}"),
                    });
                }
            }
        }
        Ok(Self {
            shards,
            spec,
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
                .shards
                .iter()
                .map(|shard| Arc::clone(&shard.queue))
                .collect(),
            spec: self.spec,
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
    /// pulled by every successful [`deploy`](Self::deploy)). Aggregate
    /// counters are monotonic and survive.
    pub fn reset_sentinel(&self) {
        self.sentinel.reset();
    }

    /// Number of shards serving this deployment.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The live per-shard health board (shared with every handle).
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Number of queued (not yet batched) sub-requests right now,
    /// summed over shards.
    pub fn queued_requests(&self) -> usize {
        self.shards.iter().map(|shard| shard.queue.len()).sum()
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
    /// restores its new vault between batches (once — a restore is a
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
        let (sources, full) = match self.spec {
            None => (vec![RecoveryHandle::new(snapshot.clone(), seal_key)], None),
            Some(spec) => {
                let full = Vault::restore(snapshot, seal_key).map_err(ServeError::Vault)?;
                let parts = full.partition_snapshots(&spec).map_err(ServeError::Vault)?;
                let sources = parts
                    .into_iter()
                    .map(|part| RecoveryHandle::new(part, seal_key))
                    .collect();
                (sources, Some(full))
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
        let mut acks = Vec::with_capacity(self.shards.len());
        for ((index, shard), source) in self.shards.iter().enumerate().zip(sources) {
            let (ack, ack_rx) = channel();
            shard
                .control
                .send(ShardControl::Deploy { source, tag, ack })
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
            self.sentinel.reset();
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
            let shard = &self.shards[*index];
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

    /// Refuses every later submit with [`ServeError::Closed`], the
    /// fast path included, then closes the queues.
    fn close(&self) {
        self.front.closed.store(true, Ordering::Release);
        self.shards.iter().for_each(|shard| shard.queue.close());
    }

    /// Stops admission, drains and answers every already-admitted
    /// request on all shards, and joins the workers; returns a
    /// surviving vault and the run's aggregate statistics. Replicated,
    /// the vault is the one shard's (`None` only if it died
    /// permanently); partitioned, it is the parked *full* vault of the
    /// serving epoch — the shards' partial vaults each answer only one
    /// partition and are dropped with their workers.
    pub fn shutdown(mut self) -> (Option<Vault>, ServeStats) {
        let mut survivor = self
            .parked
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        self.close();
        let mut merged = ServeStats::default();
        for shard in &mut self.shards {
            let Some(worker) = shard.worker.take() else {
                continue;
            };
            match worker.join() {
                Ok((vault, stats)) => {
                    survivor = survivor.or(vault);
                    merged.merge(stats);
                }
                // A panic that escaped supervision (e.g. during drain
                // bookkeeping) loses that shard's stats but must not
                // poison shutdown for the others.
                Err(_) => merged.panics_caught += 1,
            }
        }
        merged.requests_shed += self.front.shed.load(Ordering::Relaxed);
        merged.fast_path_hits += self.front.fast_hits.load(Ordering::Relaxed);
        merged
            .fast_path_latency
            .merge(&self.front.fast_latency.snapshot());
        merged.sentinel = self.sentinel.stats();
        (survivor, merged)
    }
}

/// A shard's worker thread: the driver around its [`ShardCore`].
/// Control messages are applied strictly *between* batches, so whatever
/// was in flight at a deploy drained on the old epoch; each flushed
/// batch is served as of the instant it left the queue. Runs until the
/// queue is closed and drained, fails any control message that arrives
/// after that, and returns the core's vault and statistics.
fn drive(
    mut core: ShardCore,
    queue: &AdmissionQueue,
    control: &Receiver<ShardControl>,
) -> (Option<Vault>, ServeStats) {
    loop {
        while let Ok(message) = control.try_recv() {
            match message {
                ShardControl::Deploy { source, tag, ack } => {
                    let _ = ack.send(core.install(source, tag));
                }
                ShardControl::Rollback { ack } => {
                    let _ = ack.send(core.rollback());
                }
            }
        }
        match queue.poll_batch(CONTROL_POLL) {
            BatchPoll::Batch(batch, reason) => {
                core.serve(batch, reason, Instant::now(), PendingRequest::respond);
            }
            BatchPoll::Idle => {}
            BatchPoll::Drained => break,
        }
    }
    while let Ok(ShardControl::Deploy { ack, .. } | ShardControl::Rollback { ack }) =
        control.try_recv()
    {
        let _ = ack.send(Err(ServeError::Closed));
    }
    core.finish(queue.len(), queue.high_water())
}
