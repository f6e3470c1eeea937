//! Concurrent sharded serving for deployed GNNVault instances.
//!
//! The `gnnvault` crate ends at a deployed [`Vault`](gnnvault::Vault)
//! answering one call at a time; this crate turns that vault into a
//! *service*. Incoming node queries pass through five stages:
//!
//! 1. **Routing** ([`ServeHandle`]): under the default
//!    [`Topology::Replicated`] one shard owns the full vault and takes
//!    every query; under [`Topology::Partitioned`] each of
//!    [`ServeConfig::shards`] shards owns one edge-cut partition of the
//!    private graph (~1/N of the private state), and each queried node
//!    goes to its partition's owner,
//! 2. **Admission** ([`AdmissionQueue`], [`BatchPolicy`]): requests are
//!    accepted from any number of client threads, capped per shard so
//!    overload degrades into fast rejections,
//! 3. **Batching**: pending queries coalesce until a size bound or the
//!    oldest request's deadline flushes them — heavy traffic gets big
//!    batches, a lone query gets low latency,
//! 4. **Caching** ([`LruCache`]): results are cached by `(vault epoch,
//!    node id)`, so repeated queries are answered without re-entering
//!    the enclave at all. With [`ServeConfig::fast_cache_slots`] > 0 a
//!    second, lock-free layer ([`FastCache`]) sits *in front of*
//!    admission: shard workers publish completed labels into packed
//!    atomic slots and the client thread probes them in place, so a
//!    fully-hot request resolves with zero cross-thread traffic
//!    (sentinel accounting still runs first — see [`fastcache`](FastCache)),
//! 5. **Execution** ([`ServingEngine`]): cache misses run through
//!    [`Vault::infer_batch`](gnnvault::Vault::infer_batch) — one
//!    backbone forward on the shared `linalg` pool and one enclave
//!    transition set per *batch* — through the shard's one reusable
//!    [`tee::EnclaveSession`], with each batch's cost read off the
//!    enclave's own counters into its report.
//!
//! Routing, batching, and caching change cost, never answers: served
//! labels are bit-identical to what per-node
//! [`Vault::infer`](gnnvault::Vault::infer) would return, at any shard
//! count and in *either topology* (held for one replicated shard and
//! `{1, 2, 4}` partitioned shards by the seeded traces of
//! `tests/trace.rs`). A
//! retrained model hot-swaps in with zero downtime through
//! [`ServingEngine::deploy`], which installs a sealed snapshot across
//! all shards between batches — all-or-nothing: one install per shard,
//! and rollback on partial failure.
//!
//! The engine is *supervised*: a shard that panics mid-batch is marked
//! down on the shared [`HealthBoard`], restores itself once from a
//! retained sealed snapshot, and only then fails the batch in flight
//! (typed [`ServeError::ShardFailed`]), and so does every request for
//! its nodes while it is down. A restore is a pure function of (sealed
//! bytes, key), so nothing retries it: a shard whose restore fails
//! stays down until a deploy resurrects it. Each shard is a thread-free
//! state machine — serve a batch, install an epoch, roll back — driven
//! by one worker thread, so its transitions are unit-tested over every
//! short input word without a thread or a sleep. Overload sheds at the admission bound
//! ([`ServeError::Overloaded`] with a retry hint) and stale requests
//! are dropped by a per-request timeout ([`ServeError::TimedOut`]), so
//! every admitted request resolves — labels or a typed error, never a
//! hang. The [`faults`] module injects deterministic failure schedules
//! to prove all of this under test.
//!
//! The engine is also *defended*: before routing, every submission
//! passes the [`sentinel`] — per-session ([`ClientId`]) sliding-window
//! detectors that score the query stream for link-stealing signatures
//! (fresh-node sweep rate, off-substitute-graph pair probing) and
//! escalate abusive sessions Observe → RateLimited →
//! Quarantined ([`ServeError::RateLimited`] /
//! [`ServeError::Quarantined`], both issued before any enclave work).
//! The default [`SentinelMode::Observe`] only watches and counts;
//! enforcement is an explicit [`ServeConfig::sentinel`] opt-in. The
//! `attacks` crate's `online` module drives a real link-stealing attack
//! through a [`ServeHandle`] as the continuous audit of this defense.
//!
//! # Examples
//!
//! The serving quickstart (mirrored in the repository README and in
//! `examples/serving_throughput.rs`):
//!
//! ```
//! use datasets::{DatasetSpec, SyntheticPlanetoid};
//! use gnnvault::{pipeline, ModelConfig, RectifierKind, SubstituteKind};
//! use serve::{BatchPolicy, ServeConfig, ServingEngine, Topology};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train and deploy a vault (steps 1-4 of the paper's pipeline).
//! let data = SyntheticPlanetoid::new(DatasetSpec::CORA).scale(0.03).seed(5).generate()?;
//! let spec = pipeline::PipelineConfig {
//!     model: ModelConfig::m1(data.num_classes),
//!     substitute: SubstituteKind::Knn { k: 2 },
//!     rectifier: RectifierKind::Series,
//!     epochs: 30,
//!     train_original: false,
//!     ..Default::default()
//! };
//! let trained = pipeline::train(&data, &spec)?;
//! let vault = pipeline::deploy(trained, &data)?;
//!
//! // Step 5 (this crate): serve it.
//! let config = ServeConfig {
//!     policy: BatchPolicy {
//!         max_batch_nodes: 16,
//!         max_delay: Duration::from_millis(1),
//!         max_queue_requests: 1024,
//!     },
//!     cache_capacity: 1024,
//!     shards: 2, // two workers, each owning half of the private graph
//!     topology: Topology::Partitioned,
//!     ..ServeConfig::default()
//! };
//! let engine = ServingEngine::start(vault, data.features.clone(), config)?;
//! let handle = engine.handle();
//!
//! // Clients submit from any thread and block on their tickets.
//! let a = handle.submit(vec![0, 1, 2])?;
//! let b = handle.submit_one(1)?; // repeat query: served from cache
//! assert_eq!(a.wait()?.len(), 3);
//! assert_eq!(b.wait()?.len(), 1);
//!
//! // `shutdown` hands back the full vault it parked at `start`.
//! let (vault, stats) = engine.shutdown();
//! assert!(vault.is_some());
//! // `requests` counts per-shard sub-requests: a request whose nodes
//! // span both partitions counts once per shard.
//! assert!(stats.requests >= 2 && stats.requests <= 3);
//! assert_eq!(stats.answered_nodes, 4);
//! assert_eq!(stats.shards.len(), 2);
//! assert!(stats.cache_hits >= 1, "the repeat of node 1 never re-enters the enclave");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batcher;
mod cache;
mod engine;
mod error;
mod fastcache;
pub mod faults;
mod latency;
mod router;
pub mod sentinel;
mod stats;
mod worker;

pub use batcher::{AdmissionQueue, BatchPolicy, BatchPoll, FlushReason, PendingRequest, Ticket};
pub use cache::LruCache;
pub use engine::{
    HealthBoard, ServeConfig, ServeHandle, ServeStats, ServingEngine, ShardHealth, ShardStats,
    Topology,
};
pub use error::ServeError;
pub use fastcache::FastCache;
pub use faults::{Fault, FaultPlan};
pub use latency::LatencyHistogram;
pub use sentinel::{
    ClientId, SentinelConfig, SentinelMode, SentinelSessionStats, SentinelStats, SentinelVerdict,
};
