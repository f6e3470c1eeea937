//! The client side of the engine: the shared per-shard
//! [`HealthBoard`] and the cloneable [`ServeHandle`], which routes each
//! queried node to the shard that owns it.

use crate::latency::AtomicLatency;
use crate::sentinel::Sentinel;
use crate::{AdmissionQueue, ClientId, FastCache, SentinelStats, ServeError, Ticket};
use graph::partition::PartitionSpec;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Health of one shard, as tracked on the [`HealthBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Recovered from a failure (or resurrected by a deploy) but has
    /// not served a batch since; routed to normally.
    Degraded,
    /// Crashed and not yet restored (or its restore failed, until a
    /// deploy resurrects it): no other shard holds what it serves, so
    /// every request queued at it is answered
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
/// by the engine, its shards, and every [`ServeHandle`].
///
/// Shards flip their own entry (`Down` on panic, `Degraded` after a
/// successful restore or deploy-resurrection, `Healthy` after the next
/// successfully served batch); operators read it from the engine or
/// any handle.
#[derive(Debug)]
pub struct HealthBoard {
    states: Vec<AtomicU8>,
}

impl HealthBoard {
    pub(crate) fn new(shards: usize) -> Self {
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

    pub(crate) fn set(&self, shard: usize, health: ShardHealth) {
        self.states[shard].store(health.as_u8(), Ordering::Release);
    }
}

/// Handle-side state the shards never see: whether the engine has
/// begun shutting down, and the telemetry of shed submissions and
/// submit-path fast-cache hits (with their latency histogram), folded
/// into [`ServeStats`](crate::ServeStats) at shutdown.
#[derive(Debug, Default)]
pub(crate) struct FrontStats {
    /// Set by shutdown and drop before they close the queues.
    pub(crate) closed: AtomicBool,
    pub(crate) shed: AtomicU64,
    pub(crate) fast_hits: AtomicU64,
    pub(crate) fast_latency: AtomicLatency,
}

/// Cloneable client handle onto a running engine: one admission queue
/// per shard, and the partition layout that says which shard owns a
/// node.
///
/// Node ids are validated at admission against the deployment's corpus
/// size, so a bad id is rejected immediately instead of failing the
/// batch it would have ridden in. With more than one shard, a
/// multi-node request is split into per-partition sub-requests; the
/// returned [`Ticket`] reassembles the labels into request order.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    pub(crate) queues: Vec<Arc<AdmissionQueue>>,
    /// The engine's partition layout (`None` for the one replicated
    /// shard): [`PartitionSpec::owner_of`] names the only shard that
    /// can answer a node.
    pub(crate) spec: Option<PartitionSpec>,
    pub(crate) num_nodes: usize,
    pub(crate) health: Arc<HealthBoard>,
    pub(crate) front: Arc<FrontStats>,
    pub(crate) sentinel: Arc<Sentinel>,
    /// The engine-wide submit-path fast cache (`None` when
    /// [`ServeConfig::fast_cache_slots`](crate::ServeConfig::fast_cache_slots) is 0).
    pub(crate) fast: Option<Arc<FastCache>>,
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
    /// When
    /// [`ServeConfig::fast_cache_slots`](crate::ServeConfig::fast_cache_slots)
    /// is above 0, a request whose nodes *all* hit the lock-free
    /// [`FastCache`] under the current install tag resolves right here
    /// on the submit thread — no queue, no shard wakeup, no enclave —
    /// and its ticket is already ready. Any miss sends the whole
    /// request down the queued path. The sentinel has already accounted
    /// the submission either way.
    ///
    /// Under [`Topology::Partitioned`](crate::Topology::Partitioned)
    /// each node goes to the shard that owns its partition, and to no
    /// other: while the owner is [`ShardHealth::Down`] its nodes
    /// resolve to the typed [`ServeError::ShardFailed`], and are
    /// answerable again once recovery or a
    /// [`ServingEngine::deploy`](crate::ServingEngine::deploy) brings
    /// the owner back.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] on empty/out-of-range node lists;
    /// [`ServeError::Overloaded`] when the shard's queue is at its
    /// admission bound; [`ServeError::RateLimited`] /
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
        // Where the queued path fails once shutdown began: after the
        // sentinel counted the submission, before the fast cache could
        // answer it.
        if self.front.closed.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
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
        let spec = match self.spec {
            Some(spec) if self.queues.len() > 1 => spec,
            _ => return self.track_shed(self.queues[0].submit_as(client, nodes)),
        };
        let total = nodes.len();
        let mut per_shard: Vec<(Vec<usize>, Vec<usize>)> =
            vec![(Vec::new(), Vec::new()); self.queues.len()];
        for (position, &node) in nodes.iter().enumerate() {
            let (shard_nodes, positions) = &mut per_shard[spec.owner_of(node)];
            shard_nodes.push(node);
            positions.push(position);
        }
        let mut parts = Vec::new();
        for (shard, (shard_nodes, positions)) in per_shard.into_iter().enumerate() {
            if shard_nodes.is_empty() {
                continue;
            }
            let ticket = self.track_shed(self.queues[shard].submit_as(client, shard_nodes))?;
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
    /// from
    /// [`ServingEngine::sentinel_stats`](crate::ServingEngine::sentinel_stats)
    /// and, at shutdown, in
    /// [`ServeStats::sentinel`](crate::ServeStats::sentinel)).
    pub fn sentinel_stats(&self) -> SentinelStats {
        self.sentinel.stats()
    }

    /// Number of nodes in the served deployment (valid ids are
    /// `0..num_nodes`).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The engine's live per-shard health board.
    pub fn health(&self) -> &HealthBoard {
        &self.health
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
