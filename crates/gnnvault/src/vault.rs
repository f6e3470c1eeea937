use crate::snapshot::{self, Deployment, PartitionMaps, Scope};
use crate::{Backbone, Rectifier, VaultError, VaultSnapshot};
use graph::partition::PartitionSpec;
use graph::{normalization, Graph};
use linalg::{CsrMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tee::{
    codec, AllocationId, ClassLabel, CostModel, EnclaveSession, EnclaveSim, Meter,
    OverBudgetPolicy, Phase, SealKey, Sealed, SessionId, UntrustedToEnclave,
};

/// Process-wide deployment counter behind [`Vault::epoch`]: every
/// deployment in this process gets a distinct epoch, so in-memory
/// caches keyed by epoch can never mix answers from two deployments.
/// The counter restarts with the process — a cache that outlives the
/// process (disk, remote) must add its own boot-unique component.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Per-inference report: the Fig. 6 measurables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Wall-clock + simulated time per phase.
    pub backbone_ns: u64,
    /// Transfer time (simulated SGX marshalling).
    pub transfer_ns: u64,
    /// Rectifier time inside the enclave (wall + page-swap simulation).
    pub rectifier_ns: u64,
    /// Bytes moved across the boundary.
    pub transferred_bytes: usize,
    /// ECALL count for this inference.
    pub transitions: u64,
    /// Peak enclave memory over the deployment lifetime so far.
    pub peak_enclave_bytes: usize,
}

impl InferenceReport {
    /// Total inference time (all phases).
    pub fn total_ns(&self) -> u64 {
        self.backbone_ns + self.transfer_ns + self.rectifier_ns
    }
}

/// The form a vault's projection weights are *sealed* in
/// ([`Vault::set_precision`]) — a storage choice, not a compute path.
///
/// There is one forward pass, f32, at both settings. `Int8` makes
/// every snapshot of the vault store each projection weight (backbone
/// and rectifier) as per-output-channel int8 codes plus scales
/// ([`linalg::QuantizedMatrix`]) instead of f32 — 948,734 → 361,590
/// sealed bytes (−62 %) on the Cora-scale benchmark fixture, whose
/// 1433×128 first-layer weight dominates the image. So that a restored
/// replica answers exactly like its source, the vault's own weights are
/// moved onto that int8 grid when the setting is chosen; biases,
/// attention vectors and graphs are f32/exact in both forms. Resident
/// enclave memory is the f32 size at both settings (peak EPC on that
/// fixture: 4,156,916 B either way). Training always happens at `F32`.
///
/// Moving onto the grid is lossy and is not undone: going back to `F32`
/// changes only the sealed form, so the `set_precision` round trip does
/// not return the trained weights' answers (2 of 2,708 labels differ
/// on that fixture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision f32 weights (the precision models train at).
    #[default]
    F32,
    /// Projection weights sealed as per-channel int8 codes + scales,
    /// and served from that grid; everything else f32.
    Int8,
}

impl Precision {
    /// Both precisions, for test and bench matrices.
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::Int8];

    /// Stable lowercase name (`"f32"` / `"int8"`) for reports and
    /// bench ids.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// A deployed GNNVault instance (§IV-E): the public backbone plus
/// substitute graph in the untrusted world, and the rectifier plus the
/// real graph (COO + precomputed degrees) sealed inside a simulated SGX
/// enclave.
///
/// Besides full-graph [`Vault::infer`], the threat model's per-node
/// query ("query the GNN model with any chosen node") is served by
/// [`Vault::infer_node`], which extracts the node's k-hop ego graph
/// *inside the enclave* — the private neighbourhood never leaves — and
/// rectifies only that subgraph.
///
/// [`Vault::infer`] runs the split pipeline: backbone in the normal
/// world, tap embeddings marshalled one-way into the enclave, rectifier
/// inside, and *label-only* output ([`ClassLabel`]) — logits never leave.
///
/// For serving traffic, [`Vault::infer_batch`] answers many node
/// queries with a single enclave transition set per batch through a
/// reusable [`EnclaveSession`]; the `serve` crate builds its admission
/// queue, caching, and scheduling on top of that entry point.
///
/// # Examples
///
/// See [`crate::pipeline`] for end-to-end construction; the integration
/// tests in `tests/` exercise `Vault` directly.
#[derive(Debug)]
pub struct Vault {
    backbone: Backbone,
    epoch: u64,
    next_session: u64,
    epc_budget: usize,
    policy: OverBudgetPolicy,
    /// `Some` on a partition replica: `real_graph` is then the induced
    /// local closure and queries are answerable only for owned nodes.
    partition: Option<PartitionMaps>,
    // --- enclave-private state (never exposed by any accessor) ---
    rectifier: Rectifier,
    /// The sealed form of the projection weights; under `Int8` the
    /// weights above already sit on the int8 grid.
    precision: Precision,
    real_graph: Graph,
    real_adj: CsrMatrix,
    enclave: EnclaveSim,
    sealed_artifacts: Vec<(String, Sealed)>,
    seal_key: SealKey,
}

impl Vault {
    /// Deploys a trained backbone/rectifier pair.
    ///
    /// The rectifier parameters and the real graph are sealed (at-rest
    /// protection) and accounted inside the enclave: parameters, the
    /// COO edge list, the precomputed degree vector, and the normalized
    /// adjacency the enclave keeps resident.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Tee`] when the enclave rejects the resident
    /// set (only under [`OverBudgetPolicy::Fail`]).
    pub fn deploy(
        backbone: Backbone,
        rectifier: Rectifier,
        real_graph: &Graph,
        epc_budget: usize,
        cost: CostModel,
        policy: OverBudgetPolicy,
        seal_key: SealKey,
    ) -> Result<Vault, VaultError> {
        let fresh = Deployment {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            epc_budget,
            cost,
            policy,
            backbone,
            rectifier,
            precision: Precision::F32,
            real_graph: real_graph.clone(),
            partition: None,
        };
        Self::install(fresh, seal_key)
    }

    /// Deployment body shared by [`Vault::deploy`] (fresh epoch) and
    /// [`Vault::restore`] (the snapshot's epoch, so replicas of one
    /// snapshot share a cache identity). With `partition`, `real_graph`
    /// is the partition's induced closure and normalization uses the
    /// recorded full-graph degrees — the resident set (COO, degree
    /// vector, CSR) shrinks to the closure size, which is the memory
    /// win of partitioned sharding.
    fn install(deployment: Deployment, seal_key: SealKey) -> Result<Vault, VaultError> {
        let Deployment {
            epoch,
            epc_budget,
            cost,
            policy,
            backbone,
            rectifier,
            precision,
            real_graph,
            partition,
        } = deployment;
        let mut enclave = EnclaveSim::new(epc_budget, cost, policy);

        // Resident enclave set, mirroring §IV-E's storage plan.
        enclave.alloc("rectifier parameters", rectifier.nbytes())?;
        enclave.alloc("real graph (COO)", real_graph.coo_nbytes())?;
        enclave.alloc(
            "degree vector",
            real_graph.num_nodes() * std::mem::size_of::<u32>(),
        )?;
        let degrees = match &partition {
            Some(p) => p.original_degrees.clone(),
            None => real_graph.degrees(),
        };
        let real_adj = normalization::gcn_normalize_with_degrees(&real_graph, &degrees);
        enclave.alloc("normalized adjacency (CSR)", real_adj.nbytes())?;

        // Seal deployment artifacts (simulated SGX sealing).
        let mut sealed_artifacts = Vec::new();
        let mut weight_bytes = Vec::new();
        for dim in rectifier.channel_dims() {
            weight_bytes.extend_from_slice(&dim.to_le_bytes());
        }
        sealed_artifacts.push((
            "rectifier-shape".to_owned(),
            Sealed::seal(seal_key.derive("rectifier-shape"), &weight_bytes),
        ));
        let mut edge_bytes = Vec::with_capacity(real_graph.num_edges() * 8);
        for &(u, v) in real_graph.edges() {
            edge_bytes.extend_from_slice(&(u as u32).to_le_bytes());
            edge_bytes.extend_from_slice(&(v as u32).to_le_bytes());
        }
        sealed_artifacts.push((
            "real-graph-coo".to_owned(),
            Sealed::seal(seal_key.derive("real-graph-coo"), &edge_bytes),
        ));

        Ok(Vault {
            backbone,
            epoch,
            next_session: 0,
            epc_budget,
            policy,
            partition,
            rectifier,
            precision,
            real_graph,
            real_adj,
            enclave,
            sealed_artifacts,
            seal_key,
        })
    }

    /// Serializes this deployment into a sealed [`VaultSnapshot`]: the
    /// backbone (weights plus substitute graph), the rectifier weights
    /// and tap-set, the private real graph, and the enclave
    /// configuration, sealed under this deployment's seal key (purpose
    /// `"vault-snapshot"`).
    ///
    /// Encoding is deterministic — snapshotting the same vault twice
    /// yields identical bytes — and [`Vault::restore`] rebuilds a
    /// replica whose inference labels and per-call transition counts
    /// are bit-identical to this vault's, under the *same epoch*, so
    /// serving caches keyed `(epoch, node)` remain valid across
    /// replicas. The feature corpus is not captured: it is public,
    /// untrusted-world data supplied at serving time.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// # fn demo(vault: gnnvault::Vault, key: tee::SealKey) -> Result<(), gnnvault::VaultError> {
    /// let snapshot = vault.snapshot();
    /// // ... ship the snapshot to another worker ...
    /// let mut replica = gnnvault::Vault::restore(&snapshot, key)?;
    /// assert_eq!(replica.epoch(), snapshot.epoch());
    /// # Ok(())
    /// # }
    /// ```
    pub fn snapshot(&self) -> VaultSnapshot {
        match &self.partition {
            None => self.seal_scope(&Scope::Full(&self.real_graph)),
            // A partition replica re-snapshots as a partition image, so
            // its recovery handle restores the same partial vault.
            Some(maps) => self.seal_scope(&Scope::Partition(maps, &self.real_graph)),
        }
    }

    /// Seals *one partition* of this deployment: the shared backbone
    /// and rectifier weights plus only partition `part`'s private graph
    /// state — its owned nodes, their halo closure at the rectifier's
    /// receptive-field depth, the full-graph degree vector for the
    /// closure, and the induced local COO. Restoring the result builds
    /// a *partial* vault that answers exactly the owned nodes,
    /// bit-identically to this vault.
    ///
    /// The sealed payload is strictly smaller than a full snapshot
    /// whenever the closure misses part of the graph, which is the
    /// point: N partitioned shards hold ~1/N of the private state each
    /// instead of N copies.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when called on a vault
    /// that is itself a partition replica, and
    /// [`VaultError::Graph`] when `spec` does not match this
    /// deployment's node count or `part` is out of range.
    pub fn snapshot_partition(
        &self,
        spec: &PartitionSpec,
        part: usize,
    ) -> Result<VaultSnapshot, VaultError> {
        let hops = self.partition_halo_hops()?;
        let gp = graph::partition::partition_one(&self.real_graph, spec, part, hops)?;
        Ok(self.seal_graph_partition(&gp))
    }

    /// Seals every partition of `spec` in one pass (the full-graph
    /// adjacency scan runs once, not once per partition). Element `i`
    /// is partition `i`'s snapshot.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::snapshot_partition`].
    pub fn partition_snapshots(
        &self,
        spec: &PartitionSpec,
    ) -> Result<Vec<VaultSnapshot>, VaultError> {
        let hops = self.partition_halo_hops()?;
        let parts = graph::partition::partition(&self.real_graph, spec, hops)?;
        Ok(parts
            .iter()
            .map(|gp| self.seal_graph_partition(gp))
            .collect())
    }

    /// Restores one partial vault per partition of `spec` — the
    /// partitioned analogue of [`Vault::spawn_replicas`]. Each result
    /// shares this vault's epoch and answers only its owned nodes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::snapshot_partition`], plus
    /// [`Vault::restore`] failures on the rebuild.
    pub fn spawn_partitions(&self, spec: &PartitionSpec) -> Result<Vec<Vault>, VaultError> {
        self.partition_snapshots(spec)?
            .iter()
            .map(|s| Self::restore(s, self.seal_key))
            .collect()
    }

    /// The halo depth partitions of this vault are cut at — the
    /// rectifier's receptive field — or the refusal to cut a replica
    /// that is itself a partition.
    fn partition_halo_hops(&self) -> Result<usize, VaultError> {
        if self.partition.is_some() {
            return Err(VaultError::InvalidConfig {
                reason: "cannot re-partition a partition replica; partition the full vault".into(),
            });
        }
        Ok(self.rectifier.num_layers())
    }

    /// Seals one partition just cut from this (full) vault's graph.
    fn seal_graph_partition(&self, gp: &graph::partition::GraphPartition) -> VaultSnapshot {
        let maps = PartitionMaps::of(gp, self.real_graph.num_nodes());
        self.seal_scope(&Scope::Partition(&maps, gp.graph()))
    }

    /// Encodes this deployment's shared header plus `scope`'s share of
    /// the private graph, seals the payload under the deployment key,
    /// and stamps it with the clear routing metadata — the one body
    /// behind every snapshot form.
    fn seal_scope(&self, scope: &Scope<'_>) -> VaultSnapshot {
        let header = snapshot::Header {
            epoch: self.epoch,
            epc_budget: self.epc_budget,
            cost: self.enclave.cost_model(),
            policy: self.policy,
            backbone: &self.backbone,
            rectifier: &self.rectifier,
            precision: self.precision,
        };
        let payload = snapshot::encode(&header, scope);
        let sealed = Sealed::seal(self.seal_key.derive("vault-snapshot"), &payload);
        let (num_nodes, stamp) = match scope {
            Scope::Full(graph) => (graph.num_nodes(), None),
            Scope::Partition(maps, _) => (maps.num_global_nodes, Some(maps.stamp)),
        };
        VaultSnapshot::new(self.epoch, num_nodes, stamp, sealed)
    }

    /// Rehydrates a replica from a sealed snapshot.
    ///
    /// `seal_key` must be the deployment key the snapshotted vault was
    /// deployed (and therefore sealed) under — the SGX analogue of the
    /// platform sealing key an enclave re-derives after migration. The
    /// replica keeps the snapshot's epoch and is deployed with the
    /// snapshot's recorded EPC budget, cost model, and over-budget
    /// policy; its inference answers are bit-identical to the source
    /// vault's.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::Tee`] ([`tee::TeeError::SealTampered`])
    /// for a wrong key or corrupted payload, [`VaultError::Snapshot`]
    /// for a payload that unseals but does not decode, and the usual
    /// deployment failures (e.g. an EPC budget the resident set no
    /// longer fits) from the rebuild.
    pub fn restore(snapshot: &VaultSnapshot, seal_key: SealKey) -> Result<Vault, VaultError> {
        let payload = snapshot
            .sealed()
            .unseal(seal_key.derive("vault-snapshot"))?;
        let decoded = snapshot::decode(&payload)?;
        if decoded.epoch != snapshot.epoch() || decoded.num_global_nodes() != snapshot.num_nodes() {
            return Err(VaultError::Snapshot {
                reason: "snapshot metadata disagrees with its sealed payload".into(),
            });
        }
        // The clear partition stamp must agree with the sealed payload:
        // a partition image relabeled as another partition (or as a full
        // replica) is a forgery, not a routing mistake.
        let sealed_stamp = decoded.partition.as_ref().map(|maps| maps.stamp);
        if sealed_stamp != snapshot.partition() {
            return Err(VaultError::Snapshot {
                reason: "snapshot partition stamp disagrees with its sealed payload".into(),
            });
        }
        Self::install(decoded, seal_key)
    }

    /// Spawns an independent replica of this deployment by round-
    /// tripping through [`Vault::snapshot`] / [`Vault::restore`] with
    /// this vault's own seal key — the path a sharded serving runtime
    /// uses to fan one trained vault out across worker shards. The
    /// replica shares this vault's epoch (same model, same answers) but
    /// owns its own enclave, meter, and session-id space.
    ///
    /// # Errors
    ///
    /// Propagates [`Vault::restore`] failures; with a self-produced
    /// snapshot these only occur when the deployment cannot be rebuilt
    /// (e.g. the EPC budget race-changed — impossible here — or an
    /// internal encoding bug).
    pub fn spawn_replica(&self) -> Result<Vault, VaultError> {
        Self::restore(&self.snapshot(), self.seal_key)
    }

    /// Spawns `count` independent replicas from a *single* snapshot —
    /// the encode/seal pass runs once, not once per replica, so fanning
    /// a large model out across many shards costs one serialization
    /// plus `count` restores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::spawn_replica`].
    pub fn spawn_replicas(&self, count: usize) -> Result<Vec<Vault>, VaultError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let snapshot = self.snapshot();
        (0..count)
            .map(|_| Self::restore(&snapshot, self.seal_key))
            .collect()
    }

    /// Bundles a sealed snapshot of this vault's *current* model with
    /// the deployment key into a [`RecoveryHandle`], the unit a
    /// supervisor retains per worker so a crashed replica can be
    /// restored without reaching back to the original vault (which may
    /// live on another thread — or not exist any more).
    pub fn recovery_handle(&self) -> RecoveryHandle {
        RecoveryHandle::new(self.snapshot(), self.seal_key)
    }

    /// Deployment epoch of this vault: unique within the current
    /// process, minted fresh at every [`Vault::deploy`]. Serving layers
    /// key *in-memory* result caches by `(epoch, node)` so entries from
    /// a superseded deployment can never be served by a newer one.
    /// Epochs restart with the process, so a cache persisted beyond the
    /// process lifetime additionally needs a boot-unique key component.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the deployed (real) graph; valid query ids
    /// for [`Vault::infer_node`] / [`Vault::infer_batch`] are
    /// `0..num_nodes`. Not a secret: the untrusted world already knows
    /// it from the feature matrix it runs the backbone on. A partition
    /// replica still reports the *global* count — its corpus and query
    /// id space are shared with every other partition — even though it
    /// only answers its owned subset.
    pub fn num_nodes(&self) -> usize {
        match &self.partition {
            Some(p) => p.num_global_nodes,
            None => self.real_graph.num_nodes(),
        }
    }

    /// `Some((part, parts))` on a partition replica, `None` on a full
    /// vault. Public routing metadata.
    pub fn partition_info(&self) -> Option<(usize, usize)> {
        self.partition
            .as_ref()
            .map(|p| (p.stamp.part(), p.stamp.parts()))
    }

    /// The global node ids a partition replica answers (`None` on a
    /// full vault, which answers everything). Ownership is a pure
    /// function of the node id — not derived from private edges — so
    /// exposing the list leaks nothing about the private graph.
    pub fn owned_nodes(&self) -> Option<&[usize]> {
        self.partition.as_ref().map(|p| p.owned.as_slice())
    }

    /// Bytes currently allocated inside the enclave (resident set plus
    /// any live transients). Serving tests use it to prove failed
    /// batches roll their transient allocations back.
    pub fn enclave_in_use_bytes(&self) -> usize {
        self.enclave.current_usage()
    }

    /// Opens a new enclave session for batched inference
    /// ([`Vault::infer_batch`]): a long-lived ingress channel a serving
    /// worker reuses across batches. Session ids are unique per vault.
    pub fn open_session(&mut self) -> EnclaveSession {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        EnclaveSession::new(id)
    }

    /// Chooses the form this vault's projection weights are sealed in
    /// (see [`Precision`]). Idempotent.
    ///
    /// The first move to [`Precision::Int8`] snaps every projection
    /// weight, backbone and rectifier, onto its int8 grid once —
    /// `w ← dequantize(quantize(w))` — so the vault answers exactly as
    /// every replica restored from its (62 % smaller) snapshots will,
    /// and those replicas re-seal to identical bytes
    /// (`quantize∘dequantize` is a fixed point of the grid; see
    /// [`linalg::QuantizedMatrix`]). Inference stays the f32 path and
    /// the enclave ledger does not move.
    ///
    /// That snap is the one lossy step: moving back to
    /// [`Precision::F32`] changes only the sealed form — snapshots
    /// grow back to f32 size, answers stay those of the grid weights.
    /// The trained f32 weights are not retained; redeploy the trained
    /// model to get them back.
    ///
    /// # Errors
    ///
    /// Infallible now that no enclave re-accounting is involved; the
    /// `Result` is the signature existing callers compile against.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), VaultError> {
        if precision == Precision::Int8 && self.precision != Precision::Int8 {
            snapshot::snap_to_int8_grid(&mut self.backbone, &mut self.rectifier);
        }
        self.precision = precision;
        Ok(())
    }

    /// The form this vault's projection weights are sealed in.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Rejects a query the vault cannot answer: a node id outside the
    /// deployment, or — on a partition replica — a node another
    /// partition owns. The latter is a routing error the caller must
    /// surface, not a silent wrong answer.
    fn check_query(&self, nodes: &[usize]) -> Result<(), VaultError> {
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.num_nodes()) {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "query node {bad} out of range for {} nodes",
                    self.num_nodes()
                ),
            });
        }
        if let Some(p) = &self.partition {
            if let Some(&node) = nodes.iter().find(|&&n| !p.owns(n)) {
                return Err(VaultError::NotOwned {
                    node,
                    part: p.stamp.part(),
                    parts: p.stamp.parts(),
                });
            }
        }
        Ok(())
    }

    /// Opens one inference's accounting: a reset meter and the
    /// transition count [`Vault::finish_report`] takes the delta from.
    fn begin_report(&self) -> (Meter, u64) {
        let meter = self.enclave.meter();
        meter.reset();
        (meter, self.enclave.transitions())
    }

    /// Closes one inference's accounting into its report.
    fn finish_report(
        &self,
        meter: &Meter,
        transitions_before: u64,
        transferred_bytes: usize,
    ) -> InferenceReport {
        let breakdown = meter.breakdown();
        let get = |phase: Phase| breakdown.get(&phase).copied().unwrap_or_default();
        InferenceReport {
            backbone_ns: get(Phase::Backbone).total_ns(),
            transfer_ns: get(Phase::Transfer).total_ns(),
            rectifier_ns: get(Phase::Enclave).total_ns() + get(Phase::PageSwap).total_ns(),
            transferred_bytes,
            transitions: self.enclave.transitions() - transitions_before,
            peak_enclave_bytes: self.enclave.peak_usage(),
        }
    }

    /// Total enclave transitions (ECALLs) charged over the vault's
    /// lifetime — the counter behind each report's per-call
    /// [`InferenceReport::transitions`] delta. Serving tests use it to
    /// prove cache hits never re-enter the enclave.
    pub fn enclave_transitions(&self) -> u64 {
        self.enclave.transitions()
    }

    /// The public backbone (the attacker-visible half).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The rectifier's communication scheme.
    pub fn rectifier_kind(&self) -> crate::RectifierKind {
        self.rectifier.kind()
    }

    /// Parameter count inside the enclave (`θrec`).
    pub fn rectifier_param_count(&self) -> usize {
        self.rectifier.param_count()
    }

    /// Peak enclave memory so far (Fig. 6 bottom).
    pub fn peak_enclave_bytes(&self) -> usize {
        self.enclave.peak_usage()
    }

    /// Labels of the sealed at-rest artifacts.
    pub fn sealed_artifact_labels(&self) -> Vec<&str> {
        self.sealed_artifacts
            .iter()
            .map(|(l, _)| l.as_str())
            .collect()
    }

    /// Shared meter handle (accumulates across inferences).
    pub fn meter(&self) -> Meter {
        self.enclave.meter()
    }

    /// Runs one full-graph inference through the split pipeline and
    /// returns per-node class labels plus the timing report.
    ///
    /// Step by step (Fig. 6's decomposition):
    /// 1. backbone forward in the untrusted world (wall-clock metered),
    /// 2. tap embeddings encoded and sent over the one-way channel
    ///    (simulated marshalling cost),
    /// 3. rectifier forward inside the enclave (wall-clock metered,
    ///    transient activations accounted against the EPC),
    /// 4. argmax inside the enclave; only [`ClassLabel`]s exit.
    ///
    /// # Errors
    ///
    /// Propagates backbone/rectifier failures and enclave memory
    /// rejections.
    pub fn infer(
        &mut self,
        features: &DenseMatrix,
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        if let Some(p) = &self.partition {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "partition replica {}/{} answers only its owned nodes; \
                     use infer_batch or infer_node",
                    p.stamp.part(),
                    p.stamp.parts()
                ),
            });
        }
        // Full-graph inference is one batch on a channel nobody reuses.
        let mut one_shot = EnclaveSession::new(SessionId::default());
        let (classes, report) = self.full_pass(&mut one_shot, features)?;
        Ok((classes.into_iter().map(ClassLabel).collect(), report))
    }

    /// Runs one batched inference for `nodes` through an open enclave
    /// session, amortizing one enclave transition set per *batch*
    /// instead of one per queried node.
    ///
    /// The split pipeline runs exactly once for the whole batch: one
    /// backbone forward in the untrusted world (on the shared `linalg`
    /// pool), one tap-set transfer through the session's reusable
    /// channel, one rectifier pass inside the enclave with its transient
    /// activations allocated (and accounted) once, and label-only egress
    /// for exactly the queried nodes. Because the enclave computation is
    /// the same full-graph rectification as [`Vault::infer`], the
    /// returned labels are bit-identical to running `infer` and reading
    /// the queried rows — batching changes cost, never answers.
    ///
    /// The report's [`InferenceReport::transitions`] is the per-batch
    /// delta, so `transitions / nodes.len()` is the per-node ECALL cost
    /// a serving layer is trying to drive down.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] on an empty batch or an
    /// out-of-range node id; otherwise propagates the same failures as
    /// [`Vault::infer`].
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnvault::{Backbone, Rectifier, RectifierKind, SubstituteKind, Vault};
    /// use linalg::DenseMatrix;
    /// use nn::TrainConfig;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let x = DenseMatrix::from_rows(&[
    ///     &[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[0.1, 0.9],
    /// ])?;
    /// let labels = vec![0, 0, 1, 1];
    /// let real = graph::Graph::from_edges(4, &[(0, 1), (2, 3)])?;
    /// let cfg = TrainConfig { epochs: 15, dropout: 0.0, ..Default::default() };
    /// let backbone = Backbone::train(
    ///     &x, &labels, &[0, 1, 2, 3], SubstituteKind::Knn { k: 1 },
    ///     &[4, 2], real.num_edges(), &cfg, 1,
    /// )?;
    /// let mut rectifier = Rectifier::new(
    ///     RectifierKind::Series, &[4, 2], &backbone.channel_dims(), 2,
    /// )?;
    /// let real_adj = graph::normalization::gcn_normalize(&real);
    /// let embs = backbone.embeddings(&x)?;
    /// rectifier.fit(&real_adj, &embs, &labels, &[0, 1, 2, 3], &cfg)?;
    /// let mut vault = Vault::deploy(
    ///     backbone, rectifier, &real, tee::SGX_EPC_BYTES,
    ///     tee::CostModel::default(), tee::OverBudgetPolicy::Fail, tee::SealKey(1),
    /// )?;
    ///
    /// // One session, reused across batches; one transition set per batch.
    /// let mut session = vault.open_session();
    /// let (batch_labels, report) = vault.infer_batch(&mut session, &x, &[0, 3, 0])?;
    /// assert_eq!(batch_labels.len(), 3);
    /// assert_eq!(batch_labels[0], batch_labels[2], "same node, same label");
    /// assert!(report.transitions >= 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn infer_batch(
        &mut self,
        session: &mut EnclaveSession,
        features: &DenseMatrix,
        nodes: &[usize],
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        if nodes.is_empty() {
            return Err(VaultError::InvalidConfig {
                reason: "empty batch: at least one query node is required".into(),
            });
        }
        self.check_query(nodes)?;
        let (classes, report) = self.full_pass(session, features)?;
        // Label-only egress for exactly the queried nodes (global ids
        // translate to closure rows on a partition replica).
        let labels = match &self.partition {
            Some(p) => nodes
                .iter()
                .map(|&n| {
                    let local = p.local_id(n).expect("ownership was validated above");
                    ClassLabel(classes[local])
                })
                .collect(),
            None => nodes.iter().map(|&n| ClassLabel(classes[n])).collect(),
        };
        Ok((labels, report))
    }

    /// One pass of the split pipeline over everything this vault holds
    /// — the body of both [`Vault::infer`] and [`Vault::infer_batch`],
    /// which differ only in which rows they let out. Returns the
    /// predicted class of every row of the vault's graph (global ids on
    /// a full vault, closure-local ids on a partition replica); the
    /// callers wrap the ones they release in [`ClassLabel`] — logits
    /// never leave.
    fn full_pass(
        &mut self,
        session: &mut EnclaveSession,
        features: &DenseMatrix,
    ) -> Result<(Vec<usize>, InferenceReport), VaultError> {
        let (meter, transitions_before) = self.begin_report();

        // 1. One public backbone forward in the untrusted world.
        let embeddings = meter.time(Phase::Backbone, || self.backbone.embeddings(features))?;

        // 2. One-way transfer of exactly the tapped embeddings, through
        //    the session's channel.
        let taps = self.rectifier.tap_indices();
        session.begin_batch();
        for &t in &taps {
            session.send(&mut self.enclave, codec::encode_dense(&embeddings[t]))?;
        }
        let transferred_bytes = session.batch_bytes();
        let payloads = session.drain();
        let enclave_embeddings = Self::decode_tap_embeddings(&taps, &payloads, &embeddings)?;

        // Partition replica: select the closure's rows *inside* the
        // enclave. The untrusted world ships the same full tap set as
        // always — halo membership is derived from the private edges
        // and never crosses the boundary.
        let enclave_embeddings = match &self.partition {
            Some(p) => {
                let mut local = Vec::with_capacity(enclave_embeddings.len());
                for e in &enclave_embeddings {
                    local.push(e.select_rows(&p.local_ids)?);
                }
                local
            }
            None => enclave_embeddings,
        };

        // 3. One rectifier pass inside the enclave; transient
        //    activations are allocated (and EPC-accounted) once, not
        //    once per query, and freed even when the forward fails — a
        //    long-lived serving enclave must not leak EPC on a failed
        //    batch. On a partition replica the buffers shrink to the
        //    closure's row count.
        let forward_rows = match &self.partition {
            Some(p) => p.local_ids.len(),
            None => features.rows(),
        };
        let transient = self.alloc_transient_activations(forward_rows)?;
        let forward_result = self
            .enclave
            .run(|| self.rectifier.forward(&self.real_adj, &enclave_embeddings));
        for id in transient {
            self.enclave.free(id)?;
        }
        let forward = forward_result?;

        // 4. Argmax inside the enclave.
        let classes = linalg::ops::argmax_rows(forward.logits());
        let report = self.finish_report(&meter, transitions_before, transferred_bytes);
        Ok((classes, report))
    }

    /// Decodes world-crossing tap payloads back into the full embedding
    /// list the rectifier wiring expects. Non-tapped slots are never
    /// read, so zero-row placeholders stand in; slots a shallow-backbone
    /// fallback rule could touch are padded to full height.
    fn decode_tap_embeddings<P: AsRef<[u8]>>(
        taps: &[usize],
        payloads: &[P],
        embeddings: &[DenseMatrix],
    ) -> Result<Vec<DenseMatrix>, VaultError> {
        let mut enclave_embeddings: Vec<DenseMatrix> = embeddings
            .iter()
            .map(|e| DenseMatrix::zeros(0, e.cols()))
            .collect();
        for (&t, payload) in taps.iter().zip(payloads) {
            enclave_embeddings[t] = codec::decode_dense(payload.as_ref())?;
        }
        for (slot, original) in enclave_embeddings.iter_mut().zip(embeddings) {
            if slot.rows() == 0 && original.rows() != 0 {
                *slot = DenseMatrix::zeros(original.rows(), original.cols());
            }
        }
        Ok(enclave_embeddings)
    }

    /// Accounts the rectifier's transient per-layer activation buffers
    /// for an `n`-row forward against the EPC, returning the allocation
    /// ids to free once logits have been produced. On a mid-sequence
    /// rejection the already-made allocations are rolled back, so a
    /// failed inference leaves the enclave ledger exactly as it found
    /// it.
    fn alloc_transient_activations(&mut self, n: usize) -> Result<Vec<AllocationId>, VaultError> {
        let mut transient = Vec::new();
        for (in_dim, out_dim) in self
            .rectifier
            .input_dims()
            .into_iter()
            .zip(self.rectifier.channel_dims())
        {
            match self.enclave.alloc(
                "layer activation",
                n * (in_dim + out_dim) * std::mem::size_of::<f32>(),
            ) {
                Ok(id) => transient.push(id),
                Err(e) => {
                    // Fresh ids: free cannot fail here.
                    for id in transient {
                        let _ = self.enclave.free(id);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(transient)
    }

    /// Answers a single-node query (the threat model's query interface).
    ///
    /// The untrusted world still computes and ships the tap embeddings
    /// (it cannot know which rows matter — the neighbourhood is
    /// private); *inside* the enclave, the node's k-hop ego graph is
    /// extracted (k = rectifier depth), normalized with the original
    /// degrees so the centre's embedding is exact, and only that
    /// subgraph is rectified. Enclave compute and transient memory
    /// shrink to the neighbourhood size.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when `node` is out of
    /// range; otherwise propagates the same failures as
    /// [`Vault::infer`].
    pub fn infer_node(
        &mut self,
        features: &DenseMatrix,
        node: usize,
    ) -> Result<(ClassLabel, InferenceReport), VaultError> {
        self.check_query(&[node])?;
        let (meter, transitions_before) = self.begin_report();

        let embeddings = meter.time(Phase::Backbone, || self.backbone.embeddings(features))?;
        let taps = self.rectifier.tap_indices();
        let mut channel = UntrustedToEnclave::new();
        for &t in &taps {
            channel.send(&mut self.enclave, codec::encode_dense(&embeddings[t]))?;
        }
        let transferred_bytes = channel.total_bytes();
        let payloads = channel.drain();

        // --- enclave side: ego extraction + subgraph rectification ---
        let hops = self.rectifier.num_layers();
        let partition = self.partition.as_ref();
        let label = self.enclave.run(|| -> Result<ClassLabel, VaultError> {
            // On a partition replica the ego expansion runs on the
            // local closure. Distances up to `hops` agree with the
            // full graph because the closure spans the owned set's
            // whole receptive field.
            let center = match partition {
                Some(p) => p.local_id(node).expect("ownership was validated above"),
                None => node,
            };
            let ego = graph::subgraph::ego_graph(&self.real_graph, center, hops)?;
            let degrees: Vec<usize> = match partition {
                Some(p) => ego
                    .original_ids
                    .iter()
                    .map(|&l| p.original_degrees[l])
                    .collect(),
                None => ego.original_degrees.clone(),
            };
            let ego_adj = graph::normalization::gcn_normalize_with_degrees(&ego.graph, &degrees);
            // Rows to pull from the full decoded tap payloads are
            // *global* ids; a partition's ego ids are local.
            let global_rows: Vec<usize> = match partition {
                Some(p) => ego.original_ids.iter().map(|&l| p.local_ids[l]).collect(),
                None => ego.original_ids.clone(),
            };
            let mut ego_embeddings: Vec<DenseMatrix> = embeddings
                .iter()
                .map(|e| DenseMatrix::zeros(ego.graph.num_nodes(), e.cols()))
                .collect();
            for (&t, payload) in taps.iter().zip(&payloads) {
                let full = codec::decode_dense(payload)?;
                ego_embeddings[t] = full.select_rows(&global_rows)?;
            }
            let forward = self.rectifier.forward(&ego_adj, &ego_embeddings)?;
            let preds = linalg::ops::argmax_rows(forward.logits());
            Ok(ClassLabel(preds[ego.center]))
        })?;

        let report = self.finish_report(&meter, transitions_before, transferred_bytes);
        Ok((label, report))
    }
}

/// A self-contained recipe for rebuilding one vault replica: a sealed
/// [`VaultSnapshot`] plus the deployment [`SealKey`] it was sealed
/// under.
///
/// This is the retention unit of a supervised serving runtime: each
/// worker keeps the handle of the model it is currently serving, so a
/// crashed replica can be restored in place ([`RecoveryHandle::restore`])
/// and a failed hot-swap can roll back to the previously installed
/// epoch — without reaching back to the original vault, which may be
/// owned by another thread or already gone. The snapshot is shared
/// behind an [`Arc`], so cloning a handle (e.g. keeping the previous
/// epoch for rollback) does not copy the sealed payload.
///
/// The seal key inside is deployment-secret material; `Debug` redacts
/// it.
#[derive(Clone)]
pub struct RecoveryHandle {
    snapshot: Arc<VaultSnapshot>,
    seal_key: SealKey,
}

impl RecoveryHandle {
    /// Wraps a snapshot and the key it was sealed under.
    pub fn new(snapshot: VaultSnapshot, seal_key: SealKey) -> Self {
        Self::from_shared(Arc::new(snapshot), seal_key)
    }

    /// Like [`RecoveryHandle::new`], but reuses an already-shared
    /// snapshot (no payload copy).
    pub fn from_shared(snapshot: Arc<VaultSnapshot>, seal_key: SealKey) -> Self {
        Self { snapshot, seal_key }
    }

    /// The epoch this handle restores to.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Number of nodes in the snapshotted deployment.
    pub fn num_nodes(&self) -> usize {
        self.snapshot.num_nodes()
    }

    /// Rebuilds a fresh replica from the retained snapshot — the
    /// supervisor's restart path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::restore`].
    pub fn restore(&self) -> Result<Vault, VaultError> {
        Vault::restore(&self.snapshot, self.seal_key)
    }
}

impl std::fmt::Debug for RecoveryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryHandle")
            .field("epoch", &self.snapshot.epoch())
            .field("num_nodes", &self.snapshot.num_nodes())
            .field("seal_key", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RectifierKind, SubstituteKind};
    use nn::TrainConfig;

    fn toy_vault(kind: RectifierKind) -> (Vault, DenseMatrix, Vec<usize>) {
        toy_vault_with_budget(kind, tee::SGX_EPC_BYTES)
    }

    fn toy_vault_with_budget(
        kind: RectifierKind,
        epc_budget: usize,
    ) -> (Vault, DenseMatrix, Vec<usize>) {
        let x = DenseMatrix::from_rows(&[
            &[1.0, 0.0],
            &[0.9, 0.1],
            &[1.0, 0.2],
            &[0.0, 1.0],
            &[0.1, 0.9],
            &[0.2, 1.0],
        ])
        .unwrap();
        let labels = vec![0, 0, 0, 1, 1, 1];
        let train = vec![0, 1, 3, 4];
        let real = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let backbone = Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Knn { k: 2 },
            &[8, 4, 2],
            real.num_edges(),
            &cfg,
            1,
        )
        .unwrap();
        let mut rectifier = Rectifier::new(kind, &[8, 4, 2], &backbone.channel_dims(), 2).unwrap();
        let real_adj = graph::normalization::gcn_normalize(&real);
        let embs = backbone.embeddings(&x).unwrap();
        rectifier
            .fit(&real_adj, &embs, &labels, &train, &cfg)
            .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            &real,
            epc_budget,
            CostModel::default(),
            OverBudgetPolicy::Fail,
            SealKey(7),
        )
        .unwrap();
        (vault, x, labels)
    }

    #[test]
    fn infer_returns_labels_and_report() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, labels) = toy_vault(kind);
            let (preds, report) = vault.infer(&x).unwrap();
            assert_eq!(preds.len(), 6, "{kind:?}");
            let acc = preds.iter().zip(&labels).filter(|(p, &l)| p.0 == l).count() as f32 / 6.0;
            assert!(acc >= 0.5, "{kind:?} acc {acc}");
            assert!(report.transferred_bytes > 0);
            assert!(report.transfer_ns > 0);
            assert!(report.peak_enclave_bytes > 0);
            assert_eq!(
                report.transitions,
                vault.rectifier.tap_indices().len() as u64
            );
        }
    }

    #[test]
    fn series_transfers_fewest_bytes() {
        let (mut parallel, x, _) = toy_vault(RectifierKind::Parallel);
        let (mut cascaded, _, _) = toy_vault(RectifierKind::Cascaded);
        let (mut series, _, _) = toy_vault(RectifierKind::Series);
        let (_, rp) = parallel.infer(&x).unwrap();
        let (_, rc) = cascaded.infer(&x).unwrap();
        let (_, rs) = series.infer(&x).unwrap();
        assert!(rs.transferred_bytes < rp.transferred_bytes);
        assert!(rs.transferred_bytes < rc.transferred_bytes);
    }

    #[test]
    fn deploy_seals_artifacts_and_accounts_memory() {
        let (vault, _, _) = toy_vault(RectifierKind::Series);
        let labels = vault.sealed_artifact_labels();
        assert!(labels.contains(&"rectifier-shape"));
        assert!(labels.contains(&"real-graph-coo"));
        assert!(vault.peak_enclave_bytes() > 0);
        assert!(vault.rectifier_param_count() > 0);
    }

    #[test]
    fn infer_node_matches_full_graph_inference() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let (full_labels, _) = vault.infer(&x).unwrap();
            #[allow(clippy::needless_range_loop)] // node is also the query argument
            for node in 0..x.rows() {
                let (label, report) = vault.infer_node(&x, node).unwrap();
                assert_eq!(
                    label, full_labels[node],
                    "{kind:?}: node {node} ego-query disagrees with full inference"
                );
                assert!(report.transferred_bytes > 0);
            }
        }
    }

    #[test]
    fn infer_batch_matches_per_node_infer() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let (full, _) = vault.infer(&x).unwrap();
            let mut session = vault.open_session();
            let nodes: Vec<usize> = (0..x.rows()).collect();
            let (batched, report) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
            assert_eq!(batched, full, "{kind:?}: batch must equal full inference");
            assert_eq!(
                report.transitions,
                vault.rectifier.tap_indices().len() as u64,
                "{kind:?}: one transition per tap per batch"
            );
            // Duplicate and subset queries read the same logits.
            let (dup, _) = vault.infer_batch(&mut session, &x, &[2, 2, 5]).unwrap();
            assert_eq!(dup, vec![full[2], full[2], full[5]], "{kind:?}");
            assert_eq!(session.batches_served(), 2);
        }
    }

    #[test]
    fn batch_amortizes_transitions_over_per_node_queries() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Cascaded);
        let mut per_node_total = 0;
        for node in 0..x.rows() {
            let (_, r) = vault.infer_node(&x, node).unwrap();
            per_node_total += r.transitions;
        }
        let mut session = vault.open_session();
        let nodes: Vec<usize> = (0..x.rows()).collect();
        let (_, batch) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
        assert!(
            batch.transitions < per_node_total,
            "batch {} vs per-node {}",
            batch.transitions,
            per_node_total
        );
        // Per-call delta semantics: a second batch on the same session
        // charges the same amount again, not a cumulative total.
        let (_, second) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
        assert_eq!(second.transitions, batch.transitions);
        assert_eq!(
            vault.enclave_transitions(),
            per_node_total + 2 * batch.transitions
        );
    }

    #[test]
    fn infer_batch_rejects_empty_and_out_of_range() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let mut session = vault.open_session();
        assert!(matches!(
            vault.infer_batch(&mut session, &x, &[]),
            Err(VaultError::InvalidConfig { .. })
        ));
        assert!(matches!(
            vault.infer_batch(&mut session, &x, &[0, 99]),
            Err(VaultError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn failed_inference_rolls_back_transient_allocations() {
        // Measure the resident set, then redeploy with just enough
        // headroom for the first transient activation but not the
        // second — the mid-sequence rejection path.
        let (probe, x, _) = toy_vault(RectifierKind::Series);
        let resident = probe.enclave_in_use_bytes();
        let dims: Vec<(usize, usize)> = probe
            .rectifier
            .input_dims()
            .into_iter()
            .zip(probe.rectifier.channel_dims())
            .collect();
        let first_transient = x.rows() * (dims[0].0 + dims[0].1) * std::mem::size_of::<f32>();
        drop(probe);

        let (mut tight, x, _) =
            toy_vault_with_budget(RectifierKind::Series, resident + first_transient + 16);
        let before = tight.enclave_in_use_bytes();
        assert_eq!(before, resident, "deployments are deterministic");

        let mut session = tight.open_session();
        for _ in 0..3 {
            assert!(matches!(
                tight.infer_batch(&mut session, &x, &[0]),
                Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
            ));
            assert_eq!(
                tight.enclave_in_use_bytes(),
                before,
                "failed batches must not leak enclave memory"
            );
        }
        assert!(tight.infer(&x).is_err());
        assert_eq!(tight.enclave_in_use_bytes(), before);
    }

    #[test]
    fn spawn_replicas_shares_one_snapshot_and_answers_identically() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let (labels, _) = vault.infer(&x).unwrap();
        let replicas = vault.spawn_replicas(2).unwrap();
        assert_eq!(replicas.len(), 2);
        for mut replica in replicas {
            assert_eq!(replica.epoch(), vault.epoch(), "same model, same epoch");
            let (replica_labels, _) = replica.infer(&x).unwrap();
            assert_eq!(replica_labels, labels);
        }
        assert!(vault.spawn_replicas(0).unwrap().is_empty());
    }

    #[test]
    fn recovery_handle_restores_a_bit_identical_replica() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        let (labels, _) = vault.infer(&x).unwrap();
        let handle = vault.recovery_handle();
        assert_eq!(handle.epoch(), vault.epoch());
        assert_eq!(handle.num_nodes(), vault.num_nodes());
        // Cloning shares the sealed payload; both handles restore.
        let retained = handle.clone();
        for h in [handle, retained] {
            let mut revived = h.restore().unwrap();
            assert_eq!(revived.epoch(), vault.epoch());
            let (revived_labels, _) = revived.infer(&x).unwrap();
            assert_eq!(revived_labels, labels);
        }
        let debug = format!("{:?}", vault.recovery_handle());
        assert!(debug.contains("<redacted>"), "seal key must not leak");
        assert!(!debug.contains("SealKey(7"), "seal key must not leak");
    }

    #[test]
    fn epochs_and_session_ids_are_unique() {
        let (mut v1, _, _) = toy_vault(RectifierKind::Series);
        let (v2, _, _) = toy_vault(RectifierKind::Series);
        assert_ne!(v1.epoch(), v2.epoch());
        assert!(v1.epoch() > 0 && v2.epoch() > 0);
        let s0 = v1.open_session();
        let s1 = v1.open_session();
        assert_ne!(s0.id(), s1.id());
    }

    #[test]
    fn infer_node_rejects_out_of_range() {
        let (mut vault, x, _) = toy_vault(RectifierKind::Series);
        assert!(matches!(
            vault.infer_node(&x, 999),
            Err(VaultError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn tiny_epc_budget_rejects_deployment() {
        let x = DenseMatrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let labels = vec![0usize, 1];
        let real = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let backbone = Backbone::train(
            &x,
            &labels,
            &[0, 1],
            SubstituteKind::Knn { k: 1 },
            &[4, 2],
            1,
            &cfg,
            0,
        )
        .unwrap();
        let rectifier =
            Rectifier::new(RectifierKind::Series, &[4, 2], &backbone.channel_dims(), 0).unwrap();
        let result = Vault::deploy(
            backbone,
            rectifier,
            &real,
            16, // absurdly small EPC
            CostModel::free(),
            OverBudgetPolicy::Fail,
            SealKey(0),
        );
        assert!(matches!(
            result,
            Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
        ));
    }

    #[test]
    fn set_precision_selects_the_sealed_form_only() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            assert_eq!(vault.precision(), Precision::F32);
            vault.infer(&x).unwrap();
            let resident = vault.enclave_in_use_bytes();
            let peak = vault.peak_enclave_bytes();
            let f32_sealed = vault.snapshot().sealed_nbytes();

            // Int8 is a storage form: the enclave ledger does not move,
            // the seal shrinks.
            vault.set_precision(Precision::Int8).unwrap();
            assert_eq!(vault.precision(), Precision::Int8);
            assert_eq!(vault.enclave_in_use_bytes(), resident, "{kind:?}");
            let int8_snapshot = vault.snapshot();
            assert!(
                int8_snapshot.sealed_nbytes() < f32_sealed,
                "{kind:?}: int8 seals {} bytes, f32 {f32_sealed}",
                int8_snapshot.sealed_nbytes()
            );
            // Idempotent: the weights are on the grid already.
            vault.set_precision(Precision::Int8).unwrap();
            assert_eq!(vault.snapshot(), int8_snapshot, "{kind:?}");

            // Every query path runs the one forward pass over the same
            // grid weights.
            let (int8_labels, _) = vault.infer(&x).unwrap();
            let (node0, _) = vault.infer_node(&x, 0).unwrap();
            assert_eq!(node0, int8_labels[0], "{kind:?}");
            let mut session = vault.open_session();
            let nodes: Vec<usize> = (0..x.rows()).collect();
            let (batched, _) = vault.infer_batch(&mut session, &x, &nodes).unwrap();
            assert_eq!(batched, int8_labels, "{kind:?}");
            assert_eq!(vault.enclave_in_use_bytes(), resident, "{kind:?}");
            assert_eq!(vault.peak_enclave_bytes(), peak, "{kind:?}");

            // Back to F32 changes the sealed form and nothing else: the
            // answers stay those of the grid weights.
            vault.set_precision(Precision::F32).unwrap();
            assert_eq!(vault.precision(), Precision::F32);
            assert_eq!(vault.snapshot().sealed_nbytes(), f32_sealed, "{kind:?}");
            let (back, _) = vault.infer(&x).unwrap();
            assert_eq!(back, int8_labels, "{kind:?}");
            let mut replica = Vault::restore(&vault.snapshot(), SealKey(7)).unwrap();
            assert_eq!(replica.precision(), Precision::F32);
            assert_eq!(replica.infer(&x).unwrap().0, int8_labels, "{kind:?}");
        }
    }

    #[test]
    fn int8_snapshot_restores_bit_identical_and_seals_smaller() {
        for kind in RectifierKind::ALL {
            let (mut vault, x, _) = toy_vault(kind);
            let f32_snapshot = vault.snapshot();
            vault.set_precision(Precision::Int8).unwrap();
            let snapshot = vault.snapshot();
            assert!(
                snapshot.sealed_nbytes() < f32_snapshot.sealed_nbytes(),
                "{kind:?}: int8 snapshot seals {} bytes, f32 {}",
                snapshot.sealed_nbytes(),
                f32_snapshot.sealed_nbytes()
            );
            let (labels, _) = vault.infer(&x).unwrap();

            let mut replica = Vault::restore(&snapshot, SealKey(7)).unwrap();
            assert_eq!(replica.precision(), Precision::Int8);
            assert_eq!(replica.epoch(), vault.epoch());
            let (replica_labels, _) = replica.infer(&x).unwrap();
            assert_eq!(
                replica_labels, labels,
                "{kind:?}: int8 replica must answer bit-identically"
            );
            // The replica's weights are the grid's, which re-quantize
            // to the same codes, so it seals the identical bytes —
            // replicas of replicas stay coherent.
            assert_eq!(replica.snapshot(), snapshot, "{kind:?}");
            // The recovery path preserves the precision too.
            let mut revived = replica.recovery_handle().restore().unwrap();
            assert_eq!(revived.precision(), Precision::Int8);
            let (revived_labels, _) = revived.infer(&x).unwrap();
            assert_eq!(revived_labels, labels, "{kind:?}");
        }
    }
}
