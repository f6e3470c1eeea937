use crate::snapshot::{self, Deployment};
use crate::{Backbone, Rectifier, SnapshotPartition, VaultError, VaultSnapshot};
use graph::partition::PartitionSpec;
use graph::subgraph::{self, Closure};
use graph::Graph;
use linalg::{CsrMatrix, DenseMatrix};
use nn::Input;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tee::{
    codec, AllocationId, ClassLabel, CostModel, EnclaveSession, EnclaveSim, OverBudgetPolicy,
    SealKey,
};

/// Process-wide deployment counter behind [`Vault::epoch`]: every
/// deployment in this process gets a distinct epoch, so in-memory
/// caches keyed by epoch can never mix answers from two deployments.
/// The counter restarts with the process — a cache that outlives the
/// process (disk, remote) must add its own boot-unique component.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Per-inference report: the Fig. 6 measurables.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Backbone time (wall clock, untrusted world).
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
/// ([`linalg::QuantizedMatrix`]) instead of f32 — 948,550 → 361,406
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
/// Every query runs the one split pipeline: backbone in the normal
/// world, tap embeddings marshalled one-way into the enclave, rectifier
/// inside, and *label-only* output ([`ClassLabel`]) — logits never
/// leave. The three entry points differ only in which nodes they ask
/// about and in the `Field` the enclave rectifies to answer them:
/// [`Vault::infer`] asks for every node and [`Vault::infer_batch`] for
/// a batch (through a reusable [`EnclaveSession`]; the `serve` crate
/// builds its admission queue, caching, and scheduling on top of it),
/// both over everything resident; [`Vault::infer_node`] — the threat
/// model's "query the GNN model with any chosen node" — rectifies only
/// the node's receptive field, extracted *inside the enclave* so the
/// private neighbourhood never leaves.
///
/// # Examples
///
/// See [`crate::pipeline`] for end-to-end construction; the integration
/// tests in `tests/` exercise `Vault` directly.
#[derive(Debug)]
pub struct Vault {
    backbone: Backbone,
    epoch: u64,
    /// Node count of the whole deployment — the query id space, which
    /// on a partition replica is not the resident graph's.
    num_nodes: usize,
    epc_budget: usize,
    policy: OverBudgetPolicy,
    /// `Some` on a partition replica: `resident` is then one
    /// partition's closure and queries are answerable only for the
    /// block of ids the stamp owns.
    partition: Option<SnapshotPartition>,
    // --- enclave-private state (never exposed by any accessor) ---
    rectifier: Rectifier,
    /// The sealed form of the projection weights; under `Int8` the
    /// weights above already sit on the int8 grid.
    precision: Precision,
    /// The private graph state: the whole real graph on a full vault,
    /// one partition's closure on a partition replica — either way the
    /// graph, its rows' global ids, and their full-graph degrees.
    resident: Closure,
    /// The rectifier's operator over all of `resident`, built once.
    real_adj: CsrMatrix,
    enclave: EnclaveSim,
    seal_key: SealKey,
}

impl Vault {
    /// Deploys a trained backbone/rectifier pair.
    ///
    /// The rectifier and the real graph are accounted inside the
    /// enclave: parameters, the COO edge list, the precomputed degree
    /// vector, and the normalized adjacency the enclave keeps resident.
    /// Their at-rest form is the deployment's [`VaultSnapshot`], sealed
    /// under `seal_key` ([`Vault::snapshot`]).
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
            num_nodes: real_graph.num_nodes(),
            epc_budget,
            cost,
            policy,
            backbone,
            rectifier,
            precision: Precision::F32,
            resident: Closure::whole(real_graph.clone()),
            partition: None,
        };
        Self::install(fresh, seal_key)
    }

    /// Deployment body shared by [`Vault::deploy`] (fresh epoch) and
    /// [`Vault::restore`] (the snapshot's epoch, so replicas of one
    /// snapshot share a cache identity). With `partition`, `resident`
    /// is the partition's closure and normalization uses its recorded
    /// full-graph degrees — the resident set (COO, degree vector, CSR)
    /// shrinks to the closure size, which is the memory win of
    /// partitioned sharding.
    fn install(deployment: Deployment, seal_key: SealKey) -> Result<Vault, VaultError> {
        let Deployment {
            epoch,
            num_nodes,
            epc_budget,
            cost,
            policy,
            backbone,
            rectifier,
            precision,
            resident,
            partition,
        } = deployment;
        let mut enclave = EnclaveSim::new(epc_budget, cost, policy);

        // Resident enclave set, mirroring §IV-E's storage plan: the
        // rectifier parameters, the real graph's COO, its degree vector
        // and the normalized adjacency (CSR).
        enclave.alloc(rectifier.nbytes())?;
        enclave.alloc(resident.graph.coo_nbytes())?;
        enclave.alloc(resident.degrees.len() * std::mem::size_of::<u32>())?;
        let real_adj = rectifier.adjacency(&resident.graph, &resident.degrees);
        enclave.alloc(real_adj.nbytes())?;

        Ok(Vault {
            backbone,
            epoch,
            num_nodes,
            epc_budget,
            policy,
            partition,
            rectifier,
            precision,
            resident,
            real_adj,
            enclave,
            seal_key,
        })
    }

    /// Serializes this deployment into a sealed [`VaultSnapshot`]: the
    /// backbone (weights plus substitute graph), the rectifier weights,
    /// the private real graph, and the enclave configuration, sealed
    /// under a key derived from this deployment's seal key and the
    /// snapshot's clear metadata (epoch, node count, partition stamp).
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
        // A partition replica re-snapshots as a partition image, so
        // its recovery handle restores the same partial vault.
        self.seal([(self.partition, &self.resident)]).swap_remove(0)
    }

    /// Seals every partition of `spec`, element `i` partition `i`'s
    /// snapshot: the shared backbone and rectifier weights plus only
    /// that partition's private graph state — the closure of its owned
    /// block at the rectifier's receptive-field depth, the full-graph
    /// degree vector for the closure, and the induced local COO. The
    /// full-graph adjacency scan runs once for all of them, and so does
    /// encoding (and, at int8, quantizing) the shared weights. Restoring
    /// one builds a *partial* vault that answers exactly its owned
    /// block, bit-identically to this vault.
    ///
    /// The sealed payload is strictly smaller than a full snapshot
    /// whenever the closure misses part of the graph, which is the
    /// point: N partitioned shards hold ~1/N of the private state each
    /// instead of N copies.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when called on a vault
    /// that is itself a partition replica, and [`VaultError::Graph`]
    /// when `spec` does not match this deployment's node count.
    pub fn partition_snapshots(
        &self,
        spec: &PartitionSpec,
    ) -> Result<Vec<VaultSnapshot>, VaultError> {
        if self.partition.is_some() {
            return Err(VaultError::InvalidConfig {
                reason: "cannot re-partition a partition replica; partition the full vault".into(),
            });
        }
        let hops = self.rectifier.num_layers();
        let closures = graph::partition::partition(&self.resident.graph, spec, hops)?;
        let parts = spec.num_parts();
        let shares = (closures.iter().enumerate())
            .map(|(part, closure)| (Some(SnapshotPartition { part, parts }), closure));
        Ok(self.seal(shares))
    }

    /// [`Vault::partition_snapshots`] bundled with the deployment key:
    /// element `i` is the [`RecoveryHandle`] partition `i`'s shard both
    /// starts from ([`RecoveryHandle::restore`]) and retains — the
    /// partitioned analogue of [`Vault::recovery_handle`], one seal per
    /// partition over one encoding of the shared weights.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Vault::partition_snapshots`].
    pub fn partition_recovery_handles(
        &self,
        spec: &PartitionSpec,
    ) -> Result<Vec<RecoveryHandle>, VaultError> {
        Ok(self
            .partition_snapshots(spec)?
            .into_iter()
            .map(|snapshot| RecoveryHandle::new(snapshot, self.seal_key))
            .collect())
    }

    /// Seals one snapshot per share of the private graph (`resident`: a
    /// partition's closure when its `partition` is given, else the
    /// whole graph) over one encoding of this deployment's shared
    /// header — the one body behind every snapshot form.
    fn seal<'c>(
        &self,
        shares: impl IntoIterator<Item = (Option<SnapshotPartition>, &'c Closure)>,
    ) -> Vec<VaultSnapshot> {
        let header = snapshot::Header {
            epoch: self.epoch,
            num_nodes: self.num_nodes,
            epc_budget: self.epc_budget,
            cost: self.enclave.cost_model(),
            policy: self.policy,
            backbone: &self.backbone,
            rectifier: &self.rectifier,
            precision: self.precision,
        };
        snapshot::seal(self.seal_key, &header, shares)
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
    /// for a wrong key, a corrupted payload, or clear metadata (epoch,
    /// node count, partition stamp) other than the snapshot was sealed
    /// with, [`VaultError::Snapshot`] for a payload that unseals but
    /// does not decode, and the usual deployment failures
    /// (e.g. an EPC budget the resident set no longer fits) from the
    /// rebuild.
    pub fn restore(snapshot: &VaultSnapshot, seal_key: SealKey) -> Result<Vault, VaultError> {
        Self::install(snapshot::open(snapshot, seal_key)?, seal_key)
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
        self.num_nodes
    }

    /// `Some((part, parts))` on a partition replica, `None` on a full
    /// vault. Public routing metadata.
    pub fn partition_info(&self) -> Option<(usize, usize)> {
        self.partition.map(|p| (p.part, p.parts))
    }

    /// Bytes currently allocated inside the enclave (resident set plus
    /// any live transients). Serving tests use it to prove failed
    /// batches roll their transient allocations back.
    pub fn enclave_in_use_bytes(&self) -> usize {
        self.enclave.current_usage()
    }

    /// Opens a new enclave session for batched inference
    /// ([`Vault::infer_batch`]): a long-lived ingress channel a serving
    /// worker reuses across batches.
    pub fn open_session(&mut self) -> EnclaveSession {
        EnclaveSession::default()
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
    /// partition owns, by the block function the serving router routes
    /// with. The latter is a routing error the caller must surface, not
    /// a silent wrong answer.
    fn check_query(&self, nodes: &[usize]) -> Result<(), VaultError> {
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.num_nodes()) {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "query node {bad} out of range for {} nodes",
                    self.num_nodes()
                ),
            });
        }
        if let Some(SnapshotPartition { part, parts }) = self.partition {
            let spec = PartitionSpec::block(self.num_nodes, parts)?;
            if let Some(&node) = nodes.iter().find(|&&n| spec.owner_of(n) != part) {
                return Err(VaultError::NotOwned { node, part, parts });
            }
        }
        Ok(())
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

    /// Runs one full-graph inference through the split pipeline and
    /// returns per-node class labels plus the timing report.
    ///
    /// Step by step (Fig. 6's decomposition):
    /// 1. backbone forward in the untrusted world (wall-clock timed),
    /// 2. tap embeddings encoded and sent over the one-way channel
    ///    (simulated marshalling cost),
    /// 3. rectifier forward inside the enclave (wall clock plus the
    ///    slowdown surcharge, transient activations accounted against
    ///    the EPC),
    /// 4. argmax inside the enclave; only [`ClassLabel`]s exit.
    ///
    /// `features` is a `&DenseMatrix` or, for a caller that serves one
    /// corpus many times, [`NodeFeatures`](crate::NodeFeatures)
    /// prepared once: the backbone's GCN first layer then multiplies
    /// their CSR rows, with the same bits. [`Vault::infer_batch`] and
    /// [`Vault::infer_node`] take either too.
    ///
    /// # Errors
    ///
    /// Propagates backbone/rectifier failures and enclave memory
    /// rejections.
    pub fn infer<'a>(
        &mut self,
        features: impl Into<Input<'a>>,
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        if let Some(SnapshotPartition { part, parts }) = self.partition {
            return Err(VaultError::InvalidConfig {
                reason: format!(
                    "partition replica {part}/{parts} answers only its owned nodes; \
                     use infer_batch or infer_node"
                ),
            });
        }
        // Full-graph inference is one batch on a channel nobody reuses.
        let mut one_shot = EnclaveSession::default();
        let every_node: Vec<usize> = (0..self.num_nodes).collect();
        self.pass(&mut one_shot, features, &every_node, Field::Resident)
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
    pub fn infer_batch<'a>(
        &mut self,
        session: &mut EnclaveSession,
        features: impl Into<Input<'a>>,
        nodes: &[usize],
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        if nodes.is_empty() {
            return Err(VaultError::InvalidConfig {
                reason: "empty batch: at least one query node is required".into(),
            });
        }
        self.pass(session, features, nodes, Field::Resident)
    }

    /// Answers a single-node query (the threat model's query interface).
    ///
    /// The untrusted world still computes and ships the tap embeddings
    /// (it cannot know which rows matter — the neighbourhood is
    /// private); *inside* the enclave, the node's k-hop ego graph is
    /// extracted (k = rectifier depth), normalized with the original
    /// degrees so the centre's embedding is exact, and only that
    /// subgraph is rectified. Enclave compute and transient memory
    /// (accounted against the EPC like every pass's) shrink to the
    /// neighbourhood size.
    ///
    /// # Errors
    ///
    /// Returns [`VaultError::InvalidConfig`] when `node` is out of
    /// range; otherwise propagates the same failures as
    /// [`Vault::infer`].
    pub fn infer_node<'a>(
        &mut self,
        features: impl Into<Input<'a>>,
        node: usize,
    ) -> Result<(ClassLabel, InferenceReport), VaultError> {
        let mut one_shot = EnclaveSession::default();
        let (labels, report) = self.pass(&mut one_shot, features, &[node], Field::Receptive)?;
        Ok((labels[0], report))
    }

    /// One pass of the split pipeline — the body of [`Vault::infer`],
    /// [`Vault::infer_batch`] and [`Vault::infer_node`] — answering
    /// `nodes` (global ids) by rectifying `field`. Either field gives
    /// every queried node its whole receptive field and normalizes with
    /// full-graph degrees, so the labels are bit-identical between them.
    fn pass<'a>(
        &mut self,
        session: &mut EnclaveSession,
        features: impl Into<Input<'a>>,
        nodes: &[usize],
        field: Field,
    ) -> Result<(Vec<ClassLabel>, InferenceReport), VaultError> {
        self.check_query(nodes)?;
        // The report is the delta of the enclave's own counters.
        let transitions_before = self.enclave.transitions();
        let transfer_before = self.enclave.transfer_ns();
        let rectifier_before = self.enclave.enclave_ns() + self.enclave.page_swap_ns();

        // 1. One public backbone forward in the untrusted world.
        let started = Instant::now();
        let embeddings = self.backbone.embeddings(features)?;
        let backbone_ns = started.elapsed().as_nanos() as u64;

        // 2. One-way transfer of exactly the tapped embeddings, whole,
        //    through the session's channel. Which of their rows the
        //    enclave goes on to read is derived from the private edges
        //    and never crosses the boundary.
        let taps = self.rectifier.tap_indices();
        for &t in &taps {
            session.send(&mut self.enclave, codec::encode_dense(&embeddings[t]));
        }
        let transferred_bytes = session.batch_bytes();
        let payloads = session.drain();

        // 3. Inside the enclave: the global ids of the rows to rectify
        //    (ascending) and the operator over them.
        let receptive;
        let (rows, adj) = match field {
            Field::Resident => (&self.resident.ids, &self.real_adj),
            Field::Receptive => {
                receptive = self.enclave.run(|| self.receptive_field(nodes))?;
                (&receptive.0, &receptive.1)
            }
        };
        // Ascending ids that count every node are all rows in order:
        // the tap itself, no copy.
        let whole = rows.len() == self.num_nodes;
        let mut enclave_embeddings = Vec::with_capacity(embeddings.len());
        for (slot, public) in embeddings.iter().enumerate() {
            enclave_embeddings.push(match taps.iter().position(|&t| t == slot) {
                Some(i) if whole => codec::decode_dense(&payloads[i])?,
                Some(i) => codec::decode_dense(&payloads[i])?.select_rows(rows)?,
                // The wiring never reads a slot it did not tap; a
                // placeholder of the right shape stands in.
                None => DenseMatrix::zeros(rows.len(), public.cols()),
            });
        }

        // 4. One rectifier pass; transient activations are sized to the
        //    rows actually rectified, allocated (and EPC-accounted) once
        //    per pass, and freed even when the forward fails — a
        //    long-lived serving enclave must not leak EPC on a failed
        //    batch.
        let transient =
            Self::alloc_transient_activations(&mut self.enclave, &self.rectifier, rows.len())?;
        let forward_result = self
            .enclave
            .run(|| self.rectifier.forward(adj, &enclave_embeddings));
        for id in transient {
            self.enclave.free(id)?;
        }

        // 5. Argmax inside the enclave; label-only egress for exactly
        //    the queried nodes.
        let activations = forward_result?;
        let logits = activations.last().expect("a rectifier has layers");
        let classes = linalg::ops::argmax_rows(logits);
        let row_of = |n| {
            rows.binary_search(n)
                .expect("a queried node is in its field")
        };
        let labels = nodes
            .iter()
            .map(|n| ClassLabel(classes[row_of(n)]))
            .collect();
        let report = InferenceReport {
            backbone_ns,
            transfer_ns: self.enclave.transfer_ns() - transfer_before,
            rectifier_ns: self.enclave.enclave_ns() + self.enclave.page_swap_ns()
                - rectifier_before,
            transferred_bytes,
            transitions: self.enclave.transitions() - transitions_before,
            peak_enclave_bytes: self.enclave.peak_usage(),
        };
        Ok((labels, report))
    }

    /// The receptive field of `nodes` inside the resident graph: their
    /// k-hop closure (k = rectifier depth) as ascending global ids,
    /// plus the rectifier's operator over it. Distances up to k agree
    /// with the full graph even on a partition replica, whose resident
    /// closure spans the owned set's whole receptive field; degrees are
    /// the resident (full-graph) ones, so every seed's output is exact.
    fn receptive_field(&self, nodes: &[usize]) -> Result<(Vec<usize>, CsrMatrix), VaultError> {
        let resident = &self.resident;
        let seeds: Vec<usize> = nodes
            .iter()
            .map(|&n| resident.local_id(n).expect("check_query admitted the node"))
            .collect();
        let field = subgraph::closure(
            &resident.graph,
            &subgraph::adjacency_lists(&resident.graph),
            &seeds,
            self.rectifier.num_layers(),
        )?;
        let degrees: Vec<usize> = field.ids.iter().map(|&l| resident.degrees[l]).collect();
        let adj = self.rectifier.adjacency(&field.graph, &degrees);
        let global_ids = field.ids.iter().map(|&l| resident.ids[l]).collect();
        Ok((global_ids, adj))
    }

    /// Accounts the rectifier's transient per-layer activation buffers
    /// for an `n`-row forward against the EPC, returning the allocation
    /// ids to free once logits have been produced. On a mid-sequence
    /// rejection the already-made allocations are rolled back, so a
    /// failed inference leaves the enclave ledger exactly as it found
    /// it.
    fn alloc_transient_activations(
        enclave: &mut EnclaveSim,
        rectifier: &Rectifier,
        n: usize,
    ) -> Result<Vec<AllocationId>, VaultError> {
        let mut transient = Vec::new();
        for (in_dim, out_dim) in rectifier
            .input_dims()
            .into_iter()
            .zip(rectifier.channel_dims())
        {
            match enclave.alloc(n * (in_dim + out_dim) * std::mem::size_of::<f32>()) {
                Ok(id) => transient.push(id),
                Err(e) => {
                    // Fresh ids: free cannot fail here.
                    for id in transient {
                        let _ = enclave.free(id);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(transient)
    }
}

/// What one [`Vault::pass`] rectifies to answer its queried nodes.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// Everything resident — the whole graph, or a partition replica's
    /// closure — over the operator built at install.
    Resident,
    /// Only the queried nodes' receptive field: their k-hop closure
    /// inside the resident graph, cut and normalized per pass.
    Receptive,
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
        Self {
            snapshot: Arc::new(snapshot),
            seal_key,
        }
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
    use nn::{ConvKind, TrainConfig};

    const CONVS: [ConvKind; 3] = [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat];

    fn toy_vault(kind: RectifierKind) -> (Vault, DenseMatrix, Vec<usize>) {
        toy_vault_with_budget(kind, tee::SGX_EPC_BYTES)
    }

    /// Two triangles, one per class.
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
        let real = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        deployed(x, &real, kind, ConvKind::Gcn, epc_budget)
    }

    /// A 24-node ring with three chords: sparse enough that a few
    /// nodes' 3-hop receptive field is a strict part of the graph.
    fn ring_vault(kind: RectifierKind, conv: ConvKind) -> (Vault, DenseMatrix, Vec<usize>) {
        let n = 24;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend([(0, 9), (4, 17), (12, 21)]);
        let real = Graph::from_edges(n, &edges).unwrap();
        let x = DenseMatrix::from_fn(n, 2, |r, c| ((r * 2 + c) as f32 * 0.7).sin());
        deployed(x, &real, kind, conv, tee::SGX_EPC_BYTES)
    }

    /// Trains and deploys a three-layer vault over `real`: the first
    /// half of the nodes is class 0, two nodes in three are training
    /// nodes.
    fn deployed(
        x: DenseMatrix,
        real: &Graph,
        kind: RectifierKind,
        conv: ConvKind,
        epc_budget: usize,
    ) -> (Vault, DenseMatrix, Vec<usize>) {
        let knn = SubstituteKind::Knn { k: 2 };
        deployed_over(x, real, knn, kind, conv, epc_budget)
    }

    /// [`deployed`] with the backbone's substitute chosen.
    fn deployed_over(
        x: DenseMatrix,
        real: &Graph,
        substitute: SubstituteKind,
        kind: RectifierKind,
        conv: ConvKind,
        epc_budget: usize,
    ) -> (Vault, DenseMatrix, Vec<usize>) {
        let n = x.rows();
        let labels: Vec<usize> = (0..n).map(|i| 2 * i / n).collect();
        let train: Vec<usize> = (0..n).filter(|i| i % 3 != 2).collect();
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
            substitute,
            &[8, 4, 2],
            real.num_edges(),
            &cfg,
            1,
        )
        .unwrap();
        let mut rectifier =
            Rectifier::new_with_conv(kind, conv, &[8, 4, 2], &backbone.channel_dims(), 2).unwrap();
        let real_adj = rectifier.preferred_adjacency(real);
        let embs = backbone.embeddings(&x).unwrap();
        rectifier
            .fit(&real_adj, &embs, &labels, &train, &cfg)
            .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            real,
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
            // Every pass ships each tap whole: one ECALL per tap, each
            // a 16-byte header plus the tap's f32s, charged at the
            // deployment's cost model.
            let dims = vault.backbone.channel_dims();
            let payloads: Vec<usize> = vault
                .rectifier
                .tap_indices()
                .iter()
                .map(|&t| 16 + 4 * x.rows() * dims[t])
                .collect();
            let cost = *vault.enclave.cost_model();
            let transfer_ns: u64 = payloads.iter().map(|&b| cost.transfer_ns(b)).sum();
            let check = |report: &InferenceReport, path: &str| {
                assert_eq!(report.transitions, payloads.len() as u64, "{kind:?} {path}");
                assert_eq!(
                    report.transferred_bytes,
                    payloads.iter().sum::<usize>(),
                    "{kind:?} {path}"
                );
                assert_eq!(report.transfer_ns, transfer_ns, "{kind:?} {path}");
                assert!(report.peak_enclave_bytes > 0, "{kind:?} {path}");
            };

            let (preds, report) = vault.infer(&x).unwrap();
            assert_eq!(preds.len(), 6, "{kind:?}");
            let acc = preds.iter().zip(&labels).filter(|(p, &l)| p.0 == l).count() as f32 / 6.0;
            assert!(acc >= 0.5, "{kind:?} acc {acc}");
            check(&report, "infer");
            let mut session = vault.open_session();
            for _ in 0..2 {
                let (_, report) = vault.infer_batch(&mut session, &x, &[0, 4]).unwrap();
                check(&report, "infer_batch");
            }
            let (_, report) = vault.infer_node(&x, 3).unwrap();
            check(&report, "infer_node");
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

    /// The at-rest form of a deployment is its snapshot: the private
    /// edge list is in the payload, and neither a wrong key nor a look
    /// at the sealed bytes gets it out.
    #[test]
    fn deploy_seals_artifacts_and_accounts_memory() {
        let (vault, _, _) = toy_vault(RectifierKind::Series);
        let snapshot = vault.snapshot();
        assert!(matches!(
            Vault::restore(&snapshot, SealKey(8)),
            Err(VaultError::Tee(tee::TeeError::SealTampered))
        ));
        // The payload writes each edge as two little-endian u64s.
        let edges: Vec<u8> = vault
            .resident
            .graph
            .edges()
            .iter()
            .flat_map(|&(u, v)| [u as u64, v as u64])
            .flat_map(u64::to_le_bytes)
            .collect();
        assert!(!edges.is_empty());
        let payload = snapshot.payload(SealKey(7)).unwrap();
        let holds = |bytes: &[u8]| bytes.windows(edges.len()).any(|w| w == edges);
        assert!(holds(&payload), "the snapshot carries the real graph");
        // `Sealed` shows its ciphertext only through `Debug`.
        let listed = format!("{edges:?}");
        let sealed = format!("{snapshot:?}");
        assert!(!sealed.contains(&listed[1..listed.len() - 1]));
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

        // `infer_node` accounts its transients like every other pass.
        // Node 0's receptive field is its triangle: the peak rises by
        // three rows of activations and everything is freed again...
        let (mut roomy, x, _) = toy_vault(RectifierKind::Series);
        let (_, report) = roomy.infer_node(&x, 0).unwrap();
        let ego_transients: usize = dims.iter().map(|(i, o)| 3 * (i + o) * 4).sum();
        assert!(report.peak_enclave_bytes >= resident + ego_transients);
        assert_eq!(roomy.enclave_in_use_bytes(), resident);
        // ...so with no headroom for them the query is refused, and the
        // refusal leaks nothing.
        let (mut full, x, _) = toy_vault_with_budget(RectifierKind::Series, resident + 16);
        assert!(matches!(
            full.infer_node(&x, 0),
            Err(VaultError::Tee(tee::TeeError::EpcExhausted { .. }))
        ));
        assert_eq!(full.enclave_in_use_bytes(), resident);
    }

    #[test]
    fn install_builds_the_operator_the_rectifier_was_fitted_on() {
        for conv in CONVS {
            let (vault, _, _) = ring_vault(RectifierKind::Series, conv);
            let fitted_on = vault.rectifier.preferred_adjacency(&vault.resident.graph);
            assert_eq!(vault.real_adj, fitted_on, "{conv:?}");
            // Sage's is the row-normalized operator, not the GCN one.
            let gcn_operator = graph::normalization::gcn_normalize(&vault.resident.graph);
            assert_eq!(vault.real_adj == gcn_operator, conv != ConvKind::Sage);
        }
    }

    #[test]
    fn receptive_field_pass_is_bit_identical_to_infer_for_any_seed_set() {
        // Rectifying only a seed set's receptive field answers the seeds
        // exactly as rectifying everything does — on a full vault and on
        // partition replicas, for every wiring and convolution.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for kind in RectifierKind::ALL {
            for conv in CONVS {
                let (mut vault, x, _) = ring_vault(kind, conv);
                let n = x.rows();
                let (full, _) = vault.infer(&x).unwrap();
                let (field, _) = vault.receptive_field(&[6]).unwrap();
                assert!(
                    field.len() < n,
                    "{kind:?}/{conv:?}: a strict part of the graph"
                );
                let spec = PartitionSpec::block(n, 3).unwrap();
                let handles = vault.partition_recovery_handles(&spec).unwrap();
                let mut replicas: Vec<Vault> =
                    handles.iter().map(|h| h.restore().unwrap()).collect();
                let mut session = vault.open_session();
                for _ in 0..10 {
                    let seeds: Vec<usize> = (0..1 + next(4)).map(|_| next(n)).collect();
                    let expected: Vec<ClassLabel> = seeds.iter().map(|&s| full[s]).collect();
                    let (labels, report) = vault
                        .pass(&mut session, &x, &seeds, Field::Receptive)
                        .unwrap();
                    assert_eq!(labels, expected, "{kind:?}/{conv:?}: seeds {seeds:?}");
                    assert_eq!(
                        report.transitions,
                        vault.rectifier.tap_indices().len() as u64
                    );

                    for replica in &mut replicas {
                        let (part, _) = replica.partition_info().unwrap();
                        let owned: Vec<usize> = seeds
                            .iter()
                            .copied()
                            .filter(|&s| spec.owner_of(s) == part)
                            .collect();
                        if owned.is_empty() {
                            continue;
                        }
                        let expected: Vec<ClassLabel> = owned.iter().map(|&s| full[s]).collect();
                        let (labels, _) = replica
                            .pass(&mut session, &x, &owned, Field::Receptive)
                            .unwrap();
                        assert_eq!(
                            labels, expected,
                            "{kind:?}/{conv:?}: partition {part}, seeds {owned:?}"
                        );
                    }
                }
            }
        }
    }

    /// A serving engine's prepared corpus answers exactly like the
    /// dense matrix: the backbone's embeddings bit for bit, and
    /// `infer_batch`'s labels on the full image and every partition
    /// image, for every wiring and convolution, over a substitute graph
    /// and with none (the DNN backbone), at f32 and int8.
    #[test]
    fn prepared_features_answer_bit_identically_to_the_dense_matrix() {
        let n = 24;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend([(0, 9), (4, 17), (12, 21)]);
        let real = Graph::from_edges(n, &edges).unwrap();
        // Bag-of-words-like rows: 2 or 3 of 40 features set, 6 % dense.
        let x = DenseMatrix::from_fn(n, 40, |r, c| match (r * 7 + c * 3) % 41 {
            0..=1 => 0.5 + (r % 5) as f32 * 0.375,
            2 if r % 2 == 0 => 1.0 / (1 + c) as f32,
            _ => 0.0,
        });
        let prepared = nn::NodeFeatures::new(x.clone());
        assert!(
            prepared.sparse_rows().is_some(),
            "the corpus keeps CSR rows"
        );
        let bits = |embs: Vec<DenseMatrix>| -> Vec<Vec<u32>> {
            let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
            embs.iter().map(bits).collect()
        };
        let spec = PartitionSpec::block(n, 3).unwrap();
        for substitute in [SubstituteKind::Knn { k: 2 }, SubstituteKind::Dnn] {
            for kind in RectifierKind::ALL {
                for conv in CONVS {
                    let at = format!("{substitute:?}/{kind:?}/{conv:?}");
                    let (mut vault, ..) =
                        deployed_over(x.clone(), &real, substitute, kind, conv, tee::SGX_EPC_BYTES);
                    for precision in Precision::ALL {
                        vault.set_precision(precision).unwrap();
                        assert_eq!(
                            bits(vault.backbone().embeddings(&prepared).unwrap()),
                            bits(vault.backbone().embeddings(&x).unwrap()),
                            "{at}/{precision:?}: embeddings"
                        );
                        let replicas = vault.partition_recovery_handles(&spec).unwrap();
                        let mut images = vec![(vault.recovery_handle().restore().unwrap(), 0..n)];
                        images.extend(
                            replicas.iter().enumerate().map(|(part, handle)| {
                                (handle.restore().unwrap(), spec.range(part))
                            }),
                        );
                        for (mut image, owned) in images {
                            let nodes: Vec<usize> = owned.collect();
                            let mut session = image.open_session();
                            let (want, _) = image.infer_batch(&mut session, &x, &nodes).unwrap();
                            let (got, _) =
                                image.infer_batch(&mut session, &prepared, &nodes).unwrap();
                            assert_eq!(got, want, "{at}/{precision:?}: nodes {nodes:?}");
                        }
                    }
                }
            }
        }
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
    fn epochs_are_unique() {
        let (v1, _, _) = toy_vault(RectifierKind::Series);
        let (v2, _, _) = toy_vault(RectifierKind::Series);
        assert_ne!(v1.epoch(), v2.epoch());
        assert!(v1.epoch() > 0 && v2.epoch() > 0);
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
