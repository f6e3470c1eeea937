//! Sealed vault snapshots: a deterministic byte serialization of a
//! trained, deployed [`Vault`](crate::Vault), and the one place it is
//! sealed and opened.
//!
//! A snapshot captures everything a replica needs to answer queries
//! bit-identically to the source vault — backbone weights (and the
//! public substitute graph), rectifier weights, the private real graph,
//! and the deployment's enclave configuration (EPC budget, cost model,
//! over-budget policy) — but *not* the public feature corpus, which
//! lives in the untrusted world and is supplied at serving time.
//!
//! The payload is sealed with [`tee::Sealed`] under a key derived from
//! the deployment's [`SealKey`] *and* the image's clear metadata —
//! epoch, node count and partition stamp — the way SGX sealing binds
//! clear metadata as associated data. Only a holder of the deployment
//! key can rehydrate the bytes
//! ([`Vault::restore`](crate::Vault::restore)), and only under the
//! metadata they were sealed with: a relabeled epoch, node count or
//! stamp derives another key and fails as
//! [`TeeError::SealTampered`](tee::TeeError::SealTampered). Encoding is
//! deterministic — same vault, same bytes — and restoration preserves
//! the source vault's epoch, so replicas of one snapshot share a cache
//! identity.
//!
//! The payload states each fact once: nothing the clear metadata fixes
//! (epoch, node counts, the partition), nothing a matrix already read
//! gives (every layer width), nothing [`RectifierKind::wiring`] gives
//! (the tap set, each rectifier layer's fan-in). There is one form
//! (little-endian, like [`tee::codec`]; both sides are always built
//! from the same binary, so any other magic — the retired
//! `GV_SNAP1`–`GV_SNAP6` included — and any undefined flag bit — the
//! retired partition bit 0 included — is rejected, not migrated):
//!
//! ```text
//! magic u64 ("GV_SNAP7")
//! flags u8            bit 1: int8 projections
//! config:    epc_budget u64 | cost{transition,per_byte,page_swap,slowdown} u64×4
//!            | policy u8
//! backbone:  tag u8 (0 with substitute, 1 without — the DNN backbone)
//!              0: substitute kind (tag u8 + payload) | substitute graph
//!            | network
//! rectifier: kind u8 | conv u8 | network
//! scope:     full image:      real graph
//!            partition image: closure ids (global ids) | closure degrees
//!                             | closure graph
//! ```
//!
//! where `network` is `layers u64 | every layer's projection | every
//! layer's remaining parameters (bias, attention vectors) as matrices`,
//! a matrix is `rows u64 | cols u64 | f32-LE data`, a list is `len u64
//! | u64 items`, and a graph is `num_edges u64 | (u,v) u64 pairs` over
//! the node count the clear metadata fixes (for a closure graph, the
//! closure's id count). Nothing ahead of the scope section depends on
//! the image, so [`seal`] encodes it once for every image it seals.
//!
//! A *projection* is the one slot the int8 flag changes: an f32 matrix
//! when the flag is clear, `out_dim u64 | in_dim u64 | i8 codes | f32
//! per-channel scales` when it is set. Biases, attention vectors, and
//! graphs are f32/exact in both. Int8 is this codec's business alone:
//! it quantizes a weight when it writes the slot and dequantizes it
//! when it reads one, and nothing downstream ever sees a code. An int8
//! vault's weights already sit on the int8 grid
//! ([`Vault::set_precision`](crate::Vault::set_precision)), where
//! `quantize∘dequantize` is a fixed point (see
//! [`linalg::QuantizedMatrix`]), so replicas of an int8 snapshot serve
//! bit-identically to their source and re-snapshot to identical bytes.
//!
//! A *partition image*
//! ([`Vault::partition_snapshots`](crate::Vault::partition_snapshots))
//! replaces the full real graph with one partition's private state —
//! the closure's global-id map, the full-graph degree vector, and the
//! induced local COO — while keeping the shared backbone/rectifier
//! weights. Its owned nodes are not stored: they are the block
//! [`PartitionSpec::block`]`(num_nodes, parts)` assigns to `part`, the
//! same function the serving router evaluates. Restoring it builds a
//! *partial* vault that answers only that block — bit-identically to
//! the full vault, because the closure spans the rectifier's receptive
//! field and normalization uses the original degrees.
//!
//! [`decode`] reads each network's architecture off its projections,
//! which come first and whose element counts the payload's length
//! bounds, and checks the layer chain and the wiring's fan-ins on them
//! before any [`Network`] is built. No allocation is sized from a count
//! the payload alone declares.

use crate::backbone::Substitute;
use crate::{Backbone, Precision, Rectifier, RectifierKind, SubstituteKind, VaultError};
use graph::partition::PartitionSpec;
use graph::subgraph::Closure;
use graph::Graph;
use linalg::{DenseMatrix, QuantizedMatrix};
use nn::{ConvKind, Network};
use tee::{CostModel, OverBudgetPolicy, SealKey, Sealed};

/// Format marker at offset 0 of every snapshot payload.
const MAGIC: u64 = 0x4756_5F53_4E41_5037; // "GV_SNAP7"

/// Flag bit: projection slots hold int8 codes + scales, not f32.
const FLAG_INT8: u8 = 1 << 1;

/// Which partition a sealed snapshot carries — clear routing metadata
/// on a [`VaultSnapshot`], bound to its sealed payload through the
/// key, and all a partition replica keeps of its ownership: it owns the
/// block [`PartitionSpec::block`]`(num_nodes, parts)` assigns to
/// `part`. Ownership is a pure function of the node id, so exposing
/// `part`/`parts` reveals nothing about the private edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPartition {
    pub(crate) part: usize,
    pub(crate) parts: usize,
}

impl SnapshotPartition {
    /// This snapshot's partition index.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of partitions in the deployment.
    pub fn parts(&self) -> usize {
        self.parts
    }
}

/// A sealed, deployable image of a trained vault.
///
/// Produced by [`Vault::snapshot`](crate::Vault::snapshot); consumed by
/// [`Vault::restore`](crate::Vault::restore). The epoch, corpus size
/// and partition stamp are exposed in the clear (they are serving-layer
/// routing metadata, not secrets — the untrusted world already knows
/// them) and authenticated by the seal; everything else, including the
/// private real graph and rectifier weights, lives only inside the
/// sealed payload.
///
/// # Examples
///
/// See [`Vault::snapshot`](crate::Vault::snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct VaultSnapshot {
    epoch: u64,
    num_nodes: usize,
    partition: Option<SnapshotPartition>,
    sealed: Sealed,
}

impl VaultSnapshot {
    /// Deployment epoch of the source vault. Restored replicas keep it,
    /// so caches keyed `(epoch, node)` stay coherent across replicas of
    /// the same snapshot and miss across different models.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the snapshotted deployment's real graph (and
    /// therefore the row count the serving corpus must have). For a
    /// per-partition snapshot this is still the *global* node count —
    /// the corpus is shared across partitions.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Which partition this snapshot carries, or `None` for a full
    /// (replica) snapshot.
    pub fn partition(&self) -> Option<SnapshotPartition> {
        self.partition
    }

    /// Size of the sealed payload in bytes.
    pub fn sealed_nbytes(&self) -> usize {
        self.sealed.len()
    }

    /// The payload, unsealed under the key `deployment_key` and this
    /// image's clear metadata derive.
    pub(crate) fn payload(
        &self,
        deployment_key: SealKey,
    ) -> Result<impl std::ops::Deref<Target = [u8]>, VaultError> {
        let key = image_key(deployment_key, self.epoch, self.num_nodes, self.partition);
        Ok(self.sealed.unseal(key)?)
    }
}

/// The key one image is sealed under: the deployment key's
/// `"vault-snapshot"` subkey, specialised to the image's clear
/// metadata, so a full image and every `(part, parts)` of every epoch
/// and node count get distinct keys.
fn image_key(
    deployment_key: SealKey,
    epoch: u64,
    num_nodes: usize,
    partition: Option<SnapshotPartition>,
) -> SealKey {
    let scope = match partition {
        Some(SnapshotPartition { part, parts }) => format!("part {part} of {parts}"),
        None => "full".to_owned(),
    };
    deployment_key
        .derive("vault-snapshot")
        .derive(&format!("epoch {epoch} nodes {num_nodes} {scope}"))
}

/// Everything of a deployment that is the same whichever share of the
/// private graph an image carries: the clear metadata [`seal`] stamps
/// on every image, and what it encodes once ahead of the scope section.
pub(crate) struct Header<'a> {
    pub epoch: u64,
    /// Node count of the whole deployment (the query id space).
    pub num_nodes: usize,
    pub epc_budget: usize,
    pub cost: &'a CostModel,
    pub policy: OverBudgetPolicy,
    pub backbone: &'a Backbone,
    pub rectifier: &'a Rectifier,
    /// `Int8` sets the int8 flag: projections are written as codes of
    /// the layers' weights instead of the weights themselves.
    pub precision: Precision,
}

/// The owned parts of one deployment: what [`open`] returns and what
/// the vault installs, whether they came from a payload
/// ([`Vault::restore`](crate::Vault::restore)) or from training
/// ([`Vault::deploy`](crate::Vault::deploy)). `resident` is the private
/// graph state the vault holds: the whole real graph
/// ([`Closure::whole`]) or, with `partition` naming the owned block,
/// one partition's closure.
pub(crate) struct Deployment {
    pub epoch: u64,
    /// Node count of the whole deployment (the query id space), which
    /// on a partition replica is not the resident graph's.
    pub num_nodes: usize,
    pub epc_budget: usize,
    pub cost: CostModel,
    pub policy: OverBudgetPolicy,
    pub backbone: Backbone,
    pub rectifier: Rectifier,
    /// The sealed form. Decoded from an int8 payload, `backbone` and
    /// `rectifier` hold the dequantized weights.
    pub precision: Precision,
    pub resident: Closure,
    pub partition: Option<SnapshotPartition>,
}

/// Seals one image per `(partition, resident)` share of a deployment's
/// private graph — `resident` a partition's closure when `partition`
/// names it, else the whole real graph. The header is encoded once into
/// one buffer; each image is that buffer cut back to the header plus
/// its own scope section, sealed under the key its clear metadata
/// derives from `deployment_key`.
pub(crate) fn seal<'c>(
    deployment_key: SealKey,
    h: &Header<'_>,
    shares: impl IntoIterator<Item = (Option<SnapshotPartition>, &'c Closure)>,
) -> Vec<VaultSnapshot> {
    let mut w = encode_header(h);
    let header_len = w.buf.len();
    shares
        .into_iter()
        .map(|(partition, resident)| {
            w.buf.truncate(header_len);
            if partition.is_some() {
                w.put_usizes(&resident.ids);
                w.put_usizes(&resident.degrees);
            }
            w.put_graph(&resident.graph);
            let key = image_key(deployment_key, h.epoch, h.num_nodes, partition);
            VaultSnapshot {
                epoch: h.epoch,
                num_nodes: h.num_nodes,
                partition,
                sealed: Sealed::seal(key, &w.buf),
            }
        })
        .collect()
}

/// Unseals `snapshot` under `deployment_key` and decodes it.
///
/// # Errors
///
/// [`VaultError::Tee`] for a wrong key, a corrupted payload or
/// relabeled clear metadata; [`VaultError::Snapshot`] (or a typed
/// construction error) for a payload that unseals but does not decode.
pub(crate) fn open(
    snapshot: &VaultSnapshot,
    deployment_key: SealKey,
) -> Result<Deployment, VaultError> {
    decode(&snapshot.payload(deployment_key)?, snapshot)
}

/// Shorthand for decode failures.
fn bad(reason: impl Into<String>) -> VaultError {
    VaultError::Snapshot {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Byte writer / reader
// ---------------------------------------------------------------------

/// Little-endian payload writer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    fn put_matrix(&mut self, m: &DenseMatrix) {
        self.put_usize(m.rows());
        self.put_usize(m.cols());
        for &v in m.as_slice() {
            self.put_f32(v);
        }
    }

    /// The one slot whose form the int8 flag selects.
    fn put_projection(&mut self, weight: &DenseMatrix, precision: Precision) {
        match precision {
            Precision::F32 => self.put_matrix(weight),
            Precision::Int8 => {
                let q = QuantizedMatrix::quantize(weight);
                self.put_usize(q.out_dim());
                self.put_usize(q.in_dim());
                for &c in q.data() {
                    self.put_u8(c as u8);
                }
                for &s in q.scales() {
                    self.put_f32(s);
                }
            }
        }
    }

    /// A network's parameters: param 0 of every layer — the projection
    /// weight of every conv kind, whose shape is the layer's — through
    /// the projection slot first, so a reader has the whole
    /// architecture before it builds anything; then each layer's other
    /// parameters (bias, attention vectors) in `params()` order as f32
    /// matrices.
    fn put_network(&mut self, network: &Network, precision: Precision) {
        let layers = network.layers();
        self.put_usize(layers.len());
        for layer in layers {
            self.put_projection(&layer.params()[0].value, precision);
        }
        for layer in layers {
            for p in &layer.params()[1..] {
                self.put_matrix(&p.value);
            }
        }
    }

    fn put_graph(&mut self, g: &Graph) {
        self.put_usize(g.num_edges());
        for &(u, v) in g.edges() {
            self.put_usize(u);
            self.put_usize(v);
        }
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], VaultError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| bad("payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(&self) -> Result<(), VaultError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }

    fn get_u8(&mut self) -> Result<u8, VaultError> {
        Ok(self.take(1)?[0])
    }

    fn get_u64(&mut self) -> Result<u64, VaultError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn get_usize(&mut self) -> Result<usize, VaultError> {
        usize::try_from(self.get_u64()?).map_err(|_| bad("length overflows usize"))
    }

    fn get_f32(&mut self) -> Result<f32, VaultError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn get_f64(&mut self) -> Result<f64, VaultError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A count of items that each occupy at least `min_item_bytes` of
    /// payload: anything the whole payload could not hold is rejected
    /// before a loop or an allocation is sized from it.
    fn get_count(&mut self, min_item_bytes: usize, what: &str) -> Result<usize, VaultError> {
        let count = self.get_usize()?;
        if count > self.buf.len() / min_item_bytes + 1 {
            return Err(bad(format!("implausible {what} count {count}")));
        }
        Ok(count)
    }

    fn get_usizes(&mut self) -> Result<Vec<usize>, VaultError> {
        let len = self.get_count(8, "list item")?;
        (0..len).map(|_| self.get_usize()).collect()
    }

    fn get_matrix(&mut self) -> Result<DenseMatrix, VaultError> {
        let rows = self.get_usize()?;
        let cols = self.get_usize()?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n <= self.buf.len() / 4 + 1)
            .ok_or_else(|| bad("implausible matrix dimensions"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f32()?);
        }
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| bad(e.to_string()))
    }

    /// An int8 slot, dequantized. Only values
    /// [`QuantizedMatrix::quantize`] writes are accepted: a code of
    /// -128, or a scale that is negative, subnormal or not finite, is a
    /// forgery — as is a scale so large its grid leaves the finite
    /// range, which would hand `install` `inf`/`NaN` weights.
    fn get_qmatrix(&mut self) -> Result<DenseMatrix, VaultError> {
        let out_dim = self.get_count(4, "channel")?;
        let in_dim = self.get_usize()?;
        // Empty is as implausible as too large: dequantizing a `0 × n`
        // slot would walk all `n` rows.
        let n = out_dim
            .checked_mul(in_dim)
            .filter(|&n| 0 < n && n <= self.buf.len())
            .ok_or_else(|| bad("implausible quantized matrix dimensions"))?;
        let data: Vec<i8> = self.take(n)?.iter().map(|&b| b as i8).collect();
        if data.contains(&i8::MIN) {
            return Err(bad("int8 code -128 is outside the symmetric range"));
        }
        let mut scales = Vec::with_capacity(out_dim);
        for _ in 0..out_dim {
            let scale = self.get_f32()?;
            let writable = scale.is_sign_positive() && (scale == 0.0 || scale.is_normal());
            if !writable {
                return Err(bad(format!(
                    "int8 channel scale {scale:e} is not one the codec writes"
                )));
            }
            scales.push(scale);
        }
        let weight = QuantizedMatrix::from_parts(out_dim, in_dim, data, scales)
            .map_err(|e| bad(e.to_string()))?
            .dequantize();
        if weight.as_slice().iter().any(|w| !w.is_finite()) {
            return Err(bad("int8 slot dequantizes to a non-finite weight"));
        }
        Ok(weight)
    }

    /// A network's projections, as [`Writer::put_network`] writes them
    /// and in the form the int8 flag selects: the f32 weight each layer
    /// is restored with. An empty weight is rejected — a `0 × n` matrix
    /// costs the payload nothing, so its `n` would be the one dimension
    /// the payload's length does not bound.
    fn get_projections(&mut self, precision: Precision) -> Result<Vec<DenseMatrix>, VaultError> {
        // An f32 slot holds at least a 16-byte shape and one weight.
        let layers = self.get_count(20, "layer")?;
        let mut projections = Vec::with_capacity(layers);
        for _ in 0..layers {
            let weight = match precision {
                Precision::F32 => self.get_matrix()?,
                Precision::Int8 => self.get_qmatrix()?,
            };
            if weight.rows() == 0 || weight.cols() == 0 {
                return Err(bad("projection weight has no elements"));
            }
            projections.push(weight);
        }
        Ok(projections)
    }

    /// Fills a network built from `projections` with them and with the
    /// rest of [`Writer::put_network`]'s section, each parameter held to
    /// the shape the architecture gives it (gradients and optimizer
    /// moments stay zeroed — they are training state, not deployment
    /// state).
    fn get_params(
        &mut self,
        network: &mut Network,
        projections: Vec<DenseMatrix>,
        what: &str,
    ) -> Result<(), VaultError> {
        for (layer, projection) in network.layers_mut().iter_mut().zip(projections) {
            let mut projection = Some(projection);
            for param in layer.params_mut() {
                let value = match projection.take() {
                    Some(weight) => weight,
                    None => self.get_matrix()?,
                };
                if value.shape() != param.value.shape() {
                    return Err(bad(format!(
                        "{what} parameter is {:?} where the architecture has {:?}",
                        value.shape(),
                        param.value.shape()
                    )));
                }
                param.value = value;
            }
        }
        Ok(())
    }

    /// A graph section over `num_nodes` nodes: the count the clear
    /// metadata (or the closure list already read) fixes, so nothing
    /// sizes a per-node allocation from the payload alone.
    fn get_graph(&mut self, num_nodes: usize) -> Result<Graph, VaultError> {
        let num_edges = self.get_count(16, "edge")?;
        let mut pairs = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            pairs.push((self.get_usize()?, self.get_usize()?));
        }
        Graph::from_edges(num_nodes, &pairs).map_err(|e| bad(e.to_string()))
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes everything ahead of the scope section — the part of the
/// payload every image of one deployment shares.
fn encode_header(h: &Header<'_>) -> Writer {
    let mut w = Writer { buf: Vec::new() };
    w.put_u64(MAGIC);
    w.put_u8(match h.precision {
        Precision::F32 => 0,
        Precision::Int8 => FLAG_INT8,
    });

    w.put_usize(h.epc_budget);
    w.put_u64(h.cost.transition_ns);
    w.put_u64(h.cost.per_byte_ns);
    w.put_u64(h.cost.page_swap_ns);
    w.put_u64(h.cost.compute_slowdown_pct as u64);
    w.put_u8(match h.policy {
        OverBudgetPolicy::Swap => 0,
        OverBudgetPolicy::Fail => 1,
    });

    // The tag says whether a substitute precedes the network.
    match &h.backbone.substitute {
        Some(substitute) => {
            w.put_u8(0);
            encode_substitute_kind(&mut w, &substitute.kind);
            w.put_graph(&substitute.graph);
        }
        None => w.put_u8(1),
    }
    w.put_network(&h.backbone.network, h.precision);

    w.put_u8(match h.rectifier.kind() {
        RectifierKind::Parallel => 0,
        RectifierKind::Cascaded => 1,
        RectifierKind::Series => 2,
    });
    w.put_u8(match h.rectifier.conv() {
        ConvKind::Gcn => 0,
        ConvKind::Sage => 1,
        ConvKind::Gat => 2,
    });
    w.put_network(&h.rectifier.network, h.precision);
    w
}

/// Moves every weight [`seal`] writes through a projection slot —
/// param 0 of every layer of both networks — onto its int8 grid: the
/// value an int8 slot written from it restores to. An int8 vault holds
/// only grid weights, so its answers are those of every replica of its
/// images.
pub(crate) fn snap_to_int8_grid(backbone: &mut Backbone, rectifier: &mut Rectifier) {
    let backbone_layers = backbone.network.layers_mut().iter_mut();
    for layer in backbone_layers.chain(rectifier.network.layers_mut()) {
        let projection = layer.params_mut().swap_remove(0);
        projection.value = QuantizedMatrix::quantize(&projection.value).dequantize();
    }
}

fn encode_substitute_kind(w: &mut Writer, kind: &SubstituteKind) {
    match *kind {
        SubstituteKind::Dnn => w.put_u8(0),
        SubstituteKind::Knn { k } => {
            w.put_u8(1);
            w.put_usize(k);
        }
        SubstituteKind::CosineThreshold { tau } => {
            w.put_u8(2);
            w.put_f32(tau);
        }
        SubstituteKind::CosineBudget => w.put_u8(3),
        SubstituteKind::Random { ratio } => {
            w.put_u8(4);
            w.put_f64(ratio);
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes a payload back into deployment parts under `clear`'s
/// metadata — which the seal has authenticated, and which fixes the
/// epoch, every graph's node count and the scope section's form —
/// validating every shape against the architecture the weights give.
pub(crate) fn decode(payload: &[u8], clear: &VaultSnapshot) -> Result<Deployment, VaultError> {
    let mut r = Reader::new(payload);
    if r.get_u64()? != MAGIC {
        return Err(bad("bad magic: not a vault snapshot of this format"));
    }
    let flags = r.get_u8()?;
    if flags & !FLAG_INT8 != 0 {
        return Err(bad(format!("undefined flag bits in {flags:#010b}")));
    }
    let precision = if flags & FLAG_INT8 != 0 {
        Precision::Int8
    } else {
        Precision::F32
    };

    let epc_budget = r.get_usize()?;
    let cost = CostModel {
        transition_ns: r.get_u64()?,
        per_byte_ns: r.get_u64()?,
        page_swap_ns: r.get_u64()?,
        compute_slowdown_pct: u32::try_from(r.get_u64()?)
            .map_err(|_| bad("compute slowdown overflows u32"))?,
    };
    let policy = match r.get_u8()? {
        0 => OverBudgetPolicy::Swap,
        1 => OverBudgetPolicy::Fail,
        t => return Err(bad(format!("unknown over-budget policy tag {t}"))),
    };

    let backbone = decode_backbone(&mut r, precision, clear.num_nodes)?;
    let rectifier = decode_rectifier(&mut r, &backbone, precision)?;

    let resident = match clear.partition {
        Some(stamp) => decode_partition_scope(&mut r, clear.num_nodes, stamp)?,
        None => Closure::whole(r.get_graph(clear.num_nodes)?),
    };
    r.finish()?;

    Ok(Deployment {
        epoch: clear.epoch,
        num_nodes: clear.num_nodes,
        epc_budget,
        cost,
        policy,
        backbone,
        rectifier,
        precision,
        resident,
        partition: clear.partition,
    })
}

/// A partition image's scope section, whose closure must hold every id
/// of the block `stamp` owns.
fn decode_partition_scope(
    r: &mut Reader<'_>,
    num_nodes: usize,
    stamp: SnapshotPartition,
) -> Result<Closure, VaultError> {
    let SnapshotPartition { part, parts } = stamp;
    if part >= parts {
        return Err(bad(format!("partition index {part} out of {parts}")));
    }
    // Strictly ascending within bounds: the invariant every closure
    // lookup (binary search) relies on.
    let local_ids = r.get_usizes()?;
    if local_ids.iter().any(|&n| n >= num_nodes) {
        return Err(bad(format!(
            "closure list references a node beyond {num_nodes}"
        )));
    }
    if local_ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("closure list is not strictly ascending"));
    }
    let original_degrees = r.get_usizes()?;
    if original_degrees.len() != local_ids.len() {
        return Err(bad(format!(
            "degree vector has {} entries for a {}-node closure",
            original_degrees.len(),
            local_ids.len()
        )));
    }
    let local_graph = r.get_graph(local_ids.len())?;

    let mut owned = PartitionSpec::block(num_nodes, parts)
        .map_err(|e| bad(e.to_string()))?
        .range(part);
    if !owned.all(|n| local_ids.binary_search(&n).is_ok()) {
        return Err(bad("owned node missing from the partition closure"));
    }
    if local_graph
        .degrees()
        .iter()
        .zip(&original_degrees)
        .any(|(&local, &full)| local > full)
    {
        return Err(bad("local degree exceeds the recorded full-graph degree"));
    }
    Ok(Closure {
        ids: local_ids,
        graph: local_graph,
        degrees: original_degrees,
    })
}

/// The backbone, whose substitute graph (public, over the whole
/// corpus) spans the deployment's `num_nodes`, and whose GCN chain is
/// its projections' shapes: the first one's rows are the input width,
/// each one's rows the previous one's columns.
fn decode_backbone(
    r: &mut Reader<'_>,
    precision: Precision,
    num_nodes: usize,
) -> Result<Backbone, VaultError> {
    let substitute = match r.get_u8()? {
        0 => {
            let kind = decode_substitute_kind(r)?;
            Some(Substitute::new(r.get_graph(num_nodes)?, kind))
        }
        1 => None,
        t => return Err(bad(format!("unknown backbone tag {t}"))),
    };
    let projections = r.get_projections(precision)?;
    if let Some(pair) = projections.windows(2).find(|p| p[1].rows() != p[0].cols()) {
        return Err(bad(format!(
            "backbone weight of {} rows does not chain from the previous width {}",
            pair[1].rows(),
            pair[0].cols()
        )));
    }
    let input_dim = projections.first().map_or(0, DenseMatrix::rows);
    let channels: Vec<usize> = projections.iter().map(DenseMatrix::cols).collect();
    let mut network = Network::new(input_dim, &channels, 0)?;
    r.get_params(&mut network, projections, "backbone")?;
    Ok(Backbone {
        network,
        substitute,
    })
}

/// The rectifier, whose layer widths are its projections' columns and
/// whose wiring — tap set and each layer's fan-in — its kind gives over
/// the decoded backbone's widths.
fn decode_rectifier(
    r: &mut Reader<'_>,
    backbone: &Backbone,
    precision: Precision,
) -> Result<Rectifier, VaultError> {
    let kind = match r.get_u8()? {
        0 => RectifierKind::Parallel,
        1 => RectifierKind::Cascaded,
        2 => RectifierKind::Series,
        t => return Err(bad(format!("unknown rectifier kind tag {t}"))),
    };
    let conv = match r.get_u8()? {
        0 => ConvKind::Gcn,
        1 => ConvKind::Sage,
        2 => ConvKind::Gat,
        t => return Err(bad(format!("unknown convolution tag {t}"))),
    };
    let projections = r.get_projections(precision)?;
    // Every channel is a non-empty, hence payload-bounded, weight's
    // column count, so adding them up into fan-ins cannot run away.
    let channels: Vec<usize> = projections.iter().map(DenseMatrix::cols).collect();
    let backbone_dims = backbone.channel_dims();
    let input_widths = Rectifier::input_widths(kind, &channels, &backbone_dims);
    for (weight, in_dim) in projections.iter().zip(input_widths) {
        // A SAGE weight spans the `[H ‖ Ā H]` concatenation.
        let fan_in = match conv {
            ConvKind::Sage => 2 * in_dim,
            ConvKind::Gcn | ConvKind::Gat => in_dim,
        };
        if weight.rows() != fan_in {
            return Err(bad(format!(
                "rectifier weight of {} rows where the wiring gives its layer a fan-in of {fan_in}",
                weight.rows()
            )));
        }
    }
    let mut rectifier = Rectifier::new_with_conv(kind, conv, &channels, &backbone_dims, 0)?;
    r.get_params(&mut rectifier.network, projections, "rectifier")?;
    Ok(rectifier)
}

fn decode_substitute_kind(r: &mut Reader<'_>) -> Result<SubstituteKind, VaultError> {
    Ok(match r.get_u8()? {
        0 => SubstituteKind::Dnn,
        1 => SubstituteKind::Knn { k: r.get_usize()? },
        2 => SubstituteKind::CosineThreshold { tau: r.get_f32()? },
        3 => SubstituteKind::CosineBudget,
        4 => SubstituteKind::Random {
            ratio: r.get_f64()?,
        },
        t => return Err(bad(format!("unknown substitute kind tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vault;
    use nn::TrainConfig;
    use proptest::prelude::*;
    use tee::{SealKey, TeeError};

    /// Deterministic pseudo-random feature matrix.
    fn features(n: usize, dim: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        DenseMatrix::from_fn(n, dim, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f32 / 500.0 - 1.0
        })
    }

    /// Deterministic pseudo-random graph over `n` nodes: every pair is
    /// an edge when its hash clears `density` per mille.
    fn random_graph(n: usize, density: u64, seed: u64) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let mut h = seed ^ ((u as u64) << 32) ^ v as u64;
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                if h % 1000 < density {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Trains and deploys a small vault for round-trip testing.
    fn trained_vault(
        n: usize,
        kind: RectifierKind,
        conv: ConvKind,
        substitute: SubstituteKind,
        graph: &Graph,
        seed: u64,
        key: SealKey,
    ) -> (Vault, DenseMatrix) {
        let x = features(n, 3, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let train: Vec<usize> = (0..n).collect();
        let cfg = TrainConfig {
            epochs: 4,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed,
        };
        let backbone = crate::Backbone::train(
            &x,
            &labels,
            &train,
            substitute,
            &[4, 2],
            graph.num_edges(),
            &cfg,
            seed,
        )
        .unwrap();
        let mut rectifier =
            Rectifier::new_with_conv(kind, conv, &[4, 2], &backbone.channel_dims(), seed).unwrap();
        let real_adj = graph::normalization::gcn_normalize(graph);
        let embs = backbone.embeddings(&x).unwrap();
        rectifier
            .fit(&real_adj, &embs, &labels, &train, &cfg)
            .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            graph,
            tee::SGX_EPC_BYTES,
            tee::CostModel::default(),
            tee::OverBudgetPolicy::Fail,
            key,
        )
        .unwrap();
        (vault, x)
    }

    /// Round-trips a vault through snapshot/restore and asserts
    /// bit-identical labels and transition counts on both the
    /// full-graph and the batched inference paths.
    fn assert_roundtrip(mut vault: Vault, x: &DenseMatrix, key: SealKey) {
        let snapshot = vault.snapshot();
        assert_eq!(snapshot.epoch(), vault.epoch());
        assert_eq!(snapshot.num_nodes(), vault.num_nodes());
        assert!(snapshot.sealed_nbytes() > 0);
        // Encoding is deterministic: same vault, same sealed payload.
        assert_eq!(vault.snapshot(), snapshot);

        let mut restored = Vault::restore(&snapshot, key).unwrap();
        assert_eq!(restored.epoch(), vault.epoch(), "epoch is preserved");
        assert_eq!(restored.rectifier_kind(), vault.rectifier_kind());
        assert_eq!(
            restored.rectifier_param_count(),
            vault.rectifier_param_count()
        );

        let (labels, report) = vault.infer(x).unwrap();
        let (restored_labels, restored_report) = restored.infer(x).unwrap();
        assert_eq!(restored_labels, labels, "labels must be bit-identical");
        assert_eq!(
            restored_report.transitions, report.transitions,
            "transition counts must match"
        );
        assert_eq!(restored_report.transferred_bytes, report.transferred_bytes);

        let nodes: Vec<usize> = (0..x.rows()).collect();
        if !nodes.is_empty() {
            let mut s0 = vault.open_session();
            let mut s1 = restored.open_session();
            let (batch_a, rep_a) = vault.infer_batch(&mut s0, x, &nodes).unwrap();
            let (batch_b, rep_b) = restored.infer_batch(&mut s1, x, &nodes).unwrap();
            assert_eq!(batch_a, batch_b, "batched labels must be bit-identical");
            assert_eq!(rep_a.transitions, rep_b.transitions);
        }

        // Wrong key: sealing rejects, nothing leaks.
        assert!(matches!(
            Vault::restore(&snapshot, SealKey(key.0 ^ 1)),
            Err(VaultError::Tee(TeeError::SealTampered))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn snapshot_roundtrip_is_bit_identical(
            n in 2usize..8,
            kind_idx in 0usize..3,
            density in 100u64..900,
            seed in 0u64..1000,
        ) {
            let kind = RectifierKind::ALL[kind_idx];
            let graph = random_graph(n, density, seed);
            let key = SealKey(seed as u128 + 11);
            let (vault, x) = trained_vault(
                n, kind, ConvKind::Gcn, SubstituteKind::Knn { k: 1 }, &graph, seed, key,
            );
            assert_roundtrip(vault, &x, key);
        }
    }

    #[test]
    fn snapshot_roundtrip_edge_cases() {
        // Single-node graph with no edges (MLP backbone: a 1-node KNN
        // graph has no neighbours to connect).
        let single = Graph::from_edges(1, &[]).unwrap();
        let key = SealKey(5);
        let (vault, x) = trained_vault(
            1,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Dnn,
            &single,
            3,
            key,
        );
        assert_roundtrip(vault, &x, key);

        // Edge-free ("empty") graph with several nodes, empty random
        // substitute — exercises zero-edge encode/decode on both the
        // substitute and the real graph.
        let empty = Graph::from_edges(4, &[]).unwrap();
        let (vault, x) = trained_vault(
            4,
            RectifierKind::Cascaded,
            ConvKind::Gcn,
            SubstituteKind::Random { ratio: 0.0 },
            &empty,
            4,
            key,
        );
        assert_roundtrip(vault, &x, key);
    }

    #[test]
    fn every_kind_conv_precision_and_scope_restores_bit_identically() {
        // kind × conv × {f32, int8} × {full, partition}: a restored
        // image answers with the source's labels and transition counts,
        // and re-seals to its own bytes.
        let graph = random_graph(6, 500, 19);
        let key = SealKey(43);
        let spec = PartitionSpec::block(6, 2).unwrap();
        for kind in RectifierKind::ALL {
            for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
                let substitute = SubstituteKind::Knn { k: 1 };
                let (mut vault, x) = trained_vault(6, kind, conv, substitute, &graph, 7, key);
                for precision in crate::Precision::ALL {
                    vault.set_precision(precision).unwrap();
                    let what = format!("{kind:?} {conv:?} {precision:?}");
                    let mut images = vault.partition_snapshots(&spec).unwrap();
                    images.push(vault.snapshot());
                    for image in &images {
                        let mut replica = Vault::restore(image, key).unwrap();
                        assert_eq!(&replica.snapshot(), image, "{what}: re-seal");
                        let owned: Vec<usize> = match image.partition() {
                            Some(stamp) => spec.range(stamp.part()).collect(),
                            None => (0..6).collect(),
                        };
                        let mut s0 = vault.open_session();
                        let mut s1 = replica.open_session();
                        let (want, want_report) = vault.infer_batch(&mut s0, &x, &owned).unwrap();
                        let (got, got_report) = replica.infer_batch(&mut s1, &x, &owned).unwrap();
                        assert_eq!(got, want, "{what}: {:?}", image.partition());
                        assert_eq!(got_report.transitions, want_report.transitions, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_sage_and_gat_rectifiers() {
        for conv in [ConvKind::Sage, ConvKind::Gat] {
            let graph = random_graph(6, 500, 7);
            let key = SealKey(21);
            let (vault, x) = trained_vault(
                6,
                RectifierKind::Series,
                conv,
                SubstituteKind::Knn { k: 2 },
                &graph,
                9,
                key,
            );
            assert_roundtrip(vault, &x, key);
        }
    }

    /// `clear` with its sealed payload replaced by `payload`, sealed as
    /// a holder of `key` would seal it under `clear`'s metadata.
    fn resealed(clear: &VaultSnapshot, key: SealKey, payload: &[u8]) -> VaultSnapshot {
        let image = image_key(key, clear.epoch, clear.num_nodes, clear.partition);
        VaultSnapshot {
            sealed: Sealed::seal(image, payload),
            ..clear.clone()
        }
    }

    /// Restoring `snapshot` fails as a tampered seal.
    fn assert_seal_tampered(snapshot: &VaultSnapshot, key: SealKey, what: &str) {
        match Vault::restore(snapshot, key) {
            Err(VaultError::Tee(TeeError::SealTampered)) => {}
            Err(other) => panic!("{what}: expected a tampered seal, got {other}"),
            Ok(_) => panic!("{what}: must not restore"),
        }
    }

    #[test]
    fn corrupted_payload_and_garbage_are_rejected() {
        let graph = random_graph(5, 600, 1);
        let key = SealKey(77);
        let (vault, _) = trained_vault(
            5,
            RectifierKind::Parallel,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            2,
            key,
        );
        let snapshot = vault.snapshot();

        // The seal binds the clear epoch: relabeled, the image derives
        // another key.
        let forged = VaultSnapshot {
            epoch: snapshot.epoch + 1,
            ..snapshot.clone()
        };
        assert_seal_tampered(&forged, key, "relabeled epoch");

        // A sealed blob that is not a snapshot payload fails to decode
        // (bad magic), not panic.
        let garbage = resealed(&snapshot, key, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(matches!(
            Vault::restore(&garbage, key),
            Err(VaultError::Snapshot { .. })
        ));
    }

    #[test]
    fn forged_node_counts_fail_typed_against_the_clear_count() {
        // The clear count is the only node count there is, and the seal
        // binds it: relabeled to 2^40, a full or partition image fails
        // to unseal — before `Closure::whole` (or a closure check) could
        // size anything from it.
        const HUGE: usize = 1 << 40;
        let graph = random_graph(5, 600, 1);
        let key = SealKey(77);
        let (vault, _) = trained_vault(
            5,
            RectifierKind::Parallel,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            2,
            key,
        );
        let full = vault.snapshot();
        let spec = PartitionSpec::block(5, 2).unwrap();
        let partition = vault.partition_snapshots(&spec).unwrap().swap_remove(1);
        for image in [&full, &partition] {
            let relabeled = VaultSnapshot {
                num_nodes: HUGE,
                ..image.clone()
            };
            assert_seal_tampered(&relabeled, key, "node count 2^40");
        }

        // Every graph section spans the clear count: an edge naming a
        // node past it fails typed, in the substitute graph and in the
        // real graph alike.
        let payload = payload_of(&full, key);
        // magic u64 | flags u8 | config (41 bytes) | backbone tag u8 |
        // KNN tag u8 | k u64 | the substitute graph's num_edges u64,
        // then its first edge.
        let substitute = 8 + 1 + 41 + 2 + 8 + 8;
        // The real graph closes the payload: num_edges u64 | 16 bytes
        // per edge.
        let real = payload.len() - 16 * graph.num_edges();
        for at in [substitute, real] {
            let mut forged = payload.clone();
            forged[at..at + 8].copy_from_slice(&5u64.to_le_bytes());
            let reason = rejection(&forged, &full, "edge past the clear count");
            assert!(reason.contains("out of bounds"), "offset {at}: {reason}");
        }
    }

    /// Unsealed payload of a snapshot (test helper).
    fn payload_of(snapshot: &VaultSnapshot, key: SealKey) -> Vec<u8> {
        snapshot.payload(key).unwrap().to_vec()
    }

    /// The payload of every form — {full, partition} × {f32, int8} —
    /// for one small deployment, full before partition at each
    /// precision. The MLP backbone keeps the bytes ahead of the network
    /// section free of graph ids, so the forging tests below can find
    /// matrix headers by value.
    fn four_forms(conv: ConvKind) -> Vec<(&'static str, VaultSnapshot, Vec<u8>)> {
        let graph = random_graph(6, 500, 11);
        let key = SealKey(13);
        let (mut vault, _) = trained_vault(
            6,
            RectifierKind::Series,
            conv,
            SubstituteKind::Dnn,
            &graph,
            6,
            key,
        );
        let spec = PartitionSpec::block(6, 2).unwrap();
        let mut forms = Vec::new();
        for (precision, full, partition) in [
            (crate::Precision::F32, "full f32", "partition f32"),
            (crate::Precision::Int8, "full int8", "partition int8"),
        ] {
            vault.set_precision(precision).unwrap();
            let snap = vault.snapshot();
            forms.push((full, snap.clone(), payload_of(&snap, key)));
            let snap = vault.partition_snapshots(&spec).unwrap().swap_remove(0);
            forms.push((partition, snap.clone(), payload_of(&snap, key)));
        }
        forms
    }

    /// `payload` with the first occurrence of the u64 sequence `find`
    /// overwritten by `replace`.
    fn forge_u64s(payload: &[u8], find: &[u64], replace: &[u64]) -> Vec<u8> {
        let bytes = |vs: &[u64]| -> Vec<u8> { vs.iter().flat_map(|v| v.to_le_bytes()).collect() };
        let (needle, patch) = (bytes(find), bytes(replace));
        assert_eq!(needle.len(), patch.len());
        let at = payload
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("the payload holds this sequence");
        let mut forged = payload.to_vec();
        forged[at..at + patch.len()].copy_from_slice(&patch);
        forged
    }

    /// The decode error's reason, or a panic if `payload` decodes
    /// under `clear`'s metadata.
    fn rejection(payload: &[u8], clear: &VaultSnapshot, what: &str) -> String {
        match decode(payload, clear) {
            Err(VaultError::Snapshot { reason }) => reason,
            Err(other) => panic!("{what}: expected a snapshot error, got {other}"),
            Ok(_) => panic!("{what}: must not decode"),
        }
    }

    /// The payload a sealer holding the deployment key writes for `d`.
    fn encode(d: &Deployment) -> Vec<u8> {
        let header = Header {
            epoch: d.epoch,
            num_nodes: d.num_nodes,
            epc_budget: d.epc_budget,
            cost: &d.cost,
            policy: d.policy,
            backbone: &d.backbone,
            rectifier: &d.rectifier,
            precision: d.precision,
        };
        let image = seal(SealKey(0), &header, [(d.partition, &d.resident)]).swap_remove(0);
        payload_of(&image, SealKey(0))
    }

    #[test]
    fn every_strict_prefix_fails_to_decode_in_all_four_forms() {
        // GAT carries the most per-layer matrices, so its payload has
        // the most section boundaries to cut at.
        for (form, clear, payload) in four_forms(ConvKind::Gat) {
            let decoded = decode(&payload, &clear).unwrap();
            assert_eq!(encode(&decoded), payload, "{form}: decode∘encode is exact");
            for len in 0..payload.len() {
                assert!(
                    decode(&payload[..len], &clear).is_err(),
                    "{form}: prefix of {len} bytes must not decode"
                );
            }
            // ...and so does a payload that runs on past its end.
            let mut long = payload.clone();
            long.push(0);
            assert!(
                rejection(&long, &clear, form).contains("trailing"),
                "{form}"
            );
        }
    }

    #[test]
    fn every_image_of_a_vault_shares_its_header_byte_for_byte() {
        // Nothing image-specific precedes the scope section, so a
        // partition image is the full image with the real graph swapped
        // for the closure — which is what lets `partition_snapshots`
        // encode the header once.
        let real_graph = 8 + 16 * random_graph(6, 500, 11).num_edges();
        let forms = four_forms(ConvKind::Gat);
        for pair in forms.chunks(2) {
            let [(full, _, full_payload), (partition, clear, part_payload)] = pair else {
                unreachable!("four_forms pairs each full image with a partition image")
            };
            let header = full_payload.len() - real_graph;
            assert_eq!(
                full_payload[..header],
                part_payload[..header],
                "{full} / {partition}"
            );
            let closure = decode(part_payload, clear).unwrap().resident;
            let scope = 2 * 8 + 16 * closure.ids.len() + 8 + 16 * closure.graph.num_edges();
            assert_eq!(part_payload.len(), header + scope, "{partition}");
        }
    }

    #[test]
    fn retired_magics_and_undefined_flag_bits_are_rejected() {
        for (form, clear, payload) in four_forms(ConvKind::Gcn) {
            // GV_SNAP1..4: the four forms one codec replaced; GV_SNAP5:
            // that codec while partition images still sealed an owned
            // list; GV_SNAP6: while the payload repeated the clear
            // metadata and every width.
            for retired in 0x4756_5F53_4E41_5031u64..=0x4756_5F53_4E41_5036 {
                let mut old = payload.clone();
                old[..8].copy_from_slice(&retired.to_le_bytes());
                assert!(rejection(&old, &clear, form).contains("magic"), "{form}");
            }
            let flags = payload[8];
            assert_eq!(flags & !FLAG_INT8, 0);
            // Bit 0 (the retired partition bit) and bits 2..8.
            for bit in (0..8).filter(|&bit| 1 << bit != FLAG_INT8) {
                let mut forged = payload.clone();
                forged[8] = flags | (1 << bit);
                assert!(
                    rejection(&forged, &clear, form).contains("flag"),
                    "{form}: bit {bit}"
                );
            }
            // The int8 bit flipped selects projection slots the payload
            // does not have; that fails typed too, wherever the
            // mismatch lands.
            let mut forged = payload.clone();
            forged[8] = flags ^ FLAG_INT8;
            assert!(decode(&forged, &clear).is_err(), "{form}: flipped int8");
        }
    }

    #[test]
    fn declared_widths_are_checked_against_the_matrices_read() {
        // `trained_vault` is 3 features → backbone [4, 2] → series
        // rectifier [4, 2]; the widths are the projections' shapes. A
        // matrix header forged to 2^20-wide must fail typed — before
        // anything reads or Glorot-allocates from the claim.
        const HUGE: u64 = 1 << 20;
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            for (form, clear, payload) in four_forms(conv) {
                let int8 = form.contains("int8");
                // The backbone section: layers | first projection's
                // header — `rows | cols` of the 3 × 4 f32 weight, or
                // `out | in` of its int8 slot.
                let first = if int8 { [2, 4, 3] } else { [2, 3, 4] };
                for (forged_header, why) in [
                    ([2, HUGE, HUGE], "implausible"),
                    ([2, first[1], HUGE], "implausible"),
                    (
                        [2, 0, HUGE],
                        if int8 { "implausible" } else { "no elements" },
                    ),
                    (
                        [2, HUGE, 0],
                        if int8 { "implausible" } else { "no elements" },
                    ),
                    ([HUGE, first[1], first[2]], "implausible layer count"),
                ] {
                    let forged = forge_u64s(&payload, &first, &forged_header);
                    let reason = rejection(&forged, &clear, form);
                    assert!(reason.contains(why), "{form}: {forged_header:?}: {reason}");
                }
                // More layers than the payload carries runs out of
                // matrices, or reads a bias as a projection.
                let forged = forge_u64s(&payload, &first, &[3, first[1], first[2]]);
                assert!(decode(&forged, &clear).is_err(), "{form}");

                // The rectifier section: kind | conv | layers 2 | its
                // first projection, 4 × 4 (8 × 4 for SAGE's
                // concatenation).
                let conv_tag = match conv {
                    ConvKind::Gcn => 0,
                    ConvKind::Sage => 1,
                    ConvKind::Gat => 2,
                };
                let kind_conv = [2u8, conv_tag];
                let rect = payload
                    .windows(2 + 8)
                    .rposition(|w| w[..2] == kind_conv && w[2..] == 2u64.to_le_bytes())
                    .expect("the rectifier section")
                    + 2;
                let mut forged = payload.clone();
                forged[rect..rect + 8].copy_from_slice(&HUGE.to_le_bytes());
                let reason = rejection(&forged, &clear, form);
                assert!(
                    reason.contains("implausible layer count"),
                    "{form}: {reason}"
                );
                let mut forged = payload.clone();
                forged[rect + 8..rect + 24].copy_from_slice(&[HUGE.to_le_bytes(); 2].concat());
                let reason = rejection(&forged, &clear, form);
                assert!(reason.contains("implausible"), "{form}: {reason}");

                // An int8 slot holding what `quantize` never writes: the
                // first backbone slot is out 4 | in 3 | 12 codes | 4
                // scales.
                if !int8 {
                    continue;
                }
                let slot: Vec<u8> = first.iter().flat_map(|v| v.to_le_bytes()).collect();
                let at = payload.windows(slot.len()).position(|w| w == slot);
                let codes = at.expect("the first int8 slot") + slot.len();
                let scale0 = codes + 12;
                let mut forged = payload.clone();
                forged[codes] = i8::MIN as u8;
                let reason = rejection(&forged, &clear, form);
                assert!(reason.contains("code -128"), "{form}: {reason}");
                let genuine = f32::from_le_bytes(payload[scale0..scale0 + 4].try_into().unwrap());
                for (scale, why) in [
                    (f32::NAN, "is not one the codec writes"),
                    (f32::INFINITY, "is not one the codec writes"),
                    (-genuine, "is not one the codec writes"),
                    (-0.0, "is not one the codec writes"),
                    (f32::MIN_POSITIVE / 2.0, "is not one the codec writes"),
                    // Finite, but code ±127 times it is not.
                    (f32::MAX / 2.0, "non-finite weight"),
                ] {
                    let mut forged = payload.clone();
                    forged[scale0..scale0 + 4].copy_from_slice(&scale.to_le_bytes());
                    let reason = rejection(&forged, &clear, form);
                    assert!(reason.contains(why), "{form}: scale {scale:e}: {reason}");
                }
            }
        }
    }

    #[test]
    fn weights_that_break_the_chain_or_the_wiring_fail_before_any_network_is_built() {
        // Written by an encoder handed inconsistent weights — the one
        // forgery the shapes alone can carry. The reasons name the
        // checks `decode` runs on the projections it has read, ahead
        // of `Network::new` and `Rectifier::new_with_conv`.
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            for (form, clear, payload) in four_forms(conv) {
                type Forge = fn(&mut Deployment);
                let forgeries: [(Forge, &str); 3] = [
                    // Backbone layer 1 reads 2 features where layer 0
                    // writes 4.
                    (
                        |d| {
                            d.backbone.network.layers_mut()[1].params_mut()[0].value =
                                DenseMatrix::filled(2, 2, 0.5)
                        },
                        "does not chain",
                    ),
                    // Rectifier layer 0 one row wider than its tap.
                    (
                        |d| {
                            let w = &mut d.rectifier.network.layers_mut()[0].params_mut()[0].value;
                            *w = DenseMatrix::filled(w.rows() + 1, w.cols(), 0.5);
                        },
                        "fan-in",
                    ),
                    // Rectifier layer 0 one channel wider, so layer 1's
                    // rows no longer match the width it is fed.
                    (
                        |d| {
                            let w = &mut d.rectifier.network.layers_mut()[0].params_mut()[0].value;
                            *w = DenseMatrix::filled(w.rows(), w.cols() + 1, 0.5);
                        },
                        "fan-in",
                    ),
                ];
                for (forge, why) in forgeries {
                    let mut d = decode(&payload, &clear).unwrap();
                    forge(&mut d);
                    let reason = rejection(&encode(&d), &clear, form);
                    assert!(reason.contains(why), "{form}: {reason}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn partition_snapshot_roundtrip_answers_its_block_bit_identically(
            n in 4usize..10,
            kind_idx in 0usize..3,
            density in 100u64..700,
            seed in 0u64..1000,
            nparts in 2usize..5,
        ) {
            use graph::partition::PartitionSpec;
            let kind = RectifierKind::ALL[kind_idx];
            let graph = random_graph(n, density, seed);
            let key = SealKey(seed as u128 + 29);
            let (mut vault, x) = trained_vault(
                n, kind, ConvKind::Gcn, SubstituteKind::Knn { k: 1 }, &graph, seed, key,
            );
            let (full_labels, _) = vault.infer(&x).unwrap();
            let spec = PartitionSpec::block(n, nparts).unwrap();
            let snaps = vault.partition_snapshots(&spec).unwrap();
            prop_assert_eq!(snaps.len(), nparts);
            for (part, snap) in snaps.iter().enumerate() {
                prop_assert_eq!(snap.epoch(), vault.epoch());
                prop_assert_eq!(snap.num_nodes(), n, "partition snapshots report the global count");
                let stamp = snap.partition().expect("partition snapshots carry their stamp");
                prop_assert_eq!(stamp.part(), part);
                prop_assert_eq!(stamp.parts(), nparts);

                let mut partial = Vault::restore(snap, key).unwrap();
                prop_assert_eq!(partial.epoch(), vault.epoch());
                prop_assert_eq!(partial.num_nodes(), n);
                prop_assert_eq!(partial.partition_info(), Some((part, nparts)));
                let owned: Vec<usize> = spec.range(part).collect();

                // Owned nodes answer bit-identically to the full vault,
                // through both the batched and the per-node path.
                if !owned.is_empty() {
                    let mut session = partial.open_session();
                    let (labels, _) = partial.infer_batch(&mut session, &x, &owned).unwrap();
                    for (label, &o) in labels.iter().zip(&owned) {
                        prop_assert_eq!(*label, full_labels[o]);
                    }
                    let (single, _) = partial.infer_node(&x, owned[0]).unwrap();
                    prop_assert_eq!(single, full_labels[owned[0]]);
                }

                // Non-owned nodes fail with the typed routing error on
                // both paths — never a silently wrong label.
                if let Some(alien) = (0..n).find(|&m| spec.owner_of(m) != part) {
                    let mut session = partial.open_session();
                    prop_assert!(matches!(
                        partial.infer_batch(&mut session, &x, &[alien]),
                        Err(VaultError::NotOwned { node, part: p, parts })
                            if node == alien && p == part && parts == nparts
                    ));
                    prop_assert!(matches!(
                        partial.infer_node(&x, alien),
                        Err(VaultError::NotOwned { .. })
                    ));
                }

                // Full-graph inference is refused outright on a partial
                // vault (no partition holds every node).
                prop_assert!(matches!(
                    partial.infer(&x),
                    Err(VaultError::InvalidConfig { .. })
                ));

                // Wrong key: sealing rejects, nothing leaks.
                prop_assert!(matches!(
                    Vault::restore(snap, SealKey(key.0 ^ 5)),
                    Err(VaultError::Tee(TeeError::SealTampered))
                ));
            }
        }
    }

    #[test]
    fn partition_snapshot_rejects_forged_stamps() {
        let graph = random_graph(6, 500, 11);
        let key = SealKey(13);
        let (vault, _) = trained_vault(
            6,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            6,
            key,
        );
        let spec = PartitionSpec::block(6, 2).unwrap();
        let snap = vault.partition_snapshots(&spec).unwrap().swap_remove(0);
        let full = vault.snapshot();

        // Every relabeling of the clear metadata derives another key:
        // another part or part count, another epoch, a partition image
        // passed off as a full one, and a full one as a partition.
        let relabeled = [
            ("part", Some(SnapshotPartition { part: 1, parts: 2 }), &snap),
            (
                "parts",
                Some(SnapshotPartition { part: 0, parts: 3 }),
                &snap,
            ),
            ("unstamped", None, &snap),
            (
                "full as partition",
                Some(SnapshotPartition { part: 0, parts: 2 }),
                &full,
            ),
        ];
        for (what, partition, image) in relabeled {
            let forged = VaultSnapshot {
                partition,
                ..image.clone()
            };
            assert_seal_tampered(&forged, key, what);
        }
        let forged_epoch = VaultSnapshot {
            epoch: snap.epoch + 1,
            ..snap.clone()
        };
        assert_seal_tampered(&forged_epoch, key, "epoch");
    }

    #[test]
    fn int8_partition_snapshots_answer_their_block_bit_identically() {
        use graph::partition::PartitionSpec;
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            let graph = random_graph(8, 500, 17);
            let key = SealKey(23);
            let (mut vault, x) = trained_vault(
                8,
                RectifierKind::Series,
                conv,
                SubstituteKind::Knn { k: 2 },
                &graph,
                5,
                key,
            );
            let spec = PartitionSpec::block(8, 2).unwrap();
            let f32_snaps = vault.partition_snapshots(&spec).unwrap();
            vault.set_precision(crate::Precision::Int8).unwrap();
            let (labels, _) = vault.infer(&x).unwrap();
            let snaps = vault.partition_snapshots(&spec).unwrap();
            for (part, (snap, f32_snap)) in snaps.iter().zip(&f32_snaps).enumerate() {
                assert!(
                    snap.sealed_nbytes() < f32_snap.sealed_nbytes(),
                    "{conv:?}: an int8 partition seals less than its f32 form"
                );
                let mut partial = Vault::restore(snap, key).unwrap();
                assert_eq!(partial.precision(), crate::Precision::Int8);
                let owned: Vec<usize> = spec.range(part).collect();
                let mut session = partial.open_session();
                let (plabels, _) = partial.infer_batch(&mut session, &x, &owned).unwrap();
                for (label, &o) in plabels.iter().zip(&owned) {
                    assert_eq!(*label, labels[o], "{conv:?}: partition disagrees on {o}");
                }
                let (single, _) = partial.infer_node(&x, owned[0]).unwrap();
                assert_eq!(single, labels[owned[0]], "{conv:?}");
                // The partition re-seals its own image byte-identically,
                // and that second-generation image restores a replica
                // that still answers the same.
                let resealed = partial.snapshot();
                assert_eq!(&resealed, snap, "{conv:?}");
                assert_eq!(resealed.sealed_nbytes(), snap.sealed_nbytes());
                let mut second = Vault::restore(&resealed, key).unwrap();
                assert_eq!(second.precision(), crate::Precision::Int8);
                let mut session = second.open_session();
                let (again, _) = second.infer_batch(&mut session, &x, &owned).unwrap();
                assert_eq!(again, plabels, "{conv:?}: second-generation replica");
            }
        }
    }

    #[test]
    fn partition_snapshots_beat_full_replicas_on_sparse_graphs() {
        use graph::partition::PartitionSpec;
        // A 96-node ring: block partitions have small halos (the L-hop
        // closure of a contiguous arc grows by 2L nodes, not to the
        // whole graph), so each shard seals a fraction of the edges.
        let n = 96;
        let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let graph = Graph::from_edges(n, &ring).unwrap();
        let key = SealKey(31);
        let (mut vault, x) = trained_vault(
            n,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            8,
            key,
        );
        let (full_labels, _) = vault.infer(&x).unwrap();
        let full = vault.snapshot();
        let spec = PartitionSpec::block(n, 4).unwrap();
        for (part, snap) in vault.partition_snapshots(&spec).unwrap().iter().enumerate() {
            assert!(
                snap.sealed_nbytes() < full.sealed_nbytes(),
                "partition {part} seals {} bytes, full replica {}",
                snap.sealed_nbytes(),
                full.sealed_nbytes()
            );
            // The partial vault's own recovery handle restores the same
            // partial deployment (the serving runtime's crash path).
            let partial = Vault::restore(snap, key).unwrap();
            let mut recovered = partial.recovery_handle().restore().unwrap();
            assert_eq!(recovered.partition_info(), Some((part, 4)));
            let owned: Vec<usize> = spec.range(part).collect();
            let mut session = recovered.open_session();
            let (labels, _) = recovered.infer_batch(&mut session, &x, &owned).unwrap();
            for (label, &o) in labels.iter().zip(&owned) {
                assert_eq!(*label, full_labels[o]);
            }
        }
    }

    #[test]
    fn a_replica_answers_exactly_the_block_the_router_sends_it() {
        // Ownership is derived, not sealed: a partition replica answers
        // node n iff `owner_of(n)` names it — including partitions past
        // the last node, which own nothing and still seal, restore and
        // re-seal like any other.
        use graph::partition::PartitionSpec;
        let n = 5;
        let graph = random_graph(n, 500, 3);
        let key = SealKey(41);
        let (mut vault, x) = trained_vault(
            n,
            RectifierKind::Series,
            ConvKind::Gcn,
            SubstituteKind::Knn { k: 1 },
            &graph,
            4,
            key,
        );
        let (full_labels, _) = vault.infer(&x).unwrap();
        let mut empty_images = 0;
        for nparts in [1, 2, 3, 5, 7] {
            let spec = PartitionSpec::block(n, nparts).unwrap();
            for (part, snap) in vault.partition_snapshots(&spec).unwrap().iter().enumerate() {
                let mut partial = Vault::restore(snap, key).unwrap();
                assert_eq!(partial.partition_info(), Some((part, nparts)));
                for (node, &expected) in full_labels.iter().enumerate() {
                    let mut session = partial.open_session();
                    match partial.infer_batch(&mut session, &x, &[node]) {
                        Ok((labels, _)) => {
                            assert_eq!(spec.owner_of(node), part, "{nparts}: node {node}");
                            assert_eq!(labels[0], expected);
                        }
                        Err(VaultError::NotOwned { node: m, .. }) => {
                            assert_ne!(spec.owner_of(node), part, "{nparts}: node {node}");
                            assert_eq!(m, node);
                        }
                        Err(other) => panic!("{nparts}/{part}: node {node}: {other}"),
                    }
                }
                let resealed = partial.snapshot();
                assert_eq!(
                    &resealed, snap,
                    "{nparts}/{part}: re-seals byte-identically"
                );
                if spec.range(part).is_empty() {
                    empty_images += 1;
                    let again = Vault::restore(&resealed, key).unwrap();
                    assert_eq!(again.partition_info(), Some((part, nparts)));
                }
            }
        }
        assert_eq!(
            empty_images, 2,
            "block(5, 7) leaves partitions 5 and 6 empty"
        );
    }

    #[test]
    fn a_partition_image_seals_its_closure_in_place_of_the_real_graph() {
        // The 512-node bench graph: a ring with two chord families
        // (sparse, with strong locality), 32 features, a [16, 8, 2]
        // backbone and series rectifier. A partition image is the full
        // image with the real graph swapped for the closure (ids,
        // degrees, induced graph) — no owned list and no stamp: the
        // decoder derives the owned block from the clear `(part,
        // parts)`, which the seal binds.
        use graph::partition::{partition, PartitionSpec};
        let n = 512;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for k in 1..=2 {
            edges.extend((0..n).map(|i| (i, (i + k * 7 + 1) % n)));
        }
        let graph = Graph::from_edges(n, &edges).unwrap();
        let x = features(n, 32, 17);
        let labels: Vec<usize> = (0..n).map(|r| usize::from(r >= n / 2)).collect();
        let train: Vec<usize> = (0..n).step_by(2).collect();
        let cfg = TrainConfig {
            epochs: 10,
            lr: 0.05,
            weight_decay: 0.0,
            dropout: 0.0,
            seed: 0,
        };
        let channels = [16, 8, 2];
        let backbone = crate::Backbone::train(
            &x,
            &labels,
            &train,
            SubstituteKind::Knn { k: 2 },
            &channels,
            graph.num_edges(),
            &cfg,
            1,
        )
        .unwrap();
        let rectifier = Rectifier::new(
            RectifierKind::Series,
            &channels,
            &backbone.channel_dims(),
            2,
        )
        .unwrap();
        let vault = Vault::deploy(
            backbone,
            rectifier,
            &graph,
            tee::SGX_EPC_BYTES,
            tee::CostModel::default(),
            tee::OverBudgetPolicy::Fail,
            SealKey(3),
        )
        .unwrap();

        let graph_bytes = |g: &Graph| 8 + 16 * g.num_edges();
        let list_bytes = |len: usize| 8 + 8 * len;
        let full = vault.snapshot().sealed_nbytes();
        let spec = PartitionSpec::block(n, 4).unwrap();
        let closures = partition(&graph, &spec, channels.len()).unwrap();
        let images: Vec<usize> = vault
            .partition_snapshots(&spec)
            .unwrap()
            .iter()
            .map(VaultSnapshot::sealed_nbytes)
            .collect();
        for (image, closure) in images.iter().zip(&closures) {
            let scope = 2 * list_bytes(closure.ids.len()) + graph_bytes(&closure.graph);
            assert_eq!(*image, full - graph_bytes(&graph) + scope);
            assert!(*image < full);
        }
        println!("{n}-node bench graph: full image {full} sealed bytes, 4-way partition images {images:?}");
    }
}
