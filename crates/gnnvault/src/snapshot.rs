//! Sealed vault snapshots: a deterministic byte serialization of a
//! trained, deployed [`Vault`](crate::Vault).
//!
//! A snapshot captures everything a replica needs to answer queries
//! bit-identically to the source vault — backbone weights (and the
//! public substitute graph), rectifier weights, the tap-set wiring, the
//! private real graph, and the deployment's enclave configuration
//! (EPC budget, cost model, over-budget policy) — but *not* the public
//! feature corpus, which lives in the untrusted world and is supplied
//! at serving time.
//!
//! The payload is sealed with [`tee::Sealed`] under a key derived from
//! the deployment's [`SealKey`](tee::SealKey) (purpose
//! `"vault-snapshot"`), mirroring SGX sealing-for-migration: the bytes
//! can sit on untrusted storage or cross to another worker, and only a
//! holder of the deployment key can rehydrate them
//! ([`Vault::restore`](crate::Vault::restore)). Encoding is
//! deterministic — same vault, same bytes — and restoration preserves
//! the source vault's epoch, so replicas of one snapshot share a cache
//! identity: `(epoch, node)` keys mean the same answer on every
//! replica.
//!
//! There is one payload form: one magic, one flags byte, and a body
//! whose sections the flags select (little-endian throughout, like
//! [`tee::codec`]; both sides are always built from the same binary, so
//! any other magic — including the retired `GV_SNAP1`–`GV_SNAP5` — and
//! any undefined flag bit is rejected, not migrated):
//!
//! ```text
//! magic u64 ("GV_SNAP6")
//! flags u8            bit 0: partition image   bit 1: int8 projections
//! epoch u64 | num_global_nodes u64
//! config:    epc_budget u64 | cost{transition,per_byte,page_swap,slowdown} u64×4
//!            | policy u8
//! backbone:  tag u8 (0 with substitute, 1 without — the DNN backbone)
//!              0: substitute kind (tag u8 + payload) | substitute graph
//!            | network
//! rectifier: kind u8 | conv u8 | backbone_dims | channels | taps
//!            | per layer (count u64, projection, count-1 matrices)
//! scope:     full image:      real graph
//!            partition image: part u64 | parts u64 | closure ids (global
//!                             ids) | closure degrees | closure graph
//! ```
//!
//! where `network` is `input_dim u64 | layers u64 | per layer (in u64,
//! out u64, projection, bias matrix)`, a matrix is `rows u64 | cols u64
//! | f32-LE data`, a list is `len u64 | u64 items`, and a graph is
//! `num_nodes u64 | num_edges u64 | (u,v) u64 pairs`.
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
//! [`PartitionSpec::block`]`(num_global_nodes, parts)` assigns to
//! `part`, the same function the serving router evaluates. Restoring it
//! builds a *partial* vault that answers only that block —
//! bit-identically to the full vault, because the closure spans the
//! rectifier's receptive field and normalization uses the original
//! degrees.
//!
//! [`decode`] takes the snapshot's clear metadata (epoch, node count,
//! partition stamp) and rejects a payload that disagrees with it before
//! it reads any graph section, and every graph section must declare the
//! node count that metadata fixes (the whole deployment's, or the
//! closure's). No allocation is sized from a count the payload alone
//! declares.

use crate::backbone::Substitute;
use crate::{Backbone, Precision, Rectifier, RectifierKind, SubstituteKind, VaultError};
use graph::partition::PartitionSpec;
use graph::subgraph::Closure;
use graph::Graph;
use linalg::{DenseMatrix, QuantizedMatrix};
use nn::{ConvKind, Network, Param};
use tee::{CostModel, OverBudgetPolicy, Sealed};

/// Format marker at offset 0 of every snapshot payload.
const MAGIC: u64 = 0x4756_5F53_4E41_5036; // "GV_SNAP6"

/// Flag bit: the scope section is one partition, not the full graph.
const FLAG_PARTITION: u8 = 1 << 0;

/// Flag bit: projection slots hold int8 codes + scales, not f32.
const FLAG_INT8: u8 = 1 << 1;

/// Which partition a sealed snapshot carries — clear routing metadata
/// on a [`VaultSnapshot`], mirrored (and cross-checked) inside the
/// sealed payload, and all a partition replica keeps of its ownership:
/// it owns the block [`PartitionSpec::block`]`(num_nodes, parts)`
/// assigns to `part`. Ownership is a pure function of the node id, so
/// exposing `part`/`parts` reveals nothing about the private edges.
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
/// [`Vault::restore`](crate::Vault::restore). The epoch and corpus size
/// are exposed in the clear (they are serving-layer routing metadata,
/// not secrets — the untrusted world already knows both); everything
/// else, including the private real graph and rectifier weights, lives
/// only inside the sealed payload.
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

    /// Wraps an already-sealed payload with its clear metadata
    /// (crate-internal; use [`Vault::snapshot`](crate::Vault::snapshot)
    /// or [`Vault::partition_snapshots`](crate::Vault::partition_snapshots)).
    pub(crate) fn new(
        epoch: u64,
        num_nodes: usize,
        partition: Option<SnapshotPartition>,
        sealed: Sealed,
    ) -> Self {
        Self {
            epoch,
            num_nodes,
            partition,
            sealed,
        }
    }

    /// The sealed payload (crate-internal; `Vault::restore` unseals it).
    pub(crate) fn sealed(&self) -> &Sealed {
        &self.sealed
    }
}

/// Everything of a deployment that is the same whichever share of the
/// private graph an image carries: what [`encode`] writes ahead of the
/// scope section.
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

/// The owned parts of one deployment: what [`decode`] returns and what
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

/// Shorthand for decode failures.
fn bad(reason: impl Into<String>) -> VaultError {
    VaultError::Snapshot {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Byte writer / reader
// ---------------------------------------------------------------------

/// Append-only little-endian payload writer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

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

    /// A layer's parameters in `params()` order: param 0, the
    /// projection weight of every conv kind, through the projection
    /// slot; the rest (bias, attention vectors) as f32 matrices.
    fn put_params(&mut self, params: &[&Param], precision: Precision) {
        self.put_projection(&params[0].value, precision);
        for p in &params[1..] {
            self.put_matrix(&p.value);
        }
    }

    fn put_graph(&mut self, g: &Graph) {
        self.put_usize(g.num_nodes());
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
        let n = out_dim
            .checked_mul(in_dim)
            .filter(|&n| n <= self.buf.len())
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

    /// Reads a projection slot in the form the int8 flag selects and
    /// returns the f32 weight a layer is restored with. An empty weight
    /// is rejected — a `0 × n` matrix costs the payload nothing, so its
    /// `n` would be the one dimension the payload's length does not
    /// bound.
    fn get_projection(&mut self, precision: Precision) -> Result<DenseMatrix, VaultError> {
        let weight = match precision {
            Precision::F32 => self.get_matrix()?,
            Precision::Int8 => self.get_qmatrix()?,
        };
        if weight.rows() == 0 || weight.cols() == 0 {
            return Err(bad("projection weight has no elements"));
        }
        Ok(weight)
    }

    /// `count` parameters as [`Writer::put_params`] writes them.
    fn get_params(
        &mut self,
        count: usize,
        precision: Precision,
    ) -> Result<Vec<DenseMatrix>, VaultError> {
        let mut values = vec![self.get_projection(precision)?];
        for _ in 1..count {
            values.push(self.get_matrix()?);
        }
        Ok(values)
    }

    /// A graph section, which must declare `num_nodes` nodes: the count
    /// the clear metadata (or the closure list already read) fixes, so
    /// nothing downstream sizes a per-node allocation from the payload
    /// alone.
    fn get_graph(&mut self, num_nodes: usize) -> Result<Graph, VaultError> {
        let declared = self.get_usize()?;
        if declared != num_nodes {
            return Err(bad(format!(
                "graph section declares {declared} nodes where {num_nodes} are expected"
            )));
        }
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

/// Encodes a deployment into the deterministic snapshot payload
/// (pre-sealing): the shared header, then the scope section — all of
/// `resident` as one partition's closure when `partition` names it (a
/// partition image), else just its graph, the whole real graph (a
/// replica image).
pub(crate) fn encode(
    h: &Header<'_>,
    partition: Option<SnapshotPartition>,
    resident: &Closure,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(MAGIC);
    let partition_flag = partition.map_or(0, |_| FLAG_PARTITION);
    w.put_u8(match h.precision {
        Precision::F32 => partition_flag,
        Precision::Int8 => partition_flag | FLAG_INT8,
    });
    w.put_u64(h.epoch);
    w.put_usize(h.num_nodes);

    w.put_usize(h.epc_budget);
    w.put_u64(h.cost.transition_ns);
    w.put_u64(h.cost.per_byte_ns);
    w.put_u64(h.cost.page_swap_ns);
    w.put_u64(h.cost.compute_slowdown_pct as u64);
    w.put_u8(match h.policy {
        OverBudgetPolicy::Swap => 0,
        OverBudgetPolicy::Fail => 1,
    });

    encode_backbone(&mut w, h.backbone, h.precision);
    encode_rectifier(&mut w, h.rectifier, h.precision);

    if let Some(stamp) = partition {
        w.put_usize(stamp.part);
        w.put_usize(stamp.parts);
        w.put_usizes(&resident.ids);
        w.put_usizes(&resident.degrees);
    }
    w.put_graph(&resident.graph);
    w.buf
}

fn encode_backbone(w: &mut Writer, backbone: &Backbone, precision: Precision) {
    // The tag says whether a substitute precedes the network.
    match &backbone.substitute {
        Some(substitute) => {
            w.put_u8(0);
            encode_substitute_kind(w, &substitute.kind);
            w.put_graph(&substitute.graph);
        }
        None => w.put_u8(1),
    }
    let layers = backbone.network.layers();
    w.put_usize(layers[0].in_dim());
    w.put_usize(layers.len());
    for layer in layers {
        w.put_usize(layer.in_dim());
        w.put_usize(layer.out_dim());
        w.put_params(&layer.params(), precision);
    }
}

fn encode_rectifier(w: &mut Writer, rectifier: &Rectifier, precision: Precision) {
    w.put_u8(match rectifier.kind() {
        RectifierKind::Parallel => 0,
        RectifierKind::Cascaded => 1,
        RectifierKind::Series => 2,
    });
    w.put_u8(match rectifier.conv() {
        ConvKind::Gcn => 0,
        ConvKind::Sage => 1,
        ConvKind::Gat => 2,
    });
    w.put_usizes(&rectifier.backbone_dims);
    w.put_usizes(&rectifier.channel_dims());
    w.put_usizes(&rectifier.tap_indices());
    for layer in rectifier.network.layers() {
        let params = layer.params();
        w.put_usize(params.len());
        w.put_params(&params, precision);
    }
}

/// Moves every weight [`encode`] writes through a projection slot —
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

/// Decodes the payload sealed inside `clear` back into deployment
/// parts, validating every shape against the reconstructed architecture
/// and the payload's own copy of the clear metadata against `clear`'s:
/// a partition image relabeled as another partition (or as a full
/// replica), or any epoch or node count the clear side does not carry,
/// is a forgery, rejected before any graph section is read.
pub(crate) fn decode(payload: &[u8], clear: &VaultSnapshot) -> Result<Deployment, VaultError> {
    let mut r = Reader::new(payload);
    if r.get_u64()? != MAGIC {
        return Err(bad("bad magic: not a vault snapshot of this format"));
    }
    let flags = r.get_u8()?;
    if flags & !(FLAG_PARTITION | FLAG_INT8) != 0 {
        return Err(bad(format!("undefined flag bits in {flags:#010b}")));
    }
    let precision = if flags & FLAG_INT8 != 0 {
        Precision::Int8
    } else {
        Precision::F32
    };
    let epoch = r.get_u64()?;
    let num_global_nodes = r.get_usize()?;
    if epoch != clear.epoch() || num_global_nodes != clear.num_nodes() {
        return Err(bad("snapshot metadata disagrees with its sealed payload"));
    }
    if (flags & FLAG_PARTITION != 0) != clear.partition().is_some() {
        return Err(bad(
            "snapshot partition stamp disagrees with its sealed payload",
        ));
    }

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

    let backbone = decode_backbone(&mut r, precision, num_global_nodes)?;
    let rectifier = decode_rectifier(&mut r, &backbone, precision)?;

    let partition = clear.partition();
    let resident = match partition {
        Some(stamp) => decode_partition_scope(&mut r, num_global_nodes, stamp)?,
        None => Closure::whole(r.get_graph(num_global_nodes)?),
    };
    r.finish()?;

    Ok(Deployment {
        epoch,
        num_nodes: num_global_nodes,
        epc_budget,
        cost,
        policy,
        backbone,
        rectifier,
        precision,
        resident,
        partition,
    })
}

/// A partition image's scope section, which must be partition `stamp`
/// of the deployment and whose closure must hold every id of the block
/// that stamp owns.
fn decode_partition_scope(
    r: &mut Reader<'_>,
    num_global_nodes: usize,
    stamp: SnapshotPartition,
) -> Result<Closure, VaultError> {
    let part = r.get_usize()?;
    let parts = r.get_usize()?;
    if (part, parts) != (stamp.part, stamp.parts) {
        return Err(bad(
            "snapshot partition stamp disagrees with its sealed payload",
        ));
    }
    if part >= parts {
        return Err(bad(format!("partition index {part} out of {parts}")));
    }
    // Strictly ascending within bounds: the invariant every closure
    // lookup (binary search) relies on.
    let local_ids = r.get_usizes()?;
    if local_ids.iter().any(|&n| n >= num_global_nodes) {
        return Err(bad(format!(
            "closure list references a node beyond {num_global_nodes}"
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

    let mut owned = PartitionSpec::block(num_global_nodes, parts)
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

/// Rejects a declared shape that is not the shape of a matrix actually
/// read — whose element count the payload's own length bounds — before
/// any network constructor sizes an allocation from the declaration.
fn expect_shape(
    what: &str,
    declared: (usize, usize),
    read: &DenseMatrix,
) -> Result<(), VaultError> {
    if read.shape() != declared {
        return Err(bad(format!(
            "{what} is declared {declared:?} but the payload carries {:?}",
            read.shape()
        )));
    }
    Ok(())
}

/// The backbone, whose substitute graph (public, over the whole
/// corpus) spans the deployment's `num_nodes`.
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
    Ok(Backbone {
        network: decode_network(r, precision)?,
        substitute,
    })
}

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
    let backbone_dims = r.get_usizes()?;
    if backbone_dims != backbone.channel_dims() {
        return Err(bad(
            "rectifier wiring disagrees with the decoded backbone's layer widths",
        ));
    }
    let channels = r.get_usizes()?;
    let taps = r.get_usizes()?;

    // Read every layer's matrices before constructing anything, so the
    // declared `channels` can be held against them.
    let mut layer_values = Vec::with_capacity(channels.len());
    for _ in &channels {
        let count = r.get_count(16, "rectifier parameter")?;
        if count == 0 {
            return Err(bad("rectifier layer has no parameters"));
        }
        layer_values.push(r.get_params(count, precision)?);
    }
    // Widths first: only once every channel is a (non-empty, hence
    // payload-bounded) weight's column count is it safe to add them up
    // into the wiring's expected input widths.
    let widths: Vec<usize> = layer_values.iter().map(|v| v[0].cols()).collect();
    if widths != channels {
        return Err(bad(format!(
            "rectifier channels are declared {channels:?} but the weights are {widths:?} wide"
        )));
    }
    let input_widths = Rectifier::input_widths(kind, &channels, &backbone_dims);
    for ((values, in_dim), &out_dim) in layer_values.iter().zip(input_widths).zip(&channels) {
        // A SAGE weight spans the `[H ‖ Ā H]` concatenation.
        let fan_in = match conv {
            ConvKind::Sage => 2 * in_dim,
            ConvKind::Gcn | ConvKind::Gat => in_dim,
        };
        expect_shape("rectifier weight", (fan_in, out_dim), &values[0])?;
    }

    let mut rectifier = Rectifier::new_with_conv(kind, conv, &channels, &backbone_dims, 0)?;
    if rectifier.tap_indices() != taps {
        return Err(bad(
            "encoded tap-set disagrees with the reconstructed wiring",
        ));
    }
    restore_params(&mut rectifier.network, layer_values, "rectifier")?;
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

/// Decodes the backbone's GCN chain: its architecture, then per-layer
/// `(weight, bias)` values (the weight dequantized for an int8 payload).
fn decode_network(r: &mut Reader<'_>, precision: Precision) -> Result<Network, VaultError> {
    let input_dim = r.get_usize()?;
    let num_layers = r.get_count(8, "layer")?;
    let mut channels = Vec::with_capacity(num_layers);
    let mut layer_values = Vec::with_capacity(num_layers);
    let mut prev = input_dim;
    for _ in 0..num_layers {
        let in_dim = r.get_usize()?;
        let out_dim = r.get_usize()?;
        if in_dim != prev {
            return Err(bad(format!(
                "layer input width {in_dim} does not chain from previous width {prev}"
            )));
        }
        let values = r.get_params(2, precision)?;
        expect_shape("backbone weight", (in_dim, out_dim), &values[0])?;
        expect_shape("backbone bias", (1, out_dim), &values[1])?;
        channels.push(out_dim);
        layer_values.push(values);
        prev = out_dim;
    }
    let mut network = Network::new(input_dim, &channels, 0)?;
    restore_params(&mut network, layer_values, "backbone")?;
    Ok(network)
}

/// Overwrites a freshly built network's parameter values, layer by
/// layer in `params_mut()` order, with decoded matrices, rejecting
/// count and shape mismatches (gradients and optimizer moments stay
/// zeroed — they are training state, not deployment state).
fn restore_params(
    network: &mut Network,
    layer_values: Vec<Vec<DenseMatrix>>,
    what: &str,
) -> Result<(), VaultError> {
    for (layer, values) in network.layers_mut().iter_mut().zip(layer_values) {
        let params = layer.params_mut();
        if values.len() != params.len() {
            return Err(bad(format!(
                "{what} layer has {} parameters, payload carries {}",
                params.len(),
                values.len()
            )));
        }
        for (param, value) in params.into_iter().zip(values) {
            if param.value.shape() != value.shape() {
                return Err(bad(format!(
                    "{what} parameter shape {:?} does not match architecture shape {:?}",
                    value.shape(),
                    param.value.shape()
                )));
            }
            param.value = value;
        }
    }
    Ok(())
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

        // Metadata that disagrees with the sealed payload is caught.
        let forged = VaultSnapshot::new(
            snapshot.epoch() + 1,
            snapshot.num_nodes(),
            None,
            snapshot.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged, key),
            Err(VaultError::Snapshot { .. })
        ));

        // A sealed blob that is not a snapshot payload fails to decode
        // (bad magic), not panic.
        let garbage = VaultSnapshot::new(
            snapshot.epoch(),
            snapshot.num_nodes(),
            None,
            Sealed::seal(key.derive("vault-snapshot"), &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
        );
        assert!(matches!(
            Vault::restore(&garbage, key),
            Err(VaultError::Snapshot { .. })
        ));
    }

    #[test]
    fn forged_node_counts_fail_typed_against_the_clear_count() {
        // A full image whose header and real graph both declare 2^40
        // nodes agrees with itself, so only the clear count can catch
        // it — before `Closure::whole` sizes 2^40 ids and degrees from
        // the claim. Each graph section alone must match it too.
        const HUGE: u64 = 1 << 40;
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
        let payload = payload_of(&snapshot, key);
        let count_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        // magic u64 | flags u8 | epoch u64 | num_global_nodes u64
        let header = 17;
        // ... | config (41 bytes) | backbone tag u8 | KNN tag u8 | k u64
        // | the substitute graph's num_nodes u64
        let substitute = header + 8 + 41 + 2 + 8;
        // The real graph closes the payload: num_nodes u64 | num_edges
        // u64 | 16 bytes per edge.
        let real = payload.len() - 16 * graph.num_edges() - 16;
        for at in [header, substitute, real] {
            assert_eq!(count_at(at), 5, "offset {at} holds a node count");
        }
        let restore_forged = |offsets: &[usize]| {
            let mut forged = payload.clone();
            for &at in offsets {
                forged[at..at + 8].copy_from_slice(&HUGE.to_le_bytes());
            }
            let sealed = Sealed::seal(key.derive("vault-snapshot"), &forged);
            let clear = VaultSnapshot::new(snapshot.epoch(), snapshot.num_nodes(), None, sealed);
            match Vault::restore(&clear, key) {
                Err(VaultError::Snapshot { reason }) => reason,
                Err(other) => panic!("{offsets:?}: expected a snapshot error, got {other}"),
                Ok(_) => panic!("{offsets:?}: must not restore"),
            }
        };
        assert!(restore_forged(&[header, real]).contains("metadata"));
        for at in [substitute, real] {
            assert!(restore_forged(&[at]).contains("graph section declares"));
        }
    }

    /// Unsealed payload of a snapshot (test helper).
    fn payload_of(snapshot: &VaultSnapshot, key: SealKey) -> Vec<u8> {
        snapshot
            .sealed()
            .unseal(key.derive("vault-snapshot"))
            .unwrap()
            .to_vec()
    }

    /// The payload of every flag combination — {full, partition} ×
    /// {f32, int8} — for one small deployment. The MLP backbone keeps
    /// the bytes ahead of the network section free of graph ids, so the
    /// forging tests below can find declared widths by value.
    fn four_forms(conv: ConvKind) -> Vec<(&'static str, VaultSnapshot, Vec<u8>)> {
        use graph::partition::PartitionSpec;
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
            .expect("the payload declares these widths");
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

    #[test]
    fn every_strict_prefix_fails_to_decode_in_all_four_forms() {
        // GAT carries the most per-layer matrices, so its payload has
        // the most section boundaries to cut at.
        for (form, clear, payload) in four_forms(ConvKind::Gat) {
            assert!(decode(&payload, &clear).is_ok(), "{form}");
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
    fn retired_magics_and_undefined_flag_bits_are_rejected() {
        for (form, clear, payload) in four_forms(ConvKind::Gcn) {
            // GV_SNAP1..4: the four forms one codec replaced; GV_SNAP5:
            // that codec while partition images still sealed an owned
            // list.
            for retired in 0x4756_5F53_4E41_5031u64..=0x4756_5F53_4E41_5035 {
                let mut old = payload.clone();
                old[..8].copy_from_slice(&retired.to_le_bytes());
                assert!(rejection(&old, &clear, form).contains("magic"), "{form}");
            }
            let flags = payload[8];
            assert_eq!(flags & !(FLAG_PARTITION | FLAG_INT8), 0);
            for bit in 2..8 {
                let mut forged = payload.clone();
                forged[8] = flags | (1 << bit);
                assert!(
                    rejection(&forged, &clear, form).contains("flag"),
                    "{form}: bit {bit}"
                );
            }
            // A defined bit flipped selects a body the payload does not
            // have; that fails typed too, wherever the mismatch lands.
            for bit in [FLAG_PARTITION, FLAG_INT8] {
                let mut forged = payload.clone();
                forged[8] = flags ^ bit;
                assert!(
                    decode(&forged, &clear).is_err(),
                    "{form}: flipped {bit:#04b}"
                );
            }
        }
    }

    #[test]
    fn declared_widths_are_checked_against_the_matrices_read() {
        // `trained_vault` is 3 features → backbone [4, 2] → series
        // rectifier [4, 2]. A payload that *declares* 2^20-wide layers
        // beside those small matrices must fail typed — before
        // anything Glorot-allocates 2^20 × 2^20 floats from the claim.
        const HUGE: u64 = 1 << 20;
        for conv in [ConvKind::Gcn, ConvKind::Sage, ConvKind::Gat] {
            for (form, clear, payload) in four_forms(conv) {
                // Backbone: input_dim | layers | in | out, then the
                // weight itself.
                let forged = forge_u64s(&payload, &[3, 2, 3, 4], &[HUGE, 2, HUGE, HUGE]);
                let reason = rejection(&forged, &clear, form);
                assert!(
                    reason.contains("backbone weight is declared"),
                    "{form}: {reason}"
                );
                // Only the output width forged: the weight's row count
                // still matches, its column count does not.
                let forged = forge_u64s(&payload, &[3, 2, 3, 4], &[3, 2, 3, HUGE]);
                let reason = rejection(&forged, &clear, form);
                assert!(
                    reason.contains("backbone weight is declared"),
                    "{form}: {reason}"
                );

                // Rectifier: backbone_dims [4,2] | channels [4,2] |
                // taps [0], each list length-prefixed.
                let wiring = [2, 4, 2, 2, 4, 2, 1, 0];
                let forged = forge_u64s(&payload, &wiring, &[2, 4, 2, 2, HUGE, 2, 1, 0]);
                let reason = rejection(&forged, &clear, form);
                assert!(
                    reason.contains("rectifier channels are declared"),
                    "{form}: {reason}"
                );
                // A channel list claiming more layers than the payload
                // carries runs out of matrices instead.
                let forged = forge_u64s(&payload, &wiring, &[2, 4, 2, HUGE, 4, 2, 1, 0]);
                assert!(decode(&forged, &clear).is_err(), "{form}");

                // An int8 slot holding what `quantize` never writes. The
                // first backbone slot follows its layer's declared
                // widths: out 4 | in 3 | 12 codes | 4 scales.
                if !form.contains("int8") {
                    continue;
                }
                let slot: Vec<u8> = [3u64, 2, 3, 4, 4, 3]
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
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
        use graph::partition::PartitionSpec;
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
        let stamp = snap.partition().unwrap();

        // Clear-metadata stamp disagreeing with the sealed payload is
        // caught: wrong part index, wrong epoch, and a stamp claiming
        // the payload is a full snapshot (or vice versa).
        let forged_part = VaultSnapshot::new(
            snap.epoch(),
            snap.num_nodes(),
            Some(SnapshotPartition {
                part: 1,
                parts: stamp.parts(),
            }),
            snap.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged_part, key),
            Err(VaultError::Snapshot { .. })
        ));
        let forged_epoch = VaultSnapshot::new(
            snap.epoch() + 1,
            snap.num_nodes(),
            Some(stamp),
            snap.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&forged_epoch, key),
            Err(VaultError::Snapshot { .. })
        ));
        let unstamped =
            VaultSnapshot::new(snap.epoch(), snap.num_nodes(), None, snap.sealed().clone());
        assert!(matches!(
            Vault::restore(&unstamped, key),
            Err(VaultError::Snapshot { .. })
        ));
        let full = vault.snapshot();
        let full_as_partition = VaultSnapshot::new(
            full.epoch(),
            full.num_nodes(),
            Some(SnapshotPartition { part: 0, parts: 2 }),
            full.sealed().clone(),
        );
        assert!(matches!(
            Vault::restore(&full_as_partition, key),
            Err(VaultError::Snapshot { .. })
        ));
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
        // image with the real graph swapped for `part | parts` and the
        // closure (ids, degrees, induced graph) — no owned list: the
        // decoder derives the owned block from `(part, parts)`.
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

        let graph_bytes = |g: &Graph| 16 + 16 * g.num_edges();
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
            let scope = 16 + 2 * list_bytes(closure.ids.len()) + graph_bytes(&closure.graph);
            assert_eq!(*image, full - graph_bytes(&graph) + scope);
            assert!(*image < full);
        }
        println!("{n}-node bench graph: full image {full} sealed bytes, 4-way partition images {images:?}");
    }
}
