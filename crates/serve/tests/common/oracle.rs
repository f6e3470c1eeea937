//! The serving contract, stated once: what a served answer may be.
//!
//! Batching, caching, sharding and hot-swap change cost, never answers:
//! every served label equals sequential [`Vault::infer`] of the model
//! current at submit. The oracle is three pieces:
//!
//! - [`Models`]: the table of sequential `Vault::infer` labels of the
//!   two fixture models, A and B, at both precisions;
//! - [`acceptable`]: which models a request that raced a deploy may be
//!   answered by;
//! - [`Reference`]: a reference engine for one client that waits for
//!   every ticket. It says which answers are labels and which are typed
//!   errors, how each shard's health moves, what the fault counters
//!   read at shutdown and which model the survivor answers. Its shard
//!   is the state the shard state machine's word test checks
//!   (`src/worker.rs`), and like that test it schedules every fault at
//!   the ordinal the trace reaches, so the fault plan is an output of
//!   the reference, not an input.

use super::{toy_vault, toy_vault_flipped};
use gnnvault::{Precision, RectifierKind, Vault, VaultError, VaultSnapshot};
use graph::partition::PartitionSpec;
use linalg::DenseMatrix;
use serve::faults::{Fault, FaultPlan};
use serve::{FastCache, ServeError, ShardHealth, Topology};
use std::collections::HashSet;
use std::sync::OnceLock;
use tee::{ClassLabel, SealKey};

/// Corpus size: divisible by 1, 2 and 4, so block partitions are even.
pub const N: usize = 24;
/// Model A, the one every engine starts from.
pub const A: usize = 0;
/// Model B, trained on flipped labels so it disagrees with A.
pub const B: usize = 1;
/// The keys A (`toy_vault`'s) and B are sealed under.
pub const KEYS: [SealKey; 2] = [SealKey(7), SealKey(99)];
/// A key neither model is sealed under.
pub const WRONG_KEY: SealKey = SealKey(12345);

/// The two models at both precisions, trained once per test binary.
pub struct Models {
    pub features: DenseMatrix,
    /// `[precision][model]`: sequential `Vault::infer` labels.
    labels: [[Vec<ClassLabel>; 2]; 2],
    /// `[precision][model]`: the full images a deploy installs.
    snapshots: [[VaultSnapshot; 2]; 2],
    /// `[precision]`: what restoring B under [`WRONG_KEY`] fails with.
    wrong_key: [VaultError; 2],
    /// A partition image of A, which `deploy` refuses.
    pub partition: VaultSnapshot,
    /// A model over a 6-node corpus, which `deploy` refuses.
    pub foreign: VaultSnapshot,
}

fn slot(precision: Precision) -> usize {
    match precision {
        Precision::F32 => 0,
        Precision::Int8 => 1,
    }
}

impl Models {
    pub fn label(&self, precision: Precision, model: usize, node: usize) -> ClassLabel {
        self.labels[slot(precision)][model][node]
    }

    pub fn labels(&self, precision: Precision, model: usize) -> &[ClassLabel] {
        &self.labels[slot(precision)][model]
    }

    pub fn snapshot(&self, precision: Precision, model: usize) -> &VaultSnapshot {
        &self.snapshots[slot(precision)][model]
    }

    /// A fresh vault of `model`, sealed at `precision`.
    pub fn vault(&self, precision: Precision, model: usize) -> Vault {
        Vault::restore(self.snapshot(precision, model), KEYS[model]).unwrap()
    }

    pub fn epoch(&self, model: usize) -> u64 {
        self.snapshots[0][model].epoch()
    }

    pub fn wrong_key_error(&self, precision: Precision) -> &VaultError {
        &self.wrong_key[slot(precision)]
    }
}

pub fn models() -> &'static Models {
    static MODELS: OnceLock<Models> = OnceLock::new();
    MODELS.get_or_init(|| {
        let (a, features, _) = toy_vault(N, RectifierKind::Series);
        let (b, _) = toy_vault_flipped(N, KEYS[B]);
        let f32s = [a.snapshot(), b.snapshot()];
        let int8 = |m: usize| {
            let mut vault = Vault::restore(&f32s[m], KEYS[m]).unwrap();
            vault.set_precision(Precision::Int8).unwrap();
            vault.snapshot()
        };
        let snapshots = [f32s.clone(), [int8(A), int8(B)]];
        let labels = [0, 1].map(|p| {
            [A, B].map(|m| {
                let mut vault = Vault::restore(&snapshots[p][m], KEYS[m]).unwrap();
                vault.infer(&features).unwrap().0
            })
        });
        for p in [0, 1] {
            assert_ne!(labels[p][A], labels[p][B], "A and B must disagree");
        }
        // The int8 grid is its own model (the engine is held to its
        // labels); keeping ≥ 99 % of the f32 labels is fidelity.
        for m in [A, B] {
            let agree = (labels[0][m].iter().zip(&labels[1][m]))
                .filter(|(f, q)| f == q)
                .count();
            assert!(agree * 100 >= N * 99, "int8 keeps {agree}/{N} labels");
        }
        let spec = PartitionSpec::block(N, 2).unwrap();
        Models {
            wrong_key: [0, 1].map(|p| Vault::restore(&snapshots[p][B], WRONG_KEY).unwrap_err()),
            partition: a.partition_snapshots(&spec).unwrap().swap_remove(1),
            foreign: toy_vault(6, RectifierKind::Series).0.snapshot(),
            features,
            labels,
            snapshots,
        }
    })
}

/// The models a label may come from, restated from the serving
/// benchmark's checker (`acceptable_models` in `benchmark/src/load.rs`).
/// `installed[k]` is the model the k-th successful deploy installs
/// (`installed[0]` the one the engine started with). The deployer bumps
/// a counter before and after each such deploy; a request reads it
/// before its submit (`s0`) and after it resolved (`s1`). The label may
/// come from the model current at submit, and from another one only if
/// a deploy overlapped the request: the deploys that returned before
/// submit number `s0 / 2` (one in progress may or may not have
/// installed yet), those begun before the request resolved `⌈s1 / 2⌉`.
pub fn acceptable(s0: u64, s1: u64, installed: &[usize]) -> impl Iterator<Item = usize> + '_ {
    (s0 / 2..=s1.div_ceil(2)).filter_map(|k| installed.get(k as usize).copied())
}

/// One cell of the configuration matrix.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub shards: usize,
    pub topology: Topology,
    pub cache_capacity: usize,
    pub fast_cache_slots: usize,
    pub precision: Precision,
}

impl Cell {
    /// The engine's partition layout (`None` for the replicated shard).
    pub fn spec(&self) -> Option<PartitionSpec> {
        (self.topology == Topology::Partitioned)
            .then(|| PartitionSpec::block(N, self.shards).unwrap())
    }
}

/// Every cell: {1 replicated, 1/2/4 partitioned} × `cache_capacity`
/// {0, 64} × `fast_cache_slots` {0, 256} × {f32, int8}.
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    let topologies = [
        (1, Topology::Replicated),
        (1, Topology::Partitioned),
        (2, Topology::Partitioned),
        (4, Topology::Partitioned),
    ];
    for (shards, topology) in topologies {
        for cache_capacity in [0, 64] {
            for fast_cache_slots in [0, 256] {
                for precision in [Precision::F32, Precision::Int8] {
                    cells.push(Cell {
                        shards,
                        topology,
                        cache_capacity,
                        fast_cache_slots,
                        precision,
                    });
                }
            }
        }
    }
    cells
}

/// A shard's fault counters as `ShardStats` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub panics_caught: u64,
    pub restarts: u64,
    pub rollbacks: u64,
    pub deploys: u64,
}

/// What a deploy installs, or why it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// Installs `model` on every shard.
    Install(usize),
    /// Tries to install `model`; the install on the owner of `node`
    /// fails (`FailRestore`), so the shards that did install roll back.
    FailInstall(usize, usize),
    /// A partition image: rejected before any shard sees it.
    Partition,
    /// A model over another corpus: rejected before any shard sees it.
    Foreign,
    /// Model B under [`WRONG_KEY`]: fails to unseal.
    WrongKey,
}

/// One shard as the reference sees it.
#[derive(Debug, Clone)]
struct Shard {
    health: ShardHealth,
    /// The model the shard restores from, and serves unless it is down.
    retained: usize,
    previous: Option<usize>,
    /// The fast-cache generation the shard publishes under.
    tag: u64,
    previous_tag: u64,
    /// Nodes whose labels the shard's result cache holds.
    cached: HashSet<usize>,
    batch_seq: u64,
    restore_seq: u64,
    counts: Counts,
}

/// The reference engine for one waiting client (see the module docs).
pub struct Reference {
    cell: Cell,
    spec: Option<PartitionSpec>,
    shards: Vec<Shard>,
    /// A second fast cache fed the same generations and publishes as
    /// the engine's: which requests resolve on the submit thread decides
    /// which batch an armed panic lands in, and the direct-mapped
    /// table's collisions are the type's own, not restated here.
    fast: Option<FastCache>,
    /// Set once two shards published colliding entries for one request.
    /// Shards publish concurrently, so which entry survives is a race:
    /// from then on the reference no longer knows which requests reach
    /// a shard, so it arms no panic and leaves health unchecked. Answers
    /// stay exact, since no shard can be down then.
    racy: bool,
    /// The model every live shard serves between deploys.
    current: usize,
    /// The faults scheduled so far.
    faults: Vec<Fault>,
    /// Nodes that surely resolved on the submit thread.
    fast_hits: u64,
}

/// What a submit answers before it reaches a shard.
pub fn rejected() -> ServeError {
    ServeError::Rejected {
        reason: String::new(),
    }
}

impl Reference {
    pub fn new(cell: Cell) -> Self {
        let fast = (cell.fast_cache_slots > 0).then(|| {
            let fast = FastCache::new(cell.fast_cache_slots);
            fast.set_current(fast.mint_tag());
            fast
        });
        let tag = fast.as_ref().map_or(0, FastCache::current_tag);
        let shard = Shard {
            health: ShardHealth::Healthy,
            retained: A,
            previous: None,
            tag,
            previous_tag: tag,
            cached: HashSet::new(),
            batch_seq: 0,
            restore_seq: 0,
            counts: Counts::default(),
        };
        Self {
            cell,
            spec: cell.spec(),
            shards: vec![shard; cell.shards],
            fast,
            racy: false,
            current: A,
            faults: Vec::new(),
            fast_hits: 0,
        }
    }

    fn owner(&self, node: usize) -> usize {
        self.spec.map_or(0, |spec| spec.owner_of(node))
    }

    /// The current model's answer: what every request gets while
    /// every shard it reaches is up.
    fn answer(&self, nodes: &[usize]) -> Result<Vec<ClassLabel>, ServeError> {
        if nodes.is_empty() || nodes.iter().any(|&n| n >= N) {
            return Err(rejected());
        }
        let label = |n| models().label(self.cell.precision, self.current, n);
        Ok(nodes.iter().map(|&n| label(n)).collect())
    }

    /// The labels a request resolves to on the submit thread, if every
    /// node hits the fast cache under the current generation.
    fn fast_hit(&self, nodes: &[usize]) -> Option<Vec<ClassLabel>> {
        let fast = self.fast.as_ref()?;
        let tag = fast.current_tag();
        nodes.iter().map(|&n| fast.probe(tag, n)).collect()
    }

    /// A submit whose ticket is waited for: its answer.
    pub fn submit(&mut self, nodes: &[usize]) -> Result<Vec<ClassLabel>, ServeError> {
        let answer = self.answer(nodes);
        if answer.is_err() || self.racy {
            return answer.and_then(|_| self.unwaited(nodes));
        }
        if let Some(labels) = self.fast_hit(nodes) {
            self.fast_hits += nodes.len() as u64;
            return Ok(labels);
        }
        // Each owner serves its part as one batch; the ticket reports
        // the first failed part in shard order.
        let mut parts = vec![Vec::new(); self.shards.len()];
        for &node in nodes {
            parts[self.owner(node)].push(node);
        }
        let (mut first_error, mut published) = (None, Vec::new());
        for (s, part) in parts.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            match self.serve(s, part) {
                Ok(nodes) => published.push(nodes),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        self.racy |= self.collide(&published);
        first_error.map_or(answer, Err)
    }

    /// Whether two shards' publishes land in one fast-cache slot: a
    /// scratch table of the same size answers without restating its
    /// hash.
    fn collide(&self, published: &[Vec<usize>]) -> bool {
        let Some(fast) = &self.fast else {
            return false;
        };
        let (scratch, tag) = (
            FastCache::new(self.cell.fast_cache_slots),
            fast.current_tag(),
        );
        published.iter().enumerate().any(|(i, ours)| {
            published[i + 1..].iter().flatten().any(|&theirs| {
                ours.iter().any(|&node| {
                    scratch.publish(tag, node, ClassLabel(0));
                    scratch.publish(tag, theirs, ClassLabel(0));
                    scratch.probe(tag, node).is_none()
                })
            })
        })
    }

    /// Shard `s` serves one batch; on success, the nodes it published
    /// to the fast cache.
    fn serve(&mut self, s: usize, nodes: &[usize]) -> Result<Vec<usize>, ServeError> {
        let failed = ServeError::ShardFailed { shard: s };
        let shard = &mut self.shards[s];
        shard.batch_seq += 1;
        if shard.health == ShardHealth::Down {
            return Err(failed);
        }
        let batch_n = shard.batch_seq;
        if self.faults.contains(&Fault::PanicAt { shard: s, batch_n }) {
            let shard = &mut self.shards[s];
            shard.health = ShardHealth::Down;
            shard.counts.panics_caught += 1;
            if self.restore(s, None).is_ok() {
                self.shards[s].counts.restarts += 1;
            }
            return Err(failed);
        }
        let shard = &mut self.shards[s];
        shard.health = ShardHealth::Healthy;
        assert_eq!(
            shard.retained, self.current,
            "a live shard serves the current model"
        );
        // Nodes that miss the result cache are computed and published.
        let (mut seen, mut published) = (HashSet::new(), Vec::new());
        for &node in nodes {
            let cached = self.cell.cache_capacity > 0 && !shard.cached.insert(node);
            if seen.insert(node) && !cached {
                if let Some(fast) = &self.fast {
                    let label = models().label(self.cell.precision, self.current, node);
                    fast.publish(shard.tag, node, label);
                    published.push(node);
                }
            }
        }
        Ok(published)
    }

    /// The shard's one restore (restart, install or rollback). It fails
    /// when the plan says so or when `unsealable` carries the error the
    /// source fails to unseal with; otherwise it drops the result cache
    /// and resurrects a down shard.
    fn restore(&mut self, s: usize, unsealable: Option<&VaultError>) -> Result<(), ServeError> {
        let shard = &mut self.shards[s];
        shard.restore_seq += 1;
        let restore_n = shard.restore_seq;
        if self.faults.contains(&Fault::FailRestore {
            shard: s,
            restore_n,
        }) {
            return Err(ServeError::Vault(VaultError::Snapshot {
                reason: format!(
                    "injected fault: FailRestore {{ shard: {s}, restore_n: {restore_n} }}"
                ),
            }));
        }
        if let Some(e) = unsealable {
            return Err(ServeError::Vault(e.clone()));
        }
        let shard = &mut self.shards[s];
        shard.cached.clear();
        if shard.health == ShardHealth::Down {
            shard.health = ShardHealth::Degraded;
        }
        Ok(())
    }

    /// Arms a panic on the batch that submitting `[node]` next reaches,
    /// with a restart that fails unless `restart`. A trigger that
    /// resolves on the submit thread, or lands on a down shard, reaches
    /// no vault, so nothing is armed.
    pub fn arm_panic(&mut self, node: usize, restart: bool) {
        if self.racy || node >= N || self.fast_hit(&[node]).is_some() {
            return;
        }
        let s = self.owner(node);
        let shard = &self.shards[s];
        if shard.health == ShardHealth::Down {
            return;
        }
        let (batch_n, restore_n) = (shard.batch_seq + 1, shard.restore_seq + 1);
        self.faults.push(Fault::PanicAt { shard: s, batch_n });
        if !restart {
            self.faults.push(Fault::FailRestore {
                shard: s,
                restore_n,
            });
        }
    }

    /// A deploy's result.
    pub fn deploy(&mut self, deploy: Deploy) -> Result<u64, ServeError> {
        let (model, failing) = match deploy {
            Deploy::Partition | Deploy::Foreign => return Err(rejected()),
            Deploy::WrongKey => {
                let e = models().wrong_key_error(self.cell.precision);
                // A partitioned engine unseals the image itself first;
                // the replicated shard tries, and that is a restore.
                if self.spec.is_none() {
                    self.mint();
                    self.shards[0].previous = None;
                    self.restore(0, Some(e))?;
                }
                return Err(ServeError::Vault(e.clone()));
            }
            Deploy::Install(model) => (model, None),
            Deploy::FailInstall(model, node) => (model, Some(self.owner(node))),
        };
        if let Some(s) = failing {
            let restore_n = self.shards[s].restore_seq + 1;
            self.faults.push(Fault::FailRestore {
                shard: s,
                restore_n,
            });
        }
        let tag = self.mint();
        let mut installed = Vec::new();
        let mut first_error = None;
        for s in 0..self.shards.len() {
            self.shards[s].previous = None;
            match self.restore(s, None) {
                Ok(()) => {
                    let shard = &mut self.shards[s];
                    shard.previous = Some(std::mem::replace(&mut shard.retained, model));
                    shard.previous_tag = std::mem::replace(&mut shard.tag, tag);
                    shard.counts.deploys += 1;
                    installed.push(s);
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let Some(error) = first_error else {
            if let Some(fast) = &self.fast {
                fast.set_current(tag);
            }
            self.current = model;
            return Ok(models().epoch(model));
        };
        for s in installed {
            self.restore(s, None)
                .expect("a rollback restores what installed before");
            let shard = &mut self.shards[s];
            shard.retained = shard.previous.take().unwrap();
            shard.tag = shard.previous_tag;
            shard.counts.rollbacks += 1;
        }
        Err(error)
    }

    fn mint(&self) -> u64 {
        self.fast.as_ref().map_or(0, FastCache::mint_tag)
    }

    /// The answer to a submit whose path the reference does not follow
    /// (nobody waits for it, or the reference lost track). Every shard
    /// must be up, so the answer does not depend on the path.
    pub fn unwaited(&self, nodes: &[usize]) -> Result<Vec<ClassLabel>, ServeError> {
        assert!(
            self.shards.iter().all(|s| s.health != ShardHealth::Down),
            "an unfollowed request's answer is fixed only while every shard is up"
        );
        self.answer(nodes)
    }

    /// Every shard's health, unless the reference lost track of it.
    pub fn health(&self) -> Option<Vec<ShardHealth>> {
        (!self.racy).then(|| self.shards.iter().map(|s| s.health).collect())
    }

    pub fn counts(&self) -> Vec<Counts> {
        self.shards.iter().map(|s| s.counts).collect()
    }

    /// Nodes that waited requests surely resolved on the submit thread.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits
    }

    /// The model the vault `shutdown` returns answers: the one shard's
    /// (none if it is down), or the full vault a partitioned engine
    /// parks, which only a successful deploy replaces.
    pub fn survivor(&self) -> Option<usize> {
        match self.spec {
            None => (self.shards[0].health != ShardHealth::Down).then_some(self.shards[0].retained),
            Some(_) => Some(self.current),
        }
    }

    /// The faults scheduled so far: the engine's plan.
    pub fn plan(&self) -> FaultPlan {
        self.faults
            .iter()
            .cloned()
            .fold(FaultPlan::new(), FaultPlan::with_fault)
    }
}
