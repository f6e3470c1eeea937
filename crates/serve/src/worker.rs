//! One shard's state machine: [`ShardCore`], the vault replica plus
//! everything that decides what happens to it.
//!
//! A shard has exactly three transitions — serve one flushed batch,
//! install a new model epoch, roll the last install back — and each is
//! a plain call. The core owns no thread, channel, queue or timer: the
//! engine's driver loop (`engine.rs`) pulls batches off the shard's
//! admission queue and control messages off its channel and feeds them
//! in, and the unit tests below feed it input words directly. Like the
//! enclave it wraps, the replica is reachable only through those
//! entry points.

use crate::faults::ShardFaults;
use crate::{
    FastCache, FlushReason, HealthBoard, LruCache, PendingRequest, ServeConfig, ServeError,
    ServeStats, ShardHealth, ShardStats,
};
use gnnvault::{NodeFeatures, RecoveryHandle, Vault};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// One shard's state: the vault replica (or `None` while down), its
/// enclave session, the epoch-keyed result cache, the retained recovery
/// snapshot and rollback target, the fast-cache install tags, the
/// shard's fault schedule, and shard-local statistics.
pub(crate) struct ShardCore {
    shard: usize,
    vault: Option<Vault>,
    /// The engine's corpus, with its CSR rows built once at start.
    features: Arc<NodeFeatures>,
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
    /// Per-shard flushed-batch ordinal (1-based), the time axis of
    /// [`Fault::PanicAt`](crate::Fault::PanicAt).
    batch_seq: u64,
    /// Per-shard restore ordinal (1-based) over installs, rollbacks and
    /// restarts, the time axis of
    /// [`Fault::FailRestore`](crate::Fault::FailRestore).
    restore_seq: u64,
    deploys: u64,
    /// The engine-wide submit-path fast cache this shard publishes
    /// completed labels into (`None` when disabled).
    fast: Option<Arc<FastCache>>,
    /// The fast-cache install generation this shard's current model
    /// publishes under. Captured at install: a shard that hasn't
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

impl ShardCore {
    /// Shard `shard` serving `vault`, which was restored from (or
    /// snapshotted into) `retained`. It publishes under the fast
    /// cache's current tag until its first install.
    pub(crate) fn new(
        shard: usize,
        mut vault: Vault,
        retained: RecoveryHandle,
        features: Arc<NodeFeatures>,
        config: &ServeConfig,
        health: Arc<HealthBoard>,
        fast: Option<Arc<FastCache>>,
    ) -> Self {
        let tag = fast.as_ref().map_or(0, |fast| fast.current_tag());
        Self {
            shard,
            session: vault.open_session(),
            epoch: vault.epoch(),
            vault: Some(vault),
            features,
            cache: LruCache::new(config.cache_capacity),
            retained,
            previous: None,
            batch_seq: 0,
            restore_seq: 0,
            deploys: 0,
            fast,
            tag,
            previous_tag: tag,
            request_timeout: config.request_timeout,
            health,
            faults: config
                .fault_plan
                .as_ref()
                .map(|plan| plan.shard_faults(shard))
                .unwrap_or_default(),
            stats: ServeStats::default(),
        }
    }

    /// Serves one batch the driver flushed at `flushed_at`, handing
    /// every request to `respond` exactly once with its labels or a
    /// typed error. Requests that overstayed
    /// [`ServeConfig::request_timeout`] at `flushed_at` are dropped
    /// before any enclave work; the rest run under `catch_unwind`. A
    /// panic marks the shard `Down`, discards the (possibly torn)
    /// replica and restores once from the retained snapshot *before*
    /// the batch is answered `ShardFailed`, so a client holding the
    /// failure already sees the shard's final health.
    pub(crate) fn serve(
        &mut self,
        mut batch: Vec<PendingRequest>,
        reason: FlushReason,
        flushed_at: Instant,
        mut respond: impl FnMut(PendingRequest, Result<Vec<ClassLabel>, ServeError>),
    ) {
        self.batch_seq += 1;
        self.stats.batches += 1;
        self.stats.requests += batch.len() as u64;
        match reason {
            FlushReason::Full => self.stats.full_flushes += 1,
            FlushReason::Deadline => self.stats.deadline_flushes += 1,
            FlushReason::Drain => self.stats.drain_flushes += 1,
        }

        // A down shard answers typed failures immediately — queued
        // requests drain fast instead of hanging behind a dead vault.
        if self.vault.is_none() {
            for request in batch {
                respond(request, Err(ServeError::ShardFailed { shard: self.shard }));
            }
            return;
        }

        // Per-request timeout: a request that already overstayed its
        // budget is dropped *before* spending enclave work on it.
        if self.request_timeout > Duration::ZERO {
            let mut live = Vec::with_capacity(batch.len());
            for request in batch {
                let waited = flushed_at.saturating_duration_since(request.enqueued_at());
                if waited > self.request_timeout {
                    self.stats.timed_out_requests += 1;
                    respond(request, Err(ServeError::TimedOut { waited }));
                } else {
                    live.push(request);
                }
            }
            batch = live;
            if batch.is_empty() {
                return;
            }
        }

        // Supervision boundary: the computation may panic (a vault bug,
        // or an injected fault); responding happens outside it, so the
        // batch's requests are never lost with the unwound stack.
        let inject_panic = self.faults.should_panic(self.batch_seq);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!(
                    "injected fault: PanicAt {{ shard: {}, batch_n: {} }}",
                    self.shard, self.batch_seq
                );
            }
            self.compute(&batch)
        }));
        let results = match outcome {
            Ok(results) => {
                // A completed batch proves a recovered shard out —
                // flipped before responding, so a client holding this
                // batch's answer sees the shard healthy.
                if self.health.state(self.shard) == ShardHealth::Degraded {
                    self.health.set(self.shard, ShardHealth::Healthy);
                }
                results
            }
            Err(_) => {
                // The vault's invariants may be torn mid-batch: mark
                // the shard down and discard the vault, then restart
                // once from the retained snapshot, right away. If that
                // fails the shard stays down (its requests answer
                // `ShardFailed`) until a deploy resurrects it.
                self.health.set(self.shard, ShardHealth::Down);
                self.vault = None;
                self.stats.panics_caught += 1;
                self.stats.failed_batches += 1;
                let retained = self.retained.clone();
                if self.restore(&retained).is_ok() {
                    self.stats.shard_restarts += 1;
                }
                vec![Err(ServeError::ShardFailed { shard: self.shard }); batch.len()]
            }
        };
        for (request, result) in batch.into_iter().zip(results) {
            if let Ok(labels) = &result {
                self.stats.answered_nodes += labels.len() as u64;
                // Queued-path tail latency: submit to respond, recorded
                // per successfully answered request.
                self.stats.queued_latency.record(request.waited());
            }
            respond(request, result);
        }
    }

    /// Installs the epoch `source` seals, retaining it for crash
    /// recovery and keeping the previous handle as the rollback target;
    /// from here on the shard publishes to the fast cache under `tag`.
    /// On failure the old replica keeps serving untouched. Installing
    /// into a down shard resurrects it.
    pub(crate) fn install(&mut self, source: RecoveryHandle, tag: u64) -> Result<u64, ServeError> {
        // The last deploy's rollback target is stale once a new one
        // begins; free it before restoring the new replica.
        self.previous = None;
        self.restore(&source)?;
        self.previous = Some(std::mem::replace(&mut self.retained, source));
        // New-model labels stay unprobeable until the engine flips the
        // current tag after every shard acks.
        self.previous_tag = std::mem::replace(&mut self.tag, tag);
        self.deploys += 1;
        Ok(self.epoch)
    }

    /// Reinstalls the epoch retained before the last install — the
    /// compensation step of an all-or-nothing deploy. Consumes the
    /// rollback target: a deploy that never installed here has nothing
    /// to roll back (an error, which the engine ignores).
    pub(crate) fn rollback(&mut self) -> Result<u64, ServeError> {
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

    /// Ends the shard: the vault (if the shard is alive) and its
    /// statistics, with the [`ShardStats`] entry filled in from the
    /// counters plus the queue gauges only the driver can read.
    pub(crate) fn finish(
        mut self,
        queue_depth: usize,
        queue_high_water: usize,
    ) -> (Option<Vault>, ServeStats) {
        let stats = &self.stats;
        let shard_stats = ShardStats {
            shard: self.shard,
            queue_depth,
            queue_high_water,
            latency: stats.queued_latency.clone(),
            requests: stats.requests,
            answered_nodes: stats.answered_nodes,
            batches: stats.batches,
            enclave_batches: stats.enclave_batches,
            full_flushes: stats.full_flushes,
            deadline_flushes: stats.deadline_flushes,
            drain_flushes: stats.drain_flushes,
            failed_batches: stats.failed_batches,
            panics_caught: stats.panics_caught,
            restarts: stats.shard_restarts,
            rollbacks: stats.deploy_rollbacks,
            timed_out: stats.timed_out_requests,
            deploys: self.deploys,
        };
        self.stats.shards = vec![shard_stats];
        (self.vault.take(), self.stats)
    }

    /// The shard's one restore: unseals `source` into a fresh replica
    /// and swaps it in — a fresh enclave session, a cleared result
    /// cache, the replica's epoch — resurrecting a `Down` shard as
    /// `Degraded`. Install, rollback and supervised restart each call
    /// it exactly once: a restore is a pure function of (sealed bytes,
    /// key), so a retry could only repeat its answer. On failure the
    /// current replica (or its absence) is left untouched. Every call
    /// advances the ordinal
    /// [`Fault::FailRestore`](crate::Fault::FailRestore) is addressed
    /// by.
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
        // them; a snapshot shipped in from another process could carry
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

    /// Computes one batch's per-request results: resolve cached nodes,
    /// run the unique remainder through the shard's enclave session.
    /// Pure compute — responding is the caller's job, so a panic in
    /// here can never strand the batch's tickets.
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
            match vault.infer_batch(&mut self.session, &*self.features, &need) {
                Ok((labels, report)) => {
                    for (&node, label) in need.iter().zip(labels) {
                        resolved.insert(node, label);
                        self.cache.insert((self.epoch, node), label);
                        // Publish to the submit-path fast cache under
                        // this shard's captured install generation, so
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

#[cfg(test)]
#[path = "../tests/common/fixture.rs"]
mod fixture;

#[cfg(test)]
mod tests {
    use super::fixture::{quiet_injected_panics, toy_vault, toy_vault_flipped};
    use super::*;
    use crate::batcher::tests::request;
    use crate::{Fault, FaultPlan};
    use gnnvault::{RectifierKind, VaultSnapshot};
    use std::sync::OnceLock;
    use tee::SealKey;

    const N: usize = 16;
    /// Seal keys of model A (`toy_vault`'s) and model B.
    const KEYS: [SealKey; 2] = [SealKey(7), SealKey(99)];

    /// Model A and model B (trained on flipped labels), trained once for
    /// every test here.
    struct Fixture {
        snapshots: [VaultSnapshot; 2],
        features: Arc<NodeFeatures>,
        labels: [Vec<ClassLabel>; 2],
        /// One node per cluster on which A and B disagree: the request
        /// every served batch carries, so each answer names its model.
        query: Vec<usize>,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (mut a, features, _) = toy_vault(N, RectifierKind::Series);
            let (mut b, _) = toy_vault_flipped(N, KEYS[1]);
            let labels = [a.infer(&features).unwrap().0, b.infer(&features).unwrap().0];
            let query = [0..N / 2, N / 2..N]
                .into_iter()
                .map(|mut cluster| {
                    cluster
                        .find(|&n| labels[0][n] != labels[1][n])
                        .expect("the two models disagree in every cluster")
                })
                .collect();
            Fixture {
                snapshots: [a.snapshot(), b.snapshot()],
                features: Arc::new(NodeFeatures::new(features)),
                labels,
                query,
            }
        })
    }

    /// A recovery handle for model `model` (0 = A, 1 = B).
    fn handle(model: usize) -> RecoveryHandle {
        RecoveryHandle::new(fixture().snapshots[model].clone(), KEYS[model])
    }

    /// Shard 0 serving model A under `config`, and its health board.
    fn shard_core(
        config: &ServeConfig,
        fast: Option<Arc<FastCache>>,
    ) -> (ShardCore, Arc<HealthBoard>) {
        let health = Arc::new(HealthBoard::new(1));
        let retained = handle(0);
        let vault = retained.restore().unwrap();
        let features = Arc::clone(&fixture().features);
        let core = ShardCore::new(
            0,
            vault,
            retained,
            features,
            config,
            Arc::clone(&health),
            fast,
        );
        (core, health)
    }

    /// One input letter: a served batch — plain, or panicking with a
    /// restart that succeeds or fails — or an install or rollback whose
    /// restore succeeds or fails.
    #[derive(Debug, Clone, Copy)]
    enum Letter {
        Batch,
        Panic { restart: bool },
        Deploy { ok: bool },
        Rollback { ok: bool },
    }

    const ALPHABET: [Letter; 7] = [
        Letter::Batch,
        Letter::Panic { restart: true },
        Letter::Panic { restart: false },
        Letter::Deploy { ok: true },
        Letter::Deploy { ok: false },
        Letter::Rollback { ok: true },
        Letter::Rollback { ok: false },
    ];

    /// What one letter produces: the batch's answer together with the
    /// health its client reads on receiving it, or the install or
    /// rollback ack.
    #[derive(Debug, PartialEq)]
    enum Effect {
        Answer(Result<Vec<ClassLabel>, ServeError>, ShardHealth),
        Ack(Result<u64, ServeError>),
    }

    /// The counters a shard reports: its [`ServeStats`] without the
    /// timings, plus its installs.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Counters {
        batches: u64,
        requests: u64,
        answered_nodes: u64,
        cache_hits: u64,
        cache_misses: u64,
        enclave_batches: u64,
        failed_batches: u64,
        panics_caught: u64,
        shard_restarts: u64,
        deploy_rollbacks: u64,
        deploys: u64,
    }

    fn counters(core: &ShardCore) -> Counters {
        let s = &core.stats;
        Counters {
            batches: s.batches,
            requests: s.requests,
            answered_nodes: s.answered_nodes,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            enclave_batches: s.enclave_batches,
            failed_batches: s.failed_batches,
            panics_caught: s.panics_caught,
            shard_restarts: s.shard_restarts,
            deploy_rollbacks: s.deploy_rollbacks,
            deploys: core.deploys,
        }
    }

    /// The reference model: what a shard is, as the spec states it.
    #[derive(Debug, Clone)]
    struct Model {
        health: ShardHealth,
        /// The model (0 = A, 1 = B) the shard retains, and serves when
        /// it is not down.
        serving: usize,
        previous: Option<usize>,
        tag: u64,
        previous_tag: u64,
        /// Fast-cache tags minted so far, the initial one included.
        minted: u64,
        /// Whether the query's labels are in the LRU.
        cached: bool,
        batch_seq: u64,
        restore_seq: u64,
        counters: Counters,
    }

    impl Model {
        fn new() -> Self {
            Self {
                health: ShardHealth::Healthy,
                serving: 0,
                previous: None,
                tag: 1,
                previous_tag: 1,
                minted: 1,
                cached: false,
                batch_seq: 0,
                restore_seq: 0,
                counters: Counters::default(),
            }
        }

        /// One restore, refused by a scheduled fault when `fail`.
        fn restore(&mut self, fail: bool, faults: &mut Vec<Fault>) -> Result<(), ServeError> {
            self.restore_seq += 1;
            if fail {
                faults.push(Fault::FailRestore {
                    shard: 0,
                    restore_n: self.restore_seq,
                });
                return Err(ServeError::Vault(gnnvault::VaultError::Snapshot {
                    reason: format!(
                        "injected fault: FailRestore {{ shard: 0, restore_n: {} }}",
                        self.restore_seq
                    ),
                }));
            }
            self.cached = false;
            if self.health == ShardHealth::Down {
                self.health = ShardHealth::Degraded;
            }
            Ok(())
        }

        /// Applies `letter`, scheduling in `faults` what makes it
        /// happen at the ordinal it reaches, and returns its effect.
        fn step(&mut self, letter: Letter, faults: &mut Vec<Fault>) -> Effect {
            let fix = fixture();
            let failed = Err(ServeError::ShardFailed { shard: 0 });
            match letter {
                Letter::Batch | Letter::Panic { .. } => {
                    self.batch_seq += 1;
                    self.counters.batches += 1;
                    self.counters.requests += 1;
                    if self.health == ShardHealth::Down {
                        return Effect::Answer(failed, self.health);
                    }
                    if let Letter::Panic { restart } = letter {
                        faults.push(Fault::PanicAt {
                            shard: 0,
                            batch_n: self.batch_seq,
                        });
                        self.health = ShardHealth::Down;
                        self.counters.panics_caught += 1;
                        self.counters.failed_batches += 1;
                        if self.restore(!restart, faults).is_ok() {
                            self.counters.shard_restarts += 1;
                        }
                        return Effect::Answer(failed, self.health);
                    }
                    let nodes = fix.query.len() as u64;
                    if self.cached {
                        self.counters.cache_hits += nodes;
                    } else {
                        self.counters.cache_misses += nodes;
                        self.counters.enclave_batches += 1;
                        self.cached = true;
                    }
                    self.counters.answered_nodes += nodes;
                    self.health = ShardHealth::Healthy;
                    let labels = fix.query.iter().map(|&n| fix.labels[self.serving][n]);
                    Effect::Answer(Ok(labels.collect()), self.health)
                }
                Letter::Deploy { ok } => {
                    self.minted += 1;
                    self.previous = None;
                    Effect::Ack(self.restore(!ok, faults).map(|()| {
                        self.previous = Some(self.serving);
                        self.serving = 1 - self.serving;
                        self.previous_tag = std::mem::replace(&mut self.tag, self.minted);
                        self.counters.deploys += 1;
                        fix.snapshots[self.serving].epoch()
                    }))
                }
                Letter::Rollback { ok } => Effect::Ack(match self.previous {
                    None => Err(ServeError::Rejected {
                        reason: "shard 0 has no previous epoch to roll back to".into(),
                    }),
                    Some(previous) => self.restore(!ok, faults).map(|()| {
                        self.serving = previous;
                        self.previous = None;
                        self.tag = self.previous_tag;
                        self.counters.deploy_rollbacks += 1;
                        fix.snapshots[previous].epoch()
                    }),
                }),
            }
        }
    }

    /// Runs `word` through a fresh core and checks, after every letter,
    /// its effect and the core's state against the model's.
    fn run(word: &[Letter]) {
        let fix = fixture();
        // The model fixes each letter's effect first, and with it the
        // fault plan: the batch and restore ordinals each letter
        // reaches are a function of the word.
        let mut model = Model::new();
        let mut faults = Vec::new();
        let expected: Vec<(Effect, Model)> = word
            .iter()
            .map(|&letter| (model.step(letter, &mut faults), model.clone()))
            .collect();
        let config = ServeConfig {
            cache_capacity: 8,
            fault_plan: Some(
                faults
                    .into_iter()
                    .fold(FaultPlan::new(), FaultPlan::with_fault),
            ),
            ..ServeConfig::default()
        };
        let fast = Arc::new(FastCache::new(1024));
        fast.set_current(fast.mint_tag());
        let (mut core, health) = shard_core(&config, Some(Arc::clone(&fast)));
        let mut serving = 0;
        for (i, (letter, (want, model))) in word.iter().zip(&expected).enumerate() {
            let effect = match letter {
                Letter::Batch | Letter::Panic { .. } => {
                    let mut answers = Vec::new();
                    let batch = vec![request(fix.query.clone())];
                    core.serve(batch, FlushReason::Full, Instant::now(), |_, answer| {
                        answers.push(Effect::Answer(answer, health.state(0)));
                    });
                    assert_eq!(answers.len(), 1, "one request, one answer");
                    answers.remove(0)
                }
                Letter::Deploy { .. } => {
                    Effect::Ack(core.install(handle(1 - serving), fast.mint_tag()))
                }
                Letter::Rollback { .. } => Effect::Ack(core.rollback()),
            };
            let at = format!("after word {:?}", &word[..=i]);
            assert_eq!(&effect, want, "{at}");
            assert_eq!(health.state(0), model.health, "{at}");
            assert_eq!(counters(&core), model.counters, "{at}");
            let epoch = |model: usize| fix.snapshots[model].epoch();
            assert_eq!(core.retained.epoch(), epoch(model.serving), "{at}");
            let previous = core.previous.as_ref().map(RecoveryHandle::epoch);
            assert_eq!(previous, model.previous.map(epoch), "{at}");
            assert_eq!(core.tag, model.tag, "{at}");
            // The fast cache never holds a stale label under the tag the
            // shard publishes with, and holds the fresh one once a batch
            // was answered.
            for &node in &fix.query {
                let probed = fast.probe(model.tag, node);
                let label = fix.labels[model.serving][node];
                match want {
                    Effect::Answer(Ok(_), _) => assert_eq!(probed, Some(label), "{at}"),
                    _ => assert!(probed.is_none_or(|p| p == label), "{at}"),
                }
            }
            serving = model.serving;
        }
    }

    /// The shard as a step function, checked over every input word up
    /// to length 5 (19,607 words) against the reference model: health,
    /// which model answers, the rollback target, the fast-cache tag and
    /// every counter, after every letter, with no thread and no timing.
    #[test]
    fn every_word_up_to_length_five_matches_the_reference_model() {
        quiet_injected_panics();
        let mut words = 0;
        for len in 1..=5u32 {
            for code in 0..ALPHABET.len().pow(len) {
                let word: Vec<Letter> = (0..len)
                    .map(|i| ALPHABET[code / ALPHABET.len().pow(i) % ALPHABET.len()])
                    .collect();
                run(&word);
                words += 1;
            }
        }
        assert_eq!(words, 19_607);
    }

    /// A stalled batch, as two flush instants: batch 1 flushes its
    /// request the moment it is admitted, batch 2's request has waited
    /// out a 300 ms stall ahead of it. Only the request queued behind
    /// the stall overstays the 100 ms budget.
    #[test]
    fn slow_batch_times_out_only_the_requests_queued_behind_it() {
        let fix = fixture();
        let config = ServeConfig {
            cache_capacity: 0,
            request_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let (mut core, _) = shard_core(&config, None);
        let (first, second) = (request(vec![0]), request(vec![1]));
        let fresh = first.enqueued_at();
        let stalled = second.enqueued_at() + Duration::from_millis(300);
        let mut answers = Vec::new();
        core.serve(vec![first], FlushReason::Full, fresh, |_, a| {
            answers.push(a)
        });
        core.serve(vec![second], FlushReason::Full, stalled, |_, a| {
            answers.push(a)
        });
        assert_eq!(answers[0], Ok(vec![fix.labels[0][0]]));
        match &answers[1] {
            Err(ServeError::TimedOut { waited }) => {
                assert!(*waited >= Duration::from_millis(100))
            }
            other => panic!("the queued request must time out, got {other:?}"),
        }
        assert_eq!(core.stats.timed_out_requests, 1);
        assert_eq!(core.stats.answered_nodes, 1);
        assert_eq!(core.stats.panics_caught, 0, "a slow batch is not a crash");
    }
}
