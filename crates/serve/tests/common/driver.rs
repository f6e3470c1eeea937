//! The seeded trace driver: runs one trace of submit, deploy, fault,
//! sentinel-reset and shutdown operations against a live engine in one
//! cell of the configuration matrix, and holds every answer to the
//! oracle (`oracle.rs`).
//!
//! Two modes:
//!
//! - [`run_sequential`]: one client waits for each ticket under
//!   `max_batch_nodes: 1`, so a shard's batch ordinals follow the trace.
//!   The reference engine predicts every answer, each shard's health
//!   after every operation, the fault counters, and the model the
//!   shutdown survivor answers. It returns the sentinel's stats, which
//!   must be equal across cells: the sentinel admits before anything a
//!   cell changes.
//! - [`run_concurrent`]: client threads run beside a deployer, with
//!   panics scheduled at random batch ordinals. Every label must be
//!   [`acceptable`], no ticket may hang, and the part of the sentinel's
//!   stats that a racing trace fixes must be equal across cells.

use super::oracle::{
    acceptable, models, rejected, Cell, Counts, Deploy, Reference, A, B, KEYS, N, WRONG_KEY,
};
use super::quiet_injected_panics;
use gnnvault::{Vault, VaultSnapshot};
use serve::faults::{Fault, FaultPlan};
use serve::{
    BatchPolicy, ClientId, SentinelConfig, SentinelMode, SentinelStats, ServeConfig, ServeError,
    ServeHandle, ServeStats, ServingEngine, ShardHealth, ShardStats, Ticket,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tee::{ClassLabel, SealKey};

/// How long any ticket may take before it counts as hung.
const HANG: Duration = Duration::from_secs(30);

/// The sentinel every trace runs: shadow mode (nothing is rejected, so
/// the reference needs no model of the ladder), with thresholds low
/// enough that short traces move sessions up the ladder.
const SHADOW: SentinelConfig = SentinelConfig {
    mode: SentinelMode::Observe,
    window: 8,
    fresh_rate_threshold: 0.5,
    pair_probe_threshold: 0.5,
    min_pair_probes: 2,
    strikes_to_rate_limit: 2,
    strikes_to_quarantine: 6,
    rate_limit_burst: 2.0,
    rate_limit_refill_per_sec: 0.0,
};

/// One operation of a sequential trace.
#[derive(Debug)]
pub enum Op {
    Submit {
        client: ClientId,
        nodes: Vec<usize>,
    },
    /// Submits `[node]`, and the batch it reaches panics; the restart
    /// fails unless `restart`.
    Panic {
        client: ClientId,
        node: usize,
        restart: bool,
    },
    Deploy(Deploy),
    ResetSentinel,
    /// Submits `tail` without waiting, then shuts the engine down — or
    /// drops it when `drop` — and the tail must still be answered.
    Shutdown {
        tail: Vec<Vec<usize>>,
        drop: bool,
    },
}

/// SplitMix64: the traces' seeded stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn client(&mut self) -> ClientId {
        ClientId(self.below(3) as u64)
    }

    /// A request: usually a few nodes, repeats allowed; sometimes the
    /// whole corpus in either order; sometimes empty or out of range.
    /// `single` keeps valid requests to one node.
    fn nodes(&mut self, single: bool) -> Vec<usize> {
        match self.below(20) {
            0 => Vec::new(),
            1 => vec![self.below(N), N + self.below(3)],
            _ if single => vec![self.below(N)],
            2 => (0..N).collect(),
            3 => (0..N).rev().collect(),
            _ => (0..1 + self.below(5)).map(|_| self.below(N)).collect(),
        }
    }

    fn deploy(&mut self, current: usize) -> Deploy {
        let other = if self.below(4) == 0 {
            current
        } else {
            1 - current
        };
        match self.below(10) {
            0..=4 => Deploy::Install(other),
            5 | 6 => Deploy::FailInstall(other, self.below(N)),
            7 => Deploy::Partition,
            8 => Deploy::WrongKey,
            _ => Deploy::Foreign,
        }
    }
}

/// A seeded sequential trace of `len` operations plus the shutdown,
/// which drops the engine instead for one seed in four.
///
/// A partial failure lets `Ticket::wait` return before the request's
/// other parts are answered, and with them what those parts publish to
/// the fast cache. So a part may fail only alone: a panic's trigger is
/// one node, and while a failed restart may hold a shard down (until
/// the next `Install`) every valid request is one node and no
/// unwaited tail is sent.
pub fn trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = Vec::with_capacity(len + 1);
    let mut down_risk = false;
    let mut current = A;
    for _ in 0..len {
        ops.push(match rng.below(100) {
            0..=9 => {
                let restart = rng.below(3) > 0;
                down_risk |= !restart;
                let (client, node) = (rng.client(), rng.below(N));
                Op::Panic {
                    client,
                    node,
                    restart,
                }
            }
            10..=24 => {
                let deploy = rng.deploy(current);
                if let Deploy::Install(model) = deploy {
                    (current, down_risk) = (model, false);
                }
                Op::Deploy(deploy)
            }
            25..=27 => Op::ResetSentinel,
            _ => Op::Submit {
                client: rng.client(),
                nodes: rng.nodes(down_risk),
            },
        });
    }
    let tail = if down_risk { 0 } else { 8 + rng.below(9) };
    ops.push(Op::Shutdown {
        tail: (0..tail).map(|_| rng.nodes(false)).collect(),
        drop: seed % 4 == 3,
    });
    ops
}

/// The snapshot and key a deploy hands the engine.
fn image(cell: &Cell, deploy: Deploy) -> (&'static VaultSnapshot, SealKey) {
    let models = models();
    match deploy {
        Deploy::Install(m) | Deploy::FailInstall(m, _) => {
            (models.snapshot(cell.precision, m), KEYS[m])
        }
        Deploy::Partition => (&models.partition, KEYS[A]),
        Deploy::Foreign => (&models.foreign, KEYS[A]),
        Deploy::WrongKey => (models.snapshot(cell.precision, B), WRONG_KEY),
    }
}

fn start(cell: &Cell, policy: BatchPolicy, plan: FaultPlan) -> ServingEngine {
    let config = ServeConfig {
        sentinel: SHADOW,
        policy,
        cache_capacity: cell.cache_capacity,
        fast_cache_slots: cell.fast_cache_slots,
        shards: cell.shards,
        topology: cell.topology,
        fault_plan: Some(plan),
        ..ServeConfig::default()
    };
    let vault = models().vault(cell.precision, A);
    ServingEngine::start(vault, models().features.clone(), config).unwrap()
}

fn wait(ticket: Ticket) -> Result<Vec<ClassLabel>, ServeError> {
    ticket
        .wait_timeout(HANG)
        .expect("an admitted request must resolve, not hang")
}

/// Results are equal when they match, a rejection's reason aside.
fn same<T: PartialEq>(got: &Result<T, ServeError>, want: &Result<T, ServeError>) -> bool {
    match (got, want) {
        (Err(ServeError::Rejected { .. }), Err(ServeError::Rejected { .. })) => true,
        _ => got == want,
    }
}

/// What the reference says one operation yields.
pub struct Expected {
    /// The answer of each request the operation submits.
    pub answers: Vec<Result<Vec<ClassLabel>, ServeError>>,
    /// A deploy's result.
    pub deployed: Option<Result<u64, ServeError>>,
    /// Every shard's health once the operation is done, while the
    /// reference knows it.
    pub health: Option<Vec<ShardHealth>>,
}

/// Runs `ops` through the reference engine for `cell`: what each
/// operation yields, and the reference at the end of the trace. It
/// answers every operation before the engine starts, and so fixes the
/// fault plan: each fault sits at the ordinal the trace reaches.
pub fn expect(cell: Cell, ops: &[Op]) -> (Reference, Vec<Expected>) {
    let mut reference = Reference::new(cell);
    let expected = ops
        .iter()
        .map(|op| {
            let (answers, deployed) = match op {
                Op::Submit { nodes, .. } => (vec![reference.submit(nodes)], None),
                Op::Panic { node, restart, .. } => {
                    reference.arm_panic(*node, *restart);
                    (vec![reference.submit(&[*node])], None)
                }
                Op::Deploy(deploy) => (Vec::new(), Some(reference.deploy(*deploy))),
                Op::ResetSentinel => (Vec::new(), None),
                Op::Shutdown { tail, .. } => {
                    (tail.iter().map(|n| reference.unwaited(n)).collect(), None)
                }
            };
            let health = reference.health();
            Expected {
                answers,
                deployed,
                health,
            }
        })
        .collect();
    (reference, expected)
}

/// Runs `ops` in `cell` with one waiting client and checks the engine
/// against the reference after every operation; returns the sentinel's
/// stats.
pub fn run_sequential(cell: Cell, ops: &[Op]) -> SentinelStats {
    quiet_injected_panics();
    let (reference, expected) = expect(cell, ops);
    // Every request is a batch of its own, flushed the moment it is
    // queued.
    let policy = BatchPolicy {
        max_batch_nodes: 1,
        max_delay: Duration::from_secs(3600),
        max_queue_requests: 1024,
    };
    let mut engine = Some(start(&cell, policy, reference.plan()));
    let handle = engine.as_ref().unwrap().handle();
    let mut sentinel = None;
    for (i, (op, want)) in ops.iter().zip(&expected).enumerate() {
        let at = format!("{cell:?}, op {i} {op:?}");
        let answers: Vec<_> = match op {
            Op::Submit { client, nodes } => {
                vec![handle.submit_as(*client, nodes.clone()).and_then(wait)]
            }
            Op::Panic { client, node, .. } => {
                vec![handle.submit_as(*client, vec![*node]).and_then(wait)]
            }
            Op::Deploy(deploy) => {
                let (snapshot, key) = image(&cell, *deploy);
                let got = engine.as_ref().unwrap().deploy(snapshot, key);
                let deployed = want.deployed.as_ref().unwrap();
                assert!(
                    same(&got, deployed),
                    "{at}: deploy gave {got:?}, not {deployed:?}"
                );
                Vec::new()
            }
            Op::ResetSentinel => {
                engine.as_ref().unwrap().reset_sentinel();
                Vec::new()
            }
            Op::Shutdown { tail, drop } => {
                let tickets: Vec<_> = tail.iter().map(|n| handle.submit(n.clone())).collect();
                let engine = engine.take().unwrap();
                if *drop {
                    std::mem::drop(engine);
                } else {
                    check_shutdown(cell, &reference, engine);
                }
                sentinel = Some(handle.sentinel_stats());
                assert_closed(&cell, &handle, &at);
                tickets.into_iter().map(|t| t.and_then(wait)).collect()
            }
        };
        for (k, (got, want)) in answers.iter().zip(&want.answers).enumerate() {
            assert!(
                same(got, want),
                "{at}: request {k} got {got:?}, not {want:?}"
            );
        }
        if let (Some(engine), Some(health)) = (&engine, &want.health) {
            assert_eq!(&engine.health().states(), health, "{at}: shard health");
        }
    }
    sentinel.expect("a trace ends in its shutdown")
}

/// Once the engine is shut down or dropped, a submit fails `Closed`,
/// even one whose every node would hit the fast cache.
fn assert_closed(cell: &Cell, handle: &ServeHandle, at: &str) {
    let got = handle.submit(vec![0]).err();
    assert_eq!(got, Some(ServeError::Closed), "{cell:?}, {at}");
}

/// Shuts `engine` down and holds its stats and survivor to the
/// reference.
fn check_shutdown(cell: Cell, reference: &Reference, engine: ServingEngine) {
    let (survivor, stats) = engine.shutdown();
    let counts: Vec<Counts> = (stats.shards.iter())
        .map(|s| Counts {
            panics_caught: s.panics_caught,
            restarts: s.restarts,
            rollbacks: s.rollbacks,
            deploys: s.deploys,
        })
        .collect();
    assert_eq!(counts, reference.counts(), "{cell:?}: fault counters");
    check_sums(cell, &stats);
    let hits = reference.fast_hits();
    assert!(stats.fast_path_hits >= hits, "{cell:?}: {hits} fast hits");
    if cell.fast_cache_slots == 0 {
        assert_eq!(stats.fast_path_hits, 0, "{cell:?}");
    }
    check_survivor(cell, survivor, reference.survivor());
}

/// Every shard drained its queue, failed only panicked batches and gave
/// each batch one flush reason, and the aggregates are the shards' sums.
fn check_sums(cell: Cell, stats: &ServeStats) {
    assert_eq!(stats.shards.len(), cell.shards, "{cell:?}");
    for s in &stats.shards {
        assert_eq!(s.queue_depth, 0, "{cell:?}: shutdown drains every queue");
        assert_eq!(s.failed_batches, s.panics_caught, "{cell:?}");
        let flushes = s.full_flushes + s.deadline_flushes + s.drain_flushes;
        assert_eq!(s.batches, flushes, "{cell:?}: one flush reason per batch");
    }
    let sum = |f: fn(&ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    let aggregates = [
        (stats.requests, sum(|s| s.requests)),
        (stats.batches, sum(|s| s.batches)),
        (stats.answered_nodes, sum(|s| s.answered_nodes)),
        (stats.failed_batches, sum(|s| s.failed_batches)),
        (stats.panics_caught, sum(|s| s.panics_caught)),
        (stats.shard_restarts, sum(|s| s.restarts)),
        (stats.deploy_rollbacks, sum(|s| s.rollbacks)),
        (stats.queued_latency.count(), sum(|s| s.latency.count())),
    ];
    for (i, (aggregate, shards)) in aggregates.into_iter().enumerate() {
        assert_eq!(
            aggregate, shards,
            "{cell:?}: aggregate {i} is the shards' sum"
        );
    }
}

/// The vault `shutdown` returned answers `model` (or is absent, when
/// `model` is `None`): a full vault, at the cell's precision.
fn check_survivor(cell: Cell, survivor: Option<Vault>, model: Option<usize>) {
    let models = models();
    match (survivor, model) {
        (None, None) => {}
        (Some(mut vault), Some(model)) => {
            assert_eq!(
                vault.epoch(),
                models.epoch(model),
                "{cell:?}: survivor epoch"
            );
            assert_eq!(vault.precision(), cell.precision, "{cell:?}");
            assert_eq!(vault.partition_info(), None, "{cell:?}: a full vault");
            let (labels, _) = vault.infer(&models.features).unwrap();
            assert_eq!(labels, models.labels(cell.precision, model), "{cell:?}");
        }
        (survivor, model) => panic!(
            "{cell:?}: survivor is {:?}, the reference says {model:?}",
            survivor.map(|v| v.epoch())
        ),
    }
}

type Requests = Vec<Vec<usize>>;

/// A seeded concurrent trace.
struct Storm {
    /// Per client: its requests beside the deployer, then its requests
    /// after the sentinel reset.
    clients: Vec<(ClientId, Requests, Requests)>,
    /// The deployer's operations (`Deploy` or `ResetSentinel`), each
    /// released once that many client requests have resolved.
    deployer: Vec<(u64, Op)>,
    /// Submitted without waiting right before shutdown.
    tail: Requests,
}

/// A seeded storm: two clients, five deployer operations (three of
/// them installs, alternating models), a tail.
fn storm(rng: &mut Rng) -> Storm {
    let clients: Vec<_> = (1..=2)
        .map(|c| {
            let mut requests = |n| (0..n).map(|_| rng.nodes(false)).collect();
            (ClientId(c), requests(24), requests(12))
        })
        .collect();
    let total = 48;
    let mut current = A;
    let deployer = (0..5)
        .map(|i| {
            let op = if i % 2 == 0 {
                current = 1 - current;
                Op::Deploy(Deploy::Install(current))
            } else {
                match rng.below(4) {
                    0 => Op::ResetSentinel,
                    1 => Op::Deploy(Deploy::Partition),
                    2 => Op::Deploy(Deploy::WrongKey),
                    _ => Op::Deploy(Deploy::Foreign),
                }
            };
            ((i + 1) * total / 6, op)
        })
        .collect();
    Storm {
        clients,
        deployer,
        tail: (0..12).map(|_| rng.nodes(false)).collect(),
    }
}

/// Counts a finished (or failed) client thread on drop.
struct Done<'a>(&'a AtomicU64);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs the storm `seed` draws in `cell`: clients beside a deployer,
/// then beside nobody after a sentinel reset, then a tail and shutdown,
/// with one panic scheduled per shard. Every label must be
/// [`acceptable`] and every error typed; returns the sentinel stats a
/// racing trace fixes.
pub fn run_concurrent(cell: Cell, seed: u64) -> SentinelStats {
    quiet_injected_panics();
    let models = models();
    let mut rng = Rng(seed);
    let storm = &storm(&mut rng);
    let panics = (0..cell.shards).map(|shard| Fault::PanicAt {
        shard,
        batch_n: 1 + rng.below(24) as u64,
    });
    let policy = BatchPolicy {
        max_batch_nodes: 8,
        max_delay: Duration::from_millis(1),
        max_queue_requests: 4096,
    };
    let engine = start(
        &cell,
        policy,
        panics.fold(FaultPlan::new(), FaultPlan::with_fault),
    );
    let handle = engine.handle();
    let installed: Vec<usize> = std::iter::once(A)
        .chain(storm.deployer.iter().filter_map(|(_, op)| match op {
            Op::Deploy(Deploy::Install(model)) => Some(*model),
            _ => None,
        }))
        .collect();
    let (seq, resolved, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let check = |nodes: &[usize], got: Result<Vec<ClassLabel>, ServeError>, s0: u64| {
        let s1 = seq.load(Ordering::SeqCst);
        match got {
            Ok(labels) => {
                assert_eq!(labels.len(), nodes.len(), "{cell:?}");
                for (&node, &label) in nodes.iter().zip(&labels) {
                    assert!(
                        acceptable(s0, s1, &installed).any(|m| models.label(cell.precision, m, node) == label),
                        "{cell:?}: node {node} answered {label:?}, deploys {s0}..{s1} of {installed:?}"
                    );
                }
            }
            Err(ServeError::Rejected { .. })
                if nodes.is_empty() || nodes.iter().any(|&n| n >= N) => {}
            // A scheduled panic fails its batch.
            Err(ServeError::ShardFailed { shard }) => assert!(shard < cell.shards),
            Err(e) => panic!("{cell:?}: {nodes:?} failed with {e:?}"),
        }
    };
    let ask = |client, nodes: &Vec<usize>| {
        let s0 = seq.load(Ordering::SeqCst);
        check(
            nodes,
            handle.submit_as(client, nodes.clone()).and_then(wait),
            s0,
        );
        resolved.fetch_add(1, Ordering::SeqCst);
    };
    std::thread::scope(|scope| {
        for (client, beside, _) in &storm.clients {
            scope.spawn(|| {
                let _done = Done(&done);
                beside.iter().for_each(|nodes| ask(*client, nodes));
            });
        }
        scope.spawn(|| {
            for (gate, op) in &storm.deployer {
                while resolved.load(Ordering::SeqCst) < *gate
                    && done.load(Ordering::SeqCst) < storm.clients.len() as u64
                {
                    std::thread::yield_now();
                }
                let Op::Deploy(deploy) = op else {
                    engine.reset_sentinel();
                    continue;
                };
                let install = matches!(deploy, Deploy::Install(_));
                let want = match deploy {
                    Deploy::Install(model) => Ok(models.epoch(*model)),
                    Deploy::WrongKey => Err(ServeError::Vault(
                        models.wrong_key_error(cell.precision).clone(),
                    )),
                    _ => Err(rejected()),
                };
                let (snapshot, key) = image(&cell, *deploy);
                seq.fetch_add(u64::from(install), Ordering::SeqCst);
                let got = engine.deploy(snapshot, key);
                seq.fetch_add(u64::from(install), Ordering::SeqCst);
                assert!(same(&got, &want), "{cell:?}: {deploy:?} gave {got:?}");
            }
        });
    });
    engine.reset_sentinel();
    std::thread::scope(|scope| {
        for (client, _, after) in &storm.clients {
            scope.spawn(|| after.iter().for_each(|nodes| ask(*client, nodes)));
        }
    });
    let s0 = seq.load(Ordering::SeqCst);
    let tickets: Vec<_> = storm
        .tail
        .iter()
        .map(|n| handle.submit_as(ClientId(9), n.clone()))
        .collect();
    // Every other seed drops the engine instead of shutting it down.
    if seed.is_multiple_of(2) {
        drop(engine);
    } else {
        let (survivor, stats) = engine.shutdown();
        check_sums(cell, &stats);
        for shard in &stats.shards {
            assert!(shard.panics_caught <= 1, "{cell:?}: one panic per shard");
            assert_eq!(shard.restarts, shard.panics_caught, "{cell:?}");
            assert_eq!(shard.deploys, installed.len() as u64 - 1, "{cell:?}");
            assert_eq!(shard.rollbacks, 0, "{cell:?}");
        }
        check_survivor(cell, survivor, installed.last().copied());
    }
    // The first phase's sessions raced the resets, so their session
    // count and quarantines are not a function of the trace; the
    // per-session stats after the reset, and the request and node
    // totals, are.
    let sentinel = SentinelStats {
        sessions_observed: 0,
        quarantined_sessions: 0,
        ..handle.sentinel_stats()
    };
    assert_closed(&cell, &handle, "after the storm");
    for (nodes, ticket) in storm.tail.iter().zip(tickets) {
        check(nodes, ticket.and_then(wait), s0);
    }
    sentinel
}

/// The chaos acceptance scenario as a trace: on four partitions, every
/// shard answers a batch, panics on its second and restarts, answers a
/// third; then a deploy of B fails on shard 2's install, so the three
/// shards that installed roll back, and one request over the whole
/// corpus reads A everywhere.
pub fn chaos_trace() -> Vec<Op> {
    let (homes, client) = ([0, 6, 12, 18], ClientId::ANONYMOUS);
    let submit = |nodes| Op::Submit { client, nodes };
    let panic = |node| Op::Panic {
        client,
        node,
        restart: true,
    };
    let deploy = Op::Deploy(Deploy::FailInstall(B, homes[2]));
    let shutdown = Op::Shutdown {
        tail: Vec::new(),
        drop: false,
    };
    let (first, third) = (
        homes.map(|n| submit(vec![n])),
        homes.map(|n| submit(vec![n])),
    );
    (first.into_iter().chain(homes.map(panic)).chain(third))
        .chain([deploy, submit((0..N).collect()), shutdown])
        .collect()
}
