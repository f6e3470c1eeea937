//! Online extraction-attack sentinel: per-session abuse detection,
//! rate limiting, and quarantine at the serving front door.
//!
//! The offline `attacks` crate proves the vault's embeddings leak
//! (almost) nothing; this module defends the *serving path* against an
//! adversarial client who probes the engine itself. Every submission
//! carries a [`ClientId`]; the sentinel keeps per-session
//! sliding-window statistics over the queried nodes and scores two
//! extraction signatures:
//!
//! 1. **Fresh-node coverage rate** — the fraction of the last
//!    [`SentinelConfig::window`] queries that touched a node the
//!    session had never queried before. Extraction sweeps chew through
//!    the corpus (rate → 1); production traffic re-visits hot items
//!    (rate stays low).
//! 2. **Neighbor-pair probing** — the fraction of *fresh* two-node
//!    probes that are **not** edges of the public substitute graph.
//!    Link-stealing attacks probe candidate pairs of the private graph,
//!    which overwhelmingly miss the public KNN structure; benign
//!    correlated queries (recommendations, related items) follow it.
//!
//! A session whose detectors stay suspicious accumulates *strikes* and
//! climbs an enforcement ladder:
//! `Observe → RateLimited → Quarantined` (see [`SentinelVerdict`]),
//! one `match` over (verdict, strikes against the two thresholds).
//! Under [`SentinelMode::Enforce`] a rate-limited session draws from a
//! per-session token bucket (typed [`ServeError::RateLimited`] with a
//! retry-after hint when empty) and a quarantined session is rejected
//! at admission with [`ServeError::Quarantined`] — before routing,
//! batching, or any enclave work. [`SentinelMode::Observe`] (the
//! default) runs the same detectors and ladder in shadow mode: verdicts
//! and counters are recorded, nothing is ever rejected.
//!
//! Detector state is updated on the submitting client's own thread at
//! admission time, *before* sharding — so for a fixed request trace the
//! sentinel's counters are bit-identical at any shard count and any
//! `linalg` pool width. The aggregate counters are lock-free atomics;
//! per-session state lives in striped locks so disjoint sessions never
//! contend.

use crate::ServeError;
use graph::Graph;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client/session identity carried by every serving submission.
///
/// In production this is whatever the transport authenticates (an API
/// key hash, a TLS session); the sentinel only needs it to be stable
/// per client. `Hash + Ord` let it key detector and accounting maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClientId(pub u64);

impl ClientId {
    /// The identity unattributed traffic is booked under
    /// ([`ServeHandle::submit`](crate::ServeHandle::submit) without an
    /// explicit client). Anonymous traffic shares one session, so one
    /// abusive anonymous client degrades service for all of them —
    /// deployments that enforce should attribute their clients.
    pub const ANONYMOUS: ClientId = ClientId(0);
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// What the sentinel does with its verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelMode {
    /// Detectors off: no per-session state is kept at all.
    Off,
    /// Shadow mode (the default): detectors, strikes, and verdicts are
    /// tracked and reported, but no request is ever rejected.
    Observe,
    /// Verdicts are enforced: rate-limited sessions draw from their
    /// token bucket, quarantined sessions are rejected at admission.
    Enforce,
}

/// Detector thresholds and enforcement knobs for the serving sentinel.
///
/// The defaults are tuned so realistic skewed traffic (hot-item heavy,
/// cache-friendly) never escalates while a link-stealing probe stream
/// is quarantined a few hundred requests in; see the crate README's
/// knobs table. All thresholds evaluate per request, so escalation
/// depends only on the session's own trace — never on shard count,
/// batching, or pool width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelConfig {
    /// Detector/enforcement mode. Default [`SentinelMode::Observe`].
    pub mode: SentinelMode,
    /// Sliding-window length, in queried nodes (clamped to ≥ 2).
    pub window: usize,
    /// Fresh-node coverage-rate threshold over a full window, in
    /// `[0, 1]`. Each fresh query in the window is a distinct node, so
    /// the detector cannot fire before the session has queried
    /// ⌈`fresh_rate_threshold` × `window`⌉ distinct nodes (154 at the
    /// defaults): a working set smaller than that never escalates on
    /// coverage, however long the session.
    pub fresh_rate_threshold: f64,
    /// Off-substitute-graph fraction of fresh pair probes above which
    /// the pair detector fires, in `[0, 1]`.
    pub pair_probe_threshold: f64,
    /// Pair detector stays silent until the session has issued this
    /// many fresh two-node probes.
    pub min_pair_probes: u64,
    /// Consecutive-ish suspicious requests (strikes) before the session
    /// is rate limited. Strikes decay by one on each unsuspicious
    /// request, so bursts against the threshold must be sustained.
    pub strikes_to_rate_limit: u32,
    /// Strikes before the session is quarantined (sticky until
    /// [`reset`](crate::ServingEngine::reset_sentinel) or a successful
    /// [`deploy`](crate::ServingEngine::deploy)).
    pub strikes_to_quarantine: u32,
    /// Token-bucket capacity of a rate-limited session (requests).
    pub rate_limit_burst: f64,
    /// Token-bucket refill rate (requests per second). `0` disables
    /// refill: a rate-limited session gets its burst and nothing more —
    /// also the deterministic setting used by the trace-replay tests.
    pub rate_limit_refill_per_sec: f64,
}

impl Default for SentinelConfig {
    /// Shadow mode, a 256-node window read at a 0.6 fresh rate, the
    /// pair detector gated at 128 fresh pair probes, escalation at 16
    /// and 64 sustained strikes, and a 32-request burst refilled at 64
    /// requests/s.
    fn default() -> Self {
        Self {
            mode: SentinelMode::Observe,
            window: 256,
            fresh_rate_threshold: 0.6,
            pair_probe_threshold: 0.8,
            min_pair_probes: 128,
            strikes_to_rate_limit: 16,
            strikes_to_quarantine: 64,
            rate_limit_burst: 32.0,
            rate_limit_refill_per_sec: 64.0,
        }
    }
}

/// A session's position on the enforcement ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SentinelVerdict {
    /// Nothing sustained against the session.
    #[default]
    Observe,
    /// Sustained suspicion: under [`SentinelMode::Enforce`] the session
    /// draws from its token bucket. De-escalates back to `Observe` when
    /// its strikes decay to zero.
    RateLimited,
    /// The extraction signature persisted through rate limiting: every
    /// further request is rejected at admission. Sticky until the
    /// sentinel is reset.
    Quarantined,
}

/// Aggregate sentinel counters plus the per-session breakdown, reported
/// in [`ServeStats::sentinel`](crate::ServeStats) and live via
/// [`ServingEngine::sentinel_stats`](crate::ServingEngine::sentinel_stats).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SentinelStats {
    /// Distinct client sessions the sentinel has tracked.
    pub sessions_observed: u64,
    /// Requests inspected at admission (including rejected ones).
    pub observed_requests: u64,
    /// Node queries inspected at admission.
    pub observed_nodes: u64,
    /// Requests rejected with [`ServeError::RateLimited`].
    pub rate_limited_requests: u64,
    /// Sessions that reached [`SentinelVerdict::Quarantined`] (counted
    /// in shadow mode too).
    pub quarantined_sessions: u64,
    /// Requests rejected with [`ServeError::Quarantined`].
    pub quarantined_requests: u64,
    /// Per-session breakdown, sorted by client id.
    pub sessions: Vec<SentinelSessionStats>,
}

/// One session's detector readings and enforcement history.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelSessionStats {
    /// The session's client identity.
    pub client: ClientId,
    /// Requests this session submitted (including rejected ones).
    pub requests: u64,
    /// Node queries this session submitted.
    pub nodes: u64,
    /// Distinct nodes the session has ever queried.
    pub distinct_nodes: u64,
    /// Lifetime corpus coverage: `distinct_nodes / corpus size`.
    pub coverage: f64,
    /// Fresh-node rate over the current window (0 until the window
    /// fills).
    pub fresh_rate: f64,
    /// Fresh two-node probes the session has issued.
    pub pair_probes: u64,
    /// Fresh two-node probes that missed the public substitute graph.
    pub offgraph_pair_probes: u64,
    /// Current strike count.
    pub strikes: u32,
    /// Current ladder position.
    pub verdict: SentinelVerdict,
    /// Requests rejected with [`ServeError::RateLimited`].
    pub rate_limited: u64,
    /// Requests rejected with [`ServeError::Quarantined`].
    pub quarantined_rejections: u64,
}

/// Fresh-pair bookkeeping stops inserting (but keeps counting) past
/// this many remembered pairs, so a long-running probe session cannot
/// grow sentinel memory without bound.
const MAX_TRACKED_PAIRS: usize = 1 << 16;

/// Per-session detector state.
#[derive(Debug)]
struct Session {
    requests: u64,
    nodes: u64,
    /// The window: for each of the last `window` queried nodes, oldest
    /// first, whether that query was the session's first touch of the
    /// node.
    fresh_flags: VecDeque<bool>,
    fresh_in_window: usize,
    /// Every node the session has ever queried (bounded by the corpus).
    seen: HashSet<usize>,
    /// Fresh unordered two-node probes (`u << 32 | v`, `u < v`).
    pairs: HashSet<u64>,
    pair_probes: u64,
    offgraph_pair_probes: u64,
    strikes: u32,
    verdict: SentinelVerdict,
    tokens: f64,
    last_refill: Instant,
    rate_limited: u64,
    quarantined_rejections: u64,
    /// Latest coverage reading, for the stats snapshot.
    fresh_rate: f64,
}

impl Session {
    fn new(now: Instant, burst: f64) -> Self {
        Self {
            requests: 0,
            nodes: 0,
            fresh_flags: VecDeque::new(),
            fresh_in_window: 0,
            seen: HashSet::new(),
            pairs: HashSet::new(),
            pair_probes: 0,
            offgraph_pair_probes: 0,
            strikes: 0,
            verdict: SentinelVerdict::Observe,
            tokens: burst,
            last_refill: now,
            rate_limited: 0,
            quarantined_rejections: 0,
            fresh_rate: 0.0,
        }
    }

    /// Feeds one request's nodes through the sliding window and the
    /// pair tracker.
    fn observe(&mut self, nodes: &[usize], window: usize, substitute: Option<&Graph>) {
        for &node in nodes {
            let fresh = self.seen.insert(node);
            if self.fresh_flags.len() == window
                && self.fresh_flags.pop_front().expect("window is full")
            {
                self.fresh_in_window -= 1;
            }
            self.fresh_flags.push_back(fresh);
            if fresh {
                self.fresh_in_window += 1;
            }
        }
        if let [u, v] = nodes {
            if u != v {
                let (a, b) = (*u.min(v) as u64, *u.max(v) as u64);
                let key = (a << 32) | b;
                let fresh_pair = if self.pairs.len() < MAX_TRACKED_PAIRS {
                    self.pairs.insert(key)
                } else {
                    // Past the memory cap every pair counts as a probe;
                    // a session this deep is far past every threshold.
                    !self.pairs.contains(&key)
                };
                if fresh_pair {
                    self.pair_probes += 1;
                    // No public graph to compare against means the
                    // probe cannot be explained by public structure.
                    let (lo, hi) = (*u.min(v), *u.max(v));
                    let on_graph =
                        substitute.is_some_and(|g| hi < g.num_nodes() && g.has_edge(lo, hi));
                    if !on_graph {
                        self.offgraph_pair_probes += 1;
                    }
                }
            }
        }
    }

    /// Re-scores the detectors and advances the strike ladder. Returns
    /// `true` when this call moved the session into quarantine.
    fn evaluate(&mut self, cfg: &SentinelConfig) -> bool {
        let window_full = self.fresh_flags.len() >= cfg.window;
        self.fresh_rate = if window_full {
            self.fresh_in_window as f64 / self.fresh_flags.len() as f64
        } else {
            0.0
        };
        let coverage_suspect = window_full && self.fresh_rate >= cfg.fresh_rate_threshold;
        let pair_suspect = self.pair_probes >= cfg.min_pair_probes
            && self.offgraph_pair_probes as f64
                >= cfg.pair_probe_threshold * self.pair_probes as f64;

        let before = self.verdict;
        (self.verdict, self.strikes) =
            ladder(before, self.strikes, coverage_suspect || pair_suspect, cfg);
        if (before, self.verdict) == (SentinelVerdict::Observe, SentinelVerdict::RateLimited) {
            // Entering the ladder arms the token bucket fresh.
            self.tokens = cfg.rate_limit_burst;
            self.last_refill = Instant::now();
        }
        before != SentinelVerdict::Quarantined && self.verdict == SentinelVerdict::Quarantined
    }

    /// Draws one token, refilling by wall clock first. `Err` carries
    /// the retry-after hint.
    fn draw_token(&mut self, cfg: &SentinelConfig) -> Result<(), Duration> {
        let now = Instant::now();
        if cfg.rate_limit_refill_per_sec > 0.0 {
            let elapsed = now.duration_since(self.last_refill).as_secs_f64();
            self.tokens =
                (self.tokens + elapsed * cfg.rate_limit_refill_per_sec).min(cfg.rate_limit_burst);
        }
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let retry_after = if cfg.rate_limit_refill_per_sec > 0.0 {
            Duration::from_secs_f64((1.0 - self.tokens) / cfg.rate_limit_refill_per_sec)
        } else {
            // No refill configured: the hint is "wait for an operator
            // reset", approximated by a long constant.
            Duration::from_secs(60)
        };
        Err(retry_after)
    }

    fn stats(&self, client: ClientId, corpus_nodes: usize) -> SentinelSessionStats {
        SentinelSessionStats {
            client,
            requests: self.requests,
            nodes: self.nodes,
            distinct_nodes: self.seen.len() as u64,
            coverage: if corpus_nodes == 0 {
                0.0
            } else {
                self.seen.len() as f64 / corpus_nodes as f64
            },
            fresh_rate: self.fresh_rate,
            pair_probes: self.pair_probes,
            offgraph_pair_probes: self.offgraph_pair_probes,
            strikes: self.strikes,
            verdict: self.verdict,
            rate_limited: self.rate_limited,
            quarantined_rejections: self.quarantined_rejections,
        }
    }
}

/// One step of the enforcement ladder: a suspicious request adds a
/// strike and any other takes one away, then the new strike count is
/// read against the two thresholds. No arm leaves quarantine; a
/// rate-limited session falls back to `Observe` only once its strikes
/// have decayed to zero. Returns the new (verdict, strikes).
fn ladder(
    verdict: SentinelVerdict,
    strikes: u32,
    suspicious: bool,
    cfg: &SentinelConfig,
) -> (SentinelVerdict, u32) {
    use SentinelVerdict::{Observe, Quarantined, RateLimited};
    let strikes = if suspicious {
        strikes.saturating_add(1)
    } else {
        strikes.saturating_sub(1)
    };
    let next = match (verdict, strikes) {
        (_, s) if s >= cfg.strikes_to_quarantine => Quarantined,
        (Observe, s) if s >= cfg.strikes_to_rate_limit => RateLimited,
        (RateLimited, 0) => Observe,
        (v, _) => v,
    };
    (next, strikes)
}

/// Session-state stripes: disjoint sessions hash to different locks, so
/// concurrent clients only contend when they share an identity.
const STRIPES: usize = 16;

/// The serving engine's abuse sentinel (see the module docs).
///
/// One sentinel fronts the whole engine — shared by every
/// [`ServeHandle`](crate::ServeHandle) — so a session's statistics are
/// whole-engine truths no matter how its requests shard.
#[derive(Debug)]
pub(crate) struct Sentinel {
    config: SentinelConfig,
    corpus_nodes: usize,
    substitute: Option<Arc<Graph>>,
    stripes: Vec<Mutex<HashMap<ClientId, Session>>>,
    sessions_observed: AtomicU64,
    observed_requests: AtomicU64,
    observed_nodes: AtomicU64,
    rate_limited_requests: AtomicU64,
    quarantined_sessions: AtomicU64,
    quarantined_requests: AtomicU64,
}

impl Sentinel {
    /// Builds a sentinel over a `corpus_nodes`-node deployment whose
    /// public substitute graph (if any) explains benign pair traffic.
    pub(crate) fn new(
        config: SentinelConfig,
        corpus_nodes: usize,
        substitute: Option<Arc<Graph>>,
    ) -> Self {
        let config = SentinelConfig {
            window: config.window.max(2),
            min_pair_probes: config.min_pair_probes.max(1),
            strikes_to_rate_limit: config.strikes_to_rate_limit.max(1),
            strikes_to_quarantine: config
                .strikes_to_quarantine
                .max(config.strikes_to_rate_limit.max(1)),
            ..config
        };
        Self {
            config,
            corpus_nodes,
            substitute,
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            sessions_observed: AtomicU64::new(0),
            observed_requests: AtomicU64::new(0),
            observed_nodes: AtomicU64::new(0),
            rate_limited_requests: AtomicU64::new(0),
            quarantined_sessions: AtomicU64::new(0),
            quarantined_requests: AtomicU64::new(0),
        }
    }

    fn stripe(&self, client: ClientId) -> &Mutex<HashMap<ClientId, Session>> {
        let mixed = client.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.stripes[(mixed >> 60) as usize % STRIPES]
    }

    /// Inspects one submission at admission: updates the session's
    /// detectors, advances the ladder, and (under
    /// [`SentinelMode::Enforce`]) rejects rate-limited or quarantined
    /// traffic before any routing or enclave work.
    pub(crate) fn admit(&self, client: ClientId, nodes: &[usize]) -> Result<(), ServeError> {
        if self.config.mode == SentinelMode::Off {
            return Ok(());
        }
        let enforcing = self.config.mode == SentinelMode::Enforce;
        let mut stripe = self.stripe(client).lock().expect("sentinel stripe lock");
        let session = match stripe.entry(client) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.sessions_observed.fetch_add(1, Ordering::Relaxed);
                e.insert(Session::new(Instant::now(), self.config.rate_limit_burst))
            }
        };
        self.observed_requests.fetch_add(1, Ordering::Relaxed);
        self.observed_nodes
            .fetch_add(nodes.len() as u64, Ordering::Relaxed);
        // Counted before the quarantine check, so rejected requests
        // still show in the session's totals.
        session.requests += 1;
        session.nodes += nodes.len() as u64;

        // An already quarantined session is rejected before its traffic
        // touches the detectors — quarantine is a terminal cheap path.
        if enforcing && session.verdict == SentinelVerdict::Quarantined {
            session.quarantined_rejections += 1;
            self.quarantined_requests.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Quarantined { client });
        }

        session.observe(nodes, self.config.window, self.substitute.as_deref());
        let newly_quarantined = session.evaluate(&self.config);
        if newly_quarantined {
            self.quarantined_sessions.fetch_add(1, Ordering::Relaxed);
        }
        if !enforcing {
            return Ok(());
        }
        match session.verdict {
            SentinelVerdict::Observe => Ok(()),
            SentinelVerdict::RateLimited => match session.draw_token(&self.config) {
                Ok(()) => Ok(()),
                Err(retry_after) => {
                    session.rate_limited += 1;
                    self.rate_limited_requests.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::RateLimited {
                        client,
                        retry_after,
                    })
                }
            },
            SentinelVerdict::Quarantined => {
                session.quarantined_rejections += 1;
                self.quarantined_requests.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Quarantined { client })
            }
        }
    }

    /// Snapshot of the aggregate counters and every session's state
    /// (sorted by client id, so snapshots of identical traces compare
    /// equal).
    pub(crate) fn stats(&self) -> SentinelStats {
        let mut sessions: Vec<SentinelSessionStats> = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("sentinel stripe lock");
            sessions.extend(
                stripe
                    .iter()
                    .map(|(client, session)| session.stats(*client, self.corpus_nodes)),
            );
        }
        sessions.sort_by_key(|s| s.client);
        SentinelStats {
            sessions_observed: self.sessions_observed.load(Ordering::Relaxed),
            observed_requests: self.observed_requests.load(Ordering::Relaxed),
            observed_nodes: self.observed_nodes.load(Ordering::Relaxed),
            rate_limited_requests: self.rate_limited_requests.load(Ordering::Relaxed),
            quarantined_sessions: self.quarantined_sessions.load(Ordering::Relaxed),
            quarantined_requests: self.quarantined_requests.load(Ordering::Relaxed),
            sessions,
        }
    }

    /// Clears every session's detector state, strikes, verdict, and
    /// bucket — the deploy-time amnesty. Aggregate counters are
    /// monotonic and survive.
    pub(crate) fn reset(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("sentinel stripe lock").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> SentinelConfig {
        SentinelConfig {
            mode: SentinelMode::Enforce,
            window: 16,
            fresh_rate_threshold: 0.6,
            pair_probe_threshold: 0.8,
            min_pair_probes: 8,
            strikes_to_rate_limit: 4,
            strikes_to_quarantine: 12,
            rate_limit_burst: 2.0,
            rate_limit_refill_per_sec: 0.0,
        }
    }

    /// Every cell of verdict × suspicious × strikes ∈ {0, 1, rl−1, rl,
    /// q−1, q} against a literal table of the ladder's next (verdict,
    /// strikes).
    #[test]
    fn ladder_steps_match_the_table_in_every_cell() {
        use SentinelVerdict::{Observe as O, Quarantined as Q, RateLimited as RL};
        let cfg = strict();
        let (rl, q) = (cfg.strikes_to_rate_limit, cfg.strikes_to_quarantine);
        assert_eq!((rl, q), (4, 12), "the table below is written for these");
        let strikes = [0, 1, rl - 1, rl, q - 1, q];
        #[rustfmt::skip]
        let table = [
            (O,  true,  [(O, 1),  (O, 2),  (RL, 4), (RL, 5), (Q, 12),  (Q, 13)]),
            (O,  false, [(O, 0),  (O, 0),  (O, 2),  (O, 3),  (RL, 10), (RL, 11)]),
            (RL, true,  [(RL, 1), (RL, 2), (RL, 4), (RL, 5), (Q, 12),  (Q, 13)]),
            (RL, false, [(O, 0),  (O, 0),  (RL, 2), (RL, 3), (RL, 10), (RL, 11)]),
            (Q,  true,  [(Q, 1),  (Q, 2),  (Q, 4),  (Q, 5),  (Q, 12),  (Q, 13)]),
            (Q,  false, [(Q, 0),  (Q, 0),  (Q, 2),  (Q, 3),  (Q, 10),  (Q, 11)]),
        ];
        for (verdict, suspicious, row) in table {
            for (s, want) in strikes.into_iter().zip(row) {
                assert_eq!(
                    ladder(verdict, s, suspicious, &cfg),
                    want,
                    "{verdict:?}, suspicious {suspicious}, {s} strikes"
                );
            }
        }
    }

    /// SplitMix64, the benign traces' generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Zipf draw over ranks `0..cdf.len()` from a normalized CDF.
        fn zipf(&mut self, cdf: &[f64]) -> usize {
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
        }
    }

    /// One session replays `trace` at default thresholds in `Observe`,
    /// reading its verdict after every request, until quarantine or the
    /// trace ends: (first `RateLimited` ordinal, `Quarantined` ordinal,
    /// last verdict, last strike count). Ordinals are 0-based.
    fn replay(
        trace: &[Vec<usize>],
        corpus: usize,
        substitute: Arc<Graph>,
    ) -> (Option<usize>, Option<usize>, SentinelVerdict, u32) {
        let sentinel = Sentinel::new(SentinelConfig::default(), corpus, Some(substitute));
        let client = ClientId(1);
        let mut rate_limited_at = None;
        let mut last = (SentinelVerdict::Observe, 0);
        for (i, nodes) in trace.iter().enumerate() {
            sentinel.admit(client, nodes).unwrap();
            let stripe = sentinel.stripe(client).lock().unwrap();
            let session = &stripe[&client];
            last = (session.verdict, session.strikes);
            match session.verdict {
                SentinelVerdict::Observe => {}
                SentinelVerdict::RateLimited => {
                    rate_limited_at.get_or_insert(i);
                }
                SentinelVerdict::Quarantined => return (rate_limited_at, Some(i), last.0, last.1),
            }
        }
        (rate_limited_at, None, last.0, last.1)
    }

    /// Which traces each rung of the ladder stops at default thresholds,
    /// with no engine, clock or dataset: the sweeps and off-substitute
    /// pair probes are caught at fixed ordinals, skewed and uniform
    /// hot-set traffic ends in `Observe`. The uniform row is why there
    /// is no window-entropy detector: to one, a near-uniform window over
    /// a 256-node working set reads as a sweep.
    #[test]
    fn detector_table_at_default_thresholds() {
        use SentinelVerdict::{Observe, Quarantined};
        const N: usize = 4096;
        const HOT: usize = 256;
        const BENIGN: usize = 10_000;
        // The public substitute is a path over the corpus.
        let path: Vec<(usize, usize)> = (1..N).map(|v| (v - 1, v)).collect();
        let substitute = Arc::new(Graph::from_edges(N, &path).unwrap());
        let sweep = |width: usize, requests: usize| -> Vec<Vec<usize>> {
            (0..requests)
                .map(|k| (k * width..(k + 1) * width).collect())
                .collect()
        };
        let off_substitute_pairs: Vec<Vec<usize>> = (0..400).map(|k| vec![k, k + N / 2]).collect();
        // Zipf(1.1) over the hot set, hot node r at rank r.
        let weights: Vec<f64> = (1..=HOT).map(|r| (r as f64).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc / total)
            })
            .collect();
        let mut rng = SplitMix(7);
        let zipf: Vec<Vec<usize>> = (0..BENIGN).map(|_| vec![rng.zipf(&cdf)]).collect();
        // 98/2: every 50th request is uniform over the nodes outside
        // the hot set.
        let mixed: Vec<Vec<usize>> = (1..=BENIGN)
            .map(|i| match i % 50 {
                0 => vec![HOT + rng.below(N - HOT)],
                _ => vec![rng.zipf(&cdf)],
            })
            .collect();
        let uniform: Vec<Vec<usize>> = (0..BENIGN).map(|_| vec![rng.below(HOT)]).collect();

        let rows = [
            (
                "1-node sweep",
                sweep(1, 400),
                (Some(270), Some(318), Quarantined, 64),
            ),
            (
                "fresh off-substitute pairs",
                off_substitute_pairs,
                (Some(142), Some(190), Quarantined, 64),
            ),
            (
                "16-node sweep",
                sweep(16, 100),
                (Some(30), Some(78), Quarantined, 64),
            ),
            ("Zipf(1.1) over 256 nodes", zipf, (None, None, Observe, 0)),
            ("98/2 hot/cold mix", mixed, (None, None, Observe, 0)),
            ("uniform over 256 nodes", uniform, (None, None, Observe, 0)),
        ];
        for (name, trace, want) in rows {
            assert_eq!(replay(&trace, N, Arc::clone(&substitute)), want, "{name}");
        }
    }

    #[test]
    fn off_mode_keeps_no_state() {
        let sentinel = Sentinel::new(
            SentinelConfig {
                mode: SentinelMode::Off,
                ..strict()
            },
            100,
            None,
        );
        for i in 0..100 {
            sentinel.admit(ClientId(1), &[i]).unwrap();
        }
        let stats = sentinel.stats();
        assert_eq!(stats.sessions_observed, 0);
        assert!(stats.sessions.is_empty());
    }

    #[test]
    fn sweep_escalates_through_the_ladder_and_quarantines() {
        let sentinel = Sentinel::new(strict(), 4096, None);
        let client = ClientId(7);
        let mut rate_limited = 0u64;
        let mut quarantined_at = None;
        for node in 0..4096usize {
            match sentinel.admit(client, &[node]) {
                Ok(()) => {}
                Err(ServeError::RateLimited { retry_after, .. }) => {
                    assert!(retry_after > Duration::ZERO);
                    rate_limited += 1;
                }
                Err(ServeError::Quarantined { client: c }) => {
                    assert_eq!(c, client);
                    quarantined_at.get_or_insert(node);
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let at = quarantined_at.expect("a full-corpus sweep must be quarantined");
        assert!(at < 64, "escalation should be fast, fired at {at}");
        assert!(rate_limited > 0, "the ladder passes through rate limiting");
        let stats = sentinel.stats();
        assert_eq!(stats.quarantined_sessions, 1);
        assert_eq!(stats.sessions.len(), 1);
        let s = &stats.sessions[0];
        assert_eq!(s.verdict, SentinelVerdict::Quarantined);
        assert_eq!(s.rate_limited, rate_limited);
        assert!(s.quarantined_rejections > 0);
        assert_eq!(stats.rate_limited_requests, rate_limited);
    }

    #[test]
    fn skewed_benign_traffic_never_escalates() {
        let sentinel = Sentinel::new(strict(), 4096, None);
        let client = ClientId(3);
        // 80% of traffic on 4 hot nodes, the rest revisits a small
        // working set: the fresh rate stays low.
        for i in 0..2048usize {
            let node = if i % 5 != 0 {
                i % 4
            } else {
                100 + (i / 5) % 24
            };
            sentinel.admit(client, &[node]).unwrap();
        }
        let stats = sentinel.stats();
        let s = &stats.sessions[0];
        assert_eq!(s.verdict, SentinelVerdict::Observe);
        assert_eq!(stats.rate_limited_requests, 0);
        assert_eq!(stats.quarantined_sessions, 0);
    }

    #[test]
    fn pair_probing_is_caught_even_at_low_coverage() {
        // Every probe here is two fresh nodes, so the coverage detector
        // would fire too; a rate threshold no rate reaches isolates the
        // pair detector.
        let cfg = SentinelConfig {
            fresh_rate_threshold: 1.5,
            ..strict()
        };
        let g = Graph::from_edges(1 << 20, &[(0, 1), (2, 3)]).unwrap();
        let sentinel = Sentinel::new(cfg, 1 << 20, Some(Arc::new(g)));
        let client = ClientId(9);
        let mut saw_rejection = false;
        for i in 0..256usize {
            // Fresh pairs far apart in the corpus: none are substitute
            // edges.
            let (u, v) = (2 * i + 10, 500_000 + 3 * i);
            if sentinel.admit(client, &[u, v]).is_err() {
                saw_rejection = true;
            }
        }
        assert!(saw_rejection, "off-graph pair probing must escalate");
        let s = &sentinel.stats().sessions[0];
        assert!(s.pair_probes >= 8);
        assert_eq!(s.offgraph_pair_probes, s.pair_probes);
    }

    #[test]
    fn substitute_edges_explain_benign_pairs() {
        // Every probe follows the public graph: the pair detector's
        // off-graph fraction stays at zero however many pairs arrive.
        let edges: Vec<(usize, usize)> = (0..512usize).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(513, &edges).unwrap();
        let cfg = SentinelConfig {
            fresh_rate_threshold: 1.5, // isolate the pair detector
            ..strict()
        };
        let sentinel = Sentinel::new(cfg, 513, Some(Arc::new(g)));
        let client = ClientId(4);
        for i in 0..512usize {
            sentinel.admit(client, &[i, i + 1]).unwrap();
        }
        let s = &sentinel.stats().sessions[0];
        assert_eq!(s.offgraph_pair_probes, 0);
        assert_eq!(s.verdict, SentinelVerdict::Observe);
    }

    #[test]
    fn observe_mode_records_verdicts_without_rejecting() {
        let cfg = SentinelConfig {
            mode: SentinelMode::Observe,
            ..strict()
        };
        let sentinel = Sentinel::new(cfg, 4096, None);
        let client = ClientId(11);
        for node in 0..1024usize {
            sentinel.admit(client, &[node]).unwrap();
        }
        let stats = sentinel.stats();
        assert_eq!(stats.sessions[0].verdict, SentinelVerdict::Quarantined);
        assert_eq!(stats.quarantined_sessions, 1, "shadow mode still counts");
        assert_eq!(stats.quarantined_requests, 0, "but rejects nothing");
        assert_eq!(stats.rate_limited_requests, 0);
    }

    #[test]
    fn reset_grants_amnesty_but_keeps_monotonic_counters() {
        let sentinel = Sentinel::new(strict(), 4096, None);
        let client = ClientId(2);
        for node in 0..256usize {
            let _ = sentinel.admit(client, &[node]);
        }
        assert_eq!(sentinel.stats().quarantined_sessions, 1);
        sentinel.reset();
        assert!(sentinel.stats().sessions.is_empty());
        assert_eq!(
            sentinel.stats().quarantined_sessions,
            1,
            "aggregate history survives the amnesty"
        );
        sentinel.admit(client, &[0]).unwrap();
        assert_eq!(
            sentinel.stats().sessions[0].verdict,
            SentinelVerdict::Observe
        );
    }

    #[test]
    fn rate_limit_refill_reopens_admission() {
        let cfg = SentinelConfig {
            rate_limit_refill_per_sec: 1000.0,
            strikes_to_quarantine: u32::MAX, // stay in RateLimited
            ..strict()
        };
        let sentinel = Sentinel::new(cfg, 1 << 20, None);
        let client = ClientId(5);
        let mut first_limit = None;
        for node in 0..64usize {
            if let Err(ServeError::RateLimited { retry_after, .. }) =
                sentinel.admit(client, &[node])
            {
                first_limit = Some(retry_after);
                break;
            }
        }
        let retry_after = first_limit.expect("burst must exhaust");
        std::thread::sleep(retry_after + Duration::from_millis(5));
        // One token has refilled; the next suspicious request passes.
        sentinel
            .admit(client, &[1 << 19])
            .expect("refilled bucket re-admits");
    }

    #[test]
    fn sessions_are_isolated() {
        let sentinel = Sentinel::new(strict(), 4096, None);
        for node in 0..512usize {
            let _ = sentinel.admit(ClientId(1), &[node]); // sweeper
            sentinel.admit(ClientId(2), &[node % 3]).unwrap(); // benign
        }
        let stats = sentinel.stats();
        assert_eq!(stats.sessions_observed, 2);
        let sweeper = &stats.sessions[0];
        let benign = &stats.sessions[1];
        assert_eq!(sweeper.client, ClientId(1));
        assert_eq!(sweeper.verdict, SentinelVerdict::Quarantined);
        assert_eq!(benign.verdict, SentinelVerdict::Observe);
        assert_eq!(benign.rate_limited, 0);
    }
}
