//! Size- and deadline-bounded batch admission.
//!
//! Clients push node-query requests into an [`AdmissionQueue`] from any
//! thread; the serving worker pulls *batches* out. A batch flushes when
//! the pending node count reaches [`BatchPolicy::max_batch_nodes`]
//! (size bound) or when the oldest pending request has waited
//! [`BatchPolicy::max_delay`] (deadline bound — a lone request is never
//! stranded waiting for peers). Admission control sheds overload: at
//! [`BatchPolicy::max_queue_requests`] pending requests the queue turns
//! new arrivals away with [`ServeError::Overloaded`] and a retry-after
//! hint, so latency stays bounded instead of growing without limit.

use crate::sentinel::ClientId;
use crate::ServeError;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// Batching and admission knobs for the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush a batch once this many query nodes are pending. A single
    /// request larger than the bound is admitted and forms its own
    /// batch.
    pub max_batch_nodes: usize,
    /// Flush a partial batch once its oldest request has waited this
    /// long (the serving latency bound under light load).
    pub max_delay: Duration,
    /// Admission bound: once this many requests are pending, new
    /// submissions fail fast with [`ServeError::Overloaded`] (carrying
    /// a retry-after hint) instead of deepening the backlog.
    pub max_queue_requests: usize,
}

impl Default for BatchPolicy {
    /// 64-node batches, a 2 ms flush deadline, and shedding from 3072
    /// pending requests.
    fn default() -> Self {
        Self {
            max_batch_nodes: 64,
            max_delay: Duration::from_millis(2),
            max_queue_requests: 3072,
        }
    }
}

/// Why [`AdmissionQueue::next_batch`] released a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The size bound was reached.
    Full,
    /// The oldest request's deadline expired with a partial batch.
    Deadline,
    /// The queue was closed and remaining requests are being drained.
    Drain,
}

/// Outcome of one [`AdmissionQueue::poll_batch`] call.
#[derive(Debug)]
pub enum BatchPoll {
    /// A batch became due within the poll window.
    Batch(Vec<PendingRequest>, FlushReason),
    /// The wait expired (or the queue was [`notify`](AdmissionQueue::notify)-ed)
    /// with no batch due; the worker should service its control channel
    /// and poll again.
    Idle,
    /// The queue is closed and fully drained: the worker's exit signal.
    Drained,
}

/// One admitted request, as handed to the serving worker.
///
/// The worker answers it with [`PendingRequest::respond`]; dropping it
/// unanswered (a worker death) resolves the client's [`Ticket`] to
/// [`ServeError::ShardFailed`] — a typed error, never a hang.
#[derive(Debug)]
pub struct PendingRequest {
    nodes: Vec<usize>,
    client: ClientId,
    enqueued_at: Instant,
    responder: Sender<Result<Vec<ClassLabel>, ServeError>>,
}

impl PendingRequest {
    /// The node ids this request asks about (in client order).
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The session that submitted the request
    /// ([`ClientId::ANONYMOUS`] for unattributed traffic), so every
    /// sub-request a worker sees is attributable to its origin.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// When the request was admitted.
    pub fn enqueued_at(&self) -> Instant {
        self.enqueued_at
    }

    /// How long the request has been waiting since admission — the
    /// quantity the worker checks against
    /// [`ServeConfig::request_timeout`](crate::ServeConfig).
    pub fn waited(&self) -> Duration {
        self.enqueued_at.elapsed()
    }

    /// Resolves the client's ticket. A client that dropped its ticket
    /// is silently skipped.
    pub fn respond(self, result: Result<Vec<ClassLabel>, ServeError>) {
        let _ = self.responder.send(result);
    }
}

/// One partial answer channel of a [`Ticket`]: the labels a single
/// shard queue will deliver, plus where they land in the client's
/// request order (`None` = the part covers the whole request).
#[derive(Debug)]
struct TicketPart {
    receiver: Receiver<Result<Vec<ClassLabel>, ServeError>>,
    positions: Option<Vec<usize>>,
    /// The shard whose worker will answer this part; a disconnected
    /// responder resolves to [`ServeError::ShardFailed`] for it.
    shard: usize,
}

/// The client half of one submitted request: blocks until the serving
/// worker(s) answer.
///
/// A ticket from a single queue carries one part; a ticket from a
/// partitioned engine carries one part per shard that owns some of the
/// request's nodes, and [`Ticket::wait`] reassembles the labels back
/// into the client's request order.
#[derive(Debug)]
pub struct Ticket {
    parts: Vec<TicketPart>,
    total: usize,
    /// Already-resolved answer from the submit-path fast cache: the
    /// request never entered a queue and `wait` returns immediately.
    ready: Option<Vec<ClassLabel>>,
}

impl Ticket {
    /// Wraps a single answer channel covering the whole request,
    /// answered by `shard`'s worker.
    pub(crate) fn from_receiver(
        receiver: Receiver<Result<Vec<ClassLabel>, ServeError>>,
        shard: usize,
    ) -> Ticket {
        Ticket {
            parts: vec![TicketPart {
                receiver,
                positions: None,
                shard,
            }],
            total: 0,
            ready: None,
        }
    }

    /// A ticket resolved on the submit thread (every node hit the
    /// fast cache): carries its labels, owns no channel, and never
    /// blocks.
    pub(crate) fn ready(labels: Vec<ClassLabel>) -> Ticket {
        Ticket {
            parts: Vec::new(),
            total: 0,
            ready: Some(labels),
        }
    }

    /// Combines per-shard sub-tickets into one routed ticket. Each
    /// entry pairs a (single-part) sub-ticket with the request-order
    /// positions its labels fill; `total` is the client's node count.
    pub(crate) fn from_routed_parts(parts: Vec<(Ticket, Vec<usize>)>, total: usize) -> Ticket {
        Ticket {
            parts: parts
                .into_iter()
                .map(|(ticket, positions)| {
                    let mut sub = ticket.parts;
                    debug_assert_eq!(sub.len(), 1, "sub-tickets are single-part");
                    let mut part = sub.pop().expect("sub-ticket has one part");
                    part.positions = Some(positions);
                    part
                })
                .collect(),
            total,
            ready: None,
        }
    }

    /// Blocks until the request is answered. Returns the first
    /// per-shard error when any part of a routed request failed;
    /// in particular [`ServeError::ShardFailed`] when the answering
    /// worker died without responding — a dropped responder resolves
    /// the ticket, it never hangs.
    pub fn wait(self) -> Result<Vec<ClassLabel>, ServeError> {
        self.wait_until(None).expect("no deadline given")
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout`,
    /// returning `None` when no answer arrived in time.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Result<Vec<ClassLabel>, ServeError>> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(self, deadline: Option<Instant>) -> Option<Result<Vec<ClassLabel>, ServeError>> {
        if let Some(labels) = self.ready {
            return Some(Ok(labels));
        }
        let mut assembled = vec![ClassLabel(0); self.total];
        for part in self.parts {
            // A disconnected responder means the worker died with the
            // request in hand: a typed shard failure, never a hang.
            let died = ServeError::ShardFailed { shard: part.shard };
            let result = match deadline {
                None => part.receiver.recv().unwrap_or(Err(died)),
                Some(deadline) => {
                    let timeout = deadline.saturating_duration_since(Instant::now());
                    match part.receiver.recv_timeout(timeout) {
                        Ok(result) => result,
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(died),
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => return None,
                    }
                }
            };
            match result {
                Ok(labels) => match &part.positions {
                    // Unrouted ticket: the part is the whole answer.
                    None => return Some(Ok(labels)),
                    Some(positions) => {
                        for (&pos, label) in positions.iter().zip(labels) {
                            assembled[pos] = label;
                        }
                    }
                },
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok(assembled))
    }
}

/// Queue interior: the pending requests plus aggregate node count.
#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<PendingRequest>,
    pending_nodes: usize,
    /// Deepest the queue has ever been (in requests) — the operator's
    /// headroom gauge, exported via `ShardStats::queue_high_water`.
    high_water: usize,
    closed: bool,
}

/// Thread-safe batch admission queue (the "batcher").
///
/// Any number of submitter threads call [`submit`](Self::submit); one
/// worker loops on [`next_batch`](Self::next_batch). Closing the queue
/// ([`close`](Self::close)) rejects new submissions while letting the
/// worker drain what was already admitted.
///
/// # Examples
///
/// ```
/// use serve::{AdmissionQueue, BatchPolicy, FlushReason};
/// use std::time::Duration;
///
/// let queue = AdmissionQueue::new(BatchPolicy {
///     max_batch_nodes: 4,
///     max_delay: Duration::from_millis(1),
///     max_queue_requests: 16,
/// });
/// let t1 = queue.submit(vec![0, 1]).unwrap();
/// let t2 = queue.submit(vec![2, 3]).unwrap();
///
/// // 4 pending nodes hit the size bound: both requests flush together.
/// let (batch, reason) = queue.next_batch().unwrap();
/// assert_eq!(reason, FlushReason::Full);
/// assert_eq!(batch.len(), 2);
///
/// // The worker answers each request; tickets resolve.
/// for request in batch {
///     let echo = request.nodes().iter().map(|&n| tee::ClassLabel(n)).collect();
///     request.respond(Ok(echo));
/// }
/// assert_eq!(t1.wait().unwrap(), vec![tee::ClassLabel(0), tee::ClassLabel(1)]);
/// assert_eq!(t2.wait().unwrap().len(), 2);
/// ```
#[derive(Debug)]
pub struct AdmissionQueue {
    policy: BatchPolicy,
    /// Which engine shard this queue feeds (0 for a standalone queue):
    /// stamped into every ticket so a dead worker resolves to a typed
    /// [`ServeError::ShardFailed`] naming the culprit.
    shard: usize,
    state: Mutex<QueueState>,
    arrived: Condvar,
}

impl AdmissionQueue {
    /// Creates a standalone queue (shard 0) with the given policy.
    /// Zero-valued size knobs are clamped to 1 so the queue can always
    /// make progress.
    pub fn new(policy: BatchPolicy) -> Self {
        Self::for_shard(policy, 0)
    }

    /// Like [`AdmissionQueue::new`], but feeding engine shard `shard`.
    pub fn for_shard(policy: BatchPolicy, shard: usize) -> Self {
        Self {
            policy: BatchPolicy {
                max_batch_nodes: policy.max_batch_nodes.max(1),
                max_delay: policy.max_delay,
                max_queue_requests: policy.max_queue_requests.max(1),
            },
            shard,
            state: Mutex::new(QueueState::default()),
            arrived: Condvar::new(),
        }
    }

    /// The (normalized) policy this queue runs under.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Number of requests currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").pending.len()
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been, in requests — a backlog
    /// headroom gauge against `max_queue_requests`.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("queue lock").high_water
    }

    /// Admits a request for the given nodes, returning the ticket the
    /// client blocks on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] for an empty node list;
    /// [`ServeError::Overloaded`] (with a retry-after hint) once
    /// [`BatchPolicy::max_queue_requests`] are pending;
    /// [`ServeError::Closed`] after [`close`](Self::close).
    pub fn submit(&self, nodes: Vec<usize>) -> Result<Ticket, ServeError> {
        self.submit_as(ClientId::ANONYMOUS, nodes)
    }

    /// Like [`submit`](Self::submit), but stamps the request with the
    /// submitting session's identity so the worker (and any abuse
    /// accounting) can attribute it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`submit`](Self::submit).
    pub fn submit_as(&self, client: ClientId, nodes: Vec<usize>) -> Result<Ticket, ServeError> {
        if nodes.is_empty() {
            return Err(ServeError::Rejected {
                reason: "request contains no query nodes".into(),
            });
        }
        let (responder, receiver) = channel();
        {
            let mut state = self.state.lock().expect("queue lock");
            if state.closed {
                return Err(ServeError::Closed);
            }
            if state.pending.len() >= self.policy.max_queue_requests {
                return Err(ServeError::Overloaded {
                    queued: state.pending.len(),
                    retry_after: self.drain_hint(&state),
                });
            }
            state.pending_nodes += nodes.len();
            state.pending.push_back(PendingRequest {
                nodes,
                client,
                enqueued_at: Instant::now(),
                responder,
            });
            state.high_water = state.high_water.max(state.pending.len());
        }
        self.arrived.notify_all();
        Ok(Ticket::from_receiver(receiver, self.shard))
    }

    /// Estimates how long the present backlog takes to drain — the
    /// retry-after hint attached to [`ServeError::Overloaded`]. Derived
    /// from the pending node count and the flush cadence (one
    /// `max_batch_nodes` batch per `max_delay` in the worst case),
    /// clamped to stay a useful hint rather than a promise.
    fn drain_hint(&self, state: &QueueState) -> Duration {
        let pending_batches = state.pending_nodes / self.policy.max_batch_nodes + 1;
        let per_batch = self.policy.max_delay.max(Duration::from_micros(500));
        per_batch * pending_batches.min(64) as u32
    }

    /// Blocks until a batch is due and returns it, or `None` once the
    /// queue is closed *and* drained (the worker's exit signal).
    ///
    /// The returned batch takes whole requests in arrival order until
    /// the size bound is met; it always contains at least one request.
    pub fn next_batch(&self) -> Option<(Vec<PendingRequest>, FlushReason)> {
        loop {
            match self.poll_batch(Duration::from_secs(3600)) {
                BatchPoll::Batch(batch, reason) => return Some((batch, reason)),
                BatchPoll::Idle => continue,
                BatchPoll::Drained => return None,
            }
        }
    }

    /// Like [`next_batch`](Self::next_batch), but bounded: waits at
    /// most `max_wait` (and at most one condvar wake) before reporting
    /// [`BatchPoll::Idle`]. A worker that interleaves queue work with a
    /// control channel loops on this instead of `next_batch`, calling
    /// [`notify`](Self::notify) from the control side to cut the wait
    /// short.
    pub fn poll_batch(&self, max_wait: Duration) -> BatchPoll {
        let give_up = Instant::now() + max_wait;
        let mut state = self.state.lock().expect("queue lock");
        let mut waited = false;
        loop {
            if state.closed {
                if state.pending.is_empty() {
                    return BatchPoll::Drained;
                }
                return BatchPoll::Batch(
                    Self::take_batch(&mut state, &self.policy),
                    FlushReason::Drain,
                );
            }
            if state.pending_nodes >= self.policy.max_batch_nodes {
                return BatchPoll::Batch(
                    Self::take_batch(&mut state, &self.policy),
                    FlushReason::Full,
                );
            }
            let now = Instant::now();
            let mut wake_at = give_up;
            if let Some(oldest) = state.pending.front() {
                let deadline = oldest.enqueued_at + self.policy.max_delay;
                if now >= deadline {
                    return BatchPoll::Batch(
                        Self::take_batch(&mut state, &self.policy),
                        FlushReason::Deadline,
                    );
                }
                wake_at = wake_at.min(deadline);
            }
            if waited || now >= give_up {
                return BatchPoll::Idle;
            }
            let (next, _) = self
                .arrived
                .wait_timeout(state, wake_at - now)
                .expect("queue wait");
            state = next;
            waited = true;
        }
    }

    /// Wakes a worker blocked in [`poll_batch`](Self::poll_batch) so it
    /// returns promptly (with a due batch if one exists, otherwise
    /// [`BatchPoll::Idle`]). Used to make out-of-band control messages
    /// — e.g. a hot-swap deploy — visible without waiting out the poll.
    pub fn notify(&self) {
        // Take the lock so the wake cannot slip between a waiter's
        // predicate check and its wait.
        let _guard = self.state.lock().expect("queue lock");
        self.arrived.notify_all();
    }

    /// Pops requests (oldest first) until the size bound is satisfied or
    /// the queue empties; at least one request is taken.
    fn take_batch(state: &mut QueueState, policy: &BatchPolicy) -> Vec<PendingRequest> {
        let mut batch = Vec::new();
        let mut nodes = 0usize;
        while let Some(front) = state.pending.front() {
            if !batch.is_empty() && nodes + front.nodes.len() > policy.max_batch_nodes {
                break;
            }
            let request = state.pending.pop_front().expect("front exists");
            nodes += request.nodes.len();
            state.pending_nodes -= request.nodes.len();
            batch.push(request);
            if nodes >= policy.max_batch_nodes {
                break;
            }
        }
        batch
    }

    /// Closes the queue: new submissions fail with
    /// [`ServeError::Closed`], already-admitted requests remain
    /// drainable via [`next_batch`](Self::next_batch).
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A request for `nodes`, admitted now but outside any queue — how
    /// the shard state-machine tests hand batches to a core directly.
    pub(crate) fn request(nodes: Vec<usize>) -> PendingRequest {
        PendingRequest {
            nodes,
            client: ClientId::ANONYMOUS,
            enqueued_at: Instant::now(),
            responder: channel().0,
        }
    }

    fn policy(max_nodes: usize, delay_ms: u64, cap: usize) -> BatchPolicy {
        BatchPolicy {
            max_batch_nodes: max_nodes,
            max_delay: Duration::from_millis(delay_ms),
            max_queue_requests: cap,
        }
    }

    #[test]
    fn size_bound_flushes_without_waiting_out_the_deadline() {
        let queue = AdmissionQueue::new(policy(4, 10_000, 100));
        let _t1 = queue.submit(vec![0, 1]).unwrap();
        let _t2 = queue.submit(vec![2, 3]).unwrap();
        let start = Instant::now();
        let (batch, reason) = queue.next_batch().unwrap();
        assert_eq!(reason, FlushReason::Full);
        assert_eq!(batch.len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "size-bound flush must not wait for the deadline"
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn deadline_flushes_a_partial_batch() {
        let queue = AdmissionQueue::new(policy(1_000, 20, 100));
        let _t = queue.submit(vec![7]).unwrap();
        let start = Instant::now();
        let (batch, reason) = queue.next_batch().unwrap();
        assert_eq!(reason, FlushReason::Deadline);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].nodes(), &[7]);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn batch_splits_at_the_node_bound() {
        let queue = AdmissionQueue::new(policy(3, 1, 100));
        let _a = queue.submit(vec![0, 1]).unwrap();
        let _b = queue.submit(vec![2, 3]).unwrap();
        // 4 pending ≥ 3: flush takes the first request, and the second
        // would overflow the bound, so it stays queued.
        let (batch, _) = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].nodes(), &[0, 1]);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn oversized_request_forms_its_own_batch() {
        let queue = AdmissionQueue::new(policy(2, 1, 100));
        let _t = queue.submit(vec![0, 1, 2, 3, 4]).unwrap();
        let (batch, _) = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].nodes().len(), 5);
    }

    #[test]
    fn admission_control_rejects_over_cap_and_empty() {
        let queue = AdmissionQueue::new(policy(100, 1, 2));
        let _a = queue.submit(vec![0]).unwrap();
        let _b = queue.submit(vec![1]).unwrap();
        match queue.submit(vec![2]) {
            Err(ServeError::Overloaded {
                queued,
                retry_after,
            }) => {
                assert_eq!(queued, 2);
                assert!(retry_after > Duration::ZERO, "hint must be actionable");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(matches!(
            queue.submit(vec![]),
            Err(ServeError::Rejected { .. })
        ));
        // Shedding is a load condition: draining reopens admission.
        let (batch, _) = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert!(queue.submit(vec![2]).is_ok());
    }

    #[test]
    fn close_rejects_new_but_drains_old() {
        let queue = AdmissionQueue::new(policy(100, 10_000, 100));
        let _t = queue.submit(vec![0]).unwrap();
        queue.close();
        assert!(matches!(queue.submit(vec![1]), Err(ServeError::Closed)));
        let (batch, reason) = queue.next_batch().unwrap();
        assert_eq!(reason, FlushReason::Drain);
        assert_eq!(batch.len(), 1);
        assert!(queue.next_batch().is_none(), "drained queue signals exit");
    }

    #[test]
    fn submissions_carry_their_client_identity() {
        let queue = AdmissionQueue::new(policy(100, 1, 100));
        let _a = queue.submit(vec![0]).unwrap();
        let _b = queue.submit_as(ClientId(42), vec![1]).unwrap();
        let (batch, _) = queue.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].client(), ClientId::ANONYMOUS);
        assert_eq!(batch[1].client(), ClientId(42));
    }

    #[test]
    fn dropped_ticket_does_not_poison_the_worker() {
        let queue = AdmissionQueue::new(policy(1, 1, 100));
        let ticket = queue.submit(vec![0]).unwrap();
        drop(ticket);
        let (batch, _) = queue.next_batch().unwrap();
        for request in batch {
            request.respond(Ok(vec![])); // must not panic
        }
    }

    #[test]
    fn unanswered_request_resolves_ticket_to_shard_failed() {
        let queue = AdmissionQueue::for_shard(policy(1, 1, 100), 3);
        let ticket = queue.submit(vec![0]).unwrap();
        let (batch, _) = queue.next_batch().unwrap();
        drop(batch); // worker dies without responding
        assert_eq!(ticket.wait(), Err(ServeError::ShardFailed { shard: 3 }));
    }

    #[test]
    fn concurrent_submitters_all_get_batched() {
        let queue = Arc::new(AdmissionQueue::new(policy(8, 5, 1_000)));
        let mut handles = Vec::new();
        for t in 0..4 {
            let queue = Arc::clone(&queue);
            handles.push(std::thread::spawn(move || {
                (0..25)
                    .map(|i| queue.submit(vec![t * 100 + i]).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        // Worker: echo every node id back as its "label".
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut served = 0usize;
                while served < 100 {
                    let Some((batch, _)) = queue.next_batch() else {
                        break;
                    };
                    for request in batch {
                        served += 1;
                        let echo = request.nodes().iter().map(|&n| ClassLabel(n)).collect();
                        request.respond(Ok(echo));
                    }
                }
                served
            })
        };
        for handle in handles {
            for (i, ticket) in handle.join().unwrap().into_iter().enumerate() {
                let labels = ticket.wait().unwrap();
                assert_eq!(labels.len(), 1);
                assert_eq!(labels[0].0 % 100, i);
            }
        }
        assert_eq!(worker.join().unwrap(), 100);
    }
}
