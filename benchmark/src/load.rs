//! Load generation: the label oracle check, closed-loop clients, the
//! open-loop generator and collector, and the deploy operator.
//!
//! Only public serving API is used: `ServeHandle::submit*_as`,
//! `Ticket::wait_timeout`, `ServingEngine::deploy`.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::traffic::{Stream, BATCH_NODES};
use gnnvault::VaultSnapshot;
use serve::{ClientId, ServeError, ServeHandle, ServingEngine, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// A request unresolved this long after it was sent is a failure.
pub const RESOLVE_LIMIT: Duration = Duration::from_secs(5);
/// The open-loop generator sleeps until this close to a send time, then
/// spins.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Checks served labels against sequential `Vault::infer` tables, one
/// per model the run deploys.
#[derive(Debug)]
pub struct Checker {
    tables: Vec<Vec<ClassLabel>>,
    /// Bumped when a `deploy` call begins and again when it returns:
    /// odd while one is in progress, and `seq / 2` deploys have
    /// returned. Deploy `k` (1-based) installs `tables[k % len]`.
    deploy_seq: AtomicU64,
}

impl Checker {
    pub fn new(tables: Vec<Vec<ClassLabel>>) -> Self {
        assert!(!tables.is_empty());
        Self {
            tables,
            deploy_seq: AtomicU64::new(0),
        }
    }

    pub fn seq(&self) -> u64 {
        self.deploy_seq.load(Ordering::SeqCst)
    }

    fn bump(&self) {
        self.deploy_seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether `labels` answer `nodes` for a request submitted at
    /// deploy sequence `s0` and resolved at `s1`.
    pub fn accepts(&self, nodes: &[usize], labels: &[ClassLabel], s0: u64, s1: u64) -> bool {
        nodes.len() == labels.len()
            && nodes.iter().zip(labels).all(|(&node, label)| {
                acceptable_models(s0, s1, self.tables.len()).any(|m| self.tables[m][node] == *label)
            })
    }
}

/// The models whose label a request may carry, given the deploy
/// sequence read before its submit (`s0`) and after it resolved (`s1`):
/// the model current at submit; another one only if a `deploy` call
/// overlapped the request. Once a deploy has returned, a request
/// submitted afterwards must see the new model.
pub fn acceptable_models(s0: u64, s1: u64, models: usize) -> impl Iterator<Item = usize> {
    // Deploys returned before submit: s0 / 2 (a deploy in progress at
    // submit may or may not have installed yet). Deploys begun before
    // the request resolved: (s1 + 1) / 2.
    (s0 / 2..=s1.div_ceil(2)).map(move |k| (k % models as u64) as usize)
}

/// Requests of one phase, by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Counts {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When it resolved, ns from the start of its stretch.
    pub done_ns: u64,
    pub latency_ns: u64,
    /// Correct labels it returned (0 for a failure).
    pub labels: u32,
}

/// Medians over the slices of a stretch of each slice's own numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceMedians {
    pub throughput_qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// What one timed stretch of load produced.
#[derive(Debug, Default)]
pub struct Segment {
    /// Every request sent in the stretch.
    pub samples: Vec<Sample>,
    /// Requests that resolved before the stretch ended.
    pub within: Counts,
    /// Requests still in flight when it ended (the drain phase).
    pub drain: Counts,
    /// Correct node labels resolved before the stretch ended.
    pub labels_within: u64,
    /// Correct node labels resolved in all, drain included.
    pub labels_total: u64,
    /// Open loop only: actual minus intended send time per request, ns.
    pub lateness_ns: Vec<u64>,
}

impl Segment {
    fn note(&mut self, done_ns: u64, latency_ns: u64, in_time: bool, ok: bool, labels: usize) {
        self.samples.push(Sample {
            done_ns,
            latency_ns,
            labels: if ok { labels as u32 } else { 0 },
        });
        if in_time {
            self.within.add(ok);
        } else {
            self.drain.add(ok);
        }
        if ok {
            self.labels_total += labels as u64;
            if in_time {
                self.labels_within += labels as u64;
            }
        }
    }

    pub fn merge(&mut self, other: Segment) {
        self.samples.extend(other.samples);
        self.within.merge(other.within);
        self.drain.merge(other.drain);
        self.labels_within += other.labels_within;
        self.labels_total += other.labels_total;
        self.lateness_ns.extend(other.lateness_ns);
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.latency_ns).collect()
    }

    /// Cuts the first `seconds` of the stretch into slices of about a
    /// second and takes, per slice, the rate at which labels resolved in
    /// it and the p50 and p99 latency of the requests resolved in it;
    /// then the median of each over the slices. A stall of the box (this
    /// one is a shared VM) spoils a slice, not the run.
    pub fn slice_medians(&self, seconds: f64) -> SliceMedians {
        let slices = (seconds as usize).max(1);
        let slice_ns = seconds * 1e9 / slices as f64;
        let mut by_slice = vec![Vec::new(); slices];
        for s in &self.samples {
            if let Some(slice) = by_slice.get_mut((s.done_ns as f64 / slice_ns) as usize) {
                slice.push(*s);
            }
        }
        let mut throughput = Vec::with_capacity(slices);
        let (mut p50_us, mut p99_us) = (Vec::new(), Vec::new());
        for slice in &mut by_slice {
            slice.sort_unstable_by_key(|s| s.done_ns);
            // Labels per second from the first resolution of the slice
            // to its last: a count over the slice's nominal length would
            // move in steps of one request.
            throughput.push(match slice[..] {
                [first, .., last] if last.done_ns > first.done_ns => {
                    let labels: u64 = slice[1..].iter().map(|s| u64::from(s.labels)).sum();
                    labels as f64 * 1e9 / (last.done_ns - first.done_ns) as f64
                }
                _ => slice.iter().map(|s| f64::from(s.labels)).sum::<f64>() * 1e9 / slice_ns,
            });
            let mut latencies: Vec<u64> = slice.iter().map(|s| s.latency_ns).collect();
            latencies.sort_unstable();
            if let (Some(p50), Some(p99)) =
                (percentile(&latencies, 0.5), percentile(&latencies, 0.99))
            {
                p50_us.push(p50 as f64 / 1e3);
                p99_us.push(p99 as f64 / 1e3);
            }
        }
        SliceMedians {
            throughput_qps: median(&mut throughput),
            p50_us: median(&mut p50_us),
            p99_us: median(&mut p99_us),
        }
    }

    pub fn failed(&self) -> u64 {
        self.within.failed + self.drain.failed
    }

    pub fn attempted(&self) -> u64 {
        self.within.attempted + self.drain.attempted
    }
}

fn submit(handle: &ServeHandle, client: ClientId, nodes: &[usize]) -> Result<Ticket, ServeError> {
    match nodes {
        [node] => handle.submit_one_as(client, *node),
        _ => handle.submit_as(client, nodes.to_vec()),
    }
}

/// Waits a ticket out; a refused submit, a typed error, a wrong label
/// and a ticket unresolved after [`RESOLVE_LIMIT`] are all failures.
fn resolve(
    ticket: Result<Ticket, ServeError>,
    nodes: &[usize],
    checker: &Checker,
    s0: u64,
) -> bool {
    let labels = ticket.ok().and_then(|t| t.wait_timeout(RESOLVE_LIMIT));
    match labels {
        Some(Ok(labels)) => checker.accepts(nodes, &labels, s0, checker.seq()),
        _ => false,
    }
}

/// Touches the hot set in [`BATCH_NODES`]-node requests, one at a time:
/// a fixed number of enclave batches, whatever the timing. Returns the
/// labels answered.
pub fn touch_hot_set(
    handle: &ServeHandle,
    hot: &[usize],
    checker: &Checker,
) -> Result<u64, Box<dyn std::error::Error>> {
    for nodes in hot.chunks(BATCH_NODES) {
        let s0 = checker.seq();
        let answer = handle.submit_as(ClientId(1), nodes.to_vec())?.wait()?;
        if !checker.accepts(nodes, &answer, s0, checker.seq()) {
            return Err("wrong label while touching the hot set".into());
        }
    }
    Ok(hot.len() as u64)
}

/// One closed-loop client: sends its stream's next request as soon as
/// the previous one resolved, from `start` until `until`.
pub fn closed_loop(
    handle: &ServeHandle,
    client: ClientId,
    stream: &mut Stream,
    checker: &Checker,
    (start, until): (Instant, Instant),
    mut tracer: Option<&mut Tracer>,
) -> Segment {
    let mut segment = Segment::default();
    loop {
        let nodes = stream.next_request();
        let s0 = checker.seq();
        let sent = Instant::now();
        if sent >= until {
            return segment;
        }
        let ticket = submit(handle, client, &nodes);
        let submitted = Instant::now();
        let ok = resolve(ticket, &nodes, checker, s0);
        let done = Instant::now();
        segment.note(
            (done - start).as_nanos() as u64,
            (done - sent).as_nanos() as u64,
            done <= until,
            ok,
            nodes.len(),
        );
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record(
                "request",
                (sent, done),
                &[
                    ("client.submit", sent, submitted),
                    ("client.wait", submitted, done),
                ],
            );
        }
    }
}

struct Sent {
    nodes: Vec<usize>,
    s0: u64,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// Open loop: a generator thread submits `stream` at the intended
/// offsets (ns from `start`) whatever the engine does, and the calling
/// thread collects, waiting the tickets in send order. Latency runs
/// from the *intended* send time, so a stall is charged to every
/// request behind it. The stretch ends at `until`.
///
/// Collecting in send order is exact only while every request takes the
/// queued path of one shard, where tickets resolve in the order they
/// were admitted. `Ticket` has no readiness probe, so a fast-path hit
/// would be seen only once the queued request ahead of it resolved:
/// the open-loop workload runs with the fast cache off.
pub fn open_loop(
    handle: &ServeHandle,
    client: ClientId,
    stream: &mut Stream,
    offsets_ns: &[u64],
    checker: &Checker,
    (start, until): (Instant, Instant),
    mut tracer: Option<&mut Tracer>,
) -> Segment {
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for &offset in offsets_ns {
                let nodes = stream.next_request();
                let due = start + Duration::from_nanos(offset);
                pace_until(due);
                let s0 = checker.seq();
                let sent = Instant::now();
                let ticket = submit(handle, client, &nodes);
                let submitted = Instant::now();
                let message = Sent {
                    nodes,
                    s0,
                    due,
                    sent,
                    submitted,
                    ticket,
                };
                if tx.send(message).is_err() {
                    return; // the collector is gone; its panic surfaces at scope end
                }
            }
        });
        let mut segment = Segment::default();
        for m in rx {
            let ok = resolve(m.ticket, &m.nodes, checker, m.s0);
            let done = Instant::now();
            segment.note(
                (done - start).as_nanos() as u64,
                (done - m.due).as_nanos() as u64,
                done <= until,
                ok,
                m.nodes.len(),
            );
            segment.lateness_ns.push((m.sent - m.due).as_nanos() as u64);
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record(
                    "request",
                    (m.due, done),
                    &[
                        ("client.sched_delay", m.due, m.sent),
                        ("client.submit", m.sent, m.submitted),
                        ("client.wait", m.submitted, done),
                    ],
                );
            }
        }
        segment
    })
}

/// Sleeps until shortly before `due`, then spins.
fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN_WINDOW) {
            Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
            _ => std::hint::spin_loop(),
        }
    }
}

/// The operator: deploys `snapshots[1]`, `snapshots[0]`, ... in turn
/// (picking up where an earlier call left off, as the checker counts
/// deploys), with a pause after each return, until `until`. Returns
/// each call's duration in ns.
pub fn deploy_loop(
    engine: &ServingEngine,
    snapshots: &[VaultSnapshot],
    checker: &Checker,
    pause: Duration,
    until: Instant,
) -> Result<Vec<u64>, ServeError> {
    let mut durations = Vec::new();
    loop {
        std::thread::sleep(pause);
        if Instant::now() >= until {
            break;
        }
        let k = checker.seq() / 2 + 1;
        let snapshot = &snapshots[k as usize % snapshots.len()];
        checker.bump();
        let began = Instant::now();
        let outcome = engine.deploy(snapshot, gnnvault::pipeline::DEPLOY_SEAL_KEY);
        let took = began.elapsed();
        checker.bump();
        outcome?;
        durations.push(took.as_nanos() as u64);
    }
    Ok(durations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(s0: u64, s1: u64) -> Vec<usize> {
        let mut m: Vec<usize> = acceptable_models(s0, s1, 2).collect();
        m.sort_unstable();
        m.dedup();
        m
    }

    #[test]
    fn without_an_overlapping_deploy_only_the_current_model_counts() {
        assert_eq!(models(0, 0), [0], "before any deploy: model A");
        assert_eq!(models(2, 2), [1], "after deploy 1 returned: only B");
        assert_eq!(models(4, 4), [0], "after deploy 2 returned: only A");
        assert_eq!(models(6, 6), [1]);
    }

    #[test]
    fn an_overlapping_deploy_admits_both_models() {
        assert_eq!(models(0, 1), [0, 1], "deploy began during the request");
        assert_eq!(models(0, 2), [0, 1], "deploy began and returned during it");
        assert_eq!(models(1, 1), [0, 1], "deploy in progress throughout");
        assert_eq!(models(1, 2), [0, 1], "submitted mid-deploy");
        assert_eq!(models(3, 4), [0, 1]);
    }

    #[test]
    fn the_checker_applies_the_rule_per_node() {
        let a = vec![ClassLabel(0), ClassLabel(1), ClassLabel(2)];
        let b = vec![ClassLabel(0), ClassLabel(5), ClassLabel(2)];
        let checker = Checker::new(vec![a, b]);
        let nodes = [1, 2];
        assert!(checker.accepts(&nodes, &[ClassLabel(1), ClassLabel(2)], 0, 0));
        assert!(!checker.accepts(&nodes, &[ClassLabel(5), ClassLabel(2)], 0, 0));
        assert!(checker.accepts(&nodes, &[ClassLabel(5), ClassLabel(2)], 0, 1));
        assert!(checker.accepts(&nodes, &[ClassLabel(5), ClassLabel(2)], 2, 2));
        assert!(
            !checker.accepts(&nodes, &[ClassLabel(1), ClassLabel(2)], 2, 2),
            "a stale label after the deploy returned is wrong"
        );
        assert!(
            !checker.accepts(&nodes, &[ClassLabel(1)], 0, 0),
            "short answer"
        );
        assert!(!checker.accepts(&nodes, &[ClassLabel(3), ClassLabel(2)], 0, 1));

        checker.bump();
        assert_eq!(checker.seq(), 1);
    }

    #[test]
    fn segments_count_phases_and_merge() {
        let mut s = Segment::default();
        s.note(1, 10, true, true, 64);
        s.note(2, 20, true, false, 64);
        s.note(3, 30, false, true, 1);
        assert_eq!(
            s.within,
            Counts {
                attempted: 2,
                succeeded: 1,
                failed: 1
            }
        );
        assert_eq!(
            s.drain,
            Counts {
                attempted: 1,
                succeeded: 1,
                failed: 0
            }
        );
        assert_eq!((s.labels_within, s.labels_total), (64, 65));
        let mut t = Segment::default();
        t.note(4, 40, true, true, 1);
        s.merge(t);
        assert_eq!((s.attempted(), s.failed()), (4, 1));
        assert_eq!(s.latencies_ns(), [10, 20, 30, 40]);
        assert_eq!(
            s.samples[1].labels, 0,
            "a failed request returned no correct label"
        );
    }

    #[test]
    fn slice_medians_shrug_off_one_bad_slice() {
        let mut s = Segment::default();
        let ms = 1_000_000;
        // Three 1 s slices: 100 requests of 1 ms in the first and third,
        // a stall in the second (10 requests of 90 ms).
        for slice in [0u64, 2] {
            for i in 0..100 {
                s.note(slice * 1000 * ms + i * 10 * ms, ms, true, true, 2);
            }
        }
        for i in 0..10 {
            s.note(1000 * ms + i * 100 * ms, 90 * ms, true, true, 2);
        }
        // Resolved after the stretch: in no slice.
        s.note(3001 * ms, 500 * ms, false, true, 2);
        let m = s.slice_medians(3.0);
        // 99 requests of 2 labels follow the first, over 990 ms.
        assert_eq!(m.throughput_qps, 200.0);
        assert_eq!((m.p50_us, m.p99_us), (1000.0, 1000.0));
        // One slice: the pooled numbers.
        let pooled = s.slice_medians(1.5);
        assert_eq!(pooled.p99_us, 90_000.0);
    }
}
