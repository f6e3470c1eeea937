//! One benchmark run: set-up, warm-up, the measured window, and either
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).

use crate::fixture::{self, EPOCHS, FIXTURE_SEED, RETRAIN_EPOCHS, RETRAIN_SEED};
use crate::load::{self, Checker, Counts, Segment};
use crate::probes::{self, CALLS};
use crate::report::{self, Header, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, share};
use crate::trace::{self_times_ns, Tracer};
use crate::traffic::{arrival_offsets_ns, Corpus, Stream};
use crate::workload::{Workload, DEPLOY_PAUSE_MS, OPEN_RATE};
use datasets::CitationDataset;
use gnnvault::pipeline::DEPLOY_SEAL_KEY;
use gnnvault::{Vault, VaultSnapshot};
use serve::{ClientId, ServeStats, ServingEngine};
use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tee::ClassLabel;

/// Load before the window, counted in `setup_s` but in no other metric:
/// lets caches fill, the linalg pool spin up and the allocator settle.
pub const WARMUP_S: f64 = 0.5;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// The open-loop run is void when more than this share of its requests
/// is still unresolved when the window ends: the engine did not keep up
/// with the schedule, so the window measured a queue filling, not a
/// steady state.
const BACKLOG_LIMIT: f64 = 0.05;
/// Rates of the traced open-loop sweep, requests per second, and the
/// share of `--seconds` each runs for.
const SWEEP_RATES: [(f64, &str); 2] = [
    (50.0, "client.rate50.latency_p99_us"),
    (600.0, "client.rate600.latency_p99_us"),
];
const SWEEP_SHARE: f64 = 0.3;
/// Slices a traced run cuts its window into, alternately plain and
/// traced, and the trace lanes set aside for each.
const TRACE_SLICES: u64 = 8;
const LANES_PER_SLICE: u64 = 4;

type Outcome<T> = Result<T, Box<dyn Error>>;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
}

/// Model B of `deploy_churn`: what the operator swaps in.
struct Retrained {
    snapshot: VaultSnapshot,
    labels: Vec<ClassLabel>,
}

fn retrain() -> Outcome<Retrained> {
    let data = fixture::dataset()?;
    let (mut vault, _) = fixture::trained_vault(&data, RETRAIN_SEED, RETRAIN_EPOCHS)?;
    Ok(Retrained {
        labels: fixture::oracle(&mut vault, &data)?,
        snapshot: vault.snapshot(),
    })
}

/// A started engine with everything needed to load and check it.
struct Rig {
    data: CitationDataset,
    corpus: Arc<Corpus>,
    checker: Checker,
    engine: ServingEngine,
    /// Model A's snapshot, then model B's on `deploy_churn`.
    snapshots: Vec<VaultSnapshot>,
    streams: Vec<Stream>,
    warmup: Segment,
    /// Labels answered while touching the hot set.
    touched: u64,
    setup_s: f64,
    train_s: f64,
}

/// Dataset, training, `pipeline::deploy`, the oracle table,
/// `ServingEngine::start` and the warm-up: all of `setup_s`.
fn set_up(opts: &Options, retrained: Option<&Retrained>) -> Outcome<Rig> {
    let workload = opts.workload;
    let began = Instant::now();
    let data = fixture::dataset()?;
    let (mut vault, train_s) = fixture::trained_vault(&data, FIXTURE_SEED, EPOCHS)?;
    let mut tables = vec![fixture::oracle(&mut vault, &data)?];
    let mut snapshots = vec![vault.snapshot()];
    if let Some(b) = retrained {
        tables.push(b.labels.clone());
        snapshots.push(b.snapshot.clone());
    }
    let engine = ServingEngine::start(vault, data.features.clone(), workload.serve_config())?;

    let corpus = Corpus::new(data.num_nodes(), FIXTURE_SEED, opts.seed);
    let clients = workload.streams();
    let streams = (0..clients)
        .map(|c| Stream::new(workload, &corpus, opts.seed, c, clients))
        .collect();
    let mut rig = Rig {
        data,
        corpus,
        checker: Checker::new(tables),
        engine,
        snapshots,
        streams,
        warmup: Segment::default(),
        touched: 0,
        setup_s: 0.0,
        train_s,
    };
    if workload.is_cached() {
        rig.touched = load::touch_hot_set(&rig.engine.handle(), rig.corpus.hot(), &rig.checker)?;
    }
    rig.warmup = rig.load(opts, 0x7761_726D, WARMUP_S, false, None)?.segment;
    rig.setup_s = began.elapsed().as_secs_f64();
    Ok(rig)
}

/// What one stretch of the workload's load produced.
#[derive(Default)]
struct Stretch {
    segment: Segment,
    deploys_ns: Vec<u64>,
    seconds: f64,
    spans: Option<Tracer>,
    /// Throughput of each stretch absorbed into this one.
    absorbed_qps: Vec<f64>,
}

impl Stretch {
    fn throughput_qps(&self) -> f64 {
        self.segment.labels_within as f64 / self.seconds
    }

    fn absorb(&mut self, other: Stretch) {
        self.absorbed_qps.push(other.throughput_qps());
        self.segment.merge(other.segment);
        self.deploys_ns.extend(other.deploys_ns);
        self.seconds += other.seconds;
        match (self.spans.as_mut(), other.spans) {
            (Some(all), Some(spans)) => all.absorb(spans),
            (None, spans) => self.spans = spans,
            (Some(_), None) => {}
        }
    }
}

/// What a stretch of load runs against.
struct Target<'a> {
    engine: &'a ServingEngine,
    /// One stream per closed-loop client, or the generator's.
    streams: &'a mut [Stream],
    checker: &'a Checker,
    /// The models the deploy operator alternates; empty for no operator.
    swaps: &'a [VaultSnapshot],
}

/// How a stretch of load is paced and recorded.
struct Pace {
    /// Open loop at this many requests per second, or closed loop.
    rate: Option<f64>,
    /// Seeds the arrival schedule.
    seed: u64,
    seconds: f64,
    /// Time zero and the first free trace lane, to record spans.
    spans: Option<(Instant, u64)>,
}

/// Runs the open-loop generator and collector, or one closed-loop client
/// per stream, and the operator if there are models to swap, for
/// `pace.seconds`.
fn drive(target: Target<'_>, pace: Pace) -> Outcome<Stretch> {
    let Target {
        engine,
        streams,
        checker,
        swaps,
    } = target;
    let tracer = |lane| {
        pace.spans
            .map(|(origin, first)| Tracer::new(origin, first + lane))
    };
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(pace.seconds);
    let mut stretch = Stretch {
        seconds: pace.seconds,
        spans: tracer(0),
        ..Stretch::default()
    };
    if let Some(rate) = pace.rate {
        let offsets = arrival_offsets_ns(pace.seed, rate, pace.seconds);
        stretch.segment = load::open_loop(
            &engine.handle(),
            ClientId(1),
            &mut streams[0],
            &offsets,
            checker,
            (start, until),
            stretch.spans.as_mut(),
        );
        return Ok(stretch);
    }
    std::thread::scope(|scope| -> Outcome<()> {
        let clients: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let handle = engine.handle();
                let mut spans = tracer(c as u64 + 1);
                scope.spawn(move || {
                    let client = ClientId(c as u64 + 1);
                    let times = (start, until);
                    let segment =
                        load::closed_loop(&handle, client, stream, checker, times, spans.as_mut());
                    (segment, spans)
                })
            })
            .collect();
        let operator = (!swaps.is_empty()).then(|| {
            let pause = Duration::from_millis(DEPLOY_PAUSE_MS);
            scope.spawn(move || load::deploy_loop(engine, swaps, checker, pause, until))
        });
        for client in clients {
            let (segment, spans) = client.join().map_err(|_| "client thread panicked")?;
            stretch.segment.merge(segment);
            if let (Some(all), Some(spans)) = (stretch.spans.as_mut(), spans) {
                all.absorb(spans);
            }
        }
        if let Some(operator) = operator {
            stretch.deploys_ns = operator.join().map_err(|_| "operator thread panicked")??;
        }
        Ok(())
    })?;
    Ok(stretch)
}

impl Rig {
    /// Runs the workload's own load shape for `seconds`. `salt`
    /// separates the arrival schedules of the stretches of one run;
    /// `operate` adds the deploy operator on `deploy_churn`.
    fn load(
        &mut self,
        opts: &Options,
        salt: u64,
        seconds: f64,
        operate: bool,
        spans: Option<(Instant, u64)>,
    ) -> Outcome<Stretch> {
        let operate = operate && opts.workload == Workload::DeployChurn;
        let target = Target {
            engine: &self.engine,
            streams: &mut self.streams,
            checker: &self.checker,
            swaps: if operate { &self.snapshots } else { &[] },
        };
        let pace = Pace {
            rate: (opts.workload == Workload::OpenMixed).then_some(OPEN_RATE),
            seed: opts.seed ^ salt,
            seconds,
            spans,
        };
        drive(target, pace)
    }
}

/// Median of [`CALLS`] `deploy`s of model A on the now idle engine, ms.
fn idle_deploy_ms(rig: &Rig, spans: &mut Tracer) -> Outcome<f64> {
    let mut ms = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let (outcome, ns) = spans.time("serve.engine.deploy_ms", || {
            rig.engine.deploy(&rig.snapshots[0], DEPLOY_SEAL_KEY)
        });
        outcome?;
        ms.push(ns as f64 / 1e6);
    }
    Ok(median(&mut ms))
}

fn shut_down(engine: ServingEngine) -> Outcome<(Vault, ServeStats)> {
    let (vault, stats) = engine.shutdown();
    Ok((vault.ok_or("the engine lost every shard's vault")?, stats))
}

fn rss_mib() -> Outcome<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .ok_or("no VmRSS in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn median_ms(durations_ns: &[u64]) -> f64 {
    median(
        &mut durations_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

fn quantile_us(latencies_ns: &mut [u64], q: f64) -> f64 {
    latencies_ns.sort_unstable();
    percentile(latencies_ns, q).unwrap_or(0) as f64 / 1e3
}

fn print_phase(phase: &str, counts: Counts) {
    println!(
        "# {phase}: attempted {} succeeded {} failed {}",
        counts.attempted, counts.succeeded, counts.failed
    );
}

/// Why an open-loop window does not count, if it does not.
fn void_reason(segment: &Segment) -> Option<String> {
    if segment.lateness_ns.is_empty() {
        return None;
    }
    let backlog = share(segment.drain.attempted, segment.attempted());
    println!(
        "# backlog at window end: {:.2}% of {} sent",
        backlog * 100.0,
        segment.attempted()
    );
    (backlog > BACKLOG_LIMIT).then(|| {
        format!(
            "{:.1}% of requests unresolved at window end",
            backlog * 100.0
        )
    })
}

/// Failures and attempts over every phase of `stretches`, printing each.
fn tally(stretches: &[(&str, &Segment)]) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for (phase, segment) in stretches {
        print_phase(phase, segment.within);
        if segment.drain.attempted > 0 {
            print_phase(&format!("{phase} drain"), segment.drain);
        }
        attempted += segment.attempted();
        failed += segment.failed();
    }
    (attempted, failed)
}

pub fn run(opts: &Options) -> Outcome<bool> {
    report::print_header(&Header {
        workload: opts.workload.name(),
        seed: opts.seed,
        window_s: opts.seconds,
        warmup_s: WARMUP_S,
        setups: if opts.trace { 1 } else { opts.setups },
        traced: opts.trace,
    });
    let retrained = (opts.workload == Workload::DeployChurn)
        .then(retrain)
        .transpose()?;
    if opts.trace {
        traced(opts, retrained.as_ref())
    } else {
        untraced(opts, retrained.as_ref())
    }
}

/// Set-up, the window, the end-to-end metrics; then more set-ups, for
/// a steady `setup_s`.
fn untraced(opts: &Options, retrained: Option<&Retrained>) -> Outcome<bool> {
    let mut rig = set_up(opts, retrained)?;
    let window = rig.load(opts, 0x7769_6E64, opts.seconds, true, None)?;
    let rss_mb = rss_mib()?;
    let void = void_reason(&window.segment);
    let warmup = std::mem::take(&mut rig.warmup);

    // The other set-ups come after the window, so the window and
    // `rss_mb` see a process that has set up exactly once.
    let mut setup_s = vec![rig.setup_s];
    for _ in 1..opts.setups {
        shut_down(rig.engine)?;
        rig = set_up(opts, retrained)?;
        setup_s.push(rig.setup_s);
    }
    println!(
        "# set-up times: {setup_s:.3?} s (training {:.3} s)",
        rig.train_s
    );
    shut_down(rig.engine)?;

    let (attempted, failed) = tally(&[("warm-up", &warmup), ("window", &window.segment)]);
    let mut pooled = window.segment.latencies_ns();
    println!(
        "# whole window: {} requests, {:.2} labels/s, latency p50 {:.1} us, p99 {:.1} us",
        pooled.len(),
        window.throughput_qps(),
        quantile_us(&mut pooled, 0.50),
        quantile_us(&mut pooled, 0.99)
    );
    if !window.deploys_ns.is_empty() {
        println!(
            "# deploys under load: {}, p50 {:.3} ms",
            window.deploys_ns.len(),
            median_ms(&window.deploys_ns)
        );
    }
    let per_slice = window.segment.slice_medians(opts.seconds);
    let mut m = Metrics::default();
    m.set("throughput_qps", per_slice.throughput_qps);
    m.set("latency_p50_us", per_slice.p50_us);
    m.set("latency_p99_us", per_slice.p99_us);
    m.set("setup_s", median(&mut setup_s));
    m.set("rss_mb", rss_mb);
    if let Some(reason) = &void {
        println!("# VOID: {reason}");
    }
    let correct = failed == 0 && void.is_none();
    report::print_result(END_TO_END, &m, correct, attempted, failed);
    Ok(correct)
}

/// One set-up, the window cut into alternately plain and traced
/// slices, then the probes, the rate sweep, the span file and the
/// per-layer metrics.
fn traced(opts: &Options, retrained: Option<&Retrained>) -> Outcome<bool> {
    let origin = Instant::now();
    let mut m = Metrics::default();
    let mut rig = set_up(opts, retrained)?;
    m.set("gnnvault.train_s", rig.train_s);

    // Plain and traced slices alternate, so drift over the window
    // cancels out of the overhead.
    let slice_s = opts.seconds / TRACE_SLICES as f64;
    let (mut plain, mut window) = (Stretch::default(), Stretch::default());
    for slice in 0..TRACE_SLICES {
        let traced = slice % 2 == 1;
        let lanes = traced.then_some((origin, LANES_PER_SLICE * slice));
        // A plain slice and the traced one after it replay one schedule.
        let salt = 0x7769_6E64 + slice / 2;
        let stretch = rig.load(opts, salt, slice_s, true, lanes)?;
        if traced { &mut window } else { &mut plain }.absorb(stretch);
    }
    let mut spans = window.spans.take().expect("a traced stretch has spans");
    let own_times = self_times_ns(spans.spans());
    let mut lateness_us = quantile_us(&mut window.segment.lateness_ns, 0.99)
        .max(quantile_us(&mut plain.segment.lateness_ns, 0.99));
    // Medians over the slices: a burst of cache hits in one slice (the
    // first of `deploy_churn`) is not overhead.
    let traced_qps = median(&mut window.absorbed_qps);
    m.set("client.traced_throughput_qps", traced_qps);
    m.set(
        "client.trace_overhead_pct",
        (1.0 - traced_qps / median(&mut plain.absorbed_qps)) * 100.0,
    );
    let mut submit_ns = spans.durations("client.submit");
    let mut wait_ns = spans.durations("client.wait");
    submit_ns.sort_unstable();
    m.set(
        "client.submit_ns_p50",
        percentile(&submit_ns, 0.5).unwrap_or(0) as f64,
    );
    m.set("client.wait_us_p50", quantile_us(&mut wait_ns, 0.5));
    let latency_p50_us = quantile_us(&mut window.segment.latencies_ns(), 0.5);

    let idle_ms = idle_deploy_ms(&rig, &mut spans)?;
    m.set("serve.engine.deploy_ms", idle_ms);
    // Under load where the workload has an operator, idle elsewhere.
    let mut under_load = plain.deploys_ns.clone();
    under_load.extend(&window.deploys_ns);
    m.set(
        "client.deploy_p50_ms",
        if under_load.is_empty() {
            idle_ms
        } else {
            median_ms(&under_load)
        },
    );
    let Rig {
        data,
        corpus,
        engine,
        warmup,
        touched,
        ..
    } = rig;
    let (mut vault, stats) = shut_down(engine)?;
    engine_counters(&mut m, &stats);
    let lifetime_labels =
        touched + warmup.labels_total + plain.segment.labels_total + window.segment.labels_total;
    m.set(
        "client.sgx_cost_us_per_query",
        (stats.backbone_ns + stats.transfer_ns + stats.rectifier_ns) as f64
            / 1e3
            / lifetime_labels.max(1) as f64,
    );

    // The engine may hand back either model on `deploy_churn`; the
    // probes check against whichever they are given.
    let labels = fixture::oracle(&mut vault, &data)?;
    probes::vault_layers(&mut spans, &mut m, &mut vault, &data, &corpus)?;
    probes::caches(&mut spans, &mut m, &corpus, &labels);
    probes::batcher(&mut spans, &mut m)?;
    let checker = Checker::new(vec![labels]);
    let vault = probes::sentinel_overhead(&mut spans, &mut m, vault, &data, &corpus, &checker)?;
    let mut vault = probes::engine_lifecycle(&mut spans, &mut m, vault, &data, opts.workload)?;

    // Where latency bends with rate: open_mixed's traffic at a slower
    // and a faster schedule, each on a fresh engine.
    let mut sweeps = Vec::new();
    for (lane, (rate, metric)) in SWEEP_RATES.into_iter().enumerate() {
        let config = Workload::OpenMixed.serve_config();
        let engine = ServingEngine::start(vault, data.features.clone(), config)?;
        load::touch_hot_set(&engine.handle(), corpus.hot(), &checker)?;
        let mut stream = Stream::new(Workload::OpenMixed, &corpus, opts.seed, 0, 1);
        let target = Target {
            engine: &engine,
            streams: std::slice::from_mut(&mut stream),
            checker: &checker,
            swaps: &[],
        };
        let pace = Pace {
            rate: Some(rate),
            seed: opts.seed ^ rate as u64,
            seconds: (opts.seconds * SWEEP_SHARE).max(1.0),
            spans: Some((origin, LANES_PER_SLICE * (TRACE_SLICES + lane as u64))),
        };
        let mut sweep = drive(target, pace)?;
        vault = shut_down(engine)?.0;
        m.set(metric, quantile_us(&mut sweep.segment.latencies_ns(), 0.99));
        lateness_us = lateness_us.max(quantile_us(&mut sweep.segment.lateness_ns, 0.99));
        spans.absorb(sweep.spans.take().expect("a traced stretch has spans"));
        sweeps.push(sweep.segment);
    }
    m.set("client.lateness_p99_us", lateness_us);

    let mut phases = vec![
        ("warm-up", &warmup),
        ("untraced window", &plain.segment),
        ("traced window", &window.segment),
    ];
    phases.extend(sweeps.iter().map(|s| ("rate sweep", s)));
    let (attempted, failed) = tally(&phases);
    m.set("client.failed_share", share(failed, attempted));

    let path = out_dir().join(format!("{}.trace.jsonl", opts.workload.name()));
    spans.write_jsonl(&path)?;
    println!(
        "# {} spans written to {}",
        spans.spans().len(),
        path.display()
    );
    println!("# self time (span minus its children), p50 / p99 / count:");
    for (name, own) in own_times {
        println!(
            "#   {name:<20} {:>12} ns {:>12} ns {:>8}",
            percentile(&own, 0.5).unwrap_or(0),
            percentile(&own, 0.99).unwrap_or(0),
            own.len()
        );
    }
    if opts.workload == Workload::ColdSingle {
        let accounted = m.get("serve.batcher.idle_flush_us")
            + m.get("gnnvault.infer_batch1_ms") * 1e3
            + m.get("serve.batcher.hop_us");
        println!(
            "# accounting: idle_flush + infer_batch1 + hop = {accounted:.0} us of latency p50 {latency_p50_us:.0} us ({:.1}%)",
            accounted / latency_p50_us * 100.0
        );
    }
    let correct = failed == 0;
    report::print_result(PER_LAYER, &m, correct, attempted, failed);
    Ok(correct)
}

/// The per-layer metrics read off the engine's own counters.
fn engine_counters(m: &mut Metrics, stats: &ServeStats) {
    let labels = stats.answered_nodes + stats.fast_path_hits;
    let us = |d: Option<Duration>| d.map_or(0.0, |d| d.as_nanos() as f64 / 1e3);
    let per_batch_us = |ns: u64| ns as f64 / 1e3 / stats.enclave_batches.max(1) as f64;
    m.set("serve.fast_hit_share", share(stats.fast_path_hits, labels));
    m.set("serve.lru_hit_share", stats.cache_hit_rate());
    m.set("serve.batch_nodes_mean", stats.mean_enclave_batch_nodes());
    m.set(
        "serve.full_flush_share",
        share(stats.full_flushes, stats.batches),
    );
    m.set(
        "serve.deadline_flush_share",
        share(stats.deadline_flushes, stats.batches),
    );
    m.set(
        "serve.queue_high_water",
        stats
            .shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set(
        "serve.queued_latency_p50_us",
        us(stats.queued_latency.p50()),
    );
    m.set(
        "serve.queued_latency_p99_us",
        us(stats.queued_latency.p99()),
    );
    m.set(
        "serve.fast_latency_p50_ns",
        us(stats.fast_path_latency.p50()) * 1e3,
    );
    m.set(
        "serve.shed_share",
        share(
            stats.requests_shed,
            stats.requests + stats.requests_shed + stats.fast_path_hits,
        ),
    );
    m.set("serve.timed_out", stats.timed_out_requests as f64);
    m.set(
        "gnnvault.report.rectifier_us",
        per_batch_us(stats.rectifier_ns),
    );
    m.set(
        "gnnvault.report.transfer_us",
        per_batch_us(stats.transfer_ns),
    );
    m.set("tee.transitions_per_query", stats.transitions_per_node());
    m.set(
        "tee.bytes_per_query",
        stats.transferred_bytes as f64 / labels.max(1) as f64,
    );
}

/// `benchmark/out`, beside the manifest that built this binary.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}
