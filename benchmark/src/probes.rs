//! Harness-side probes: public functions of each layer, timed at the
//! shapes this fixture produces. Every probe makes [`CALLS`] calls,
//! records each as a span named by its metric, and reports the median.

use crate::load::{touch_hot_set, Checker};
use crate::report::Metrics;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::traffic::{Corpus, BATCH_NODES};
use crate::workload::Workload;
use datasets::CitationDataset;
use gnnvault::pipeline::DEPLOY_SEAL_KEY;
use gnnvault::{ModelConfig, Precision, Vault};
use graph::partition::PartitionSpec;
use linalg::{matmul_fused_into_ws, DenseMatrix, Epilogue, Workspace};
use serve::{
    AdmissionQueue, BatchPolicy, BatchPoll, ClientId, FastCache, LruCache, SentinelConfig,
    SentinelMode, ServeConfig, ServingEngine,
};
use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tee::{ClassLabel, SealKey, Sealed};

/// Calls per probe.
pub const CALLS: usize = 15;
/// Timed submits per sentinel mode.
const SENTINEL_SUBMITS: usize = 4000;
/// Hot nodes the sentinel probe cycles over: few enough that they sit
/// in distinct fast-cache slots, so every submit is a fast hit.
const SENTINEL_NODES: usize = 16;

type Outcome<T> = Result<T, Box<dyn Error>>;

/// Median duration in ns of [`CALLS`] calls of `f`.
fn median_ns<T>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<f64> = (0..CALLS)
        .map(|_| {
            let (out, took) = tracer.time(name, &mut f);
            black_box(out);
            took as f64
        })
        .collect();
    median(&mut ns)
}

fn median_ms<T>(tracer: &mut Tracer, name: &'static str, f: impl FnMut() -> T) -> f64 {
    median_ns(tracer, name, f) / 1e6
}

/// Like [`median_ms`] for a fallible call; the first error ends the probe.
fn try_median_ms<T, E: Error + 'static>(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, E>,
) -> Outcome<f64> {
    let mut failure = None;
    let ms = median_ms(tracer, name, || match f() {
        Ok(out) => Some(out),
        Err(e) => {
            failure.get_or_insert(e);
            None
        }
    });
    match failure {
        Some(e) => Err(e.into()),
        None => Ok(ms),
    }
}

/// `gnnvault.*`, `tee.*`, `linalg.*` and `graph.*` probes on the vault
/// the engine handed back.
pub fn vault_layers(
    tracer: &mut Tracer,
    m: &mut Metrics,
    vault: &mut Vault,
    data: &CitationDataset,
    corpus: &Corpus,
) -> Outcome<()> {
    let x = &data.features;
    let hot = corpus.hot();
    let batch64 = &hot[..BATCH_NODES];

    let mut session = vault.open_session();
    let ms = try_median_ms(tracer, "gnnvault.infer_batch1_ms", || {
        vault.infer_batch(&mut session, x, &hot[..1])
    })?;
    m.set("gnnvault.infer_batch1_ms", ms);
    let ms = try_median_ms(tracer, "gnnvault.infer_batch64_ms", || {
        vault.infer_batch(&mut session, x, batch64)
    })?;
    m.set("gnnvault.infer_batch64_ms", ms);
    let ms = try_median_ms(tracer, "gnnvault.infer_full_ms", || vault.infer(x))?;
    m.set("gnnvault.infer_full_ms", ms);
    let mut next = hot.iter().cycle();
    let ms = try_median_ms(tracer, "gnnvault.infer_node_ms", || {
        vault.infer_node(x, *next.next().expect("cycle never ends"))
    })?;
    m.set("gnnvault.infer_node_ms", ms);
    let ms = try_median_ms(tracer, "gnnvault.backbone_ms", || {
        vault.backbone().embeddings(x)
    })?;
    m.set("gnnvault.backbone_ms", ms);

    let ms = median_ms(tracer, "gnnvault.snapshot_ms", || vault.snapshot());
    m.set("gnnvault.snapshot_ms", ms);
    let snapshot = vault.snapshot();
    m.set("gnnvault.sealed_bytes", snapshot.sealed_nbytes() as f64);
    let ms = try_median_ms(tracer, "gnnvault.restore_ms", || {
        Vault::restore(&snapshot, DEPLOY_SEAL_KEY)
    })?;
    m.set("gnnvault.restore_ms", ms);
    let halves = PartitionSpec::block(data.num_nodes(), 2)?;
    let ms = try_median_ms(tracer, "gnnvault.partition_snapshots_ms", || {
        vault.partition_snapshots(&halves)
    })?;
    m.set("gnnvault.partition_snapshots_ms", ms);

    // ROADMAP E's before-number: the int8 path on a replica, so the
    // serving vault keeps its precision.
    let mut replica = Vault::restore(&snapshot, DEPLOY_SEAL_KEY)?;
    replica.set_precision(Precision::Int8)?;
    let mut int8_session = replica.open_session();
    let ms = try_median_ms(tracer, "gnnvault.infer_batch64_int8_ms", || {
        replica.infer_batch(&mut int8_session, x, batch64)
    })?;
    m.set("gnnvault.infer_batch64_int8_ms", ms);
    m.set("tee.peak_enclave_bytes", vault.peak_enclave_bytes() as f64);

    // tee: the tap codec on the 32-wide tap, sealing at snapshot size.
    let taps = vault.backbone().embeddings(x)?;
    let tap = taps.iter().find(|t| t.cols() == 32).unwrap_or(&taps[0]);
    let ms = median_ms(tracer, "tee.codec.encode_ms", || {
        tee::codec::encode_dense(tap)
    });
    m.set("tee.codec.encode_ms", ms);
    let encoded = tee::codec::encode_dense(tap);
    let ms = try_median_ms(tracer, "tee.codec.decode_ms", || {
        tee::codec::decode_dense(&encoded)
    })?;
    m.set("tee.codec.decode_ms", ms);
    let plaintext = vec![0xA5u8; snapshot.sealed_nbytes()];
    let key = SealKey(0x7661_756C_7462_656E);
    let ms = median_ms(tracer, "tee.seal_ms", || Sealed::seal(key, &plaintext));
    m.set("tee.seal_ms", ms);
    let sealed = Sealed::seal(key, &plaintext);
    let ms = try_median_ms(tracer, "tee.unseal_ms", || sealed.unseal(key))?;
    m.set("tee.unseal_ms", ms);

    // linalg: the backbone's two projections and its substitute-graph
    // aggregation, at M1's widths. Weights are arbitrary; the kernels
    // do not look at values.
    let widths = ModelConfig::m1(data.num_classes).backbone_channels;
    let (n, f, h1, h2) = (x.rows(), x.cols(), widths[0], widths[1]);
    let weight = |rows, cols| {
        DenseMatrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17) % 13) as f32 / 13.0 - 0.5
        })
    };
    let (w1, w2, hidden) = (weight(f, h1), weight(h1, h2), weight(n, h1));
    let mut ws = Workspace::new();
    let mut out1 = ws.take_for_overwrite(n, h1);
    let l1_ms = try_median_ms(tracer, "linalg.gemm_l1_ms", || {
        matmul_fused_into_ws(x, &w1, &mut out1, Epilogue::None, &mut ws)
    })?;
    m.set("linalg.gemm_l1_ms", l1_ms);
    m.set(
        "linalg.gemm_l1_gflops",
        2.0 * (n * f * h1) as f64 / (l1_ms * 1e6),
    );
    let mut out2 = ws.take_for_overwrite(n, h2);
    let ms = try_median_ms(tracer, "linalg.gemm_l2_ms", || {
        matmul_fused_into_ws(&hidden, &w2, &mut out2, Epilogue::None, &mut ws)
    })?;
    m.set("linalg.gemm_l2_ms", ms);
    let substitute = vault
        .backbone()
        .substitute_graph()
        .ok_or("the fixture's backbone has a substitute graph")?;
    let adjacency = graph::normalization::gcn_normalize(substitute);
    let ms = try_median_ms(tracer, "linalg.spmm_l1_ms", || {
        adjacency.spmm_fused(&hidden, Epilogue::None)
    })?;
    m.set("linalg.spmm_l1_ms", ms);
    m.set("linalg.pool_width", linalg::pool::num_threads() as f64);

    // graph: what a partitioned deploy and `infer_node` run on the
    // private graph, at the rectifier's depth.
    let hops = ModelConfig::m1(data.num_classes).rectifier_channels.len();
    let ms = try_median_ms(tracer, "graph.partition_ms", || {
        graph::partition::partition(&data.graph, &halves, hops)
    })?;
    m.set("graph.partition_ms", ms);
    let mut next = hot.iter().cycle();
    let ms = try_median_ms(tracer, "graph.ego_ms", || {
        graph::subgraph::ego_graph(&data.graph, *next.next().expect("cycle never ends"), hops)
    })?;
    m.set("graph.ego_ms", ms);
    let ms = median_ms(tracer, "graph.normalize_ms", || {
        graph::normalization::gcn_normalize(&data.graph)
    });
    m.set("graph.normalize_ms", ms);
    Ok(())
}

/// `serve.fastcache.*` and `serve.cache.*`: one call sweeps the hot
/// set; the metric is ns per operation.
pub fn caches(tracer: &mut Tracer, m: &mut Metrics, corpus: &Corpus, labels: &[ClassLabel]) {
    let hot = corpus.hot();
    let per_op = |ns: f64| ns / hot.len() as f64;

    let fast = FastCache::new(4096);
    let tag = fast.mint_tag();
    fast.set_current(tag);
    let ns = median_ns(tracer, "serve.fastcache.publish_ns", || {
        for &node in hot {
            fast.publish(tag, node, labels[node]);
        }
    });
    m.set("serve.fastcache.publish_ns", per_op(ns));
    let ns = median_ns(tracer, "serve.fastcache.probe_ns", || {
        hot.iter()
            .filter_map(|&node| fast.probe(tag, node))
            .fold(0, |acc, label| acc ^ label.0)
    });
    m.set("serve.fastcache.probe_ns", per_op(ns));

    let mut lru: LruCache<(u64, usize), ClassLabel> = LruCache::new(4096);
    let ns = median_ns(tracer, "serve.cache.insert_ns", || {
        for &node in hot {
            lru.insert((1, node), labels[node]);
        }
    });
    m.set("serve.cache.insert_ns", per_op(ns));
    let ns = median_ns(tracer, "serve.cache.get_ns", || {
        hot.iter()
            .filter_map(|&node| lru.get(&(1, node)).copied())
            .fold(0, |acc, label| acc ^ label.0)
    });
    m.set("serve.cache.get_ns", per_op(ns));
}

/// `serve.batcher.*`: submit → `poll_batch` → `respond` → `wait` on a
/// bare `AdmissionQueue` with an echo worker. A lone request on the
/// idle queue waits out the flush deadline; a request that fills the
/// batch by itself pays only the hop between the threads.
pub fn batcher(tracer: &mut Tracer, m: &mut Metrics) -> Outcome<()> {
    let policy = BatchPolicy::default();
    let queue = Arc::new(AdmissionQueue::new(policy));
    let worker = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || loop {
            match queue.poll_batch(Duration::from_millis(50)) {
                BatchPoll::Batch(requests, _) => {
                    for request in requests {
                        let echo = request.nodes().iter().map(|&n| ClassLabel(n)).collect();
                        request.respond(Ok(echo));
                    }
                }
                BatchPoll::Idle => {}
                BatchPoll::Drained => return,
            }
        })
    };
    let mut round_trip = |name, nodes: Vec<usize>| {
        try_median_ms(&mut *tracer, name, || {
            queue.submit(nodes.clone()).and_then(|ticket| ticket.wait())
        })
        .map(|ms| ms * 1e3)
    };
    let idle = round_trip("serve.batcher.idle_flush_us", vec![0]);
    let hop = round_trip("serve.batcher.hop_us", vec![0; policy.max_batch_nodes]);
    queue.close();
    worker.join().map_err(|_| "batcher probe worker panicked")?;
    m.set("serve.batcher.idle_flush_us", idle?);
    m.set("serve.batcher.hop_us", hop?);
    Ok(())
}

/// `serve.sentinel.submit_overhead_ns`: median `submit_one_as` time on
/// a fast-hit stream with the sentinel observing, minus the same with
/// it off.
pub fn sentinel_overhead(
    tracer: &mut Tracer,
    m: &mut Metrics,
    mut vault: Vault,
    data: &CitationDataset,
    corpus: &Corpus,
    checker: &Checker,
) -> Outcome<Vault> {
    let mut submit_p50 = [0.0; 2];
    for (slot, mode) in [SentinelMode::Off, SentinelMode::Observe]
        .into_iter()
        .enumerate()
    {
        let config = ServeConfig {
            sentinel: SentinelConfig {
                mode,
                ..SentinelConfig::default()
            },
            ..Workload::HotZipf.serve_config()
        };
        let engine = ServingEngine::start(vault, data.features.clone(), config)?;
        let handle = engine.handle();
        touch_hot_set(&handle, corpus.hot(), checker)?;
        let mut ns = Vec::with_capacity(SENTINEL_SUBMITS);
        for i in 0..SENTINEL_SUBMITS {
            let node = corpus.hot()[i % SENTINEL_NODES];
            let (ticket, took) = tracer.time("serve.sentinel.submit_overhead_ns", || {
                handle.submit_one_as(ClientId(2), node)
            });
            ns.push(took);
            ticket?.wait()?;
        }
        ns.sort_unstable();
        submit_p50[slot] = percentile(&ns, 0.5).unwrap_or(0) as f64;
        vault = engine.shutdown().0.ok_or("engine lost its vault")?;
    }
    m.set(
        "serve.sentinel.submit_overhead_ns",
        submit_p50[1] - submit_p50[0],
    );
    Ok(vault)
}

/// `serve.engine.start_ms` / `shutdown_ms` on the workload's own
/// engine configuration.
pub fn engine_lifecycle(
    tracer: &mut Tracer,
    m: &mut Metrics,
    mut vault: Vault,
    data: &CitationDataset,
    workload: Workload,
) -> Outcome<Vault> {
    let (mut start_ms, mut shutdown_ms) = (Vec::new(), Vec::new());
    for _ in 0..CALLS {
        let features = data.features.clone();
        let (engine, ns) = tracer.time("serve.engine.start_ms", || {
            ServingEngine::start(vault, features, workload.serve_config())
        });
        let engine = engine?;
        start_ms.push(ns as f64 / 1e6);
        let ((survivor, _), ns) = tracer.time("serve.engine.shutdown_ms", || engine.shutdown());
        shutdown_ms.push(ns as f64 / 1e6);
        vault = survivor.ok_or("engine lost its vault")?;
    }
    m.set("serve.engine.start_ms", median(&mut start_ms));
    m.set("serve.engine.shutdown_ms", median(&mut shutdown_ms));
    Ok(vault)
}
