//! Criterion micro-benchmarks for the compute kernels that dominate the
//! Fig. 6 time breakdown: dense GEMM (backbone layers), sparse SpMM
//! (message passing), GCN normalization, and the tiled pairwise
//! engine behind substitute-graph construction (`pairwise_gram`,
//! `substitute_graphs_512`/`_4096`). The gemm/spmm/pairwise groups
//! declare per-iteration byte throughput so the JSON trajectory can
//! report GB/s.
//!
//! The `gemm_packed` groups (256/1024) cover the packed-panel engine's
//! call shapes — plain, pool-threaded, the transpose-free `at_b`/`a_bt`
//! backward views, and the fused bias+ReLU epilogue — and
//! `train_epoch_512` times one end-to-end GCN fit epoch, whose backward
//! pass materializes no transposes at all.
//!
//! Running this bench writes `BENCH_kernels.json` (machine-readable
//! mean/median per kernel plus the machine's parallelism) so successive
//! PRs accumulate a perf trajectory. The `spmm_parallel_50k` group is
//! the headline: sequential vs pool-parallel message passing on a
//! ≥50k-nonzero synthetic adjacency — on a multi-core runner the
//! parallel row should be ≥2× faster; on a single core the two rows
//! coincide (the pool runs inline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnnvault::{Backbone, Rectifier, RectifierKind, SubstituteKind, Vault};
use graph::partition::PartitionSpec;
use graph::{normalization, substitute, Graph};
use linalg::{
    available_kernel_variants, detected_cpu_features, gemm_into_ws_with_variant, kernel_variant,
    matmul_a_bt, matmul_at_b, matmul_fused, matmul_naive, matmul_packed, matmul_threaded, pairwise,
    DenseMatrix, Epilogue, GemmOp, GemmStrategy, SpmmStrategy, Workspace,
};
use nn::{Network, TrainConfig};
use serve::{BatchPolicy, ServeConfig, ServingEngine, Topology};

/// Bytes moved by one `m×k · k×n` GEMM call (read A and B, write C).
fn gemm_bytes(m: usize, k: usize, n: usize) -> u64 {
    ((m * k + k * n + m * n) * std::mem::size_of::<f32>()) as u64
}

/// Bytes moved by one SpMM call: CSR values + column indices, plus the
/// dense input read and output write.
fn spmm_bytes(nnz: usize, rows: usize, cols: usize) -> u64 {
    (nnz * (std::mem::size_of::<f32>() + std::mem::size_of::<usize>())
        + 2 * rows * cols * std::mem::size_of::<f32>()) as u64
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f32 / 500.0 - 1.0
    })
}

fn ring_graph(n: usize, extra: usize) -> Graph {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for k in 1..=extra {
        for i in 0..n {
            edges.push((i, (i + k * 7 + 1) % n));
        }
    }
    Graph::from_edges(n, &edges).expect("ring construction")
}

fn record_machine_metadata(c: &mut Criterion) {
    // The machine facts every number below depends on, recorded in the
    // JSON header: which micro-kernel the runtime dispatch selected
    // (post target-cpu=native removal, this — not compiler flags — is
    // what decides whether GEMM runs on hardware FMA) and the SIMD
    // feature set it selected from.
    let variant = kernel_variant();
    let features = detected_cpu_features().join(",");
    let available = available_kernel_variants()
        .iter()
        .map(|v| v.label())
        .collect::<Vec<_>>()
        .join(",");
    println!("kernel dispatch: {variant} (available: {available}; cpu features: {features})");
    c.set_metadata("kernel_variant", variant.label());
    c.set_metadata("available_kernel_variants", available);
    c.set_metadata("cpu_features", features);
}

fn bench_gemm(c: &mut Criterion) {
    // The historical headline group: the committed trajectory's
    // `blocked` row (scalar cache-blocked kernel, removed in the packed
    // rewrite) is the baseline the `packed` row is measured against.
    let mut group = c.benchmark_group("gemm_256");
    group.throughput(Throughput::Bytes(gemm_bytes(256, 256, 256)));
    let a = random_matrix(256, 256, 1);
    let b = random_matrix(256, 256, 2);
    group.bench_function("naive", |bencher| {
        bencher.iter(|| matmul_naive(&a, &b).expect("gemm"))
    });
    group.bench_function("packed", |bencher| {
        bencher.iter(|| matmul_packed(&a, &b).expect("gemm"))
    });
    group.bench_function("threaded", |bencher| {
        bencher.iter(|| matmul_threaded(&a, &b).expect("gemm"))
    });
    group.finish();
}

fn bench_gemm_dispatch(c: &mut Criterion) {
    // The same 256³ packed product pinned to every micro-kernel this
    // machine can run. The `dispatched` row uses the process-wide
    // selection and should coincide with the best available variant's
    // row; the `scalar` row quantifies what the SIMD kernels buy.
    let a = random_matrix(256, 256, 1);
    let b = random_matrix(256, 256, 2);
    let mut out = DenseMatrix::zeros(256, 256);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("gemm_dispatch");
    group.throughput(Throughput::Bytes(gemm_bytes(256, 256, 256)));
    group.bench_function(format!("dispatched_{}", kernel_variant()), |bencher| {
        bencher.iter(|| {
            linalg::gemm_into_ws(
                GemmOp::AB,
                &a,
                &b,
                &mut out,
                Epilogue::None,
                GemmStrategy::Packed,
                &mut ws,
            )
            .expect("gemm")
        })
    });
    for variant in available_kernel_variants() {
        group.bench_function(variant.label(), |bencher| {
            bencher.iter(|| {
                gemm_into_ws_with_variant(
                    variant,
                    GemmOp::AB,
                    &a,
                    &b,
                    &mut out,
                    Epilogue::None,
                    GemmStrategy::Packed,
                    &mut ws,
                )
                .expect("gemm")
            })
        });
    }
    group.finish();
}

fn bench_gemm_packed(c: &mut Criterion) {
    // The packed-panel engine across its call shapes: plain product,
    // pool-threaded product, the transpose-free backward views, and the
    // fused bias+ReLU forward epilogue.
    for &n in &[256usize, 1024] {
        let mut group = c.benchmark_group(format!("gemm_packed/{n}"));
        group.throughput(Throughput::Bytes(gemm_bytes(n, n, n)));
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 / n as f32 - 0.5).collect();
        group.bench_function("packed", |bencher| {
            bencher.iter(|| matmul_packed(&a, &b).expect("gemm"))
        });
        group.bench_function(
            format!("threaded_t{}", linalg::pool::num_threads()),
            |bencher| bencher.iter(|| matmul_threaded(&a, &b).expect("gemm")),
        );
        group.bench_function("at_b", |bencher| {
            bencher.iter(|| matmul_at_b(&a, &b).expect("gemm"))
        });
        group.bench_function("a_bt", |bencher| {
            bencher.iter(|| matmul_a_bt(&a, &b).expect("gemm"))
        });
        group.bench_function("fused_bias_relu", |bencher| {
            bencher.iter(|| matmul_fused(&a, &b, Epilogue::BiasRelu(&bias)).expect("gemm"))
        });
        group.finish();
    }
}

fn bench_train_epoch(c: &mut Criterion) {
    // One full GCN fit epoch (forward, backward, Adam step, final
    // accuracy pass) on a 512-node graph with paper-scale layer widths.
    // The backward pass materializes zero transposes: every gradient
    // GEMM runs through the packed engine's `at_b`/`a_bt` views.
    let n = 512;
    let x = random_matrix(n, 64, 23);
    let labels: Vec<usize> = (0..n).map(|r| usize::from(r >= n / 2)).collect();
    let train: Vec<usize> = (0..n).step_by(2).collect();
    let adj = normalization::gcn_normalize(&ring_graph(n, 2));
    let base = Network::new(64, &[128, 32, 7], 5).expect("network");
    let cfg = TrainConfig {
        epochs: 1,
        lr: 0.01,
        weight_decay: 5e-4,
        dropout: 0.0,
        seed: 0,
    };
    // Per-epoch data movement: each layer's forward GEMM plus the two
    // transpose-free gradient GEMMs (`at_b`/`a_bt`) move ~3× the
    // forward GEMM traffic, and message passing streams the CSR
    // adjacency over the dense activations twice (forward + transposed
    // backward).
    let dims = [(64usize, 128usize), (128, 32), (32, 7)];
    let epoch_bytes: u64 = dims
        .iter()
        .map(|&(i, o)| 3 * gemm_bytes(n, i, o) + 2 * spmm_bytes(adj.nnz(), n, o))
        .sum();
    c.bench_function_with_throughput(
        "train_epoch_512",
        Throughput::Bytes(epoch_bytes),
        |bencher| {
            bencher.iter(|| {
                let mut net = base.clone();
                net.fit(Some(&adj), &x, &labels, &train, &cfg)
                    .expect("fit epoch")
            })
        },
    );
}

fn bench_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm_message_passing");
    for &n in &[512usize, 2048] {
        let g = ring_graph(n, 2);
        let adj = normalization::gcn_normalize(&g);
        let h = random_matrix(n, 64, 3);
        group.throughput(Throughput::Bytes(spmm_bytes(adj.nnz(), n, 64)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| adj.spmm(&h).expect("spmm"))
        });
    }
    group.finish();
}

fn bench_spmm_parallel(c: &mut Criterion) {
    // ≥50k structural nonzeros after GCN normalization: a 8192-node
    // ring with 3 chord families is 8192·(1+3)·2 + 8192 ≈ 73.7k.
    let n = 8192;
    let g = ring_graph(n, 3);
    let adj = normalization::gcn_normalize(&g);
    let h = random_matrix(n, 64, 11);
    let reference = adj
        .spmm_with(&h, SpmmStrategy::Sequential)
        .expect("sequential spmm");
    let parallel = adj.spmm_parallel(&h).expect("parallel spmm");
    assert!(
        parallel.approx_eq(&reference, 1e-4),
        "parallel spmm must agree with the sequential kernel"
    );

    let mut group = c.benchmark_group(format!("spmm_parallel_50k/nnz_{}", adj.nnz()));
    group.throughput(Throughput::Bytes(spmm_bytes(adj.nnz(), n, 64)));
    group.bench_function("sequential", |bencher| {
        bencher.iter(|| adj.spmm_with(&h, SpmmStrategy::Sequential).expect("spmm"))
    });
    group.bench_function(
        format!("parallel_t{}", linalg::pool::num_threads()),
        |bencher| bencher.iter(|| adj.spmm_parallel(&h).expect("spmm")),
    );
    group.bench_function("transposed_sequential", |bencher| {
        bencher.iter(|| {
            adj.spmm_transposed_with(&h, SpmmStrategy::Sequential)
                .expect("spmm_t")
        })
    });
    group.bench_function(
        format!("transposed_parallel_t{}", linalg::pool::num_threads()),
        |bencher| bencher.iter(|| adj.spmm_transposed_parallel(&h).expect("spmm_t")),
    );
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let g = ring_graph(4096, 3);
    // One pass reads the graph's adjacency structure (a column index
    // per nonzero plus row offsets) and writes the normalized CSR (an
    // f32 weight and a column index per nonzero plus row offsets).
    let adj = normalization::gcn_normalize(&g);
    let n = 4096usize;
    let norm_bytes = (adj.nnz() * (std::mem::size_of::<f32>() + 2 * std::mem::size_of::<usize>())
        + 2 * (n + 1) * std::mem::size_of::<usize>()) as u64;
    c.bench_function_with_throughput(
        "gcn_normalize_4096",
        Throughput::Bytes(norm_bytes),
        |bencher| bencher.iter(|| normalization::gcn_normalize(&g)),
    );
}

fn bench_substitute_generation(c: &mut Criterion) {
    let x = random_matrix(512, 64, 9);
    let mut group = c.benchmark_group("substitute_graphs_512");
    group.bench_function("knn_k2", |bencher| {
        bencher.iter(|| substitute::knn_graph(&x, 2).expect("knn"))
    });
    group.bench_function("cosine_tau05", |bencher| {
        bencher.iter(|| substitute::cosine_graph(&x, 0.5).expect("cosine"))
    });
    group.bench_function("random_1024", |bencher| {
        bencher.iter(|| substitute::random_graph(512, 1024, 7).expect("random"))
    });
    group.finish();
}

fn bench_substitute_generation_4096(c: &mut Criterion) {
    // 8x the node count of the 512 group: demonstrates the tiled
    // engine's scaling on a problem whose full similarity matrix
    // (4096² f32 = 64 MB) would be a wasteful intermediate.
    let x = random_matrix(4096, 64, 13);
    let mut group = c.benchmark_group("substitute_graphs_4096");
    group.bench_function("knn_k2", |bencher| {
        bencher.iter(|| substitute::knn_graph(&x, 2).expect("knn"))
    });
    group.bench_function("cosine_tau05", |bencher| {
        bencher.iter(|| substitute::cosine_graph(&x, 0.5).expect("cosine"))
    });
    group.finish();
}

fn bench_pairwise_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_gram");
    for &n in &[512usize, 2048] {
        let x = random_matrix(n, 64, 21);
        // Read X (+ its transpose), write the n×n Gram matrix.
        group.throughput(Throughput::Bytes(
            ((2 * n * 64 + n * n) * std::mem::size_of::<f32>()) as u64,
        ));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| pairwise::gram(&x).expect("gram"))
        });
    }
    group.finish();
}

/// Trains and deploys a small vault on a 512-node synthetic graph for
/// the serving benchmarks (few epochs: the bench measures inference).
fn serving_vault(n: usize) -> (Vault, DenseMatrix) {
    let x = random_matrix(n, 32, 17);
    let half = n / 2;
    let labels: Vec<usize> = (0..n).map(|r| usize::from(r >= half)).collect();
    let train: Vec<usize> = (0..n).step_by(2).collect();
    let real = ring_graph(n, 2);
    let cfg = TrainConfig {
        epochs: 10,
        lr: 0.05,
        weight_decay: 0.0,
        dropout: 0.0,
        seed: 0,
    };
    let backbone = Backbone::train(
        &x,
        &labels,
        &train,
        SubstituteKind::Knn { k: 2 },
        &[16, 8, 2],
        real.num_edges(),
        &cfg,
        1,
    )
    .expect("backbone");
    let mut rectifier = Rectifier::new(
        RectifierKind::Series,
        &[16, 8, 2],
        &backbone.channel_dims(),
        2,
    )
    .expect("rectifier");
    let real_adj = normalization::gcn_normalize(&real);
    let embs = backbone.embeddings(&x).expect("embeddings");
    rectifier
        .fit(&real_adj, &embs, &labels, &train, &cfg)
        .expect("fit");
    let vault = Vault::deploy(
        backbone,
        rectifier,
        &real,
        tee::SGX_EPC_BYTES,
        tee::CostModel::default(),
        tee::OverBudgetPolicy::Fail,
        tee::SealKey(3),
    )
    .expect("deploy");
    (vault, x)
}

fn bench_serving_batch(c: &mut Criterion) {
    // The serving hot path: one `Vault::infer_batch` per admitted batch
    // on the 512-node graph. Larger batches amortize the per-batch
    // backbone forward, tap transfer, and rectifier pass over more
    // queries — compare per-iteration time divided by batch size across
    // the rows, and transitions/query in the serving stats.
    let (mut vault, x) = serving_vault(512);
    let mut session = vault.open_session();
    let mut group = c.benchmark_group("serving_batch");
    for &batch in &[1usize, 16, 128] {
        let nodes: Vec<usize> = (0..batch).map(|i| (i * 97) % 512).collect();
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |bencher, _| {
            bencher.iter(|| {
                vault
                    .infer_batch(&mut session, &x, &nodes)
                    .expect("batched inference")
            })
        });
    }
    group.finish();
}

fn bench_serving_sharded(c: &mut Criterion) {
    // End-to-end sharded-runtime throughput: one iteration pushes a
    // fixed 256-query stream (single-node requests over the 512-node
    // corpus) through a running engine and waits for every ticket.
    // Caching is off so every batch does real enclave work; the rows
    // compare identical streams at 1/2/4 shards. Per-iteration payload:
    // one u64 node id in and one u64 label out per query.
    const QUERIES: usize = 256;
    let (vault, x) = serving_vault(512);
    let mut group = c.benchmark_group("serving_sharded");
    group.throughput(Throughput::Bytes(
        (QUERIES * 2 * std::mem::size_of::<u64>()) as u64,
    ));
    for &shards in &[1usize, 2, 4] {
        let engine = ServingEngine::start(
            vault.spawn_replica().expect("replica"),
            x.clone(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch_nodes: 64,
                    max_delay: std::time::Duration::from_millis(1),
                    max_queue_requests: 8192,
                    ..BatchPolicy::default()
                },
                cache_capacity: 0,
                shards,
                ..ServeConfig::default()
            },
        )
        .expect("engine start");
        let handle = engine.handle();
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |bencher, _| {
                bencher.iter(|| {
                    let tickets: Vec<_> = (0..QUERIES)
                        .map(|i| handle.submit_one((i * 97) % 512).expect("admission"))
                        .collect();
                    for ticket in tickets {
                        ticket.wait().expect("inference");
                    }
                })
            },
        );
        engine.shutdown();
    }
    group.finish();
}

fn bench_serving_partitioned(c: &mut Criterion) {
    // The same 256-query stream as `serving_sharded`, but with the
    // private graph block-partitioned across the shards instead of
    // replicated: shard i holds only partition i's owned nodes plus
    // their L-hop halo, and routing is an owner lookup. Compare rows
    // against `serving_sharded` at equal shard counts — answers are
    // bit-identical, the difference is resident private state. The
    // per-shard sealed snapshot sizes (printed once per shard count)
    // quantify that: each partition seals strictly fewer bytes than a
    // full replica.
    const QUERIES: usize = 256;
    let (vault, x) = serving_vault(512);
    let full_bytes = vault.snapshot().sealed_nbytes();
    let mut group = c.benchmark_group("serving_partitioned");
    group.throughput(Throughput::Bytes(
        (QUERIES * 2 * std::mem::size_of::<u64>()) as u64,
    ));
    for &shards in &[1usize, 2, 4] {
        let spec = PartitionSpec::block(512, shards).expect("partition spec");
        let per_shard: Vec<usize> = vault
            .partition_snapshots(&spec)
            .expect("partition snapshots")
            .iter()
            .map(gnnvault::VaultSnapshot::sealed_nbytes)
            .collect();
        eprintln!(
            "serving_partitioned/{shards}: sealed snapshot bytes per shard {per_shard:?} \
             vs {full_bytes} full-replica (x{shards} when replicated)"
        );
        // With ≥ 2 partitions each shard's closure misses part of the
        // graph, so its snapshot must undercut a full replica's. (A
        // 1-partition "cut" is the whole graph plus ownership metadata
        // — there is nothing to save.)
        assert!(
            shards == 1 || per_shard.iter().all(|&bytes| bytes < full_bytes),
            "every partition must seal fewer bytes than a full replica"
        );
        let engine = ServingEngine::start(
            vault.spawn_replica().expect("replica"),
            x.clone(),
            ServeConfig {
                policy: BatchPolicy {
                    max_batch_nodes: 64,
                    max_delay: std::time::Duration::from_millis(1),
                    max_queue_requests: 8192,
                    ..BatchPolicy::default()
                },
                cache_capacity: 0,
                shards,
                topology: Topology::Partitioned,
                ..ServeConfig::default()
            },
        )
        .expect("engine start");
        let handle = engine.handle();
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |bencher, _| {
                bencher.iter(|| {
                    let tickets: Vec<_> = (0..QUERIES)
                        .map(|i| handle.submit_one((i * 97) % 512).expect("admission"))
                        .collect();
                    for ticket in tickets {
                        ticket.wait().expect("inference");
                    }
                })
            },
        );
        engine.shutdown();
    }
    group.finish();
}

criterion_group!(
    benches,
    record_machine_metadata,
    bench_gemm,
    bench_gemm_dispatch,
    bench_gemm_packed,
    bench_train_epoch,
    bench_spmm,
    bench_spmm_parallel,
    bench_normalization,
    bench_substitute_generation,
    bench_substitute_generation_4096,
    bench_pairwise_gram,
    bench_serving_batch,
    bench_serving_sharded,
    bench_serving_partitioned
);
criterion_main!(benches);
