//! Criterion micro-benchmarks for the compute kernels that dominate the
//! Fig. 6 time breakdown: dense GEMM (backbone layers), sparse SpMM
//! (message passing), GCN normalization, and the tiled pairwise
//! engine behind substitute-graph construction (`pairwise_gram`,
//! `substitute_graphs_512`/`_4096`). The gemm/spmm/pairwise groups
//! declare per-iteration byte throughput so the JSON trajectory can
//! report GB/s.
//!
//! The `gemm_packed` groups (256/1024) cover the packed-panel engine's
//! call shapes — plain, the transpose-free `at_b`/`a_bt` backward
//! views, and the fused bias+ReLU epilogue — and `train_epoch_512`
//! times one end-to-end GCN fit epoch, whose backward pass materializes
//! no transposes at all.
//!
//! `first_layer_cora` holds the first layer's two products at the
//! vaultbench fixture's shape (synthetic Cora: 2708 × 1433 features,
//! 8 % non-zero, times 128) on the dense engine and on the CSR product
//! that returns its bits, plus `csr_build`, the one CSR build of those
//! features that each fit and each serving engine's start pay;
//! `train_epoch_cora` times one fit epoch there at dropout 0.5, where
//! the first layer trains on the sparse features.
//!
//! Running this bench writes `BENCH_kernels.json` (machine-readable
//! mean/median per kernel plus the machine's parallelism) so successive
//! PRs accumulate a perf trajectory. How a product runs is `linalg`'s
//! decision, so every row times the public entry point; the JSON header
//! records the pool width and the micro-kernel variant the process
//! selected, and a cross-width or cross-variant comparison is one run
//! per `LINALG_NUM_THREADS` / `LINALG_FORCE_KERNEL` value. Serving is
//! measured by `benchmark/` (vaultbench), not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasets::{CitationDataset, DatasetSpec, SyntheticPlanetoid};
use graph::{normalization, substitute, Graph};
use linalg::{
    available_kernel_variants, csr_gemm_into_ws, detected_cpu_features, gemm_into_ws,
    kernel_variant, matmul, pairwise, CsrMatrix, DenseMatrix, Epilogue, GemmOp, Workspace,
};
use nn::{Network, TrainConfig};

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
    // rewrite) is the baseline this row is measured against.
    let mut group = c.benchmark_group("gemm_256");
    group.throughput(Throughput::Bytes(gemm_bytes(256, 256, 256)));
    let a = random_matrix(256, 256, 1);
    let b = random_matrix(256, 256, 2);
    group.bench_function("dispatched", |bencher| {
        bencher.iter(|| matmul(&a, &b).expect("gemm"))
    });
    group.finish();
}

fn bench_gemm_packed(c: &mut Criterion) {
    // The packed-panel engine across its call shapes: plain product,
    // the transpose-free backward views, and the fused bias+ReLU
    // forward epilogue.
    for &n in &[256usize, 1024] {
        let mut group = c.benchmark_group(format!("gemm_packed/{n}"));
        group.throughput(Throughput::Bytes(gemm_bytes(n, n, n)));
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 / n as f32 - 0.5).collect();
        let mut out = DenseMatrix::zeros(n, n);
        let mut ws = Workspace::new();
        let rows = [
            ("ab", GemmOp::AB, Epilogue::None),
            ("at_b", GemmOp::AtB, Epilogue::None),
            ("a_bt", GemmOp::ABt, Epilogue::None),
            ("fused_bias_relu", GemmOp::AB, Epilogue::BiasRelu(&bias)),
        ];
        for (name, op, epilogue) in rows {
            group.bench_function(name, |bencher| {
                bencher
                    .iter(|| gemm_into_ws(op, &a, &b, &mut out, epilogue, &mut ws).expect("gemm"))
            });
        }
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
                net.fit(Some(&adj), std::slice::from_ref(&x), &labels, &train, &cfg)
                    .expect("fit epoch")
            })
        },
    );
}

/// The vaultbench fixture's dataset: synthetic Cora at full scale.
fn cora() -> CitationDataset {
    SyntheticPlanetoid::new(DatasetSpec::CORA)
        .scale(1.0)
        .seed(11)
        .generate()
        .expect("synthetic Cora")
}

fn bench_first_layer_cora(c: &mut Criterion) {
    // The first layer's forward `X W` and weight gradient `Xᵀ G`, each
    // on the packed engine over dense `X` and on the CSR product over
    // its stored entries. Both return the same bits.
    let x = cora().features;
    let (n, f, h) = (x.rows(), x.cols(), 128);
    let sparse = CsrMatrix::from_dense(&x);
    let sparse_t = sparse.transpose();
    let w = random_matrix(f, h, 41);
    let g = random_matrix(n, h, 42);
    let mut group = c.benchmark_group("first_layer_cora");
    group.throughput(Throughput::Bytes(gemm_bytes(n, f, h)));
    let mut ws = Workspace::new();
    let (mut xw, mut xt_g) = (DenseMatrix::zeros(n, h), DenseMatrix::zeros(f, h));
    let none = Epilogue::None;
    group.bench_function("dense_ab", |bencher| {
        bencher.iter(|| gemm_into_ws(GemmOp::AB, &x, &w, &mut xw, none, &mut ws).expect("gemm"))
    });
    group.bench_function("sparse_ab", |bencher| {
        bencher.iter(|| csr_gemm_into_ws(&sparse, &w, &mut xw, none, &mut ws).expect("csr"))
    });
    group.bench_function("dense_at_b", |bencher| {
        bencher.iter(|| gemm_into_ws(GemmOp::AtB, &x, &g, &mut xt_g, none, &mut ws).expect("gemm"))
    });
    group.bench_function("sparse_at_b", |bencher| {
        bencher.iter(|| csr_gemm_into_ws(&sparse_t, &g, &mut xt_g, none, &mut ws).expect("csr"))
    });
    // The sparse arm's one-time cost: a fit's, and a serving engine's
    // at start. It reads `X` once.
    group.throughput(Throughput::Bytes(
        (n * f * std::mem::size_of::<f32>()) as u64,
    ));
    group.bench_function("csr_build", |bencher| {
        bencher.iter(|| CsrMatrix::from_dense(&x))
    });
    group.finish();
}

fn bench_train_epoch_cora(c: &mut Criterion) {
    // One fit epoch of the paper's M1 backbone shape over the fixture's
    // features and graph, at the pipeline's dropout: the row that sees
    // the sparse first layer (`train_epoch_512` has dense features and
    // no dropout).
    let data = cora();
    let adj = normalization::gcn_normalize(&data.graph);
    let base = Network::new(data.num_features(), &[128, 32, data.num_classes], 5).expect("net");
    let cfg = TrainConfig {
        epochs: 1,
        lr: 0.01,
        weight_decay: 5e-4,
        dropout: 0.5,
        seed: 0,
    };
    let features = std::slice::from_ref(&data.features);
    c.bench_function("train_epoch_cora", |bencher| {
        bencher.iter(|| {
            let mut net = base.clone();
            net.fit(Some(&adj), features, &data.labels, &data.train_mask, &cfg)
                .expect("fit epoch")
        })
    });
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
    // ring with 3 chord families is 8192·(1+3)·2 + 8192 ≈ 73.7k — past
    // the threshold where `linalg` row-partitions over the pool (the
    // header records its width).
    let n = 8192;
    let g = ring_graph(n, 3);
    let adj = normalization::gcn_normalize(&g);
    let h = random_matrix(n, 64, 11);

    let mut group = c.benchmark_group(format!("spmm_parallel_50k/nnz_{}", adj.nnz()));
    group.throughput(Throughput::Bytes(spmm_bytes(adj.nnz(), n, 64)));
    group.bench_function("spmm", |bencher| {
        bencher.iter(|| adj.spmm(&h).expect("spmm"))
    });
    group.bench_function("spmm_transposed", |bencher| {
        bencher.iter(|| adj.spmm_transposed(&h).expect("spmm_t"))
    });
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

criterion_group!(
    benches,
    record_machine_metadata,
    bench_gemm,
    bench_gemm_packed,
    bench_train_epoch,
    bench_first_layer_cora,
    bench_train_epoch_cora,
    bench_spmm,
    bench_spmm_parallel,
    bench_normalization,
    bench_substitute_generation,
    bench_substitute_generation_4096,
    bench_pairwise_gram
);
criterion_main!(benches);
