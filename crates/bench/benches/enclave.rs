//! Criterion micro-benchmarks for the TEE-boundary costs behind Fig. 6's
//! "transfer" bars: codec marshalling, one-way session sends, and
//! sealing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use linalg::DenseMatrix;
use tee::{codec, CostModel, EnclaveSession, EnclaveSim, OverBudgetPolicy, SealKey, Sealed};

fn embedding(rows: usize, cols: usize) -> DenseMatrix {
    let mut state = 77u64;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f32 / 500.0
    })
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_roundtrip");
    for &(rows, cols) in &[(512usize, 32usize), (2048, 128)] {
        let m = embedding(rows, cols);
        group.throughput(Throughput::Bytes((rows * cols * 4) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}")),
            &m,
            |bencher, m| {
                bencher.iter(|| {
                    let bytes = codec::encode_dense(m);
                    codec::decode_dense(&bytes).expect("decode")
                })
            },
        );
    }
    group.finish();
}

fn bench_channel_send(c: &mut Criterion) {
    let m = embedding(1024, 64);
    c.bench_function("channel_send_1024x64", |bencher| {
        bencher.iter(|| {
            let mut enclave = EnclaveSim::new(
                tee::SGX_EPC_BYTES,
                CostModel::default(),
                OverBudgetPolicy::Swap,
            );
            let mut session = EnclaveSession::default();
            session.send(&mut enclave, codec::encode_dense(&m));
            session.drain()
        })
    });
}

fn bench_sealing(c: &mut Criterion) {
    let payload: Vec<u8> = (0..262_144u32).map(|i| (i % 251) as u8).collect();
    let key = SealKey(0xFEED_BEEF);
    let mut group = c.benchmark_group("sealing_256k");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("seal", |bencher| {
        bencher.iter(|| Sealed::seal(key, &payload))
    });
    let sealed = Sealed::seal(key, &payload);
    group.bench_function("unseal", |bencher| {
        bencher.iter(|| sealed.unseal(key).expect("unseal"))
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_channel_send, bench_sealing);
criterion_main!(benches);
