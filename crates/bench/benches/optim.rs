//! Benchmarks of the optimizer/compression substrate.

use aiacc_compress::{Compressor, ErrorFeedback, Scheme};
use aiacc_dnn::f16;
use aiacc_dnn::{Mlp, MlpConfig};
use aiacc_optim::{Adam, AdamSgd, Optimizer, Sgd};
use aiacc_trainer::{DataParallelConfig, DataParallelTrainer};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

const N: usize = 100_000;

fn bench_optimizers(c: &mut Criterion) {
    let grads: Vec<f32> = (0..N).map(|i| ((i % 97) as f32 - 48.0) * 1e-4).collect();
    for (name, mut opt) in [
        ("sgd_momentum", Box::new(Sgd::new(0.01).with_momentum(0.9)) as Box<dyn Optimizer>),
        ("adam", Box::new(Adam::new(1e-3))),
        ("adam_sgd_hybrid", Box::new(AdamSgd::new(1e-3, 0.01))),
    ] {
        let mut params = vec![0.0f32; N];
        c.bench_function(&format!("optim/{name}_100k_params"), |b| {
            b.iter(|| {
                opt.step(&mut params, &grads);
                black_box(params[0])
            })
        });
    }
}

fn bench_f16(c: &mut Criterion) {
    let vals: Vec<f32> = (0..N).map(|i| (i as f32 - 5e4) * 1e-3).collect();
    c.bench_function("f16/compress_100k", |b| b.iter(|| black_box(f16::compress(&vals).len())));
    let wire = f16::compress(&vals);
    c.bench_function("f16/decompress_100k", |b| b.iter(|| black_box(f16::decompress(&wire).len())));

    // The codecs on a 1M-element gradient: the fused error-feedback step the
    // data plane runs, and the payload-building `Compressor` round trip.
    let grad: Vec<f32> = (0..1 << 20).map(|i| ((i * 7919 % 2003) as f32 - 1001.0) * 1e-6).collect();
    for scheme in [Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 64 }] {
        let mut ef = ErrorFeedback::new();
        c.bench_function(&format!("ef/{scheme}_step_1m"), |b| {
            b.iter_batched(
                || grad.clone(),
                |mut buf| ef.compress_step(scheme, &mut buf),
                BatchSize::LargeInput,
            )
        });
    }
    for scheme in [Scheme::Int8, Scheme::TopK { ratio: 64 }] {
        c.bench_function(&format!("codec/{scheme}_roundtrip_1m"), |b| {
            b.iter(|| black_box(scheme.decompress(&scheme.compress(&grad)).len()))
        });
    }
}

fn bench_mlp(c: &mut Criterion) {
    let mlp = Mlp::new(&MlpConfig::new(vec![64, 128, 64, 10], 7));
    let x: Vec<f32> = (0..64 * 32).map(|i| (i % 13) as f32 * 0.1).collect();
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    c.bench_function("mlp/loss_and_grads_b32", |b| {
        b.iter(|| black_box(mlp.loss_and_grads(&x, &y).0))
    });

    // One worker's share of the `dataplane_ef` benchmark step: the
    // 1.3M-parameter network on a 4-sample shard.
    let big = Mlp::new(&MlpConfig::new(vec![256, 1024, 1024, 16], 1));
    let x: Vec<f32> = (0..256 * 4).map(|i| ((i * 7919 % 2003) as f32 - 1001.0) * 1e-3).collect();
    let y: Vec<usize> = (0..4).map(|i| i * 5 % 16).collect();
    c.bench_function("mlp/loss_and_grads_256_1024_1024_16_b4", |b| {
        b.iter(|| black_box(big.loss_and_grads(&x, &y).0))
    });
}

fn bench_dataparallel(c: &mut Criterion) {
    // The whole `dataplane_ef` step, uncompressed and with its costliest
    // codec: 8 workers of 4 samples, the exact all-reduce and the optimizer
    // update.
    for (name, scheme) in [("none", Scheme::None), ("topk64", Scheme::TopK { ratio: 64 })] {
        let mut cfg = DataParallelConfig::new(vec![256, 1024, 1024, 16], 8, 4);
        cfg.compress = scheme;
        let mut t = DataParallelTrainer::new(cfg);
        c.bench_function(&format!("dataparallel/step_8x4_{name}"), |b| {
            b.iter(|| black_box(t.step()))
        });
    }
}

criterion_group!(benches, bench_optimizers, bench_f16, bench_mlp, bench_dataparallel);
criterion_main!(benches);
