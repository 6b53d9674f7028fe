//! Cross-crate numerical integration: real gradients through the exact
//! collectives, optimizers, and compression.

use aiacc::optim::schedule::LinearDecay;
use aiacc::prelude::*;

#[test]
fn perseus_allreduce_equals_manual_average() {
    let layout = vec![("w".to_string(), 64usize), ("b".to_string(), 8)];
    let p = Perseus::new(&layout, PerseusConfig::new(5));
    let grads: Vec<Vec<Vec<f32>>> = (0..5)
        .map(|w| {
            vec![
                (0..64).map(|i| (w * 100 + i) as f32 * 0.01).collect(),
                (0..8).map(|i| (w + i) as f32).collect(),
            ]
        })
        .collect();
    let out = p.allreduce_step(grads.clone());
    for t in 0..2 {
        for i in 0..grads[0][t].len() {
            let mean: f32 = (0..5).map(|w| grads[w][t][i]).sum::<f32>() / 5.0;
            assert!((out[t][i] - mean).abs() < 1e-4, "tensor {t} elem {i}");
        }
    }
}

#[test]
fn dataplane_ring_matches_perseus_for_whole_tensors() {
    // The low-level collective and the packed Perseus session must agree:
    // Perseus averages, and scaling by 1/4 is exact.
    let mut bufs: Vec<Vec<f32>> = (0..4).map(|w| vec![w as f32 + 0.5; 32]).collect();
    ring_allreduce(&mut bufs, ReduceOp::Sum);
    let layout = vec![("t".to_string(), 32usize)];
    let p = Perseus::new(&layout, PerseusConfig::new(4));
    let out = p.allreduce_step((0..4).map(|w| vec![vec![w as f32 + 0.5; 32]]).collect());
    let mean: Vec<f32> = bufs[0].iter().map(|v| v * 0.25).collect();
    assert_eq!(out[0], mean);
}

#[test]
fn sgd_trains_the_distributed_mlp() {
    // A manual data-parallel loop built from public parts: MLP grads ->
    // Perseus -> optimizer.
    let world = 4;
    let data = Dataset::gaussian_blobs(512, 4, 3, 77);
    let mut opt = Sgd::new(0.1).with_momentum(0.9);
    let mut model = Mlp::new(&MlpConfig::new(vec![4, 24, 3], 5));
    let perseus = Perseus::new(&model.param_layout(), PerseusConfig::new(world));
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for step in 0..80 {
        let mut grads_per_worker = Vec::new();
        let mut loss_sum = 0.0;
        for w in 0..world {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for i in 0..8 {
                let (f, l) = data.sample((step * world * 8 + w * 8 + i) % data.len());
                xs.extend_from_slice(f);
                ys.push(l);
            }
            let (loss, grads) = model.loss_and_grads(&xs, &ys);
            loss_sum += loss;
            grads_per_worker.push(grads);
        }
        let reduced = perseus.allreduce_step(grads_per_worker);
        let flat: Vec<f32> = reduced.into_iter().flatten().collect();
        let mut params = model.params_flat();
        opt.step(&mut params, &flat);
        model.set_params_flat(&params);
        last_loss = loss_sum / world as f64;
        first_loss.get_or_insert(last_loss);
    }
    let first = first_loss.unwrap();
    assert!(last_loss < first * 0.6, "loss did not improve ({first} -> {last_loss})");
}

#[test]
fn fp16_wire_compression_precision_is_adequate_for_training() {
    let mut exact = DataParallelTrainer::new(DataParallelConfig::new(vec![4, 16, 3], 4, 8));
    let mut cfg = DataParallelConfig::new(vec![4, 16, 3], 4, 8);
    cfg.compress = Scheme::Fp16;
    let mut lossy = DataParallelTrainer::new(cfg);
    exact.train(100);
    lossy.train(100);
    let test = Dataset::gaussian_blobs(1000, 4, 3, 12345);
    let acc_exact = exact.accuracy(&test);
    let acc_lossy = lossy.accuracy(&test);
    assert!(acc_lossy > acc_exact - 0.05, "fp16 wire hurt accuracy: {acc_exact} vs {acc_lossy}");
}

#[test]
fn linear_decay_trains_at_least_as_well_as_a_constant_rate() {
    // §IV: AIACC uses linear decay. On this smooth problem a constant rate
    // works too; the decayed run must not be worse — and the schedule
    // itself must decay smoothly to its floor.
    let linear = LinearDecay::new(0.1, 0.001, 200);
    assert!((linear.lr_at(100) - 0.0505).abs() < 1e-12);
    assert!((linear.lr_at(200) - 0.001).abs() < 1e-12);
    let run = |use_linear: bool| {
        let mut cfg = DataParallelConfig::new(vec![4, 16, 3], 2, 16);
        cfg.decay_steps = if use_linear { Some(200) } else { None };
        let mut t = DataParallelTrainer::new(cfg);
        let stats = t.train(200);
        stats.losses.last().copied().unwrap()
    };
    let with_decay = run(true);
    let without = run(false);
    assert!(with_decay <= without * 1.5, "decay {with_decay} vs constant {without}");
}

#[test]
fn gradient_values_survive_pack_unpack_at_any_granularity() {
    // Property-style check across the crate boundary: oddly-sized tensors,
    // several granularities, world sizes 2..5.
    for world in 2..=5 {
        for gran in [8.0, 64.0, 4096.0, 1e9] {
            let layout =
                vec![("a".to_string(), 17usize), ("b".to_string(), 1), ("c".to_string(), 130)];
            let p = Perseus::new(&layout, PerseusConfig::new(world).with_granularity(gran));
            let grads: Vec<Vec<Vec<f32>>> = (0..world)
                .map(|w| {
                    layout
                        .iter()
                        .map(|(_, n)| (0..*n).map(|i| ((w + 1) * (i + 3)) as f32 * 0.125).collect())
                        .collect()
                })
                .collect();
            let out = p.allreduce_step(grads.clone());
            for (t, (_, n)) in layout.iter().enumerate() {
                for i in 0..*n {
                    let mean: f32 = (0..world).map(|w| grads[w][t][i]).sum::<f32>() / world as f32;
                    assert!(
                        (out[t][i] - mean).abs() < 1e-3,
                        "world {world} gran {gran} tensor {t} elem {i}"
                    );
                }
            }
        }
    }
}

/// FNV-1a over the bit patterns of `values`.
fn fnv_bits(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Per-step loss bits and the final parameters' hash of a 4-worker
/// `[32, 64, 48, 8]` job, batch 5, 6 steps; `scale_at` adds two workers
/// after that many steps.
fn golden_run(
    compress: Scheme,
    decay_steps: Option<u64>,
    scale_at: Option<u64>,
) -> (Vec<u64>, u64) {
    let mut cfg = DataParallelConfig::new(vec![32, 64, 48, 8], 4, 5);
    cfg.compress = compress;
    cfg.decay_steps = decay_steps;
    let mut t = DataParallelTrainer::new(cfg);
    let mut bits = Vec::new();
    for step in 0..6 {
        if scale_at == Some(step) {
            t.scale_out(2);
        }
        bits.push(t.step().to_bits());
    }
    (bits, fnv_bits(&t.model().params_flat()))
}

#[test]
fn trainer_loss_and_parameter_bits_are_pinned() {
    // Recorded from the unblocked kernels and one model copy per worker;
    // the blocked kernels and the shared model reproduce every bit.
    let runs: [(&str, (Vec<u64>, u64)); 6] = [
        ("none", golden_run(Scheme::None, None, None)),
        ("fp16", golden_run(Scheme::Fp16, None, None)),
        ("int8", golden_run(Scheme::Int8, None, None)),
        ("topk:8", golden_run(Scheme::TopK { ratio: 8 }, None, None)),
        ("decay", golden_run(Scheme::None, Some(10), None)),
        ("scale_out", golden_run(Scheme::None, None, Some(3))),
    ];
    let golden: [(&[u64; 6], u64); 6] = [
        (
            &[
                0x40020c80f0c68869,
                0x4000153c98b8ff0c,
                0x40021eb0fbc924ec,
                0x4000c4da01289c41,
                0x3fff1c8cafd3d75e,
                0x3ffc7accafade0a9,
            ],
            0x3c1cb46861b3c8c1,
        ),
        (
            &[
                0x40020c80f0c68869,
                0x4000153cb4cb418e,
                0x40021eb1126905d9,
                0x4000c4d96d5696b8,
                0x3fff1c8e925506bc,
                0x3ffc7acbbdd19af9,
            ],
            0xb6eae3ecb776ec7c,
        ),
        (
            &[
                0x40020c80f0c68869,
                0x4000153cb919247f,
                0x40021eca7b12de47,
                0x4000c4c0c5b05b2b,
                0x3fff1cf898e38915,
                0x3ffc7ab052866a11,
            ],
            0x1216bb27f1be4fe4,
        ),
        (
            &[
                0x40020c80f0c68869,
                0x400029678b7733eb,
                0x40022c7edb8cc821,
                0x4000f4f1e2dcbb57,
                0x3fffb9f134b163e7,
                0x3ffd188c27573f19,
            ],
            0x13ac47f3c8590882,
        ),
        (
            &[
                0x40020c80f0c68869,
                0x4000153c98b8ff0c,
                0x4002280d015804fc,
                0x4000e78e35a935cc,
                0x3fffe806692f1c50,
                0x3ffd539e9ae3eb6e,
            ],
            0xa4e50670b038d952,
        ),
        (
            &[
                0x40020c80f0c68869,
                0x4000153c98b8ff0c,
                0x40021eb0fbc924ec,
                0x40011b9669e0fb29,
                0x3ffdfaccd7857d01,
                0x3fff0afc6232d315,
            ],
            0xddbdc6789d3051f8,
        ),
    ];
    for ((name, (bits, hash)), (want_bits, want_hash)) in runs.iter().zip(golden) {
        assert_eq!(bits.as_slice(), want_bits, "{name}: loss bits moved");
        assert_eq!(*hash, want_hash, "{name}: final parameters moved");
    }
}

/// Deterministic gradients for `layout`, one set per worker, with signs,
/// exact zeros and magnitudes from 2^-14 to 2^5 mixed so every codec
/// rounds, clips or drops something.
fn mixed_grads(layout: &[(String, usize)], world: usize, call: u64) -> Vec<Vec<Vec<f32>>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ call.wrapping_mul(0xa076_1d64_78bd_642f);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..world)
        .map(|_| {
            layout
                .iter()
                .map(|(_, n)| {
                    (0..*n)
                        .map(|_| {
                            let r = next();
                            match r % 16 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => {
                                    let unit = (r >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                                    unit * (((r >> 8) % 20) as f32 - 14.0).exp2()
                                }
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over the output bits of three `allreduce_step` calls of one
/// session per compression scheme.
fn perseus_call_hashes(cfg: PerseusConfig) -> Vec<[u64; 3]> {
    let layout: Vec<(String, usize)> = [("a", 37usize), ("b", 1), ("z", 0), ("c", 130), ("d", 64)]
        .iter()
        .map(|&(n, s)| (n.to_string(), s))
        .collect();
    [Scheme::None, Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 8 }]
        .into_iter()
        .map(|scheme| {
            let p = Perseus::new(&layout, cfg.with_compress(scheme));
            std::array::from_fn(|call| {
                let out = p.allreduce_step(mixed_grads(&layout, cfg.world, call as u64));
                fnv_bits(&out.concat())
            })
        })
        .collect()
}

#[test]
fn perseus_output_bits_are_pinned() {
    // Recorded from the step-by-step ring emulation with per-worker gather
    // buffers; the direct fold over flat buffers reproduces every bit.
    // An averaging session of six workers: none, fp16, int8, topk:8;
    // three calls each.
    let golden: [[u64; 3]; 4] = [
        [0xd6168c5123dc361e, 0x140e42ff2f9ea290, 0x8ec718887f3f728f],
        [0x93e1f1045e11b2e7, 0xac0ab087f52ca2b4, 0xe27057bc7c04d3ea],
        [0x01c27a3a030a2f57, 0x4924aad2091135bf, 0x7fd9e4a7275acee9],
        [0xf752026f4cfceb8b, 0xaa1387ea2c9b3aee, 0x4d8e7ffe0a42a69d],
    ];
    let cfg = PerseusConfig::new(6).with_granularity(128.0);
    assert_eq!(perseus_call_hashes(cfg), golden, "mean: output bits moved");
}

#[test]
fn trainer_output_does_not_depend_on_the_pool() {
    // Run directly, a step fans the workers' shards, their codecs and the
    // fold's output blocks (this model's gradient spans three) across four
    // threads. Inside a two-wide fan-out another fan-out is running, so
    // every step runs inline on one thread. Both must produce the same bits.
    use aiacc::simnet::par;
    par::set_jobs(4);
    let run = |compress: Scheme| {
        let mut cfg = DataParallelConfig::new(vec![64, 128, 96, 8], 4, 3);
        cfg.compress = compress;
        let mut t = DataParallelTrainer::new(cfg);
        let bits: Vec<u64> = (0..5).map(|_| t.step().to_bits()).collect();
        (bits, fnv_bits(t.model().params()))
    };
    for scheme in [Scheme::None, Scheme::Int8, Scheme::TopK { ratio: 8 }] {
        let direct = run(scheme);
        for nested in par::map_indexed(2, 2, |_| run(scheme)) {
            assert_eq!(nested, direct, "{scheme}: output depends on the fan-out");
        }
    }
}
