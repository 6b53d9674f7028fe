//! `dataplane_ef`: real data-parallel training of a 1.3 M-parameter MLP
//! through the exact all-reduce, once per wire compression scheme, with
//! error feedback on the lossy ones.
//!
//! Here the compressor kernels and the exact reduction do most of the work;
//! in `train_paper` the same compression layer costs only a closed-form
//! formula. The traced run drives a [`Replica`] of
//! `DataParallelTrainer::step` built from `pub` items, with a span around
//! every call, and checks that its losses and wire bytes are bit-identical
//! to the library's.

use crate::report::{fnv1a, Digest, Metric, FNV_BASIS};
use crate::stats::median;
use crate::trace::{SpanName, Tracer};
use crate::{e2e_metrics, layer_shares, op_info, peak_rss_mib, time_setup, Outcome, RunCfg};
use aiacc::collectives::dataplane::{ring_allreduce, ReduceOp};
use aiacc::compress::{Compressor, Scheme};
use aiacc::core::packing::pack_units;
use aiacc::core::{GradientRegistry, Perseus, PerseusConfig};
use aiacc::dnn::data::Dataset;
use aiacc::dnn::{DType, Mlp, MlpConfig};
use aiacc::optim::{Optimizer, Sgd};
use aiacc::trainer::{DataParallelConfig, DataParallelTrainer};
use std::hint::black_box;
use std::time::Instant;

/// MLP widths: 256 -> 1024 -> 1024 -> 16, about 1.3 M parameters.
pub const LAYERS: [usize; 4] = [256, 1024, 1024, 16];
const WORLD: usize = 8;
const BATCH_PER_WORKER: usize = 4;
/// The schemes in run order: scheme, metric suffix, all-reduce span name.
const SCHEMES: [(Scheme, &str, &str); 4] = [
    (Scheme::None, "none", "core.perseus_allreduce.none"),
    (Scheme::Fp16, "fp16", "core.perseus_allreduce.fp16"),
    (Scheme::Int8, "int8", "core.perseus_allreduce.int8"),
    (Scheme::TopK { ratio: 64 }, "topk64", "core.perseus_allreduce.topk64"),
];
/// Timed steps per scheme covered by the digests; a run always times at
/// least these.
const DIGEST_STEPS: usize = 10;
/// Perseus's default packing granularity, bytes.
const GRANULARITY: f64 = 4.0 * 1024.0 * 1024.0;

/// The training job: `layers`, `world` workers of `batch` samples each.
pub fn job(
    layers: &[usize],
    world: usize,
    batch: usize,
    scheme: Scheme,
    seed: u64,
) -> DataParallelConfig {
    let mut c = DataParallelConfig::new(layers.to_vec(), world, batch);
    c.compress = scheme;
    c.seed = seed;
    c
}

/// Exact bytes one worker puts on the wire per step: the closed form of
/// each packed unit's compressed size.
pub fn expected_wire_bytes(layout: &[(String, usize)], scheme: Scheme) -> u64 {
    let registry = GradientRegistry::from_layout(layout, DType::F32);
    let (mut units, partial) = pack_units(&registry, registry.iter().map(|g| g.id), GRANULARITY);
    units.extend(partial);
    units.iter().map(|u| scheme.wire_bytes(u.elems())).sum()
}

/// Span names of the replica.
struct Names {
    step: SpanName,
    grads: SpanName,
    sgd: SpanName,
    copy: SpanName,
}

impl Names {
    fn new(tr: &mut Tracer) -> Self {
        Names {
            step: tr.name("bench.step"),
            grads: tr.name("dnn.loss_and_grads"),
            sgd: tr.name("optim.sgd_step"),
            copy: tr.name("dnn.param_copy"),
        }
    }
}

/// `DataParallelTrainer::step` rebuilt from `pub` items, for a job with a
/// constant learning rate.
pub struct Replica {
    workers: Vec<Mlp>,
    optimizers: Vec<Sgd>,
    perseus: Perseus,
    data: Dataset,
    batch: usize,
    cursor: usize,
}

impl Replica {
    /// Builds the job exactly as `DataParallelTrainer::new` does.
    pub fn new(c: &DataParallelConfig) -> Self {
        assert!(c.decay_steps.is_none(), "the replica covers constant learning rates only");
        let dim = c.layer_sizes[0];
        let classes = *c.layer_sizes.last().expect("layers");
        let data = Dataset::gaussian_blobs(4096, dim, classes, c.seed ^ 0xDA7A);
        let template = Mlp::new(&MlpConfig::new(c.layer_sizes.clone(), c.seed));
        let perseus = Perseus::new(
            &template.param_layout(),
            PerseusConfig::new(c.world).with_compress(c.compress),
        );
        Replica {
            workers: vec![template; c.world],
            optimizers: vec![Sgd::new(c.lr).with_momentum(0.9); c.world],
            perseus,
            data,
            batch: c.batch_per_worker,
            cursor: 0,
        }
    }

    /// One synchronous step, each library call in a span; returns the mean
    /// loss across workers.
    fn step_traced(&mut self, tr: &mut Tracer, n: &Names, reduce: SpanName) -> f64 {
        tr.open(n.step);
        let (world, b) = (self.workers.len(), self.batch);
        let mut grads = Vec::with_capacity(world);
        let mut loss_sum = 0.0;
        for w in 0..world {
            let mut xs = Vec::with_capacity(b * self.data.dim);
            let mut ys = Vec::with_capacity(b);
            for i in 0..b {
                let (f, l) = self.data.sample((self.cursor + w * b + i) % self.data.len());
                xs.extend_from_slice(f);
                ys.push(l);
            }
            tr.open(n.grads);
            let (loss, g) = self.workers[w].loss_and_grads(&xs, &ys);
            tr.close();
            loss_sum += loss;
            grads.push(g);
        }
        self.cursor = (self.cursor + world * b) % self.data.len();
        tr.open(reduce);
        let reduced = self.perseus.allreduce_step(grads);
        tr.close();
        let flat: Vec<f32> = reduced.into_iter().flatten().collect();
        for (model, opt) in self.workers.iter_mut().zip(&mut self.optimizers) {
            tr.open(n.copy);
            let mut params = model.params_flat();
            tr.close();
            tr.open(n.sgd);
            opt.step(&mut params, &flat);
            tr.close();
            tr.open(n.copy);
            model.set_params_flat(&params);
            tr.close();
        }
        tr.close();
        loss_sum / world as f64
    }

    /// One untraced step; returns the mean loss across workers.
    pub fn step(&mut self) -> f64 {
        let mut off = Tracer::new(false);
        let n = Names::new(&mut off);
        let reduce = off.name(SCHEMES[0].2);
        self.step_traced(&mut off, &n, reduce)
    }

    /// Exact wire bytes of the last step, per worker.
    pub fn last_step_wire_bytes(&self) -> u64 {
        self.perseus.last_step_wire_bytes()
    }
}

/// One scheme's steps on one side (library or replica).
#[derive(Debug, Default)]
struct Steps {
    /// Loss bits and wire bytes of every step, warm-up first.
    outputs: Vec<(u64, u64)>,
    /// Wall time of every timed step.
    walls: Vec<f64>,
    /// Peak resident set when the digest-checked steps were done, MiB.
    rss_mib: f64,
}

impl Steps {
    fn digests(&self, suffix: &str) -> [Digest; 2] {
        let loss = self.outputs[..=DIGEST_STEPS]
            .iter()
            .fold(FNV_BASIS, |h, &(bits, _)| fnv1a(h, &bits.to_le_bytes()));
        let covers = DIGEST_STEPS as u64;
        [
            Digest { key: format!("loss_bits.{suffix}"), value: format!("{loss:016x}"), covers },
            Digest {
                key: format!("wire_bytes.{suffix}"),
                value: self.outputs[0].1.to_string(),
                covers,
            },
        ]
    }
}

/// Runs one untimed step and then timed ones through `step` (told whether
/// the step is timed): `steps` of them, or with `None` at least
/// `DIGEST_STEPS` and then until `budget_s` has passed.
fn drive(budget_s: f64, steps: Option<usize>, mut step: impl FnMut(bool) -> (f64, u64)) -> Steps {
    let mut s = Steps::default();
    let (loss, wire) = step(false);
    s.outputs.push((loss.to_bits(), wire));
    let started = Instant::now();
    loop {
        let done = s.walls.len();
        let more = match steps {
            Some(n) => done < n,
            None => done < DIGEST_STEPS || started.elapsed().as_secs_f64() < budget_s,
        };
        if !more {
            return s;
        }
        let t = Instant::now();
        let (loss, wire) = step(true);
        s.walls.push(t.elapsed().as_secs_f64());
        s.outputs.push((loss.to_bits(), wire));
        if s.walls.len() == DIGEST_STEPS {
            s.rss_mib = peak_rss_mib();
        }
    }
}

/// Repeats `timed_call` (which returns the seconds of its timed part) for
/// at least three calls and a quarter second, and returns `bytes` per call
/// over the time measured, GB/s.
fn rate_gbps(bytes: usize, mut timed_call: impl FnMut() -> f64) -> f64 {
    let (mut spent, mut calls) = (0.0, 0);
    while calls < 3 || spent < 0.25 {
        spent += timed_call();
        calls += 1;
    }
    (bytes * calls) as f64 / spent / 1e9
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let jobs = SCHEMES.map(|(s, _, _)| job(&LAYERS, WORLD, BATCH_PER_WORKER, s, cfg.seed));
    let (setup_s, first) = time_setup(|| DataParallelTrainer::new(jobs[0].clone()));
    let layout = first.model().param_layout();
    let mut first = Some(first);
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    let names = Names::new(&mut tr);
    // Traced runs time the library and the replica on each scheme, so each
    // side gets half the budget.
    let budget = cfg.seconds / SCHEMES.len() as f64 / if cfg.trace { 2.0 } else { 1.0 };

    let (mut medians, mut plain_medians, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_wall = 0.0;
    let mut rss = 0.0;
    for (job, (scheme, suffix, span)) in jobs.iter().zip(SCHEMES) {
        let mut trainer = first.take().unwrap_or_else(|| DataParallelTrainer::new(job.clone()));
        let lib = drive(budget, None, |_| (trainer.step(), trainer.last_step_wire_bytes()));
        drop(trainer);
        let expected = expected_wire_bytes(&layout, scheme);
        let bad = lib
            .outputs
            .iter()
            .skip(1)
            .filter(|&&(l, w)| !f64::from_bits(l).is_finite() || w != expected)
            .count() as u64;
        if bad > 0 {
            out.fail(
                bad,
                format!("{suffix}: {bad} steps with a non-finite loss or wrong wire bytes"),
            );
        }
        out.attempted += lib.walls.len() as u64;
        plain_medians.push(median(&lib.walls));

        let side = if cfg.trace {
            let reduce = tr.name(span);
            let mut replica = Replica::new(job);
            let rep = drive(budget, Some(lib.walls.len()), |timed| {
                tr.set_enabled(timed);
                let loss = replica.step_traced(&mut tr, &names, reduce);
                tr.set_enabled(false);
                (loss, replica.last_step_wire_bytes())
            });
            traced_wall += rep.walls.iter().sum::<f64>();
            let diverged = lib.outputs.iter().zip(&rep.outputs).filter(|(a, b)| a != b).count();
            if diverged > 0 {
                out.fail(
                    diverged as u64,
                    format!("{suffix}: replica diverged on {diverged} steps"),
                );
            }
            out.attempted += rep.walls.len() as u64;
            let wire = rep.outputs[0].1 as f64;
            out.layers.push(Metric::new(format!("core.wire_bytes_per_step.{suffix}"), wire, "B"));
            rep
        } else {
            lib
        };
        out.digests.extend(side.digests(suffix));
        // The last scheme's reading: the peak over every scheme's
        // digest-checked steps.
        rss = side.rss_mib;
        medians.push(median(&side.walls));
        walls.extend(side.walls);
    }

    // A round is one step of each scheme, built from per-scheme medians.
    let round: f64 = medians.iter().sum();
    let schemes = SCHEMES.len() as f64;
    out.e2e = e2e_metrics(setup_s, schemes / round, rss);
    out.info.extend(op_info(round / schemes * 1e3, &walls));
    for ((_, suffix, _), m) in SCHEMES.iter().zip(&medians) {
        out.info.push(Metric::new(format!("op_ms_p50.{suffix}"), m * 1e3, "ms"));
    }
    if cfg.trace {
        layer_shares(&tr, traced_wall, &mut out);
        let plain_round: f64 = plain_medians.iter().sum();
        out.layers.push(Metric::new("trace.overhead_ratio", round / plain_round, "ratio"));
        out.layers.extend(rate_metrics(cfg.seed));
    }
    out
}

/// Rates measured after the timed steps: the codecs and the exact ring on
/// worker 0's first gradient, and plain single-worker training of the same
/// task (the baseline the distributed run is compared with).
fn rate_metrics(seed: u64) -> Vec<Metric> {
    let data = Dataset::gaussian_blobs(4096, LAYERS[0], LAYERS[3], seed ^ 0xDA7A);
    let model = Mlp::new(&MlpConfig::new(LAYERS.to_vec(), seed));
    let b = BATCH_PER_WORKER;
    let (_, grads) = model.loss_and_grads(&data.features[..b * data.dim], &data.labels[..b]);
    let grad: Vec<f32> = grads.into_iter().flatten().collect();
    let bytes = 4 * grad.len();

    let mut out = Vec::new();
    for (scheme, suffix, _) in &SCHEMES[1..] {
        let gbps = rate_gbps(bytes, || {
            let t = Instant::now();
            black_box(scheme.decompress(&scheme.compress(black_box(&grad))));
            t.elapsed().as_secs_f64()
        });
        out.push(Metric::new(format!("compress.{suffix}_gbps"), gbps, "GB/s"));
    }
    let mut bufs = vec![Vec::new(); WORLD];
    let ring = rate_gbps(bytes * WORLD, || {
        for buf in bufs.iter_mut() {
            buf.clone_from(&grad);
        }
        let t = Instant::now();
        ring_allreduce(black_box(&mut bufs), ReduceOp::Sum);
        t.elapsed().as_secs_f64()
    });
    out.push(Metric::new("collectives.ring_allreduce_gbps", ring, "GB/s"));

    let mut single = DataParallelTrainer::new(job(&LAYERS, 1, WORLD * b, Scheme::None, seed));
    let steps = drive(0.0, Some(DIGEST_STEPS), |_| (single.step(), 0));
    out.push(Metric::new("trainer.single_worker_steps_per_s", 1.0 / median(&steps.walls), "1/s"));
    out
}
