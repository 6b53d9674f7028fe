//! Real data-parallel training through the exact collectives (data plane),
//! with fault tolerance and elastic scaling (§IV).

use aiacc_compress::{ErrorFeedback, Scheme};
use aiacc_core::{Perseus, PerseusConfig};
use aiacc_dnn::data::Dataset;
use aiacc_dnn::{Mlp, MlpConfig};
use aiacc_optim::schedule::LinearDecay;
use aiacc_optim::{Optimizer, Sgd};
use aiacc_simnet::par;

/// Configuration of a real data-parallel training job.
#[derive(Debug, Clone, PartialEq)]
pub struct DataParallelConfig {
    /// MLP layer widths.
    pub layer_sizes: Vec<usize>,
    /// Workers (simulated GPUs).
    pub world: usize,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Base learning rate.
    pub lr: f64,
    /// Linear-decay horizon in steps (AIACC uses linear decay, §IV);
    /// `None` = constant rate.
    pub decay_steps: Option<u64>,
    /// Gradient compression scheme on the (simulated) wire.
    pub compress: Scheme,
    /// Weight-init and data seed.
    pub seed: u64,
}

impl DataParallelConfig {
    /// A small default job.
    ///
    /// # Panics
    /// Panics if `world` or `batch_per_worker` is zero.
    pub fn new(layer_sizes: Vec<usize>, world: usize, batch_per_worker: usize) -> Self {
        assert!(world > 0 && batch_per_worker > 0, "degenerate configuration");
        DataParallelConfig {
            layer_sizes,
            world,
            batch_per_worker,
            lr: 0.1,
            decay_steps: None,
            compress: Scheme::None,
            seed: 42,
        }
    }
}

/// Statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean training loss per step.
    pub losses: Vec<f64>,
    /// Steps executed.
    pub steps: u64,
}

/// A restartable snapshot of the training state (§IV fault tolerance:
/// "restart the training process from the last checkpoint upon node
/// failure").
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    config: DataParallelConfig,
    params: Vec<f32>,
    optimizer: Sgd,
    step: u64,
    /// Dataset position of the next step's first sample.
    cursor: usize,
    /// Perseus's error-feedback residuals, `[worker][unit]`: what the lossy
    /// codecs dropped and will re-inject. Empty in checkpoints written
    /// before residuals were saved, which restore with fresh residuals.
    error_feedback: Vec<Vec<ErrorFeedback>>,
}

/// Trains a real [`Mlp`] across `world` workers: every step shards the
/// batch, computes real gradients per worker, aggregates them through the
/// exact ring all-reduce, and applies the same optimizer update everywhere.
///
/// Every worker receives the same reduced gradient and applies the same
/// update to the same parameters, so the replicas never differ; the
/// trainer holds that one model and one optimizer and runs every worker's
/// shard through it. The numerical invariant — data-parallel training
/// equals single-worker training on the combined batch — is enforced by
/// tests.
///
/// Workers' shards fan out through `par::map_mut`, one index per worker,
/// each writing only its own gradient buffer and loss lane; the losses are
/// summed in worker order afterwards, so a step's output does not depend
/// on the thread count.
#[derive(Debug, Clone)]
pub struct DataParallelTrainer {
    config: DataParallelConfig,
    model: Mlp,
    optimizer: Sgd,
    perseus: Perseus,
    data: Dataset,
    step: u64,
    cursor: usize,
    /// One flat gradient per worker, reused every step; allocated by the
    /// first step, so building a trainer stays cheap.
    grads: Vec<Vec<f32>>,
    /// The aggregated gradient the optimizer consumes.
    reduced: Vec<f32>,
}

impl DataParallelTrainer {
    /// Builds the job with a synthetic Gaussian-blob dataset.
    pub fn new(config: DataParallelConfig) -> Self {
        let dim = config.layer_sizes[0];
        let classes = *config.layer_sizes.last().expect("layers");
        let data = Dataset::gaussian_blobs(4096, dim, classes, config.seed ^ 0xDA7A);
        Self::with_dataset(config, data)
    }

    /// Builds the job over a caller-provided dataset.
    ///
    /// # Panics
    /// Panics if the dataset dimensionality disagrees with the model input.
    pub fn with_dataset(config: DataParallelConfig, data: Dataset) -> Self {
        assert_eq!(data.dim, config.layer_sizes[0], "dataset/model dim mismatch");
        let model = Mlp::new(&MlpConfig::new(config.layer_sizes.clone(), config.seed));
        let optimizer = Sgd::new(config.lr).with_momentum(0.9);
        let perseus = Perseus::new(
            &model.param_layout(),
            PerseusConfig::new(config.world).with_compress(config.compress),
        );
        DataParallelTrainer {
            config,
            model,
            optimizer,
            perseus,
            data,
            step: 0,
            cursor: 0,
            grads: Vec::new(),
            reduced: Vec::new(),
        }
    }

    /// The job configuration.
    pub fn config(&self) -> &DataParallelConfig {
        &self.config
    }

    /// Steps executed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The model every worker holds a replica of.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    fn current_lr(&self) -> f64 {
        match self.config.decay_steps {
            Some(total) => {
                LinearDecay::new(self.config.lr, self.config.lr * 0.01, total).lr_at(self.step)
            }
            None => self.config.lr,
        }
    }

    /// One synchronous data-parallel step; returns the mean loss across
    /// workers.
    pub fn step(&mut self) -> f64 {
        let world = self.config.world;
        let b = self.config.batch_per_worker;
        if self.grads.is_empty() {
            let n = self.model.num_params();
            self.grads = vec![vec![0.0; n]; world];
            self.reduced = vec![0.0; n];
        }
        // Every worker draws its shard of the global batch (strided layout,
        // wrapping over the dataset).
        let (model, data, cursor) = (&self.model, &self.data, self.cursor);
        let losses = par::map_mut(&mut self.grads, par::jobs(), |w, grad| {
            let mut xs = Vec::with_capacity(b * data.dim);
            let mut ys = Vec::with_capacity(b);
            for i in 0..b {
                let (f, l) = data.sample((cursor + w * b + i) % data.len());
                xs.extend_from_slice(f);
                ys.push(l);
            }
            model.loss_and_grads_into(&xs, &ys, grad)
        });
        let loss_sum = losses.iter().fold(0.0, |sum, l| sum + l);
        self.cursor = (self.cursor + world * b) % self.data.len();

        // Aggregate through the exact ring all-reduce (averaged).
        self.perseus.allreduce_flat(&mut self.grads, &mut self.reduced);

        self.optimizer.set_lr(self.current_lr());
        self.optimizer.step(self.model.params_mut(), &self.reduced);
        self.step += 1;
        loss_sum / world as f64
    }

    /// Runs `steps` steps.
    pub fn train(&mut self, steps: u64) -> TrainStats {
        let losses = (0..steps).map(|_| self.step()).collect();
        TrainStats { losses, steps: self.step }
    }

    /// Accuracy of the replicated model on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        self.model.accuracy(&data.features, &data.labels)
    }

    /// Exact compressed bytes one worker put on the wire in the most recent
    /// step (measured from the actual payloads, not modeled).
    pub fn last_step_wire_bytes(&self) -> u64 {
        self.perseus.last_step_wire_bytes()
    }

    /// Snapshots the training state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            config: self.config.clone(),
            params: self.model.params_flat(),
            optimizer: self.optimizer.clone(),
            step: self.step,
            cursor: self.cursor,
            error_feedback: self.perseus.error_feedback(),
        }
    }

    /// Restarts a job from a checkpoint — the §IV node-failure recovery
    /// path. The dataset is rebuilt deterministically from the
    /// configuration; the data cursor comes from the checkpoint, since
    /// steps taken before a scale-out advanced it by a smaller world, and
    /// so do the error-feedback residuals of a lossy wire.
    ///
    /// # Panics
    /// Panics if the checkpoint's residuals do not fit its configuration.
    pub fn restore(ckpt: Checkpoint) -> Self {
        let mut t = DataParallelTrainer::new(ckpt.config);
        t.model.set_params_flat(&ckpt.params);
        t.optimizer = ckpt.optimizer;
        t.step = ckpt.step;
        t.cursor = ckpt.cursor;
        if !ckpt.error_feedback.is_empty() {
            t.perseus.restore_error_feedback(ckpt.error_feedback);
        }
        t
    }

    /// Elastic scale-out (§IV): adds `extra` workers and re-opens the
    /// communication session at the larger world size. A newcomer starts
    /// from a broadcast of the current parameters, which is the shared
    /// model itself.
    ///
    /// # Panics
    /// Panics if `extra` is zero.
    pub fn scale_out(&mut self, extra: usize) {
        assert!(extra > 0, "must add at least one worker");
        // Momentum state is reset after a membership change, exactly like
        // a framework re-init: the newcomers have none to share.
        self.optimizer = Sgd::new(self.current_lr()).with_momentum(0.9);
        self.config.world += extra;
        self.perseus = Perseus::new(
            &self.model.param_layout(),
            PerseusConfig::new(self.config.world).with_compress(self.config.compress),
        );
        if !self.grads.is_empty() {
            let n = self.model.num_params();
            self.grads.resize_with(self.config.world, || vec![0.0; n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(world: usize) -> DataParallelConfig {
        DataParallelConfig::new(vec![4, 16, 3], world, 8)
    }

    #[test]
    fn loss_decreases() {
        let mut t = DataParallelTrainer::new(config(4));
        let stats = t.train(60);
        let head: f64 = stats.losses[..10].iter().sum::<f64>() / 10.0;
        let tail: f64 = stats.losses[50..].iter().sum::<f64>() / 10.0;
        assert!(tail < head * 0.5, "loss {head} -> {tail}");
    }

    #[test]
    fn distributed_equals_single_worker_large_batch() {
        // THE data-parallel invariant: W workers × batch b with averaged
        // gradients == 1 worker × batch W·b, step for step.
        let mut multi = DataParallelTrainer::new(config(4));
        let mut single = DataParallelTrainer::new(DataParallelConfig::new(
            vec![4, 16, 3],
            1,
            32, // 4 × 8
        ));
        for _ in 0..5 {
            multi.step();
            single.step();
        }
        let a = multi.model().params_flat();
        let b = single.model().params_flat();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 2e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut t = DataParallelTrainer::new(config(2));
        t.train(10);
        let ckpt = t.checkpoint();
        let continued: Vec<f64> = (0..5).map(|_| t.step()).collect();
        let mut restored = DataParallelTrainer::restore(ckpt);
        let replayed: Vec<f64> = (0..5).map(|_| restored.step()).collect();
        assert_eq!(continued, replayed, "restart diverged from original run");
        assert_eq!(t.model().params_flat(), restored.model().params_flat());
    }

    #[test]
    fn restore_resumes_lossy_wire_runs_bit_for_bit() {
        // The error-feedback residuals are training state: without them a
        // restored run re-injects nothing at its first lossy step.
        for scheme in [Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 8 }] {
            let mut cfg = DataParallelConfig::new(vec![8, 16, 3], 2, 4);
            cfg.compress = scheme;
            let mut t = DataParallelTrainer::new(cfg);
            t.train(5);
            let ckpt = t.checkpoint();
            let continued: Vec<u64> = (0..4).map(|_| t.step().to_bits()).collect();
            let mut restored = DataParallelTrainer::restore(ckpt);
            let replayed: Vec<u64> = (0..4).map(|_| restored.step().to_bits()).collect();
            assert_eq!(continued, replayed, "{scheme}: restart diverged from original run");
            assert_eq!(t.model().params(), restored.model().params(), "{scheme}: parameters");
        }
    }

    #[test]
    fn restore_after_scale_out_resumes_from_the_same_data() {
        // Steps taken before a scale-out advanced the data cursor by the
        // old world size, so the cursor cannot be recomputed from the step
        // count at the new one.
        let mut t = DataParallelTrainer::new(config(2));
        t.train(7);
        t.scale_out(1);
        t.train(3);
        let ckpt = t.checkpoint();
        let continued: Vec<u64> = (0..4).map(|_| t.step().to_bits()).collect();
        let mut restored = DataParallelTrainer::restore(ckpt);
        let replayed: Vec<u64> = (0..4).map(|_| restored.step().to_bits()).collect();
        assert_eq!(continued, replayed, "restart diverged from original run");
        assert_eq!(t.model().params(), restored.model().params());
    }

    #[test]
    fn elastic_scale_out_keeps_model_and_trains_on() {
        let mut t = DataParallelTrainer::new(config(2));
        t.train(20);
        let before = t.model().params_flat();
        let acc_before = t.accuracy(&Dataset::gaussian_blobs(512, 4, 3, 9));
        t.scale_out(2);
        assert_eq!(t.config().world, 4);
        assert_eq!(t.model().params_flat(), before, "scale-out changed the model");
        // New workers participate and training keeps improving (or at least
        // does not diverge).
        t.train(30);
        let acc_after = t.accuracy(&Dataset::gaussian_blobs(512, 4, 3, 9));
        assert!(acc_after >= acc_before - 0.05, "{acc_before} -> {acc_after}");
    }

    #[test]
    fn linear_decay_reduces_effective_lr() {
        let mut cfg = config(2);
        cfg.decay_steps = Some(100);
        let mut t = DataParallelTrainer::new(cfg);
        let lr0 = t.current_lr();
        t.train(50);
        let lr50 = t.current_lr();
        assert!(lr50 < lr0 * 0.6, "{lr0} -> {lr50}");
    }

    #[test]
    fn compression_still_converges() {
        for scheme in [Scheme::Fp16, Scheme::Int8, Scheme::TopK { ratio: 8 }] {
            let mut cfg = config(4);
            cfg.compress = scheme;
            let mut t = DataParallelTrainer::new(cfg);
            let stats = t.train(60);
            assert!(
                stats.losses[59] < stats.losses[0] * 0.5,
                "{scheme}: {} -> {}",
                stats.losses[0],
                stats.losses[59]
            );
        }
    }

    #[test]
    fn accuracy_reaches_high_on_separable_blobs() {
        let mut t = DataParallelTrainer::new(config(4));
        t.train(150);
        let test = Dataset::gaussian_blobs(1000, 4, 3, 777);
        let acc = t.accuracy(&test);
        assert!(acc > 0.9, "accuracy {acc}");
    }
}
