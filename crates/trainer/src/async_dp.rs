//! Asynchronous data parallelism (paper §I, footnote 1: supported by
//! AIACC-Training alongside the synchronous mode this reproduction focuses
//! on).
//!
//! In asynchronous SGD, workers do not wait for a global all-reduce: each
//! pushes its gradient to the parameter state and immediately pulls the
//! latest parameters — which may already include other workers' updates, and
//! may be *stale* relative to what the gradient was computed on. This module
//! simulates the scheme deterministically with a configurable staleness
//! bound so its convergence behaviour can be compared against the
//! synchronous trainer.

use aiacc_dnn::data::Dataset;
use aiacc_dnn::{Mlp, MlpConfig};
use aiacc_optim::{Optimizer, Sgd};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of an asynchronous data-parallel job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// MLP layer widths.
    pub layer_sizes: Vec<usize>,
    /// Workers.
    pub world: usize,
    /// Per-worker minibatch.
    pub batch_per_worker: usize,
    /// Learning rate.
    pub lr: f64,
    /// Staleness bound: a gradient is computed against parameters that are
    /// this many updates old (0 = each update sees the freshest state, i.e.
    /// serialized Hogwild-style async; larger = slower workers).
    pub staleness: usize,
    /// Weight-init / data seed.
    pub seed: u64,
}

impl AsyncConfig {
    /// A small default job.
    ///
    /// # Panics
    /// Panics if `world` or `batch_per_worker` is zero.
    pub fn new(layer_sizes: Vec<usize>, world: usize, batch_per_worker: usize) -> Self {
        assert!(world > 0 && batch_per_worker > 0, "degenerate configuration");
        AsyncConfig { layer_sizes, world, batch_per_worker, lr: 0.05, staleness: 0, seed: 17 }
    }

    /// Sets the staleness bound.
    pub fn with_staleness(mut self, staleness: usize) -> Self {
        self.staleness = staleness;
        self
    }
}

/// The asynchronous trainer: one shared parameter state, updates applied in
/// a deterministic round-robin worker order, gradients computed against a
/// bounded-stale snapshot.
#[derive(Debug, Clone)]
pub struct AsyncDataParallelTrainer {
    config: AsyncConfig,
    model: Mlp,
    optimizer: Sgd,
    /// Ring of recent parameter versions for staleness lookups.
    history: VecDeque<Vec<f32>>,
    data: Dataset,
    update_count: u64,
}

impl AsyncDataParallelTrainer {
    /// Builds the job with a synthetic dataset.
    pub fn new(config: AsyncConfig) -> Self {
        let dim = config.layer_sizes[0];
        let classes = *config.layer_sizes.last().expect("layers");
        let data = Dataset::gaussian_blobs(4096, dim, classes, config.seed ^ 0xA5A5);
        let model = Mlp::new(&MlpConfig::new(config.layer_sizes.clone(), config.seed));
        let mut history = VecDeque::with_capacity(config.staleness + 1);
        history.push_back(model.params().to_vec());
        let optimizer = Sgd::new(config.lr);
        AsyncDataParallelTrainer { config, model, optimizer, history, data, update_count: 0 }
    }

    /// Updates applied so far (each worker push is one update).
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// The live model.
    pub fn model(&self) -> &Mlp {
        &self.model
    }

    /// One asynchronous *round*: every worker pushes one gradient, each
    /// computed against a snapshot `staleness` updates old. Returns the mean
    /// loss of the round.
    pub fn round(&mut self) -> f64 {
        let b = self.config.batch_per_worker;
        let dim = self.data.dim;
        let mut loss_sum = 0.0;
        for w in 0..self.config.world {
            // The stale snapshot this worker computed against.
            let lag = self.config.staleness.min(self.history.len() - 1);
            let mut stale_model = self.model.clone();
            stale_model.set_params_flat(&self.history[self.history.len() - 1 - lag]);

            let step = self.update_count as usize;
            let mut xs = Vec::with_capacity(b * dim);
            let mut ys = Vec::with_capacity(b);
            for i in 0..b {
                let idx = (step * b + w * 131 + i) % self.data.len();
                let (f, l) = self.data.sample(idx);
                xs.extend_from_slice(f);
                ys.push(l);
            }
            let (loss, grads) = stale_model.loss_and_grads(&xs, &ys);
            loss_sum += loss;

            // Apply to the LIVE parameters (the defining async property).
            let flat: Vec<f32> = grads.into_iter().flatten().collect();
            self.optimizer.step(self.model.params_mut(), &flat);
            self.update_count += 1;

            self.history.push_back(self.model.params().to_vec());
            while self.history.len() > self.config.staleness + 1 {
                self.history.pop_front();
            }
        }
        loss_sum / self.config.world as f64
    }

    /// Runs `rounds` rounds; returns per-round mean losses.
    pub fn train(&mut self, rounds: usize) -> Vec<f64> {
        (0..rounds).map(|_| self.round()).collect()
    }

    /// Accuracy of the live model.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        self.model.accuracy(&data.features, &data.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_async_converges() {
        let mut t = AsyncDataParallelTrainer::new(AsyncConfig::new(vec![4, 16, 3], 4, 8));
        let losses = t.train(60);
        assert!(losses[59] < losses[0] * 0.5, "{} -> {}", losses[0], losses[59]);
        let test = Dataset::gaussian_blobs(500, 4, 3, 99);
        assert!(t.accuracy(&test) > 0.8, "accuracy {}", t.accuracy(&test));
    }

    #[test]
    fn bounded_staleness_still_converges() {
        let mut t =
            AsyncDataParallelTrainer::new(AsyncConfig::new(vec![4, 16, 3], 4, 8).with_staleness(4));
        let losses = t.train(80);
        assert!(losses[79] < losses[0] * 0.6, "{} -> {}", losses[0], losses[79]);
    }

    #[test]
    fn extreme_staleness_hurts() {
        let run = |staleness| {
            let mut t = AsyncDataParallelTrainer::new(
                AsyncConfig {
                    lr: 0.4, // high rate amplifies the staleness penalty
                    ..AsyncConfig::new(vec![4, 16, 3], 4, 8)
                }
                .with_staleness(staleness),
            );
            let losses = t.train(50);
            losses[40..].iter().sum::<f64>() / 10.0
        };
        let fresh = run(0);
        let stale = run(24);
        assert!(stale > fresh, "staleness should slow convergence: fresh {fresh} vs stale {stale}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut t = AsyncDataParallelTrainer::new(AsyncConfig::new(vec![3, 8, 2], 3, 4));
            t.train(10);
            t.model().params_flat()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn update_count_tracks_pushes() {
        let mut t = AsyncDataParallelTrainer::new(AsyncConfig::new(vec![3, 8, 2], 5, 4));
        t.train(3);
        assert_eq!(t.update_count(), 15);
    }
}
