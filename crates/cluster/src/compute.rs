//! GPU compute timing: iteration phases, the gradient-ready schedule, and
//! the CUDA-stream concurrency limit.

use crate::spec::GpuSpec;
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::rng::mix64;
use aiacc_simnet::SimDuration;

/// Durations of one training iteration's compute phases on a single GPU,
/// plus the per-gradient ready schedule during backward.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTiming {
    /// Forward pass duration.
    pub forward: SimDuration,
    /// Backward pass duration.
    pub backward: SimDuration,
    /// Optimizer update duration.
    pub update: SimDuration,
    /// `(gradient, offset from backward start)` in production order
    /// (output layer first — §II-A).
    pub grad_ready: Vec<(GradId, SimDuration)>,
}

impl IterationTiming {
    /// Pure compute time of the iteration, excluding all communication.
    pub fn compute_total(&self) -> SimDuration {
        self.forward + self.backward + self.update
    }
}

/// Maps model profiles to compute durations on a given GPU.
///
/// # Example
/// ```
/// use aiacc_cluster::ComputeModel;
/// use aiacc_dnn::{zoo, DType};
/// let cm = ComputeModel::v100();
/// let t = cm.iteration_timing(&zoo::resnet50(), 128, DType::F32);
/// // ResNet-50 at batch 128 takes a few hundred ms on a V100.
/// let secs = t.compute_total().as_secs_f64();
/// assert!(secs > 0.1 && secs < 1.0, "got {secs}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeModel {
    gpu: GpuSpec,
}

/// SMs one communication kernel occupies (NCCL-style copy/reduce kernels are
/// small; two SMs per ring is a common rule of thumb).
const SMS_PER_COMM_KERNEL: f64 = 2.0;

impl ComputeModel {
    /// Creates a compute model for a GPU.
    pub fn new(gpu: GpuSpec) -> Self {
        ComputeModel { gpu }
    }

    /// Convenience: the paper's V100.
    pub fn v100() -> Self {
        ComputeModel::new(GpuSpec::v100())
    }

    /// The GPU being modelled.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Phase durations and gradient-ready schedule for one iteration of
    /// `model` at the given per-GPU batch size.
    ///
    /// Forward time is `batch × fwd_FLOPs / effective_FLOPS`; backward is the
    /// standard 2× estimate; gradients become ready at the cumulative-FLOPs
    /// fraction of backward recorded in the profile. The optimizer update is
    /// a bandwidth-bound elementwise pass over all parameters.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn iteration_timing(
        &self,
        model: &ModelProfile,
        batch: usize,
        dtype: DType,
    ) -> IterationTiming {
        assert!(batch > 0, "batch must be positive");
        let eff = self.gpu.effective_flops();
        let fwd_s = batch as f64 * model.fwd_flops_per_sample() / eff;
        let bwd_s = batch as f64 * model.bwd_flops_per_sample() / eff;
        // Update reads grad + param and writes param: ~8 flops-equivalents
        // per scalar, floor of 100 µs of kernel launch overhead.
        let upd_s = (model.num_params() as f64 * 8.0 / eff).max(100e-6);

        let grad_ready = model
            .gradients(dtype)
            .into_iter()
            .map(|g| (g.id, SimDuration::from_secs_f64(bwd_s * g.ready_frac)))
            .collect();

        IterationTiming {
            forward: SimDuration::from_secs_f64(fwd_s),
            backward: SimDuration::from_secs_f64(bwd_s),
            update: SimDuration::from_secs_f64(upd_s),
            grad_ready,
        }
    }

    /// How many communication CUDA streams the GPU can run concurrently while
    /// `model`'s backward pass is executing (§II-D, §VIII-A: compute-intensive
    /// models leave fewer SMs for communication kernels).
    pub fn max_comm_streams_during_compute(&self, model: &ModelProfile) -> usize {
        let free_sms = (1.0 - model.compute_occupancy()) * self.gpu.sm_count as f64;
        ((free_sms / SMS_PER_COMM_KERNEL).floor() as usize).clamp(1, 32)
    }

    /// Stream limit once backward has finished (the whole GPU is available).
    pub fn max_comm_streams_idle(&self) -> usize {
        ((self.gpu.sm_count as f64 / SMS_PER_COMM_KERNEL).floor() as usize).clamp(1, 32)
    }
}

/// Deterministic compute jitter: a multiplicative factor in
/// `[1 − frac, 1 + frac]` derived by hashing `(seed, worker, iteration)`.
///
/// Real clusters never run in lockstep; a little skew is what makes gradient
/// *synchronization* (agreeing on which gradients are ready everywhere,
/// §V-A) a non-trivial protocol. The SplitMix64 finalizer
/// ([`aiacc_simnet::rng::mix64`]) keeps it reproducible.
///
/// # Panics
/// Panics if `frac` is not in `[0, 1)`.
///
/// # Example
/// ```
/// let f = aiacc_cluster::jitter_factor(1, 0, 0, 0.05);
/// assert!(f >= 0.95 && f <= 1.05);
/// assert_eq!(f, aiacc_cluster::jitter_factor(1, 0, 0, 0.05));
/// ```
pub fn jitter_factor(seed: u64, worker: usize, iteration: u64, frac: f64) -> f64 {
    assert!((0.0..1.0).contains(&frac), "jitter fraction out of range");
    let x = mix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((worker as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(iteration.wrapping_mul(0x94D0_49BB_1331_11EB)),
    );
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + frac * (2.0 * unit - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn resnet50_throughput_plausible() {
        // ~350 images/s on a V100 at fp32 — the figure the scaling plots
        // normalize against.
        let cm = ComputeModel::v100();
        let t = cm.iteration_timing(&zoo::resnet50(), 128, DType::F32);
        let imgs_per_sec = 128.0 / t.compute_total().as_secs_f64();
        assert!((250.0..450.0).contains(&imgs_per_sec), "got {imgs_per_sec} img/s");
    }

    #[test]
    fn backward_is_twice_forward() {
        let cm = ComputeModel::v100();
        let t = cm.iteration_timing(&zoo::vgg16(), 32, DType::F32);
        let ratio = t.backward.as_secs_f64() / t.forward.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn grad_ready_monotone_within_backward() {
        let cm = ComputeModel::v100();
        let t = cm.iteration_timing(&zoo::resnet50(), 64, DType::F32);
        let mut prev = SimDuration::ZERO;
        for &(_, off) in &t.grad_ready {
            assert!(off >= prev);
            assert!(off <= t.backward);
            prev = off;
        }
        assert_eq!(t.grad_ready.len(), zoo::resnet50().num_gradients());
    }

    #[test]
    fn stream_limit_tracks_occupancy() {
        let cm = ComputeModel::v100();
        let light = cm.max_comm_streams_during_compute(&zoo::ctr_production());
        let mid = cm.max_comm_streams_during_compute(&zoo::resnet50());
        let heavy = cm.max_comm_streams_during_compute(&zoo::gpt2_xl());
        assert!(light > mid && mid > heavy, "{light} {mid} {heavy}");
        assert!(heavy >= 1);
        assert!(cm.max_comm_streams_idle() >= light);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for w in 0..20 {
            for it in 0..20 {
                let f = jitter_factor(7, w, it, 0.03);
                assert!((0.97..=1.03).contains(&f));
                assert_eq!(f, jitter_factor(7, w, it, 0.03));
            }
        }
        // Different workers actually differ.
        assert_ne!(jitter_factor(7, 0, 0, 0.03), jitter_factor(7, 1, 0, 0.03));
    }

    #[test]
    fn zero_jitter_is_identity() {
        assert_eq!(jitter_factor(1, 2, 3, 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let _ = ComputeModel::v100().iteration_timing(&zoo::tiny_cnn(), 0, DType::F32);
    }
}
