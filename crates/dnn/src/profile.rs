//! Model profiles: what the communication layers need to know about a DNN.

use crate::dtype::DType;
use crate::layer::{LayerKind, LayerSpec};
use std::fmt;

/// Identifier of one gradient tensor within a model, assigned during
/// gradient registration (AIACC-Training §V-A1: parameters are sorted and
/// given a unique index in the gradient synchronization vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GradId(pub u32);

impl GradId {
    /// The raw index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GradId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grad#{}", self.0)
    }
}

/// What one training sample means for throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleUnit {
    /// Images (CV models; throughput in images/s).
    Images,
    /// Token sequences (NLP models; throughput in sequences/s).
    Sequences,
    /// Click/log records (recommendation models).
    Records,
}

impl fmt::Display for SampleUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleUnit::Images => write!(f, "images"),
            SampleUnit::Sequences => write!(f, "sequences"),
            SampleUnit::Records => write!(f, "records"),
        }
    }
}

/// Static description of one gradient to be communicated.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientSpec {
    /// Registration index (also the synchronization-vector slot).
    pub id: GradId,
    /// Index of the producing layer in [`ModelProfile::layers`].
    pub layer_idx: usize,
    /// `"<layer>.<param>"`.
    pub name: String,
    /// Element count.
    pub elems: usize,
    /// Bytes on the wire at the chosen dtype.
    pub bytes: f64,
    /// Fraction of backward-pass time elapsed when this gradient is ready
    /// (0 = immediately, 1 = at the very end of backward).
    pub ready_frac: f64,
}

/// A layer-accurate description of a DNN training workload.
///
/// The profile carries everything the simulated communication stack needs:
/// gradient sizes and production order/timing, compute cost, and a coarse
/// occupancy estimate controlling how many concurrent communication CUDA
/// streams the GPU can sustain during backward (§VIII-A).
///
/// # Example
/// ```
/// use aiacc_dnn::{DType, ModelProfile, LayerSpec, LayerKind, ParamSpec};
/// let model = ModelProfile::new(
///     "tiny",
///     vec![LayerSpec::new(
///         "fc",
///         LayerKind::Dense,
///         vec![ParamSpec::new("w", vec![4, 2]), ParamSpec::new("b", vec![4])],
///         16.0,
///     )],
///     aiacc_dnn::SampleUnit::Images,
///     0.5,
///     32,
/// );
/// assert_eq!(model.num_params(), 12);
/// assert_eq!(model.gradients(DType::F32).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    name: String,
    layers: Vec<LayerSpec>,
    sample_unit: SampleUnit,
    compute_occupancy: f64,
    default_batch_per_gpu: usize,
}

impl ModelProfile {
    /// Creates a profile.
    ///
    /// `compute_occupancy` is the fraction of GPU execution resources (SMs)
    /// the backward pass keeps busy; the remainder is available for
    /// communication kernels. `default_batch_per_gpu` matches the evaluation
    /// setting of the paper (§VII-D follows BytePS's large-batch setting).
    ///
    /// # Panics
    /// Panics if the model has no parameters, occupancy is outside `(0, 1]`,
    /// or the batch size is zero.
    pub fn new(
        name: impl Into<String>,
        layers: Vec<LayerSpec>,
        sample_unit: SampleUnit,
        compute_occupancy: f64,
        default_batch_per_gpu: usize,
    ) -> Self {
        let p = ModelProfile {
            name: name.into(),
            layers,
            sample_unit,
            compute_occupancy,
            default_batch_per_gpu,
        };
        assert!(p.num_params() > 0, "model {} has no parameters", p.name);
        assert!(
            p.compute_occupancy > 0.0 && p.compute_occupancy <= 1.0,
            "occupancy must be in (0,1]"
        );
        assert!(p.default_batch_per_gpu > 0, "batch size must be positive");
        p
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers, input to output.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Throughput unit for reporting.
    pub fn sample_unit(&self) -> SampleUnit {
        self.sample_unit
    }

    /// Fraction of GPU compute resources busy during backward.
    pub fn compute_occupancy(&self) -> f64 {
        self.compute_occupancy
    }

    /// The per-GPU batch size used by the paper-style evaluation.
    pub fn default_batch_per_gpu(&self) -> usize {
        self.default_batch_per_gpu
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(LayerSpec::param_elems).sum()
    }

    /// Number of gradient tensors produced per backward pass (one per
    /// parameter tensor).
    pub fn num_gradients(&self) -> usize {
        self.layers.iter().map(|l| l.params.len()).sum()
    }

    /// Total gradient volume on the wire per iteration.
    pub fn grad_bytes(&self, dtype: DType) -> f64 {
        (self.num_params() * dtype.bytes_per_elem()) as f64
    }

    /// Forward-pass FLOPs per training sample.
    pub fn fwd_flops_per_sample(&self) -> f64 {
        self.layers.iter().map(|l| l.fwd_flops_per_sample).sum()
    }

    /// Backward-pass FLOPs per sample (standard 2× forward estimate).
    pub fn bwd_flops_per_sample(&self) -> f64 {
        2.0 * self.fwd_flops_per_sample()
    }

    /// Rescales every layer's FLOPs so the model total matches
    /// `target_fwd_flops` (used to pin zoo models to Table I's published
    /// numbers while keeping the structural per-layer distribution).
    ///
    /// # Panics
    /// Panics if the model currently reports zero FLOPs.
    pub fn normalized_to_flops(mut self, target_fwd_flops: f64) -> Self {
        let total = self.fwd_flops_per_sample();
        assert!(total > 0.0, "cannot normalize a zero-FLOP model");
        let k = target_fwd_flops / total;
        for l in &mut self.layers {
            l.fwd_flops_per_sample *= k;
        }
        self
    }

    /// The gradients in **production order** (reverse layer order, as emitted
    /// during backward propagation — §II-A), with ready-time fractions.
    ///
    /// A gradient's `ready_frac` is the fraction of backward-pass time that
    /// has elapsed when it is pushed to the gradient queue: backward walks
    /// layers from output to input, and each layer's cost is proportional to
    /// its FLOPs.
    pub fn gradients(&self, dtype: DType) -> Vec<GradientSpec> {
        // Registration ids are assigned in forward (registration) order:
        // parameters sorted by layer then param index (§V-A1). Production
        // order is the reverse.
        let mut next_id = 0u32;
        let mut ids: Vec<Vec<GradId>> = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            let mut v = Vec::with_capacity(l.params.len());
            for _ in &l.params {
                v.push(GradId(next_id));
                next_id += 1;
            }
            ids.push(v);
        }

        let total_bwd: f64 = self.layers.iter().map(|l| l.fwd_flops_per_sample).sum();
        let mut out = Vec::with_capacity(self.num_gradients());
        let mut cum = 0.0;
        for (layer_idx, l) in self.layers.iter().enumerate().rev() {
            cum += l.fwd_flops_per_sample;
            let frac = if total_bwd > 0.0 { cum / total_bwd } else { 1.0 };
            // Params within a layer are produced in reverse order too.
            for (pi, p) in l.params.iter().enumerate().rev() {
                out.push(GradientSpec {
                    id: ids[layer_idx][pi],
                    layer_idx,
                    name: format!("{}.{}", l.name, p.name),
                    elems: p.elems(),
                    bytes: (p.elems() * dtype.bytes_per_elem()) as f64,
                    ready_frac: frac.min(1.0),
                });
            }
        }
        out
    }

    /// Count of layers of each kind — the node-label histogram used by the
    /// auto-tuner's computation-graph signature.
    pub fn kind_histogram(&self) -> Vec<(LayerKind, usize)> {
        let kinds = [
            LayerKind::Conv2d,
            LayerKind::Dense,
            LayerKind::Norm,
            LayerKind::Embedding,
            LayerKind::Attention,
            LayerKind::Stateless,
        ];
        kinds
            .iter()
            .map(|&k| (k, self.layers.iter().filter(|l| l.kind == k).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamSpec;

    fn toy() -> ModelProfile {
        ModelProfile::new(
            "toy",
            vec![
                LayerSpec::new(
                    "a",
                    LayerKind::Conv2d,
                    vec![ParamSpec::new("w", vec![8]), ParamSpec::new("b", vec![2])],
                    30.0,
                ),
                LayerSpec::new("relu", LayerKind::Stateless, vec![], 0.0),
                LayerSpec::new("b", LayerKind::Dense, vec![ParamSpec::new("w", vec![10])], 70.0),
            ],
            SampleUnit::Images,
            0.5,
            8,
        )
    }

    #[test]
    fn counts() {
        let m = toy();
        assert_eq!(m.num_params(), 20);
        assert_eq!(m.num_gradients(), 3);
        assert_eq!(m.grad_bytes(DType::F32), 80.0);
        assert_eq!(m.grad_bytes(DType::F16), 40.0);
        assert_eq!(m.fwd_flops_per_sample(), 100.0);
        assert_eq!(m.bwd_flops_per_sample(), 200.0);
    }

    #[test]
    fn production_order_is_reverse_registration() {
        let m = toy();
        let grads = m.gradients(DType::F32);
        // Production: layer "b" first (id 2), then layer "a" params reversed
        // (bias id 1, weight id 0).
        let order: Vec<u32> = grads.iter().map(|g| g.id.0).collect();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(grads[0].name, "b.w");
        assert_eq!(grads[1].name, "a.b");
    }

    #[test]
    fn ready_fracs_monotone_and_bounded() {
        let m = toy();
        let grads = m.gradients(DType::F32);
        // Layer b: 70 of 100 flops done when its grads emerge.
        assert!((grads[0].ready_frac - 0.7).abs() < 1e-12);
        // Layer a grads at the end of backward.
        assert!((grads[1].ready_frac - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for g in &grads {
            assert!(g.ready_frac >= prev);
            prev = g.ready_frac;
        }
    }

    #[test]
    fn normalization_preserves_shape() {
        let m = toy().normalized_to_flops(1000.0);
        assert!((m.fwd_flops_per_sample() - 1000.0).abs() < 1e-9);
        // Layer ratios preserved: 30/70 split.
        assert!((m.layers()[0].fwd_flops_per_sample - 300.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_counts_kinds() {
        let h = toy().kind_histogram();
        assert!(h.contains(&(LayerKind::Conv2d, 1)));
        assert!(h.contains(&(LayerKind::Stateless, 1)));
    }

    #[test]
    #[should_panic(expected = "no parameters")]
    fn empty_model_rejected() {
        let _ = ModelProfile::new(
            "bad",
            vec![LayerSpec::new("x", LayerKind::Stateless, vec![], 1.0)],
            SampleUnit::Images,
            0.5,
            1,
        );
    }
}
