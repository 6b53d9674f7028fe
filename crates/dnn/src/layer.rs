//! Layer and parameter specifications for model profiles.

/// Coarse layer family; used for workload characterization and the
/// graph-similarity signature consumed by the auto-tuner warm-start cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv2d,
    /// Fully connected / linear layer.
    Dense,
    /// Normalization (batch / layer norm).
    Norm,
    /// Embedding lookup table.
    Embedding,
    /// Multi-head attention block.
    Attention,
    /// Parameter-free activation / pooling / reshape.
    Stateless,
}

/// One trainable parameter of a layer (weight, bias, …).
///
/// Each `ParamSpec` produces exactly one gradient tensor during backward
/// propagation — the unit of registration and communication in
/// AIACC-Training (§V-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamSpec {
    /// Parameter name, unique within its layer (e.g. `"weight"`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
}

impl ParamSpec {
    /// Creates a parameter with the given shape.
    pub fn new(name: impl Into<String>, shape: Vec<usize>) -> Self {
        ParamSpec { name: name.into(), shape }
    }

    /// Total number of elements.
    pub fn elems(&self) -> usize {
        self.shape.iter().product()
    }
}

/// One layer of a model profile.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name, unique within the model (e.g. `"conv3_2"`).
    pub name: String,
    /// Layer family.
    pub kind: LayerKind,
    /// Trainable parameters, in registration order.
    pub params: Vec<ParamSpec>,
    /// Forward-pass floating point operations per training sample.
    pub fwd_flops_per_sample: f64,
}

impl LayerSpec {
    /// Creates a layer.
    ///
    /// # Panics
    /// Panics if `fwd_flops_per_sample` is negative or not finite.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        params: Vec<ParamSpec>,
        fwd_flops_per_sample: f64,
    ) -> Self {
        assert!(fwd_flops_per_sample.is_finite() && fwd_flops_per_sample >= 0.0, "invalid flops");
        LayerSpec { name: name.into(), kind, params, fwd_flops_per_sample }
    }

    /// Total trainable elements in this layer.
    pub fn param_elems(&self) -> usize {
        self.params.iter().map(ParamSpec::elems).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_elems_is_shape_product() {
        let p = ParamSpec::new("weight", vec![64, 3, 7, 7]);
        assert_eq!(p.elems(), 64 * 3 * 7 * 7);
    }

    #[test]
    fn scalarless_shape_is_one() {
        // An empty shape denotes a scalar parameter.
        assert_eq!(ParamSpec::new("s", vec![]).elems(), 1);
    }

    #[test]
    fn layer_sums_params() {
        let l = LayerSpec::new(
            "fc",
            LayerKind::Dense,
            vec![ParamSpec::new("w", vec![10, 4]), ParamSpec::new("b", vec![10])],
            800.0,
        );
        assert_eq!(l.param_elems(), 50);
    }

    #[test]
    #[should_panic(expected = "invalid flops")]
    fn negative_flops_rejected() {
        let _ = LayerSpec::new("x", LayerKind::Stateless, vec![], -1.0);
    }
}
