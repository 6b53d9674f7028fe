//! Gradient registration (§V-A1).

use aiacc_dnn::{DType, GradId, ModelProfile};

/// Static description of one registered gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientInfo {
    /// Registration index == synchronization-vector slot.
    pub id: GradId,
    /// `"<layer>.<param>"`.
    pub name: String,
    /// Element count.
    pub elems: usize,
    /// Bytes on the wire at the registry's dtype.
    pub bytes: f64,
}

/// The registered gradient set of a model.
///
/// Built when the model is loaded: parameters are sorted (here: layer order,
/// then parameter order — already canonical in [`ModelProfile`]) and assigned
/// a unique index used consistently by the synchronization vector and by
/// packing, so all workers implicitly agree on communication order (§V-B).
///
/// # Example
/// ```
/// use aiacc_core::GradientRegistry;
/// use aiacc_dnn::{zoo, DType, GradId};
/// let reg = GradientRegistry::from_profile(&zoo::tiny_cnn(), DType::F32);
/// let g = reg.get(GradId(0));
/// assert!(g.elems > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientRegistry {
    grads: Vec<GradientInfo>,
    dtype: DType,
    total_bytes: f64,
}

impl GradientRegistry {
    /// Registers every parameter tensor of `model` at wire dtype `dtype`.
    pub fn from_profile(model: &ModelProfile, dtype: DType) -> Self {
        let mut grads: Vec<GradientInfo> = model
            .gradients(dtype)
            .into_iter()
            .map(|g| GradientInfo { id: g.id, name: g.name, elems: g.elems, bytes: g.bytes })
            .collect();
        grads.sort_by_key(|g| g.id);
        let total_bytes = grads.iter().map(|g| g.bytes).sum();
        GradientRegistry { grads, dtype, total_bytes }
    }

    /// Builds a registry directly from `(name, elems)` pairs — used by the
    /// real-MLP path where there is no [`ModelProfile`].
    pub fn from_layout(layout: &[(String, usize)], dtype: DType) -> Self {
        let grads: Vec<GradientInfo> = layout
            .iter()
            .enumerate()
            .map(|(i, (name, elems))| GradientInfo {
                id: GradId(u32::try_from(i).expect("too many gradients")),
                name: name.clone(),
                elems: *elems,
                bytes: (elems * dtype.bytes_per_elem()) as f64,
            })
            .collect();
        let total_bytes = grads.iter().map(|g| g.bytes).sum();
        GradientRegistry { grads, dtype, total_bytes }
    }

    /// Number of registered gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Wire dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Total wire bytes of one full gradient set.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Gradient by registration id.
    ///
    /// # Panics
    /// Panics if `id` was not assigned by this registry.
    pub fn get(&self, id: GradId) -> &GradientInfo {
        &self.grads[id.as_usize()]
    }

    /// All gradients in registration (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &GradientInfo> {
        self.grads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn ids_are_dense_and_ordered() {
        let reg = GradientRegistry::from_profile(&zoo::resnet50(), DType::F32);
        for (i, g) in reg.iter().enumerate() {
            assert_eq!(g.id.as_usize(), i);
        }
    }

    #[test]
    fn totals_match_model() {
        let model = zoo::vgg16();
        let reg = GradientRegistry::from_profile(&model, DType::F32);
        assert_eq!(reg.len(), model.num_gradients());
        assert!((reg.total_bytes() - model.grad_bytes(DType::F32)).abs() < 1.0);
    }

    #[test]
    fn fp16_halves_bytes() {
        let model = zoo::resnet50();
        let full = GradientRegistry::from_profile(&model, DType::F32);
        let half = GradientRegistry::from_profile(&model, DType::F16);
        assert!((full.total_bytes() / half.total_bytes() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn layout_constructor() {
        let layout = vec![("a".to_string(), 10), ("b".to_string(), 5)];
        let reg = GradientRegistry::from_layout(&layout, DType::F32);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(GradId(1)).elems, 5);
        assert_eq!(reg.total_bytes(), 60.0);
    }
}
