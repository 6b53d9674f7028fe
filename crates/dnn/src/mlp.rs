//! A real multi-layer perceptron with manual backpropagation.
//!
//! The AIACC-Training reproduction uses this network wherever *numerical*
//! correctness of the distributed machinery must be demonstrated: the
//! data-plane collectives carry its real gradients, and tests assert that
//! data-parallel training equals single-worker large-batch training.

use crate::layer::{LayerKind, LayerSpec, ParamSpec};
use crate::profile::{ModelProfile, SampleUnit};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Layer widths from input to output, e.g. `[16, 32, 4]` = one hidden
    /// layer of 32 units and 4 output classes.
    pub layer_sizes: Vec<usize>,
    /// Seed for weight initialization (identical seeds give identical nets).
    pub seed: u64,
}

impl MlpConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if fewer than two layer sizes are given or any size is zero.
    pub fn new(layer_sizes: Vec<usize>, seed: u64) -> Self {
        assert!(layer_sizes.len() >= 2, "need at least input and output sizes");
        assert!(layer_sizes.iter().all(|&s| s > 0), "zero-width layer");
        MlpConfig { layer_sizes, seed }
    }
}

/// A dense network with ReLU hidden activations and a softmax cross-entropy
/// head, trained on integer class labels.
///
/// Weight `l` is stored row-major as `[out × in]`; parameter tensors are laid
/// out (and registered for communication) as `w0, b0, w1, b1, …`, and the
/// network keeps them in one buffer in exactly that order, so
/// [`Mlp::params`] is the flat parameter vector without a copy.
///
/// # Example
/// ```
/// use aiacc_dnn::{Mlp, MlpConfig};
/// let mlp = Mlp::new(&MlpConfig::new(vec![4, 8, 3], 42));
/// let x = vec![0.1; 8]; // batch of 2 samples, dim 4
/// let logits = mlp.forward(&x, 2);
/// assert_eq!(logits.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    sizes: Vec<usize>,
    /// Every parameter in registration order `w0, b0, w1, b1, …`.
    params: Vec<f32>,
    /// Start of layer `l`'s weight in `params`; its bias follows the weight.
    offsets: Vec<usize>,
}

impl Mlp {
    /// Builds a network with Xavier-uniform initial weights.
    pub fn new(config: &MlpConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Vec::new();
        let mut offsets = Vec::new();
        for w in config.layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
            offsets.push(params.len());
            params.extend((0..fan_in * fan_out).map(|_| rng.random_range(-bound..bound)));
            params.resize(params.len() + fan_out, 0.0);
        }
        Mlp { sizes: config.layer_sizes.clone(), params, offsets }
    }

    /// Number of dense layers.
    pub fn num_layers(&self) -> usize {
        self.offsets.len()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        *self.sizes.last().expect("nonempty")
    }

    /// Total trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// `(name, len)` for each parameter tensor in registration order
    /// `w0, b0, w1, b1, …`.
    pub fn param_layout(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for (l, d) in self.sizes.windows(2).enumerate() {
            out.push((format!("fc{l}.weight"), d[0] * d[1]));
            out.push((format!("fc{l}.bias"), d[1]));
        }
        out
    }

    /// All parameters in registration order, in place.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// All parameters in registration order, for an in-place update.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// A copy of all parameters in registration order.
    pub fn params_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// Overwrites all parameters from a flat slice in registration order.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.num_params()`.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from_slice(flat);
    }

    /// Layer `l`'s weight (`[out × in]`, row-major) and bias.
    fn layer(&self, l: usize) -> (&[f32], &[f32]) {
        let (din, dout) = (self.sizes[l], self.sizes[l + 1]);
        let (w, rest) = self.params[self.offsets[l]..].split_at(din * dout);
        (w, &rest[..dout])
    }

    /// Forward pass over a row-major batch (`batch × input_dim`), returning
    /// logits (`batch × num_classes`).
    ///
    /// # Panics
    /// Panics if `x.len() != batch * input_dim`.
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        assert_eq!(x.len(), batch * self.input_dim(), "bad input shape");
        let (acts, _) = self.forward_full(x, batch);
        acts.last().expect("at least one layer").clone()
    }

    /// Forward keeping all activations (`acts[0]` = input) and pre-activations.
    fn forward_full(&self, x: &[f32], batch: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut acts: Vec<Vec<f32>> = vec![x.to_vec()];
        let mut pre: Vec<Vec<f32>> = Vec::new();
        for l in 0..self.num_layers() {
            let (w, b) = self.layer(l);
            let mut z = vec![0.0f32; batch * b.len()];
            dense_forward(w, b, &acts[l], &mut z);
            pre.push(z.clone());
            if l + 1 < self.num_layers() {
                for v in z.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(z);
        }
        (acts, pre)
    }

    /// Mean cross-entropy loss and gradients for a labelled batch.
    ///
    /// Gradients come back as one `Vec<f32>` per parameter tensor in
    /// registration order (`w0, b0, w1, b1, …`), averaged over the batch —
    /// ready to feed through the collectives' data plane. The values are
    /// [`Mlp::loss_and_grads_into`]'s, split per tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch or a label out of range.
    pub fn loss_and_grads(&self, x: &[f32], labels: &[usize]) -> (f64, Vec<Vec<f32>>) {
        let mut grads: Vec<Vec<f32>> = self.tensor_lens().map(|n| vec![0.0; n]).collect();
        let mut slices: Vec<&mut [f32]> = grads.iter_mut().map(Vec::as_mut_slice).collect();
        let loss = self.backprop(x, labels, &mut slices);
        (loss, grads)
    }

    /// Mean cross-entropy loss for a labelled batch, writing the gradients
    /// into `out` in [`Mlp::params`] layout (`w0, b0, w1, b1, …`), averaged
    /// over the batch. `out` is overwritten, not accumulated into, so one
    /// buffer serves every step.
    ///
    /// # Panics
    /// Panics on shape mismatch, a label out of range, or
    /// `out.len() != self.num_params()`.
    pub fn loss_and_grads_into(&self, x: &[f32], labels: &[usize], out: &mut [f32]) -> f64 {
        assert_eq!(out.len(), self.num_params(), "gradient length mismatch");
        // The parameter-gradient kernel accumulates from +0.0.
        out.fill(0.0);
        let mut slices = Vec::with_capacity(2 * self.num_layers());
        let mut rest = out;
        for n in self.tensor_lens() {
            let (g, tail) = rest.split_at_mut(n);
            slices.push(g);
            rest = tail;
        }
        self.backprop(x, labels, &mut slices)
    }

    /// Element counts of the parameter tensors in registration order.
    fn tensor_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.sizes.windows(2).flat_map(|d| [d[0] * d[1], d[1]])
    }

    /// Mean loss of the batch, accumulating the batch-averaged gradients
    /// into `grads`: one zeroed slice per parameter tensor, in registration
    /// order. The one backward pass behind both gradient layouts.
    fn backprop(&self, x: &[f32], labels: &[usize], grads: &mut [&mut [f32]]) -> f64 {
        let batch = labels.len();
        assert_eq!(x.len(), batch * self.input_dim(), "bad input shape");
        assert!(batch > 0, "empty batch");
        let (acts, pre) = self.forward_full(x, batch);
        let (loss, delta) = softmax_cross_entropy(acts.last().expect("layers"), labels);

        let scale = 1.0 / batch as f32;
        // Backward through layers.
        let mut dz = delta;
        for l in (0..self.num_layers()).rev() {
            let (w, _) = self.layer(l);
            let (gw, gb) = grads[2 * l..].split_at_mut(1);
            dense_param_grads(&dz, &acts[l], scale, gw[0], gb[0]);
            if l == 0 {
                break;
            }
            // Propagate to previous layer: da = W^T dz; dz_prev = da ⊙ relu'.
            let mut dprev = vec![0.0f32; acts[l].len()];
            dense_input_grads(&dz, w, batch, &pre[l - 1], &mut dprev);
            dz = dprev;
        }
        loss
    }

    /// Fraction of samples classified correctly.
    pub fn accuracy(&self, x: &[f32], labels: &[usize]) -> f64 {
        let batch = labels.len();
        let nc = self.num_classes();
        let logits = self.forward(x, batch);
        let mut correct = 0;
        for (s, &label) in labels.iter().enumerate() {
            let row = &logits[s * nc..(s + 1) * nc];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("nonempty row");
            if argmax == label {
                correct += 1;
            }
        }
        correct as f64 / batch as f64
    }

    /// A [`ModelProfile`] describing this network, so the real MLP can drive
    /// the same registration/communication machinery as the zoo models.
    pub fn profile(&self) -> ModelProfile {
        let mut layers = Vec::new();
        for l in 0..self.num_layers() {
            let (din, dout) = (self.sizes[l], self.sizes[l + 1]);
            layers.push(LayerSpec::new(
                format!("fc{l}"),
                LayerKind::Dense,
                vec![ParamSpec::new("weight", vec![dout, din]), ParamSpec::new("bias", vec![dout])],
                2.0 * (din * dout) as f64,
            ));
        }
        ModelProfile::new("mlp", layers, SampleUnit::Records, 0.4, 32)
    }
}

/// Mean softmax cross-entropy of row-major `logits` (`batch × classes`)
/// against `labels`, and its gradient with respect to the logits.
///
/// # Panics
/// Panics on a label out of range.
fn softmax_cross_entropy(logits: &[f32], labels: &[usize]) -> (f64, Vec<f32>) {
    let batch = labels.len();
    let nc = logits.len() / batch;
    let mut delta = vec![0.0f32; batch * nc]; // dL/dlogits
    let mut loss = 0.0f64;
    for s in 0..batch {
        let row = &logits[s * nc..(s + 1) * nc];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let label = labels[s];
        assert!(label < nc, "label {label} out of range");
        loss -= ((exps[label] / sum).max(1e-30) as f64).ln();
        for c in 0..nc {
            let p = exps[c] / sum;
            delta[s * nc + c] = p - if c == label { 1.0 } else { 0.0 };
        }
    }
    (loss / batch as f64, delta)
}

// The three dense-layer kernels below are blocked for throughput, but every
// output element adds the same terms, in the same order, as a plain loop
// over one sample and one output at a time (the `reference` module in the
// tests keeps those loops): blocking only interleaves independent sums.
// Rust never contracts `a * b + c` into a fused multiply-add, so every
// result is bit-identical, signed zeros and subnormals included; a NaN
// result stays NaN, though Rust leaves its sign and payload unspecified.

/// Samples and outputs per register block.
const BLOCK: usize = 4;

/// Rows `r0..r0 + BLOCK` of the row-major matrix `m` with rows of `len`.
fn rows(m: &[f32], r0: usize, len: usize) -> [&[f32]; BLOCK] {
    std::array::from_fn(|k| &m[(r0 + k) * len..][..len])
}

/// `z[s][o] = b[o] + Σᵢ w[o][i]·x[s][i]` for the row-major batch `x`
/// (`batch × in`), summed from `b[o]` over `i` ascending.
///
/// Blocks of 4 samples × 4 outputs keep 16 independent accumulators, so
/// the adds pipeline instead of waiting on one long dependent chain.
fn dense_forward(w: &[f32], b: &[f32], x: &[f32], z: &mut [f32]) {
    let dout = b.len();
    let din = w.len() / dout;
    let batch = x.len() / din;
    let full = batch - batch % BLOCK;
    for s0 in (0..full).step_by(BLOCK) {
        let xs = rows(x, s0, din);
        let mut o0 = 0;
        while o0 + BLOCK <= dout {
            let ws = rows(w, o0, din);
            let mut acc = [[0.0f32; BLOCK]; BLOCK];
            for row in acc.iter_mut() {
                row.copy_from_slice(&b[o0..o0 + BLOCK]);
            }
            for i in 0..din {
                let wi: [f32; BLOCK] = std::array::from_fn(|c| ws[c][i]);
                for (row, xr) in acc.iter_mut().zip(&xs) {
                    let xv = xr[i];
                    for (a, wv) in row.iter_mut().zip(wi) {
                        *a += wv * xv;
                    }
                }
            }
            for (k, row) in acc.iter().enumerate() {
                z[(s0 + k) * dout + o0..][..BLOCK].copy_from_slice(row);
            }
            o0 += BLOCK;
        }
        for s in s0..s0 + BLOCK {
            dense_forward_scalar(
                w,
                b,
                &x[s * din..(s + 1) * din],
                o0,
                &mut z[s * dout..(s + 1) * dout],
            );
        }
    }
    for s in full..batch {
        dense_forward_scalar(w, b, &x[s * din..(s + 1) * din], 0, &mut z[s * dout..(s + 1) * dout]);
    }
}

/// The unblocked forward loop over outputs `from..` of one sample.
fn dense_forward_scalar(w: &[f32], b: &[f32], xrow: &[f32], from: usize, zrow: &mut [f32]) {
    let din = xrow.len();
    for o in from..b.len() {
        let mut acc = b[o];
        for (wv, xv) in w[o * din..(o + 1) * din].iter().zip(xrow) {
            acc += wv * xv;
        }
        zrow[o] = acc;
    }
}

/// Accumulates `gw[o][i] += dz[s][o]·x[s][i]·scale` and
/// `gb[o] += dz[s][o]·scale` over samples `s` ascending, into zeroed `gw`
/// and `gb`.
///
/// Outputs are the outer loop, so each `gw` row is loaded and stored once
/// per block of 4 samples instead of once per sample.
fn dense_param_grads(dz: &[f32], x: &[f32], scale: f32, gw: &mut [f32], gb: &mut [f32]) {
    let dout = gb.len();
    let din = gw.len() / dout;
    let batch = x.len() / din;
    let full = batch - batch % BLOCK;
    for (o, (grow, g)) in gw.chunks_exact_mut(din).zip(gb.iter_mut()).enumerate() {
        for s0 in (0..full).step_by(BLOCK) {
            let d: [f32; BLOCK] = std::array::from_fn(|k| dz[(s0 + k) * dout + o]);
            let xs = rows(x, s0, din);
            let grow = &mut grow[..din];
            for i in 0..din {
                let mut acc = grow[i];
                for (dk, xr) in d.iter().zip(&xs) {
                    acc += dk * xr[i] * scale;
                }
                grow[i] = acc;
            }
        }
        for s in full..batch {
            let d = dz[s * dout + o];
            for (gv, xv) in grow.iter_mut().zip(&x[s * din..(s + 1) * din]) {
                *gv += d * xv * scale;
            }
        }
        for s in 0..batch {
            *g += dz[s * dout + o] * scale;
        }
    }
}

/// `dprev[s][i] = Σₒ dz[s][o]·w[o][i]` over outputs `o` ascending from
/// zero, then zeroed wherever the previous layer's pre-activation
/// `pre[s][i] <= 0` (the ReLU derivative).
///
/// Outputs are the outer loop, 4 at a time, so each weight row is read
/// once per batch and each `dprev` element is loaded and stored once per
/// 4 outputs.
fn dense_input_grads(dz: &[f32], w: &[f32], batch: usize, pre: &[f32], dprev: &mut [f32]) {
    let din = dprev.len() / batch;
    let dout = w.len() / din;
    let mut o0 = 0;
    while o0 + BLOCK <= dout {
        let ws = rows(w, o0, din);
        for (s, dprow) in dprev.chunks_exact_mut(din).enumerate() {
            let dprow = &mut dprow[..din];
            let d: [f32; BLOCK] = std::array::from_fn(|c| dz[s * dout + o0 + c]);
            for i in 0..din {
                let mut acc = dprow[i];
                for (dc, wr) in d.iter().zip(&ws) {
                    acc += dc * wr[i];
                }
                dprow[i] = acc;
            }
        }
        o0 += BLOCK;
    }
    for o in o0..dout {
        let wrow = &w[o * din..(o + 1) * din];
        for (s, dprow) in dprev.chunks_exact_mut(din).enumerate() {
            let d = dz[s * dout + o];
            for (dp, wv) in dprow.iter_mut().zip(wrow) {
                *dp += d * wv;
            }
        }
    }
    for (dp, &z) in dprev.iter_mut().zip(pre) {
        if z <= 0.0 {
            *dp = 0.0;
        }
    }
}

/// The unblocked loops the kernels replaced, kept as their oracle: the
/// forward pass, the weight and bias gradients, and the input gradient.
#[cfg(test)]
mod reference {
    use super::{softmax_cross_entropy, Mlp};

    /// Forward keeping all activations (`acts[0]` = input) and
    /// pre-activations.
    pub fn forward_full(m: &Mlp, x: &[f32], batch: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut acts: Vec<Vec<f32>> = vec![x.to_vec()];
        let mut pre: Vec<Vec<f32>> = Vec::new();
        for l in 0..m.num_layers() {
            let (din, dout) = (m.sizes[l], m.sizes[l + 1]);
            let (weights, biases) = m.layer(l);
            let a_in = &acts[l];
            let mut z = vec![0.0f32; batch * dout];
            for s in 0..batch {
                let xrow = &a_in[s * din..(s + 1) * din];
                let zrow = &mut z[s * dout..(s + 1) * dout];
                for (o, zo) in zrow.iter_mut().enumerate() {
                    let wrow = &weights[o * din..(o + 1) * din];
                    let mut acc = biases[o];
                    for (w, xv) in wrow.iter().zip(xrow) {
                        acc += w * xv;
                    }
                    *zo = acc;
                }
            }
            pre.push(z.clone());
            if l + 1 < m.num_layers() {
                for v in z.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(z);
        }
        (acts, pre)
    }

    /// Mean cross-entropy loss and per-tensor gradients.
    pub fn loss_and_grads(m: &Mlp, x: &[f32], labels: &[usize]) -> (f64, Vec<Vec<f32>>) {
        let batch = labels.len();
        let (acts, pre) = forward_full(m, x, batch);
        let (loss, delta) = softmax_cross_entropy(acts.last().expect("layers"), labels);

        let scale = 1.0 / batch as f32;
        let mut grads: Vec<Vec<f32>> = Vec::with_capacity(2 * m.num_layers());
        for l in 0..m.num_layers() {
            let (weights, biases) = m.layer(l);
            grads.push(vec![0.0; weights.len()]);
            grads.push(vec![0.0; biases.len()]);
        }

        // Backward through layers.
        let mut dz = delta;
        for l in (0..m.num_layers()).rev() {
            let (din, dout) = (m.sizes[l], m.sizes[l + 1]);
            let (weights, _) = m.layer(l);
            let a_in = &acts[l];
            // Parameter gradients.
            for s in 0..batch {
                let dzrow = &dz[s * dout..(s + 1) * dout];
                let xrow = &a_in[s * din..(s + 1) * din];
                let gw = &mut grads[2 * l];
                for (o, &d) in dzrow.iter().enumerate() {
                    let grow = &mut gw[o * din..(o + 1) * din];
                    for (g, xv) in grow.iter_mut().zip(xrow) {
                        *g += d * xv * scale;
                    }
                }
                let gb = &mut grads[2 * l + 1];
                for (g, &d) in gb.iter_mut().zip(dzrow) {
                    *g += d * scale;
                }
            }
            if l == 0 {
                break;
            }
            // Propagate to previous layer: da = W^T dz; dz_prev = da ⊙ relu'.
            let mut dprev = vec![0.0f32; batch * din];
            for s in 0..batch {
                let dzrow = &dz[s * dout..(s + 1) * dout];
                let dprow = &mut dprev[s * din..(s + 1) * din];
                for (o, &d) in dzrow.iter().enumerate() {
                    let wrow = &weights[o * din..(o + 1) * din];
                    for (dp, w) in dprow.iter_mut().zip(wrow) {
                        *dp += d * w;
                    }
                }
                let zrow = &pre[l - 1][s * din..(s + 1) * din];
                for (dp, &z) in dprow.iter_mut().zip(zrow) {
                    if z <= 0.0 {
                        *dp = 0.0;
                    }
                }
            }
            dz = dprev;
        }
        (loss, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns of a float slice, so signed zeros and subnormals
    /// compare exactly. Every NaN maps to one pattern: Rust leaves the sign
    /// and payload of a NaN result unspecified, and the optimizer may swap
    /// the operands of an add, so even the reference loop's NaN sign is
    /// not fixed between builds.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Asserts that the kernels reproduce the reference loops bit for bit:
    /// logits, loss and every gradient.
    fn assert_matches_reference(m: &Mlp, x: &[f32], labels: &[usize]) {
        let batch = labels.len();
        let (acts, _) = reference::forward_full(m, x, batch);
        assert_eq!(bits(&m.forward(x, batch)), bits(acts.last().unwrap()), "logits");
        let (loss, grads) = m.loss_and_grads(x, labels);
        let (want_loss, want_grads) = reference::loss_and_grads(m, x, labels);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss");
        for (t, (g, want)) in grads.iter().zip(&want_grads).enumerate() {
            assert_eq!(bits(g), bits(want), "gradient tensor {t}");
        }
        // The flat form overwrites a dirty buffer with the same bits.
        let mut flat = vec![-0.0f32; m.num_params()];
        flat.iter_mut().step_by(3).for_each(|v| *v = f32::NAN);
        let flat_loss = m.loss_and_grads_into(x, labels, &mut flat);
        assert_eq!(flat_loss.to_bits(), want_loss.to_bits(), "flat loss");
        assert_eq!(bits(&flat), bits(&want_grads.concat()), "flat gradients");
    }

    /// Values that exercise rounding and IEEE edge cases.
    const SPECIAL: [f32; 9] = [
        0.0,
        -0.0,
        1e-40,  // subnormal
        -3e-39, // subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0,
        -0.5,
    ];

    /// A value drawn for `mode`: 0 uniform, 1 small multiples of 1/4 (sums
    /// cancel exactly, so pre-activations hit 0.0), 2 uniform with IEEE
    /// edge cases mixed in.
    fn value(rng: &mut StdRng, mode: u32) -> f32 {
        match mode {
            0 => rng.random_range(-1.0f32..1.0),
            1 => rng.random_range(-4i32..=4) as f32 * 0.25,
            _ if rng.random_range(0u32..8) == 0 => SPECIAL[rng.random_range(0..SPECIAL.len())],
            _ => rng.random_range(-1.0f32..1.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Batch 1..=9 and widths 1..=37 cover every tail of the 4 × 4
        /// blocks, with weights and inputs drawn uniform, from exact
        /// quarters, or with zeros, subnormals, infinities and NaN mixed in.
        #[test]
        fn kernels_match_reference_loops_bitwise(
            sizes in prop::collection::vec(1usize..=37, 2..=4),
            batch in 1usize..=9,
            mode in 0u32..3,
            seed in any::<u64>(),
        ) {
            let mut m = Mlp::new(&MlpConfig::new(sizes, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            for p in m.params_mut() {
                *p = value(&mut rng, mode);
            }
            let x: Vec<f32> = (0..batch * m.input_dim()).map(|_| value(&mut rng, mode)).collect();
            let labels: Vec<usize> =
                (0..batch).map(|_| rng.random_range(0..m.num_classes())).collect();
            assert_matches_reference(&m, &x, &labels);
        }
    }

    #[test]
    fn kernels_match_reference_on_zero_pre_activations_and_edge_inputs() {
        // Output 0 of every layer has zero weights and bias, so its
        // pre-activation is exactly 0.0 for finite inputs; each special
        // value in turn fills a whole input row.
        let mut m = Mlp::new(&MlpConfig::new(vec![9, 6, 5, 3], 4));
        for l in 0..m.num_layers() {
            let (din, off) = (m.sizes[l], m.offsets[l]);
            let dout = m.sizes[l + 1];
            m.params[off..off + din].fill(0.0);
            m.params[off + din * dout] = 0.0;
        }
        let batch = SPECIAL.len() + 2;
        let mut x: Vec<f32> = (0..batch * 9).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
        for (s, &v) in SPECIAL.iter().enumerate() {
            x[(s + 2) * 9..(s + 3) * 9].fill(v);
        }
        let labels: Vec<usize> = (0..batch).map(|s| s % 3).collect();
        let (_, pre) = reference::forward_full(&m, &x, batch);
        assert!(pre.iter().all(|z| z[0].to_bits() == 0), "pre-activation 0 is exactly +0.0");
        assert_matches_reference(&m, &x, &labels);
    }

    /// The `dataplane_ef` network at full size; run with
    /// `cargo test --release -p aiacc-dnn -- --ignored`.
    #[test]
    #[ignore = "full-size network; run in release mode"]
    fn kernels_match_reference_at_benchmark_size() {
        for seed in 1..=3 {
            let m = Mlp::new(&MlpConfig::new(vec![256, 1024, 1024, 16], seed));
            let mut rng = StdRng::seed_from_u64(seed);
            for batch in [4, 32] {
                let x: Vec<f32> =
                    (0..batch * 256).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                let labels: Vec<usize> = (0..batch).map(|_| rng.random_range(0..16)).collect();
                assert_matches_reference(&m, &x, &labels);
            }
        }
    }

    fn tiny() -> Mlp {
        Mlp::new(&MlpConfig::new(vec![3, 5, 2], 7))
    }

    #[test]
    fn deterministic_init() {
        assert_eq!(tiny().params_flat(), tiny().params_flat());
        let other = Mlp::new(&MlpConfig::new(vec![3, 5, 2], 8));
        assert_ne!(tiny().params_flat(), other.params_flat());
    }

    #[test]
    fn param_roundtrip() {
        let mut m = tiny();
        let mut p = m.params_flat();
        p[0] = 123.0;
        m.set_params_flat(&p);
        assert_eq!(m.params_flat(), p);
    }

    #[test]
    fn layout_sums_to_num_params() {
        let m = tiny();
        let total: usize = m.param_layout().iter().map(|(_, n)| n).sum();
        assert_eq!(total, m.num_params());
        assert_eq!(m.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn forward_shape() {
        let m = tiny();
        let out = m.forward(&[0.5; 6], 2);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn loss_decreases_under_sgd() {
        let mut m = Mlp::new(&MlpConfig::new(vec![2, 16, 2], 3));
        // XOR-ish separable data.
        let x = vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        let y = vec![0, 0, 1, 1];
        let (l0, _) = m.loss_and_grads(&x, &y);
        for _ in 0..300 {
            let (_, grads) = m.loss_and_grads(&x, &y);
            // Plain SGD, `p -= lr * g`, at lr 0.5.
            for (p, g) in m.params_mut().iter_mut().zip(grads.iter().flatten()) {
                *p -= 0.5 * g;
            }
        }
        let (l1, _) = m.loss_and_grads(&x, &y);
        assert!(l1 < l0 * 0.2, "loss {l0} -> {l1}");
        assert_eq!(m.accuracy(&x, &y), 1.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let m = Mlp::new(&MlpConfig::new(vec![2, 4, 3], 11));
        let x = vec![0.3, -0.7, 0.9, 0.1];
        let y = vec![2, 0];
        let (_, grads) = m.loss_and_grads(&x, &y);
        let flat_g: Vec<f32> = grads.into_iter().flatten().collect();
        let p0 = m.params_flat();
        let eps = 1e-3f32;
        // Spot-check a spread of parameters.
        for idx in (0..m.num_params()).step_by(5) {
            let mut mp = m.clone();
            let mut p = p0.clone();
            p[idx] += eps;
            mp.set_params_flat(&p);
            let (lp, _) = mp.loss_and_grads(&x, &y);
            p[idx] -= 2.0 * eps;
            mp.set_params_flat(&p);
            let (lm, _) = mp.loss_and_grads(&x, &y);
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - flat_g[idx]).abs() < 2e-2,
                "param {idx}: numeric {numeric} vs analytic {}",
                flat_g[idx]
            );
        }
    }

    #[test]
    fn grad_of_sum_equals_sum_of_grads() {
        // Cross-entropy averaged over a batch is the mean of per-sample
        // losses, so batch gradients must equal the average of per-sample
        // gradients — the invariant data parallelism relies on.
        let m = tiny();
        let x = vec![0.2, 0.4, -0.1, 0.9, -0.5, 0.3];
        let y = vec![1, 0];
        let (_, g_batch) = m.loss_and_grads(&x, &y);
        let (_, g0) = m.loss_and_grads(&x[0..3], &y[0..1]);
        let (_, g1) = m.loss_and_grads(&x[3..6], &y[1..2]);
        for ((b, a0), a1) in g_batch.iter().zip(&g0).zip(&g1) {
            for ((bv, v0), v1) in b.iter().zip(a0).zip(a1) {
                assert!((bv - 0.5 * (v0 + v1)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn profile_matches_network() {
        let m = tiny();
        let p = m.profile();
        assert_eq!(p.num_params(), m.num_params());
        assert_eq!(p.num_gradients(), m.param_layout().len());
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        let m = tiny();
        let _ = m.loss_and_grads(&[0.0; 3], &[9]);
    }
}
