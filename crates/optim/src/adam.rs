//! Adaptive Moment Estimation (Adam).

use crate::Optimizer;

/// Adam with bias correction (Kingma & Ba, 2014) — one half of AIACC's
/// hybrid optimizer (§IV).
///
/// # Example
/// ```
/// use aiacc_optim::{Adam, Optimizer};
/// let mut opt = Adam::new(1e-3);
/// let mut p = vec![1.0f32];
/// opt.step(&mut p, &[0.1]);
/// assert!(p[0] < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
    ///
    /// # Panics
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate: {lr}");
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Overrides the moment coefficients.
    ///
    /// # Panics
    /// Panics if either beta is outside `[0, 1)`.
    pub fn with_betas(mut self, beta1: f64, beta2: f64) -> Self {
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2), "betas out of range");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed");
        self.t += 1;
        let b1 = self.beta1 as f32;
        let b2 = self.beta2 as f32;
        let bc1 = 1.0 - (self.beta1).powi(self.t as i32);
        let bc2 = 1.0 - (self.beta2).powi(self.t as i32);
        let lr = self.lr;
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] as f64 / bc1;
            let vhat = self.v[i] as f64 / bc2;
            params[i] -= (lr * mhat / (vhat.sqrt() + self.eps)) as f32;
        }
    }

    fn lr(&self) -> f64 {
        self.lr
    }

    fn set_lr(&mut self, lr: f64) {
        assert!(lr.is_finite() && lr >= 0.0, "invalid learning rate: {lr}");
        self.lr = lr;
    }

    fn name(&self) -> &str {
        "adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_is_approximately_lr() {
        // With bias correction, the first Adam step ≈ lr · sign(g).
        let mut opt = Adam::new(0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[42.0]);
        assert!((p[0] + 0.1).abs() < 1e-4, "p={}", p[0]);
    }

    #[test]
    fn step_size_is_scale_invariant() {
        let mut a = Adam::new(0.01);
        let mut b = Adam::new(0.01);
        let mut pa = vec![0.0f32];
        let mut pb = vec![0.0f32];
        a.step(&mut pa, &[1e-3]);
        b.step(&mut pb, &[1e3]);
        assert!((pa[0] - pb[0]).abs() < 1e-6, "{} vs {}", pa[0], pb[0]);
    }

    #[test]
    fn converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let mut p = vec![10.0f32];
        for _ in 0..2000 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 1e-2, "p={}", p[0]);
    }

    #[test]
    fn counts_steps() {
        let mut opt = Adam::new(0.1);
        let mut p = vec![0.0f32];
        for _ in 0..3 {
            opt.step(&mut p, &[1.0]);
        }
        assert_eq!(opt.steps(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid learning rate")]
    fn zero_lr_rejected() {
        let _ = Adam::new(0.0);
    }
}
