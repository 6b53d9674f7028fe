//! Stochastic gradient descent with momentum.

use crate::Optimizer;

/// SGD with optional momentum.
///
/// # Example
/// ```
/// use aiacc_optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.01).with_momentum(0.9);
/// let mut p = vec![0.0f32; 4];
/// opt.step(&mut p, &[1.0; 4]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD at learning rate `lr`.
    ///
    /// # Panics
    /// Panics if `lr` is not strictly positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate: {lr}");
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// Enables momentum with coefficient `m` in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `m` is out of range.
    pub fn with_momentum(mut self, m: f64) -> Self {
        assert!((0.0..1.0).contains(&m), "momentum out of range: {m}");
        self.momentum = m;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.velocity.is_empty() && self.momentum > 0.0 {
            self.velocity = vec![0.0; params.len()];
        }
        if self.momentum > 0.0 {
            assert_eq!(self.velocity.len(), params.len(), "parameter count changed");
        }
        let lr = self.lr as f32;
        let mu = self.momentum as f32;
        for i in 0..params.len() {
            let g = grads[i];
            if mu > 0.0 {
                let v = mu * self.velocity[i] + g;
                self.velocity[i] = v;
                params[i] -= lr * v;
            } else {
                params[i] -= lr * g;
            }
        }
    }

    fn set_lr(&mut self, lr: f64) {
        assert!(lr.is_finite() && lr >= 0.0, "invalid learning rate: {lr}");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_matches_closed_form() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![2.0f32];
        opt.step(&mut p, &[3.0]);
        assert!((p[0] - (2.0 - 0.1 * 3.0)).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1.0).with_momentum(0.5);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-1
        opt.step(&mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6, "p={}", p[0]);
    }

    #[test]
    fn converges_on_quadratic() {
        // minimize f(x) = (x-3)^2, grad = 2(x-3)
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = vec![10.0f32];
        for _ in 0..200 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "p={}", p[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn changing_param_count_panics() {
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        let mut p = vec![0.0f32; 2];
        opt.step(&mut p, &[1.0; 2]);
        let mut q = vec![0.0f32; 3];
        opt.step(&mut q, &[1.0; 3]);
    }
}
