//! The AIACC Adam/SGD hybrid optimizer.
//!
//! §IV: *"It implements a new optimizer by combining Adaptive Moment
//! Estimation (Adam) and Stochastic Gradient Descent (SGD)."* We realize the
//! combination as AdaBound-style dynamic bounds: the per-parameter Adam step
//! size is clipped into a band that starts wide (pure Adam) and tightens
//! around the target SGD learning rate as training progresses, so the
//! optimizer transitions smoothly from Adam's fast early progress to SGD's
//! well-understood late-training behaviour.

use crate::Optimizer;

/// Adam → SGD hybrid with dynamic step-size bounds.
///
/// The effective per-parameter rate `lr/(√v̂ + ε)` is clamped to
/// `[final_lr·(1 − 1/(γt+1)), final_lr·(1 + 1/(γt))]`; as `t → ∞` both
/// bounds converge to `final_lr` and the update becomes SGD with momentum
/// `β₁`.
///
/// # Example
/// ```
/// use aiacc_optim::{AdamSgd, Optimizer};
/// let mut opt = AdamSgd::new(1e-3, 0.1);
/// let mut p = vec![1.0f32];
/// opt.step(&mut p, &[0.3]);
/// assert!(p[0] < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSgd {
    lr: f64,
    final_lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    gamma: f64,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl AdamSgd {
    /// Creates the hybrid with Adam rate `lr` and asymptotic SGD rate
    /// `final_lr` (γ = 1e-3 as in AdaBound).
    ///
    /// # Panics
    /// Panics if either rate is not strictly positive and finite.
    pub fn new(lr: f64, final_lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "invalid learning rate: {lr}");
        assert!(final_lr.is_finite() && final_lr > 0.0, "invalid final rate: {final_lr}");
        AdamSgd {
            lr,
            final_lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            gamma: 1e-3,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Overrides the bound-convergence speed γ.
    ///
    /// # Panics
    /// Panics if `gamma` is not strictly positive and finite.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma.is_finite() && gamma > 0.0, "invalid gamma");
        self.gamma = gamma;
        self
    }

    /// The current `(lower, upper)` step-size bounds.
    pub fn bounds(&self) -> (f64, f64) {
        let t = self.t.max(1) as f64;
        let lower = self.final_lr * (1.0 - 1.0 / (self.gamma * t + 1.0));
        let upper = self.final_lr * (1.0 + 1.0 / (self.gamma * t));
        (lower, upper)
    }
}

impl Optimizer for AdamSgd {
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
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lower, upper) = self.bounds();
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let vhat = (self.v[i] as f64 / bc2).sqrt() + self.eps;
            // Clip the per-parameter rate into the shrinking band.
            let rate = (self.lr / vhat).clamp(lower, upper);
            // Bias-corrected momentum direction.
            let mhat = self.m[i] as f64 / bc1;
            params[i] -= (rate * mhat) as f32;
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
        "adam_sgd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;

    #[test]
    fn bounds_tighten_over_time() {
        let mut opt = AdamSgd::new(1e-3, 0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]);
        let (l0, u0) = opt.bounds();
        for _ in 0..999 {
            opt.step(&mut p, &[1.0]);
        }
        let (l1, u1) = opt.bounds();
        assert!(l1 > l0 && u1 < u0, "bounds did not tighten");
        assert!(u1 - l1 < u0 - l0);
    }

    #[test]
    fn late_steps_approach_sgd_with_momentum() {
        // After many steps with constant gradient, the hybrid's update must
        // approach final_lr · mhat — i.e. momentum-SGD at the target rate.
        let mut hybrid = AdamSgd::new(1e-3, 0.05).with_gamma(1.0); // fast convergence
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            hybrid.step(&mut p, &[1.0]);
        }
        let before = p[0];
        hybrid.step(&mut p, &[1.0]);
        let step = before - p[0];
        // mhat → 1 under constant unit gradients.
        assert!((step as f64 - 0.05).abs() < 0.002, "step={step}");
    }

    #[test]
    fn early_steps_behave_like_adam() {
        // Step size on the first iteration is the (bias-corrected) Adam step,
        // scale-invariant in the gradient magnitude — unlike SGD.
        let mut a = AdamSgd::new(0.01, 0.01);
        let mut b = AdamSgd::new(0.01, 0.01);
        let mut pa = vec![0.0f32];
        let mut pb = vec![0.0f32];
        a.step(&mut pa, &[1e-2]);
        b.step(&mut pb, &[1e2]);
        let ratio = pa[0] / pb[0];
        assert!((ratio - 1.0).abs() < 0.5, "ratio={ratio}");
    }

    #[test]
    fn converges_on_quadratic_at_least_as_well_as_sgd() {
        let run = |mut opt: Box<dyn Optimizer>| {
            let mut p = vec![10.0f32];
            for _ in 0..500 {
                let g = 2.0 * (p[0] - 3.0);
                opt.step(&mut p, &[g]);
            }
            (p[0] - 3.0).abs()
        };
        let hybrid_err = run(Box::new(AdamSgd::new(0.1, 0.05).with_gamma(0.01)));
        let sgd_err = run(Box::new(Sgd::new(0.05)));
        assert!(hybrid_err < 0.05, "hybrid err {hybrid_err}");
        assert!(hybrid_err <= sgd_err * 10.0);
    }
}
