//! Parameter optimizers for the AIACC-Training reproduction.
//!
//! AIACC-Training ships its own parameter optimizer (§IV): a combination of
//! Adam and SGD, driven by a **linear** learning-rate decay (which the
//! authors found to pair better with their communication optimizations than
//! step decay). This crate implements:
//!
//! * [`Sgd`] — plain SGD with optional momentum.
//! * [`Adam`] — Kingma & Ba, bias-corrected.
//! * [`AdamSgd`] — the Adam→SGD hybrid, realized as AdaBound-style dynamic
//!   bounds on the per-parameter step size that converge to the SGD rate.
//! * [`schedule`] — linear decay, step decay, warmup.
//! * [`debug`] — NaN/Inf gradient inspection (§IV "debugging support").
//!
//! # Example
//! ```
//! use aiacc_optim::{Optimizer, Sgd};
//! let mut opt = Sgd::new(0.1);
//! let mut p = vec![1.0f32];
//! opt.step(&mut p, &[0.5]);
//! assert!((p[0] - 0.95).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
pub mod debug;
mod hybrid;
pub mod schedule;
mod sgd;

pub use adam::Adam;
pub use hybrid::AdamSgd;
pub use sgd::Sgd;

/// A first-order optimizer updating a flat parameter vector in place.
///
/// Implementations keep per-parameter state (momentum, moments) sized on the
/// first call; later calls must use the same length.
pub trait Optimizer {
    /// Applies one update: mutates `params` using `grads`.
    ///
    /// # Panics
    /// Panics if `grads.len() != params.len()`, or if the length differs
    /// from earlier calls.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// Current learning rate.
    fn lr(&self) -> f64;

    /// Overrides the learning rate (used by the schedules).
    fn set_lr(&mut self, lr: f64);

    /// Human-readable optimizer name.
    fn name(&self) -> &str;
}
