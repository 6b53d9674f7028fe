//! Parameter optimizers for the AIACC-Training reproduction.
//!
//! AIACC-Training ships its own parameter optimizer (§IV): a combination of
//! Adam and SGD, driven by a **linear** learning-rate decay (which the
//! authors found to pair better with their communication optimizations than
//! step decay). No figure of the paper measures convergence under that
//! hybrid, and the data plane's numerical oracle — data-parallel training
//! equals large-batch training — needs only SGD, so this crate implements:
//!
//! * [`Sgd`] — plain SGD with optional momentum.
//! * [`schedule`] — the linear learning-rate decay.
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

pub mod debug;
pub mod schedule;
mod sgd;

pub use sgd::Sgd;

/// A first-order optimizer updating a flat parameter vector in place.
///
/// Implementations keep per-parameter state (momentum) sized on the first
/// call; later calls must use the same length.
pub trait Optimizer {
    /// Applies one update: mutates `params` using `grads`.
    ///
    /// # Panics
    /// Panics if `grads.len() != params.len()`, or if the length differs
    /// from earlier calls.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// Overrides the learning rate (a decay schedule calls this every step).
    fn set_lr(&mut self, lr: f64);
}
