//! Auto-tuning of communication hyper-parameters (AIACC-Training §VI).
//!
//! The all-reduce unit size, the number of concurrent CUDA streams and the
//! all-reduce algorithm form a large optimization space whose optimum depends
//! on the cloud instance, network topology/bandwidth and DNN workload.
//! AIACC-Training formulates the search as a **multi-armed bandit** over an
//! *ensemble* of search techniques, steered by a meta solver with a
//! sliding-window area-under-the-curve (AUC) credit-assignment rule, within a
//! warm-up budget of `n` training iterations (n = 100, k = 4 by default) —
//! and the warm-up iterations still contribute to training, so no cycles are
//! wasted.
//!
//! This crate implements:
//!
//! * [`TuningSpace`] / [`TuningConfig`] — the discrete parameter lattice.
//! * [`Searcher`] implementations: [`GridSearch`], [`PopulationTraining`]
//!   (PBT), [`BayesOpt`] (exact small Gaussian process + expected
//!   improvement) and [`Hyperband`] (successive halving).
//! * [`MetaSolver`] — the bandit: `argmax_t (AUC_t + C·√(2·ln|H| / H_t))`.
//! * [`Tuner`] — the ensemble orchestrator.
//! * [`cache`] — the warm-start store keyed by computation-graph and
//!   topology signatures, compared by (exact, for layer chains) graph edit
//!   distance.
//!
//! The crate is deliberately engine-agnostic: anything implementing
//! [`Objective`] (lower = better, e.g. measured iteration seconds) can be
//! tuned, which is also how the unit tests exercise it on synthetic response
//! surfaces.
//!
//! # Example
//! ```
//! use aiacc_autotune::{Objective, Tuner, TuningConfig, TuningSpace};
//!
//! struct Synthetic;
//! impl Objective for Synthetic {
//!     fn evaluate(&mut self, cfg: &TuningConfig) -> f64 {
//!         // Optimum at 8 streams.
//!         (cfg.streams as f64 - 8.0).abs()
//!     }
//! }
//! let mut tuner = Tuner::new(TuningSpace::default(), 7);
//! let report = tuner.run(&mut Synthetic, 60);
//! assert_eq!(report.best.streams, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bayes;
pub mod cache;
mod grid;
mod hyperband;
mod mab;
mod pbt;
mod space;
mod tuner;

pub use bayes::BayesOpt;
pub use grid::GridSearch;
pub use hyperband::Hyperband;
pub use mab::MetaSolver;
pub use pbt::PopulationTraining;
pub use space::{TuneAlgo, TuningConfig, TuningSpace};
pub use tuner::{BatchObjective, Evaluation, Objective, Searcher, TuneReport, Tuner};
