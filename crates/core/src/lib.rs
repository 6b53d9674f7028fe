//! The AIACC-Training core: decentralized gradient synchronization, gradient
//! packing, and the multi-streamed concurrent all-reduce engine.
//!
//! This crate implements the paper's primary contribution (§V–§VI interface):
//!
//! * [`GradientRegistry`] — gradient registration: parameters are sorted and
//!   assigned a unique index in the gradient synchronization vector (§V-A1).
//! * [`SyncVector`] — the per-worker readiness bit vector; agreement is a
//!   **min/AND all-reduce** among MPI processes, fully decentralized — no
//!   Horovod-style master (§V-A2).
//! * [`packing`] — splitting/merging gradient tensors into all-reduce units
//!   of the tuned communication granularity (§V-B), and the tracker that
//!   regroups reduced units back into whole gradients.
//! * [`AiaccEngine`] — the multi-streamed communication engine: a pool of
//!   communication streams, each running its own concurrent ring (or
//!   hierarchical) all-reduce over the same physical network (Fig. 7b,
//!   Algorithm 1).
//! * [`Perseus`] — the data-plane API (named after the paper's unified API):
//!   lock-step gradient submission for real multi-worker training with exact
//!   numerical results.
//! * [`ddl`] — the engine trait and context shared with the baseline
//!   implementations so every framework runs on the same simulated substrate.
//!
//! # Example
//!
//! ```
//! use aiacc_core::{AiaccConfig, GradientRegistry};
//! use aiacc_dnn::{zoo, DType};
//!
//! let registry = GradientRegistry::from_profile(&zoo::resnet50(), DType::F32);
//! assert_eq!(registry.len(), zoo::resnet50().num_gradients());
//! let cfg = AiaccConfig::default().with_streams(8);
//! assert_eq!(cfg.streams, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ddl;
mod engine;
pub mod packing;
mod perseus;
mod registry;
mod syncvec;
pub mod translate;

pub use engine::{AiaccConfig, AiaccEngine, AiaccStats};
pub use perseus::{Perseus, PerseusConfig};
pub use registry::{GradientInfo, GradientRegistry};
pub use syncvec::SyncVector;
