//! Training-loop simulation and real data-parallel training for the
//! AIACC-Training reproduction.
//!
//! Two halves, mirroring the two planes of the lower crates:
//!
//! * **Timing plane** — [`TrainingSim`]/[`run_training_sim`] drive any
//!   [`aiacc_core::ddl::DdlEngine`] (AIACC or a baseline) through simulated
//!   training iterations on a [`aiacc_cluster::ClusterSpec`], producing the
//!   throughput numbers behind every figure of the paper: per-worker compute
//!   with deterministic jitter, gradient-ready schedules, overlap of
//!   backward with communication, and synchronous iteration boundaries.
//! * **Data plane** — [`DataParallelTrainer`] trains a *real* MLP across
//!   simulated workers through the exact collectives, demonstrating the
//!   numerical equivalence of distributed and single-worker training, plus
//!   fault tolerance (checkpoint/restart, §IV) and elastic scaling.
//!
//! Additional pieces: [`EngineKind`]/[`Framework`] selection (PyTorch /
//! TensorFlow / MXNet adapters, §VIII-B), [`hybrid`] data+model parallelism
//! (Fig. 13), [`tune`] glue between the auto-tuner and the simulator (§VI),
//! and the [`dawnbench`] time-to-accuracy estimator (§VIII-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_dp;
mod dataparallel;
pub mod dawnbench;
mod engines;
pub mod hybrid;
pub mod metrics;
pub mod pipeline;
pub mod recovery;
mod sim;
pub mod timeline;
pub mod tune;

pub use aiacc_core::ddl::{BWD_KIND, GRAD_KIND};
pub use dataparallel::{Checkpoint, DataParallelConfig, DataParallelTrainer, TrainStats};
pub use engines::{EngineKind, Framework};
pub use metrics::{
    scaling_efficiency, speedup, QuantileSketch, ThroughputReport, SKETCH_DEFAULT_K,
};
pub use sim::{
    comm_stream_limits, run_training_sim, schedule_worker_compute, ComputeAttempt,
    IterationBreakdown, TrainingSim, TrainingSimConfig,
};
