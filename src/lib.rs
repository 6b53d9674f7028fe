//! # aiacc — AIACC-Training reproduced in Rust
//!
//! A full reproduction of **"AIACC-Training: Optimizing Distributed Deep
//! Learning Training through Multi-streamed and Concurrent Gradient
//! Communications"** (ICDCS 2022): the multi-streamed concurrent all-reduce
//! engine, its decentralized bit-vector gradient synchronization, the
//! multi-armed-bandit auto-tuner, the baseline frameworks it is compared
//! against (Horovod, PyTorch-DDP, BytePS, MXNet-KVStore), and the simulated
//! GPU-cloud substrate everything runs on (see `DESIGN.md` for the
//! substitution map — no GPUs or NCCL are required).
//!
//! This facade crate re-exports the workspace members under stable module
//! names and offers a [`prelude`].
//!
//! ## Quick start
//!
//! ```
//! use aiacc::prelude::*;
//!
//! // Simulate ResNet-50 data-parallel training on 2 nodes × 8 V100s over
//! // 30 Gbps TCP, with AIACC's multi-streamed communication:
//! let report = run_training_sim(
//!     TrainingSimConfig::new(
//!         ClusterSpec::tcp_v100(16),
//!         zoo::resnet50(),
//!         EngineKind::aiacc_default(),
//!     )
//!     .with_iterations(1, 2),
//! );
//! assert!(report.samples_per_sec > 1000.0);
//! ```
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event + fluid-flow network simulator |
//! | [`dnn`] | wire dtypes, fp16, the Table I model zoo, a real MLP, datasets |
//! | [`cluster`] | GPU/node/cluster specs, topology, compute timing |
//! | [`collectives`] | exact + timed ring/tree all-reduce |
//! | [`optim`] | SGD, linear LR decay, NaN/Inf gradient debugging |
//! | [`compress`] | gradient compressors: top-k + error feedback, fp16, int8, exact wire accounting |
//! | [`core`] | **the paper's contribution**: sync vectors, packing, the multi-streamed engine, Perseus |
//! | [`baselines`] | Horovod, PyTorch-DDP, BytePS, MXNet-KVStore |
//! | [`autotune`] | MAB meta-solver over grid/PBT/Bayesian/Hyperband |
//! | [`trainer`] | the training-loop simulation + real data-parallel training |
//! | [`sched`] | multi-job cluster scheduler: workloads, gang placement, shared-fabric contention, tail-JCT metrics |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aiacc_autotune as autotune;
pub use aiacc_baselines as baselines;
pub use aiacc_cluster as cluster;
pub use aiacc_collectives as collectives;
pub use aiacc_compress as compress;
pub use aiacc_core as core;
pub use aiacc_dnn as dnn;
pub use aiacc_optim as optim;
pub use aiacc_sched as sched;
pub use aiacc_simnet as simnet;
pub use aiacc_trainer as trainer;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use aiacc_autotune::{Tuner, TuningConfig, TuningSpace};
    pub use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
    pub use aiacc_collectives::dataplane::{ring_allreduce, ReduceOp};
    pub use aiacc_collectives::{Algo, CollectiveEngine, CollectiveSpec};
    pub use aiacc_compress::{Compressor, ErrorFeedback, Scheme};
    pub use aiacc_core::{
        AiaccConfig, AiaccEngine, GradientRegistry, Perseus, PerseusConfig, SyncVector,
    };
    pub use aiacc_dnn::{data::Dataset, zoo, DType, Mlp, MlpConfig, ModelProfile};
    pub use aiacc_optim::{Optimizer, Sgd};
    pub use aiacc_sched::{
        run_multijob, summarize, ClusterMetrics, MultiJobCfg, MultiJobReport, PlacePolicy,
        Workload, WorkloadCfg,
    };
    pub use aiacc_simnet::{
        Event, FaultEvent, FaultKind, FaultPlan, FaultTarget, FlowSpec, SimDuration, SimTime,
        Simulator, TraceSink, TraceSummary,
    };
    pub use aiacc_trainer::{
        run_training_sim, scaling_efficiency, speedup, DataParallelConfig, DataParallelTrainer,
        EngineKind, Framework, ThroughputReport, TrainingSim, TrainingSimConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_key_types() {
        use crate::prelude::*;
        let _ = ClusterSpec::tcp_v100(8);
        let _ = AiaccConfig::default();
        let _ = zoo::resnet50();
    }
}
