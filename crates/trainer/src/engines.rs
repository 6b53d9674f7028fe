//! Engine and framework selection.

use aiacc_baselines::{
    BytePsConfig, BytePsEngine, DdpConfig, DdpEngine, HorovodConfig, HorovodEngine, KvStoreConfig,
    KvStoreEngine,
};
use aiacc_core::ddl::DdlEngine;
use aiacc_core::{AiaccConfig, AiaccEngine};
use aiacc_dnn::ModelProfile;
use aiacc_simnet::SimDuration;
use std::fmt;

/// Which communication framework runs the simulated job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineKind {
    /// AIACC-Training with the given configuration.
    Aiacc(AiaccConfig),
    /// Horovod v0.23-style master negotiation + single-stream NCCL.
    Horovod(HorovodConfig),
    /// PyTorch v1.10 DistributedDataParallel.
    PyTorchDdp(DdpConfig),
    /// BytePS v0.2 parameter servers.
    BytePs(BytePsConfig),
    /// MXNet distributed KVStore.
    MxnetKvStore(KvStoreConfig),
}

impl EngineKind {
    /// AIACC with default parameters.
    pub fn aiacc_default() -> Self {
        EngineKind::Aiacc(AiaccConfig::default())
    }

    /// Instantiates the engine for a model and world size.
    pub fn build(&self, model: &ModelProfile, world: usize) -> Box<dyn DdlEngine> {
        match self {
            EngineKind::Aiacc(cfg) => Box::new(AiaccEngine::new(model, world, *cfg)),
            EngineKind::Horovod(cfg) => Box::new(HorovodEngine::new(model, world, *cfg)),
            EngineKind::PyTorchDdp(cfg) => Box::new(DdpEngine::new(model, world, *cfg)),
            EngineKind::BytePs(cfg) => Box::new(BytePsEngine::new(model, world, *cfg)),
            EngineKind::MxnetKvStore(cfg) => Box::new(KvStoreEngine::new(model, world, *cfg)),
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Aiacc(_) => "aiacc",
            EngineKind::Horovod(_) => "horovod",
            EngineKind::PyTorchDdp(_) => "pytorch-ddp",
            EngineKind::BytePs(_) => "byteps",
            EngineKind::MxnetKvStore(_) => "mxnet-kvstore",
        }
    }

    /// The engine with default configuration whose [`EngineKind::label`] is
    /// `label`, also accepting the CLI aliases `ddp` and `kvstore`.
    pub fn by_label(label: &str) -> Option<EngineKind> {
        match label {
            "aiacc" => Some(EngineKind::aiacc_default()),
            "horovod" => Some(EngineKind::Horovod(HorovodConfig::default())),
            "pytorch-ddp" | "ddp" => Some(EngineKind::PyTorchDdp(DdpConfig::default())),
            "byteps" => Some(EngineKind::BytePs(BytePsConfig::default())),
            "mxnet-kvstore" | "kvstore" => Some(EngineKind::MxnetKvStore(KvStoreConfig)),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deep-learning framework adapter (§VIII-B): frameworks differ in kernel
/// efficiency and per-iteration runtime overhead, and each ships a different
/// *native* distributed engine that AIACC is compared against in
/// Figs. 9–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// PyTorch v1.10 (native DDL: DistributedDataParallel).
    PyTorch,
    /// TensorFlow (native DDL in the paper's comparison: Horovod).
    TensorFlow,
    /// MXNet (native DDL: KVStore parameter server).
    Mxnet,
}

impl Framework {
    /// Multiplier on compute time relative to PyTorch kernels.
    pub fn compute_factor(self) -> f64 {
        match self {
            Framework::PyTorch => 1.0,
            Framework::TensorFlow => 0.97, // XLA-fused kernels run slightly hotter
            Framework::Mxnet => 1.05,
        }
    }

    /// Fixed per-iteration runtime overhead (graph dispatch, hook calls).
    pub fn per_iter_overhead(self) -> SimDuration {
        match self {
            Framework::PyTorch => SimDuration::from_micros(800),
            Framework::TensorFlow => SimDuration::from_micros(1200),
            Framework::Mxnet => SimDuration::from_micros(1500),
        }
    }

    /// The framework's own distributed engine (the "native" baseline of
    /// Figs. 11/12).
    pub fn native_engine(self) -> EngineKind {
        match self {
            Framework::PyTorch => EngineKind::PyTorchDdp(DdpConfig::default()),
            Framework::TensorFlow => EngineKind::Horovod(HorovodConfig::default()),
            Framework::Mxnet => EngineKind::MxnetKvStore(KvStoreConfig),
        }
    }

    /// Framework name.
    pub fn name(self) -> &'static str {
        match self {
            Framework::PyTorch => "pytorch",
            Framework::TensorFlow => "tensorflow",
            Framework::Mxnet => "mxnet",
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn every_kind_builds() {
        let model = zoo::tiny_cnn();
        for kind in [
            EngineKind::aiacc_default(),
            EngineKind::Horovod(HorovodConfig::default()),
            EngineKind::PyTorchDdp(DdpConfig::default()),
            EngineKind::BytePs(BytePsConfig::default()),
            EngineKind::MxnetKvStore(KvStoreConfig),
        ] {
            let engine = kind.build(&model, 4);
            assert!(!engine.name().is_empty());
            assert!(!engine.comm_done(), "fresh engine should have pending work");
        }
    }

    #[test]
    fn native_engines_match_paper_pairings() {
        assert_eq!(Framework::PyTorch.native_engine().label(), "pytorch-ddp");
        assert_eq!(Framework::TensorFlow.native_engine().label(), "horovod");
        assert_eq!(Framework::Mxnet.native_engine().label(), "mxnet-kvstore");
    }
}
