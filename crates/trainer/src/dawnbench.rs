//! DAWNBench time-to-accuracy estimation (§VIII-C).
//!
//! The paper reports training ResNet-50 to 93 % top-5 on ImageNet in 158
//! seconds on 128 V100 GPUs (16 instances) at a cost of $7.43 — the top of
//! the DAWNBench board at the time. The communication-dependent part of that
//! record is the aggregate throughput; epochs-to-target is an algorithmic
//! property (AIACC's hybrid optimizer + linear decay reach the target in
//! roughly 28 effective epochs with the usual large-batch tricks).

use crate::engines::EngineKind;
use crate::sim::{run_training_sim, TrainingSimConfig};
use aiacc_cluster::{ClusterSpec, GpuSpec, NodeSpec};
use aiacc_compress::Scheme;
use aiacc_core::AiaccConfig;
use aiacc_dnn::zoo;
use serde::{Deserialize, Serialize};

/// ImageNet-1k training-set size.
pub const IMAGENET_IMAGES: f64 = 1_281_167.0;

/// Effective epochs to 93 % top-5 with the AIACC recipe.
pub const EPOCHS_TO_TARGET: f64 = 28.0;

/// Alibaba GPU-cloud price of one 8×V100 instance, USD/hour (derived from
/// the paper's $7.43 / 158 s / 16 instances).
pub const INSTANCE_USD_PER_HOUR: f64 = 10.58;

/// A DAWNBench-style estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DawnbenchEstimate {
    /// Aggregate throughput in images/second.
    pub images_per_sec: f64,
    /// Seconds to reach the accuracy target.
    pub seconds_to_target: f64,
    /// Public-cloud cost in USD.
    pub cost_usd: f64,
    /// GPUs used.
    pub gpus: usize,
}

/// Estimates time and cost to train ResNet-50 to 93 % top-5 on `gpus` V100s
/// with AIACC-Training's record recipe (mixed precision + tuned
/// communication).
///
/// # Panics
/// Panics if `gpus` is zero.
pub fn estimate(gpus: usize) -> DawnbenchEstimate {
    assert!(gpus > 0, "need at least one GPU");
    // The record run used tensor-core mixed precision: model the V100's
    // tensor cores (125 TFLOP/s peak) at typical mixed-precision training
    // efficiency.
    let gpu = GpuSpec {
        name: "V100-SXM2-32GB (mixed precision)".to_string(),
        fp32_tflops: 125.0,
        efficiency: 0.35,
        ..GpuSpec::v100()
    };
    let node = NodeSpec { gpu, ..NodeSpec::alibaba_v100_tcp() };
    let cluster = ClusterSpec::with_total_gpus(gpus, node);

    let cfg = TrainingSimConfig::new(
        cluster.clone(),
        zoo::resnet50(),
        EngineKind::Aiacc(AiaccConfig::default().with_streams(12).with_compress(Scheme::Fp16)),
    )
    .with_batch(192)
    .with_iterations(1, 3);
    let report = run_training_sim(cfg);

    let seconds = EPOCHS_TO_TARGET * IMAGENET_IMAGES / report.samples_per_sec;
    let instances = cluster.nodes as f64;
    let cost = instances * INSTANCE_USD_PER_HOUR * seconds / 3600.0;
    DawnbenchEstimate {
        images_per_sec: report.samples_per_sec,
        seconds_to_target: seconds,
        cost_usd: cost,
        gpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_configuration_lands_near_paper_numbers() {
        let e = estimate(128);
        // Paper: 158 s, $7.43. Our substrate is a simulator — demand the
        // same order of magnitude and the right cost coupling.
        assert!(
            (100.0..400.0).contains(&e.seconds_to_target),
            "time-to-93% = {:.0}s",
            e.seconds_to_target
        );
        assert!((3.0..20.0).contains(&e.cost_usd), "cost = ${:.2}", e.cost_usd);
        assert!(e.images_per_sec > 100_000.0, "{} img/s", e.images_per_sec);
    }

    #[test]
    fn more_gpus_train_faster_but_cost_similar() {
        let small = estimate(64);
        let large = estimate(128);
        assert!(large.seconds_to_target < small.seconds_to_target);
        // Cost scales sub-linearly thanks to near-linear throughput scaling.
        assert!(large.cost_usd < small.cost_usd * 1.5);
    }
}
