//! Two-plane time-to-accuracy: real convergence × simulated wall-clock.
//!
//! DAWNBench-style results (§VIII-C) need both halves of this reproduction
//! at once — how many steps a model needs to reach an accuracy target (the
//! *data plane*, real gradients) and how long one step takes on a given
//! cluster with a given communication engine (the *timing plane*). This
//! module glues them: train the real MLP until the target, price each step
//! with the simulated iteration time, and report how engine choice changes
//! wall-clock-to-accuracy even though convergence (steps) is identical for
//! any synchronous engine.

use crate::dataparallel::{DataParallelConfig, DataParallelTrainer};
use crate::engines::EngineKind;
use crate::sim::{TrainingSim, TrainingSimConfig};
use aiacc_cluster::ClusterSpec;
use aiacc_dnn::data::Dataset;
use aiacc_dnn::ModelProfile;

/// Result of a two-plane time-to-accuracy estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeToAccuracy {
    /// Steps the real training needed to reach the target.
    pub steps: u64,
    /// Mean simulated seconds per step for the chosen engine.
    pub secs_per_step: f64,
    /// Simulated wall-clock to target.
    pub total_secs: f64,
    /// Accuracy actually reached.
    pub accuracy: f64,
}

/// Trains the real data-parallel MLP until `target_accuracy` on a held-out
/// set (or `max_steps`), and prices the run with simulated iteration times
/// of `engine` running `comm_profile` on `cluster`.
///
/// `comm_profile` stands in for the communication volume of the real job —
/// for the MLP itself it would be its own profile; passing a zoo model
/// answers "what if a job with this model's communication footprint needed
/// this many steps".
///
/// # Panics
/// Panics if `target_accuracy` is not within `(0, 1]` or `max_steps` is 0.
pub fn time_to_accuracy(
    dp: DataParallelConfig,
    target_accuracy: f64,
    max_steps: u64,
    cluster: ClusterSpec,
    comm_profile: ModelProfile,
    engine: EngineKind,
) -> TimeToAccuracy {
    assert!(target_accuracy > 0.0 && target_accuracy <= 1.0, "bad accuracy target");
    assert!(max_steps > 0, "max_steps must be positive");

    // Data plane: real convergence.
    let dim = dp.layer_sizes[0];
    let classes = *dp.layer_sizes.last().expect("layers");
    let holdout = Dataset::gaussian_blobs(1024, dim, classes, dp.seed ^ 0x7E57);
    let mut trainer = DataParallelTrainer::new(dp);
    let mut accuracy = 0.0;
    let mut steps = 0;
    while steps < max_steps {
        trainer.step();
        steps += 1;
        if steps % 10 == 0 {
            accuracy = trainer.accuracy(&holdout);
            if accuracy >= target_accuracy {
                break;
            }
        }
    }
    if accuracy < target_accuracy {
        accuracy = trainer.accuracy(&holdout);
    }

    // Timing plane: price a step.
    let mut sim = TrainingSim::new(TrainingSimConfig::new(cluster, comm_profile, engine));
    let _ = sim.run_iteration(); // warm-up
    let secs: f64 = (0..3).map(|_| sim.run_iteration().as_secs_f64()).sum::<f64>() / 3.0;

    TimeToAccuracy { steps, secs_per_step: secs, total_secs: steps as f64 * secs, accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    fn dp() -> DataParallelConfig {
        DataParallelConfig::new(vec![4, 16, 3], 4, 8)
    }

    #[test]
    fn reaches_the_target_and_prices_it() {
        let t = time_to_accuracy(
            dp(),
            0.85,
            500,
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        );
        assert!(t.accuracy >= 0.85, "accuracy {}", t.accuracy);
        assert!(t.steps < 500);
        assert!(t.total_secs > 0.0);
        assert!((t.total_secs - t.steps as f64 * t.secs_per_step).abs() < 1e-9);
    }

    #[test]
    fn engine_choice_changes_wall_clock_not_steps() {
        // Synchronous engines converge identically (same averaged gradients)
        // — only the per-step price differs. VGG-16 communication makes the
        // price gap large.
        let mk = |engine| {
            time_to_accuracy(dp(), 0.85, 500, ClusterSpec::tcp_v100(32), zoo::vgg16(), engine)
        };
        let a = mk(EngineKind::aiacc_default());
        let h = mk(EngineKind::Horovod(Default::default()));
        assert_eq!(a.steps, h.steps, "synchronous convergence must not depend on the engine");
        assert!(
            a.total_secs < h.total_secs * 0.8,
            "aiacc {}s vs horovod {}s to the same accuracy",
            a.total_secs,
            h.total_secs
        );
    }

    #[test]
    #[should_panic(expected = "bad accuracy target")]
    fn invalid_target_rejected() {
        let _ = time_to_accuracy(
            dp(),
            1.5,
            10,
            ClusterSpec::tcp_v100(8),
            zoo::tiny_cnn(),
            EngineKind::aiacc_default(),
        );
    }
}
