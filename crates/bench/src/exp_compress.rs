//! Gradient-compression experiments: the convergence-vs-wall-clock frontier.
//!
//! Three tables (`repro compress`), each checking its gate on every run:
//!
//! 1. **Data plane** (`compress_data_plane`) — a real MLP trained through
//!    the exact Perseus data plane once per scheme: final loss, accuracy,
//!    and the measured per-step wire bytes (with error feedback for the
//!    lossy schemes). Gate: every lossy scheme stays within 0.10 accuracy
//!    of the exact run and shrinks the wire.
//! 2. **Frontier** (`compress_frontier`) — the many-gradient
//!    `ctr_production` model on a *low-bandwidth* (5 Gbps) cluster, swept
//!    over scheme × stream count in the timing plane. On such a link the
//!    gate is that some compressed configuration beats the best
//!    uncompressed one at *any* stream count: multi-streaming alone cannot
//!    buy back a 4–32× payload reduction.
//! 3. **Autotune** (`compress_tuning`) — the §VI bandit run twice on that
//!    cluster: over the classic 3-axis space, then over the 4-axis space
//!    with compression, warm-started from the 3-axis winner (via the
//!    warm-start cache), so the 4-axis best is deterministically no worse.
//!    Gate: it is strictly better.

use crate::report::Table;
use aiacc_autotune::cache::TuningCache;
use aiacc_cluster::{ClusterSpec, GpuSpec, NetKind, NicSpec, NodeSpec};
use aiacc_compress::Scheme;
use aiacc_core::AiaccConfig;
use aiacc_dnn::{data::Dataset, zoo};
use aiacc_simnet::{par, SimDuration};
use aiacc_trainer::tune::tune_aiacc_in;
use aiacc_trainer::{
    DataParallelConfig, DataParallelTrainer, EngineKind, TrainingSim, TrainingSimConfig,
};

/// The schemes every compression experiment sweeps (uncompressed first).
pub const COMPRESS_SCHEMES: &[Scheme] = &[
    Scheme::None,
    Scheme::Fp16,
    Scheme::Int8,
    Scheme::TopK { ratio: 8 },
    Scheme::TopK { ratio: 64 },
];

/// Seed of both auto-tuner runs in [`compress_tuning`].
const TUNE_SEED: u64 = 7;

/// Stream counts for the frontier sweep.
pub const FRONTIER_STREAMS: &[usize] = &[1, 2, 4, 8, 16];

/// A reduced stream sweep for `repro --quick`.
pub const FRONTIER_QUICK_STREAMS: &[usize] = &[1, 4, 16];

/// The frontier's low-bandwidth cluster: 2 × 8 V100 behind 5 Gbps TCP —
/// the regime where gradient bytes, not stream concurrency, bound the
/// iteration.
pub fn low_bandwidth_cluster(total_gpus: usize) -> ClusterSpec {
    let nic = NicSpec {
        kind: NetKind::Tcp,
        bandwidth_gbps: 5.0,
        per_flow_cap: 0.30,
        latency: SimDuration::from_micros(25),
    };
    ClusterSpec::with_total_gpus(
        total_gpus,
        NodeSpec { gpus_per_node: 8, gpu: GpuSpec::v100(), nic },
    )
}

/// One data-plane training run: real gradients, exact collectives, lossy
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPlanePoint {
    /// Compression scheme on the wire.
    pub scheme: Scheme,
    /// Final training loss after `steps`.
    pub final_loss: f64,
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Measured bytes one worker put on the wire in the last step.
    pub wire_bytes_per_step: u64,
}

/// Trains the 4→16→3 MLP through the exact data plane once per scheme and
/// measures what the lossy wire costs. Fully seeded and serial per run;
/// the runs fan out over [`par::map`] workers bit-deterministically.
pub fn data_plane_points(steps: u64) -> Vec<DataPlanePoint> {
    let test = Dataset::gaussian_blobs(1000, 4, 3, 12345);
    par::map(COMPRESS_SCHEMES, |&scheme| {
        let mut cfg = DataParallelConfig::new(vec![4, 16, 3], 4, 8);
        cfg.compress = scheme;
        let mut t = DataParallelTrainer::new(cfg);
        let stats = t.train(steps);
        DataPlanePoint {
            scheme,
            final_loss: stats.losses.last().copied().unwrap_or(f64::NAN),
            accuracy: t.accuracy(&test),
            wire_bytes_per_step: t.last_step_wire_bytes(),
        }
    })
}

/// One timing-plane frontier point: scheme × streams on the low-bandwidth
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Compression scheme on the wire.
    pub scheme: Scheme,
    /// Concurrent communication streams.
    pub streams: usize,
    /// Simulated seconds per training iteration.
    pub iter_s: f64,
}

/// Sweeps scheme × stream count for `ctr_production` on the low-bandwidth
/// cluster. Each point is one warmed-up simulated iteration; points fan out
/// over [`par::map`] workers and are bit-identical for any worker count.
pub fn frontier_points(streams: &[usize]) -> Vec<FrontierPoint> {
    let cluster = low_bandwidth_cluster(16);
    let model = zoo::ctr_production();
    let grid: Vec<(Scheme, usize)> =
        COMPRESS_SCHEMES.iter().flat_map(|&sch| streams.iter().map(move |&s| (sch, s))).collect();
    par::map(&grid, |&(scheme, streams)| {
        let engine =
            EngineKind::Aiacc(AiaccConfig::default().with_streams(streams).with_compress(scheme));
        let mut sim = TrainingSim::new(
            TrainingSimConfig::new(cluster.clone(), model.clone(), engine).with_seed(1),
        );
        let _ = sim.run_iteration(); // warm-up
        FrontierPoint { scheme, streams, iter_s: sim.run_iteration().as_secs_f64() }
    })
}

/// The two auto-tuner runs of the compression experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneComparison {
    /// Winner of the classic 3-axis (streams/granularity/algo) search.
    pub uncompressed: aiacc_autotune::TuningConfig,
    /// Its per-iteration value in simulated seconds.
    pub uncompressed_s: f64,
    /// Winner of the 4-axis search with the compression knob.
    pub compressed: aiacc_autotune::TuningConfig,
    /// Its per-iteration value in simulated seconds.
    pub compressed_s: f64,
}

/// Runs the bandit over the default 3-axis space, stores the winner in a
/// warm-start cache, then searches the 4-axis compression space seeded from
/// it. The warm start is evaluated first, so `compressed_s <=
/// uncompressed_s` holds by construction; the gate is that the inequality
/// is *strict* on the low-bandwidth cluster — the tuner must find a lossy
/// scheme that beats its own uncompressed optimum.
pub fn tune_comparison(budget: usize, seed: u64) -> TuneComparison {
    use aiacc_autotune::TuningSpace;
    let cluster = low_bandwidth_cluster(16);
    let model = zoo::ctr_production();
    let cache = TuningCache::new();
    let (_, plain) =
        tune_aiacc_in(TuningSpace::default(), &model, &cluster, budget, seed, Some(&cache));
    let (_, wide) = tune_aiacc_in(
        TuningSpace::default().with_compression(),
        &model,
        &cluster,
        budget,
        seed,
        Some(&cache),
    );
    TuneComparison {
        uncompressed: plain.best,
        uncompressed_s: plain.best_value,
        compressed: wide.best,
        compressed_s: wide.best_value,
    }
}

/// The data-plane gate: every lossy scheme stays within 0.10 accuracy of
/// the uncompressed run and puts strictly fewer bytes on the wire.
pub fn check_data_plane(points: &[DataPlanePoint]) {
    let exact = points.iter().find(|p| p.scheme == Scheme::None).expect("uncompressed run");
    for p in points.iter().filter(|p| p.scheme != Scheme::None) {
        assert!(
            p.accuracy >= exact.accuracy - 0.10,
            "{} lost too much accuracy: {:.3} vs {:.3}",
            p.scheme,
            p.accuracy,
            exact.accuracy
        );
        assert!(
            p.wire_bytes_per_step < exact.wire_bytes_per_step,
            "{} did not shrink the wire ({} vs {} B/step)",
            p.scheme,
            p.wire_bytes_per_step,
            exact.wire_bytes_per_step
        );
    }
}

/// The frontier gate: the best compressed point is strictly faster than
/// the best uncompressed point at any stream count.
pub fn check_frontier(points: &[FrontierPoint]) {
    let best = |lossy: bool| {
        let side = points.iter().filter(|p| (p.scheme != Scheme::None) == lossy);
        side.min_by(|a, b| a.iter_s.total_cmp(&b.iter_s)).expect("non-empty frontier slice")
    };
    let (best_plain, best_lossy) = (best(false), best(true));
    assert!(
        best_lossy.iter_s < best_plain.iter_s,
        "no compressed config beat the best uncompressed ({} streams, {:.4}s) on the \
         low-bandwidth cluster",
        best_plain.streams,
        best_plain.iter_s
    );
}

/// The tuner gate: the warm-started 4-axis search finds a compressed
/// configuration strictly better than the 3-axis uncompressed optimum.
pub fn check_tuning(tc: &TuneComparison) {
    assert!(
        tc.compressed_s < tc.uncompressed_s,
        "the tuner found no compressed config better than its uncompressed optimum \
         ({} at {:.4}s vs {:.4}s)",
        tc.uncompressed,
        tc.uncompressed_s,
        tc.compressed_s
    );
}

/// The data-plane table after `steps` training steps, one row per scheme.
/// Panics if the runs fail [`check_data_plane`].
pub fn compress_data_plane(steps: u64) -> Table {
    let points = data_plane_points(steps);
    check_data_plane(&points);
    let mut t = Table::new(
        format!("Compression data plane: 4-16-3 MLP, 4 workers, {steps} steps, error feedback"),
        &["scheme", "final_loss", "accuracy", "wire_bytes_per_step"],
    );
    for p in points {
        let (loss, acc) = (format!("{:.6}", p.final_loss), format!("{:.4}", p.accuracy));
        t.push(vec![p.scheme.to_string(), loss, acc, p.wire_bytes_per_step.to_string()]);
    }
    t
}

/// The frontier table: simulated seconds per iteration for every scheme ×
/// stream count. Panics if the sweep fails [`check_frontier`].
pub fn compress_frontier(streams: &[usize]) -> Table {
    let points = frontier_points(streams);
    check_frontier(&points);
    let mut t = Table::new(
        "Compression frontier: ctr_production on 2x8 V100 behind 5 Gbps TCP",
        &["scheme", "streams", "iter_s"],
    );
    for p in points {
        t.push(vec![p.scheme.to_string(), p.streams.to_string(), format!("{:.6}", p.iter_s)]);
    }
    t
}

/// The auto-tuner table: the best configuration of the 3-axis search and of
/// the warm-started 4-axis search, `budget` evaluations each. Panics if the
/// two fail [`check_tuning`].
pub fn compress_tuning(budget: usize) -> Table {
    let tc = tune_comparison(budget, TUNE_SEED);
    check_tuning(&tc);
    let mut t = Table::new(
        "Compression autotune: 3-axis search, then 4-axis warm-started from its winner",
        &["space", "budget", "best_config", "iter_s"],
    );
    let runs = [
        ("3-axis", tc.uncompressed, tc.uncompressed_s),
        ("4-axis", tc.compressed, tc.compressed_s),
    ];
    for (space, config, iter_s) in runs {
        t.push(vec![space.into(), budget.to_string(), config.to_string(), format!("{iter_s:.6}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_schemes_stay_accurate_and_shrink_the_wire() {
        check_data_plane(&data_plane_points(120));
    }

    #[test]
    fn compressed_frontier_beats_every_uncompressed_stream_count() {
        check_frontier(&frontier_points(FRONTIER_QUICK_STREAMS));
    }

    #[test]
    fn compressed_tuner_is_strictly_better() {
        check_tuning(&tune_comparison(12, TUNE_SEED));
    }

    #[test]
    fn tables_are_deterministic() {
        let run = || {
            [
                compress_data_plane(120),
                compress_frontier(FRONTIER_QUICK_STREAMS),
                compress_tuning(12),
            ]
        };
        let (a, n) = (run(), COMPRESS_SCHEMES.len());
        let rows: Vec<usize> = a.iter().map(|t| t.rows.len()).collect();
        assert_eq!(rows, [n, n * FRONTIER_QUICK_STREAMS.len(), 2]);
        assert_eq!(a, run(), "compression tables must be reproducible");
    }
}
