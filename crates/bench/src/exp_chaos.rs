//! The chaos figure: how much the tail JCT of a shared cluster *degrades*
//! when seeded node crashes, stragglers, and NIC faults are injected —
//! AIACC vs single-stream Horovod, identical workload and identical chaos.
//!
//! The headline metric is the absolute p99-JCT degradation
//! `Δp99 = p99(chaos) − p99(clean)` per engine, averaged over chaos seeds.
//! An absolute delta (not a ratio) is the honest comparison here: the
//! elastic-shrink pause is a fixed cost, and AIACC's much smaller clean p99
//! would make an identical pause look *worse* for AIACC on a ratio scale.
//! AIACC degrades less in absolute terms because its compressed schedule
//! spends fewer GPU-seconds exposed to the wall-clock crash windows — the
//! same seeded chaos simply finds fewer AIACC gangs to kill — and because
//! its multi-stream engine restores fabric throughput on the shrunken
//! surviving ring faster than a single-stream engine can.

use crate::report::Table;
use aiacc_cluster::ClusterSpec;
use aiacc_core::AiaccConfig;
use aiacc_sched::{
    summarize, ClusterMetrics, MultiJobCfg, PlacePolicy, RecoveryPolicy, Workload, WorkloadCfg,
};
use aiacc_simnet::{par, FaultPlan, SimDuration};
use aiacc_trainer::EngineKind;

/// Chaos seeds swept by the full figure (each seeds both the workload and
/// the fault plan, so engines face identical pairs).
pub const CHAOS_SEEDS: &[u64] = &[3, 5, 7, 11, 13, 17, 21, 31];

/// A reduced sweep for quick runs.
pub const CHAOS_QUICK_SEEDS: &[u64] = &[3, 7];

/// Concurrent jobs per scenario.
const CHAOS_NJOBS: usize = 8;

/// Fault-plan horizon. Deliberately longer than either engine's clean
/// makespan: chaos events land at wall-clock instants spread over the whole
/// window, so an engine that clears the cluster sooner simply dodges the
/// later faults — finishing fast IS the availability advantage being
/// measured.
const CHAOS_HORIZON_SECS: f64 = 60.0;

/// Extra mixed fault events beyond the guaranteed crash + straggler.
const CHAOS_EXTRA_EVENTS: usize = 12;

/// One `(seed, engine)` cell of the chaos figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// The workload/fault seed.
    pub seed: u64,
    /// Engine label (`aiacc` / `horovod`).
    pub engine: &'static str,
    /// Fault-free cluster metrics.
    pub clean: ClusterMetrics,
    /// Metrics under the seeded chaos plan.
    pub chaos: ClusterMetrics,
}

impl ChaosPoint {
    /// Absolute p99-JCT degradation under chaos, seconds.
    pub fn delta_p99_secs(&self) -> f64 {
        self.chaos.jct_p99_secs - self.clean.jct_p99_secs
    }
}

/// AIACC with the chaos hardening the CLI applies under `--chaos`: stall
/// watchdog armed, resubmission budget bounded so retries back off.
fn aiacc_hardened() -> EngineKind {
    EngineKind::Aiacc(
        AiaccConfig::default()
            .with_stall_timeout(SimDuration::from_secs_f64(0.5))
            .with_max_resubmissions(4),
    )
}

/// Runs one engine through the clean and chaos variants of one seed's
/// scenario: 8 comm-heavy jobs on a 4-node × 8-V100 TCP cluster, spread
/// placement, elastic-shrink recovery, straggler mitigation at 1.3× the
/// cluster-median slowdown.
fn chaos_point(seed: u64, engine: EngineKind, iterations: usize) -> ChaosPoint {
    let cluster = ClusterSpec::tcp_v100(32);
    let wl = Workload::generate(
        &WorkloadCfg::new(CHAOS_NJOBS, seed).with_engine(engine).with_iterations(iterations),
    );
    let plan = FaultPlan::chaos(
        seed,
        cluster.nodes,
        SimDuration::from_secs_f64(CHAOS_HORIZON_SECS),
        CHAOS_EXTRA_EVENTS,
    );
    let clean = summarize(&aiacc_sched::run_multijob(MultiJobCfg::new(
        cluster.clone(),
        PlacePolicy::Spread,
        wl.clone(),
    )));
    let chaos = summarize(&aiacc_sched::run_multijob(
        MultiJobCfg::new(cluster, PlacePolicy::Spread, wl)
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::Shrink)
            .with_straggler_mitigation(1.3),
    ));
    ChaosPoint { seed, engine: engine.label(), clean, chaos }
}

/// Computes every `(seed, engine)` cell of the chaos figure in parallel.
pub fn chaos_points(seeds: &[u64], iterations: usize) -> Vec<ChaosPoint> {
    let mut cells = Vec::new();
    for &seed in seeds {
        cells.push((seed, aiacc_hardened()));
        cells.push((seed, EngineKind::Horovod(Default::default())));
    }
    par::map(&cells, |&(seed, engine)| chaos_point(seed, engine, iterations))
}

/// Mean absolute p99 degradation for `engine` over `points`.
pub fn mean_delta_p99(points: &[ChaosPoint], engine: &str) -> f64 {
    let deltas: Vec<f64> =
        points.iter().filter(|p| p.engine == engine).map(|p| p.delta_p99_secs()).collect();
    assert!(!deltas.is_empty(), "no chaos points for engine {engine}");
    deltas.iter().sum::<f64>() / deltas.len() as f64
}

/// The availability gate: AIACC's mean absolute p99 degradation stays
/// strictly below Horovod's, and the chaos plan crashed at least one gang.
pub fn check_chaos(points: &[ChaosPoint]) {
    let aiacc = mean_delta_p99(points, "aiacc");
    let horovod = mean_delta_p99(points, "horovod");
    assert!(
        aiacc < horovod,
        "aiacc mean delta-p99 {aiacc:.3}s must stay below horovod's {horovod:.3}s"
    );
    // Chaos actually bites: some seed crashed a running gang.
    assert!(points.iter().any(|p| p.chaos.crashes_total > 0), "no crash ever hit a gang");
}

/// The chaos figure: per-seed clean/chaos p99 JCT, the degradation delta,
/// and the recovery accounting, one row per `(seed, engine)`. Panics if the
/// sweep fails [`check_chaos`].
pub fn fig_chaos(seeds: &[u64], iterations: usize) -> Table {
    let mut t = Table::new(
        "Chaos: tail-JCT degradation under seeded crashes + stragglers (shrink recovery, 4x8 V100, TCP)",
        &[
            "seed",
            "engine",
            "clean_p99_s",
            "chaos_p99_s",
            "delta_p99_s",
            "crashes",
            "shrinks",
            "mitigations",
            "recovery_s",
            "failed",
        ],
    );
    let points = chaos_points(seeds, iterations);
    check_chaos(&points);
    for p in points {
        t.push(vec![
            p.seed.to_string(),
            p.engine.to_string(),
            format!("{:.3}", p.clean.jct_p99_secs),
            format!("{:.3}", p.chaos.jct_p99_secs),
            format!("{:.3}", p.delta_p99_secs()),
            p.chaos.crashes_total.to_string(),
            p.chaos.shrinks_total.to_string(),
            p.chaos.mitigations_total.to_string(),
            format!("{:.3}", p.chaos.recovery_total_secs),
            p.chaos.njobs_failed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aiacc_degrades_less_than_horovod_under_chaos() {
        check_chaos(&chaos_points(CHAOS_SEEDS, 6));
    }

    #[test]
    fn figure_has_one_row_per_cell_and_is_deterministic() {
        let a = fig_chaos(CHAOS_QUICK_SEEDS, 2);
        let b = fig_chaos(CHAOS_QUICK_SEEDS, 2);
        assert_eq!(a.rows.len(), 2 * CHAOS_QUICK_SEEDS.len());
        assert_eq!(a.rows, b.rows, "chaos figure must be reproducible");
    }
}
