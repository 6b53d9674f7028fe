//! Elastic failure-recovery guarantees for the multi-job scheduler: crash
//! handling reconciles with the single-job `TrainingSim` and the recovery
//! replay closed forms, dead nodes are quarantined until repair, every
//! recovery policy survives a full chaos plan without stalling, the whole
//! chaos scenario is bit-reproducible for any sweep worker count, and the
//! availability headline (AIACC's tail degrades less than Horovod's under
//! identical seeded chaos) holds.

use aiacc::prelude::*;
use aiacc::sched::{JobSpec, MultiJobSim, RecoveryPolicy, SchedError};
use aiacc::trainer::recovery::{replay_elastic_join, replay_failure_recovery};
use aiacc::trainer::TrainingSim;

fn one_job(model: &str, gpus: usize, engine: EngineKind, iterations: usize, seed: u64) -> Workload {
    Workload {
        jobs: vec![JobSpec {
            id: 0,
            arrival_secs: 0.0,
            model: model.to_string(),
            gpus,
            engine,
            iterations,
            seed,
        }],
    }
}

/// A crash that repairs itself well inside the ~20 s checkpoint-restart
/// pause, so the victim re-places on its original nodes.
fn crash_with_quick_repair(node: u32, at_secs: f64) -> FaultPlan {
    FaultPlan::new().crash_node_for(
        node,
        SimTime::from_secs_f64(at_secs),
        SimDuration::from_secs_f64(5.0),
    )
}

/// The standard chaos scenario the CLI's `--chaos` flag drives: 8 jobs on a
/// 4-node cluster under a seeded plan with a guaranteed crash + straggler.
fn chaos_cfg(seed: u64, recovery: RecoveryPolicy) -> MultiJobCfg {
    let cluster = ClusterSpec::tcp_v100(32);
    let wl = Workload::generate(&WorkloadCfg::new(8, seed).with_iterations(3));
    let plan = FaultPlan::chaos(seed, cluster.nodes, SimDuration::from_secs_f64(40.0), 6);
    MultiJobCfg::new(cluster, PlacePolicy::Spread, wl)
        .with_faults(plan)
        .with_recovery(recovery)
        .with_straggler_mitigation(1.3)
}

/// With a single job occupying the whole cluster, a node crash under
/// `RecoveryPolicy::Restart` must cost exactly what the single-job
/// `TrainingSim` charges for the same `FaultPlan`: the interrupted
/// iteration absorbs the lost attempt plus the replayed checkpoint-restart
/// pause, and every other iteration is untouched.
#[test]
fn single_job_crash_matches_training_sim() {
    let cluster = ClusterSpec::tcp_v100(16);
    let plan = crash_with_quick_repair(1, 1.0);
    let mut single = TrainingSim::new(
        TrainingSimConfig::new(cluster.clone(), zoo::vgg16(), EngineKind::aiacc_default())
            .with_faults(plan.clone()),
    );
    let expect: Vec<f64> = (0..4).map(|_| single.run_iteration().as_secs_f64()).collect();

    let wl = one_job("vgg16", 16, EngineKind::aiacc_default(), 4, 42);
    let report = run_multijob(
        MultiJobCfg::new(cluster, PlacePolicy::Packed, wl)
            .with_faults(plan)
            .with_recovery(RecoveryPolicy::Restart),
    );
    let job = &report.jobs[0];
    assert_eq!(job.crashes, 1, "the crash must hit the whole-cluster gang");
    assert_eq!(job.restarts, 1);
    assert_eq!(job.iter_secs, expect, "scheduler crash accounting diverged from TrainingSim");
}

/// `Restart` recovery charges the replayed checkpoint-restart timeline; the
/// job's recovery bill must reconcile with the closed form within 10%.
#[test]
fn restart_recovery_reconciles_with_replay_closed_form() {
    let cluster = ClusterSpec::tcp_v100(16);
    let wl = one_job("vgg16", 16, EngineKind::aiacc_default(), 4, 42);
    let report = run_multijob(
        MultiJobCfg::new(cluster.clone(), PlacePolicy::Packed, wl)
            .with_faults(crash_with_quick_repair(0, 1.0))
            .with_recovery(RecoveryPolicy::Restart),
    );
    let job = &report.jobs[0];
    assert_eq!(job.restarts, 1);
    let closed = replay_failure_recovery(&cluster, &zoo::vgg16()).total_secs;
    let ratio = job.recovery_secs / (f64::from(job.restarts) * closed);
    assert!(
        (ratio - 1.0).abs() < 0.10,
        "restart bill {} vs closed form {} per restart",
        job.recovery_secs,
        closed
    );
    // The pause lands inside the victim's JCT, not beside it.
    assert!(job.jct_secs() > closed, "JCT {} must absorb the pause {}", job.jct_secs(), closed);
}

/// `Shrink` recovery charges an elastic membership change on the surviving
/// sub-cluster; the bill must reconcile with `replay_elastic_join` on the
/// survivor spec within 10%, and the shrunken gang must lose its dead node.
#[test]
fn shrink_recovery_reconciles_with_elastic_join_closed_form() {
    let cluster = ClusterSpec::tcp_v100(16); // 2 nodes x 8
    let wl = one_job("vgg16", 16, EngineKind::aiacc_default(), 4, 42);
    let report = run_multijob(
        MultiJobCfg::new(cluster, PlacePolicy::Packed, wl)
            .with_faults(FaultPlan::new().crash_node_for(
                1,
                SimTime::from_secs_f64(1.0),
                SimDuration::from_secs_f64(1000.0),
            ))
            .with_recovery(RecoveryPolicy::Shrink),
    );
    let job = &report.jobs[0];
    assert_eq!(job.shrinks, 1);
    assert_eq!(job.restarts, 0);
    assert_eq!(job.nodes_used, 1, "gang must continue on the lone surviving node");
    assert!(!job.failed);
    assert_eq!(job.iter_secs.len(), 4, "elastic continue must still finish every iteration");
    let survivors = ClusterSpec::tcp_v100(8);
    let closed = replay_elastic_join(&survivors, &zoo::vgg16(), 1).total_secs;
    let ratio = job.recovery_secs / closed;
    assert!(
        (ratio - 1.0).abs() < 0.10,
        "shrink bill {} vs elastic-join closed form {}",
        job.recovery_secs,
        closed
    );
    // Shrinking is much cheaper than a full checkpoint restart — that is
    // the point of the elastic path.
    let restart = replay_failure_recovery(&ClusterSpec::tcp_v100(16), &zoo::vgg16()).total_secs;
    assert!(job.recovery_secs < restart / 2.0);
}

/// A crashed node's GPUs are quarantined: a gang that fits only with the
/// dead node's capacity must wait in the queue until the repair lands, and
/// its start time pins to the repair instant.
#[test]
fn dead_node_is_quarantined_until_repair() {
    let mut wl = one_job("tiny_cnn", 8, EngineKind::aiacc_default(), 2, 9);
    wl.jobs.push(JobSpec {
        id: 1,
        arrival_secs: 2.0,
        model: "vgg16".to_string(),
        gpus: 16,
        engine: EngineKind::aiacc_default(),
        iterations: 2,
        seed: 10,
    });
    let crash_at = 0.5;
    let repair_after = 4.0;
    let report = run_multijob(
        MultiJobCfg::new(ClusterSpec::tcp_v100(16), PlacePolicy::Packed, wl)
            .with_faults(FaultPlan::new().crash_node_for(
                1,
                SimTime::from_secs_f64(crash_at),
                SimDuration::from_secs_f64(repair_after),
            ))
            .with_recovery(RecoveryPolicy::Restart),
    );
    // Job 0 packs onto node 0; the crash on node 1 never touches it.
    assert_eq!(report.jobs[0].crashes, 0);
    // Job 1 needs the whole cluster: it arrives at 2.0 s while node 1 is
    // down and must not start before the repair at 4.5 s.
    let job = &report.jobs[1];
    assert!(!job.failed);
    assert!(
        job.start_secs >= crash_at + repair_after - 1e-9,
        "job 1 started at {} on a cluster missing a node",
        job.start_secs
    );
    assert_eq!(job.iter_secs.len(), 2);
}

/// With the dead node never repaired, a gang larger than the surviving
/// capacity cannot wait forever: the anti-stall path must fail it
/// deterministically instead of deadlocking the queue.
#[test]
fn unplaceable_job_fails_instead_of_stalling() {
    let mut wl = one_job("tiny_cnn", 8, EngineKind::aiacc_default(), 2, 9);
    wl.jobs.push(JobSpec {
        id: 1,
        arrival_secs: 2.0,
        model: "vgg16".to_string(),
        gpus: 16,
        engine: EngineKind::aiacc_default(),
        iterations: 2,
        seed: 10,
    });
    let report = run_multijob(
        MultiJobCfg::new(ClusterSpec::tcp_v100(16), PlacePolicy::Packed, wl)
            .with_faults(FaultPlan::new().crash_node(1, SimTime::from_secs_f64(0.5)))
            .with_recovery(RecoveryPolicy::Restart),
    );
    assert!(!report.jobs[0].failed, "job 0 fits on the surviving node");
    assert!(report.jobs[1].failed, "a 16-GPU gang cannot ever fit on 8 surviving GPUs");
    assert!(report.jobs[1].iter_secs.is_empty());
    let m = summarize(&report);
    assert_eq!(m.njobs_failed, 1);
}

/// Every recovery policy must drive the full chaos plan (guaranteed crash +
/// straggler plus mixed NIC faults) to completion with no stalled jobs:
/// every job either finishes all its iterations or is explicitly failed.
#[test]
fn chaos_completes_without_stalls_for_every_policy() {
    let plan = FaultPlan::chaos(7, 4, SimDuration::from_secs_f64(40.0), 6);
    assert!(
        plan.events().iter().any(|e| matches!(e.kind, FaultKind::Straggler { .. })),
        "chaos plan must schedule a straggler"
    );
    assert!(!plan.crash_spans().is_empty(), "chaos plan must schedule a crash");

    for policy in [RecoveryPolicy::Restart, RecoveryPolicy::Shrink, RecoveryPolicy::Fail] {
        let report = run_multijob(chaos_cfg(7, policy));
        assert_eq!(report.jobs.len(), 8);
        for job in &report.jobs {
            assert!(
                job.failed || job.iter_secs.len() == 3,
                "{policy:?}: job {} stalled with {} of 3 iterations and was not failed",
                job.id,
                job.iter_secs.len()
            );
        }
        let m = summarize(&report);
        assert!(m.crashes_total >= 1, "{policy:?}: no crash ever hit a gang");
        match policy {
            RecoveryPolicy::Restart => assert!(m.restarts_total >= 1 && m.njobs_failed == 0),
            RecoveryPolicy::Shrink => assert!(m.shrinks_total >= 1 && m.njobs_failed == 0),
            RecoveryPolicy::Fail => assert!(m.njobs_failed >= 1),
        }
    }
}

/// Jobs killed by `RecoveryPolicy::Fail` are counted, not averaged: the JCT
/// percentiles must be computed over survivors only.
#[test]
fn failed_jobs_are_excluded_from_jct_percentiles() {
    let report = run_multijob(chaos_cfg(3, RecoveryPolicy::Fail));
    let m = summarize(&report);
    assert!(m.njobs_failed >= 1, "seed 3's guaranteed crash must kill at least one job");
    let worst_survivor =
        report.jobs.iter().filter(|j| !j.failed).map(|j| j.jct_secs()).fold(0.0_f64, f64::max);
    assert!(
        m.jct_p99_secs <= worst_survivor + 1e-9,
        "p99 {} exceeds the worst surviving JCT {} — a failed job leaked into the percentile",
        m.jct_p99_secs,
        worst_survivor
    );
}

/// The whole chaos scenario — crashes, repairs, shrinks, straggler
/// mitigation — must be a pure function of (cluster, workload, plan,
/// policy): repeats and policy sweeps fanned over different worker counts
/// give byte-identical summaries.
#[test]
fn chaos_scenario_is_bit_reproducible() {
    let policies = [RecoveryPolicy::Restart, RecoveryPolicy::Shrink, RecoveryPolicy::Fail];
    let sweep = |jobs: usize| -> Vec<String> {
        aiacc::simnet::par::set_jobs(jobs);
        let out = aiacc::simnet::par::map(&policies, |&policy| {
            summarize(&run_multijob(chaos_cfg(7, policy))).to_tsv_row()
        });
        aiacc::simnet::par::set_jobs(1);
        out
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial, parallel, "chaos summaries differ across sweep worker counts");
    assert_eq!(serial, sweep(4), "repeated parallel chaos sweep diverged");
}

/// Invalid configurations are rejected with typed errors before any event
/// is scheduled — including fault plans that target nodes the cluster does
/// not have.
#[test]
fn try_new_rejects_bad_configs_with_typed_errors() {
    let cluster = ClusterSpec::tcp_v100(16);
    let ok = || one_job("tiny_cnn", 8, EngineKind::aiacc_default(), 2, 1);
    let cfg = |wl| MultiJobCfg::new(cluster.clone(), PlacePolicy::Packed, wl);
    let reject = |cfg: MultiJobCfg| -> SchedError {
        match MultiJobSim::try_new(cfg) {
            Ok(_) => panic!("bad config was accepted"),
            Err(e) => e,
        }
    };

    let err = reject(cfg(Workload { jobs: vec![] }));
    assert!(matches!(err, SchedError::EmptyWorkload), "{err}");

    let mut wl = ok();
    wl.jobs[0].id = 3;
    let err = reject(cfg(wl));
    assert!(matches!(err, SchedError::NonDenseJobIds { .. }), "{err}");

    let mut wl = ok();
    wl.jobs[0].gpus = 64;
    let err = reject(cfg(wl));
    assert!(matches!(err, SchedError::BadGangSize { gpus: 64, .. }), "{err}");

    let mut wl = ok();
    wl.jobs[0].iterations = 0;
    let err = reject(cfg(wl));
    assert!(matches!(err, SchedError::ZeroIterations { job: 0 }), "{err}");

    let mut wl = ok();
    wl.jobs[0].model = "not_a_model".to_string();
    let err = reject(cfg(wl));
    assert!(matches!(err, SchedError::UnknownModel { .. }), "{err}");

    let err =
        reject(cfg(ok()).with_faults(FaultPlan::new().crash_node(9, SimTime::from_secs_f64(1.0))));
    assert!(matches!(err, SchedError::FaultNodeOutOfRange { node: 9, nodes: 2 }), "{err}");
}

/// The availability headline: under identical seeded chaos (same workload,
/// same crash/straggler/NIC-fault plan), AIACC's p99 JCT degrades less than
/// single-stream Horovod's in absolute terms. Reduced-seed version of the
/// gate `repro fig_chaos` applies (`aiacc_bench::check_chaos`).
#[test]
fn aiacc_tail_degrades_less_under_chaos() {
    let points = aiacc_bench::chaos_points(aiacc_bench::CHAOS_QUICK_SEEDS, 6);
    let aiacc = aiacc_bench::mean_delta_p99(&points, "aiacc");
    let horovod = aiacc_bench::mean_delta_p99(&points, "horovod");
    assert!(
        aiacc < horovod,
        "mean delta-p99 under chaos: aiacc {aiacc:.3}s vs horovod {horovod:.3}s"
    );
    assert!(points.iter().any(|p| p.chaos.crashes_total > 0), "no crash ever hit a gang");
    assert!(points.iter().any(|p| p.chaos.mitigations_total > 0), "no straggler was mitigated");
}
