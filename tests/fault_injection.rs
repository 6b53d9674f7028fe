//! Robustness under injected faults: flaps delay but never corrupt, seeded
//! fault plans are bit-reproducible, and AIACC's multi-streamed engine
//! degrades more gracefully than Horovod's single stream when a NIC loses
//! capacity (the paper's §II-C motivation, inverted: fewer lanes hurt the
//! framework that only ever had one).

use aiacc::prelude::*;
use aiacc::simnet::{FaultPlan, Token};

/// Drives one timed allreduce to completion, returns the finish time in
/// seconds. `faults` is installed before the collective launches.
fn timed_allreduce_secs(bytes: f64, faults: Option<&dyn Fn(&ClusterNet) -> FaultPlan>) -> f64 {
    let spec = ClusterSpec::tcp_v100(16);
    let mut sim = Simulator::new();
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    if let Some(mk) = faults {
        let plan = mk(&cluster);
        sim.install_faults(&plan);
    }
    let mut eng = CollectiveEngine::new();
    let op = eng.launch(&mut sim, &cluster, CollectiveSpec::allreduce(bytes));
    while let Some((t, ev)) = sim.next_event() {
        if let Event::FlowCompleted(f) = ev {
            if eng.on_flow_completed(&mut sim, f) == Some(op) {
                return (t - SimTime::ZERO).as_secs_f64();
            }
        }
    }
    panic!("allreduce never completed");
}

#[test]
fn link_flap_mid_allreduce_delays_but_terminates() {
    let bytes = 1e9;
    let clean = timed_allreduce_secs(bytes, None);
    assert!(clean > 0.0);

    // Take node 0's TX NIC down for 100 ms right in the middle of the
    // transfer. The collective must still terminate — frozen flows resume
    // when capacity returns — and finish at least ~one outage later.
    let outage = 0.100;
    let at = clean * 0.5;
    let faulty = timed_allreduce_secs(
        bytes,
        Some(&move |cluster: &ClusterNet| {
            FaultPlan::new().flap_link(
                cluster.node_tx_resource(0),
                SimTime::from_secs_f64(at),
                SimDuration::from_secs_f64(outage),
            )
        }),
    );
    assert!(
        faulty >= clean + outage * 0.9,
        "flap did not delay the collective: clean {clean:.4}s vs faulty {faulty:.4}s"
    );
    // The delay is bounded: a 100 ms outage cannot cost much more than
    // 100 ms plus the work it interrupted.
    assert!(
        faulty <= clean + outage * 2.0 + 0.05,
        "flap cost far more than the outage: clean {clean:.4}s vs faulty {faulty:.4}s"
    );
}

#[test]
fn data_plane_sums_are_exact_regardless_of_timing_faults() {
    // The timed engine only models *when* bytes arrive; the data plane
    // computes *what* arrives. A timing fault must never change the math, so
    // the exact collective run alongside a faulty timed run still produces
    // the true sum.
    let _ = timed_allreduce_secs(
        1e8,
        Some(&|cluster: &ClusterNet| {
            FaultPlan::new().flap_link(
                cluster.node_tx_resource(1),
                SimTime::from_secs_f64(0.01),
                SimDuration::from_secs_f64(0.05),
            )
        }),
    );
    let world = 8;
    let mut bufs: Vec<Vec<f32>> =
        (0..world).map(|w| (0..64).map(|i| (w * 64 + i) as f32 * 0.25).collect()).collect();
    let expect: Vec<f32> =
        (0..64).map(|i| (0..world).map(|w| (w * 64 + i) as f32 * 0.25).sum()).collect();
    ring_allreduce(&mut bufs, ReduceOp::Sum);
    for buf in &bufs {
        for (got, want) in buf.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-3, "{got} != {want}");
        }
    }
}

fn faulty_training(seed: u64) -> Vec<f64> {
    // A busy plan: a permanent degrade, a straggler window, and a crash in
    // the first measured iteration — plus the stall watchdog armed so the
    // resubmission path runs.
    let plan = FaultPlan::new()
        .degrade_node(0, 0.6, SimTime::from_secs_f64(0.1), None)
        .straggle_node(1, 1.3, SimTime::from_secs_f64(0.2), Some(SimDuration::from_secs_f64(1.0)))
        .crash_node(1, SimTime::from_secs_f64(0.8));
    let engine = EngineKind::Aiacc(
        AiaccConfig::default().with_stall_timeout(SimDuration::from_secs_f64(0.25)),
    );
    run_training_sim(
        TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::resnet50(), engine)
            .with_iterations(1, 3)
            .with_seed(seed)
            .with_faults(plan),
    )
    .iter_secs
}

#[test]
fn identical_seed_and_fault_plan_are_bit_reproducible() {
    let a = faulty_training(42);
    let b = faulty_training(42);
    assert_eq!(a, b, "same seed + same FaultPlan must replay identically");
    // The crash actually happened: some iteration absorbed a recovery pause
    // that dwarfs a normal iteration.
    assert!(a.iter().any(|&s| s > 5.0), "no iteration shows the crash recovery pause: {a:?}");
}

#[test]
fn multi_stream_loses_less_throughput_than_single_stream_under_degradation() {
    // Halve every node NIC for the whole run. AIACC's eight concurrent
    // streams still aggregate most of the shrunken NIC and keep overlapping
    // with backward; Horovod's lone stream sees its per-flow ceiling halved
    // and its serial tail doubles.
    let run = |engine: EngineKind, faults: FaultPlan| {
        run_training_sim(
            TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::resnet50(), engine)
                .with_iterations(1, 3)
                .with_faults(faults),
        )
        .samples_per_sec
    };
    let degraded = || {
        FaultPlan::new().degrade_node(0, 0.5, SimTime::ZERO, None).degrade_node(
            1,
            0.5,
            SimTime::ZERO,
            None,
        )
    };

    let aiacc_clean = run(EngineKind::aiacc_default(), FaultPlan::new());
    let aiacc_faulty = run(EngineKind::aiacc_default(), degraded());
    let hvd_clean = run(EngineKind::Horovod(Default::default()), FaultPlan::new());
    let hvd_faulty = run(EngineKind::Horovod(Default::default()), degraded());

    let aiacc_loss = 1.0 - aiacc_faulty / aiacc_clean;
    let hvd_loss = 1.0 - hvd_faulty / hvd_clean;
    assert!(
        aiacc_loss < hvd_loss,
        "AIACC must degrade less than Horovod under a 50% NIC degrade: \
         aiacc {:.1}% vs horovod {:.1}%",
        aiacc_loss * 100.0,
        hvd_loss * 100.0
    );
    // And the degraded AIACC still beats the degraded single stream outright.
    assert!(
        aiacc_faulty > hvd_faulty,
        "degraded AIACC ({aiacc_faulty:.0}) should outrun degraded Horovod ({hvd_faulty:.0})"
    );
}

#[test]
fn fault_log_annotates_probe_windows() {
    // The fault log records exactly one apply and one restore for the
    // degraded resource, and the restore returns it to its baseline.
    use aiacc::simnet::FaultPhase;
    let mut sim = Simulator::new();
    let r = sim.net_mut().add_resource("nic", 1e9);
    let plan = FaultPlan::new().degrade_link(
        r,
        0.25,
        SimTime::from_secs_f64(1.0),
        Some(SimDuration::from_secs_f64(1.0)),
    );
    sim.install_faults(&plan);
    sim.schedule(SimDuration::from_secs_f64(3.0), Token::new(9, 0, 0));
    while sim.next_event().is_some() {}
    let log: Vec<_> = sim.fault_log().iter().filter(|(_, rec)| rec.resource == r).collect();
    assert_eq!(log.len(), 2, "expected apply + restore: {log:?}");
    let (t_apply, apply) = log[0];
    let (t_restore, restore) = log[1];
    assert_eq!(apply.phase, FaultPhase::Applied);
    assert_eq!(*t_apply, SimTime::from_secs_f64(1.0));
    assert_eq!((apply.capacity_before, apply.capacity_after), (1e9, 0.25e9));
    assert_eq!(restore.phase, FaultPhase::Restored);
    assert_eq!(*t_restore, SimTime::from_secs_f64(2.0));
    assert_eq!((restore.capacity_before, restore.capacity_after), (0.25e9, 1e9));
    assert_eq!(sim.net().resource(r).capacity, 1e9, "restore must return the baseline");
}
