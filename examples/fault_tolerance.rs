//! Fault tolerance and elastic deployment (§IV).
//!
//! Run with: `cargo run --release --example fault_tolerance`
//!
//! Demonstrates the production features AIACC-Training ships beyond raw
//! communication speed: checkpoint/restart after a (simulated) node
//! failure, elastic scale-out that propagates parameters to new nodes,
//! deterministic fault injection into a live training simulation, and the
//! NaN gradient inspector.

use aiacc::optim::debug::find_non_finite;
use aiacc::prelude::*;
use aiacc::simnet::FaultPlan;
use aiacc::trainer::recovery::{replay_failure_recovery, RecoveryConfig};

fn main() {
    // --- Checkpoint / restart -------------------------------------------
    println!("=== fault tolerance: checkpoint + restart ===");
    let mut job = DataParallelTrainer::new(DataParallelConfig::new(vec![6, 32, 3], 4, 8));
    job.train(40);
    let ckpt = job.checkpoint();
    println!("checkpointed at step {}", job.step_count());

    // "Node failure": the job object is dropped; a new one restarts from
    // the checkpoint and must continue bit-identically.
    let survivor_losses: Vec<f64> = (0..5).map(|_| job.step()).collect();
    drop(job);
    let mut restarted = DataParallelTrainer::restore(ckpt);
    let replay_losses: Vec<f64> = (0..5).map(|_| restarted.step()).collect();
    assert_eq!(survivor_losses, replay_losses);
    println!("restart replays identically: {replay_losses:?}\n");

    // --- Elastic scale-out ----------------------------------------------
    println!("=== elastic deployment: 4 -> 8 workers ===");
    restarted.scale_out(4);
    println!("scaled out to {} workers; parameters broadcast to newcomers", 8);
    restarted.train(20);
    let test = Dataset::gaussian_blobs(1000, 6, 3, 4242);
    println!("accuracy after elastic training: {:.1}%\n", 100.0 * restarted.accuracy(&test));

    // --- Fault injection into a live training simulation ----------------
    println!("=== fault injection: degrade + flap + crash on ResNet-50 @ 16 GPUs ===");
    // Node 0's NIC runs at 60% for a second, node 1's NIC flaps dark for
    // 80 ms mid-iteration, and node 1 crashes outright at t = 1 s.
    let plan = FaultPlan::new()
        .degrade_node(0, 0.6, SimTime::from_secs_f64(0.1), Some(SimDuration::from_secs_f64(1.0)))
        .with_event(aiacc::simnet::FaultEvent {
            target: aiacc::simnet::FaultTarget::Node(1),
            kind: aiacc::simnet::FaultKind::Flap,
            at: SimTime::from_secs_f64(0.3),
            duration: Some(SimDuration::from_secs_f64(0.08)),
        })
        .crash_node(1, SimTime::from_secs_f64(1.0));
    let engine = EngineKind::Aiacc(
        AiaccConfig::default().with_stall_timeout(SimDuration::from_secs_f64(0.5)),
    );
    let mut sim = TrainingSim::new(
        TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::resnet50(), engine)
            .with_faults(plan),
    );
    for i in 0..5 {
        let d = sim.run_iteration_detailed();
        print!("iter {i}: {:.0} ms", d.iter_secs * 1e3);
        if d.fault_impacted() {
            print!(
                "  [{} fault event(s), {} crash(es), {:.1} s recovery]",
                d.fault_events, d.crashes, d.recovery_secs
            );
        }
        println!();
    }
    // The crash's pause is the replayed checkpoint restart.
    let replay = replay_failure_recovery(
        &ClusterSpec::tcp_v100(16),
        &zoo::resnet50(),
        RecoveryConfig::default(),
    );
    println!(
        "crash pause = replayed restart: {:.2} s ({:.0} s overhead + {:.2} s re-reading checkpoints)\n",
        replay.total_secs, replay.overhead_secs, replay.transfer_secs
    );

    // --- NaN debugging -----------------------------------------------------
    println!("=== NaN gradient inspector ===");
    let grads = vec![
        (aiacc::dnn::GradId(0), "conv1.weight".to_string(), vec![0.1, -0.2, 0.3]),
        (aiacc::dnn::GradId(1), "fc.weight".to_string(), vec![1.0, f32::NAN, 2.0]),
        (aiacc::dnn::GradId(2), "fc.bias".to_string(), vec![f32::INFINITY]),
    ];
    for report in find_non_finite(&grads, 10) {
        println!("non-finite gradient: {report}");
    }
    println!("\nAll production features exercised. ✓");
}
