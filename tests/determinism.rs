//! Reproducibility guarantees: identical seeds give identical simulations,
//! different seeds differ, and results are independent of incidental
//! environment state.

use aiacc::prelude::*;

fn run_once(seed: u64, engine: EngineKind) -> Vec<f64> {
    run_training_sim(
        TrainingSimConfig::new(ClusterSpec::tcp_v100(16), zoo::resnet50(), engine)
            .with_iterations(1, 3)
            .with_seed(seed),
    )
    .iter_secs
}

#[test]
fn identical_seeds_identical_results_for_every_engine() {
    for engine in [
        EngineKind::aiacc_default(),
        EngineKind::Horovod(Default::default()),
        EngineKind::PyTorchDdp(Default::default()),
        EngineKind::BytePs(Default::default()),
        EngineKind::MxnetKvStore(Default::default()),
    ] {
        assert_eq!(run_once(7, engine), run_once(7, engine), "{}", engine.label());
    }
}

#[test]
fn different_seeds_shift_jitter() {
    let a = run_once(1, EngineKind::aiacc_default());
    let b = run_once(2, EngineKind::aiacc_default());
    assert_ne!(a, b, "jitter seeds had no effect");
    // ... but only within the jitter amplitude.
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() / x < 0.1, "{x} vs {y}");
    }
}

#[test]
fn data_parallel_training_is_bit_reproducible() {
    let mk = || {
        let mut t = DataParallelTrainer::new(DataParallelConfig::new(vec![4, 8, 2], 3, 4));
        t.train(25);
        t.model().params_flat()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn tuner_is_reproducible_given_seed() {
    use aiacc::trainer::tune::tune_aiacc;
    let model = zoo::tiny_cnn();
    let cluster = ClusterSpec::tcp_v100(8);
    let (a, _) = tune_aiacc(&model, &cluster, 12, 99, None);
    let (b, _) = tune_aiacc(&model, &cluster, 12, 99, None);
    assert_eq!(a, b);
}

#[test]
fn parallel_sweeps_are_bit_identical_across_worker_counts() {
    use aiacc::simnet::par;
    // A figure table (many independent sweep points) and a tuning report
    // (batched tuner) must not change by a single byte when the worker
    // count does. Serialize both to their TSV form to compare the exact
    // bytes a user would diff.
    let run = |jobs: usize| {
        par::set_jobs(jobs);
        let table = aiacc_bench::ablation_granularity().to_tsv();
        let (cfg, report) = aiacc::trainer::tune::tune_aiacc(
            &zoo::tiny_cnn(),
            &ClusterSpec::tcp_v100(8),
            9,
            4,
            None,
        );
        par::set_jobs(1);
        (table, cfg, report)
    };
    let serial = run(1);
    for jobs in [2, 8] {
        let parallel = run(jobs);
        assert_eq!(parallel.0, serial.0, "Table TSV differs at --jobs {jobs}");
        assert_eq!(parallel.1, serial.1, "tuned config differs at --jobs {jobs}");
        assert_eq!(
            parallel.2.evaluations, serial.2.evaluations,
            "TuneReport evaluations differ at --jobs {jobs}"
        );
        assert_eq!(parallel.2.usage, serial.2.usage, "bandit usage differs at --jobs {jobs}");
        assert_eq!(parallel.2.best_value.to_bits(), serial.2.best_value.to_bits());
    }
}

#[test]
fn simulator_event_order_is_stable_under_ties() {
    // Schedule many coincident timers and flows; the delivered order must be
    // a pure function of the inputs.
    let order = || {
        let mut sim = Simulator::new();
        let r = sim.net_mut().add_resource("l", 100.0);
        for k in 0..10u32 {
            sim.schedule(SimDuration::from_nanos(50), aiacc::simnet::Token::new(k, 0, 0));
            sim.start_flow(FlowSpec::new(vec![r], 0.5)); // all complete together
        }
        let mut seq = Vec::new();
        while let Some((_, ev)) = sim.next_event() {
            seq.push(format!("{ev:?}"));
        }
        seq
    };
    assert_eq!(order(), order());
}

/// `SolveMode` changes nothing but `FlowNet`'s re-solve schedule, and every
/// engine and driver sees the network only through the flow completions it
/// reports. So one whole-run completion sequence — concurrent ring and tree
/// all-reduces relaunched as they finish, on a racked fabric — compared bit
/// for bit between the modes covers every run built on top.
#[test]
fn solve_mode_field_selects_the_solver_without_changing_results() {
    use aiacc::cluster::RackSpec;
    use aiacc::collectives::OpId;
    use aiacc::simnet::{SolveMode, SolverStats};
    // 8 nodes of 8 GPUs in racks of 2 behind a 2:1 ToR/spine tier.
    let spec = {
        let cluster = ClusterSpec::tcp_v100(64);
        let nic = cluster.node.nic;
        cluster.with_rack_layer(RackSpec::oversubscribed_2to1(2, &nic))
    };
    let ops = [
        CollectiveSpec::allreduce(1e8),
        CollectiveSpec::allreduce(6e7).with_algo(Algo::Tree),
        CollectiveSpec::allreduce(2e7),
        CollectiveSpec::allreduce(3e8).with_algo(Algo::Tree),
    ];
    let run = |mode: SolveMode| -> (Vec<(u64, OpId)>, SolverStats) {
        let mut sim = Simulator::new();
        sim.net_mut().set_solve_mode(mode);
        let cluster = ClusterNet::build(&spec, sim.net_mut());
        let mut eng = CollectiveEngine::new();
        for op in ops {
            eng.launch(&mut sim, &cluster, op);
        }
        let mut relaunches = 8;
        let mut done = Vec::new();
        while let Some((t, ev)) = sim.next_event() {
            let Event::FlowCompleted(f) = ev else { continue };
            if let Some(op) = eng.on_flow_completed(&mut sim, f) {
                done.push((t.as_secs_f64().to_bits(), op));
                if relaunches > 0 {
                    relaunches -= 1;
                    eng.launch(&mut sim, &cluster, ops[relaunches % ops.len()]);
                }
            }
        }
        (done, sim.net().solver_stats())
    };
    let (part, part_stats) = run(SolveMode::Partitioned);
    let (full, full_stats) = run(SolveMode::Full);
    assert_eq!(part.len(), ops.len() + 8, "every operation completes");
    assert_eq!(part, full, "completion sequences differ between solve modes");
    // The mode reached the network: the flat solver re-solves every
    // component, the partitioned one skips clean ones.
    assert_eq!(full_stats.comps_solved, full_stats.comps_existing);
    assert!(part_stats.comps_solved < full_stats.comps_solved, "{part_stats:?} vs {full_stats:?}");
}
