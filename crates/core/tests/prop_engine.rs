//! Property-based tests of the AIACC engine: for ANY gradient arrival
//! order, jitter pattern and configuration, every iteration completes with
//! every gradient reduced exactly once (over-completion panics inside
//! `ReduceTracker`, so mere completion is a strong property).

use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
use aiacc_core::ddl::{DdlEngine, DdlRouter, BWD_KIND, GRAD_KIND};
use aiacc_core::{AiaccConfig, AiaccEngine};
use aiacc_dnn::zoo;
use aiacc_simnet::{SimDuration, SimTime, Simulator, Token};
use proptest::prelude::*;

/// Drives one iteration with per-(worker, gradient) ready times supplied by
/// the property strategy. Returns (finish_secs, sync_rounds, units).
fn drive_random(
    gpus: usize,
    cfg: AiaccConfig,
    ready_ns: &[Vec<u64>], // [worker][grad] offsets
) -> (f64, u64, u64) {
    let model = zoo::tiny_cnn();
    let spec = ClusterSpec::tcp_v100(gpus);
    let mut sim = Simulator::new();
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    let cm = ComputeModel::v100();
    let mut eng = AiaccEngine::new(&model, spec.world_size(), cfg);
    let streams = (cm.max_comm_streams_during_compute(&model), cm.max_comm_streams_idle());
    let mut router = DdlRouter::new(cluster, streams);

    router.begin_iteration(&mut sim, &mut eng, 0, spec.world_size(), |sim| {
        let mut last_bwd = 0;
        for (w, offsets) in ready_ns.iter().enumerate() {
            let mut last = 0;
            for (g, &off) in offsets.iter().enumerate() {
                let tok = Token::new(GRAD_KIND, w as u32, g as u64);
                sim.schedule(SimDuration::from_nanos(off), tok);
                last = last.max(off);
            }
            sim.schedule(SimDuration::from_nanos(last + 1), Token::new(BWD_KIND, w as u32, 0));
            last_bwd = last_bwd.max(last + 1);
        }
        SimTime::from_nanos(last_bwd)
    });

    // No fault plan is installed in these tests.
    let mut guard = 0u64;
    loop {
        guard += 1;
        assert!(guard < 2_000_000, "event-loop runaway");
        let Some((t, ev)) = sim.next_event() else {
            panic!("drained before comm_done");
        };
        router.deliver(&mut sim, &mut eng, ev);
        if router.busy_workers() == 0 && eng.comm_done() {
            let stats = eng.stats();
            return (t.as_secs_f64(), stats.sync_rounds, stats.units_launched);
        }
    }
}

fn schedules(gpus: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    let n_grads = zoo::tiny_cnn().num_gradients();
    prop::collection::vec(prop::collection::vec(0u64..50_000_000, n_grads..=n_grads), gpus..=gpus)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any arrival order on 4 GPUs (single node) completes with plausible
    /// stats.
    #[test]
    fn completes_under_any_arrival_order_single_node(ready in schedules(4)) {
        let (t, rounds, units) = drive_random(4, AiaccConfig::default(), &ready);
        prop_assert!(t > 0.0);
        prop_assert!(rounds >= 1);
        prop_assert!(units >= 1);
    }

    /// Cross-node worlds with extreme granularity settings still complete.
    #[test]
    fn completes_cross_node_with_random_granularity(
        ready in schedules(16),
        gran_kib in 1u64..200_000,
        streams in 1usize..24,
    ) {
        let cfg = AiaccConfig::default()
            .with_streams(streams)
            .with_granularity((gran_kib * 1024) as f64);
        let (t, rounds, _) = drive_random(16, cfg, &ready);
        prop_assert!(t > 0.0);
        prop_assert!(rounds >= 1);
    }

    /// The same schedule always produces the same result (engine-level
    /// determinism, independent of HashMap iteration order etc.).
    #[test]
    fn engine_is_deterministic(ready in schedules(8)) {
        let a = drive_random(8, AiaccConfig::default(), &ready);
        let b = drive_random(8, AiaccConfig::default(), &ready);
        prop_assert_eq!(a, b);
    }
}
