//! Timing-plane models of the production features of §IV: restart from a
//! checkpoint after node failure, and elastic scale-out that propagates the
//! parameters to newly added nodes.
//!
//! The *numerical* side of both features lives in
//! [`crate::DataParallelTrainer`]; this module answers the operational
//! question — how long does recovery take on the simulated cluster, and how
//! much cheaper is an elastic join than a cold restart?

use aiacc_cluster::{ClusterNet, ClusterSpec};
use aiacc_dnn::{DType, ModelProfile};
use aiacc_simnet::{Event, FlowSpec, SimDuration, Simulator, Token};

/// Timer kind used by the replayed recovery timelines.
const RESTART_DONE_KIND: u32 = 7001;

/// Per-node read bandwidth from the checkpoint store (object storage /
/// NAS), bytes/second.
const STORE_BYTES_PER_SEC: f64 = 1e9;

/// Fixed process/runtime restart overhead per node (scheduler, container
/// start, framework import, communicator rebuild).
const RESTART_OVERHEAD: SimDuration = SimDuration::from_millis(20_000);

/// The cost breakdown of a recovery or join operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Fixed restart/setup time.
    pub overhead_secs: f64,
    /// Time moving parameter state (store reads or broadcast).
    pub transfer_secs: f64,
    /// Total wall-clock until training can resume.
    pub total_secs: f64,
}

/// Full restart after a node failure (§IV "fault-tolerance to restart the
/// training process from the last checkpoint upon node failure"), replayed
/// as a simulated timeline: the crash happens at t=0, a restart-overhead
/// timer models process/communicator bring-up, and only when it fires does
/// every node re-read the model state from the checkpoint store in parallel,
/// each through its own NIC and rate-limited by the store's per-client
/// bandwidth. The report's phases are measured off the event clock; this is
/// what the trainer and the scheduler charge for a mid-run crash.
pub fn replay_failure_recovery(cluster: &ClusterSpec, model: &ModelProfile) -> RecoveryReport {
    let bytes = model.grad_bytes(DType::F32); // parameters ≈ gradient volume
    let mut sim = Simulator::new();
    let net_cluster = ClusterNet::build(cluster, sim.net_mut());
    sim.schedule(RESTART_OVERHEAD, Token::new(RESTART_DONE_KIND, 0, 0));
    replay(&mut sim, |sim| {
        for n in 0..cluster.nodes {
            sim.start_flow(
                FlowSpec::new(vec![net_cluster.node_rx_resource(n)], bytes)
                    .with_rate_cap(STORE_BYTES_PER_SEC)
                    .with_latency(cluster.node.nic.latency),
            );
        }
    })
}

/// Elastic scale-out (§IV "elastic deployment by propagating training
/// parameters into newly added computing nodes"), replayed through the
/// simulator: the surviving job keeps running, joiners pay only a
/// communicator rebuild (a quarter of the restart overhead, as a timer), and
/// then existing nodes stream the current parameters to the newcomers.
/// Senders are picked round-robin among existing nodes so one NIC is not the
/// bottleneck when several nodes join at once.
///
/// # Panics
/// Panics if `new_nodes` is zero.
pub fn replay_elastic_join(
    cluster: &ClusterSpec,
    model: &ModelProfile,
    new_nodes: usize,
) -> RecoveryReport {
    assert!(new_nodes > 0, "no nodes to add");
    let bytes = model.grad_bytes(DType::F32);
    // Grown cluster: existing nodes + newcomers.
    let grown = ClusterSpec::new(cluster.nodes + new_nodes, cluster.node.clone());
    let mut sim = Simulator::new();
    let net_cluster = ClusterNet::build(&grown, sim.net_mut());
    let overhead = SimDuration::from_nanos(RESTART_OVERHEAD.as_nanos() / 4);
    sim.schedule(overhead, Token::new(RESTART_DONE_KIND, 0, 0));
    replay(&mut sim, |sim| {
        for (i, dst) in (cluster.nodes..grown.nodes).enumerate() {
            let src = i % cluster.nodes;
            let p = net_cluster.node_path(src, dst);
            sim.start_flow(p.flow(bytes));
        }
    })
}

/// Runs a two-phase recovery timeline: wait for the restart timer, start the
/// transfer flows, measure both phases off the event clock.
fn replay(sim: &mut Simulator, start_flows: impl FnOnce(&mut Simulator)) -> RecoveryReport {
    let mut start_flows = Some(start_flows);
    let mut overhead_secs = 0.0;
    let mut end_secs = 0.0;
    while let Some((t, ev)) = sim.next_event() {
        match ev {
            Event::Timer(tok) if tok.kind == RESTART_DONE_KIND => {
                overhead_secs = t.as_secs_f64();
                (start_flows.take().expect("restart timer fired twice"))(sim);
            }
            Event::FlowCompleted(_) => end_secs = t.as_secs_f64(),
            _ => {}
        }
    }
    RecoveryReport {
        overhead_secs,
        transfer_secs: end_secs - overhead_secs,
        total_secs: end_secs.max(overhead_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    fn restart(cluster: &ClusterSpec, model: &ModelProfile) -> RecoveryReport {
        replay_failure_recovery(cluster, model)
    }

    fn join(cluster: &ClusterSpec, model: &ModelProfile, new_nodes: usize) -> RecoveryReport {
        replay_elastic_join(cluster, model, new_nodes)
    }

    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want
    }

    #[test]
    fn recovery_scales_with_model_size() {
        let cluster = ClusterSpec::tcp_v100(32);
        let small = restart(&cluster, &zoo::resnet50());
        let big = restart(&cluster, &zoo::bert_large());
        assert!(big.transfer_secs > small.transfer_secs * 5.0);
        // ResNet-50: 102 MB at 1 GB/s ≈ 0.1 s per node, in parallel.
        assert!((small.transfer_secs - 0.102).abs() < 0.02, "{}", small.transfer_secs);
    }

    #[test]
    fn parallel_node_reads_do_not_stack() {
        let small = restart(&ClusterSpec::tcp_v100(16), &zoo::resnet50());
        let large = restart(&ClusterSpec::tcp_v100(256), &zoo::resnet50());
        // Each node has its own NIC: restart transfer time is flat in node
        // count (the store is modelled as horizontally scalable).
        assert!((small.transfer_secs - large.transfer_secs).abs() < 0.01);
    }

    #[test]
    fn elastic_join_is_cheaper_than_restart() {
        let cluster = ClusterSpec::tcp_v100(64);
        let restart = restart(&cluster, &zoo::bert_large());
        let join = join(&cluster, &zoo::bert_large(), 1);
        assert!(
            join.total_secs < restart.total_secs * 0.5,
            "join {} vs restart {}",
            join.total_secs,
            restart.total_secs
        );
    }

    #[test]
    fn multiple_joiners_round_robin_senders() {
        let cluster = ClusterSpec::tcp_v100(64); // 8 nodes
        let one = join(&cluster, &zoo::resnet50(), 1);
        let four = join(&cluster, &zoo::resnet50(), 4);
        // Four different senders serve four joiners concurrently: transfer
        // time should grow far less than 4x.
        assert!(
            four.transfer_secs < one.transfer_secs * 2.0,
            "1 joiner {} vs 4 joiners {}",
            one.transfer_secs,
            four.transfer_secs
        );
    }

    #[test]
    fn replayed_failure_recovery_matches_closed_form() {
        // §IV timing is serial: restart overhead, then every node reads the
        // checkpoint through its own NIC at the slower of the store and the
        // NIC, after one NIC latency. The closed form is computed from the
        // constants and the specs alone, sharing no simulator code.
        for model in [zoo::resnet50(), zoo::bert_large()] {
            let cluster = ClusterSpec::tcp_v100(32);
            let nic = &cluster.node.nic;
            let rate = STORE_BYTES_PER_SEC.min(nic.bytes_per_sec());
            let closed = RESTART_OVERHEAD.as_secs_f64()
                + nic.latency.as_secs_f64()
                + model.grad_bytes(DType::F32) / rate;
            let replayed = restart(&cluster, &model);
            assert!(
                rel_err(replayed.total_secs, closed) < 1e-6,
                "{}: replay {} vs closed-form {closed}",
                model.name(),
                replayed.total_secs,
            );
            assert!(replayed.overhead_secs > 0.0 && replayed.transfer_secs > 0.0);
            // Phases are serial: the pieces must add up.
            assert!(
                (replayed.total_secs - replayed.overhead_secs - replayed.transfer_secs).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn replayed_elastic_join_matches_closed_form() {
        // A join pays a quarter of the restart overhead, then one NIC
        // latency, then the parameters at a single flow's capped NIC rate.
        // With round-robin senders every joiner has its own sender and
        // receiver NIC, so 1 and 4 joiners share the same closed form. The
        // replay differs only by the nanosecond clock's rounding (about
        // 1e-10 relative), well inside the 1e-6 bound.
        let cluster = ClusterSpec::tcp_v100(64); // 8 nodes
        let nic = &cluster.node.nic;
        let model = zoo::bert_large();
        let rate = nic.flow_cap_bytes_per_sec().min(nic.bytes_per_sec());
        let closed = RESTART_OVERHEAD.as_secs_f64() / 4.0
            + nic.latency.as_secs_f64()
            + model.grad_bytes(DType::F32) / rate;
        for joiners in [1, 4] {
            let replayed = join(&cluster, &model, joiners);
            assert!(
                rel_err(replayed.total_secs, closed) < 1e-6,
                "{joiners} joiners: replay {} vs closed-form {closed}",
                replayed.total_secs,
            );
        }
    }

    #[test]
    #[should_panic(expected = "no nodes to add")]
    fn zero_joiners_rejected() {
        let _ = join(&ClusterSpec::tcp_v100(16), &zoo::resnet50(), 0);
    }
}
