//! Hybrid data + model parallelism (Fig. 13).
//!
//! The paper's experiment replaces MXNet's KVStore interface with
//! AIACC-Training for ResNet-50 trained with a *hybrid* strategy: the model
//! is split into pipeline stages across the GPUs of one node (model
//! parallelism over NVLink), and each node holds one replica (data
//! parallelism across nodes). Gradient aggregation therefore runs one
//! all-reduce *per stage*, each among one GPU per node — a natural fit for
//! AIACC's concurrent streams, and a worst case for KVStore's per-key single
//! server.

use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
use aiacc_collectives::CollectiveEngine;
use aiacc_dnn::{DType, ModelProfile};
use aiacc_simnet::{Event, FlowSpec, SimDuration, Simulator};
use std::collections::VecDeque;

/// Gradient aggregation scheme for the hybrid job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HybridEngine {
    /// AIACC: all per-stage ring all-reduces run concurrently.
    Aiacc,
    /// MXNet KVStore: each stage's gradients push/pull through one server.
    MxnetKvStore,
}

/// Result of a hybrid-parallel simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridReport {
    /// Samples per second.
    pub samples_per_sec: f64,
    /// Iteration seconds.
    pub iter_secs: f64,
    /// Pipeline stages (model-parallel width).
    pub stages: usize,
    /// Data-parallel replicas.
    pub replicas: usize,
}

/// Pipeline-bubble overhead for the intra-node model-parallel schedule.
const PIPELINE_OVERHEAD: f64 = 1.25;

/// Per-stage-boundary activation volume per sample (ResNet-50-scale feature
/// maps, ~0.8 MB each way at fp32).
const ACTIVATION_BYTES_PER_SAMPLE: f64 = 0.8e6;

/// Single-threaded KVStore server aggregation bandwidth: the server process
/// sums incoming copies of its key on one CPU core (the well-documented
/// parameter-server bottleneck that BytePS attacks with extra CPU machines).
const KVSTORE_SUM_BYTES_PER_SEC: f64 = 1.0e9;

/// Simulates hybrid data+model parallel training of `model` on `gpus` V100s
/// (stages = GPUs per node, replicas = nodes).
///
/// # Panics
/// Panics if the cluster has fewer than 2 nodes (no data parallelism to
/// aggregate) or `batch_per_replica` is zero.
pub fn run_hybrid_sim(
    model: &ModelProfile,
    gpus: usize,
    batch_per_replica: usize,
    engine: HybridEngine,
) -> HybridReport {
    assert!(batch_per_replica > 0, "batch must be positive");
    let spec = ClusterSpec::tcp_v100(gpus);
    assert!(spec.nodes >= 2, "hybrid experiment needs multiple nodes");
    let stages = spec.node.gpus_per_node;
    let replicas = spec.nodes;

    let mut sim = Simulator::new();
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    let mut coll = CollectiveEngine::new();

    // Compute: the replica's batch flows through the pipeline; each stage
    // holds 1/stages of the FLOPs, and the schedule pays a bubble overhead.
    let cm = ComputeModel::v100();
    let timing = cm.iteration_timing(model, batch_per_replica, DType::F32);
    let compute_secs =
        (timing.forward + timing.backward).as_secs_f64() / stages as f64 * PIPELINE_OVERHEAD;
    // Activation transfers cross (stages − 1) NVLink boundaries, forward and
    // backward.
    let act_secs =
        2.0 * (stages - 1) as f64 * batch_per_replica as f64 * ACTIVATION_BYTES_PER_SAMPLE
            / spec.node.gpu.nvlink_bytes_per_sec();
    let compute_end = SimDuration::from_secs_f64(compute_secs + act_secs);

    // Communication: one aggregation per stage (params/stages bytes), all
    // starting when the stage's backward half is done (modelled at 50 % of
    // compute — gradients stream out during backward).
    let stage_bytes = model.grad_bytes(DType::F32) / stages as f64;
    let comm_start = SimDuration::from_secs_f64(compute_secs * 0.5);
    sim.net_mut().advance_to(aiacc_simnet::SimTime::ZERO + comm_start);

    let mut expected = 0usize;
    match engine {
        HybridEngine::Aiacc => {
            // Concurrent per-stage ring all-reduces, each among ONE GPU per
            // node (the stage's owners): a coarse ring over the node
            // leaders, M participants, 2(M−1)/M · B per NIC.
            let per_link = 2.0 * (replicas as f64 - 1.0) / replicas as f64 * stage_bytes;
            let lat = SimDuration::from_nanos(
                spec.node.nic.latency.as_nanos() * 2 * (replicas as u64 - 1),
            );
            for _ in 0..stages {
                let mut flows = Vec::new();
                for n in 0..replicas {
                    let p = cluster.node_path(n, (n + 1) % replicas);
                    flows.push(p.flow(per_link).with_latency(lat));
                }
                coll.launch_custom(&mut sim, VecDeque::from(vec![flows]));
                expected += 1;
            }
        }
        HybridEngine::MxnetKvStore => {
            // Per-stage push/pull through server node (stage % replicas):
            // every other node ships the WHOLE stage to that one NIC.
            for s in 0..stages {
                let server = s % replicas;
                let lat = spec.node.nic.latency;
                let mut push = Vec::new();
                let mut pull = Vec::new();
                for n in 0..replicas {
                    if n == server {
                        continue;
                    }
                    let p = cluster.node_path(n, server);
                    push.push(p.flow(stage_bytes).with_latency(lat));
                    let q = cluster.node_path(server, n);
                    pull.push(q.flow(stage_bytes).with_latency(lat));
                }
                // Server-side aggregation: (replicas − 1) incoming copies
                // summed on one core, modelled as a latency-only phase.
                let sum_secs = (replicas - 1) as f64 * stage_bytes / KVSTORE_SUM_BYTES_PER_SEC;
                let aggregate =
                    vec![FlowSpec::new(vec![], 0.0)
                        .with_latency(SimDuration::from_secs_f64(sum_secs))];
                coll.launch_custom(&mut sim, VecDeque::from(vec![push, aggregate, pull]));
                expected += 1;
            }
        }
    }

    // Drain the network.
    let mut done = 0usize;
    let mut comm_end = comm_start;
    while done < expected {
        let Some((t, ev)) = sim.next_event() else {
            panic!("network drained with {done}/{expected} aggregations finished")
        };
        if let Event::FlowCompleted(f) = ev {
            if coll.on_flow_completed(&mut sim, f).is_some() {
                done += 1;
                comm_end = t - aiacc_simnet::SimTime::ZERO;
            }
        }
    }

    let iter = compute_end.as_secs_f64().max(comm_end.as_secs_f64()) + timing.update.as_secs_f64();
    HybridReport {
        samples_per_sec: (batch_per_replica * replicas) as f64 / iter,
        iter_secs: iter,
        stages,
        replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn aiacc_outperforms_kvstore_on_hybrid_resnet50() {
        // Fig. 13: 2.8× at 64 GPUs.
        let a = run_hybrid_sim(&zoo::resnet50(), 64, 64, HybridEngine::Aiacc);
        let k = run_hybrid_sim(&zoo::resnet50(), 64, 64, HybridEngine::MxnetKvStore);
        let speedup = a.samples_per_sec / k.samples_per_sec;
        assert!(speedup > 1.5, "hybrid speedup {speedup:.2}");
        assert_eq!(a.stages, 8);
        assert_eq!(a.replicas, 8);
    }

    #[test]
    fn advantage_grows_with_scale() {
        let s16 = run_hybrid_sim(&zoo::resnet50(), 16, 64, HybridEngine::Aiacc).samples_per_sec
            / run_hybrid_sim(&zoo::resnet50(), 16, 64, HybridEngine::MxnetKvStore).samples_per_sec;
        let s64 = run_hybrid_sim(&zoo::resnet50(), 64, 64, HybridEngine::Aiacc).samples_per_sec
            / run_hybrid_sim(&zoo::resnet50(), 64, 64, HybridEngine::MxnetKvStore).samples_per_sec;
        assert!(s64 > s16 * 0.9, "16 GPUs {s16:.2} vs 64 GPUs {s64:.2}");
    }

    #[test]
    #[should_panic(expected = "multiple nodes")]
    fn single_node_rejected() {
        let _ = run_hybrid_sim(&zoo::resnet50(), 8, 64, HybridEngine::Aiacc);
    }
}
