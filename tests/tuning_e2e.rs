//! End-to-end auto-tuning behaviour on the simulated cluster (§VI +
//! §VIII-D observations).

use aiacc::autotune::cache::TuningCache;
use aiacc::autotune::{Objective, TuneAlgo, TuningConfig};
use aiacc::prelude::*;
use aiacc::trainer::tune::{aiacc_config_from, graph_signature, tune_aiacc, SimObjective};

#[test]
fn tuner_beats_the_worst_corner_comfortably() {
    let model = zoo::vgg16();
    let cluster = ClusterSpec::tcp_v100(16);
    let (_, report) = tune_aiacc(&model, &cluster, 20, 21, None);
    let mut obj = SimObjective::new(cluster, model);
    let worst = obj.evaluate(&TuningConfig {
        streams: 1,
        granularity: 256.0 * 1024.0 * 1024.0,
        algo: TuneAlgo::Ring,
        compress: Default::default(),
    });
    assert!(
        report.best_value < worst * 0.6,
        "tuned {} vs worst corner {}",
        report.best_value,
        worst
    );
}

#[test]
fn multinode_tuning_picks_multiple_streams_on_comm_bound_model() {
    // §VIII-D: "AIACC-Training tends to use a larger number of CUDA streams
    // when a higher number of GPUs is available." On a single NVLink node
    // the choice is a tie (any value works), so the observation concerns
    // multi-node, communication-bound deployments — where a single stream
    // must never be the tuner's answer.
    let model = zoo::vgg16();
    let pick = |gpus| {
        let (cfg, _) = tune_aiacc(&model, &ClusterSpec::tcp_v100(gpus), 30, 5, None);
        cfg.streams
    };
    let s16 = pick(16);
    let s64 = pick(64);
    assert!(s16 >= 2, "16-GPU tuning picked a single stream");
    assert!(s64 >= 4, "64-GPU tuning picked only {s64} streams");
}

#[test]
fn tree_wins_when_the_network_is_congested() {
    // §V-B: the hierarchical algorithm exists for congested links — its
    // inter-node critical path is 2(M−1) hops instead of 2(W−1). With
    // inflated per-hop latency (bursty neighbours), tree must beat ring.
    // (On our clean fluid network the two are near-equal with a slight
    // hierarchical edge — see EXPERIMENTS.md for the divergence note
    // versus the paper's observed ring preference.)
    use aiacc::cluster::{NicSpec, NodeSpec};
    let mut node = NodeSpec::alibaba_v100_tcp();
    node.nic = NicSpec { latency: SimDuration::from_micros(400), ..node.nic };
    let congested = ClusterSpec::with_total_gpus(64, node);
    let mk = |algo| {
        run_training_sim(
            TrainingSimConfig::new(
                congested.clone(),
                zoo::resnet50(),
                EngineKind::Aiacc(AiaccConfig::default().with_algo(algo)),
            )
            .with_iterations(1, 2),
        )
        .samples_per_sec
    };
    let ring = mk(Algo::Ring);
    let tree = mk(Algo::Tree);
    assert!(tree > ring, "congested net: tree {tree:.0} vs ring {ring:.0}");
}

#[test]
fn warm_start_transfers_across_similar_deployments() {
    let cache = TuningCache::new();
    let model = zoo::resnet50();
    let (_, _) = tune_aiacc(&model, &ClusterSpec::tcp_v100(16), 15, 1, Some(&cache));
    // Same model, 4 nodes instead of 2: similar deployment, must warm-start.
    let (_, report) = tune_aiacc(&model, &ClusterSpec::tcp_v100(32), 10, 2, Some(&cache));
    assert_eq!(report.evaluations[0].searcher, "warm-start");
    // A very different model must NOT inherit the prior.
    let (_, fresh) =
        tune_aiacc(&zoo::ctr_production(), &ClusterSpec::tcp_v100(16), 8, 3, Some(&cache));
    assert_ne!(fresh.evaluations[0].searcher, "warm-start");
}

#[test]
fn graph_signatures_feed_the_cache_sensibly() {
    let a = graph_signature(&zoo::resnet50());
    let b = graph_signature(&zoo::resnet101());
    let c = graph_signature(&zoo::bert_large());
    // Normalized by the longer chain, as the cache lookup does: raw edit
    // distance would favour chains of similar *length* over similar content.
    let norm = |x: &aiacc::autotune::cache::GraphSig, y: &aiacc::autotune::cache::GraphSig| {
        aiacc::autotune::cache::graph_edit_distance(x, y) as f64 / x.0.len().max(y.0.len()) as f64
    };
    let d_ab = norm(&a, &b);
    let d_ac = norm(&a, &c);
    // ResNet-50 is closer to ResNet-101 than to BERT.
    assert!(d_ab < d_ac, "GED r50-r101 {d_ab:.3} vs r50-bert {d_ac:.3}");
}

#[test]
fn tuned_config_converts_to_engine_config() {
    let t = TuningConfig {
        streams: 12,
        granularity: 8.0 * 1024.0 * 1024.0,
        algo: TuneAlgo::Tree,
        compress: Default::default(),
    };
    let cfg = aiacc_config_from(&t);
    assert_eq!(cfg.streams, 12);
    assert_eq!(cfg.granularity, 8.0 * 1024.0 * 1024.0);
    assert_eq!(format!("{:?}", cfg.algo), "Tree");
    // And it runs.
    let r = run_training_sim(
        TrainingSimConfig::new(ClusterSpec::tcp_v100(8), zoo::tiny_cnn(), EngineKind::Aiacc(cfg))
            .with_iterations(0, 1),
    );
    assert!(r.samples_per_sec > 0.0);
}
