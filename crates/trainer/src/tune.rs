//! Glue between the §VI auto-tuner and the training simulator.
//!
//! The tuner's objective is a *real warm-up training iteration* on the
//! simulated cluster: every evaluation runs one iteration under the proposed
//! communication parameters and returns its duration. As in the paper, those
//! iterations still train the model, so the search budget costs nothing
//! extra.

use crate::engines::EngineKind;
use crate::sim::{TrainingSim, TrainingSimConfig};
use aiacc_autotune::cache::{GraphSig, TopoSig, TuningCache};
use aiacc_autotune::{
    BatchObjective, Objective, TuneAlgo, TuneReport, Tuner, TuningConfig, TuningSpace,
};
use aiacc_cluster::ClusterSpec;
use aiacc_collectives::Algo;
use aiacc_core::AiaccConfig;
use aiacc_dnn::ModelProfile;
use aiacc_simnet::par;

/// Maps a tuner lattice point onto an AIACC engine configuration.
pub fn aiacc_config_from(t: &TuningConfig) -> AiaccConfig {
    AiaccConfig::default()
        .with_streams(t.streams)
        .with_granularity(t.granularity)
        .with_algo(match t.algo {
            TuneAlgo::Ring => Algo::Ring,
            TuneAlgo::Tree => Algo::Tree,
        })
        .with_compress(t.compress)
}

/// The computation-graph signature of a model: its layer-kind sequence
/// (layer chains make graph edit distance exact — see
/// [`aiacc_autotune::cache`]).
pub fn graph_signature(model: &ModelProfile) -> GraphSig {
    GraphSig(model.layers().iter().map(|l| format!("{:?}", l.kind)).collect())
}

/// The topology signature of a cluster.
pub fn topo_signature(cluster: &ClusterSpec) -> TopoSig {
    TopoSig {
        nodes: cluster.nodes,
        gpus_per_node: cluster.node.gpus_per_node,
        bandwidth_gbps: cluster.node.nic.bandwidth_gbps,
        rdma: matches!(cluster.node.nic.kind, aiacc_cluster::NetKind::Rdma),
    }
}

/// Objective: one simulated warm-up iteration per evaluation.
#[derive(Debug)]
pub struct SimObjective {
    cluster: ClusterSpec,
    model: ModelProfile,
    seed: u64,
    evals: u64,
}

impl SimObjective {
    /// Creates the objective; every trial runs at the model's default batch
    /// size per GPU.
    pub fn new(cluster: ClusterSpec, model: ModelProfile) -> Self {
        SimObjective { cluster, model, seed: 1, evals: 0 }
    }
}

impl SimObjective {
    /// One warm-up iteration under `cfg`. A pure function of the
    /// configuration (fixed jitter seed — the search then ranks
    /// configurations by their real communication cost instead of by
    /// compute-jitter luck), which is also what makes concurrent batch
    /// evaluation safe: workers share nothing and order cannot matter.
    fn score(&self, cfg: &TuningConfig) -> f64 {
        let sim_cfg = TrainingSimConfig::new(
            self.cluster.clone(),
            self.model.clone(),
            EngineKind::Aiacc(aiacc_config_from(cfg)),
        )
        .with_seed(self.seed);
        let mut sim = TrainingSim::new(sim_cfg);
        sim.run_iteration().as_secs_f64()
    }
}

impl Objective for SimObjective {
    fn evaluate(&mut self, cfg: &TuningConfig) -> f64 {
        self.evals += 1;
        self.score(cfg)
    }
}

impl BatchObjective for SimObjective {
    /// Evaluates a whole tuner round concurrently on the ambient
    /// [`par::jobs`] worker count. Each trial simulation is independent and
    /// fully seeded, so the returned values are bit-identical to serial
    /// evaluation regardless of worker count.
    fn evaluate_batch(&mut self, cfgs: &[TuningConfig]) -> Vec<f64> {
        self.evals += cfgs.len() as u64;
        let this: &SimObjective = self;
        par::map(cfgs, |cfg| this.score(cfg))
    }
}

/// Runs the full §VI flow: consult the warm-start cache for a similar
/// deployment, run the bandit ensemble for `budget` warm-up iterations, and
/// store the winner back. Returns the tuned engine configuration and the
/// search report.
pub fn tune_aiacc(
    model: &ModelProfile,
    cluster: &ClusterSpec,
    budget: usize,
    seed: u64,
    cache: Option<&TuningCache>,
) -> (AiaccConfig, TuneReport) {
    tune_aiacc_in(TuningSpace::default(), model, cluster, budget, seed, cache)
}

/// [`tune_aiacc`] over a caller-chosen search space — e.g.
/// `TuningSpace::default().with_compression()` to let the bandit co-tune
/// the compression scheme as a fourth knob.
pub fn tune_aiacc_in(
    space: TuningSpace,
    model: &ModelProfile,
    cluster: &ClusterSpec,
    budget: usize,
    seed: u64,
    cache: Option<&TuningCache>,
) -> (AiaccConfig, TuneReport) {
    let graph = graph_signature(model);
    let topo = topo_signature(cluster);
    let prior = cache.and_then(|c| c.lookup(&graph, &topo));

    let mut objective = SimObjective::new(cluster.clone(), model.clone());
    let mut tuner = Tuner::new(space, seed);
    // Batched: each bandit round's proposals are simulated concurrently
    // (see `aiacc_simnet::par`); observation order stays deterministic.
    let report = tuner.run_batched(&mut objective, budget, prior);

    if let Some(c) = cache {
        c.store(graph, topo, report.best, report.best_value);
    }
    (aiacc_config_from(&report.best), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn tuned_config_is_no_worse_than_default_single_stream() {
        let model = zoo::resnet50();
        let cluster = ClusterSpec::tcp_v100(16);
        let (cfg, report) = tune_aiacc(&model, &cluster, 25, 3, None);
        assert!(report.evaluations.len() == 25);
        // A sanity bound: on a 2-node TCP cluster more than one stream must
        // win, and the tuner should find that.
        assert!(cfg.streams > 1, "tuner picked {} streams", cfg.streams);
        // The tuned value must beat the single-stream corner.
        let mut obj = SimObjective::new(cluster, model);
        let single = obj.evaluate(&TuningConfig {
            streams: 1,
            granularity: 32.0 * 1024.0 * 1024.0,
            algo: TuneAlgo::Ring,
            compress: Default::default(),
        });
        assert!(report.best_value <= single * 1.02, "{} vs {}", report.best_value, single);
    }

    #[test]
    fn warm_start_cache_round_trips() {
        let model = zoo::tiny_cnn();
        let cluster = ClusterSpec::tcp_v100(8);
        let cache = TuningCache::new();
        let (_, first) = tune_aiacc(&model, &cluster, 10, 1, Some(&cache));
        assert_eq!(cache.len(), 1);
        // Second run on the same deployment warm-starts from the stored best.
        let (_, second) = tune_aiacc(&model, &cluster, 10, 2, Some(&cache));
        assert_eq!(second.evaluations[0].searcher, "warm-start");
        assert_eq!(
            second.evaluations[0].config.streams, first.best.streams,
            "warm start did not seed the previous best"
        );
    }

    #[test]
    fn signatures_distinguish_models_and_clusters() {
        let a = graph_signature(&zoo::resnet50());
        let b = graph_signature(&zoo::bert_large());
        assert_ne!(a, b);
        let t1 = topo_signature(&ClusterSpec::tcp_v100(16));
        let t2 = topo_signature(&ClusterSpec::rdma_v100(16));
        assert!(t1.rdma != t2.rdma);
    }
}
