//! Warm-start cache keyed by computation-graph and topology similarity.
//!
//! §VI: when used in the GPU cloud, AIACC-Training stores the
//! previously-found best parameters for a given DNN computation graph, cloud
//! instance and network topology, and seeds new searches from the most
//! similar stored deployment, measured by **graph edit distance** \[31\].
//!
//! Our model profiles are layer *chains*, for which graph edit distance
//! reduces exactly to Levenshtein distance over the layer-label sequence;
//! the (homogeneous) topology graph is compared by node count, node size and
//! link bandwidth.

use crate::space::TuningConfig;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The computation-graph signature: the model's layer-kind sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSig(pub Vec<String>);

/// The topology signature of a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoSig {
    /// Compute nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Inter-node bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// RDMA fabric?
    pub rdma: bool,
}

/// Levenshtein distance — the exact graph edit distance for labelled path
/// graphs (unit insert/delete/relabel costs).
pub fn graph_edit_distance(a: &GraphSig, b: &GraphSig) -> usize {
    let (n, m) = (a.0.len(), b.0.len());
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub = prev[j - 1] + usize::from(a.0[i - 1] != b.0[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Topology distance: normalized differences in node count, node size and
/// bandwidth, plus a fixed penalty for a fabric mismatch.
pub fn topo_distance(a: &TopoSig, b: &TopoSig) -> f64 {
    let nd = (a.nodes as f64 - b.nodes as f64).abs() / a.nodes.max(b.nodes).max(1) as f64;
    let gd = (a.gpus_per_node as f64 - b.gpus_per_node as f64).abs()
        / a.gpus_per_node.max(b.gpus_per_node).max(1) as f64;
    let bd = (a.bandwidth_gbps - b.bandwidth_gbps).abs() / a.bandwidth_gbps.max(b.bandwidth_gbps);
    let fd = if a.rdma != b.rdma { 1.0 } else { 0.0 };
    nd + gd + bd + fd
}

#[derive(Debug, Clone)]
struct Entry {
    graph: GraphSig,
    topo: TopoSig,
    config: TuningConfig,
    value: f64,
}

/// A concurrent warm-start store.
///
/// # Example
/// ```
/// use aiacc_autotune::cache::{GraphSig, TopoSig, TuningCache};
/// use aiacc_autotune::{TuneAlgo, TuningConfig};
/// let cache = TuningCache::new();
/// let sig = GraphSig(vec!["conv".into(), "dense".into()]);
/// let topo = TopoSig { nodes: 2, gpus_per_node: 8, bandwidth_gbps: 30.0, rdma: false };
/// let cfg = TuningConfig {
///     streams: 8,
///     granularity: 3.2e7,
///     algo: TuneAlgo::Ring,
///     compress: Default::default(),
/// };
/// cache.store(sig.clone(), topo, cfg, 0.5);
/// assert_eq!(cache.lookup(&sig, &topo).unwrap().streams, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TuningCache {
    entries: Arc<RwLock<Vec<Entry>>>,
}

/// Similarity threshold: entries farther than this (combined normalized
/// graph + topology distance) are not considered "similar deployments".
const MAX_DISTANCE: f64 = 0.8;

impl TuningCache {
    /// An empty cache.
    pub fn new() -> Self {
        TuningCache::default()
    }

    // The lock never poisons: no writer can leave `entries` half-updated.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Entry>> {
        self.entries.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Entry>> {
        self.entries.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of stored deployments.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Stores (or improves) the best configuration for a deployment.
    pub fn store(&self, graph: GraphSig, topo: TopoSig, config: TuningConfig, value: f64) {
        let mut entries = self.write();
        if let Some(e) =
            entries.iter_mut().find(|e| e.graph == graph && topo_distance(&e.topo, &topo) == 0.0)
        {
            if value < e.value {
                e.config = config;
                e.value = value;
            }
            return;
        }
        entries.push(Entry { graph, topo, config, value });
    }

    /// The stored configuration of the most similar deployment, if any is
    /// similar enough — the warm-start seed for a new search (§VI).
    pub fn lookup(&self, graph: &GraphSig, topo: &TopoSig) -> Option<TuningConfig> {
        let entries = self.read();
        entries
            .iter()
            .map(|e| {
                let gd = graph_edit_distance(&e.graph, graph) as f64
                    / e.graph.0.len().max(graph.0.len()).max(1) as f64;
                (gd + topo_distance(&e.topo, topo), e)
            })
            .filter(|(d, _)| *d <= MAX_DISTANCE)
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, e)| e.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneAlgo;

    fn sig(labels: &[&str]) -> GraphSig {
        GraphSig(labels.iter().map(|s| s.to_string()).collect())
    }

    fn topo(nodes: usize) -> TopoSig {
        TopoSig { nodes, gpus_per_node: 8, bandwidth_gbps: 30.0, rdma: false }
    }

    fn cfg(streams: usize) -> TuningConfig {
        TuningConfig {
            streams,
            granularity: 32e6,
            algo: TuneAlgo::Ring,
            compress: Default::default(),
        }
    }

    #[test]
    fn ged_is_levenshtein() {
        assert_eq!(graph_edit_distance(&sig(&["a", "b", "c"]), &sig(&["a", "b", "c"])), 0);
        assert_eq!(graph_edit_distance(&sig(&["a", "b", "c"]), &sig(&["a", "c"])), 1);
        assert_eq!(graph_edit_distance(&sig(&["a"]), &sig(&["b"])), 1);
        assert_eq!(graph_edit_distance(&sig(&[]), &sig(&["a", "b"])), 2);
    }

    #[test]
    fn exact_hit_returns_stored_config() {
        let cache = TuningCache::new();
        cache.store(sig(&["conv", "conv", "dense"]), topo(4), cfg(12), 1.0);
        assert_eq!(cache.lookup(&sig(&["conv", "conv", "dense"]), &topo(4)), Some(cfg(12)));
    }

    #[test]
    fn similar_deployment_matches() {
        let cache = TuningCache::new();
        cache.store(sig(&["conv"; 50]), topo(4), cfg(8), 1.0);
        // One extra layer, one more node: still similar.
        let mut labels = vec!["conv"; 51];
        labels[10] = "norm";
        assert!(cache.lookup(&sig(&labels), &topo(5)).is_some());
    }

    #[test]
    fn dissimilar_deployment_misses() {
        let cache = TuningCache::new();
        cache.store(sig(&["conv"; 50]), topo(4), cfg(8), 1.0);
        // Completely different graph AND rdma topology.
        let other = TopoSig { nodes: 32, gpus_per_node: 8, bandwidth_gbps: 100.0, rdma: true };
        assert!(cache.lookup(&sig(&["attention"; 50]), &other).is_none());
    }

    #[test]
    fn store_keeps_the_better_value() {
        let cache = TuningCache::new();
        cache.store(sig(&["a"]), topo(1), cfg(4), 2.0);
        cache.store(sig(&["a"]), topo(1), cfg(16), 1.0); // better
        cache.store(sig(&["a"]), topo(1), cfg(2), 5.0); // worse, ignored
        assert_eq!(cache.lookup(&sig(&["a"]), &topo(1)), Some(cfg(16)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn closest_of_several_wins() {
        let cache = TuningCache::new();
        cache.store(sig(&["conv"; 20]), topo(2), cfg(4), 1.0);
        cache.store(sig(&["conv"; 20]), topo(16), cfg(24), 1.0);
        // 14 nodes is closer to 16 than to 2.
        assert_eq!(cache.lookup(&sig(&["conv"; 20]), &topo(14)), Some(cfg(24)));
    }

    #[test]
    fn clones_share_one_store_across_threads() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 25;
        let cache = TuningCache::new();
        let shared = sig(&["shared"]);
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let (cache, shared, start) = (cache.clone(), shared.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    // Descending values: every thread keeps improving the
                    // shared deployment while the others race it.
                    for i in (0..PER_THREAD).rev() {
                        let own = sig(&[&format!("t{t}"), &format!("d{i}")]);
                        cache.store(own, topo(1), cfg(i + 1), 1.0);
                        let rank = i * THREADS + t;
                        cache.store(shared.clone(), topo(8), cfg(rank + 1), rank as f64);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(cache.len(), THREADS * PER_THREAD + 1);
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let own = sig(&[&format!("t{t}"), &format!("d{i}")]);
                assert_eq!(cache.lookup(&own, &topo(1)), Some(cfg(i + 1)), "t{t} d{i}");
            }
        }
        // Rank 0 (thread 0's last store) has the lowest value of all.
        assert_eq!(cache.lookup(&shared, &topo(8)), Some(cfg(1)));
    }
}
