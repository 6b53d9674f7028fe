//! MXNet distributed KVStore baseline.
//!
//! MXNet's `dist_sync` KVStore assigns each parameter key to a single server
//! process; workers push whole gradients to that server and pull the
//! aggregate back. Unlike BytePS there is no partitioning, so a large tensor
//! concentrates its entire volume on one server NIC — the hot-spot behaviour
//! behind MXNet's lower throughput in Fig. 12.

use aiacc_collectives::OpId;
use aiacc_core::ddl::{DdlCtx, DdlEngine};
use aiacc_core::packing::{AllReduceUnit, ReduceTracker, Segment};
use aiacc_core::GradientRegistry;
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::FlowSpec;
use std::collections::{HashMap, VecDeque};

/// KVStore tunables: none. The engine's server assignment is fixed (one
/// server per key, one per node), so the config exists only to keep
/// [`crate::KvStoreEngine::new`] shaped like the other engines'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStoreConfig;

/// The MXNet KVStore baseline engine.
#[derive(Debug)]
pub struct KvStoreEngine {
    registry: GradientRegistry,
    world: usize,
    votes_missing: Vec<usize>,
    tracker: ReduceTracker,
    inflight: HashMap<OpId, AllReduceUnit>,
}

impl KvStoreEngine {
    /// Builds the engine for `model` on `world` workers.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(model: &ModelProfile, world: usize, _cfg: KvStoreConfig) -> Self {
        assert!(world > 0, "world must be positive");
        let registry = GradientRegistry::from_profile(model, DType::F32);
        let votes = registry.iter().map(|_| world).collect();
        let tracker = ReduceTracker::new(&registry);
        KvStoreEngine { registry, world, votes_missing: votes, tracker, inflight: HashMap::new() }
    }

    fn launch_key(&mut self, cx: &mut DdlCtx<'_>, grad: GradId) {
        let info = self.registry.get(grad);
        let unit = AllReduceUnit {
            segments: vec![Segment { grad, offset: 0, elems: info.elems }],
            bytes: info.bytes,
        };
        let spec = cx.cluster.spec();
        let nodes = spec.nodes;
        let lat = spec.node.nic.latency;

        let phases: VecDeque<Vec<FlowSpec>> = if nodes == 1 {
            // Single node: server co-located, NVLink push/pull.
            let mut push = Vec::new();
            for r in 0..spec.world_size() {
                push.push(
                    FlowSpec::new(vec![cx.cluster.gpu_tx_resource(r)], info.bytes)
                        .with_latency(lat),
                );
            }
            VecDeque::from(vec![push.clone(), push])
        } else {
            let server = grad.as_usize() % nodes;
            let mut push = Vec::new();
            let mut pull = Vec::new();
            for n in 0..nodes {
                if n == server {
                    continue;
                }
                // Whole gradients from each remote node's workers (a partial
                // tail node sends proportionally less).
                let gn = spec.gpus_on_node(n) as f64;
                let p = cx.cluster.node_path(n, server);
                push.push(FlowSpec::new(p.resources.clone(), gn * info.bytes).with_latency(lat));
                let q = cx.cluster.node_path(server, n);
                pull.push(FlowSpec::new(q.resources.clone(), gn * info.bytes).with_latency(lat));
            }
            VecDeque::from(vec![push, pull])
        };
        let op = cx.coll.launch_custom(cx.sim, phases);
        self.inflight.insert(op, unit);
    }
}

impl DdlEngine for KvStoreEngine {
    fn name(&self) -> String {
        "mxnet-kvstore".to_string()
    }

    fn begin_iteration(&mut self, _cx: &mut DdlCtx<'_>, _iter: u64) {
        self.votes_missing = self.registry.iter().map(|_| self.world).collect();
        self.tracker = ReduceTracker::new(&self.registry);
        self.inflight.clear();
    }

    fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, _worker: usize, grad: GradId) {
        let i = grad.as_usize();
        self.votes_missing[i] -= 1;
        if self.votes_missing[i] == 0 {
            self.launch_key(cx, grad);
        }
    }

    fn on_backward_done(&mut self, _cx: &mut DdlCtx<'_>, _worker: usize) {}

    fn on_collective_done(&mut self, _cx: &mut DdlCtx<'_>, op: OpId) {
        let unit = self.inflight.remove(&op).expect("kvstore completion for unknown key");
        self.tracker.complete_unit(&unit);
    }

    fn on_timer(&mut self, _cx: &mut DdlCtx<'_>, _a: u32, _b: u64) {}

    fn comm_done(&self) -> bool {
        self.tracker.all_done()
    }
}
