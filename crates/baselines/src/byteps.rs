//! BytePS-style push/pull parameter-server communication.
//!
//! BytePS partitions each gradient across S parameter servers; workers push
//! their local gradient parts, servers aggregate, workers pull the result.
//! With servers co-located on the worker nodes (the no-extra-cost deployment
//! the paper evaluates), each server NIC must absorb `(W − g)/S` of every
//! gradient — far more than a ring's `2(W−1)/W` — which is why BytePS
//! underperforms all-reduce in a GPU cloud unless extra CPU servers are
//! rented (§VIII-A, confirmed by the independent study [36]).
//!
//! Flows are aggregated per node (one egress + one ingress flow per node per
//! phase); they are deliberately uncapped because BytePS opens many TCP
//! connections per worker-server pair — its bottleneck is volume
//! concentration, not per-flow limits.

use aiacc_collectives::OpId;
use aiacc_core::ddl::{DdlCtx, DdlEngine};
use aiacc_core::packing::{pack_units, AllReduceUnit, ReduceTracker};
use aiacc_core::GradientRegistry;
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::{FlowSpec, ResourceId};
use std::collections::{HashMap, VecDeque};

/// BytePS tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BytePsConfig {
    /// Partition/packing granularity (BytePS default 4 MB).
    pub partition_bytes: f64,
    /// Additional dedicated CPU server nodes (each with its own NIC). The
    /// paper notes improved BytePS performance "will incur an extra
    /// financial cost for CPU machine subscription".
    pub extra_cpu_server_nodes: usize,
}

impl Default for BytePsConfig {
    fn default() -> Self {
        BytePsConfig { partition_bytes: 4.0 * 1024.0 * 1024.0, extra_cpu_server_nodes: 0 }
    }
}

/// The BytePS baseline engine.
#[derive(Debug)]
pub struct BytePsEngine {
    cfg: BytePsConfig,
    registry: GradientRegistry,
    world: usize,
    votes_missing: Vec<usize>,
    pending: Vec<GradId>,
    pending_bytes: f64,
    tracker: ReduceTracker,
    inflight: HashMap<OpId, AllReduceUnit>,
    backward_done: usize,
    /// NICs of rented extra CPU server nodes, created lazily.
    extra_nics: Vec<(ResourceId, ResourceId)>,
}

impl BytePsEngine {
    /// Builds the engine for `model` on `world` workers.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(model: &ModelProfile, world: usize, cfg: BytePsConfig) -> Self {
        assert!(world > 0, "world must be positive");
        let registry = GradientRegistry::from_profile(model, DType::F32);
        let votes = registry.iter().map(|_| world).collect();
        let tracker = ReduceTracker::new(&registry);
        BytePsEngine {
            cfg,
            registry,
            world,
            votes_missing: votes,
            pending: Vec::new(),
            pending_bytes: 0.0,
            tracker,
            inflight: HashMap::new(),
            backward_done: 0,
            extra_nics: Vec::new(),
        }
    }

    fn ensure_extra_servers(&mut self, cx: &mut DdlCtx<'_>) {
        if self.extra_nics.len() == self.cfg.extra_cpu_server_nodes {
            return;
        }
        let cap = cx.cluster.spec().node.nic.bytes_per_sec();
        for i in self.extra_nics.len()..self.cfg.extra_cpu_server_nodes {
            let tx = cx.sim.net_mut().add_resource(format!("byteps-server{i}.tx"), cap);
            let rx = cx.sim.net_mut().add_resource(format!("byteps-server{i}.rx"), cap);
            self.extra_nics.push((tx, rx));
        }
    }

    fn maybe_launch(&mut self, cx: &mut DdlCtx<'_>, flush: bool) {
        if self.pending.is_empty() {
            return;
        }
        if !flush && self.pending_bytes < self.cfg.partition_bytes {
            return;
        }
        let ids = std::mem::take(&mut self.pending);
        self.pending_bytes = 0.0;
        let (full, partial) = pack_units(&self.registry, ids, self.cfg.partition_bytes);
        for unit in full.into_iter().chain(partial) {
            let phases = self.push_pull_phases(cx, unit.bytes);
            let op = cx.coll.launch_custom(cx.sim, phases);
            self.inflight.insert(op, unit);
        }
    }

    /// Two phases — push then pull — as aggregated per-node flows.
    fn push_pull_phases(&self, cx: &DdlCtx<'_>, bytes: f64) -> VecDeque<Vec<FlowSpec>> {
        let spec = cx.cluster.spec();
        let nodes = spec.nodes;
        let w = self.world as f64;
        let s = (nodes + self.cfg.extra_cpu_server_nodes) as f64;
        let lat = spec.node.nic.latency;

        if nodes == 1 && self.cfg.extra_cpu_server_nodes == 0 {
            // Single node: push/pull over NVLink, negligible next to TCP.
            let mut push = Vec::new();
            let mut pull = Vec::new();
            for r in 0..spec.world_size() {
                push.push(
                    FlowSpec::new(vec![cx.cluster.gpu_tx_resource(r)], bytes).with_latency(lat),
                );
                pull.push(
                    FlowSpec::new(vec![cx.cluster.gpu_tx_resource(r)], bytes).with_latency(lat),
                );
            }
            return VecDeque::from(vec![push, pull]);
        }

        // Extra (dedicated) server ingress: 1/S slice from ALL workers.
        let extra_rx_bytes = w * bytes / s;

        let mut push = Vec::new();
        let mut pull = Vec::new();
        for n in 0..nodes {
            // A partial tail node hosts fewer workers, so it sends and
            // receives proportionally less.
            let gn = spec.gpus_on_node(n) as f64;
            // Worker-node egress per push: its g_n workers send (S−1)/S of
            // their gradient off-node (the 1/S slice for the co-located
            // server stays).
            let worker_tx_bytes = gn * bytes * (s - 1.0) / s;
            // Co-located server ingress per push: 1/S slice from every
            // remote worker.
            let colocated_rx_bytes = (w - gn) * bytes / s;
            let tx = cx.cluster.node_tx_resource(n);
            let rx = cx.cluster.node_rx_resource(n);
            if worker_tx_bytes > 0.0 {
                push.push(FlowSpec::new(vec![tx], worker_tx_bytes).with_latency(lat));
                pull.push(FlowSpec::new(vec![rx], worker_tx_bytes).with_latency(lat));
            }
            if colocated_rx_bytes > 0.0 {
                push.push(FlowSpec::new(vec![rx], colocated_rx_bytes).with_latency(lat));
                pull.push(FlowSpec::new(vec![tx], colocated_rx_bytes).with_latency(lat));
            }
        }
        for &(tx, rx) in &self.extra_nics {
            push.push(FlowSpec::new(vec![rx], extra_rx_bytes).with_latency(lat));
            pull.push(FlowSpec::new(vec![tx], extra_rx_bytes).with_latency(lat));
        }
        VecDeque::from(vec![push, pull])
    }
}

impl DdlEngine for BytePsEngine {
    fn name(&self) -> String {
        if self.cfg.extra_cpu_server_nodes > 0 {
            format!("byteps(+{} cpu servers)", self.cfg.extra_cpu_server_nodes)
        } else {
            "byteps".to_string()
        }
    }

    fn begin_iteration(&mut self, cx: &mut DdlCtx<'_>, _iter: u64) {
        self.ensure_extra_servers(cx);
        self.votes_missing = self.registry.iter().map(|_| self.world).collect();
        self.pending.clear();
        self.pending_bytes = 0.0;
        self.tracker = ReduceTracker::new(&self.registry);
        self.inflight.clear();
        self.backward_done = 0;
    }

    fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, _worker: usize, grad: GradId) {
        let i = grad.as_usize();
        self.votes_missing[i] -= 1;
        if self.votes_missing[i] == 0 {
            self.pending.push(grad);
            self.pending_bytes += self.registry.get(grad).bytes;
            self.maybe_launch(cx, false);
        }
    }

    fn on_backward_done(&mut self, cx: &mut DdlCtx<'_>, _worker: usize) {
        self.backward_done += 1;
        if self.backward_done == self.world {
            self.maybe_launch(cx, true);
        }
    }

    fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, op: OpId) {
        let unit = self.inflight.remove(&op).expect("push-pull completion for unknown unit");
        self.tracker.complete_unit(&unit);
        let _ = cx;
    }

    fn on_timer(&mut self, _cx: &mut DdlCtx<'_>, _a: u32, _b: u64) {}

    fn comm_done(&self) -> bool {
        self.tracker.all_done()
    }
}
