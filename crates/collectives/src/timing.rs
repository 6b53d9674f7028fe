//! Collective operations as flow schedules on the fluid network simulator.
//!
//! Each launched collective becomes a sequence of *phases*; a phase is a set
//! of flows started together, and the next phase begins when every flow of
//! the current one completes (the lock-step ring model of Fig. 1). Multiple
//! collectives run concurrently and contend for the same NIC resources —
//! which is precisely the mechanism AIACC-Training exploits with one ring
//! per CUDA stream (Fig. 7b).

use aiacc_cluster::{ClusterNet, ClusterSpec};
use aiacc_simnet::trace::track;
use aiacc_simnet::{FlowId, FlowSpec, SimDuration, Simulator};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifier of a launched collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// All-reduce algorithm (§V-B: AIACC-Training supports both and auto-tunes
/// the choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algo {
    /// Flat ring over all workers.
    #[default]
    Ring,
    /// Hierarchical: intra-node ring, leader ring across nodes, intra-node
    /// broadcast.
    Tree,
}

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveSpec {
    /// Payload bytes contributed per worker — the bytes that actually hit
    /// the wire (already compressed, if a compression scheme is active).
    pub bytes: f64,
    /// Algorithm.
    pub algo: Algo,
    /// Compute-side cost charged once per operation (e.g. gradient
    /// compress + decompress kernels). Folded into the start-up latency of
    /// the operation's first phase, so completion shifts by exactly this
    /// amount without adding events.
    pub overhead: SimDuration,
}

impl CollectiveSpec {
    /// A ring all-reduce of `bytes` per worker.
    ///
    /// # Panics
    /// Panics if `bytes` is negative or not finite.
    pub fn allreduce(bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid payload: {bytes}");
        CollectiveSpec { bytes, algo: Algo::Ring, overhead: SimDuration::ZERO }
    }

    /// Selects the algorithm.
    pub fn with_algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Charges a compute-side per-operation cost (compression kernels).
    pub fn with_overhead(mut self, overhead: SimDuration) -> Self {
        self.overhead = overhead;
        self
    }
}

#[derive(Debug)]
struct OpState {
    pending: usize,
    phases: VecDeque<Vec<FlowSpec>>,
    /// Index of the phase currently in flight (for trace span naming).
    phase_idx: usize,
}

/// Trace span name of one phase of an operation.
fn phase_span_name(op_id: u64, phase_idx: usize) -> String {
    format!("op#{op_id} phase{phase_idx}")
}

/// Multiplexer for concurrently running collective operations.
///
/// The owner routes [`aiacc_simnet::Event::FlowCompleted`] events into
/// [`CollectiveEngine::on_flow_completed`]; a returned [`OpId`] means that
/// operation has fully finished.
///
/// # Example
/// ```
/// use aiacc_cluster::{ClusterNet, ClusterSpec};
/// use aiacc_collectives::{CollectiveEngine, CollectiveSpec};
/// use aiacc_simnet::{Event, Simulator};
///
/// let mut sim = Simulator::new();
/// let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(16), sim.net_mut());
/// let mut eng = CollectiveEngine::new();
/// let op = eng.launch(&mut sim, &cluster, CollectiveSpec::allreduce(1e8));
/// let mut finished = None;
/// while let Some((_, ev)) = sim.next_event() {
///     if let Event::FlowCompleted(f) = ev {
///         if let Some(done) = eng.on_flow_completed(&mut sim, f) {
///             finished = Some(done);
///         }
///     }
/// }
/// assert_eq!(finished, Some(op));
/// ```
#[derive(Debug, Default)]
pub struct CollectiveEngine {
    ops: HashMap<u64, OpState>,
    flow_to_op: HashMap<FlowId, u64>,
    next_id: u64,
}

/// Largest world whose ring simulates every lock-step step (exact, but
/// O(W²) flows per operation). Larger rings fold into one flow per edge
/// carrying the aggregate `2(W−1)/W · B` bytes, with the `2(W−1)·α` latency
/// term folded into flow start-up latency: O(W) flows.
const STEPWISE_MAX_WORLD: usize = 16;

/// Per-hop latency of an NVLink transfer.
const NVLINK_HOP: SimDuration = SimDuration::from_micros(1);

/// Fixed cost of each hierarchical-algorithm phase boundary: kernel
/// launches, staging-buffer copies and the intra-node synchronization that
/// separates reduce / inter-node / broadcast stages. This is why the flat
/// ring wins on an uncongested network (§VIII-D observes the tuner always
/// picking ring) while the tree's far shorter inter-node critical path wins
/// when per-hop latency inflates under congestion (§V-B).
const TREE_PHASE_OVERHEAD: SimDuration = SimDuration::from_micros(150);

impl CollectiveEngine {
    /// Creates an engine with no active operations.
    pub fn new() -> Self {
        CollectiveEngine::default()
    }

    /// Number of collectives currently in flight.
    pub fn active_ops(&self) -> usize {
        self.ops.len()
    }

    /// Whether `flow` belongs to one of this engine's operations.
    pub fn owns_flow(&self, flow: FlowId) -> bool {
        self.flow_to_op.contains_key(&flow)
    }

    /// Starts a collective among **all** workers of `cluster` and returns its
    /// id. Completion is reported through
    /// [`on_flow_completed`](Self::on_flow_completed).
    pub fn launch(
        &mut self,
        sim: &mut Simulator,
        cluster: &ClusterNet,
        spec: CollectiveSpec,
    ) -> OpId {
        self.launch_custom(sim, build_phases(cluster, spec))
    }

    /// Starts a custom phase-structured operation: each inner vector of
    /// flows is one phase; the next phase starts when the previous one fully
    /// completes. Used by the parameter-server baselines (push then pull) and
    /// by fault-tolerance/elastic transfers, which are not all-reduces but
    /// share the same completion plumbing.
    ///
    /// # Panics
    /// Panics if `phases` is empty or contains an empty phase.
    pub fn launch_custom(&mut self, sim: &mut Simulator, phases: VecDeque<Vec<FlowSpec>>) -> OpId {
        assert!(!phases.is_empty(), "custom op needs at least one phase");
        assert!(phases.iter().all(|p| !p.is_empty()), "empty phase in custom op");
        let id = self.next_id;
        self.next_id += 1;
        let mut state = OpState { pending: 0, phases, phase_idx: 0 };
        self.start_next_phase(sim, id, &mut state);
        self.ops.insert(id, state);
        OpId(id)
    }

    /// Aborts a collective: its in-flight flows are cancelled on the network
    /// and the operation forgets its remaining phases. Returns `false` when
    /// the operation is unknown (already finished or never launched). Used by
    /// engine watchdogs to resubmit work stalled on a faulted link.
    pub fn cancel_op(&mut self, sim: &mut Simulator, op: OpId) -> bool {
        let Some(state) = self.ops.remove(&op.0) else {
            return false;
        };
        if sim.tracing_enabled() && state.pending > 0 {
            sim.trace_span_end(
                track::COLLECTIVES,
                op.0,
                &phase_span_name(op.0, state.phase_idx),
                "collective",
            );
            sim.trace_instant(
                track::COLLECTIVES,
                op.0,
                &format!("op#{} cancelled", op.0),
                "collective",
                None,
            );
        }
        let flows: Vec<FlowId> =
            self.flow_to_op.iter().filter(|&(_, &o)| o == op.0).map(|(&f, _)| f).collect();
        for f in flows {
            self.flow_to_op.remove(&f);
            sim.cancel_flow(f);
        }
        true
    }

    /// Aborts every active operation and cancels their flows — the big
    /// hammer for a simulated node crash, where the whole synchronous job
    /// restarts and nothing in flight can be salvaged.
    pub fn cancel_all(&mut self, sim: &mut Simulator) {
        if sim.tracing_enabled() {
            // Close open phase spans deterministically (ascending op id).
            let mut open: Vec<(u64, usize)> = self
                .ops
                .iter()
                .filter(|(_, s)| s.pending > 0)
                .map(|(&id, s)| (id, s.phase_idx))
                .collect();
            open.sort_unstable();
            for (id, phase_idx) in open {
                sim.trace_span_end(
                    track::COLLECTIVES,
                    id,
                    &phase_span_name(id, phase_idx),
                    "collective",
                );
                sim.trace_instant(
                    track::COLLECTIVES,
                    id,
                    &format!("op#{id} cancelled"),
                    "collective",
                    None,
                );
            }
        }
        let flows: Vec<FlowId> = self.flow_to_op.keys().copied().collect();
        for f in flows {
            sim.cancel_flow(f);
        }
        self.flow_to_op.clear();
        self.ops.clear();
    }

    /// Routes a flow completion. Returns the operation id when this
    /// completion finished the whole collective.
    pub fn on_flow_completed(&mut self, sim: &mut Simulator, flow: FlowId) -> Option<OpId> {
        let op_id = self.flow_to_op.remove(&flow)?;
        let mut state = self.ops.remove(&op_id).expect("op exists for tracked flow");
        state.pending -= 1;
        if state.pending == 0 {
            if sim.tracing_enabled() {
                sim.trace_span_end(
                    track::COLLECTIVES,
                    op_id,
                    &phase_span_name(op_id, state.phase_idx),
                    "collective",
                );
            }
            state.phase_idx += 1;
            self.start_next_phase(sim, op_id, &mut state);
            if state.pending == 0 {
                return Some(OpId(op_id)); // no more phases: done
            }
        }
        self.ops.insert(op_id, state);
        None
    }

    fn start_next_phase(&mut self, sim: &mut Simulator, op_id: u64, state: &mut OpState) {
        let Some(flows) = state.phases.pop_front() else {
            return; // no more phases: the operation is done
        };
        if sim.tracing_enabled() {
            sim.trace_span_begin(
                track::COLLECTIVES,
                op_id,
                &phase_span_name(op_id, state.phase_idx),
                "collective",
            );
        }
        state.pending = flows.len();
        for f in flows {
            let fid = sim.start_flow(f);
            self.flow_to_op.insert(fid, op_id);
        }
    }
}

/// Builds the phase list for a collective on this cluster.
fn build_phases(cluster: &ClusterNet, spec: CollectiveSpec) -> VecDeque<Vec<FlowSpec>> {
    let cspec = cluster.spec();
    let w = cspec.world_size();
    if w == 1 || spec.bytes == 0.0 {
        // Nothing to exchange: a zero-cost flow that completes immediately
        // keeps the completion path uniform.
        return VecDeque::from(vec![vec![FlowSpec::new(vec![], 0.0)]]);
    }
    let mut phases = match spec.algo {
        Algo::Ring if w <= STEPWISE_MAX_WORLD => ring_stepwise(cluster, spec.bytes),
        Algo::Ring => ring_coarse(cluster, spec.bytes),
        // The hierarchical algorithm is phase-structured by nature; its
        // intra-node and leader rings use the coarse aggregation.
        Algo::Tree => tree_phases(cluster, spec.bytes),
    };
    if spec.overhead > SimDuration::ZERO {
        // Compute-side cost (compression kernels): every first-phase flow
        // starts late by the overhead, so the whole operation — phases are
        // strictly ordered — completes exactly that much later.
        if let Some(first) = phases.front_mut() {
            for f in first {
                f.latency =
                    SimDuration::from_nanos(f.latency.as_nanos() + spec.overhead.as_nanos());
            }
        }
    }
    phases
}

/// Every lock-step step of a flat ring: `2(W−1)` phases of `W` flows moving
/// `B/W` bytes to the next rank.
fn ring_stepwise(cluster: &ClusterNet, bytes: f64) -> VecDeque<Vec<FlowSpec>> {
    let w = cluster.spec().world_size();
    let chunk = bytes / w as f64;
    let paths: Vec<_> = (0..w).map(|i| cluster.path(i, (i + 1) % w)).collect();
    let mut phases = VecDeque::with_capacity(2 * (w - 1));
    for _ in 0..2 * (w - 1) {
        phases.push_back(paths.iter().map(|p| p.flow(chunk)).collect());
    }
    phases
}

/// One flow per ring edge carrying the whole operation's per-link traffic.
fn ring_coarse(cluster: &ClusterNet, bytes: f64) -> VecDeque<Vec<FlowSpec>> {
    let cspec = cluster.spec();
    let w = cspec.world_size();
    let per_link = 2.0 * (w as f64 - 1.0) / w as f64 * bytes;
    let steps = 2 * (w - 1) as u64;
    let mut flows = Vec::new();
    if cspec.nodes == 1 {
        // Pure NVLink ring.
        let latency = SimDuration::from_nanos(NVLINK_HOP.as_nanos() * steps);
        for i in 0..w {
            let p = cluster.path(i, (i + 1) % w);
            flows.push(FlowSpec::new(p.resources, per_link).with_latency(latency));
        }
    } else {
        // Every lock-step step is gated by its inter-node hops, so the
        // latency term is 2(W−1) NIC round-trips; NVLink legs are folded in
        // (they are never the bottleneck at 150 GB/s vs 3.75 GB/s).
        let nic_lat = cspec.node.nic.latency;
        let latency = SimDuration::from_nanos(nic_lat.as_nanos() * steps);
        for n in 0..cspec.nodes {
            let p = cluster.node_path(n, (n + 1) % cspec.nodes);
            flows.push(p.flow(per_link).with_latency(latency));
        }
    }
    VecDeque::from(vec![flows])
}

/// Hierarchical all-reduce phases (§V-B).
fn tree_phases(cluster: &ClusterNet, bytes: f64) -> VecDeque<Vec<FlowSpec>> {
    let cspec = cluster.spec();
    let g = cspec.node.gpus_per_node;
    let nodes = cspec.nodes;
    let mut phases = VecDeque::new();

    // Phase 1: intra-node coarse rings. Ring size follows the node's actual
    // population (a partial tail node runs a smaller ring; a 1-GPU node
    // contributes nothing).
    if g > 1 {
        let mut flows = Vec::new();
        for n in 0..nodes {
            let gn = cspec.gpus_on_node(n);
            if gn < 2 {
                continue;
            }
            let per_link = 2.0 * (gn as f64 - 1.0) / gn as f64 * bytes;
            let latency = SimDuration::from_nanos(NVLINK_HOP.as_nanos() * 2 * (gn as u64 - 1))
                + TREE_PHASE_OVERHEAD;
            for l in 0..gn {
                let src = n * g + l;
                let dst = n * g + (l + 1) % gn;
                let p = cluster.path(src, dst);
                flows.push(FlowSpec::new(p.resources, per_link).with_latency(latency));
            }
        }
        if !flows.is_empty() {
            phases.push_back(flows);
        }
    }

    // Phase 2: coarse ring among node leaders.
    if nodes > 1 {
        let per_link = 2.0 * (nodes as f64 - 1.0) / nodes as f64 * bytes;
        let latency =
            SimDuration::from_nanos(cspec.node.nic.latency.as_nanos() * 2 * (nodes as u64 - 1))
                + TREE_PHASE_OVERHEAD;
        let mut flows = Vec::new();
        for n in 0..nodes {
            let p = cluster.node_path(n, (n + 1) % nodes);
            flows.push(p.flow(per_link).with_latency(latency));
        }
        phases.push_back(flows);
    }

    // Phase 3: leaders broadcast the result within their node.
    if g > 1 {
        let mut flows = Vec::new();
        for n in 0..nodes {
            for l in 1..cspec.gpus_on_node(n) {
                let p = cluster.path(n * g, n * g + l);
                flows.push(p.flow(bytes).with_latency(TREE_PHASE_OVERHEAD));
            }
        }
        if !flows.is_empty() {
            phases.push_back(flows);
        }
    }

    if phases.is_empty() {
        phases.push_back(vec![FlowSpec::new(vec![], 0.0)]);
    }
    phases
}

/// Latency of one decentralized gradient-synchronization round: a ring
/// min-all-reduce of the bit vector among all MPI processes (§V-A2, Fig. 8b).
/// The payload (a few hundred bits) is negligible; the cost is `2(W−1)` hops
/// of control-message latency — NIC latency when the ring crosses nodes,
/// shared-memory latency within a node.
pub fn sync_round_latency(spec: &ClusterSpec) -> SimDuration {
    let w = spec.world_size() as u64;
    if w <= 1 {
        return SimDuration::ZERO;
    }
    let hop = if spec.nodes > 1 {
        spec.node.nic.latency
    } else {
        SimDuration::from_micros(2) // shared-memory MPI transport
    };
    SimDuration::from_nanos(hop.as_nanos() * 2 * (w - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_simnet::Event;

    fn run_to_completion(sim: &mut Simulator, eng: &mut CollectiveEngine) -> Vec<(f64, OpId)> {
        let mut done = Vec::new();
        while let Some((t, ev)) = sim.next_event() {
            if let Event::FlowCompleted(f) = ev {
                if let Some(op) = eng.on_flow_completed(sim, f) {
                    done.push((t.as_secs_f64(), op));
                }
            }
        }
        done
    }

    fn setup(gpus: usize) -> (Simulator, ClusterNet, CollectiveEngine) {
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(gpus), sim.net_mut());
        (sim, cluster, CollectiveEngine::new())
    }

    #[test]
    fn tree_handles_partial_tail_node() {
        // 12 GPUs = one full 8-GPU node + a 4-GPU tail. The intra-node
        // phases must follow each node's actual population instead of
        // indexing ranks past the tail.
        let (mut sim, cluster, mut eng) = setup(12);
        assert_eq!(cluster.spec().tail_gpus, 4);
        let op =
            eng.launch(&mut sim, &cluster, CollectiveSpec::allreduce(1e8).with_algo(Algo::Tree));
        let done = run_to_completion(&mut sim, &mut eng);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, op);
        assert!(done[0].0 > 0.0);
        assert_eq!(eng.active_ops(), 0);
    }

    #[test]
    fn ring_handles_partial_tail_node() {
        let (mut sim, cluster, mut eng) = setup(12);
        eng.launch_custom(&mut sim, ring_stepwise(&cluster, 4e7));
        let done = run_to_completion(&mut sim, &mut eng);
        assert_eq!(done.len(), 1);
        assert_eq!(eng.active_ops(), 0);
    }

    #[test]
    fn single_worker_completes_instantly() {
        let (mut sim, cluster, mut eng) = setup(1);
        let op = eng.launch(&mut sim, &cluster, CollectiveSpec::allreduce(1e9));
        let done = run_to_completion(&mut sim, &mut eng);
        assert_eq!(done, vec![(0.0, op)]);
        assert_eq!(eng.active_ops(), 0);
    }

    #[test]
    fn coarse_cross_node_time_matches_formula() {
        // 100 MB per worker on 8-GPU nodes, single stream: every NIC carries
        // 2(W−1)/W · B bytes at the per-flow cap (1.875e8 B at 1.125 GB/s
        // for W = 16) and the ring pays 2(W−1) NIC latencies, whether each
        // lock-step step is its own phase or the ring is one coarse phase.
        // `launch` simulates every step up to W = 16 and folds larger rings.
        // Completion rounds to the nanosecond once per phase.
        let bytes = 1e8;
        for (w, forced_coarse, phases) in [(16, true, 1), (16, false, 30), (32, false, 1)] {
            let (mut sim, cluster, mut eng) = setup(w);
            if forced_coarse {
                eng.launch_custom(&mut sim, ring_coarse(&cluster, bytes));
            } else {
                let spec = CollectiveSpec::allreduce(bytes);
                assert_eq!(build_phases(&cluster, spec).len(), phases, "W={w}");
                eng.launch(&mut sim, &cluster, spec);
            }
            let t = run_to_completion(&mut sim, &mut eng)[0].0;
            let nic = &cluster.spec().node.nic;
            let steps = 2.0 * (w - 1) as f64;
            let expect = steps / w as f64 * bytes / nic.flow_cap_bytes_per_sec()
                + steps * nic.latency.as_secs_f64();
            assert!((t - expect).abs() <= phases as f64 * 1e-9, "W={w}: t={t} expect={expect}");
        }
    }

    #[test]
    fn stepwise_and_coarse_agree_for_small_world() {
        let bytes = 4e7;
        let (mut sim_a, cluster_a, mut eng_a) = setup(16);
        eng_a.launch_custom(&mut sim_a, ring_stepwise(&cluster_a, bytes));
        let ta = run_to_completion(&mut sim_a, &mut eng_a)[0].0;

        let (mut sim_b, cluster_b, mut eng_b) = setup(16);
        eng_b.launch_custom(&mut sim_b, ring_coarse(&cluster_b, bytes));
        let tb = run_to_completion(&mut sim_b, &mut eng_b)[0].0;
        assert!((ta - tb).abs() / ta < 0.15, "stepwise {ta} vs coarse {tb} diverge");
    }

    #[test]
    fn concurrent_allreduces_multiplex_the_link() {
        // THE paper effect (Fig. 7): with a 30 % per-flow cap, one all-reduce
        // and three concurrent all-reduces take roughly the same wall time,
        // so three streams move ~3× the data per unit time.
        let bytes = 1e8;
        let (mut sim_a, cluster_a, mut eng_a) = setup(16);
        eng_a.launch_custom(&mut sim_a, ring_coarse(&cluster_a, bytes));
        let t_one = run_to_completion(&mut sim_a, &mut eng_a)[0].0;

        let (mut sim_b, cluster_b, mut eng_b) = setup(16);
        for _ in 0..3 {
            eng_b.launch_custom(&mut sim_b, ring_coarse(&cluster_b, bytes));
        }
        let done = run_to_completion(&mut sim_b, &mut eng_b);
        let t_three = done.last().unwrap().0;
        assert!(
            t_three < t_one * 1.15,
            "3 concurrent rings ({t_three}s) should cost ≈ one ring ({t_one}s)"
        );
    }

    #[test]
    fn oversubscribed_streams_saturate_gracefully() {
        // Six streams exceed the link (6 × 30 % > 100 %): aggregate time is
        // bounded by capacity, not caps.
        let bytes = 1e8;
        let (mut sim, cluster, mut eng) = setup(16);
        for _ in 0..6 {
            eng.launch_custom(&mut sim, ring_coarse(&cluster, bytes));
        }
        let done = run_to_completion(&mut sim, &mut eng);
        let t_six = done.last().unwrap().0;
        // Total per-NIC traffic = 6 · 1.875e8 bytes at full 3.75 GB/s.
        let lower_bound = 6.0 * 1.875e8 / 3.75e9;
        assert!(t_six >= lower_bound * 0.99, "t={t_six} < {lower_bound}");
        assert!(t_six < lower_bound * 1.2, "t={t_six} ≫ {lower_bound}");
    }

    #[test]
    fn tree_completes_and_beats_flat_ring_latency_at_scale() {
        // Tiny payload: latency-dominated. Flat ring pays 2(W−1) NIC hops;
        // the hierarchical version pays 2(M−1) NIC hops + NVLink hops.
        let bytes = 1e4;
        let (mut sim_a, cluster_a, mut eng_a) = setup(64);
        eng_a.launch_custom(&mut sim_a, ring_coarse(&cluster_a, bytes));
        let t_ring = run_to_completion(&mut sim_a, &mut eng_a)[0].0;

        let (mut sim_b, cluster_b, mut eng_b) = setup(64);
        eng_b.launch(
            &mut sim_b,
            &cluster_b,
            CollectiveSpec::allreduce(bytes).with_algo(Algo::Tree),
        );
        let t_tree = run_to_completion(&mut sim_b, &mut eng_b)[0].0;
        assert!(t_tree < t_ring, "tree {t_tree} vs ring {t_ring}");
    }

    #[test]
    fn intra_node_ring_uses_nvlink_speed() {
        let (mut sim, cluster, mut eng) = setup(8);
        eng.launch_custom(&mut sim, ring_coarse(&cluster, 1e9));
        let done = run_to_completion(&mut sim, &mut eng);
        // 2·7/8·1e9 = 1.75e9 bytes at 150 GB/s ≈ 11.7 ms.
        let t = done[0].0;
        assert!(t < 0.02, "NVLink all-reduce took {t}s");
    }

    #[test]
    fn many_sequential_ops_all_complete() {
        let (mut sim, cluster, mut eng) = setup(16);
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(eng.launch(
                &mut sim,
                &cluster,
                CollectiveSpec::allreduce(1e6 * (i + 1) as f64),
            ));
        }
        let done = run_to_completion(&mut sim, &mut eng);
        assert_eq!(done.len(), 5);
        let mut finished: Vec<OpId> = done.iter().map(|&(_, o)| o).collect();
        finished.sort();
        ids.sort();
        assert_eq!(finished, ids);
    }

    #[test]
    fn sync_round_latency_scales_with_world() {
        let small = sync_round_latency(&ClusterSpec::tcp_v100(8));
        let large = sync_round_latency(&ClusterSpec::tcp_v100(256));
        assert!(large > small);
        // 2·255·25 µs = 12.75 ms.
        assert!((large.as_secs_f64() - 0.01275).abs() < 1e-6);
        assert_eq!(sync_round_latency(&ClusterSpec::tcp_v100(1)), SimDuration::ZERO);
    }

    #[test]
    fn rdma_cluster_flows_respect_rdma_cap() {
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&ClusterSpec::rdma_v100(16), sim.net_mut());
        let mut eng = CollectiveEngine::new();
        eng.launch_custom(&mut sim, ring_coarse(&cluster, 1e8));
        let done = run_to_completion(&mut sim, &mut eng);
        let t = done[0].0;
        // Single stream on RDMA: 10 % of 12.5 GB/s = 1.25 GB/s.
        let expect = 2.0 * 15.0 / 16.0 * 1e8 / 1.25e9 + 30.0 * 3e-6;
        assert!((t - expect).abs() / expect < 0.02, "t={t} expect={expect}");
    }
}
