//! Hardware specifications: GPUs, NICs, nodes, clusters.

use aiacc_simnet::SimDuration;

/// Inter-node network technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// VPC TCP/IP — the dominant infrastructure in public GPU clouds (§II-E).
    Tcp,
    /// Remote direct memory access over a dedicated fabric.
    Rdma,
}

/// A network interface specification.
///
/// `per_flow_cap` encodes the paper's measurement that a *single*
/// communication stream utilizes at most ~30 % of a TCP link and only 5–10 %
/// of an RDMA link (§III) — the core motivation for multi-streamed
/// communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicSpec {
    /// Network technology.
    pub kind: NetKind,
    /// Link bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// Fraction of the link a single flow can use, in `(0, 1]`.
    pub per_flow_cap: f64,
    /// Per-message startup latency.
    pub latency: SimDuration,
}

impl NicSpec {
    /// The paper's evaluation network: 30 Gbps VPC TCP, 30 % single-flow cap.
    pub fn tcp_30gbps() -> Self {
        NicSpec {
            kind: NetKind::Tcp,
            bandwidth_gbps: 30.0,
            per_flow_cap: 0.30,
            latency: SimDuration::from_micros(25),
        }
    }

    /// §VIII-D's RDMA fabric: 100 Gbps, ~10 % single-flow utilization.
    pub fn rdma_100gbps() -> Self {
        NicSpec {
            kind: NetKind::Rdma,
            bandwidth_gbps: 100.0,
            per_flow_cap: 0.10,
            latency: SimDuration::from_micros(3),
        }
    }

    /// Link capacity in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }

    /// Per-flow rate limit in bytes/second.
    pub fn flow_cap_bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec() * self.per_flow_cap
    }

    /// Validates field ranges.
    ///
    /// # Panics
    /// Panics if bandwidth is non-positive or the cap is outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(self.bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(
            self.per_flow_cap > 0.0 && self.per_flow_cap <= 1.0,
            "per-flow cap must be in (0,1]"
        );
    }
}

/// A GPU specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"V100-SXM2-32GB"`.
    pub name: String,
    /// Peak FP32 throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// Fraction of peak sustained by real training kernels.
    pub efficiency: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Aggregate NVLink bandwidth per GPU in GByte/s.
    pub nvlink_gbytes: f64,
    /// Device memory in GiB.
    pub mem_gib: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 (the paper's evaluation GPU, §II-D/§VII-A).
    pub fn v100() -> Self {
        GpuSpec {
            name: "V100-SXM2-32GB".to_string(),
            fp32_tflops: 15.7,
            efficiency: 0.55,
            sm_count: 80,
            nvlink_gbytes: 150.0,
            mem_gib: 32.0,
        }
    }

    /// Sustained compute throughput in FLOP/s.
    pub fn effective_flops(&self) -> f64 {
        self.fp32_tflops * 1e12 * self.efficiency
    }

    /// NVLink capacity in bytes/second.
    pub fn nvlink_bytes_per_sec(&self) -> f64 {
        self.nvlink_gbytes * 1e9
    }
}

/// One compute node: identical GPUs behind one NIC.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// GPUs in the node.
    pub gpus_per_node: usize,
    /// The GPU model.
    pub gpu: GpuSpec,
    /// The inter-node NIC.
    pub nic: NicSpec,
}

impl NodeSpec {
    /// The paper's `ecs.gn6e` instance: 8× NVLink V100 behind 30 Gbps TCP.
    pub fn alibaba_v100_tcp() -> Self {
        NodeSpec { gpus_per_node: 8, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() }
    }

    /// The RDMA variant used in §VIII-D.
    pub fn alibaba_v100_rdma() -> Self {
        NodeSpec { gpus_per_node: 8, gpu: GpuSpec::v100(), nic: NicSpec::rdma_100gbps() }
    }
}

/// A rack/spine tier above the node NICs.
///
/// Nodes are packed into racks of `nodes_per_rack` (the last rack may be
/// partial). Each rack gets a ToR uplink tx/rx port pair and all racks share
/// one spine resource, so cross-rack traffic loads
/// `… nic → tor_tx → spine → tor_rx → nic …` and contends on the
/// oversubscribed uplinks the way real datacenter fabrics do. Racks also
/// partition the fluid solver: rack-local flows are solved per rack and only
/// the spine tier is re-solved when a cross-rack share moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackSpec {
    /// Nodes behind one ToR switch.
    pub nodes_per_rack: usize,
    /// ToR uplink bandwidth per direction in Gbit/s.
    pub uplink_gbps: f64,
    /// Aggregate spine bandwidth in Gbit/s.
    pub spine_gbps: f64,
    /// Extra startup latency a cross-rack transfer pays.
    pub hop_latency: SimDuration,
}

impl RackSpec {
    /// A 2:1-oversubscribed rack layer sized for `nic`: the uplink carries
    /// half the rack's aggregate NIC bandwidth, the spine carries the sum of
    /// all uplinks (set by [`ClusterSpec::with_rack_layer`], which knows the
    /// rack count).
    pub fn oversubscribed_2to1(nodes_per_rack: usize, nic: &NicSpec) -> Self {
        assert!(nodes_per_rack > 0, "rack needs at least one node");
        let uplink = nic.bandwidth_gbps * nodes_per_rack as f64 / 2.0;
        RackSpec {
            nodes_per_rack,
            uplink_gbps: uplink,
            spine_gbps: uplink, // rescaled to nracks × uplink at attach time
            hop_latency: SimDuration::from_micros(5),
        }
    }

    /// ToR uplink capacity in bytes/second.
    pub fn uplink_bytes_per_sec(&self) -> f64 {
        self.uplink_gbps * 1e9 / 8.0
    }

    /// Spine capacity in bytes/second.
    pub fn spine_bytes_per_sec(&self) -> f64 {
        self.spine_gbps * 1e9 / 8.0
    }

    /// Validates field ranges.
    ///
    /// # Panics
    /// Panics if the rack is empty or a bandwidth is non-positive.
    pub fn validate(&self) {
        assert!(self.nodes_per_rack > 0, "rack needs at least one node");
        assert!(self.uplink_gbps > 0.0, "uplink bandwidth must be positive");
        assert!(self.spine_gbps > 0.0, "spine bandwidth must be positive");
    }
}

/// A homogeneous cluster of nodes, optionally with a partially-populated
/// last node.
///
/// All nodes share one [`NodeSpec`]. When `tail_gpus > 0` the *last* node
/// hosts only `tail_gpus` GPUs instead of `node.gpus_per_node` — this is how
/// gang sizes like 12 GPUs on 8-GPU nodes (1 full node + 4-GPU tail) are
/// expressed. Global ranks stay node-contiguous: node `n` starts at rank
/// `n * gpus_per_node`, so rank↔node arithmetic is unchanged by a tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of nodes (including the partial last node, if any).
    pub nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// GPUs on the last node, `0` meaning "full" (`node.gpus_per_node`).
    pub tail_gpus: usize,
    /// Optional rack/spine tier (`None` = flat single-tier fabric, which is
    /// what every pre-rack snapshot and spec deserializes to).
    pub rack: Option<RackSpec>,
}

impl ClusterSpec {
    /// Creates a cluster of `nodes` identical nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is zero, the node has no GPUs, or the NIC spec is
    /// out of range.
    pub fn new(nodes: usize, node: NodeSpec) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(node.gpus_per_node > 0, "node needs at least one GPU");
        node.nic.validate();
        ClusterSpec { nodes, node, tail_gpus: 0, rack: None }
    }

    /// Attaches a rack/spine tier, packing nodes into racks of
    /// `rack.nodes_per_rack` and rescaling `spine_gbps` to carry every
    /// rack's uplink (`nracks × uplink_gbps`) so the spine is never the
    /// artificial bottleneck unless the caller overrides it afterwards.
    ///
    /// # Panics
    /// Panics if the rack spec is out of range.
    pub fn with_rack_layer(mut self, mut rack: RackSpec) -> Self {
        rack.validate();
        let nracks = self.nodes.div_ceil(rack.nodes_per_rack);
        rack.spine_gbps = rack.uplink_gbps * nracks as f64;
        self.rack = Some(rack);
        self
    }

    /// Number of racks (`1` for a flat, rackless cluster).
    pub fn nracks(&self) -> usize {
        match &self.rack {
            Some(r) => self.nodes.div_ceil(r.nodes_per_rack),
            None => 1,
        }
    }

    /// Rack index hosting node `node` (`0` for a flat cluster).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn rack_of_node(&self, node: usize) -> usize {
        assert!(node < self.nodes, "node {node} out of range");
        match &self.rack {
            Some(r) => node / r.nodes_per_rack,
            None => 0,
        }
    }

    /// Whether two global ranks share a rack (always true when the cluster
    /// has no rack layer).
    pub fn same_rack(&self, a: usize, b: usize) -> bool {
        self.rack_of_node(self.node_of(a)) == self.rack_of_node(self.node_of(b))
    }

    /// Creates a cluster of `nodes - 1` full nodes plus a last node hosting
    /// only `tail_gpus` GPUs. `tail_gpus == 0` (or the full node size) yields
    /// a plain homogeneous cluster.
    ///
    /// # Panics
    /// Panics on the [`ClusterSpec::new`] conditions, or if `tail_gpus`
    /// exceeds the node size, or if a partial node is requested for a
    /// single-GPU node size.
    pub fn with_tail(nodes: usize, node: NodeSpec, tail_gpus: usize) -> Self {
        assert!(
            tail_gpus <= node.gpus_per_node,
            "tail of {tail_gpus} GPUs exceeds node size {}",
            node.gpus_per_node
        );
        let mut spec = ClusterSpec::new(nodes, node);
        if tail_gpus > 0 && tail_gpus < spec.node.gpus_per_node {
            assert!(nodes > 1, "a single-node cluster of {tail_gpus} GPUs should shrink the node");
            spec.tail_gpus = tail_gpus;
        }
        spec
    }

    /// Paper-style TCP cluster with `total_gpus` V100s: a single node for up
    /// to 8 GPUs, otherwise `total_gpus / 8` full nodes.
    ///
    /// # Panics
    /// Panics if `total_gpus` is zero or not a multiple of 8 when above 8.
    pub fn tcp_v100(total_gpus: usize) -> Self {
        Self::with_total_gpus(total_gpus, NodeSpec::alibaba_v100_tcp())
    }

    /// RDMA cluster with `total_gpus` V100s (§VIII-D).
    ///
    /// # Panics
    /// Same conditions as [`ClusterSpec::tcp_v100`].
    pub fn rdma_v100(total_gpus: usize) -> Self {
        Self::with_total_gpus(total_gpus, NodeSpec::alibaba_v100_rdma())
    }

    /// Builds a cluster of `total_gpus` GPUs from a node template.
    ///
    /// Counts at or below the node size shrink to a single (smaller) node;
    /// larger counts that are not a multiple of the node size get a partial
    /// last node (e.g. 12 GPUs on 8-GPU nodes → one full node + a 4-GPU
    /// tail).
    ///
    /// # Panics
    /// Panics if `total_gpus` is zero.
    pub fn with_total_gpus(total_gpus: usize, mut node: NodeSpec) -> Self {
        assert!(total_gpus > 0, "need at least one GPU");
        if total_gpus <= node.gpus_per_node {
            node.gpus_per_node = total_gpus;
            ClusterSpec::new(1, node)
        } else {
            let gpn = node.gpus_per_node;
            let nodes = total_gpus.div_ceil(gpn);
            Self::with_tail(nodes, node, total_gpus % gpn)
        }
    }

    /// Total number of GPU workers.
    pub fn world_size(&self) -> usize {
        let gpn = self.node.gpus_per_node;
        if self.tail_gpus > 0 {
            (self.nodes - 1) * gpn + self.tail_gpus
        } else {
            self.nodes * gpn
        }
    }

    /// Number of GPUs hosted by node `node` (smaller than the node size only
    /// for a partial last node).
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn gpus_on_node(&self, node: usize) -> usize {
        assert!(node < self.nodes, "node {node} out of range");
        if self.tail_gpus > 0 && node == self.nodes - 1 {
            self.tail_gpus
        } else {
            self.node.gpus_per_node
        }
    }

    /// Node index hosting global rank `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank / self.node.gpus_per_node
    }

    /// Rank within its node.
    pub fn local_rank(&self, rank: usize) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank % self.node.gpus_per_node
    }

    /// Whether two ranks share a node (and thus communicate over NVLink).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_preset_matches_paper() {
        let nic = NicSpec::tcp_30gbps();
        assert_eq!(nic.kind, NetKind::Tcp);
        assert!((nic.bytes_per_sec() - 3.75e9).abs() < 1.0);
        assert!((nic.flow_cap_bytes_per_sec() - 1.125e9).abs() < 1.0);
    }

    #[test]
    fn rdma_cap_is_tighter_fractionally() {
        let nic = NicSpec::rdma_100gbps();
        assert!(nic.per_flow_cap < NicSpec::tcp_30gbps().per_flow_cap);
        // ... but absolute single-flow rate is similar (12.5 GB/s * 0.1).
        assert!((nic.flow_cap_bytes_per_sec() - 1.25e9).abs() < 1.0);
    }

    #[test]
    fn v100_effective_flops() {
        let g = GpuSpec::v100();
        assert!((g.effective_flops() - 15.7e12 * 0.55).abs() < 1e6);
    }

    #[test]
    fn small_cluster_is_single_node() {
        let c = ClusterSpec::tcp_v100(4);
        assert_eq!(c.nodes, 1);
        assert_eq!(c.world_size(), 4);
    }

    #[test]
    fn large_cluster_splits_into_nodes() {
        let c = ClusterSpec::tcp_v100(256);
        assert_eq!(c.nodes, 32);
        assert_eq!(c.world_size(), 256);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(8), 1);
        assert_eq!(c.local_rank(13), 5);
        assert!(c.same_node(8, 15));
        assert!(!c.same_node(7, 8));
    }

    #[test]
    fn uneven_gpu_count_gets_partial_last_node() {
        // Regression: 12 GPUs on 8-GPU nodes used to be rejected outright.
        let c = ClusterSpec::tcp_v100(12);
        assert_eq!(c.nodes, 2);
        assert_eq!(c.tail_gpus, 4);
        assert_eq!(c.world_size(), 12);
        assert_eq!(c.gpus_on_node(0), 8);
        assert_eq!(c.gpus_on_node(1), 4);
        // Ranks stay node-contiguous: the tail node starts at rank 8.
        assert_eq!(c.node_of(7), 0);
        assert_eq!(c.node_of(8), 1);
        assert_eq!(c.node_of(11), 1);
        assert_eq!(c.local_rank(11), 3);
    }

    #[test]
    fn full_tail_collapses_to_homogeneous() {
        let c = ClusterSpec::with_tail(2, NodeSpec::alibaba_v100_tcp(), 8);
        assert_eq!(c.tail_gpus, 0);
        assert_eq!(c.world_size(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tail_rank_past_world_size_rejected() {
        let c = ClusterSpec::tcp_v100(12);
        let _ = c.node_of(12);
    }

    #[test]
    fn rack_layer_packs_nodes_and_rescales_spine() {
        let spec = ClusterSpec::tcp_v100(256); // 32 nodes
        let rack = RackSpec::oversubscribed_2to1(8, &spec.node.nic);
        let spec = spec.with_rack_layer(rack);
        assert_eq!(spec.nracks(), 4);
        assert_eq!(spec.rack_of_node(0), 0);
        assert_eq!(spec.rack_of_node(7), 0);
        assert_eq!(spec.rack_of_node(8), 1);
        assert_eq!(spec.rack_of_node(31), 3);
        // Ranks 0..64 live in rack 0 (8 nodes × 8 GPUs).
        assert!(spec.same_rack(0, 63));
        assert!(!spec.same_rack(63, 64));
        let r = spec.rack.unwrap();
        // 2:1 oversubscription: 8 × 30 Gbps NICs behind a 120 Gbps uplink.
        assert!((r.uplink_gbps - 120.0).abs() < 1e-9);
        // Spine rescaled to the 4 racks' aggregate uplink.
        assert!((r.spine_gbps - 480.0).abs() < 1e-9);
    }

    #[test]
    fn flat_cluster_is_one_rack() {
        let spec = ClusterSpec::tcp_v100(64);
        assert_eq!(spec.nracks(), 1);
        assert_eq!(spec.rack_of_node(7), 0);
        assert!(spec.same_rack(0, 63));
    }

    #[test]
    fn partial_last_rack_is_counted() {
        let spec = ClusterSpec::tcp_v100(80) // 10 nodes
            .with_rack_layer(RackSpec::oversubscribed_2to1(4, &NicSpec::tcp_30gbps()));
        assert_eq!(spec.nracks(), 3);
        assert_eq!(spec.rack_of_node(9), 2);
    }

    #[test]
    fn constructors_default_to_no_rack_layer() {
        // Every existing constructor must keep yielding a flat fabric so
        // pre-rack callers see unchanged behaviour.
        assert!(ClusterSpec::tcp_v100(16).rack.is_none());
        assert!(ClusterSpec::rdma_v100(16).rack.is_none());
        assert!(ClusterSpec::with_tail(2, NodeSpec::alibaba_v100_tcp(), 4).rack.is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_rejected() {
        let c = ClusterSpec::tcp_v100(8);
        let _ = c.node_of(8);
    }
}
