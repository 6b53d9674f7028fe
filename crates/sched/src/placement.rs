//! Gang placement policies over a [`GpuFreeList`].
//!
//! A gang is always placed in a *regular* shape — `m − 1` nodes contributing
//! `c` GPUs each plus one node contributing `r ≤ c` — because that is
//! exactly what a [`ClusterSpec`] with a partial tail node expresses, which
//! in turn keeps every existing collective builder (ring, tree, parameter
//! servers) working unchanged on the gang's
//! [`aiacc_cluster::ClusterNet::subnet`] view.
//!
//! All policies are pure functions of the free list, so placement order —
//! and with it the whole scheduler — is deterministic.

use aiacc_cluster::{ClusterSpec, GpuFreeList};

/// Gang placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacePolicy {
    /// Fewest nodes, preferring already-fragmented (fullest) nodes: best for
    /// NVLink locality and low fragmentation, worst for NIC sharing.
    Packed,
    /// Most nodes, preferring the emptiest: spreads each job thin so every
    /// job's flows touch many NICs — the high-contention regime.
    Spread,
    /// Single-node NVLink placement when the gang fits on one node;
    /// otherwise fewest nodes like [`PlacePolicy::Packed`] but preferring
    /// the *emptiest* nodes, to avoid co-locating with other jobs' NIC
    /// traffic.
    TopologyAware,
}

impl PlacePolicy {
    /// The policy's CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            PlacePolicy::Packed => "packed",
            PlacePolicy::Spread => "spread",
            PlacePolicy::TopologyAware => "topo",
        }
    }

    /// Looks a policy up by name.
    pub fn by_name(name: &str) -> Option<PlacePolicy> {
        match name {
            "packed" => Some(PlacePolicy::Packed),
            "spread" => Some(PlacePolicy::Spread),
            "topo" | "topology-aware" => Some(PlacePolicy::TopologyAware),
            _ => None,
        }
    }

    /// All policies, in report order.
    pub fn all() -> [PlacePolicy; 3] {
        [PlacePolicy::Packed, PlacePolicy::Spread, PlacePolicy::TopologyAware]
    }
}

/// A concrete gang: the logical cluster the job's engine sees, plus the
/// physical global rank backing each logical rank (logical order).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The gang's logical cluster (regular shape, possibly a partial tail).
    pub spec: ClusterSpec,
    /// Physical global ranks, `ranks[i]` backing logical rank `i`.
    pub ranks: Vec<usize>,
}

/// Per-node GPU counts of a regular `req`-GPU gang over `m` nodes:
/// `m − 1` nodes of `ceil(req / m)` plus a tail of the remainder. Returns
/// `None` when `m` nodes cannot form a regular shape (tail would be empty —
/// fewer nodes suffice — or the per-node count exceeds the node size).
fn regular_counts(req: usize, m: usize, gpn: usize) -> Option<Vec<usize>> {
    let c = req.div_ceil(m);
    if c > gpn {
        return None;
    }
    let full = m - 1;
    let tail = req.checked_sub(full * c).filter(|&r| r > 0)?;
    let mut counts = vec![c; full];
    counts.push(tail);
    Some(counts)
}

/// Tries to place a `req`-GPU gang under `policy` without mutating the free
/// list. Returns `None` when the gang does not fit right now (the caller
/// queues the job).
///
/// # Panics
/// Panics if `req` is zero or exceeds the cluster's total GPU count.
pub fn try_place(policy: PlacePolicy, req: usize, free: &GpuFreeList) -> Option<Placement> {
    let spec = free.spec();
    let total: usize = (0..spec.nodes).map(|n| spec.gpus_on_node(n)).sum();
    assert!(req > 0, "gang needs at least one GPU");
    assert!(req <= total, "gang of {req} GPUs exceeds cluster capacity {total}");
    let gpn = spec.node.gpus_per_node;

    let single = |best_fit: bool| -> Option<Placement> {
        // Smallest (best-fit) or largest (worst-fit) feasible node; ties go
        // to the lowest index.
        let mut pick: Option<(usize, usize)> = None;
        for n in 0..spec.nodes {
            let f = free.free_on_node(n);
            if f < req {
                continue;
            }
            let better = match pick {
                None => true,
                Some((_, pf)) => {
                    if best_fit {
                        f < pf
                    } else {
                        f > pf
                    }
                }
            };
            if better {
                pick = Some((n, f));
            }
        }
        let (node, _) = pick?;
        Some(assemble(free, &[(node, req)]))
    };

    // Candidate nodes in policy preference order.
    let ordered = |emptiest_first: bool| -> Vec<(usize, usize)> {
        let mut nodes: Vec<(usize, usize)> =
            (0..spec.nodes).map(|n| (n, free.free_on_node(n))).filter(|&(_, f)| f > 0).collect();
        nodes.sort_by_key(|&(n, f)| (if emptiest_first { total - f } else { f }, n));
        nodes
    };

    // Greedily assigns the (descending) per-node counts of a regular shape
    // to the ordered candidates.
    let multi = |m: usize, emptiest_first: bool| -> Option<Placement> {
        let counts = regular_counts(req, m, gpn)?;
        let candidates = ordered(emptiest_first);
        let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(m);
        let mut used = vec![false; spec.nodes];
        for &count in &counts {
            let slot =
                candidates.iter().find(|&&(n, f)| !used[n] && f >= count).map(|&(n, _)| n)?;
            used[slot] = true;
            chosen.push((slot, count));
        }
        Some(assemble(free, &chosen))
    };

    let m_min = req.div_ceil(gpn);
    let m_max = req.min(spec.nodes);
    match policy {
        PlacePolicy::Packed => {
            if req <= gpn {
                if let Some(p) = single(true) {
                    return Some(p);
                }
            }
            (m_min.max(2)..=m_max).find_map(|m| multi(m, false))
        }
        PlacePolicy::Spread => {
            if m_max >= 2 {
                if let Some(p) = (m_min.max(2)..=m_max).rev().find_map(|m| multi(m, true)) {
                    return Some(p);
                }
            }
            single(false)
        }
        PlacePolicy::TopologyAware => {
            if req <= gpn {
                if let Some(p) = single(true) {
                    return Some(p);
                }
            }
            (m_min.max(2)..=m_max).find_map(|m| multi(m, true))
        }
    }
}

/// Materializes a chosen `(node, count)` assignment into a [`Placement`]
/// with a regular logical spec. Does not touch the free list — the caller
/// commits the ranks with [`GpuFreeList::take`] if it accepts the gang.
fn assemble(free: &GpuFreeList, chosen: &[(usize, usize)]) -> Placement {
    let phys = free.spec();
    let mut probe = free.clone();
    let mut ranks = Vec::new();
    for &(node, count) in chosen {
        ranks.extend(probe.take(node, count));
    }
    let mut node = phys.node.clone();
    let spec = if chosen.len() == 1 {
        node.gpus_per_node = chosen[0].1;
        ClusterSpec::new(1, node)
    } else {
        let c = chosen[0].1;
        let tail = chosen[chosen.len() - 1].1;
        node.gpus_per_node = c;
        ClusterSpec::with_tail(chosen.len(), node, if tail == c { 0 } else { tail })
    };
    debug_assert_eq!(spec.world_size(), ranks.len());
    Placement { spec, ranks }
}

impl Placement {
    /// Commits this placement, removing its ranks from the free list.
    pub fn commit(&self, free: &mut GpuFreeList) {
        let phys = free.spec().clone();
        let mut i = 0;
        for n in 0..self.spec.nodes {
            let count = self.spec.gpus_on_node(n);
            let node = phys.node_of(self.ranks[i]);
            let got = free.take(node, count);
            assert_eq!(got[..], self.ranks[i..i + count], "free list changed since placement");
            i += count;
        }
    }

    /// Returns this placement's ranks to the free list.
    pub fn release(&self, free: &mut GpuFreeList) {
        free.release(&self.ranks);
    }

    /// Number of distinct physical nodes the gang touches.
    pub fn node_count(&self) -> usize {
        self.spec.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_cluster::ClusterSpec;

    fn free32() -> GpuFreeList {
        GpuFreeList::new(&ClusterSpec::tcp_v100(32))
    }

    #[test]
    fn packed_prefers_single_fullest_node() {
        let mut free = free32();
        let _ = free.take(2, 5); // node 2 has 3 left
        let p = try_place(PlacePolicy::Packed, 3, &free).expect("fits");
        // Best fit: node 2's remaining 3 GPUs, not a fresh node.
        assert_eq!(p.ranks, vec![21, 22, 23]);
        assert_eq!(p.spec.nodes, 1);
    }

    #[test]
    fn spread_uses_many_nodes() {
        let free = free32();
        let p = try_place(PlacePolicy::Spread, 8, &free).expect("fits");
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.spec.node.gpus_per_node, 2);
        assert_eq!(p.spec.tail_gpus, 0);
        assert_eq!(p.ranks, vec![0, 1, 8, 9, 16, 17, 24, 25]);
    }

    #[test]
    fn packed_splits_when_no_node_fits() {
        let free = free32();
        let p = try_place(PlacePolicy::Packed, 12, &free).expect("fits");
        // 12 > 8, so two nodes in the balanced regular shape 6 + 6.
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.spec.node.gpus_per_node, 6);
        assert_eq!(p.spec.tail_gpus, 0);
        assert_eq!(p.spec.world_size(), 12);
    }

    #[test]
    fn topo_prefers_empty_nodes_when_splitting() {
        let mut free = free32();
        let _ = free.take(0, 4); // node 0 half full
        let p = try_place(PlacePolicy::TopologyAware, 16, &free).expect("fits");
        // Needs 2 full nodes; the emptiest are 1, 2, 3 — not node 0.
        assert_eq!(p.node_count(), 2);
        assert!(p.ranks.iter().all(|&r| r >= 8), "ranks {:?}", p.ranks);
    }

    #[test]
    fn placement_fails_when_fragmented() {
        let mut free = free32();
        for n in 0..4 {
            let _ = free.take(n, 7); // 1 GPU free per node
        }
        assert_eq!(free.total_free(), 4);
        assert!(try_place(PlacePolicy::Packed, 8, &free).is_none());
        // But 4 single GPUs spread across nodes still fit.
        let p = try_place(PlacePolicy::Spread, 4, &free).expect("fits");
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn commit_and_release_round_trip() {
        let mut free = free32();
        let p = try_place(PlacePolicy::Spread, 8, &free).expect("fits");
        p.commit(&mut free);
        assert_eq!(free.total_free(), 24);
        let q = try_place(PlacePolicy::Spread, 8, &free).expect("fits");
        assert!(p.ranks.iter().all(|r| !q.ranks.contains(r)), "gangs overlap");
        p.release(&mut free);
        assert_eq!(free.total_free(), 32);
    }

    #[test]
    fn regular_counts_shapes() {
        assert_eq!(regular_counts(8, 2, 8), Some(vec![4, 4]));
        assert_eq!(regular_counts(9, 2, 8), Some(vec![5, 4]));
        assert_eq!(regular_counts(12, 2, 8), Some(vec![6, 6]));
        // 8 over 4 nodes of size 8: 2 each.
        assert_eq!(regular_counts(8, 4, 8), Some(vec![2, 2, 2, 2]));
        // 9 over 4: ceil = 3, tail 0 → fewer nodes suffice.
        assert_eq!(regular_counts(9, 4, 8), None);
        assert_eq!(regular_counts(20, 2, 8), None); // 10 > node size
    }
}
