//! Exact, chunk-level execution of the collective algorithms on real data.
//!
//! Buffers are indexed by worker rank. Within one step of the lock-step ring
//! of Fig. 1 every worker sends one chunk and receives another, so no chunk
//! is both read and written in the same step: applying the transfers in
//! place, one after another, equals sending them all simultaneously.

/// The reduction operator applied by an all-reduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum (gradient aggregation).
    Sum,
    /// Element-wise minimum (AIACC's gradient-synchronization vote, §V-A2).
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// `a[i] = a[i] ⊕ b[i]`.
    fn fold(self, a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        match self {
            ReduceOp::Sum => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += *y;
                }
            }
            ReduceOp::Min => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.min(*y);
                }
            }
            ReduceOp::Max => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.max(*y);
                }
            }
        }
    }
}

/// Element range of chunk `i` when a length-`len` buffer is cut into `w`
/// near-equal contiguous chunks.
pub fn chunk_range(len: usize, w: usize, i: usize) -> std::ops::Range<usize> {
    debug_assert!(i < w);
    (i * len / w)..((i + 1) * len / w)
}

/// Ring all-reduce over one buffer per worker (Fig. 1).
///
/// Runs `w − 1` reduce-scatter steps followed by `w − 1` all-gather steps; on
/// return every buffer holds the element-wise reduction of all inputs, and
/// every worker's copy is **bit-identical** (reductions are applied in the
/// same order on every chunk).
///
/// # Panics
/// Panics if buffers are empty or have differing lengths.
pub fn ring_allreduce(bufs: &mut [Vec<f32>], op: ReduceOp) {
    let w = bufs.len();
    assert!(w > 0, "no workers");
    let len = bufs[0].len();
    assert!(bufs.iter().all(|b| b.len() == len), "buffer length mismatch");
    if w == 1 || len == 0 {
        return;
    }
    ring_reduce_scatter(bufs, op);

    // After reduce-scatter, worker i owns the complete reduction of chunk
    // (i + 1) mod w. All-gather: at step s, worker i sends chunk
    // (i + 1 − s) mod w onward; the receiver overwrites.
    for s in 0..w - 1 {
        for i in 0..w {
            let r = chunk_range(len, w, (i + 1 + w - s % w) % w);
            let (src, dst) = src_dst(bufs, i, (i + 1) % w);
            dst[r.clone()].copy_from_slice(&src[r]);
        }
    }
}

/// The reduce-scatter phase of the ring, in place: at step s, worker i sends
/// chunk (i − s) mod w to worker (i + 1) mod w, which folds it into its own
/// copy. Afterwards worker i holds the full reduction of chunk (i + 1) mod w.
fn ring_reduce_scatter(bufs: &mut [Vec<f32>], op: ReduceOp) {
    let w = bufs.len();
    let len = bufs[0].len();
    for s in 0..w.saturating_sub(1) {
        for i in 0..w {
            let r = chunk_range(len, w, (i + w - s % w) % w);
            let (src, dst) = src_dst(bufs, i, (i + 1) % w);
            op.fold(&mut dst[r.clone()], &src[r]);
        }
    }
}

/// Worker `src`'s buffer to read and worker `dst`'s to write, `src != dst`.
fn src_dst(bufs: &mut [Vec<f32>], src: usize, dst: usize) -> (&[f32], &mut [f32]) {
    if src < dst {
        let (lo, hi) = bufs.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = bufs.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    }
}

/// Hierarchical ("tree") all-reduce (§V-B): ring all-reduce within each node,
/// ring all-reduce across node leaders, then intra-node broadcast.
///
/// # Panics
/// Panics if `gpus_per_node` is zero, the worker count is not a multiple of
/// it, or buffer lengths differ.
pub fn tree_allreduce(bufs: &mut [Vec<f32>], gpus_per_node: usize, op: ReduceOp) {
    let w = bufs.len();
    assert!(gpus_per_node > 0, "gpus_per_node must be positive");
    assert_eq!(w % gpus_per_node, 0, "world not a multiple of node size");

    // Phase 1: intra-node ring all-reduce (leaders end with the node sum).
    for node in bufs.chunks_mut(gpus_per_node) {
        ring_allreduce(node, op);
    }

    // Phase 2: inter-node ring among leaders (local rank 0).
    let mut leaders: Vec<Vec<f32>> =
        bufs.iter_mut().step_by(gpus_per_node).map(std::mem::take).collect();
    ring_allreduce(&mut leaders, op);

    // Phase 3: broadcast the global result within each node.
    for (node, leader) in bufs.chunks_mut(gpus_per_node).zip(leaders) {
        for b in &mut node[1..] {
            b.clone_from(&leader);
        }
        node[0] = leader;
    }
}

/// Broadcast `bufs[root]` to every worker.
///
/// # Panics
/// Panics if `root` is out of range.
pub fn broadcast(bufs: &mut [Vec<f32>], root: usize) {
    assert!(root < bufs.len(), "root out of range");
    let src = bufs[root].clone();
    for (i, b) in bufs.iter_mut().enumerate() {
        if i != root {
            b.clone_from(&src);
        }
    }
}

/// Ring reduce-scatter only: returns each worker's fully reduced chunk
/// (worker `i` owns chunk `(i + 1) mod w`).
pub fn reduce_scatter(bufs: &mut [Vec<f32>], op: ReduceOp) -> Vec<Vec<f32>> {
    let w = bufs.len();
    assert!(w > 0, "no workers");
    let len = bufs[0].len();
    let mut work = bufs.to_vec();
    ring_reduce_scatter(&mut work, op);
    (0..w)
        .map(|i| {
            let c = (i + 1) % w;
            work[i][chunk_range(len, w, c)].to_vec()
        })
        .collect()
}

/// All-gather: worker `i` contributes `chunks[i]`; every worker receives the
/// concatenation.
pub fn all_gather(chunks: &[Vec<f32>]) -> Vec<f32> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for c in chunks {
        out.extend_from_slice(c);
    }
    out
}

/// Bitwise-AND all-reduce over `u64` words — the exact operation AIACC's
/// decentralized gradient synchronization performs on its bit vectors: a
/// **min** over `{0, 1}` entries is an AND (§V-A2).
///
/// # Panics
/// Panics if vectors are empty or have differing lengths.
pub fn allreduce_and_bits(vecs: &mut [Vec<u64>]) {
    assert!(!vecs.is_empty(), "no workers");
    let len = vecs[0].len();
    assert!(vecs.iter().all(|v| v.len() == len), "bit vector length mismatch");
    let mut acc = vecs[0].clone();
    for v in vecs[1..].iter() {
        for (a, b) in acc.iter_mut().zip(v) {
            *a &= *b;
        }
    }
    for v in vecs.iter_mut() {
        v.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_bufs(w: usize, len: usize) -> Vec<Vec<f32>> {
        (0..w).map(|i| (0..len).map(|j| (i * len + j) as f32 * 0.5 + 1.0).collect()).collect()
    }

    fn expected_sum(bufs: &[Vec<f32>]) -> Vec<f32> {
        let len = bufs[0].len();
        let mut out = vec![0.0; len];
        for b in bufs {
            for (o, v) in out.iter_mut().zip(b) {
                *o += *v;
            }
        }
        out
    }

    #[test]
    fn ring_allreduce_sums_three_workers() {
        let mut bufs = make_bufs(3, 7);
        let want = expected_sum(&bufs);
        ring_allreduce(&mut bufs, ReduceOp::Sum);
        for b in &bufs {
            for (x, y) in b.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn results_bit_identical_across_workers() {
        let mut bufs = make_bufs(5, 23);
        ring_allreduce(&mut bufs, ReduceOp::Sum);
        for b in &bufs[1..] {
            assert_eq!(b, &bufs[0], "workers diverged bit-wise");
        }
    }

    #[test]
    fn single_worker_is_identity() {
        let mut bufs = vec![vec![3.0, 4.0]];
        ring_allreduce(&mut bufs, ReduceOp::Sum);
        assert_eq!(bufs[0], vec![3.0, 4.0]);
    }

    #[test]
    fn len_smaller_than_world_still_works() {
        // 2-element buffer over 5 workers: some chunks are empty.
        let mut bufs: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, 1.0]).collect();
        ring_allreduce(&mut bufs, ReduceOp::Sum);
        for b in &bufs {
            assert_eq!(b, &vec![10.0, 5.0]);
        }
    }

    #[test]
    fn min_and_max_ops() {
        let mut bufs = vec![vec![3.0, -1.0], vec![2.0, 5.0], vec![4.0, 0.0]];
        let mut maxb = bufs.clone();
        ring_allreduce(&mut bufs, ReduceOp::Min);
        assert_eq!(bufs[0], vec![2.0, -1.0]);
        ring_allreduce(&mut maxb, ReduceOp::Max);
        assert_eq!(maxb[2], vec![4.0, 5.0]);
    }

    #[test]
    fn tree_matches_ring() {
        let mut a = make_bufs(8, 17);
        let mut b = a.clone();
        ring_allreduce(&mut a, ReduceOp::Sum);
        tree_allreduce(&mut b, 4, ReduceOp::Sum);
        for (x, y) in a.iter().zip(&b) {
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() < 1e-3, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn tree_single_gpu_nodes_degenerates_to_ring() {
        let mut a = make_bufs(4, 9);
        let want = expected_sum(&a);
        tree_allreduce(&mut a, 1, ReduceOp::Sum);
        for b in &a {
            for (x, y) in b.iter().zip(&want) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn broadcast_copies_root() {
        let mut bufs = make_bufs(4, 5);
        let want = bufs[2].clone();
        broadcast(&mut bufs, 2);
        for b in &bufs {
            assert_eq!(b, &want);
        }
    }

    #[test]
    fn reduce_scatter_chunks_cover_reduction() {
        let mut bufs = make_bufs(4, 12);
        let want = expected_sum(&bufs);
        let chunks = reduce_scatter(&mut bufs, ReduceOp::Sum);
        // Worker i owns chunk (i+1) mod w; reassemble in chunk order.
        let w = 4;
        let mut assembled = [0.0; 12];
        for (i, c) in chunks.iter().enumerate() {
            let chunk_idx = (i + 1) % w;
            let r = chunk_range(12, w, chunk_idx);
            assembled[r].copy_from_slice(c);
        }
        for (x, y) in assembled.iter().zip(&want) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn all_gather_concatenates() {
        let out = all_gather(&[vec![1.0], vec![2.0, 3.0], vec![]]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn and_bits_is_min_vote() {
        // Worker 1 is missing gradient 1; everyone must see it missing.
        let mut vecs = vec![vec![0b111u64], vec![0b101], vec![0b111]];
        allreduce_and_bits(&mut vecs);
        for v in &vecs {
            assert_eq!(v[0], 0b101);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_buffers_rejected() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        ring_allreduce(&mut bufs, ReduceOp::Sum);
    }
}
