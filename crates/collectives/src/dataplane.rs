//! Exact, chunk-level execution of the collective algorithms on real data.
//!
//! Buffers are indexed by worker rank. The ring of Fig. 1 is a
//! reduce-scatter followed by an all-gather. In one address space the
//! all-gather is pure copying, and the reduce-scatter's result is a fixed
//! per-element fold order, so [`ring_fold`] computes that order directly
//! instead of emulating the `2(w − 1)` lock-step chunk transfers; every
//! result is bit-identical to the emulation's.

use aiacc_simnet::par;
use std::ops::Range;

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
    /// `acc[i] = dst[i] ⊕ acc[i]`: one ring hop, where `dst` is the
    /// receiving worker's buffer and `acc` the partial reduction it
    /// receives. The operand order is the ring's, which matters for the
    /// signed zeros of `Min` and `Max`.
    fn fold_onto(self, acc: &mut [f32], dst: &[f32]) {
        debug_assert_eq!(acc.len(), dst.len());
        match self {
            ReduceOp::Sum => {
                // IEEE addition commutes, so this is `dst + acc` bit for bit.
                for (a, d) in acc.iter_mut().zip(dst) {
                    *a += *d;
                }
            }
            ReduceOp::Min => {
                for (a, d) in acc.iter_mut().zip(dst) {
                    *a = d.min(*a);
                }
            }
            ReduceOp::Max => {
                for (a, d) in acc.iter_mut().zip(dst) {
                    *a = d.max(*a);
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

/// Output elements per block of the fold's fan-out: the block and the
/// matching slice of each input stay in cache while the inputs fold in.
const FOLD_BLOCK: usize = 1 << 13;

/// Folds workers `c + 1, …, c + w − 1` (mod `w`) into `acc`, which holds
/// worker `c`'s values of part of chunk `c` on entry; `src(j)` is worker
/// `j`'s slice of the same elements. This is the ring's reduce-scatter
/// order for chunk `c`, each hop computing `acc = b[j] ⊕ acc` on the
/// receiving worker `j`, and the one implementation of it.
fn fold_chunk<'a>(
    op: ReduceOp,
    c: usize,
    w: usize,
    acc: &mut [f32],
    src: impl Fn(usize) -> &'a [f32],
) {
    for k in 1..w {
        op.fold_onto(acc, src((c + k) % w));
    }
}

/// The elements of chunk `c` (of `w` over length `len`) that fall in the
/// block `lo..hi`, relative to `lo`; empty if none do.
fn chunk_in_block(len: usize, w: usize, c: usize, lo: usize, hi: usize) -> Range<usize> {
    let r = chunk_range(len, w, c);
    r.start.clamp(lo, hi) - lo..r.end.clamp(lo, hi) - lo
}

/// The ring all-reduce's result, computed directly into `out`, then
/// multiplied by `scale` when one is given (a fused averaging step).
///
/// Every element is folded in exactly the order the ring's reduce-scatter
/// folds it (see the module docs), so the result is bit-identical to the
/// lock-step ring's. Output blocks run on the shared pool, `par::jobs()`
/// wide; each element's fold is independent of the blocking, so the
/// result does not depend on the thread count.
///
/// # Panics
/// Panics if `bufs` is empty or any buffer's length differs from
/// `out.len()`.
pub fn ring_fold<B: AsRef<[f32]> + Sync>(
    bufs: &[B],
    op: ReduceOp,
    scale: Option<f32>,
    out: &mut [f32],
) {
    let (w, len) = (bufs.len(), out.len());
    assert!(w > 0, "no workers");
    assert!(bufs.iter().all(|b| b.as_ref().len() == len), "buffer length mismatch");
    let mut blocks: Vec<&mut [f32]> = out.chunks_mut(FOLD_BLOCK).collect();
    par::map_mut(&mut blocks, par::jobs(), |bi, block| {
        let lo = bi * FOLD_BLOCK;
        for c in 0..w {
            let r = chunk_in_block(len, w, c, lo, lo + block.len());
            let at = lo + r.start..lo + r.end;
            let acc = &mut block[r];
            acc.copy_from_slice(&bufs[c].as_ref()[at.clone()]);
            fold_chunk(op, c, w, acc, |j| &bufs[j].as_ref()[at.clone()]);
            if let Some(k) = scale {
                for v in acc.iter_mut() {
                    *v *= k;
                }
            }
        }
    });
}

/// Ring all-reduce over one buffer per worker (Fig. 1).
///
/// On return every buffer holds the element-wise reduction of all inputs,
/// folded in the ring's order (as [`ring_fold`]), and every worker's copy
/// is **bit-identical**: each block is folded once and then copied to
/// every buffer, with blocks spread over the shared pool.
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
    // Block `i` of every worker's buffer, as one row per block.
    let mut rows: Vec<Vec<&mut [f32]>> =
        (0..len.div_ceil(FOLD_BLOCK)).map(|_| Vec::with_capacity(w)).collect();
    for b in bufs.iter_mut() {
        for (row, block) in rows.iter_mut().zip(b.chunks_mut(FOLD_BLOCK)) {
            row.push(block);
        }
    }
    par::map_mut(&mut rows, par::jobs(), |bi, row| {
        let lo = bi * FOLD_BLOCK;
        let hi = lo + row[0].len();
        for c in 0..w {
            // The ring passes chunk `c`'s running fold from worker to
            // worker; here it stays in worker `c`'s buffer, whose values it
            // starts from, and every other worker then copies the result.
            let r = chunk_in_block(len, w, c, lo, hi);
            let (before, rest) = row.split_at_mut(c);
            let (own, after) = rest.split_first_mut().expect("chunk index below world");
            let acc = &mut own[r.clone()];
            let (pre, post): (&[&mut [f32]], &[&mut [f32]]) = (before, after);
            fold_chunk(op, c, w, acc, |j| {
                if j < c {
                    &pre[j][r.clone()]
                } else {
                    &post[j - c - 1][r.clone()]
                }
            });
            for b in before.iter_mut().chain(after.iter_mut()) {
                b[r.clone()].copy_from_slice(acc);
            }
        }
    });
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
/// (worker `i` owns chunk `(i + 1) mod w`), folded in the ring's order.
///
/// # Panics
/// Panics if buffers are empty or have differing lengths.
pub fn reduce_scatter(bufs: &mut [Vec<f32>], op: ReduceOp) -> Vec<Vec<f32>> {
    let w = bufs.len();
    assert!(w > 0, "no workers");
    let len = bufs[0].len();
    let mut out = vec![0.0; len];
    ring_fold(bufs, op, None, &mut out);
    (0..w).map(|i| out[chunk_range(len, w, (i + 1) % w)].to_vec()).collect()
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

/// The step-by-step ring emulation [`ring_fold`] replaced, kept verbatim as
/// the oracle for its fold order.
#[cfg(test)]
mod reference {
    use super::{chunk_range, ReduceOp};

    /// `a[i] = a[i] ⊕ b[i]`.
    fn fold(op: ReduceOp, a: &mut [f32], b: &[f32]) {
        debug_assert_eq!(a.len(), b.len());
        match op {
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

    /// Runs `w − 1` reduce-scatter steps followed by `w − 1` all-gather
    /// steps.
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
                fold(op, &mut dst[r.clone()], &src[r]);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        1e-40,  // subnormal
        -3e-39, // subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MAX,
        1.0,
        -0.5,
    ];

    /// `len` values, uniform or (one in four) an IEEE edge case.
    fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.random_range(0u32..4) == 0 {
                    SPECIAL[rng.random_range(0..SPECIAL.len())]
                } else {
                    rng.random_range(-100.0f32..100.0)
                }
            })
            .collect()
    }

    /// Bitwise equality, except that all NaNs form one class and, for
    /// `Min` and `Max`, +0.0 equals −0.0: Rust leaves a NaN result's sign
    /// and payload, and which zero `min`/`max` return, unspecified.
    fn assert_same(op: ReduceOp, got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits()
                || (g.is_nan() && w.is_nan())
                || (op != ReduceOp::Sum && *g == 0.0 && *w == 0.0);
            assert!(same, "{what}: element {i}: {g:?} vs reference {w:?}");
        }
    }

    /// `ring_allreduce` and `reduce_scatter` against the step-by-step
    /// emulation on one set of buffers.
    fn assert_matches_reference(bufs: &[Vec<f32>], op: ReduceOp) {
        let mut got = bufs.to_vec();
        let mut want = bufs.to_vec();
        ring_allreduce(&mut got, op);
        reference::ring_allreduce(&mut want, op);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(op, g, w, &format!("{op:?} all-reduce, worker {i}"));
        }
        let got = reduce_scatter(&mut bufs.to_vec(), op);
        let want = reference::reduce_scatter(&mut bufs.to_vec(), op);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(op, g, w, &format!("{op:?} reduce-scatter, worker {i}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every world size 1..=9 against lengths 0..=64 (empty chunks
        /// included), for every operator, with signed zeros, infinities,
        /// NaN and subnormals mixed into the inputs.
        #[test]
        fn ring_fold_matches_step_by_step_ring(
            w in 1usize..=9,
            len in 0usize..=64,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bufs: Vec<Vec<f32>> = (0..w).map(|_| values(&mut rng, len)).collect();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                assert_matches_reference(&bufs, op);
            }
        }
    }

    /// The `dataplane_ef` gradient: 8 workers × 1,329,168 floats, cut into
    /// its 4 MiB packing units. Run with
    /// `cargo test --release -p aiacc-collectives -- --ignored`.
    #[test]
    #[ignore]
    fn ring_fold_matches_step_by_step_ring_at_benchmark_size() {
        const PARAMS: usize = 1_329_168;
        const UNIT: usize = 1 << 20;
        let mut rng = StdRng::seed_from_u64(1);
        let full: Vec<Vec<f32>> = (0..8).map(|_| values(&mut rng, PARAMS)).collect();
        for lo in (0..PARAMS).step_by(UNIT) {
            let hi = (lo + UNIT).min(PARAMS);
            let unit: Vec<Vec<f32>> = full.iter().map(|b| b[lo..hi].to_vec()).collect();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                assert_matches_reference(&unit, op);
            }
        }
    }

    #[test]
    fn ring_fold_scales_after_folding() {
        let bufs = [vec![1.0f32, 2.0, 3.0], vec![3.0, 4.0, 5.0]];
        let mut out = [0.0f32; 3];
        ring_fold(&bufs, ReduceOp::Sum, Some(0.5), &mut out);
        assert_eq!(out, [2.0, 3.0, 4.0]);
        ring_fold(&bufs, ReduceOp::Max, None, &mut out);
        assert_eq!(out, [3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_buffers_rejected() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        ring_allreduce(&mut bufs, ReduceOp::Sum);
    }
}
