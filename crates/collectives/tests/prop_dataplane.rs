//! Property-based tests of the data-plane collectives.

use aiacc_collectives::dataplane::{
    all_gather, broadcast, chunk_range, reduce_scatter, ring_allreduce, tree_allreduce, ReduceOp,
};
use proptest::prelude::*;

fn bufs_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..9, 0usize..50).prop_flat_map(|(w, len)| {
        prop::collection::vec(prop::collection::vec(-100.0f32..100.0, len..=len), w..=w)
    })
}

fn reference_sum(bufs: &[Vec<f32>]) -> Vec<f32> {
    let len = bufs[0].len();
    let mut out = vec![0.0f64; len];
    for b in bufs {
        for (o, &v) in out.iter_mut().zip(b) {
            *o += v as f64;
        }
    }
    out.into_iter().map(|v| v as f32).collect()
}

proptest! {
    /// Ring all-reduce computes the element-wise sum (up to float
    /// reassociation) and leaves every worker bit-identical.
    #[test]
    fn ring_allreduce_sums(bufs in bufs_strategy()) {
        let want = reference_sum(&bufs);
        let mut got = bufs;
        ring_allreduce(&mut got, ReduceOp::Sum);
        for b in &got[1..] {
            prop_assert_eq!(b, &got[0], "workers diverged");
        }
        for (x, y) in got[0].iter().zip(&want) {
            prop_assert!((x - y).abs() <= 1e-3 + y.abs() * 1e-4, "{} vs {}", x, y);
        }
    }

    /// Tree all-reduce agrees with the flat ring for every node split that
    /// divides the world.
    #[test]
    fn tree_matches_ring_for_all_divisors(bufs in bufs_strategy()) {
        let w = bufs.len();
        let mut ring = bufs.clone();
        ring_allreduce(&mut ring, ReduceOp::Sum);
        for g in 1..=w {
            if !w.is_multiple_of(g) {
                continue;
            }
            let mut tree = bufs.clone();
            tree_allreduce(&mut tree, g, ReduceOp::Sum);
            for (a, b) in ring.iter().zip(&tree) {
                for (x, y) in a.iter().zip(b) {
                    prop_assert!((x - y).abs() <= 1e-2 + x.abs() * 1e-3,
                        "g={}: {} vs {}", g, x, y);
                }
            }
        }
    }

    /// Min/Max all-reduce equals the element-wise min/max exactly (order
    /// independent, no float error).
    #[test]
    fn min_max_are_exact(bufs in bufs_strategy()) {
        let len = bufs[0].len();
        let mut mins = bufs.clone();
        ring_allreduce(&mut mins, ReduceOp::Min);
        let mut maxs = bufs.clone();
        ring_allreduce(&mut maxs, ReduceOp::Max);
        for i in 0..len {
            let want_min = bufs.iter().map(|b| b[i]).fold(f32::INFINITY, f32::min);
            let want_max = bufs.iter().map(|b| b[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(mins[0][i], want_min);
            prop_assert_eq!(maxs[0][i], want_max);
        }
    }

    /// reduce-scatter + all-gather == all-reduce.
    #[test]
    fn reduce_scatter_then_gather_is_allreduce(bufs in bufs_strategy()) {
        let w = bufs.len();
        let len = bufs[0].len();
        let mut reference = bufs.clone();
        ring_allreduce(&mut reference, ReduceOp::Sum);

        let mut work = bufs;
        let chunks = reduce_scatter(&mut work, ReduceOp::Sum);
        // Reassemble in chunk order (worker i owns chunk (i+1) % w).
        let mut ordered = vec![Vec::new(); w];
        for (i, c) in chunks.into_iter().enumerate() {
            ordered[(i + 1) % w] = c;
        }
        let assembled = all_gather(&ordered);
        prop_assert_eq!(assembled.len(), len);
        for (x, y) in assembled.iter().zip(&reference[0]) {
            prop_assert!((x - y).abs() <= 1e-3 + y.abs() * 1e-4);
        }
    }

    /// Chunk ranges partition [0, len) in order.
    #[test]
    fn chunk_ranges_partition(len in 0usize..10_000, w in 1usize..64) {
        let mut expected_start = 0;
        for i in 0..w {
            let r = chunk_range(len, w, i);
            prop_assert_eq!(r.start, expected_start);
            expected_start = r.end;
        }
        prop_assert_eq!(expected_start, len);
    }

    /// Broadcast replicates the root everywhere and never alters the root.
    #[test]
    fn broadcast_replicates(bufs in bufs_strategy(), root_pick in 0usize..8) {
        let w = bufs.len();
        let root = root_pick % w;
        let want = bufs[root].clone();
        let mut got = bufs;
        broadcast(&mut got, root);
        for b in &got {
            prop_assert_eq!(b, &want);
        }
    }
}
