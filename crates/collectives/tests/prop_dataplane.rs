//! Property-based tests of the data-plane collectives.

use aiacc_collectives::dataplane::{ring_allreduce, ReduceOp};
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
}
