//! Property-based bit-identity tests for the multi-core solver.
//!
//! The partitioned solver may fan dirty components across the persistent
//! worker pool; the contract is that the worker count changes *nothing*
//! observable — every rate bit, every remaining-bytes bit, every completion
//! instant and every worker-independent solver counter must match the
//! serial run exactly, for any interleaving of flow starts, completions
//! and capacity changes, on both flat and racked topologies.

mod common;

use common::{deterministic_stats, run_scenario, Wave, WaveFlow, LINKS};
use proptest::prelude::*;

fn wave() -> impl Strategy<Value = Wave> {
    let flow = (0..LINKS, 1.0..1e5f64, prop::option::of(10.0..5e3f64), 0u64..500_000)
        .prop_map(|(link, bytes, cap, latency_ns)| WaveFlow { link, bytes, cap, latency_ns });
    (prop::collection::vec(flow, 1..16), 0..LINKS, 0.2..1.5f64, 0usize..3)
        .prop_map(|(flows, retune, factor, steps)| Wave { flows, retune, factor, steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat topology (every leaf its own component): worker counts 1, 2
    /// and 8 produce bit-identical traces and solver counters.
    #[test]
    fn parallel_solve_is_bit_identical_flat(waves in prop::collection::vec(wave(), 2..6)) {
        let (serial, stats1) = run_scenario(&waves, 1, false);
        for workers in [2usize, 8] {
            let (par, stats_n) = run_scenario(&waves, workers, false);
            prop_assert_eq!(&par, &serial, "trace diverged at {} workers", workers);
            prop_assert_eq!(
                deterministic_stats(&stats_n),
                deterministic_stats(&stats1),
                "solver counters diverged at {} workers", workers
            );
        }
    }

    /// Racked topology (leaves merged through shared uplinks): same
    /// contract with multi-resource components.
    #[test]
    fn parallel_solve_is_bit_identical_racked(waves in prop::collection::vec(wave(), 2..6)) {
        let (serial, stats1) = run_scenario(&waves, 1, true);
        for workers in [2usize, 8] {
            let (par, stats_n) = run_scenario(&waves, workers, true);
            prop_assert_eq!(&par, &serial, "trace diverged at {} workers", workers);
            prop_assert_eq!(
                deterministic_stats(&stats_n),
                deterministic_stats(&stats1),
                "solver counters diverged at {} workers", workers
            );
        }
    }
}
