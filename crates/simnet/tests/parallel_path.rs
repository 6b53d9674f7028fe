//! The multi-core solver's pool path must actually engage.
//!
//! A binary of its own: the solver fans out only when it can take the
//! process-wide pool lease, and a sibling test running concurrently in the
//! same process may hold it, which would send this run down the serial
//! fallback.

mod common;

use common::{deterministic_stats, run_scenario, Wave, WaveFlow, LINKS};

/// The `prop_parallel` scenarios must actually exercise the pool path, not the
/// serial fallback alone: one dense wave across all leaves dirties `LINKS`
/// components at once, which is well past the parallel threshold.
#[test]
fn dense_wave_takes_parallel_path() {
    let waves = vec![Wave {
        flows: (0..LINKS)
            .map(|link| WaveFlow { link, bytes: 1e4, cap: None, latency_ns: 0 })
            .collect(),
        retune: 0,
        factor: 1.0,
        steps: 2,
    }];
    let (serial, stats1) = run_scenario(&waves, 1, false);
    let (par, stats8) = run_scenario(&waves, 8, false);
    assert_eq!(par, serial);
    assert_eq!(stats1.par_solves, 0, "serial run must never fan out");
    assert!(stats8.par_solves > 0, "8-worker run never took the parallel path");
    assert_eq!(deterministic_stats(&stats8), deterministic_stats(&stats1));
}
