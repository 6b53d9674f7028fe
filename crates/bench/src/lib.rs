//! Experiment harness: one generator per table/figure of the paper.
//!
//! Each `fig*`/`table*` function runs the corresponding sweep on the
//! simulated cluster and returns a [`Table`] whose rows mirror what the
//! paper plots; the `repro` binary prints them and writes TSV files (at
//! reduced scale with `--quick`). `EXPERIMENTS.md` records
//! the paper-vs-measured comparison for every entry here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exp_chaos;
mod exp_compress;
mod exp_further;
mod exp_multijob;
mod exp_overall;
mod exp_scale;
mod exp_stream;
mod exp_tuning;
mod report;

pub use exp_chaos::*;
pub use exp_compress::*;
pub use exp_further::*;
pub use exp_multijob::*;
pub use exp_overall::*;
pub use exp_scale::*;
pub use exp_stream::*;
pub use exp_tuning::*;
pub use report::Table;

/// The GPU counts swept by the overall-performance figures (Figs. 9–12).
pub const FULL_GPU_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// A reduced sweep for quick runs (`repro --quick`).
pub const QUICK_GPU_SWEEP: &[usize] = &[1, 8, 32];
