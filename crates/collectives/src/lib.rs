//! Collective communication for the AIACC-Training reproduction.
//!
//! Two complementary planes:
//!
//! * [`dataplane`] — the ring all-reduce (Fig. 1 of the paper) executed
//!   **exactly** on real `f32` buffers, each element folded in the ring's
//!   own order. This is what the correctness tests and the real
//!   data-parallel MLP trainer use: the sums are bit-identical across
//!   workers.
//! * [`timing`] — the ring and hierarchical (tree) all-reduce as flow
//!   schedules on the fluid network simulator, carrying the exact byte
//!   counts (`2(W−1)/W · B` per link for a ring) so throughput experiments
//!   see realistic contention, including the per-flow cap that motivates
//!   multi-streamed communication (§III, §V-B).
//!
//! # Example
//!
//! ```
//! use aiacc_collectives::dataplane::{ring_allreduce, ReduceOp};
//! let mut bufs = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
//! ring_allreduce(&mut bufs, ReduceOp::Sum);
//! for b in &bufs {
//!     assert_eq!(b, &vec![111.0, 222.0]);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataplane;
pub mod timing;

pub use dataplane::ReduceOp;
pub use timing::{Algo, CollectiveEngine, CollectiveSpec, OpId};
