//! Deterministic discrete-event simulation engine with a fluid-flow network.
//!
//! This crate is the bottom layer of the AIACC-Training reproduction. It
//! provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`FlowNet`] — a *fluid* network model: named [`Resource`]s (link ports)
//!   with a byte/second capacity, and [`Flow`]s that each load a path of
//!   resources. Rates are solved with **progressive-filling max-min fairness**
//!   plus an optional **per-flow rate cap**, which is how we reproduce the
//!   paper's observation that a single TCP stream utilizes at most ~30 % of a
//!   VPC link (AIACC-Training §III).
//! * [`Simulator`] — a combined event loop: user timers (opaque [`Token`]s)
//!   interleaved with flow completions, always popped in deterministic order.
//! * [`FaultPlan`] — deterministic, seeded fault injection: link capacity
//!   degradation and flaps executed by the simulator itself (surfaced as
//!   [`Event::Fault`]), plus node-scoped stragglers and crashes consumed by
//!   the training layers.
//! * [`trace`] — `aiacc-trace`: a zero-overhead-when-off structured tracing
//!   sink ([`TraceSink`]) owned by the simulator, with Chrome-trace/Perfetto
//!   JSON export and overlap/busy-time summaries.
//! * [`par`] — a deterministic fan-out runner: independent seeded
//!   simulations execute on N worker threads with results collected in
//!   submission order, so parallel sweeps are bit-identical to serial runs
//!   (`--jobs N`).
//! * [`rng`] — the workspace's one seeded generator, SplitMix64, behind
//!   every seeded draw from tuner searches to chaos fault plans.
//!
//! # Example
//!
//! ```
//! use aiacc_simnet::{FlowSpec, SimDuration, Simulator, Event};
//!
//! let mut sim = Simulator::new();
//! // A 10-byte/s link; two flows share it fairly.
//! let link = sim.net_mut().add_resource("link", 10.0);
//! sim.start_flow(FlowSpec::new(vec![link], 30.0));
//! sim.start_flow(FlowSpec::new(vec![link], 50.0));
//! let mut done = Vec::new();
//! while let Some((t, ev)) = sim.next_event() {
//!     if let Event::FlowCompleted(id) = ev {
//!         done.push((t.as_secs_f64(), id));
//!     }
//! }
//! // Both get 5 B/s until the first finishes at t=6s; the second then runs
//! // at 10 B/s and finishes its remaining 20 bytes at t=8s.
//! assert_eq!(done.len(), 2);
//! assert!((done[0].0 - 6.0).abs() < 1e-6);
//! assert!((done[1].0 - 8.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calq;
mod faults;
mod flow;
mod flownet;
pub mod par;
pub mod rng;
mod sim;
mod time;
pub mod trace;

pub use calq::CalendarQueue;
pub use faults::{FaultEvent, FaultKind, FaultPhase, FaultPlan, FaultRecord, FaultTarget};
pub use flow::{Flow, FlowId, FlowSpec};
pub use flownet::{FlowNet, Resource, ResourceId, SolveBreakdown, SolveMode, SolverStats};
pub use sim::{Event, RunOffsets, Simulator, Token, TOKEN_KIND_MASK, TOKEN_SCOPE_SHIFT};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TracePhase, TraceSink, TraceSummary};
