//! Flow identifiers and specifications for the fluid network model.

use crate::flownet::ResourceId;
use crate::time::SimDuration;
use std::fmt;

/// Identifier of a flow inside a [`crate::FlowNet`].
///
/// Flow ids are unique for the lifetime of a network (never reused). The id
/// packs a storage slot index and a per-slot generation counter; a slot
/// reused by a later flow gets a new generation, so a stale id held after
/// its flow completed never resolves to the replacement flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u64);

impl FlowId {
    /// The raw id value (useful as a map key in user code).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Specification of a data transfer over a path of network resources.
///
/// A flow moves `bytes` bytes. While active it loads *every* resource on its
/// `path` simultaneously (e.g. source NIC tx + destination NIC rx). Before any
/// data moves, the flow waits for `latency` (propagation + protocol setup),
/// during which it consumes no bandwidth.
///
/// `rate_cap` models the paper's key observation: a *single* communication
/// stream cannot exceed a fraction of the physical link bandwidth (≤30 % on
/// VPC TCP, 5–10 % on RDMA — AIACC-Training §III). Multiple concurrent flows
/// each get their own cap, so aggregate utilization grows with concurrency.
///
/// # Example
/// ```
/// use aiacc_simnet::{FlowSpec, SimDuration};
/// let spec = FlowSpec::new(vec![], 1024.0)
///     .with_rate_cap(1e9)
///     .with_latency(SimDuration::from_micros(25));
/// assert_eq!(spec.bytes, 1024.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Resources loaded while the flow is active.
    pub path: Vec<ResourceId>,
    /// Number of bytes to transfer. Must be non-negative and finite.
    pub bytes: f64,
    /// Optional maximum rate for this flow in bytes/second.
    pub rate_cap: Option<f64>,
    /// Startup latency before the first byte moves.
    pub latency: SimDuration,
    /// Telemetry tag (`0` = untagged). The multi-job scheduler stamps each
    /// flow with its owning job's scope so per-job delivered bytes can be
    /// audited on a shared fabric — see
    /// [`crate::FlowNet::delivered_bytes_by_tag`]. Tags never influence rate
    /// allocation or event ordering.
    pub tag: u32,
}

impl FlowSpec {
    /// Creates a flow moving `bytes` bytes over `path`, uncapped, zero latency.
    ///
    /// # Panics
    /// Panics if `bytes` is negative or not finite.
    pub fn new(path: Vec<ResourceId>, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid flow size: {bytes}");
        FlowSpec { path, bytes, rate_cap: None, latency: SimDuration::ZERO, tag: 0 }
    }

    /// Tags the flow for per-tag byte accounting (`0` = untagged).
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }

    /// Limits the flow to at most `cap` bytes/second.
    ///
    /// # Panics
    /// Panics if `cap` is not strictly positive and finite.
    pub fn with_rate_cap(mut self, cap: f64) -> Self {
        assert!(cap.is_finite() && cap > 0.0, "invalid rate cap: {cap}");
        self.rate_cap = Some(cap);
        self
    }

    /// Adds startup latency before data begins to move.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }
}

/// Runtime state of an active flow (read-only view exposed by
/// [`crate::FlowNet::flow`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// The immutable specification this flow was started with.
    pub spec: FlowSpec,
    /// Bytes still to transfer.
    pub remaining: f64,
    /// Current allocated rate in bytes/second (0 while in the latency phase).
    pub rate: f64,
    /// Whether the latency phase has elapsed and the flow is moving data.
    pub active: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let s =
            FlowSpec::new(vec![], 10.0).with_rate_cap(5.0).with_latency(SimDuration::from_nanos(7));
        assert_eq!(s.rate_cap, Some(5.0));
        assert_eq!(s.latency.as_nanos(), 7);
    }

    #[test]
    #[should_panic(expected = "invalid flow size")]
    fn negative_bytes_rejected() {
        let _ = FlowSpec::new(vec![], -1.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate cap")]
    fn zero_cap_rejected() {
        let _ = FlowSpec::new(vec![], 1.0).with_rate_cap(0.0);
    }
}
