//! Deterministic, seeded fault injection for the simulator.
//!
//! A [`FaultPlan`] is pure data: a list of [`FaultEvent`]s, each naming a
//! target (a network [`ResourceId`] or a logical node index), a kind, an
//! onset time, and an optional duration. Plans can be built explicitly with
//! the fluent constructors or generated pseudo-randomly from a seed with
//! [`FaultPlan::chaos`] — in both cases the plan is plain data, so the
//! same plan fed into the same simulation always reproduces the same
//! trajectory bit-for-bit.
//!
//! Link-level faults (degrade, flap) are executed by the simulator itself:
//! [`crate::Simulator::install_faults`] compiles the plan into a sorted
//! apply/restore schedule, and each action surfaces as an
//! [`crate::Event::Fault`] carrying a [`FaultRecord`]. A resource's
//! *effective* capacity is `baseline × Π(active fault factors)`; when the
//! last overlapping fault is restored the product is empty and the capacity
//! returns to **exactly** its baseline — restoration is not subject to
//! floating-point drift.
//!
//! Compute-level faults (straggler multipliers, node crashes) cannot be
//! interpreted by the network layer; higher layers query them through
//! [`FaultPlan::compute_factor`] and [`FaultPlan::crash_spans`], and map
//! node-targeted link faults onto concrete NIC resources with
//! [`FaultPlan::resolve_links`].
//!
//! # Example
//! ```
//! use aiacc_simnet::{Event, FaultPhase, FaultPlan, FlowSpec, SimDuration, SimTime, Simulator};
//!
//! let mut sim = Simulator::new();
//! let link = sim.net_mut().add_resource("nic", 10.0);
//! // Halve the link for one second starting at t=1s.
//! let plan = FaultPlan::new().degrade_link(
//!     link,
//!     0.5,
//!     SimTime::from_secs_f64(1.0),
//!     Some(SimDuration::from_secs_f64(1.0)),
//! );
//! sim.install_faults(&plan);
//! sim.start_flow(FlowSpec::new(vec![link], 25.0));
//! let mut finished_at = 0.0;
//! while let Some((t, ev)) = sim.next_event() {
//!     match ev {
//!         Event::Fault(rec) if rec.phase == FaultPhase::Applied => {
//!             assert_eq!(rec.capacity_after, 5.0);
//!         }
//!         Event::FlowCompleted(_) => finished_at = t.as_secs_f64(),
//!         _ => {}
//!     }
//! }
//! // 10 B in the first second, 5 B in the degraded second, 10 B after.
//! assert!((finished_at - 3.0).abs() < 1e-6);
//! ```

use crate::flownet::{FlowNet, ResourceId};
use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What a fault does to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Scale the target link's capacity by `factor` (0 < factor < 1) for the
    /// event's duration.
    Degrade {
        /// Capacity multiplier while the fault is active.
        factor: f64,
    },
    /// Take the link fully down (capacity 0) for the event's duration, then
    /// restore it.
    Flap,
    /// Multiply the target node's compute time by `factor` (> 1) for the
    /// event's duration. Interpreted by the training layer, not the network.
    Straggler {
        /// Compute-time multiplier while the fault is active.
        factor: f64,
    },
    /// The target node crashes at the event's onset. Interpreted by the
    /// training layer (checkpoint restart). A `Some(duration)` means the
    /// node is *repaired* — its capacity returns to the pool — at
    /// `at + duration`; `None` means the node never comes back.
    Crash,
}

/// What a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A concrete network resource (link port).
    Resource(ResourceId),
    /// A logical node index; resolved to NIC resources by higher layers via
    /// [`FaultPlan::resolve_links`] (for link faults) or consumed directly
    /// (stragglers, crashes).
    Node(u32),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The fault's target.
    pub target: FaultTarget,
    /// What happens to the target.
    pub kind: FaultKind,
    /// Onset time.
    pub at: SimTime,
    /// How long the fault lasts; `None` means it persists to the end of the
    /// simulation.
    pub duration: Option<SimDuration>,
}

impl FaultEvent {
    /// The instant the fault is lifted, if it has a finite duration.
    pub fn ends_at(&self) -> Option<SimTime> {
        self.duration.map(|d| self.at + d)
    }

    /// Whether the fault is active at time `t` (onset inclusive, end
    /// exclusive; unbounded faults never end).
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && self.ends_at().is_none_or(|e| t < e)
    }
}

/// A declarative, reproducible schedule of faults.
///
/// Plans are inert data: building one has no effect until it is handed to
/// [`crate::Simulator::install_faults`] (link faults) or queried by the
/// training layer (compute faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an arbitrary event.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.validate(&event);
        self.events.push(event);
        self
    }

    /// Scales a link's capacity by `factor` starting at `at`.
    pub fn degrade_link(
        self,
        resource: ResourceId,
        factor: f64,
        at: SimTime,
        duration: Option<SimDuration>,
    ) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Resource(resource),
            kind: FaultKind::Degrade { factor },
            at,
            duration,
        })
    }

    /// Takes a link down entirely for `duration` starting at `at`.
    pub fn flap_link(self, resource: ResourceId, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Resource(resource),
            kind: FaultKind::Flap,
            at,
            duration: Some(duration),
        })
    }

    /// Degrades every NIC resource of logical node `node` by `factor`.
    pub fn degrade_node(
        self,
        node: u32,
        factor: f64,
        at: SimTime,
        duration: Option<SimDuration>,
    ) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Node(node),
            kind: FaultKind::Degrade { factor },
            at,
            duration,
        })
    }

    /// Multiplies node `node`'s compute time by `factor` over a window.
    pub fn straggle_node(
        self,
        node: u32,
        factor: f64,
        at: SimTime,
        duration: Option<SimDuration>,
    ) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Node(node),
            kind: FaultKind::Straggler { factor },
            at,
            duration,
        })
    }

    /// Crashes node `node` at `at`; the node never comes back.
    pub fn crash_node(self, node: u32, at: SimTime) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Node(node),
            kind: FaultKind::Crash,
            at,
            duration: None,
        })
    }

    /// Crashes node `node` at `at` and repairs it `repair_after` later,
    /// returning its capacity to whoever tracks node liveness.
    pub fn crash_node_for(self, node: u32, at: SimTime, repair_after: SimDuration) -> Self {
        self.with_event(FaultEvent {
            target: FaultTarget::Node(node),
            kind: FaultKind::Crash,
            at,
            duration: Some(repair_after),
        })
    }

    fn validate(&self, event: &FaultEvent) {
        match event.kind {
            FaultKind::Degrade { factor } => assert!(
                factor.is_finite() && (0.0..=1.0).contains(&factor),
                "degrade factor must be in [0, 1]: {factor}"
            ),
            FaultKind::Straggler { factor } => assert!(
                factor.is_finite() && factor >= 1.0,
                "straggler factor must be >= 1: {factor}"
            ),
            FaultKind::Flap => assert!(
                event.duration.is_some(),
                "a link flap needs a duration (an unbounded flap is a crash)"
            ),
            FaultKind::Crash => {}
        }
    }

    /// A seeded, fully node-targeted chaos plan for cluster scenarios that
    /// have no resource ids yet (the scheduler resolves node-targeted link
    /// faults to each node's NICs via [`FaultPlan::resolve_links`]).
    ///
    /// The plan always contains at least one straggler window and one
    /// crash-with-repair (so every chaos run exercises both recovery paths),
    /// plus `count` extra mixed events: 30 % node faults (straggler or
    /// crash with a repair time) and 70 % NIC-level degrades/flaps. The
    /// same `(seed, nodes, horizon, count)` always yields the identical
    /// plan.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn chaos(seed: u64, nodes: usize, horizon: SimDuration, count: usize) -> Self {
        assert!(nodes > 0, "chaos plan needs at least one node");
        let mut rng = SplitMix64(seed ^ 0xA1AC_C0DE_C4A0_5001);
        let horizon_ns = horizon.as_nanos() as f64;
        let pick = |rng: &mut SplitMix64| rng.below(nodes) as u32;
        // Guaranteed straggler window in the first half of the horizon.
        let s_node = pick(&mut rng);
        let s_factor = 1.5 + 1.5 * rng.next_f64();
        let s_at = SimTime::from_nanos(((0.1 + 0.2 * rng.next_f64()) * horizon_ns) as u64);
        let s_dur = SimDuration::from_nanos((0.25 * horizon_ns) as u64);
        // Guaranteed crash, repaired after a fifth of the horizon.
        let c_node = pick(&mut rng);
        let c_at = SimTime::from_nanos(((0.3 + 0.2 * rng.next_f64()) * horizon_ns) as u64);
        let c_repair = SimDuration::from_nanos((0.2 * horizon_ns) as u64);
        let mut plan = FaultPlan::new()
            .straggle_node(s_node, s_factor, s_at, Some(s_dur))
            .crash_node_for(c_node, c_at, c_repair);
        for _ in 0..count {
            let node = pick(&mut rng);
            let at = SimTime::from_nanos((rng.next_f64() * 0.8 * horizon_ns) as u64);
            let dur = SimDuration::from_nanos(((0.05 + 0.15 * rng.next_f64()) * horizon_ns) as u64);
            let draw = rng.next_f64();
            plan = if draw < 0.18 {
                let factor = 1.5 + 1.5 * rng.next_f64();
                plan.straggle_node(node, factor, at, Some(dur))
            } else if draw < 0.30 {
                plan.crash_node_for(node, at, dur + dur)
            } else if draw < 0.79 {
                let factor = 0.2 + 0.7 * rng.next_f64();
                plan.degrade_node(node, factor, at, Some(dur))
            } else {
                plan.with_event(FaultEvent {
                    target: FaultTarget::Node(node),
                    kind: FaultKind::Flap,
                    at,
                    duration: Some(dur),
                })
            };
        }
        plan
    }

    /// Rewrites node-targeted *link* faults (degrade/flap) into per-resource
    /// faults using `nics` to map a node index to its NIC resources.
    /// Stragglers and crashes are kept verbatim: they stay node-scoped.
    pub fn resolve_links(&self, mut nics: impl FnMut(u32) -> Vec<ResourceId>) -> FaultPlan {
        let mut out = FaultPlan::new();
        for ev in &self.events {
            match (ev.target, ev.kind) {
                (FaultTarget::Node(n), FaultKind::Degrade { .. } | FaultKind::Flap) => {
                    for r in nics(n) {
                        out.events.push(FaultEvent { target: FaultTarget::Resource(r), ..*ev });
                    }
                }
                _ => out.events.push(*ev),
            }
        }
        out
    }

    /// The combined compute-time multiplier for `node` at time `t`: the
    /// product of every straggler fault active then (1.0 when none are).
    pub fn compute_factor(&self, node: u32, t: SimTime) -> f64 {
        self.events
            .iter()
            .filter_map(|ev| match (ev.target, ev.kind) {
                (FaultTarget::Node(n), FaultKind::Straggler { factor })
                    if n == node && ev.active_at(t) =>
                {
                    Some(factor)
                }
                _ => None,
            })
            .product()
    }

    /// Every scheduled crash as `(node, crash time, repair time)`, sorted by
    /// `(crash time, node)`. A `None` repair time means the node never comes
    /// back (see [`FaultKind::Crash`]).
    pub fn crash_spans(&self) -> Vec<(u32, SimTime, Option<SimTime>)> {
        let mut out: Vec<(u32, SimTime, Option<SimTime>)> = self
            .events
            .iter()
            .filter_map(|ev| match (ev.target, ev.kind) {
                (FaultTarget::Node(n), FaultKind::Crash) => Some((n, ev.at, ev.ends_at())),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(n, t, _)| (t, n));
        out
    }

    /// Link faults (degrade/flap) already bound to concrete resources.
    /// Node-targeted link faults are *not* included — call
    /// [`FaultPlan::resolve_links`] first if the plan has any.
    pub fn resolved_link_faults(&self) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter(|ev| {
                matches!(ev.target, FaultTarget::Resource(_))
                    && matches!(ev.kind, FaultKind::Degrade { .. } | FaultKind::Flap)
            })
            .copied()
            .collect()
    }
}

/// Whether a [`FaultRecord`] marks a fault taking effect or being lifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// The fault just took effect.
    Applied,
    /// The fault was just lifted.
    Restored,
}

/// A capacity change executed by the fault injector, surfaced as
/// [`crate::Event::Fault`] and appended to [`crate::Simulator::fault_log`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// The resource whose capacity changed.
    pub resource: ResourceId,
    /// Whether the fault was applied or lifted.
    pub phase: FaultPhase,
    /// Effective capacity immediately before this action.
    pub capacity_before: f64,
    /// Effective capacity immediately after this action.
    pub capacity_after: f64,
}

/// One half (apply or restore) of a scheduled link fault.
#[derive(Debug, Clone, Copy)]
struct Action {
    at: SimTime,
    resource: ResourceId,
    phase: FaultPhase,
    /// Capacity multiplier of the owning fault (0.0 for a flap).
    factor: f64,
    /// Index of the owning fault, pairing applies with restores.
    fault: usize,
}

/// Per-resource bookkeeping: the pre-fault capacity and the set of faults
/// currently acting on it.
#[derive(Debug, Clone, Default)]
struct ResourceFaultState {
    baseline: Option<f64>,
    active: Vec<(usize, f64)>,
}

/// Compiled link-fault schedule; owned by [`crate::Simulator`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultInjector {
    actions: Vec<Action>,
    next: usize,
    states: BTreeMap<u32, ResourceFaultState>,
}

impl FaultInjector {
    /// Compiles the resource-targeted link faults of `plan` into a
    /// time-sorted action schedule.
    pub(crate) fn compile(plan: &FaultPlan) -> Self {
        let mut actions = Vec::new();
        for (idx, ev) in plan.resolved_link_faults().into_iter().enumerate() {
            let FaultTarget::Resource(resource) = ev.target else {
                unreachable!("resolved_link_faults returns resource targets only");
            };
            let factor = match ev.kind {
                FaultKind::Degrade { factor } => factor,
                FaultKind::Flap => 0.0,
                _ => unreachable!("resolved_link_faults returns link faults only"),
            };
            actions.push(Action {
                at: ev.at,
                resource,
                phase: FaultPhase::Applied,
                factor,
                fault: idx,
            });
            if let Some(end) = ev.ends_at() {
                actions.push(Action {
                    at: end,
                    resource,
                    phase: FaultPhase::Restored,
                    factor,
                    fault: idx,
                });
            }
        }
        // Stable: simultaneous actions keep plan order, restores of an
        // earlier fault land before applies of a later one scheduled at the
        // same instant iff they were inserted first.
        actions.sort_by_key(|a| a.at);
        FaultInjector { actions, next: 0, states: BTreeMap::new() }
    }

    /// The instant of the next pending action.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.actions.get(self.next).map(|a| a.at)
    }

    /// Executes the next pending action against `net`. The caller must have
    /// advanced the network to [`FaultInjector::next_at`] already.
    pub(crate) fn apply_next(&mut self, net: &mut FlowNet) -> FaultRecord {
        let action = self.actions[self.next];
        self.next += 1;
        let state = self.states.entry(action.resource.as_u32()).or_default();
        let baseline =
            *state.baseline.get_or_insert_with(|| net.resource(action.resource).capacity);
        let before = net.resource(action.resource).capacity;
        match action.phase {
            FaultPhase::Applied => state.active.push((action.fault, action.factor)),
            FaultPhase::Restored => state.active.retain(|&(f, _)| f != action.fault),
        }
        // Empty product ⇒ exactly the baseline: restoration is drift-free.
        let after = if state.active.is_empty() {
            baseline
        } else {
            baseline * state.active.iter().map(|&(_, f)| f).product::<f64>()
        };
        net.set_capacity(action.resource, after);
        FaultRecord {
            resource: action.resource,
            phase: action.phase,
            capacity_before: before,
            capacity_after: after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_spans_report_repair_instants() {
        let plan = FaultPlan::new().crash_node(2, SimTime::from_nanos(50)).crash_node_for(
            1,
            SimTime::from_nanos(10),
            SimDuration::from_nanos(30),
        );
        assert_eq!(
            plan.crash_spans(),
            vec![
                (1, SimTime::from_nanos(10), Some(SimTime::from_nanos(40))),
                (2, SimTime::from_nanos(50), None),
            ]
        );
    }

    #[test]
    fn chaos_plan_is_deterministic_and_always_has_crash_and_straggler() {
        let h = SimDuration::from_secs_f64(40.0);
        let a = FaultPlan::chaos(7, 4, h, 6);
        let b = FaultPlan::chaos(7, 4, h, 6);
        assert_eq!(a.events(), b.events(), "same inputs must yield the same plan");
        assert_ne!(a.events(), FaultPlan::chaos(8, 4, h, 6).events());
        for plan in [FaultPlan::chaos(7, 4, h, 0), a] {
            let spans = plan.crash_spans();
            assert!(!spans.is_empty(), "chaos plan must contain a crash");
            assert!(spans.iter().any(|&(_, _, repair)| repair.is_some()), "and a repaired one");
            assert!(
                plan.events().iter().any(|ev| matches!(ev.kind, FaultKind::Straggler { .. })),
                "chaos plan must contain a straggler window"
            );
            // Every target is a node: the plan needs no resource ids.
            assert!(plan.events().iter().all(|ev| matches!(ev.target, FaultTarget::Node(_))));
        }
    }

    #[test]
    fn compute_factor_multiplies_overlapping_stragglers() {
        let plan = FaultPlan::new()
            .straggle_node(1, 2.0, SimTime::from_nanos(100), Some(SimDuration::from_nanos(100)))
            .straggle_node(1, 1.5, SimTime::from_nanos(150), None)
            .straggle_node(2, 3.0, SimTime::from_nanos(0), None);
        assert_eq!(plan.compute_factor(1, SimTime::from_nanos(0)), 1.0);
        assert_eq!(plan.compute_factor(1, SimTime::from_nanos(120)), 2.0);
        assert_eq!(plan.compute_factor(1, SimTime::from_nanos(160)), 3.0);
        // Window end is exclusive.
        assert_eq!(plan.compute_factor(1, SimTime::from_nanos(200)), 1.5);
        assert_eq!(plan.compute_factor(2, SimTime::from_nanos(500)), 3.0);
    }

    #[test]
    fn resolve_links_expands_node_link_faults_only() {
        let plan = FaultPlan::new()
            .degrade_node(0, 0.5, SimTime::from_nanos(10), None)
            .straggle_node(0, 2.0, SimTime::from_nanos(10), None)
            .crash_node(1, SimTime::from_nanos(20));
        let resolved =
            plan.resolve_links(|_| vec![ResourceId::from_index(3), ResourceId::from_index(4)]);
        assert_eq!(resolved.events().len(), 4);
        assert_eq!(resolved.resolved_link_faults().len(), 2);
        assert_eq!(resolved.crash_spans(), vec![(1, SimTime::from_nanos(20), None)]);
        assert_eq!(resolved.compute_factor(0, SimTime::from_nanos(10)), 2.0);
    }

    #[test]
    fn injector_restores_exact_baseline_after_overlap() {
        let mut net = FlowNet::new();
        let r = net.add_resource("nic", 3.75e9);
        let plan = FaultPlan::new()
            .degrade_link(r, 0.3, SimTime::from_nanos(10), Some(SimDuration::from_nanos(100)))
            .degrade_link(r, 0.7, SimTime::from_nanos(50), Some(SimDuration::from_nanos(100)));
        let mut inj = FaultInjector::compile(&plan);
        let mut last = None;
        while let Some(at) = inj.next_at() {
            net.advance_to(at);
            last = Some(inj.apply_next(&mut net));
        }
        let last = last.unwrap();
        assert_eq!(last.phase, FaultPhase::Restored);
        // Exact equality: the empty-product path hands back the baseline.
        assert_eq!(last.capacity_after, 3.75e9);
        assert_eq!(net.resource(r).capacity, 3.75e9);
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn rejects_out_of_range_degrade() {
        let _ = FaultPlan::new().degrade_link(
            ResourceId::from_index(0),
            1.5,
            SimTime::from_nanos(0),
            None,
        );
    }
}
