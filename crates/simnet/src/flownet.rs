//! Fluid-flow network: resources with capacities and flows that share them
//! under progressive-filling max-min fairness with per-flow rate caps.
//!
//! # Partitioned solving
//!
//! Resources belong to *groups* (e.g. one group per rack — see
//! [`FlowNet::add_resource_in_group`]). Groups linked by a live multi-group
//! flow form a *component*; max-min fairness is always solved per component
//! (the allocation on one component is independent of every other by
//! construction). Dirty-tracking is per component: in
//! [`SolveMode::Partitioned`] only components whose flow set, capacities or
//! shares changed are re-solved, while [`SolveMode::Full`] re-solves every
//! component whenever anything changed. Because each component solve is a
//! pure function of that component's flows and capacities, the two modes
//! produce bit-identical rates, byte counters and event orderings — `Full`
//! exists only as that oracle, set through [`FlowNet::set_solve_mode`] by
//! tests and by `repro fig_scale`'s equivalence and sync cells.
//!
//! # Event index
//!
//! `next_change`/`advance_to` do not scan flows. Every activation and every
//! predicted completion is an entry in a [`CalendarQueue`]; entries are
//! invalidated lazily (a rate change bumps the flow's prediction counter, a
//! vacated slot bumps its generation) and discarded when popped, so the next
//! event is found in amortized O(1) regardless of how many flows are live.
//!
//! A solve that re-rates several flows does not push one entry per flow.
//! It reserves the insertion stamps those pushes would have taken, keeps
//! its predictions as one *run* sorted by `(time, stamp)`, and queues only
//! the run's head; popping the head queues the run's next valid element
//! under its own stamp. Every element sorts after the head, so the queue's
//! `(time, stamp)` minimum is the one an eager queue would pop, and the pop
//! order is unchanged.

use crate::calq::CalendarQueue;
use crate::flow::{Flow, FlowId, FlowSpec};
use crate::time::SimTime;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a [`Resource`] (a link port, NIC direction, bus, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(u32);

impl ResourceId {
    /// The raw index value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Test-only constructor; ids are normally minted by
    /// [`FlowNet::add_resource`].
    #[cfg(test)]
    pub(crate) const fn from_index(i: u32) -> Self {
        ResourceId(i)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// A capacity-limited network resource (e.g. one direction of a NIC).
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Capacity in bytes/second. Strictly positive at creation; fault
    /// injection may scale it down to zero (link down) at runtime via
    /// [`FlowNet::set_capacity`].
    pub capacity: f64,
    /// Optional per-flow share: any single flow crossing this resource is
    /// individually limited to `share × capacity` bytes/second. Unlike a
    /// [`FlowSpec::rate_cap`] (absolute), this limit tracks the *current*
    /// capacity, so a degraded NIC also degrades each stream's ceiling —
    /// the paper's single-stream cap (§III) expressed as a property of the
    /// link rather than the flow.
    pub flow_share: Option<f64>,
}

/// How the max-min solver reacts to a dirty network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SolveMode {
    /// Re-solve every component whenever anything changed. This is the flat
    /// baseline: asymptotically the old global solve, kept as the
    /// bit-identity oracle for [`SolveMode::Partitioned`].
    Full,
    /// Re-solve only components marked dirty since the last solve (default).
    #[default]
    Partitioned,
}

/// Cumulative solver work counters (see [`FlowNet::solver_stats`]).
///
/// `comps_solved / comps_existing` measures how much work partitioned
/// dirty-tracking avoids: `1.0` in [`SolveMode::Full`], well below that on a
/// racked topology where most events stay inside one rack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of times a dirty network was re-solved.
    pub recomputes: u64,
    /// Components actually solved, summed over all recomputes.
    pub comps_solved: u64,
    /// Components in existence, summed over all recomputes.
    pub comps_existing: u64,
    /// Participant flows across all solved components (solve cost scales
    /// with this; `parts_solved / comps_solved` is the mean solve size).
    pub parts_solved: u64,
    /// Progressive-filling rounds across all solved components.
    pub fill_rounds: u64,
    /// Largest single component (in participant flows) ever solved.
    pub comp_parts_max: u64,
    /// Always `0`: the solver runs on one thread. Kept because the
    /// benchmark still reports it as `simnet.par_solves`.
    pub par_solves: u64,
    /// Entries pushed onto the event queue: activations, plain completion
    /// predictions, and the queued element of each prediction run.
    pub queue_pushes: u64,
    /// Predictions (and activations) dropped without being delivered:
    /// popped stale, skipped inside a run, or removed by compaction.
    pub queue_discards: u64,
}

impl SolverStats {
    /// Mean participant flows per solved component.
    pub fn mean_comp_parts(&self) -> f64 {
        if self.comps_solved == 0 {
            return 0.0;
        }
        self.parts_solved as f64 / self.comps_solved as f64
    }
}

impl std::fmt::Display for SolverStats {
    /// One diagnostic line, the shape the CLIs print to stderr.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} recomputes | {}/{} comps solved | {} parts, {} fill rounds | largest comp {} \
             | {} queue pushes, {} discarded",
            self.recomputes,
            self.comps_solved,
            self.comps_existing,
            self.parts_solved,
            self.fill_rounds,
            self.comp_parts_max,
            self.queue_pushes,
            self.queue_discards,
        )
    }
}

/// Cumulative wall-clock spent in the solver's phases (see
/// [`FlowNet::solve_breakdown`]). Pure observability: wall time never feeds
/// back into simulation state, so instrumented runs stay bit-identical —
/// but the values themselves are machine-dependent and must stay out of any
/// byte-compared report field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveBreakdown {
    /// Seconds computing max-min rates + completion predictions (the
    /// per-component, read-only phase).
    pub solve_s: f64,
    /// Seconds committing results: settling bytes, re-stamping rates, and
    /// building each solve's prediction run and queueing its head
    /// (canonical component order).
    pub apply_s: f64,
    /// Seconds draining due events and compacting the event queue.
    pub queue_s: f64,
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    /// Bytes left at `anchor` (settled lazily; see [`live_remaining`]).
    remaining: f64,
    rate: f64,
    active: bool,
    /// Start-order sequence number: completions are delivered in this order
    /// (slab slots are reused, so slot index order is not start order).
    seq: u64,
    /// Instant up to which `remaining` and the byte counters are settled.
    anchor: SimTime,
    /// Prediction counter: bumped whenever the rate changes, invalidating
    /// any completion entry in the event queue stamped with an older value.
    pred: u32,
}

/// One slab slot: a generation counter plus the (optional) resident flow.
///
/// The generation increments every time a flow leaves the slot, so a stale
/// [`FlowId`] — which packs `(generation, slot)` — can never resolve to a
/// later flow that happens to reuse the same slot.
#[derive(Debug, Clone, Default)]
struct Slot {
    gen: u32,
    state: Option<FlowState>,
}

/// Sentinel in [`NetEvent::pred`] marking a latency-elapsed activation
/// entry rather than a completion prediction.
const ACTIVATION: u32 = u32::MAX;

/// An activation or a completion prediction. Validity is re-checked lazily
/// when it surfaces: the slot generation must still match, and completion
/// entries additionally require the flow's current prediction counter.
/// Both only ever grow, so a stale prediction never becomes valid again.
#[derive(Debug, Clone, Copy)]
struct NetEvent {
    slot: u32,
    gen: u32,
    pred: u32,
}

/// An entry in the indexed event queue: one event, or the queued element of
/// a prediction run (an index into [`FlowNet`]'s run slab).
#[derive(Debug, Clone, Copy)]
enum QueueEntry {
    One(NetEvent),
    Run(u32),
}

/// One prediction of a run: its instant, its stamp as an offset from the
/// run's first reserved stamp, and the event.
#[derive(Debug, Clone, Copy)]
struct RunElem {
    at: u64,
    off: u32,
    ev: NetEvent,
}

/// The completion predictions of one solve, sorted by `(at, stamp)`.
/// Element `next` is queued under stamp `first + off`; the elements before
/// it have popped or been skipped. A free slab slot has no elements and
/// keeps its storage for the next solve.
#[derive(Debug, Clone, Default)]
struct PredRun {
    first: u64,
    elems: Vec<RunElem>,
    next: usize,
}

impl PredRun {
    /// Elements after the queued one: not in the event queue yet.
    fn unqueued(&self) -> usize {
        self.elems.len().saturating_sub(self.next + 1)
    }
}

/// Whether a queue entry still refers to live, current state.
fn event_valid(slots: &[Slot], ev: &NetEvent) -> bool {
    let Some(s) = slots.get(ev.slot as usize) else { return false };
    if s.gen != ev.gen {
        return false;
    }
    let Some(st) = &s.state else { return false };
    if ev.pred == ACTIVATION {
        !st.active
    } else {
        st.active && st.pred == ev.pred
    }
}

/// Bytes left on `st` at `now`, mirroring the settle arithmetic exactly
/// (so "would this settle change anything" can be answered without
/// mutating).
fn live_remaining(st: &FlowState, now: SimTime) -> f64 {
    if !st.active {
        return st.remaining;
    }
    let dt = (now - st.anchor).as_secs_f64();
    if dt > 0.0 {
        if st.rate.is_infinite() {
            0.0
        } else if st.rate > 0.0 {
            st.remaining - (st.rate * dt).min(st.remaining)
        } else {
            st.remaining
        }
    } else {
        st.remaining
    }
}

/// Bytes `st` has moved since its anchor (the unsettled complement of
/// [`live_remaining`]).
fn in_flight(st: &FlowState, now: SimTime) -> f64 {
    if !st.active {
        return 0.0;
    }
    let dt = (now - st.anchor).as_secs_f64();
    if dt > 0.0 {
        if st.rate.is_infinite() {
            st.remaining
        } else if st.rate > 0.0 {
            (st.rate * dt).min(st.remaining)
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// Union-find over resource groups; roots are always the minimum group id
/// of their class, so `find` doubles as the deterministic component
/// representative.
fn uf_find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        let p = uf[x as usize];
        uf[x as usize] = uf[p as usize]; // path halving
        x = uf[x as usize];
    }
    x
}

fn uf_union(uf: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(uf, a);
    let rb = uf_find(uf, b);
    if ra != rb {
        // Larger root points at smaller: the class minimum stays the root.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        uf[hi as usize] = lo;
    }
}

/// Reusable scratch for the per-component solver: it runs on every flow
/// start/finish/capacity change (the hot inner loop of every sweep), so its
/// working set is hoisted here instead of being reallocated per call. All
/// buffers are cleared or epoch-guarded before use; none carries state
/// between solves.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Participant slots of the component being solved, in group-ascending
    /// then slot-ascending order (the deterministic iteration order).
    parts: Vec<u32>,
    /// Active flows whose bytes ran out but that have not been collected.
    zombies: Vec<u32>,
    /// Solved rate per participant (parallel to `parts`).
    rates: Vec<f64>,
    /// Effective per-flow rate ceiling per participant
    /// (`f64::INFINITY` = uncapped).
    eff_caps: Vec<f64>,
    /// Local resource index → global resource id for this solve.
    res_ids: Vec<u32>,
    /// Global resource id → local index, valid iff the epoch matches.
    res_local: Vec<u32>,
    res_epoch: Vec<u64>,
    epoch: u64,
    /// Remaining capacity per local resource during progressive filling.
    residual: Vec<f64>,
    /// Unfrozen-flow count per local resource.
    counts: Vec<u32>,
    /// Participant indices of flows still growing.
    unfrozen: Vec<u32>,
    /// Next round's unfrozen set (swapped with `unfrozen`).
    still: Vec<u32>,
    /// `(resource, cap, participant)` triples for the single-resource fast
    /// path.
    single: Vec<(u32, f64, u32)>,
    /// Per-participant completion prediction (parallel to `parts`), encoded
    /// as nanoseconds; [`PRED_UNCHANGED`] marks a participant whose rate did
    /// not change bitwise (nothing to commit), [`PRED_STARVED`] a changed
    /// participant with no completion entry (rate 0, bytes left).
    pred_at: Vec<u64>,
    /// Participants solved through this scratch (folded into
    /// [`SolverStats::parts_solved`] by the owner).
    stat_parts: u64,
    /// Fill rounds run through this scratch (folded into
    /// [`SolverStats::fill_rounds`]).
    stat_rounds: u64,
    /// Largest component (participants) solved through this scratch since
    /// the owner last folded stats.
    stat_comp_max: u64,
}

/// [`Scratch::pred_at`] sentinel: participant's rate is bitwise unchanged.
const PRED_UNCHANGED: u64 = u64::MAX;
/// [`Scratch::pred_at`] sentinel: rate changed to 0 with bytes left — no
/// completion entry until the flow set or a capacity changes.
const PRED_STARVED: u64 = u64::MAX - 1;

/// Minimum leftover bytes treated as "transfer complete" (guards float drift).
const EPS_BYTES: f64 = 1e-3;

/// Packs a slab slot index and its generation into a raw flow id.
const fn pack_id(slot: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

/// Splits a raw flow id into `(slot, generation)`.
const fn unpack_id(id: u64) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The fluid network model.
///
/// Flows are started with [`FlowNet::start_flow`]; the driver alternates
/// [`FlowNet::next_change`] / [`FlowNet::advance_to`] /
/// [`FlowNet::take_completed`]. [`crate::Simulator`] wraps this loop together
/// with user timers; most code should use that instead of driving `FlowNet`
/// directly.
///
/// # Rate allocation
///
/// Rates are recomputed lazily whenever the set of active flows changes, using
/// progressive filling per component: all unfrozen flows grow at the same rate
/// until either a resource saturates (its flows freeze) or a flow hits its own
/// [`FlowSpec::rate_cap`] (it freezes). This yields the classical max-min fair
/// allocation extended with per-flow caps. See the module docs for the
/// component partitioning and the indexed event core.
///
/// # Example
/// ```
/// use aiacc_simnet::{FlowNet, FlowSpec, SimTime};
/// let mut net = FlowNet::new();
/// let r = net.add_resource("nic", 100.0);
/// // One flow capped at 30 B/s on a 100 B/s link: 30 % utilization.
/// net.start_flow(FlowSpec::new(vec![r], 300.0).with_rate_cap(30.0));
/// let t = net.next_change().unwrap();
/// assert!((t.as_secs_f64() - 10.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNet {
    resources: Vec<Resource>,
    /// Group id per resource (parallel to `resources`).
    res_group: Vec<u32>,
    /// Generation-indexed flow slab: O(1) id → state, no per-flow
    /// allocation churn, deterministic (LIFO) slot reuse.
    slots: Vec<Slot>,
    /// Vacant slot indices, most recently freed last.
    free: Vec<u32>,
    /// Number of occupied slots.
    live: usize,
    /// Number of flows past their latency phase (data moving or finished
    /// but uncollected).
    nactive: usize,
    now: SimTime,
    /// Start-order counter stamped onto each flow (drives completion order).
    next_seq: u64,
    mode: SolveMode,
    /// Union-find scratch over groups, rebuilt from `cross`.
    uf: Vec<u32>,
    /// Component representative (minimum group id) per group.
    comp_of_group: Vec<u32>,
    /// Number of distinct components.
    ncomps: usize,
    /// Dirty flag per component representative.
    dirty: Vec<bool>,
    /// Representatives currently flagged dirty (dup-free via `dirty`).
    dirty_list: Vec<u32>,
    any_dirty: bool,
    /// Live path-flow slots per home group (group of the first path hop),
    /// kept sorted by slot index.
    group_flows: Vec<Vec<u32>>,
    /// Slots of live flows whose path spans more than one group.
    cross: BTreeSet<u32>,
    /// Live cross-flow hop count per unordered group pair `(lo, hi)`. A
    /// pair appearing (0 → 1) merges two components incrementally; a pair
    /// vanishing (1 → 0) may split one, which only a rebuild can detect —
    /// so it just sets `topo_stale`. Lookup-only (never iterated), so the
    /// hash order cannot leak into behaviour.
    edge_count: std::collections::HashMap<(u32, u32), u32>,
    /// A cross-group flow departed and took the last reference to one of
    /// its group edges: the component mapping is (at worst) over-merged
    /// until [`Self::rebuild_topology`] runs at the next solve.
    topo_stale: bool,
    /// Indexed activation/completion entries (see module docs).
    events: CalendarQueue<QueueEntry>,
    /// Prediction runs, indexed by [`QueueEntry::Run`]. Exactly one queue
    /// entry refers to each live run; free slots are listed in `free_runs`.
    runs: Vec<PredRun>,
    free_runs: Vec<u32>,
    /// Run elements not in the event queue yet, over all live runs.
    run_backlog: usize,
    /// Completion entries that fired during the last advance: `(slot, gen)`
    /// pairs awaiting [`FlowNet::take_completed`].
    ripe: Vec<(u32, u32)>,
    /// Cumulative settled bytes carried per resource (telemetry); the public
    /// getter adds each live flow's unsettled in-flight bytes on top.
    carried: Vec<f64>,
    /// Cumulative settled bytes delivered per flow tag (index = tag).
    delivered_by_tag: Vec<f64>,
    /// Cumulative bytes offered per flow tag (stamped at flow start).
    launched_by_tag: Vec<f64>,
    stats: SolverStats,
    /// Cumulative wall-clock per solver phase (observability only).
    breakdown: SolveBreakdown,
    /// Persistent solver working set (see [`Scratch`]).
    scratch: Scratch,
    /// Reusable buffer for a flow's path groups during link/unlink.
    tmp_groups: Vec<u32>,
}

impl Default for FlowNet {
    fn default() -> Self {
        FlowNet {
            resources: Vec::new(),
            res_group: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            nactive: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            mode: SolveMode::Partitioned,
            uf: Vec::new(),
            comp_of_group: Vec::new(),
            ncomps: 0,
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            any_dirty: false,
            group_flows: Vec::new(),
            cross: BTreeSet::new(),
            edge_count: std::collections::HashMap::new(),
            topo_stale: false,
            events: CalendarQueue::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            run_backlog: 0,
            ripe: Vec::new(),
            carried: Vec::new(),
            delivered_by_tag: Vec::new(),
            launched_by_tag: Vec::new(),
            stats: SolverStats::default(),
            breakdown: SolveBreakdown::default(),
            scratch: Scratch::default(),
            tmp_groups: Vec::new(),
        }
    }
}

impl FlowNet {
    /// Creates an empty network at time zero, using the partitioned solver
    /// (see [`set_solve_mode`](Self::set_solve_mode)).
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Overrides this network's [`SolveMode`] and marks every component
    /// dirty so the next solve starts from a mode-independent state.
    pub fn set_solve_mode(&mut self, mode: SolveMode) {
        self.mode = mode;
        for g in 0..self.comp_of_group.len() as u32 {
            if self.comp_of_group[g as usize] == g {
                self.mark_comp_dirty(g);
            }
        }
    }

    /// Cumulative solver work counters.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Cumulative wall-clock spent per solver phase (see [`SolveBreakdown`]).
    pub fn solve_breakdown(&self) -> SolveBreakdown {
        self.breakdown
    }

    /// Adds a resource with the given capacity in bytes/second to group 0.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.add_resource_in_group(name, capacity, 0)
    }

    /// Adds a resource to a solver partition group (e.g. one group per
    /// rack). Flows whose path stays within one group's component never
    /// force other components to re-solve. Group membership is fixed at
    /// creation.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_resource_in_group(
        &mut self,
        name: impl Into<String>,
        capacity: f64,
        group: u32,
    ) -> ResourceId {
        assert!(capacity.is_finite() && capacity > 0.0, "invalid capacity: {capacity}");
        self.ensure_group(group);
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(Resource { name: name.into(), capacity, flow_share: None });
        self.res_group.push(group);
        self.carried.push(0.0);
        id
    }

    /// The solver partition group `id` was created in.
    pub fn resource_group(&self, id: ResourceId) -> u32 {
        self.res_group[id.0 as usize]
    }

    fn ensure_group(&mut self, group: u32) {
        while self.uf.len() <= group as usize {
            let g = self.uf.len() as u32;
            self.uf.push(g);
            self.comp_of_group.push(g);
            self.dirty.push(false);
            self.group_flows.push(Vec::new());
            self.ncomps += 1;
        }
    }

    /// Limits every individual flow crossing `id` to `share × capacity`
    /// bytes/second (`None` removes the limit). The limit follows later
    /// capacity changes — see [`Resource::flow_share`].
    ///
    /// # Panics
    /// Panics if `share` is not in `(0, 1]`.
    pub fn set_flow_share(&mut self, id: ResourceId, share: Option<f64>) {
        if let Some(s) = share {
            assert!(s.is_finite() && s > 0.0 && s <= 1.0, "invalid flow share: {s}");
        }
        self.resources[id.0 as usize].flow_share = share;
        self.mark_group_dirty(self.res_group[id.0 as usize]);
    }

    /// Sets the capacity of `id` to `capacity` bytes/second, effective at
    /// the current virtual time, and re-solves max-min rates for all flows
    /// in progress. A capacity of `0` models a downed link: flows crossing
    /// it stall (rate 0) until capacity is restored.
    ///
    /// Bytes already moved are unaffected; only the allocation that holds
    /// from `now` onward changes. This is the mutation hook used by the
    /// fault-injection layer ([`crate::FaultPlan`]).
    ///
    /// # Panics
    /// Panics if `capacity` is negative, NaN or infinite.
    pub fn set_capacity(&mut self, id: ResourceId, capacity: f64) {
        assert!(capacity.is_finite() && capacity >= 0.0, "invalid capacity: {capacity}");
        let res = &mut self.resources[id.0 as usize];
        if res.capacity != capacity {
            res.capacity = capacity;
            self.mark_group_dirty(self.res_group[id.0 as usize]);
        }
    }

    /// Cumulative bytes this resource has carried since simulation start —
    /// the counter behind utilization telemetry: average utilization over a
    /// window is `Δcarried / (capacity · Δt)`. Includes each live flow's
    /// bytes in flight since its last settlement, so the value at any
    /// instant equals what eager per-event settlement would have recorded.
    pub fn carried_bytes(&self, id: ResourceId) -> f64 {
        let mut total = self.carried[id.0 as usize];
        for st in self.states() {
            let m = in_flight(st, self.now);
            if m > 0.0 {
                for r in &st.spec.path {
                    if *r == id {
                        total += m;
                    }
                }
            }
        }
        total
    }

    /// Cumulative bytes *delivered* (moved to completion) by flows carrying
    /// `tag` ([`FlowSpec::with_tag`]). The multi-job scheduler tags every
    /// flow with its owning job, so on a shared fabric each tenant's traffic
    /// stays individually auditable: for a run in which every tagged flow
    /// completes, `delivered == launched` per tag (byte conservation). Like
    /// [`Self::carried_bytes`], includes unsettled in-flight bytes.
    pub fn delivered_bytes_by_tag(&self, tag: u32) -> f64 {
        let mut total = self.delivered_by_tag.get(tag as usize).copied().unwrap_or(0.0);
        for st in self.states() {
            if st.spec.tag == tag {
                let m = in_flight(st, self.now);
                if m > 0.0 {
                    total += m;
                }
            }
        }
        total
    }

    /// Cumulative bytes offered by flows started with `tag` (counted at flow
    /// start, whether or not they later complete).
    pub fn launched_bytes_by_tag(&self, tag: u32) -> f64 {
        self.launched_by_tag.get(tag as usize).copied().unwrap_or(0.0)
    }

    /// Zeroes the per-tag delivered/launched accumulators for `tag`, so the
    /// tag can be reused by a new owner with byte accounting that starts
    /// from exactly `0.0`. Used by the streaming scheduler, whose finite
    /// token-scope space recycles tags across job generations.
    pub fn reset_bytes_by_tag(&mut self, tag: u32) {
        let i = tag as usize;
        if let Some(v) = self.delivered_by_tag.get_mut(i) {
            *v = 0.0;
        }
        if let Some(v) = self.launched_by_tag.get_mut(i) {
            *v = 0.0;
        }
    }

    /// Overwrites the cumulative carried-bytes accumulator for `id`.
    /// Snapshot resume seeds a fresh network with the exact accumulator
    /// values of the interrupted run, so utilization telemetry continues
    /// bit-identically (subsequent additions see the same partial sums).
    pub fn seed_carried_bytes(&mut self, id: ResourceId, bytes: f64) {
        self.carried[id.as_u32() as usize] = bytes;
    }

    fn bump_tag(v: &mut Vec<f64>, tag: u32, bytes: f64) {
        let i = tag as usize;
        if v.len() <= i {
            v.resize(i + 1, 0.0);
        }
        v[i] += bytes;
    }

    /// Read-only view of a resource.
    ///
    /// # Panics
    /// Panics if `id` was not returned by this network's
    /// [`add_resource`](Self::add_resource).
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0 as usize]
    }

    /// Number of resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Starts a flow at the current time. Data begins moving after the spec's
    /// latency.
    ///
    /// # Panics
    /// Panics if the spec references a resource not in this network.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        for r in &spec.path {
            assert!((r.0 as usize) < self.resources.len(), "unknown resource {r}");
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot::default());
                u32::try_from(self.slots.len() - 1).expect("too many flows")
            }
        };
        let gen = self.slots[slot as usize].gen;
        let id = FlowId(pack_id(slot, gen));
        let activates_at = self.now + spec.latency;
        let active = spec.latency.as_nanos() == 0;
        let remaining = spec.bytes;
        Self::bump_tag(&mut self.launched_by_tag, spec.tag, spec.bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        let pathless = spec.path.is_empty();
        self.slots[slot as usize].state =
            Some(FlowState { spec, remaining, rate: 0.0, active, seq, anchor: self.now, pred: 0 });
        self.live += 1;
        if active {
            self.nactive += 1;
        }
        if pathless {
            // Pathless flows never contend for resources: their rate is
            // their own cap (or infinite) the moment they activate, and
            // they never enter the solver.
            if active {
                let st = self.slots[slot as usize].state.as_mut().expect("just stored");
                st.rate = st.spec.rate_cap.unwrap_or(f64::INFINITY);
                self.push_completion_at(slot, self.now);
            } else {
                self.push_one(activates_at.as_nanos(), NetEvent { slot, gen, pred: ACTIVATION });
            }
        } else {
            self.link_flow(slot);
            if !active {
                self.push_one(activates_at.as_nanos(), NetEvent { slot, gen, pred: ACTIVATION });
            }
        }
        id
    }

    /// The resident flow for `id`, iff the id's generation matches the slot
    /// (a completed/cancelled flow's id never resolves to a reused slot).
    fn state(&self, id: FlowId) -> Option<&FlowState> {
        let (slot, gen) = unpack_id(id.0);
        self.slots.get(slot as usize).filter(|s| s.gen == gen).and_then(|s| s.state.as_ref())
    }

    /// Vacates `slot`, returning its flow and retiring the slot's current
    /// generation so stale ids (and queue entries) can never resurrect.
    fn vacate(&mut self, slot: u32) -> FlowState {
        let s = &mut self.slots[slot as usize];
        let st = s.state.take().expect("vacating an empty slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        if st.active {
            self.nactive -= 1;
        }
        st
    }

    /// Occupied slots in index order (the telemetry iteration order).
    fn states(&self) -> impl Iterator<Item = &FlowState> {
        self.slots.iter().filter_map(|s| s.state.as_ref())
    }

    /// Read-only view of a flow still present in the network.
    pub fn flow(&self, id: FlowId) -> Option<Flow> {
        self.state(id).map(|s| Flow {
            spec: s.spec.clone(),
            remaining: live_remaining(s, self.now),
            rate: s.rate,
            active: s.active,
        })
    }

    /// Number of flows not yet completed (including latency-phase flows).
    pub fn flow_count(&self) -> usize {
        self.live
    }

    /// Number of flows past their latency phase — the count of flows that
    /// are moving data (or have just finished and await collection). This is
    /// the value behind the `active_flows` trace counter.
    pub fn active_flow_count(&self) -> usize {
        self.nactive
    }

    /// Aggregate allocated rate over a resource, in bytes/second.
    ///
    /// Useful for measuring utilization in tests and the bandwidth
    /// micro-benchmark.
    pub fn utilization(&mut self, id: ResourceId) -> f64 {
        self.recompute_if_dirty();
        let capacity = self.resources[id.0 as usize].capacity;
        if capacity <= 0.0 {
            // A downed link carries nothing by construction.
            return 0.0;
        }
        let total: f64 =
            self.states().filter(|f| f.active && f.spec.path.contains(&id)).map(|f| f.rate).sum();
        total / capacity
    }

    /// The next instant at which the network state changes: a flow activates
    /// (latency elapsed) or a flow completes. `None` when no flow will ever
    /// make progress again without outside intervention (no flows left, or
    /// only flows starved by a downed link).
    pub fn next_change(&mut self) -> Option<SimTime> {
        self.recompute_if_dirty();
        if !self.ripe.is_empty() {
            // Completions that fired during the last advance still await
            // collection at the current instant.
            return Some(self.now);
        }
        self.maybe_compact();
        loop {
            let (at, ev) = match self.events.peek() {
                Some((at, &entry)) => (at, self.resolve(entry)),
                None => return None,
            };
            if event_valid(&self.slots, &ev) {
                return Some(SimTime::from_nanos(at));
            }
            self.pop_due(u64::MAX);
            self.stats.queue_discards += 1;
        }
    }

    /// The event a queue entry stands for.
    fn resolve(&self, entry: QueueEntry) -> NetEvent {
        match entry {
            QueueEntry::One(ev) => ev,
            QueueEntry::Run(id) => {
                let run = &self.runs[id as usize];
                run.elems[run.next].ev
            }
        }
    }

    /// Queues one plain event.
    fn push_one(&mut self, at: u64, ev: NetEvent) {
        self.events.push(at, QueueEntry::One(ev));
        self.stats.queue_pushes += 1;
    }

    /// Pops the earliest queue entry if it is due at or before `t`. A run's
    /// element queues the run's next valid element under its reserved
    /// stamp, skipping elements that are stale already: staleness never
    /// reverts, so the eager queue would have discarded them too.
    fn pop_due(&mut self, t: u64) -> Option<(u64, NetEvent)> {
        let (at, entry) = self.events.pop_due(t)?;
        let ev = match entry {
            QueueEntry::One(ev) => ev,
            QueueEntry::Run(id) => self.advance_run(id),
        };
        Some((at, ev))
    }

    /// The event of run `id`'s queued element, which just popped; queues
    /// the run's next valid element or frees the run.
    fn advance_run(&mut self, id: u32) -> NetEvent {
        let run = &mut self.runs[id as usize];
        let ev = run.elems[run.next].ev;
        let before = run.unqueued();
        run.next += 1;
        while run.next < run.elems.len() && !event_valid(&self.slots, &run.elems[run.next].ev) {
            run.next += 1;
        }
        let queued = run.next < run.elems.len();
        let left = before - run.unqueued();
        self.run_backlog -= left;
        self.stats.queue_discards += (left - usize::from(queued)) as u64;
        if queued {
            self.queue_run(id);
        } else {
            self.free_run(id);
        }
        ev
    }

    /// Queues run `id`'s element `next` under its reserved stamp.
    fn queue_run(&mut self, id: u32) {
        let run = &self.runs[id as usize];
        let e = run.elems[run.next];
        self.events.push_stamped(e.at, run.first + u64::from(e.off), QueueEntry::Run(id));
        self.stats.queue_pushes += 1;
    }

    /// A run slot with no elements, reusing a freed one (and its storage)
    /// when there is one.
    fn alloc_run(&mut self) -> u32 {
        match self.free_runs.pop() {
            Some(id) => id,
            None => {
                self.runs.push(PredRun::default());
                u32::try_from(self.runs.len() - 1).expect("too many prediction runs")
            }
        }
    }

    fn free_run(&mut self, id: u32) {
        let run = &mut self.runs[id as usize];
        run.elems.clear();
        run.next = 0;
        self.free_runs.push(id);
    }

    /// Drops stale predictions once queue entries and unqueued run elements
    /// together outnumber live flows by a wide margin, bounding queue
    /// memory for long runs. Every run keeps only its valid elements; a run
    /// whose queued element went stale re-queues its first valid one under
    /// that element's own stamp, or is freed when none is left.
    fn maybe_compact(&mut self) {
        if self.events.len() + self.run_backlog <= self.live * 4 + 64 {
            return;
        }
        let t0 = std::time::Instant::now();
        let before = self.events.len() + self.run_backlog;
        // Keep each live run's queued element for the queue pass below,
        // and only the valid elements after it.
        let slots = &self.slots;
        for run in self.runs.iter_mut().filter(|r| !r.elems.is_empty()) {
            let start = run.next + 1;
            let mut k = start;
            for j in start..run.elems.len() {
                if event_valid(slots, &run.elems[j].ev) {
                    run.elems[k] = run.elems[j];
                    k += 1;
                }
            }
            run.elems.truncate(k);
        }
        let runs = &self.runs;
        let mut stale_heads = Vec::new();
        self.events.retain(|&entry| match entry {
            QueueEntry::One(ev) => event_valid(slots, &ev),
            QueueEntry::Run(id) => {
                let run = &runs[id as usize];
                let valid = event_valid(slots, &run.elems[run.next].ev);
                if !valid {
                    stale_heads.push(id);
                }
                valid
            }
        });
        // Every element after a stale head is valid now.
        for id in stale_heads {
            let run = &mut self.runs[id as usize];
            run.next += 1;
            if run.next < run.elems.len() {
                self.queue_run(id);
            } else {
                self.free_run(id);
            }
        }
        self.run_backlog = self.runs.iter().map(PredRun::unqueued).sum();
        let after = self.events.len() + self.run_backlog;
        self.stats.queue_discards += (before - after) as u64;
        self.breakdown.queue_s += t0.elapsed().as_secs_f64();
    }

    /// Advances virtual time to `t`, firing every activation and predicted
    /// completion scheduled up to then. Completions are settled at their
    /// exact predicted instants and parked for
    /// [`take_completed`](Self::take_completed); rates are *not* re-solved
    /// mid-advance (flows move at their pre-advance rates for the whole
    /// span, as the fluid model defines).
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to({t}) before now ({})", self.now);
        self.recompute_if_dirty();
        self.drain_due(t);
        self.now = t;
    }

    /// Pops every queue entry due at or before `t`, in (time, insertion)
    /// order: activations flip the flow on; valid completions settle at
    /// their predicted instant and land in `ripe`.
    ///
    /// Most calls find nothing due (every timer pop advances the network),
    /// so the first entry is popped before the wall clock starts.
    fn drain_due(&mut self, t: SimTime) {
        let mut due = self.pop_due(t.as_nanos());
        if due.is_none() {
            return;
        }
        let t0 = std::time::Instant::now();
        while let Some((at_ns, ev)) = due {
            if event_valid(&self.slots, &ev) {
                let at = SimTime::from_nanos(at_ns);
                if ev.pred == ACTIVATION {
                    self.activate(ev.slot, at);
                } else {
                    self.settle(ev.slot, at);
                    self.ripe.push((ev.slot, ev.gen));
                }
            } else {
                self.stats.queue_discards += 1;
            }
            due = self.pop_due(t.as_nanos());
        }
        self.breakdown.queue_s += t0.elapsed().as_secs_f64();
    }

    /// Latency elapsed: the flow begins moving data at `at`.
    fn activate(&mut self, slot: u32, at: SimTime) {
        let st = self.slots[slot as usize].state.as_mut().expect("activating an empty slot");
        st.active = true;
        st.anchor = at;
        self.nactive += 1;
        if st.spec.path.is_empty() {
            st.rate = st.spec.rate_cap.unwrap_or(f64::INFINITY);
            self.push_completion_at(slot, at);
        } else {
            // All the flow's path groups were linked into one component at
            // start, so marking the home group covers every hop.
            let home = self.res_group[st.spec.path[0].0 as usize];
            self.mark_group_dirty(home);
        }
    }

    /// Credits bytes moved between `st.anchor` and `to` to the flow and the
    /// per-resource/per-tag telemetry, and re-anchors at `to`. Carried bytes
    /// are credited on every path hop in both the finite- and infinite-rate
    /// branches, keeping `carried ≡ delivered` on single-hop paths.
    fn settle(&mut self, slot: u32, to: SimTime) {
        let st = self.slots[slot as usize].state.as_mut().expect("settling an empty slot");
        if st.active {
            let dt = (to - st.anchor).as_secs_f64();
            let moved = if dt > 0.0 {
                if st.rate.is_infinite() {
                    std::mem::replace(&mut st.remaining, 0.0)
                } else if st.rate > 0.0 {
                    let m = (st.rate * dt).min(st.remaining);
                    st.remaining -= m;
                    m
                } else {
                    0.0
                }
            } else {
                0.0
            };
            if moved > 0.0 {
                for r in &st.spec.path {
                    self.carried[r.0 as usize] += moved;
                }
                Self::bump_tag(&mut self.delivered_by_tag, st.spec.tag, moved);
            }
        }
        let st = self.slots[slot as usize].state.as_mut().expect("settling an empty slot");
        st.anchor = to;
    }

    /// Pushes the completion entry predicted by the flow's current rate and
    /// (settled) remaining bytes, stamped with its prediction counter.
    /// Starved flows (rate 0, bytes left) get no entry: nothing will happen
    /// until the flow set or a capacity changes.
    fn push_completion_at(&mut self, slot: u32, from: SimTime) {
        let s = &self.slots[slot as usize];
        let st = s.state.as_ref().expect("predicting an empty slot");
        let Some(at_ns) = predict_completion_ns(st.rate, st.remaining, from) else {
            return;
        };
        let ev = NetEvent { slot, gen: s.gen, pred: st.pred };
        self.push_one(at_ns, ev);
    }

    /// Removes and returns all flows that have finished transferring, in
    /// start order (ids are delivered oldest flow first). Call after
    /// [`advance_to`](Self::advance_to).
    pub fn take_completed(&mut self) -> Vec<FlowId> {
        self.take_completed_tagged().into_iter().map(|(id, _)| id).collect()
    }

    /// [`Self::take_completed`], with each flow's [`FlowSpec::tag`].
    pub fn take_completed_tagged(&mut self) -> Vec<(FlowId, u32)> {
        // Collect anything due at the current instant as well (e.g.
        // complete-now entries pushed by the last solve).
        self.drain_due(self.now);
        if self.ripe.is_empty() {
            return Vec::new();
        }
        let ripe = std::mem::take(&mut self.ripe);
        let mut done: Vec<(u64, u32)> = Vec::new();
        for (slot, gen) in ripe {
            let s = &self.slots[slot as usize];
            if s.gen != gen {
                continue; // already collected via a duplicate entry
            }
            let st = s.state.as_ref().expect("gen-matched slot occupied");
            if live_remaining(st, self.now) > completion_eps(st.rate) {
                // Nanosecond rounding left a sliver behind: re-predict
                // instead of completing early.
                self.settle(slot, self.now);
                let st = self.slots[slot as usize].state.as_mut().expect("occupied");
                st.pred = st.pred.wrapping_add(1);
                self.push_completion_at(slot, self.now);
                continue;
            }
            done.push((st.seq, slot));
        }
        // Slot order is reuse order, not start order: sort by sequence so
        // delivery (and downstream event handling) follows flow age. A flow
        // surfaced twice (e.g. a re-solve pushed a second complete-now
        // entry) appears as identical pairs — dedup before vacating.
        done.sort_unstable();
        done.dedup();
        let mut ids = Vec::with_capacity(done.len());
        for &(_, slot) in &done {
            let id = FlowId(pack_id(slot, self.slots[slot as usize].gen));
            self.unlink_flow(slot);
            let st = self.vacate(slot);
            ids.push((id, st.spec.tag));
            // Credit the sub-epsilon residual (and the full payload of
            // infinite-rate flows that completed without time advancing)
            // on every path hop and to the flow's tag, so both counters
            // account every byte of a completed flow exactly.
            for r in &st.spec.path {
                self.carried[r.0 as usize] += st.remaining;
            }
            Self::bump_tag(&mut self.delivered_by_tag, st.spec.tag, st.remaining);
        }
        ids
    }

    /// Cancels a flow (e.g. elastic scale-down), returning `true` if it was
    /// present. Bytes moved so far are settled into the telemetry counters;
    /// the unmoved remainder is dropped (never delivered).
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        if self.state(id).is_none() {
            return false;
        }
        let (slot, _) = unpack_id(id.0);
        self.settle(slot, self.now);
        self.unlink_flow(slot);
        self.vacate(slot);
        true
    }

    /// Registers a freshly started path flow in its home group's flow list
    /// and, if the path spans several groups, merges those groups into one
    /// component. Marks every touched component dirty.
    ///
    /// Merging is incremental: each cross-group hop bumps its `(home, g)`
    /// edge refcount, and only a 0 → 1 transition unions the two
    /// components — restarting a flow over a warm edge costs `O(1)`, not a
    /// topology rebuild.
    fn link_flow(&mut self, slot: u32) {
        let home;
        let mut cross_flow = false;
        {
            let st = self.slots[slot as usize].state.as_ref().expect("linking an empty slot");
            home = self.res_group[st.spec.path[0].0 as usize];
            self.tmp_groups.clear();
            for r in &st.spec.path {
                let g = self.res_group[r.0 as usize];
                if g != home {
                    cross_flow = true;
                }
                self.tmp_groups.push(g);
            }
        }
        let list = &mut self.group_flows[home as usize];
        match list.binary_search(&slot) {
            Err(pos) => list.insert(pos, slot),
            Ok(_) => unreachable!("slot {slot} linked twice"),
        }
        if cross_flow {
            self.cross.insert(slot);
            let tmp = std::mem::take(&mut self.tmp_groups);
            for &g in &tmp {
                if g == home {
                    continue;
                }
                let key = if home < g { (home, g) } else { (g, home) };
                let count = self.edge_count.entry(key).or_insert(0);
                *count += 1;
                if *count == 1 && !self.topo_stale {
                    // A pending rebuild re-derives connectivity from
                    // `cross` (which already holds this slot), so the
                    // incremental union only runs on a fresh mapping.
                    self.merge_comps(home, g);
                }
            }
            self.tmp_groups = tmp;
        }
        let tmp = std::mem::take(&mut self.tmp_groups);
        for &g in &tmp {
            self.mark_group_dirty(g);
        }
        self.tmp_groups = tmp;
    }

    /// Unions the components of groups `a` and `b` in place: the smaller
    /// representative wins (same deterministic choice as a full rebuild),
    /// the materialized mapping is rewritten, and the loser's dirty mark —
    /// if any — moves to the winner.
    fn merge_comps(&mut self, a: u32, b: u32) {
        let ra = uf_find(&mut self.uf, a);
        let rb = uf_find(&mut self.uf, b);
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.uf[hi as usize] = lo;
        for c in self.comp_of_group.iter_mut() {
            if *c == hi {
                *c = lo;
            }
        }
        self.ncomps -= 1;
        if self.dirty[hi as usize] {
            self.dirty[hi as usize] = false;
            self.dirty_list.retain(|&r| r != hi);
            self.mark_comp_dirty(lo);
        }
    }

    /// Inverse of [`Self::link_flow`]; called just before a flow's slot is
    /// vacated. A departing cross-group flow may split its component.
    fn unlink_flow(&mut self, slot: u32) {
        let home;
        let mut cross_flow = false;
        {
            let st = self.slots[slot as usize].state.as_ref().expect("unlinking an empty slot");
            if st.spec.path.is_empty() {
                return;
            }
            home = self.res_group[st.spec.path[0].0 as usize];
            self.tmp_groups.clear();
            for r in &st.spec.path {
                let g = self.res_group[r.0 as usize];
                if g != home {
                    cross_flow = true;
                }
                self.tmp_groups.push(g);
            }
        }
        let list = &mut self.group_flows[home as usize];
        match list.binary_search(&slot) {
            Ok(pos) => {
                list.remove(pos);
            }
            Err(_) => unreachable!("slot {slot} missing from its group list"),
        }
        if cross_flow {
            self.cross.remove(&slot);
            let tmp = std::mem::take(&mut self.tmp_groups);
            for &g in &tmp {
                if g == home {
                    continue;
                }
                let key = if home < g { (home, g) } else { (g, home) };
                let count =
                    self.edge_count.get_mut(&key).expect("unlinking an uncounted group edge");
                *count -= 1;
                if *count == 0 {
                    // Last flow over this edge: its component may have
                    // split. Defer the rebuild to the next solve — a burst
                    // of departures then pays for one rebuild, not one per
                    // flow.
                    self.edge_count.remove(&key);
                    self.topo_stale = true;
                }
            }
            self.tmp_groups = tmp;
        }
        let tmp = std::mem::take(&mut self.tmp_groups);
        for &g in &tmp {
            self.mark_group_dirty(g);
        }
        self.tmp_groups = tmp;
    }

    /// Recomputes the group → component mapping from the surviving
    /// cross-group flows, carrying existing dirty marks across the remap
    /// (every group whose old component was dirty keeps its new component
    /// dirty).
    fn rebuild_topology(&mut self) {
        self.topo_stale = false;
        let n = self.comp_of_group.len();
        self.uf.clear();
        self.uf.extend(0..n as u32);
        for &slot in &self.cross {
            let st = self.slots[slot as usize].state.as_ref().expect("cross slot occupied");
            let g0 = self.res_group[st.spec.path[0].0 as usize];
            for r in &st.spec.path[1..] {
                let g = self.res_group[r.0 as usize];
                uf_union(&mut self.uf, g0, g);
            }
        }
        let mut newc = vec![0u32; n];
        let mut ncomps = 0usize;
        for (g, c) in newc.iter_mut().enumerate() {
            let rep = uf_find(&mut self.uf, g as u32);
            *c = rep;
            if rep as usize == g {
                ncomps += 1;
            }
        }
        let mut nd = vec![false; n];
        self.dirty_list.clear();
        for (&old, &rep) in self.comp_of_group.iter().zip(&newc) {
            if self.dirty[old as usize] && !nd[rep as usize] {
                nd[rep as usize] = true;
                self.dirty_list.push(rep);
            }
        }
        self.comp_of_group = newc;
        self.dirty = nd;
        self.ncomps = ncomps;
    }

    fn mark_group_dirty(&mut self, group: u32) {
        let rep = self.comp_of_group[group as usize];
        self.mark_comp_dirty(rep);
    }

    fn mark_comp_dirty(&mut self, rep: u32) {
        if !self.dirty[rep as usize] {
            self.dirty[rep as usize] = true;
            self.dirty_list.push(rep);
        }
        self.any_dirty = true;
    }

    /// Re-solves dirty components ([`SolveMode::Partitioned`]) or every
    /// component ([`SolveMode::Full`]). Either way components are visited
    /// in ascending-representative order and rates committed only on a
    /// bitwise change, so the two modes stay byte-for-byte interchangeable.
    fn recompute_if_dirty(&mut self) {
        if !self.any_dirty {
            return;
        }
        if self.topo_stale {
            // A departed cross flow may have split a component; re-derive
            // the mapping (and re-home the dirty marks) before solving.
            self.rebuild_topology();
        }
        self.stats.recomputes += 1;
        self.stats.comps_existing += self.ncomps as u64;
        match self.mode {
            SolveMode::Full => {
                let mut sc = std::mem::take(&mut self.scratch);
                for g in 0..self.comp_of_group.len() as u32 {
                    if self.comp_of_group[g as usize] == g {
                        self.stats.comps_solved += 1;
                        self.solve_apply_one(g, &mut sc);
                    }
                }
                self.scratch = sc;
                let list = std::mem::take(&mut self.dirty_list);
                for &rep in &list {
                    self.dirty[rep as usize] = false;
                }
                self.dirty_list = list;
                self.dirty_list.clear();
            }
            SolveMode::Partitioned => {
                let mut list = std::mem::take(&mut self.dirty_list);
                list.sort_unstable();
                self.stats.comps_solved += list.len() as u64;
                let mut sc = std::mem::take(&mut self.scratch);
                for &rep in &list {
                    debug_assert_eq!(self.comp_of_group[rep as usize], rep);
                    self.solve_apply_one(rep, &mut sc);
                    self.dirty[rep as usize] = false;
                }
                self.scratch = sc;
                list.clear();
                self.dirty_list = list;
            }
        }
        self.fold_scratch_stats();
        self.any_dirty = false;
    }

    /// Solve + immediate apply of one component: the compute phase reads
    /// the network, then the commit phase mutates it.
    fn solve_apply_one(&mut self, rep: u32, sc: &mut Scratch) {
        let t0 = std::time::Instant::now();
        self.solve_comp_rates(rep, sc);
        let t1 = std::time::Instant::now();
        self.apply_comp(sc);
        self.breakdown.solve_s += (t1 - t0).as_secs_f64();
        self.breakdown.apply_s += t1.elapsed().as_secs_f64();
    }

    /// Moves the scratch-accumulated work counters into [`SolverStats`].
    /// Called once per recompute.
    fn fold_scratch_stats(&mut self) {
        let sc = &mut self.scratch;
        self.stats.parts_solved += sc.stat_parts;
        self.stats.fill_rounds += sc.stat_rounds;
        self.stats.comp_parts_max = self.stats.comp_parts_max.max(sc.stat_comp_max);
        sc.stat_parts = 0;
        sc.stat_rounds = 0;
        sc.stat_comp_max = 0;
    }

    /// Pure solve phase for one component: collects its active
    /// participants, computes their max-min rates, and precomputes each
    /// changed participant's completion prediction into `sc`. Takes `&self`
    /// only: all mutation is deferred to [`Self::apply_comp`].
    fn solve_comp_rates(&self, rep: u32, sc: &mut Scratch) {
        sc.parts.clear();
        sc.zombies.clear();
        let now = self.now;
        for g in 0..self.comp_of_group.len() {
            if self.comp_of_group[g] != rep {
                continue;
            }
            for &slot in &self.group_flows[g] {
                let st = self.slots[slot as usize].state.as_ref().expect("grouped slot occupied");
                if !st.active {
                    continue;
                }
                if live_remaining(st, now) > 0.0 {
                    sc.parts.push(slot);
                } else {
                    sc.zombies.push(slot);
                }
            }
        }
        sc.stat_parts += sc.parts.len() as u64;
        sc.stat_comp_max = sc.stat_comp_max.max(sc.parts.len() as u64);
        if !sc.parts.is_empty() {
            // Map the resources on participant paths to dense local indices
            // (epoch-guarded: no per-solve clearing of global-sized arrays).
            sc.epoch = sc.epoch.wrapping_add(1);
            if sc.res_epoch.len() < self.resources.len() {
                sc.res_epoch.resize(self.resources.len(), 0);
                sc.res_local.resize(self.resources.len(), 0);
            }
            sc.res_ids.clear();
            sc.eff_caps.clear();
            let mut all_single = true;
            for &slot in &sc.parts {
                let st = self.slots[slot as usize].state.as_ref().expect("occupied");
                if st.spec.path.len() != 1 {
                    all_single = false;
                }
                // Effective cap: the flow's own rate cap combined with every
                // per-flow share limit on its path. Share limits track the
                // *current* capacity, so capacity mutation (fault injection)
                // tightens them automatically.
                let mut cap = st.spec.rate_cap.unwrap_or(f64::INFINITY);
                for r in &st.spec.path {
                    let ri = r.0 as usize;
                    if sc.res_epoch[ri] != sc.epoch {
                        sc.res_epoch[ri] = sc.epoch;
                        sc.res_local[ri] = sc.res_ids.len() as u32;
                        sc.res_ids.push(r.0);
                    }
                    let res = &self.resources[ri];
                    if let Some(share) = res.flow_share {
                        cap = cap.min(share * res.capacity);
                    }
                }
                sc.eff_caps.push(cap);
            }
            sc.rates.clear();
            sc.rates.resize(sc.parts.len(), 0.0);
            if all_single {
                self.solve_single_resource(sc);
            } else {
                self.solve_progressive(sc);
            }
        }
        // Prediction rebuild: each changed participant's completion instant
        // is a pure function of its new rate and post-settle remaining
        // bytes (`live_remaining` mirrors the settle arithmetic exactly),
        // so it can be computed here, before the apply phase.
        sc.pred_at.clear();
        for (k, &slot) in sc.parts.iter().enumerate() {
            let st = self.slots[slot as usize].state.as_ref().expect("occupied");
            let new_rate = sc.rates[k];
            if new_rate.to_bits() == st.rate.to_bits() {
                sc.pred_at.push(PRED_UNCHANGED);
            } else {
                let rem = live_remaining(st, now);
                sc.pred_at.push(match predict_completion_ns(new_rate, rem, now) {
                    Some(at) => at,
                    None => PRED_STARVED,
                });
            }
        }
    }

    /// Commit phase for one solved component: settles and re-stamps every
    /// participant whose rate changed bitwise (an unchanged participant
    /// keeps its anchor and queue entry untouched, which is what makes
    /// re-solving a clean component a no-op), then parks zombies. Runs in
    /// ascending-representative order across components: byte-counter
    /// accumulation and event-queue insertion order are part of the
    /// deterministic output.
    ///
    /// The new predictions take the stamps eager pushes in participant
    /// order would have taken. Two or more become one prediction run with
    /// only its head queued; a single one is pushed plainly.
    fn apply_comp(&mut self, sc: &Scratch) {
        let now = self.now;
        let n = sc.pred_at.iter().filter(|&&at| at != PRED_UNCHANGED && at != PRED_STARVED).count();
        let run = if n > 1 {
            let id = self.alloc_run();
            self.runs[id as usize].first = self.events.reserve_stamps(n as u64);
            Some(id)
        } else {
            None
        };
        for (k, &slot) in sc.parts.iter().enumerate() {
            let at = sc.pred_at[k];
            if at == PRED_UNCHANGED {
                continue;
            }
            self.settle(slot, now);
            let s = &mut self.slots[slot as usize];
            let gen = s.gen;
            let st = s.state.as_mut().expect("occupied");
            st.rate = sc.rates[k];
            st.pred = st.pred.wrapping_add(1);
            debug_assert_eq!(
                predict_completion_ns(st.rate, st.remaining, now),
                (at != PRED_STARVED).then_some(at),
                "solve-phase prediction diverged from post-settle state"
            );
            if at != PRED_STARVED {
                let ev = NetEvent { slot, gen, pred: st.pred };
                match run {
                    Some(id) => {
                        let elems = &mut self.runs[id as usize].elems;
                        let off = elems.len() as u32;
                        elems.push(RunElem { at, off, ev });
                    }
                    None => self.push_one(at, ev),
                }
            }
        }
        if let Some(id) = run {
            self.runs[id as usize].elems.sort_unstable_by_key(|e| (e.at, e.off));
            self.queue_run(id);
            self.run_backlog += n - 1;
        }
        for &slot in &sc.zombies {
            // A flow whose bytes ran out but that was not collected yet
            // (e.g. a fault preempted its completion event): settle the last
            // bytes, park the rate at 0 and queue a complete-now entry so it
            // surfaces on the next collection.
            let st = self.slots[slot as usize].state.as_ref().expect("occupied");
            if st.rate != 0.0 {
                self.settle(slot, now);
                let st = self.slots[slot as usize].state.as_mut().expect("occupied");
                st.rate = 0.0;
            }
            let st = self.slots[slot as usize].state.as_mut().expect("occupied");
            st.pred = st.pred.wrapping_add(1);
            self.push_completion_at(slot, now);
        }
    }

    /// Exact max-min for the case where every unfrozen flow loads exactly
    /// one resource: resources are then independent, and the allocation on
    /// each is a single sorted water-fill — flows whose cap is below the
    /// running fair share get their cap, the rest split the remainder
    /// equally. One `O(n log n)` pass replaces up to `n` progressive-filling
    /// rounds.
    fn solve_single_resource(&self, sc: &mut Scratch) {
        sc.single.clear();
        for (k, &slot) in sc.parts.iter().enumerate() {
            let st = self.slots[slot as usize].state.as_ref().expect("occupied");
            sc.single.push((st.spec.path[0].0, sc.eff_caps[k], k as u32));
        }
        // Group by resource; within a group ascending cap (participant
        // index — i.e. slot order — as the deterministic tie-break).
        sc.single
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut g = 0;
        while g < sc.single.len() {
            let res = sc.single[g].0;
            let mut end = g;
            while end < sc.single.len() && sc.single[end].0 == res {
                end += 1;
            }
            let mut remaining = self.resources[res as usize].capacity.max(0.0);
            let mut left = end - g;
            let mut j = g;
            while j < end {
                let fair = if remaining > 0.0 { remaining / left as f64 } else { 0.0 };
                let (_, cap, k) = sc.single[j];
                if cap < fair {
                    sc.rates[k as usize] = cap;
                    remaining -= cap;
                    left -= 1;
                    j += 1;
                } else {
                    // Ascending caps: every remaining flow's cap is >= fair,
                    // so they all settle at the equal share.
                    for &(_, _, k) in &sc.single[j..end] {
                        sc.rates[k as usize] = fair;
                    }
                    break;
                }
            }
            g = end;
        }
    }

    /// General progressive filling: all unfrozen flows grow at the same
    /// rate until a resource saturates or a flow hits its cap, repeating
    /// until every flow is frozen.
    fn solve_progressive(&self, sc: &mut Scratch) {
        let nres = sc.res_ids.len();
        sc.residual.clear();
        for &r in &sc.res_ids {
            sc.residual.push(self.resources[r as usize].capacity);
        }
        sc.unfrozen.clear();
        sc.unfrozen.extend(0..sc.parts.len() as u32);
        let mut guard = 0usize;
        while !sc.unfrozen.is_empty() {
            sc.stat_rounds += 1;
            guard += 1;
            assert!(guard <= nres + sc.parts.len() + 2, "progressive filling failed to converge");
            // Per-resource unfrozen flow counts.
            sc.counts.clear();
            sc.counts.resize(nres, 0);
            for &k in &sc.unfrozen {
                let slot = sc.parts[k as usize];
                let st = self.slots[slot as usize].state.as_ref().expect("occupied");
                for r in &st.spec.path {
                    sc.counts[sc.res_local[r.0 as usize] as usize] += 1;
                }
            }
            // Water level: smallest equal increment that saturates a resource.
            let mut inc = f64::INFINITY;
            for (i, &c) in sc.counts.iter().enumerate() {
                if c > 0 {
                    inc = inc.min(sc.residual[i].max(0.0) / c as f64);
                }
            }
            // Or that drives a flow into its cap.
            for &k in &sc.unfrozen {
                let cap = sc.eff_caps[k as usize];
                if cap.is_finite() {
                    inc = inc.min((cap - sc.rates[k as usize]).max(0.0));
                }
            }
            if inc.is_infinite() {
                // No resource and no cap constrains these flows: infinitely
                // fast (zero-cost transfers, e.g. loopback control messages).
                for &k in &sc.unfrozen {
                    sc.rates[k as usize] = f64::INFINITY;
                }
                break;
            }
            for &k in &sc.unfrozen {
                sc.rates[k as usize] += inc;
                let slot = sc.parts[k as usize];
                let st = self.slots[slot as usize].state.as_ref().expect("occupied");
                for r in &st.spec.path {
                    sc.residual[sc.res_local[r.0 as usize] as usize] -= inc;
                }
            }
            // Freeze flows at their cap or on a saturated resource.
            sc.still.clear();
            for &k in &sc.unfrozen {
                let cap = sc.eff_caps[k as usize];
                let rate = sc.rates[k as usize];
                let capped = cap.is_finite() && rate >= cap - cap * 1e-12 - 1e-15;
                let slot = sc.parts[k as usize];
                let st = self.slots[slot as usize].state.as_ref().expect("occupied");
                let saturated = st.spec.path.iter().any(|r| {
                    let local = sc.res_local[r.0 as usize] as usize;
                    sc.residual[local] <= self.resources[r.0 as usize].capacity * 1e-12
                });
                if !capped && !saturated {
                    sc.still.push(k);
                }
            }
            assert!(sc.still.len() < sc.unfrozen.len(), "progressive filling made no progress");
            std::mem::swap(&mut sc.unfrozen, &mut sc.still);
        }
    }
}

/// The completion instant implied by `rate` and (settled) `remaining` bytes
/// from `from`, in nanoseconds — `None` for a starved flow (rate 0, bytes
/// left). The single source of the prediction arithmetic: both
/// [`FlowNet::push_completion_at`] and the read-only solve phase call it,
/// so the two agree bit-for-bit by construction.
fn predict_completion_ns(rate: f64, remaining: f64, from: SimTime) -> Option<u64> {
    if rate.is_infinite() || remaining <= completion_eps(rate) {
        Some(from.as_nanos())
    } else if rate > 0.0 {
        // Ceil to the next nanosecond so that advancing to the predicted
        // instant guarantees remaining <= eps despite rounding.
        let dt_ns = (remaining / rate * 1e9).ceil() as u64;
        Some(from.as_nanos().saturating_add(dt_ns.max(1)))
    } else {
        None
    }
}

/// Minimum leftover bytes treated as "transfer complete": 2 ns worth of data
/// at the current rate, at least [`EPS_BYTES`] — covers nanosecond rounding
/// of completion times plus float drift.
fn completion_eps(rate: f64) -> f64 {
    if rate.is_finite() {
        EPS_BYTES.max(rate * 2e-9)
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain(net: &mut FlowNet) -> Vec<(f64, FlowId)> {
        let mut out = Vec::new();
        while let Some(t) = net.next_change() {
            net.advance_to(t);
            for id in net.take_completed() {
                out.push((t.as_secs_f64(), id));
            }
        }
        out
    }

    #[test]
    fn single_uncapped_flow_uses_full_capacity() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 100.0));
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 10.0).abs() < 1e-6, "t={}", done[0].0);
    }

    #[test]
    fn single_capped_flow_limited_to_cap() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 100.0);
        net.start_flow(FlowSpec::new(vec![r], 30.0).with_rate_cap(30.0));
        assert!((net.utilization(r) - 0.3).abs() < 1e-9);
        let done = drain(&mut net);
        assert!((done[0].0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_capped_flows_aggregate_bandwidth() {
        // Paper §III/§V: N concurrent streams multiplex the link.
        let mut net = FlowNet::new();
        let r = net.add_resource("nic", 100.0);
        for _ in 0..3 {
            net.start_flow(FlowSpec::new(vec![r], 30.0).with_rate_cap(30.0));
        }
        assert!((net.utilization(r) - 0.9).abs() < 1e-9);
        let done = drain(&mut net);
        assert_eq!(done.len(), 3);
        for (t, _) in done {
            assert!((t - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn caps_cannot_oversubscribe_capacity() {
        let mut net = FlowNet::new();
        let r = net.add_resource("nic", 100.0);
        for _ in 0..5 {
            net.start_flow(FlowSpec::new(vec![r], 100.0).with_rate_cap(30.0));
        }
        // 5 * 30 > 100 => fair share 20 each.
        assert!((net.utilization(r) - 1.0).abs() < 1e-9);
        let done = drain(&mut net);
        for (t, _) in done {
            assert!((t - 5.0).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn fair_sharing_two_flows_then_speedup() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 30.0));
        net.start_flow(FlowSpec::new(vec![r], 50.0));
        let done = drain(&mut net);
        assert!((done[0].0 - 6.0).abs() < 1e-6);
        assert!((done[1].0 - 8.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_with_heterogeneous_paths() {
        // f1 uses A only; f2 uses A and B; B is the tighter link.
        let mut net = FlowNet::new();
        let a = net.add_resource("A", 10.0);
        let b = net.add_resource("B", 4.0);
        let f1 = net.start_flow(FlowSpec::new(vec![a], 1000.0));
        let f2 = net.start_flow(FlowSpec::new(vec![a, b], 1000.0));
        net.next_change();
        // f2 limited by B to 4; f1 gets the rest of A: 6.
        assert!((net.flow(f2).unwrap().rate - 4.0).abs() < 1e-9);
        assert!((net.flow(f1).unwrap().rate - 6.0).abs() < 1e-9);
    }

    #[test]
    fn latency_delays_start() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 10.0).with_latency(SimDuration::from_secs_f64(2.0)));
        let done = drain(&mut net);
        assert!((done[0].0 - 3.0).abs() < 1e-6, "t={}", done[0].0);
    }

    #[test]
    fn zero_byte_flow_completes_after_latency() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 0.0).with_latency(SimDuration::from_millis(1)));
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 0.001).abs() < 1e-9);
    }

    #[test]
    fn pathless_flow_completes_immediately() {
        let mut net = FlowNet::new();
        net.start_flow(FlowSpec::new(vec![], 1e9));
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 0.0);
    }

    #[test]
    fn cancel_flow_releases_bandwidth() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        let f1 = net.start_flow(FlowSpec::new(vec![r], 100.0));
        let f2 = net.start_flow(FlowSpec::new(vec![r], 100.0));
        net.next_change();
        assert!((net.flow(f1).unwrap().rate - 5.0).abs() < 1e-9);
        assert!(net.cancel_flow(f2));
        net.next_change();
        assert!((net.flow(f1).unwrap().rate - 10.0).abs() < 1e-9);
        assert!(!net.cancel_flow(f2));
    }

    #[test]
    fn completion_frees_bandwidth_for_later_flows() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 100.0));
        net.start_flow(FlowSpec::new(vec![r], 10.0));
        // Short flow done at t=2 (5 B/s each); long one then accelerates.
        let done = drain(&mut net);
        assert!((done[0].0 - 2.0).abs() < 1e-6);
        // Long flow: 90 left at t=2, 10 B/s => t=11.
        assert!((done[1].0 - 11.0).abs() < 1e-6, "t={}", done[1].0);
    }

    #[test]
    fn utilization_reports_fraction() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 100.0);
        net.start_flow(FlowSpec::new(vec![r], 1e6).with_rate_cap(25.0));
        net.start_flow(FlowSpec::new(vec![r], 1e6).with_rate_cap(25.0));
        assert!((net.utilization(r) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn foreign_resource_rejected() {
        let mut a = FlowNet::new();
        let mut b = FlowNet::new();
        let _ = a.add_resource("x", 1.0);
        let ra2 = a.add_resource("y", 1.0);
        let _ = b.add_resource("z", 1.0);
        b.start_flow(FlowSpec::new(vec![ra2], 1.0)); // index 1 unknown to b
    }

    #[test]
    fn many_symmetric_flows_complete_together() {
        let mut net = FlowNet::new();
        let mut path_res = Vec::new();
        for i in 0..16 {
            path_res.push(net.add_resource(format!("nic{i}"), 1e9));
        }
        for i in 0..16 {
            let p = vec![path_res[i], path_res[(i + 1) % 16]];
            net.start_flow(FlowSpec::new(p, 1e8).with_rate_cap(3e8));
        }
        let done = drain(&mut net);
        assert_eq!(done.len(), 16);
        let t0 = done[0].0;
        for (t, _) in done {
            assert!((t - t0).abs() < 1e-6);
        }
    }

    #[test]
    fn groups_partition_the_solve() {
        // Two groups, flows confined to each: two components, and an event
        // in one never re-solves the other.
        let mut net = FlowNet::new();
        net.set_solve_mode(SolveMode::Partitioned);
        let a = net.add_resource_in_group("rack0", 10.0, 0);
        let b = net.add_resource_in_group("rack1", 10.0, 1);
        net.start_flow(FlowSpec::new(vec![a], 100.0));
        net.start_flow(FlowSpec::new(vec![b], 200.0));
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        assert!((done[0].0 - 10.0).abs() < 1e-6);
        assert!((done[1].0 - 20.0).abs() < 1e-6);
        let stats = net.solver_stats();
        assert!(
            stats.comps_solved < stats.comps_existing,
            "partitioned mode should skip clean components: {stats:?}"
        );
    }

    #[test]
    fn cross_group_flow_merges_and_split_restores() {
        // A cross-group flow couples both racks into one component; rates
        // must still be exact max-min over the union.
        let mut net = FlowNet::new();
        let a = net.add_resource_in_group("rack0", 10.0, 0);
        let b = net.add_resource_in_group("rack1", 4.0, 1);
        let f1 = net.start_flow(FlowSpec::new(vec![a], 1000.0));
        let f2 = net.start_flow(FlowSpec::new(vec![a, b], 1000.0));
        net.next_change();
        assert!((net.flow(f2).unwrap().rate - 4.0).abs() < 1e-9);
        assert!((net.flow(f1).unwrap().rate - 6.0).abs() < 1e-9);
        // Removing the cross flow splits the component and restores f1 to
        // the full rack-local capacity.
        assert!(net.cancel_flow(f2));
        net.next_change();
        assert!((net.flow(f1).unwrap().rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn full_and_partitioned_modes_agree_bitwise() {
        let run = |mode: SolveMode| {
            let mut net = FlowNet::new();
            net.set_solve_mode(mode);
            let a = net.add_resource_in_group("a", 13.0, 0);
            let b = net.add_resource_in_group("b", 7.0, 1);
            let c = net.add_resource_in_group("c", 29.0, 2);
            net.start_flow(FlowSpec::new(vec![a], 100.0));
            net.start_flow(FlowSpec::new(vec![b], 55.0).with_rate_cap(3.0));
            net.start_flow(FlowSpec::new(vec![a, b], 40.0));
            net.start_flow(FlowSpec::new(vec![c], 90.0).with_latency(SimDuration::from_millis(3)));
            let mut log: Vec<(u64, u64)> = Vec::new();
            while let Some(t) = net.next_change() {
                net.advance_to(t);
                for id in net.take_completed() {
                    log.push((t.as_nanos(), id.as_u64()));
                }
            }
            let bytes = (
                net.carried_bytes(a).to_bits(),
                net.carried_bytes(b).to_bits(),
                net.carried_bytes(c).to_bits(),
            );
            (log, bytes)
        };
        assert_eq!(run(SolveMode::Full), run(SolveMode::Partitioned));
    }

    #[test]
    fn carried_equals_delivered_on_single_hop_paths() {
        // Satellite bugfix: infinite-rate (pathless flows aside) and
        // residual credits must hit the carried counter too.
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 50.0);
        net.start_flow(FlowSpec::new(vec![r], 120.0));
        net.start_flow(FlowSpec::new(vec![r], 0.0).with_latency(SimDuration::from_millis(2)));
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        assert_eq!(
            net.carried_bytes(r).to_bits(),
            net.delivered_bytes_by_tag(0).to_bits(),
            "carried {} != delivered {}",
            net.carried_bytes(r),
            net.delivered_bytes_by_tag(0)
        );
    }

    #[test]
    fn active_flow_count_tracks_latency_phase() {
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        net.start_flow(FlowSpec::new(vec![r], 10.0));
        net.start_flow(FlowSpec::new(vec![r], 10.0).with_latency(SimDuration::from_millis(5)));
        assert_eq!(net.flow_count(), 2);
        assert_eq!(net.active_flow_count(), 1);
        let t = net.next_change().unwrap();
        net.advance_to(t);
        net.take_completed();
        // Either the first flow finished or the second activated first;
        // drain fully and check the counters empty out.
        drain(&mut net);
        assert_eq!(net.flow_count(), 0);
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn bulk_completion_drain_matches_closed_form() {
        // 64 single-link groups with 32 equal flows each. Even links run at
        // 32 MiB/s with no latency; odd links at 64 MiB/s behind a 0.5 s hop
        // latency, so all 2,048 flows finish at 1 s in one drain. One more
        // flow per even link starts after the first solve with a 1 s
        // latency: its activation entry queues between the two halves'
        // completion entries, so that drain interleaves activations with
        // completions. Every quantity is dyadic, so the closed forms are
        // exact to the nanosecond.
        const MIB: f64 = 1_048_576.0;
        const PER_LINK: usize = 32;
        let bytes = MIB;
        let mut net = FlowNet::new();
        let mut links = Vec::new();
        // (id, link, activation instant) in start order.
        let mut started: Vec<(FlowId, usize, f64)> = Vec::new();
        for l in 0..64usize {
            let (cap, latency) = if l % 2 == 0 { (32.0 * MIB, 0.0) } else { (64.0 * MIB, 0.5) };
            links.push(net.add_resource_in_group(format!("link{l}"), cap, l as u32));
            for _ in 0..PER_LINK {
                let spec = FlowSpec::new(vec![links[l]], bytes)
                    .with_latency(SimDuration::from_secs_f64(latency))
                    .with_tag(l as u32);
                started.push((net.start_flow(spec), l, latency));
            }
        }
        assert_eq!(net.next_change(), Some(SimTime::from_secs_f64(0.5)));
        for l in (0..64).step_by(2) {
            let spec = FlowSpec::new(vec![links[l]], bytes)
                .with_latency(SimDuration::from_secs_f64(1.0))
                .with_tag(l as u32);
            started.push((net.start_flow(spec), l, 1.0));
        }

        let mut done: Vec<(u64, FlowId)> = Vec::new();
        while let Some(t) = net.next_change() {
            net.advance_to(t);
            done.extend(net.take_completed().into_iter().map(|id| (t.as_nanos(), id)));
        }
        let at_one_s = done.iter().filter(|&&(t, _)| t == 1_000_000_000).count();
        assert_eq!(at_one_s, 64 * PER_LINK, "the bulk burst must land in one instant");
        let ids: Vec<FlowId> = done.iter().map(|&(_, id)| id).collect();
        let start_ids: Vec<FlowId> = started.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, start_ids, "completions must arrive in start order");

        // Each flow shares its link equally with the others active beside it:
        // it finishes `bytes · n / capacity` after its activation.
        for (&(t_ns, _), &(_, l, activated)) in done.iter().zip(&started) {
            let n = if activated == 1.0 { 1.0 } else { PER_LINK as f64 };
            let cap = net.resource(links[l]).capacity;
            let expect = SimTime::from_secs_f64(activated + bytes * n / cap);
            assert_eq!(t_ns, expect.as_nanos(), "link {l} activated at {activated} s");
        }

        for (l, &r) in links.iter().enumerate() {
            let flows = if l % 2 == 0 { PER_LINK + 1 } else { PER_LINK };
            let launched = net.launched_bytes_by_tag(l as u32);
            assert_eq!(launched, bytes * flows as f64, "link {l}");
            assert_eq!(net.delivered_bytes_by_tag(l as u32).to_bits(), launched.to_bits());
            assert_eq!(net.carried_bytes(r).to_bits(), launched.to_bits());
        }
    }

    #[test]
    fn stale_queue_entries_never_deliver() {
        // Cancel a flow whose completion entry is still queued, then reuse
        // its slot: the stale entry must not complete the new tenant.
        let mut net = FlowNet::new();
        let r = net.add_resource("link", 10.0);
        let f1 = net.start_flow(FlowSpec::new(vec![r], 10.0)); // would complete at 1s
        net.next_change();
        assert!(net.cancel_flow(f1));
        let f2 = net.start_flow(FlowSpec::new(vec![r], 1000.0)); // same slot, 100s
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, f2);
        assert!((done[0].0 - 100.0).abs() < 1e-6, "t={}", done[0].0);
    }

    const MIB: f64 = 1_048_576.0;

    fn drain_ns(net: &mut FlowNet) -> Vec<(u64, FlowId)> {
        drain(net).into_iter().map(|(t, id)| (SimTime::from_secs_f64(t).as_nanos(), id)).collect()
    }

    fn slot_of(id: FlowId) -> u32 {
        unpack_id(id.as_u64()).0
    }

    /// After a full drain no run may outlive its queue entry.
    fn assert_runs_released(net: &FlowNet) {
        assert!(net.events.is_empty());
        assert_eq!(net.run_backlog, 0);
        assert_eq!(net.free_runs.len(), net.runs.len(), "a run leaked");
    }

    #[test]
    fn run_element_and_tied_activation_pop_in_stamp_order() {
        // Two flows share a 2 MiB/s link: one solve predicts both as one
        // run, A (1 MiB) at 1 s and B (3 MiB) at 3 s. An activation lands
        // on B's nanosecond, pushed before the solve or after it. B's
        // element is queued only when A pops, yet it must keep the stamp
        // reserved at the solve.
        for activation_first in [true, false] {
            let mut net = FlowNet::new();
            let link = net.add_resource("link", 2.0 * MIB);
            let other = net.add_resource("other", MIB);
            let a = net.start_flow(FlowSpec::new(vec![link], MIB));
            let b = net.start_flow(FlowSpec::new(vec![link], 3.0 * MIB));
            let late = FlowSpec::new(vec![other], MIB).with_latency(SimDuration::from_millis(3000));
            let early = activation_first.then(|| net.start_flow(late.clone()));
            net.next_change();
            assert_eq!(net.runs.len(), 1, "the two predictions form one run");
            let c = early.unwrap_or_else(|| net.start_flow(late));
            let mut order = Vec::new();
            while let Some((at, ev)) = net.pop_due(3_000_000_000) {
                order.push((at, ev.slot, ev.pred == ACTIVATION));
            }
            let act = (3_000_000_000, slot_of(c), true);
            let done = (3_000_000_000, slot_of(b), false);
            let mut want = vec![(1_000_000_000, slot_of(a), false)];
            want.extend(if activation_first { [act, done] } else { [done, act] });
            assert_eq!(order, want, "activation pushed first: {activation_first}");
        }
    }

    #[test]
    fn resolve_mid_run_leaves_completions_at_closed_form_times() {
        // A (1 MiB) and B (3 MiB) share a 4 MiB/s link: one run predicts
        // 0.5 s and 1.5 s. At 0.25 s two 1 MiB/s-capped flows join, every
        // rate halves and that run goes stale; the new run predicts
        // A at 0.75 s, C and D at 2.25 s and B at 2.75 s. When A leaves, B
        // alone is re-rated (to 2 MiB/s, done at 1.75 s): C and D keep
        // their elements in the middle run, behind B's stale one.
        let mut net = FlowNet::new();
        let link = net.add_resource("link", 4.0 * MIB);
        let a = net.start_flow(FlowSpec::new(vec![link], MIB));
        let b = net.start_flow(FlowSpec::new(vec![link], 3.0 * MIB));
        assert_eq!(net.next_change(), Some(SimTime::from_nanos(500_000_000)));
        net.advance_to(SimTime::from_nanos(250_000_000));
        let capped = FlowSpec::new(vec![link], 2.0 * MIB).with_rate_cap(MIB);
        let c = net.start_flow(capped.clone());
        let d = net.start_flow(capped);
        assert_eq!(net.next_change(), Some(SimTime::from_nanos(750_000_000)));
        assert_eq!(net.runs.len(), 2);
        let first = &net.runs[0];
        assert!(
            first.elems[first.next..].iter().all(|e| !event_valid(&net.slots, &e.ev)),
            "the first run must be stale after the re-solve"
        );
        let want =
            vec![(750_000_000, a), (1_750_000_000, b), (2_250_000_000, c), (2_250_000_000, d)];
        assert_eq!(drain_ns(&mut net), want);
        assert!(net.solver_stats().queue_discards >= 3);
        assert_runs_released(&net);
    }

    #[test]
    fn cancelling_a_runs_head_or_an_inner_element_keeps_the_rest() {
        // Four flows capped at 1 MiB/s on a 16 MiB/s link never contend:
        // one run predicts 1, 2, 3 and 4 s, and a cancel re-rates nobody.
        // Cancelling the head (f1) and an inner element (f3) leaves f2 and
        // f4 on their predictions; f5 reuses f3's slot, so the run's stale
        // element for that slot must not complete it.
        let mut net = FlowNet::new();
        let link = net.add_resource("link", 16.0 * MIB);
        let spec = |mib: f64| FlowSpec::new(vec![link], mib * MIB).with_rate_cap(MIB);
        let f: Vec<FlowId> = (1..=4).map(|k| net.start_flow(spec(k as f64))).collect();
        net.next_change();
        assert_eq!(net.runs.len(), 1);
        net.advance_to(SimTime::from_nanos(500_000_000));
        assert!(net.cancel_flow(f[0]));
        assert!(net.cancel_flow(f[2]));
        let f5 = net.start_flow(spec(1.0));
        assert_eq!(slot_of(f5), slot_of(f[2]), "the new flow reuses the cancelled slot");
        let want = vec![(1_500_000_000, f5), (2_000_000_000, f[1]), (4_000_000_000, f[3])];
        assert_eq!(drain_ns(&mut net), want);
        assert_runs_released(&net);
    }

    #[test]
    fn compaction_drops_fully_stale_runs() {
        // Eight flows share a link; a ninth starts and is cancelled at the
        // same instant, forty times. Every solve re-rates everyone, so each
        // leaves a run that the next one makes wholly stale. Time never
        // advances, so nothing pops: only compaction can free those runs.
        let mut net = FlowNet::new();
        let link = net.add_resource("link", MIB);
        let long = FlowSpec::new(vec![link], 1000.0 * MIB);
        let flows: Vec<FlowId> = (0..8).map(|_| net.start_flow(long.clone())).collect();
        net.next_change();
        for _ in 0..40 {
            let x = net.start_flow(long.clone());
            net.next_change();
            assert!(net.cancel_flow(x));
            net.next_change();
            assert!(net.events.len() + net.run_backlog <= net.live * 4 + 64);
        }
        assert!(net.runs.len() < 20, "{} run slots for 81 solves", net.runs.len());
        assert!(net.solver_stats().queue_discards > 0);
        let live = net.runs.len() - net.free_runs.len();
        let valid = |r: &PredRun| r.elems[r.next..].iter().any(|e| event_valid(&net.slots, &e.ev));
        assert!(live >= 1 && net.runs.iter().filter(|r| !r.elems.is_empty()).any(valid));
        // Eight flows at 1/8 MiB/s move 1000 MiB each in 8000 s.
        let done = drain_ns(&mut net);
        let want: Vec<(u64, FlowId)> = flows.iter().map(|&id| (8_000_000_000_000, id)).collect();
        assert_eq!(done, want);
        assert_runs_released(&net);
    }

    #[test]
    fn compaction_requeues_a_run_whose_head_went_stale() {
        // Rack 0 holds four non-contending capped flows (one run: 1, 2, 3,
        // 4 s); cancelling f1 leaves that run's queued head stale with
        // valid elements behind it. Churn on rack 1 then forces a
        // compaction, which must requeue f2's element under its own stamp.
        let mut net = FlowNet::new();
        let r0 = net.add_resource_in_group("r0", 16.0 * MIB, 0);
        let r1 = net.add_resource_in_group("r1", MIB, 1);
        let spec = |mib: f64| FlowSpec::new(vec![r0], mib * MIB).with_rate_cap(MIB);
        let f: Vec<FlowId> = (1..=4).map(|k| net.start_flow(spec(k as f64))).collect();
        let long = FlowSpec::new(vec![r1], 1000.0 * MIB);
        let bg: Vec<FlowId> = (0..2).map(|_| net.start_flow(long.clone())).collect();
        // An activation at 0.5 s stays the queue's minimum, so peeking
        // never reaches the stale head; the flow then runs 1 MiB in 1 s.
        let r2 = net.add_resource_in_group("r2", MIB, 2);
        let lat = SimDuration::from_millis(500);
        let g = net.start_flow(FlowSpec::new(vec![r2], MIB).with_latency(lat));
        net.next_change();
        assert!(net.cancel_flow(f[0]));
        net.next_change();
        assert_eq!(net.runs[0].next, 0, "rack 0's run still queues its stale head");
        let discards = net.solver_stats().queue_discards;
        for _ in 0..40 {
            let x = net.start_flow(long.clone());
            net.next_change();
            assert!(net.cancel_flow(x));
            net.next_change();
        }
        assert!(net.solver_stats().queue_discards > discards, "no compaction ran");
        let run = &net.runs[0];
        assert_eq!(run.next, 1, "the stale head was not replaced");
        assert_eq!(run.elems[1].ev.slot, slot_of(f[1]));
        let mut want = vec![(1_500_000_000, g)];
        want.extend((1..4).map(|k| ((k as u64 + 1) * 1_000_000_000, f[k])));
        // The two rack-1 flows share 1 MiB/s: 2000 s each.
        want.extend(bg.iter().map(|&id| (2_000_000_000_000, id)));
        assert_eq!(drain_ns(&mut net), want);
        assert_runs_released(&net);
    }
}
