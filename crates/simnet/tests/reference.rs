//! A whole-run oracle for the fluid network: a naive reference simulator,
//! written from the model's definitions alone, driven side by side with
//! [`Simulator`] on the same seeded scripts.
//!
//! The reference keeps a plain `Vec` of flows. At every step it settles
//! every active flow eagerly and re-runs textbook progressive filling from
//! scratch; the next step is the earliest activation, completion, timer or
//! fault action, found by a linear scan. It has no calendar queue, no
//! components, no stamps and no lazy settling, so it shares no code with
//! the event core it checks. Only the model's definitions are common: a
//! completion lands on the first nanosecond by which the flow's bytes have
//! run out, within two nanoseconds' worth of data (at least 1e-3 bytes),
//! and at one instant faults apply before timers fire, timers before flow
//! changes, and completions go out in start order.
//!
//! The scripts cover flat and racked topologies, flows started at time
//! zero, from timers and from completions (restart-on-complete, as the
//! fabric-scale cells do), hop latencies, absolute rate caps and per-flow
//! link shares, link degradations and flaps, and cancels. Both sides must
//! complete the same `(flow, time)` pairs, with times equal up to the
//! nanosecond rounding of a 1e-9 relative difference, in the same order
//! except among exact ties.

use aiacc_simnet::{
    Event, FaultPlan, FlowId, FlowSpec, ResourceId, SimDuration, SimTime, Simulator, Token,
};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;

/// A flow's script identity: `(lane, round)`.
type Key = (usize, u32);

/// How a lane starts its next round once the current one completes (or is
/// cancelled).
#[derive(Debug, Clone, Copy)]
enum Restart {
    /// From the completion handler, at the completion instant.
    OnCompletion,
    /// From a timer this many nanoseconds later.
    AfterGap(u64),
}

/// A lane: a chain of `rounds` flows between two nodes, one at a time.
#[derive(Debug, Clone)]
struct Lane {
    src: usize,
    dst: usize,
    bytes: f64,
    cap: Option<f64>,
    latency_ns: u64,
    /// `None`: the first round starts before the run; `Some(t)`: from a
    /// timer at `t`.
    start_ns: Option<u64>,
    restart: Restart,
    rounds: u32,
}

impl Lane {
    fn bytes(&self, round: u32) -> f64 {
        self.bytes * (1.0 + 0.375 * round as f64)
    }
}

/// A link fault: `factor == 0` is a flap.
#[derive(Debug, Clone, Copy)]
struct Fault {
    res: usize,
    at: u64,
    dur: u64,
    factor: f64,
}

#[derive(Debug, Clone)]
struct Script {
    /// `1` is the flat topology: every resource in group 0, no uplinks.
    racks: usize,
    nodes_per_rack: usize,
    nic: f64,
    /// Per-flow share of each node's transmit port, if limited.
    tx_share: Option<f64>,
    lanes: Vec<Lane>,
    faults: Vec<Fault>,
    /// `(lane, at)`: cancel the lane's flow in flight, if any, and start its
    /// next round at once.
    cancels: Vec<(usize, u64)>,
}

/// The script's resources: per node a transmit and a receive port, and on
/// racked topologies per rack an uplink and a downlink at half the rack's
/// NIC bandwidth (2:1 oversubscription). Returns `(capacity, group)` in
/// creation order.
fn resources(s: &Script) -> Vec<(f64, u32)> {
    let nodes = s.racks * s.nodes_per_rack;
    let mut out = Vec::new();
    for n in 0..nodes {
        let g = (n / s.nodes_per_rack) as u32;
        out.push((s.nic, g)); // tx 2n
        out.push((s.nic, g)); // rx 2n + 1
    }
    if s.racks > 1 {
        let trunk = s.nic * s.nodes_per_rack as f64 / 2.0;
        for r in 0..s.racks {
            out.push((trunk, r as u32)); // up
            out.push((trunk, r as u32)); // down
        }
    }
    out
}

/// Resource indices on a lane's path.
fn path(s: &Script, lane: &Lane) -> Vec<usize> {
    if lane.src == lane.dst {
        return vec![2 * lane.src];
    }
    let (rs, rd) = (lane.src / s.nodes_per_rack, lane.dst / s.nodes_per_rack);
    if rs == rd {
        vec![2 * lane.src, 2 * lane.dst + 1]
    } else {
        let up = 2 * s.racks * s.nodes_per_rack;
        vec![2 * lane.src, up + 2 * rs, up + 2 * rd + 1, 2 * lane.dst + 1]
    }
}

/// What the shared script logic asks a fabric to do.
trait Fabric {
    fn now(&self) -> u64;
    fn start(&mut self, key: Key, path: Vec<usize>, bytes: f64, cap: Option<f64>, latency: u64);
    /// Whether the flow was still in flight.
    fn cancel(&mut self, key: Key) -> bool;
    fn start_timer(&mut self, at: u64, key: Key);
    fn cancel_timer(&mut self, at: u64, lane: usize);
}

/// Script semantics, shared by both sides (this is the script, not the
/// network model).
struct Driver<'a> {
    s: &'a Script,
    /// The round of each lane's flow in flight.
    in_flight: Vec<Option<u32>>,
    completions: Vec<(Key, u64)>,
}

impl<'a> Driver<'a> {
    fn new(s: &'a Script) -> Self {
        Driver { s, in_flight: vec![None; s.lanes.len()], completions: Vec::new() }
    }

    fn setup(&mut self, f: &mut impl Fabric) {
        for (i, lane) in self.s.lanes.iter().enumerate() {
            match lane.start_ns {
                None => self.start_round(f, (i, 0)),
                Some(at) => f.start_timer(at, (i, 0)),
            }
        }
        for &(lane, at) in &self.s.cancels {
            f.cancel_timer(at, lane);
        }
    }

    fn start_round(&mut self, f: &mut impl Fabric, (lane, round): Key) {
        let l = &self.s.lanes[lane];
        f.start((lane, round), path(self.s, l), l.bytes(round), l.cap, l.latency_ns);
        self.in_flight[lane] = Some(round);
    }

    fn next_round(&mut self, f: &mut impl Fabric, (lane, round): Key) {
        self.in_flight[lane] = None;
        if round + 1 >= self.s.lanes[lane].rounds {
            return;
        }
        match self.s.lanes[lane].restart {
            Restart::OnCompletion => self.start_round(f, (lane, round + 1)),
            Restart::AfterGap(gap) => f.start_timer(f.now() + gap, (lane, round + 1)),
        }
    }

    fn on_completion(&mut self, f: &mut impl Fabric, key: Key) {
        assert_eq!(self.in_flight[key.0], Some(key.1), "completion of a flow not in flight");
        self.completions.push((key, f.now()));
        self.next_round(f, key);
    }

    fn on_cancel(&mut self, f: &mut impl Fabric, lane: usize) {
        if let Some(round) = self.in_flight[lane] {
            assert!(f.cancel((lane, round)), "lane {lane} round {round} not in the fabric");
            self.start_round_or_finish(f, (lane, round));
        }
    }

    /// A cancelled round is replaced by the next one at once.
    fn start_round_or_finish(&mut self, f: &mut impl Fabric, (lane, round): Key) {
        self.in_flight[lane] = None;
        if round + 1 < self.s.lanes[lane].rounds {
            self.start_round(f, (lane, round + 1));
        }
    }
}

// ---------------------------------------------------------------------------
// The simulator under test.

const START_KIND: u32 = 1;
const CANCEL_KIND: u32 = 2;

struct SimFabric {
    sim: Simulator,
    res: Vec<ResourceId>,
    ids: HashMap<Key, FlowId>,
    keys: HashMap<FlowId, Key>,
}

impl Fabric for SimFabric {
    fn now(&self) -> u64 {
        self.sim.now().as_nanos()
    }
    fn start(&mut self, key: Key, path: Vec<usize>, bytes: f64, cap: Option<f64>, latency: u64) {
        let mut spec = FlowSpec::new(path.iter().map(|&r| self.res[r]).collect(), bytes)
            .with_latency(SimDuration::from_nanos(latency));
        if let Some(c) = cap {
            spec = spec.with_rate_cap(c);
        }
        let id = self.sim.start_flow(spec);
        self.ids.insert(key, id);
        self.keys.insert(id, key);
    }
    fn cancel(&mut self, key: Key) -> bool {
        let id = self.ids.remove(&key).expect("started");
        self.keys.remove(&id);
        self.sim.cancel_flow(id)
    }
    fn start_timer(&mut self, at: u64, (lane, round): Key) {
        self.sim.schedule_at(
            SimTime::from_nanos(at),
            Token::new(START_KIND, lane as u32, round as u64),
        );
    }
    fn cancel_timer(&mut self, at: u64, lane: usize) {
        self.sim.schedule_at(SimTime::from_nanos(at), Token::new(CANCEL_KIND, lane as u32, 0));
    }
}

fn run_simulator(s: &Script) -> Vec<(Key, u64)> {
    let mut sim = Simulator::new();
    let res: Vec<ResourceId> = resources(s)
        .iter()
        .enumerate()
        .map(|(i, &(cap, g))| {
            if s.racks == 1 {
                sim.net_mut().add_resource(format!("r{i}"), cap)
            } else {
                sim.net_mut().add_resource_in_group(format!("r{i}"), cap, g)
            }
        })
        .collect();
    if let Some(share) = s.tx_share {
        for n in 0..s.racks * s.nodes_per_rack {
            sim.net_mut().set_flow_share(res[2 * n], Some(share));
        }
    }
    let mut plan = FaultPlan::new();
    for f in &s.faults {
        let (at, dur) = (SimTime::from_nanos(f.at), SimDuration::from_nanos(f.dur));
        plan = if f.factor == 0.0 {
            plan.flap_link(res[f.res], at, dur)
        } else {
            plan.degrade_link(res[f.res], f.factor, at, Some(dur))
        };
    }
    sim.install_faults(&plan);
    let mut fab = SimFabric { sim, res, ids: HashMap::new(), keys: HashMap::new() };
    let mut d = Driver::new(s);
    d.setup(&mut fab);
    while let Some((_, ev)) = fab.sim.next_event() {
        match ev {
            Event::Timer(t) if t.kind == START_KIND => {
                d.start_round(&mut fab, (t.a as usize, t.b as u32))
            }
            Event::Timer(t) => d.on_cancel(&mut fab, t.a as usize),
            Event::FlowCompleted(id) => {
                let key = fab.keys.remove(&id).expect("completion of an unknown flow");
                fab.ids.remove(&key);
                d.on_completion(&mut fab, key);
            }
            Event::Fault(_) => {}
        }
    }
    d.completions
}

// ---------------------------------------------------------------------------
// The reference.

#[derive(Debug, Clone)]
struct RefFlow {
    key: Key,
    path: Vec<usize>,
    remaining: f64,
    cap: f64,
    active_at: u64,
    rate: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RefTimer {
    Start(Key),
    Cancel(usize),
}

/// One half of a fault: `(at, resource, fault index, applies)`.
type FaultAction = (u64, usize, usize, bool);

struct RefFabric {
    base: Vec<f64>,
    capacity: Vec<f64>,
    share: Vec<Option<f64>>,
    /// Live flows in start order.
    flows: Vec<RefFlow>,
    now: u64,
    /// `(at, insertion order, timer)`.
    timers: Vec<(u64, u64, RefTimer)>,
    timer_seq: u64,
    actions: Vec<FaultAction>,
    /// Factors of the faults acting on each resource, by fault index.
    acting: Vec<Vec<(usize, f64)>>,
}

impl Fabric for RefFabric {
    fn now(&self) -> u64 {
        self.now
    }
    fn start(&mut self, key: Key, path: Vec<usize>, bytes: f64, cap: Option<f64>, latency: u64) {
        self.flows.push(RefFlow {
            key,
            path,
            remaining: bytes,
            cap: cap.unwrap_or(f64::INFINITY),
            active_at: self.now + latency,
            rate: 0.0,
        });
    }
    fn cancel(&mut self, key: Key) -> bool {
        let before = self.flows.len();
        self.flows.retain(|f| f.key != key);
        self.flows.len() < before
    }
    fn start_timer(&mut self, at: u64, key: Key) {
        self.timer_seq += 1;
        self.timers.push((at, self.timer_seq, RefTimer::Start(key)));
    }
    fn cancel_timer(&mut self, at: u64, lane: usize) {
        self.timer_seq += 1;
        self.timers.push((at, self.timer_seq, RefTimer::Cancel(lane)));
    }
}

impl RefFabric {
    fn is_active(&self, f: &RefFlow) -> bool {
        f.active_at <= self.now
    }

    /// Textbook progressive filling over the active flows: every unfrozen
    /// flow's rate grows by the same amount until a link saturates (its
    /// flows freeze) or a flow reaches its ceiling (it freezes).
    fn fill(&mut self) {
        let n = self.flows.len();
        let ceiling: Vec<f64> = self
            .flows
            .iter()
            .map(|f| {
                let mut c = f.cap;
                for &r in &f.path {
                    if let Some(s) = self.share[r] {
                        c = c.min(s * self.capacity[r]);
                    }
                }
                c
            })
            .collect();
        let mut rate = vec![0.0f64; n];
        let mut frozen: Vec<bool> = self.flows.iter().map(|f| !self.is_active(f)).collect();
        let mut left = self.capacity.clone();
        while frozen.iter().any(|&z| !z) {
            let mut users = vec![0usize; left.len()];
            for (i, f) in self.flows.iter().enumerate() {
                if !frozen[i] {
                    for &r in &f.path {
                        users[r] += 1;
                    }
                }
            }
            let mut step = f64::INFINITY;
            for (r, &u) in users.iter().enumerate() {
                if u > 0 {
                    step = step.min(left[r].max(0.0) / u as f64);
                }
            }
            for i in 0..n {
                if !frozen[i] && ceiling[i].is_finite() {
                    step = step.min((ceiling[i] - rate[i]).max(0.0));
                }
            }
            if step.is_infinite() {
                for i in 0..n {
                    if !frozen[i] {
                        rate[i] = f64::INFINITY;
                        frozen[i] = true;
                    }
                }
                break;
            }
            for (r, &u) in users.iter().enumerate() {
                left[r] -= step * u as f64;
            }
            for i in 0..n {
                if !frozen[i] {
                    rate[i] += step;
                }
            }
            for (i, f) in self.flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let at_ceiling = ceiling[i].is_finite() && rate[i] >= ceiling[i] * (1.0 - 1e-12);
                let saturated = f.path.iter().any(|&r| left[r] <= self.capacity[r] * 1e-12);
                if at_ceiling || saturated {
                    frozen[i] = true;
                }
            }
        }
        for (f, r) in self.flows.iter_mut().zip(rate) {
            f.rate = r;
        }
    }

    /// The nanosecond on which `f` runs out of bytes at its current rate.
    fn finish_at(&self, f: &RefFlow) -> Option<u64> {
        if !self.is_active(f) {
            return None;
        }
        let slack = if f.rate.is_finite() { (f.rate * 2e-9).max(1e-3) } else { f64::INFINITY };
        if f.remaining <= slack {
            Some(self.now)
        } else if f.rate > 0.0 {
            Some(self.now + ((f.remaining / f.rate * 1e9).ceil() as u64).max(1))
        } else {
            None
        }
    }

    fn apply_fault(&mut self, (_, res, fault, applies): FaultAction, factor: f64) {
        if applies {
            self.acting[res].push((fault, factor));
        } else {
            self.acting[res].retain(|&(f, _)| f != fault);
        }
        self.capacity[res] =
            self.base[res] * self.acting[res].iter().map(|&(_, x)| x).product::<f64>();
    }
}

fn run_reference(s: &Script) -> Vec<(Key, u64)> {
    let caps: Vec<f64> = resources(s).iter().map(|&(c, _)| c).collect();
    let mut share = vec![None; caps.len()];
    if s.tx_share.is_some() {
        for n in 0..s.racks * s.nodes_per_rack {
            share[2 * n] = s.tx_share;
        }
    }
    let mut actions: Vec<FaultAction> = Vec::new();
    for (i, f) in s.faults.iter().enumerate() {
        actions.push((f.at, f.res, i, true));
        actions.push((f.at + f.dur, f.res, i, false));
    }
    actions.sort_by_key(|a| a.0);
    let mut fab = RefFabric {
        base: caps.clone(),
        capacity: caps.clone(),
        share,
        flows: Vec::new(),
        now: 0,
        timers: Vec::new(),
        timer_seq: 0,
        actions,
        acting: vec![Vec::new(); caps.len()],
    };
    let mut d = Driver::new(s);
    d.setup(&mut fab);
    let mut next_action = 0;
    loop {
        fab.fill();
        let finish: Vec<Option<u64>> = fab.flows.iter().map(|f| fab.finish_at(f)).collect();
        let mut next = u64::MAX;
        for f in &fab.flows {
            if !fab.is_active(f) {
                next = next.min(f.active_at);
            }
        }
        next = finish.iter().flatten().fold(next, |a, &b| a.min(b));
        next = fab.timers.iter().fold(next, |a, t| a.min(t.0));
        if let Some(a) = fab.actions.get(next_action) {
            next = next.min(a.0);
        }
        if next == u64::MAX {
            break;
        }
        // Settle every active flow up to `next`.
        let dt = (next - fab.now) as f64 / 1e9;
        for f in fab.flows.iter_mut() {
            if f.active_at <= fab.now && dt > 0.0 {
                let moved =
                    if f.rate.is_infinite() { f.remaining } else { (f.rate * dt).min(f.remaining) };
                f.remaining -= moved;
            }
        }
        let done: Vec<Key> = fab
            .flows
            .iter()
            .zip(&finish)
            .filter(|(_, &t)| t == Some(next))
            .map(|(f, _)| f.key)
            .collect();
        fab.now = next;
        while let Some(&a) = fab.actions.get(next_action).filter(|a| a.0 == next) {
            next_action += 1;
            fab.apply_fault(a, s.faults[a.2].factor);
        }
        fab.timers.sort_by_key(|t| (t.0, t.1));
        while fab.timers.first().is_some_and(|t| t.0 == next) {
            match fab.timers.remove(0).2 {
                RefTimer::Start(key) => d.start_round(&mut fab, key),
                RefTimer::Cancel(lane) => d.on_cancel(&mut fab, lane),
            }
        }
        // Completions in start order; a flow cancelled by a timer at this
        // instant is gone already.
        for key in done {
            if fab.cancel(key) {
                d.on_completion(&mut fab, key);
            }
        }
    }
    d.completions
}

// ---------------------------------------------------------------------------
// Scripts and the comparison.

fn lane(nodes: usize) -> impl Strategy<Value = Lane> {
    (
        (0..nodes, 0..nodes, 1e4..2e6f64, prop::option::of(1e8..1.2e9f64)),
        (0..3u32, 0..20_000u64, prop::option::of(1..400_000u64)),
        (prop::option::of(1..60_000u64), 1..6u32),
    )
        .prop_map(|((src, dst, bytes, cap), (lat, latency_ns, start_ns), (gap, rounds))| {
            Lane {
                src,
                dst,
                bytes,
                cap,
                latency_ns: if lat == 0 { 0 } else { latency_ns },
                start_ns,
                restart: gap.map_or(Restart::OnCompletion, Restart::AfterGap),
                rounds,
            }
        })
}

fn script() -> impl Strategy<Value = Script> {
    ((1..4usize, 1..4usize), (0..2usize, prop::option::of(0.3..1.0f64))).prop_flat_map(
        |((racks, per), (nic, tx_share))| {
            let nodes = racks * per;
            let nres = resources(&Script {
                racks,
                nodes_per_rack: per,
                nic: 1.0,
                tx_share: None,
                lanes: Vec::new(),
                faults: Vec::new(),
                cancels: Vec::new(),
            })
            .len();
            (
                prop::collection::vec(lane(nodes), 1..16),
                prop::collection::vec((0..nres, 0..2_000_000u64, 1..500_000u64, 0.0..0.9f64), 0..4),
                prop::collection::vec((0..16usize, 0..2_000_000u64), 0..4),
            )
                .prop_map(move |(lanes, faults, cancels)| Script {
                    racks,
                    nodes_per_rack: per,
                    nic: [1e9, 1.25e9][nic],
                    tx_share,
                    faults: faults
                        .into_iter()
                        .map(|(res, at, dur, f)| Fault {
                            res,
                            at,
                            dur,
                            factor: if f < 0.2 { 0.0 } else { f },
                        })
                        .collect(),
                    cancels: cancels.into_iter().map(|(l, at)| (l % lanes.len(), at)).collect(),
                    lanes,
                })
        },
    )
}

/// `|a − b|` within the nanosecond rounding of a 1e-9 relative difference.
fn close(a: u64, b: u64) -> bool {
    a.abs_diff(b) as f64 <= (a.max(b) as f64 * 1e-9).ceil()
}

fn check(s: &Script) -> Result<(), TestCaseError> {
    let got = run_simulator(s);
    let want = run_reference(s);
    let reference: HashMap<Key, u64> = want.iter().copied().collect();
    prop_assert_eq!(reference.len(), want.len(), "the reference completed a flow twice");
    prop_assert_eq!(got.len(), want.len(), "completion count");
    for &(key, t) in &got {
        let r = reference.get(&key);
        prop_assert!(r.is_some(), "{:?} completed at {} ns only in the simulator", key, t);
        let r = *r.unwrap();
        prop_assert!(close(t, r), "{:?}: simulator {} ns, reference {} ns", key, t, r);
    }
    for w in got.windows(2) {
        let ((ka, ta), (kb, tb)) = (w[0], w[1]);
        if ta != tb {
            prop_assert!(
                reference[&ka] <= reference[&kb],
                "order: {:?} at {} ns before {:?} at {} ns, reversed in the reference",
                ka,
                ta,
                kb,
                tb
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulator_matches_the_naive_reference(s in script()) {
        check(&s)?;
    }
}

#[test]
fn reference_matches_closed_forms() {
    // Two equal flows share one port, then the survivor speeds up; a cap
    // below the fair share holds; a 1 µs hop latency delays the start.
    // Every quantity is dyadic, so the closed forms are exact.
    const MIB: f64 = 1_048_576.0;
    let lane = |src, dst, bytes, cap, latency_ns| Lane {
        src,
        dst,
        bytes,
        cap,
        latency_ns,
        start_ns: None,
        restart: Restart::OnCompletion,
        rounds: 1,
    };
    let s = Script {
        racks: 1,
        nodes_per_rack: 2,
        nic: 1024.0 * MIB,
        tx_share: None,
        lanes: vec![
            lane(0, 1, MIB, None, 0),
            lane(0, 1, 3.0 * MIB, None, 0),
            lane(1, 0, 0.25 * MIB, Some(128.0 * MIB), 1_000),
        ],
        faults: Vec::new(),
        cancels: Vec::new(),
    };
    // Flow 0 moves 1 MiB at 512 MiB/s: 2^-9 s. Flow 1 then has 2 MiB left
    // at 1 GiB/s: another 2^-9 s. Flow 2 moves 256 KiB at its 128 MiB/s cap
    // after 1 µs.
    let want = vec![((0, 0), 1_953_125), ((2, 0), 1_954_125), ((1, 0), 3_906_250)];
    assert_eq!(run_reference(&s), want);
    check(&s).unwrap();
}
