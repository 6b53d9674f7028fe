//! Differential test for lazily expanded timer runs: a simulator driven
//! with [`Simulator::schedule_run`] delivers exactly the `(time, event)`
//! sequence of one driven with the equivalent eager `schedule` loop, with
//! plain timers tied at the same nanoseconds, flows and link faults
//! interleaved, token scopes armed, empty and all-zero runs, and enough
//! queued timers mid-run to force a calendar-queue rebuild.

use aiacc_simnet::{
    Event, FaultPlan, FlowSpec, ResourceId, RunOffsets, SimDuration, SimTime, Simulator, Token,
};
use proptest::prelude::*;

const RUN_KIND: u32 = 1;
const PLAIN_KIND: u32 = 2;
/// Re-schedules the whole scenario from the instant it fires.
const SPAWN_KIND: u32 = 3;
/// Scales with exact and inexact products, so some scaled offsets land on
/// the plain timers' 10 ns grid and some do not.
const SCALES: [f64; 4] = [1.0, 0.5, 2.0, 1.37];
/// Plain timers added by the spawn: with the runs still queued, this
/// pushes the timer queue past the first rebuild trigger of its initial
/// 16-bucket wheel (`16 · 8 + 64` entries).
const SPAWN_PLAIN: u64 = 250;

#[derive(Debug, Clone)]
struct RunSpec {
    base: u64,
    offs: Vec<u64>,
    scale: f64,
    a: u32,
    scope: u32,
}

#[derive(Debug, Clone)]
struct Scenario {
    runs: Vec<RunSpec>,
    /// `(delay, b)` of plain timers.
    plain: Vec<(u64, u64)>,
    /// `(resource, bytes)` of flows started with the timers.
    flows: Vec<(usize, f64)>,
    /// `(resource, at, duration, factor)` link degradations.
    faults: Vec<(usize, u64, u64, f64)>,
    spawn_at: u64,
}

fn run_spec() -> impl Strategy<Value = RunSpec> {
    ((0..50u64, 0..4usize, 0..8u32, 0..3u32), (0..4u32, prop::collection::vec(0..40u64, 0..30)))
        .prop_map(|((base, scale, a, scope), (shape, mut offs))| {
            match shape {
                0 => offs.clear(),
                1 => offs.iter_mut().for_each(|o| *o = 0),
                _ => offs.iter_mut().for_each(|o| *o *= 10),
            }
            offs.sort_unstable();
            RunSpec { base: base * 10, offs, scale: SCALES[scale], a, scope }
        })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(run_spec(), 0..12),
        prop::collection::vec((0..80u64, 0..1000u64), 0..40),
        prop::collection::vec((0..3usize, 50.0..800.0f64), 0..8),
        prop::collection::vec((0..3usize, 0..60u64, 1..40u64, 0.0..1.0f64), 0..4),
        0..60u64,
    )
        .prop_map(|(runs, plain, flows, faults, spawn_at)| Scenario {
            runs,
            plain: plain.into_iter().map(|(d, b)| (d * 10, b)).collect(),
            flows,
            faults: faults.into_iter().map(|(r, at, d, f)| (r, at * 10, d * 10, f)).collect(),
            spawn_at: spawn_at * 10,
        })
}

/// Schedules the scenario's runs, plain timers and flows from now on.
fn schedule_all(sim: &mut Simulator, sc: &Scenario, res: &[ResourceId], lazy: bool) {
    for (i, r) in sc.runs.iter().enumerate() {
        sim.set_token_scope(r.scope);
        let base = SimDuration::from_nanos(r.base);
        let offs: Vec<(u64, SimDuration)> = r
            .offs
            .iter()
            .enumerate()
            .map(|(k, &o)| ((i * 100 + k) as u64, SimDuration::from_nanos(o)))
            .collect();
        if lazy {
            sim.schedule_run(base, &RunOffsets::new(offs), r.scale, RUN_KIND, r.a);
        } else {
            for (b, off) in offs {
                sim.schedule(base + off.mul_f64(r.scale), Token::new(RUN_KIND, r.a, b));
            }
        }
        sim.set_token_scope(0);
    }
    for &(delay, b) in &sc.plain {
        sim.schedule(SimDuration::from_nanos(delay), Token::new(PLAIN_KIND, 0, b));
    }
    for &(r, bytes) in &sc.flows {
        sim.start_flow(FlowSpec::new(vec![res[r]], bytes));
    }
}

/// Runs the scenario to quiescence and returns every delivered event.
fn drive(sc: &Scenario, lazy: bool) -> Vec<(u64, Event)> {
    let mut sim = Simulator::new();
    let res: Vec<ResourceId> =
        (0..3).map(|i| sim.net_mut().add_resource(format!("r{i}"), 1.0e9)).collect();
    let mut plan = FaultPlan::new();
    for &(r, at, dur, factor) in &sc.faults {
        plan = plan.degrade_link(
            res[r],
            factor,
            SimTime::from_nanos(at),
            Some(SimDuration::from_nanos(dur)),
        );
    }
    sim.install_faults(&plan);
    schedule_all(&mut sim, sc, &res, lazy);
    sim.schedule(SimDuration::from_nanos(sc.spawn_at), Token::new(SPAWN_KIND, 0, 0));
    let mut log = Vec::new();
    while let Some((t, ev)) = sim.next_event() {
        log.push((t.as_nanos(), ev));
        if let Event::Timer(tok) = ev {
            if tok.base_kind() == SPAWN_KIND {
                schedule_all(&mut sim, sc, &res, lazy);
                for b in 0..SPAWN_PLAIN {
                    sim.schedule(
                        SimDuration::from_nanos(b % 97 * 10),
                        Token::new(PLAIN_KIND, 1, b),
                    );
                }
            }
        }
    }
    log
}

proptest! {
    #[test]
    fn lazy_runs_deliver_the_eager_event_sequence(sc in scenario()) {
        let eager = drive(&sc, false);
        let lazy = drive(&sc, true);
        prop_assert_eq!(lazy.len(), eager.len());
        prop_assert_eq!(lazy, eager);
    }
}

#[test]
fn scoped_runs_carry_the_scope_and_empty_runs_take_no_slot() {
    let offs = RunOffsets::new(vec![(5, SimDuration::ZERO), (6, SimDuration::ZERO)]);
    let mut sim = Simulator::new();
    sim.set_token_scope(3);
    sim.schedule_run(SimDuration::from_nanos(10), &offs, 1.0, RUN_KIND, 1);
    sim.schedule_run(SimDuration::ZERO, &RunOffsets::new(Vec::new()), 1.0, RUN_KIND, 2);
    sim.set_token_scope(0);
    sim.schedule(SimDuration::from_nanos(10), Token::new(PLAIN_KIND, 0, 0));
    let got: Vec<_> = std::iter::from_fn(|| sim.next_event()).collect();
    let scoped = RUN_KIND | 3 << aiacc_simnet::TOKEN_SCOPE_SHIFT;
    let at = SimTime::from_nanos(10);
    assert_eq!(
        got,
        vec![
            (at, Event::Timer(Token::new(scoped, 1, 5))),
            (at, Event::Timer(Token::new(scoped, 1, 6))),
            (at, Event::Timer(Token::new(PLAIN_KIND, 0, 0))),
        ]
    );
    assert_eq!(sim.timer_run_slots(), 1, "the empty run took a slot");
}

#[test]
#[should_panic(expected = "non-decreasing")]
fn decreasing_offsets_are_rejected() {
    let _ = RunOffsets::new(vec![(0, SimDuration::from_nanos(2)), (1, SimDuration::from_nanos(1))]);
}
