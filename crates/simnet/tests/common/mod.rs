//! Scenario driver shared by the multi-core solver tests: waves of flow
//! starts and capacity changes on independent leaf links, run at a given
//! solver worker count and traced bit for bit.

use aiacc_simnet::{FlowId, FlowNet, FlowSpec, SimDuration, SolverStats};

/// Independent leaf links. Enough that a wave of starts dirties well over
/// `PAR_SOLVE_MIN_COMPS` components, so the pool path actually engages.
pub const LINKS: usize = 12;
/// Racked mode: every `LINKS_PER_UPLINK` consecutive leaves share an
/// uplink, merging them into one solver component.
pub const LINKS_PER_UPLINK: usize = 4;

#[derive(Debug, Clone)]
pub struct WaveFlow {
    pub link: usize,
    pub bytes: f64,
    pub cap: Option<f64>,
    pub latency_ns: u64,
}

#[derive(Debug, Clone)]
pub struct Wave {
    pub flows: Vec<WaveFlow>,
    /// Leaf whose capacity is rescaled before the wave advances.
    pub retune: usize,
    pub factor: f64,
    /// Bounded number of `next_change` steps taken inside the wave, so
    /// live flows and queued predictions survive into the next wave.
    pub steps: usize,
}

/// Everything a run exposes, bit-exact. `PartialEq` on `f64` bits and ids.
#[derive(Debug, PartialEq)]
pub struct Trace {
    /// `(t_ns, completed ids)` per observed change point.
    pub completions: Vec<(u64, Vec<FlowId>)>,
    /// `(remaining, rate)` bits of every live flow, sampled after each wave.
    pub snapshots: Vec<(u64, u64)>,
}

/// Worker-independent slice of [`SolverStats`] (`par_*` legitimately
/// differs across worker counts — it records which path was taken).
pub fn deterministic_stats(s: &SolverStats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        s.recomputes,
        s.comps_solved,
        s.comps_existing,
        s.parts_solved,
        s.fill_rounds,
        s.comp_parts_max,
        s.solve_parts_max,
    )
}

/// Runs `waves` on a fresh `FlowNet` with `workers` solver workers, on
/// independent leaves or (`racked`) leaves grouped under shared uplinks,
/// then drains every flow.
pub fn run_scenario(waves: &[Wave], workers: usize, racked: bool) -> (Trace, SolverStats) {
    let mut net = FlowNet::new();
    net.set_solve_workers(Some(workers));
    // One solver partition group per leaf (and per uplink): without
    // distinct groups everything folds into a single component and the
    // parallel fan-out has nothing to distribute.
    let leaves: Vec<_> =
        (0..LINKS).map(|i| net.add_resource_in_group(format!("leaf{i}"), 1e4, i as u32)).collect();
    let uplinks: Vec<_> = if racked {
        (0..LINKS / LINKS_PER_UPLINK)
            .map(|i| net.add_resource_in_group(format!("up{i}"), 2.5e4, (LINKS + i) as u32))
            .collect()
    } else {
        Vec::new()
    };
    let path = |link: usize| {
        if racked {
            vec![leaves[link], uplinks[link / LINKS_PER_UPLINK]]
        } else {
            vec![leaves[link]]
        }
    };

    let mut trace = Trace { completions: Vec::new(), snapshots: Vec::new() };
    let mut started: Vec<FlowId> = Vec::new();
    let step = |net: &mut FlowNet, trace: &mut Trace| {
        if let Some(t) = net.next_change() {
            net.advance_to(t);
            let mut done = net.take_completed();
            done.sort();
            trace.completions.push((t.as_nanos(), done));
        }
    };
    for w in waves {
        for f in &w.flows {
            let mut spec = FlowSpec::new(path(f.link), f.bytes)
                .with_latency(SimDuration::from_nanos(f.latency_ns));
            if let Some(c) = f.cap {
                spec = spec.with_rate_cap(c);
            }
            started.push(net.start_flow(spec));
        }
        net.set_capacity(leaves[w.retune], 1e4 * w.factor);
        for _ in 0..w.steps {
            step(&mut net, &mut trace);
        }
        for &id in &started {
            if let Some(f) = net.flow(id) {
                trace.snapshots.push((f.remaining.to_bits(), f.rate.to_bits()));
            }
        }
    }
    let mut guard = 0;
    while net.flow_count() > 0 {
        guard += 1;
        assert!(guard < 20_000, "drain did not terminate");
        step(&mut net, &mut trace);
    }
    (trace, net.solver_stats())
}
