//! The fabric scale figure: nodes × concurrent flows on the racked
//! (rack/spine) fabric, up to 1024 nodes and 100k flows, with the event
//! hashes that pin the partitioned max-min solver and the calendar-queue
//! event core.
//!
//! Each curve cell builds an 8-nodes-per-rack cluster with a
//! 2:1-oversubscribed ToR/spine tier and drives a steady-state workload:
//! every node runs `STREAMS_PER_NODE` rack-local streams against its pair
//! neighbour (restarted the moment they complete), and each rack keeps one
//! intermittent cross-rack stream at ~10 % duty (restarted by timer), so the
//! solver sees mostly-independent per-pair components with occasional
//! ToR/spine merges. Every event is folded into an FNV-1a hash.
//!
//! Two oracles ride along. The equivalence cell runs one curve cell under
//! the partitioned and the flat ([`SolveMode::Full`]) solver. The
//! bulk-synchronous cell (uniform-byte rounds behind a barrier in the cell
//! loop) runs under the same two solvers. Wall-clock readings go to stderr
//! only; the table holds the deterministic fields.

use crate::report::Table;
use aiacc_cluster::{ClusterNet, ClusterSpec, GpuSpec, NicSpec, NodeSpec, RackSpec};
use aiacc_simnet::{
    par, Event, FlowId, SimDuration, SimTime, Simulator, SolveMode, SolverStats, Token,
};
use std::collections::HashMap;
use std::time::Instant;

/// Rack-local streams each node keeps in flight (102 400 concurrent flows
/// at 1024 nodes).
const STREAMS_PER_NODE: usize = 100;
const NODES_PER_RACK: usize = 8;
/// Fair-share rate of one rack-local stream: the 3.75 GB/s NIC split
/// `STREAMS_PER_NODE` ways.
const LOCAL_RATE: f64 = 3.75e9 / STREAMS_PER_NODE as f64;
/// One cross-rack burst: ~50 ms at the stream's max-min share of its source
/// NIC (it queues behind the `STREAMS_PER_NODE` local streams on `node_tx`,
/// so its share is ~`LOCAL_RATE`, not the single-stream cap). Keeping
/// bursts short keeps the spine-merged solver component intermittent.
const CROSS_BYTES: f64 = 1.875e6;

/// The bulk-synchronous cell's runs: the partitioned solver, then the flat
/// oracle.
const SYNC_MODES: [SolveMode; 2] = [SolveMode::Partitioned, SolveMode::Full];

/// Largest cell's wall-clock budget per simulated second: catches an
/// order-of-magnitude slide of the event core (the quick 1024-node cell
/// runs at ~40–110 wall-s per simulated second) on slow shared hosts.
const WALL_BUDGET_PER_SIM_S: f64 = 600.0;

/// The cells one scale figure runs.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSizes {
    /// Curve cells as (nodes, simulated seconds). Larger cells simulate
    /// less time. The smallest horizon must clear the longest rack-local
    /// transfer (~0.2 s) or a cell would report zero events.
    pub curve: &'static [(usize, f64)],
    /// The partitioned-vs-flat equivalence cell: (nodes, simulated seconds).
    pub equivalence: (usize, f64),
    /// The bulk-synchronous cell: (nodes, rounds).
    pub sync: (usize, u64),
}

/// The full-size figure.
pub const SCALE_FULL: ScaleSizes = ScaleSizes {
    curve: &[(16, 2.0), (64, 1.0), (256, 0.5), (1024, 0.25)],
    equivalence: (64, 0.5),
    sync: (1024, 12),
};

/// Short horizons for `--quick`: still a 1024-node cell and sync cell.
pub const SCALE_QUICK: ScaleSizes = ScaleSizes {
    curve: &[(16, 0.25), (64, 0.25), (1024, 0.25)],
    equivalence: (64, 0.2),
    sync: (1024, 3),
};

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Deterministic pseudo-random fraction in `[0, 1)` from a seed.
fn frac(seed: u64) -> f64 {
    (lcg(seed) >> 40) as f64 / (1u64 << 24) as f64
}

fn fnv1a(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[derive(Debug, Clone)]
struct Stream {
    src: usize,
    dst: usize,
    /// `true`: rack-crossing, timer-restarted at ~10 % duty.
    cross: bool,
    launches: u64,
}

/// What one cell measured.
#[derive(Debug, Clone)]
struct CellResult {
    nodes: usize,
    racks: usize,
    sim_s: f64,
    peak_flows: usize,
    events: u64,
    completions: u64,
    hash: u64,
    stats: SolverStats,
    /// Machine-dependent.
    wall_s: f64,
}

impl CellResult {
    /// The fields that depend on neither the solve mode nor the machine.
    fn deterministic(&self) -> (usize, usize, u64, usize, u64, u64, u64) {
        let (sim_s, flows) = (self.sim_s.to_bits(), self.peak_flows);
        (self.nodes, self.racks, sim_s, flows, self.events, self.completions, self.hash)
    }

    fn wall_per_sim_s(&self) -> f64 {
        self.wall_s / self.sim_s
    }
}

fn local_bytes(stream: u64, launch: u64) -> f64 {
    // 50–200 ms of fair-share transfer, varied per stream and per launch so
    // completions de-synchronize.
    LOCAL_RATE * (0.05 + 0.15 * frac(stream * 31 + launch))
}

/// A racked cluster of `nodes` single-V100 nodes on 30 Gbps TCP, with the
/// solve mode set before the fabric is built.
fn racked_fabric(nodes: usize, mode: SolveMode) -> (Simulator, ClusterNet, usize) {
    let mut sim = Simulator::new();
    sim.net_mut().set_solve_mode(mode);
    let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
    let spec = ClusterSpec::new(nodes, node)
        .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
    let racks = spec.nracks();
    let cluster = ClusterNet::build(&spec, sim.net_mut());
    (sim, cluster, racks)
}

/// One steady-state curve cell: `nodes` nodes simulated for `horizon`.
fn run_cell(nodes: usize, horizon: SimDuration, mode: SolveMode) -> CellResult {
    let started = Instant::now();
    let (mut sim, cluster, racks) = racked_fabric(nodes, mode);

    // Streams 0..nodes*K are rack-local (node n ↔ its xor-pair n^1, always
    // inside the rack); the last `racks` streams hop rack r → rack r+1.
    let mut streams = Vec::with_capacity(nodes * STREAMS_PER_NODE + racks);
    for n in 0..nodes {
        for _ in 0..STREAMS_PER_NODE {
            streams.push(Stream { src: n, dst: n ^ 1, cross: false, launches: 0 });
        }
    }
    for r in 0..racks {
        let src = r * NODES_PER_RACK;
        let dst = ((r + 1) % racks) * NODES_PER_RACK;
        streams.push(Stream { src, dst, cross: true, launches: 0 });
    }

    let mut by_flow: HashMap<FlowId, usize> = HashMap::with_capacity(streams.len());
    let launch = |sim: &mut Simulator, st: &mut Stream, s: usize| -> FlowId {
        let bytes = if st.cross { CROSS_BYTES } else { local_bytes(s as u64, st.launches) };
        st.launches += 1;
        sim.start_flow(cluster.node_path(st.src, st.dst).flow(bytes))
    };
    for (s, stream) in streams.iter_mut().enumerate() {
        let id = launch(&mut sim, stream, s);
        by_flow.insert(id, s);
    }

    let horizon = SimTime::ZERO + horizon;
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let (mut events, mut completions, mut peak_flows) = (0u64, 0u64, 0usize);
    while let Some((t, ev)) = sim.next_event() {
        if t > horizon {
            break;
        }
        events += 1;
        peak_flows = peak_flows.max(sim.net_mut().flow_count());
        match ev {
            Event::FlowCompleted(id) => {
                let s = by_flow.remove(&id).expect("unknown flow completed");
                completions += 1;
                fnv1a(&mut hash, t.as_nanos());
                fnv1a(&mut hash, 1);
                fnv1a(&mut hash, s as u64);
                if t < horizon {
                    let st = &mut streams[s];
                    if st.cross {
                        // ~10 % duty: idle ≈ 9× the ~50 ms burst, jittered
                        // per rack so the cross flows de-synchronize.
                        let idle = 0.35 + 0.2 * frac(s as u64 * 977 + st.launches);
                        sim.schedule_at(
                            t + SimDuration::from_secs_f64(idle),
                            Token::new(1, s as u32, 0),
                        );
                    } else {
                        let id = launch(&mut sim, &mut streams[s], s);
                        by_flow.insert(id, s);
                    }
                }
            }
            Event::Timer(tok) => {
                let s = tok.a as usize;
                fnv1a(&mut hash, t.as_nanos());
                fnv1a(&mut hash, 2);
                fnv1a(&mut hash, s as u64);
                if t < horizon {
                    let id = launch(&mut sim, &mut streams[s], s);
                    by_flow.insert(id, s);
                }
            }
            Event::Fault(_) => unreachable!("no fault plan installed"),
        }
    }

    let sim_s = (horizon - SimTime::ZERO).as_secs_f64();
    cell_result(&mut sim, (nodes, racks, sim_s), (peak_flows, events, completions, hash), started)
}

fn cell_result(
    sim: &mut Simulator,
    (nodes, racks, sim_s): (usize, usize, f64),
    (peak_flows, events, completions, hash): (usize, u64, u64, u64),
    started: Instant,
) -> CellResult {
    let stats = sim.net_mut().solver_stats();
    let wall_s = started.elapsed().as_secs_f64();
    CellResult { nodes, racks, sim_s, peak_flows, events, completions, hash, stats, wall_s }
}

/// Streams per node in the bulk-synchronous cell — same 102 400 concurrent
/// flows at 1024 nodes as the steady-state workload.
const SYNC_STREAMS_PER_NODE: usize = 100;
/// Per-stream rate-cap tiers as fractions of the equal-split fair share
/// (`0.0` = uncapped). Capped tiers finish a round's uniform transfer at
/// staggered instants, so each round produces four *simultaneous* bursts of
/// ~a quarter of all flows — the bulk-synchronous shape a synchronized
/// all-reduce round imposes: thousands of completions at one instant, each
/// burst dirtying many components at once.
const SYNC_TIERS: [f64; 4] = [0.4, 0.6, 0.8, 0.0];

/// One bulk-synchronous cell: every node keeps `SYNC_STREAMS_PER_NODE`
/// streams to its xor-pair neighbour; all streams of a round move the same
/// byte count and the next round launches only when every stream of the
/// current one has completed (a barrier in the cell loop, like sync-SGD).
fn run_sync_cell(nodes: usize, rounds: u64, mode: SolveMode) -> CellResult {
    let started = Instant::now();
    let (mut sim, cluster, racks) = racked_fabric(nodes, mode);

    let total = nodes * SYNC_STREAMS_PER_NODE;
    let fair = 3.75e9 / SYNC_STREAMS_PER_NODE as f64;
    let mut by_flow: HashMap<FlowId, usize> = HashMap::with_capacity(total);
    let launch_round = |sim: &mut Simulator, by_flow: &mut HashMap<FlowId, usize>, round: u64| {
        // Uniform bytes per round (varied across rounds): within a cap
        // tier every flow finishes at the same instant.
        let bytes = fair * (0.04 + 0.02 * frac(round));
        for s in 0..total {
            let (n, k) = (s / SYNC_STREAMS_PER_NODE, s % SYNC_STREAMS_PER_NODE);
            let mut fs = cluster.node_path(n, n ^ 1).flow(bytes);
            let tier = SYNC_TIERS[k % SYNC_TIERS.len()];
            if tier > 0.0 {
                fs = fs.with_rate_cap(fair * tier);
            }
            by_flow.insert(sim.start_flow(fs), s);
        }
    };

    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let (mut events, mut completions, mut peak_flows) = (0u64, 0u64, 0usize);
    let (mut round, mut live) = (0u64, total);
    let mut end = SimTime::ZERO;
    launch_round(&mut sim, &mut by_flow, round);
    // Sample concurrency at round start: completed flows free their slots
    // during the event drain, before the cell loop sees the completions.
    peak_flows = peak_flows.max(sim.net_mut().flow_count());
    while let Some((t, ev)) = sim.next_event() {
        events += 1;
        match ev {
            Event::FlowCompleted(id) => {
                let s = by_flow.remove(&id).expect("unknown flow completed");
                completions += 1;
                live -= 1;
                fnv1a(&mut hash, t.as_nanos());
                fnv1a(&mut hash, 1);
                fnv1a(&mut hash, s as u64);
                if live == 0 {
                    end = t;
                    round += 1;
                    if round < rounds {
                        launch_round(&mut sim, &mut by_flow, round);
                        live = total;
                        peak_flows = peak_flows.max(sim.net_mut().flow_count());
                    }
                }
            }
            _ => unreachable!("sync cell schedules no timers or faults"),
        }
    }

    let sim_s = (end - SimTime::ZERO).as_secs_f64();
    cell_result(&mut sim, (nodes, racks, sim_s), (peak_flows, events, completions, hash), started)
}

/// Every cell of one scale figure.
struct ScaleRuns {
    /// The steady-state curve, partitioned solver, in [`ScaleSizes::curve`]
    /// order.
    curve: Vec<CellResult>,
    /// The equivalence cell, partitioned then flat.
    equivalence: [CellResult; 2],
    /// The bulk-synchronous cell, partitioned then flat.
    sync: [CellResult; 2],
}

/// Runs every cell of `sizes`. The curve fans out through `par::map`; the
/// equivalence and sync cells run after it returns.
fn scale_runs(sizes: &ScaleSizes) -> ScaleRuns {
    let curve = par::map(sizes.curve, |&(nodes, sim_s)| {
        run_cell(nodes, SimDuration::from_secs_f64(sim_s), SolveMode::Partitioned)
    });
    let (eq_nodes, eq_secs) = sizes.equivalence;
    let equivalence = [SolveMode::Partitioned, SolveMode::Full]
        .map(|mode| run_cell(eq_nodes, SimDuration::from_secs_f64(eq_secs), mode));
    let (sync_nodes, rounds) = sizes.sync;
    let sync = SYNC_MODES.map(|mode| run_sync_cell(sync_nodes, rounds, mode));
    ScaleRuns { curve, equivalence, sync }
}

/// The fabric gates: the largest cell reaches 1024 nodes and 100k flows
/// within the wall-clock budget; the partitioned solver matches the flat
/// one while solving fewer components on the equivalence cell, and matches
/// it on the 1024-node sync cell. Wall-clock readings go to stderr.
fn check_fabric_scale(r: &ScaleRuns) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for c in &r.curve {
        eprintln!(
            "[fig_scale] {} nodes: {:.1} wall-s per simulated s, {:.0} events/wall-s \
             (host_cpus {host_cpus})",
            c.nodes,
            c.wall_per_sim_s(),
            c.events as f64 / c.wall_s
        );
    }
    let big = r.curve.iter().max_by_key(|c| c.nodes).expect("at least one cell");
    assert!(big.nodes >= 1024, "largest cell below 1024 nodes");
    assert!(
        big.peak_flows >= 100_000,
        "1024-node cell peaked at {} concurrent flows (< 100k)",
        big.peak_flows
    );
    assert!(
        big.wall_per_sim_s() <= WALL_BUDGET_PER_SIM_S,
        "{}-node cell took {:.1} wall-s per simulated second (budget {WALL_BUDGET_PER_SIM_S})",
        big.nodes,
        big.wall_per_sim_s()
    );

    let [part, flat] = &r.equivalence;
    assert_eq!(
        part.deterministic(),
        flat.deterministic(),
        "partitioned solver diverged from flat: {:016x} vs {:016x}",
        part.hash,
        flat.hash
    );
    assert!(
        part.stats.comps_solved < flat.stats.comps_solved,
        "partitioned mode did not skip any component solves ({} vs {})",
        part.stats.comps_solved,
        flat.stats.comps_solved
    );

    let [sync, sync_flat] = &r.sync;
    assert_eq!(
        sync.deterministic(),
        sync_flat.deterministic(),
        "sync-round cell diverged between the partitioned and the flat solver"
    );
    assert!(
        sync.nodes >= 1024 && sync.peak_flows >= 100_000,
        "sync cell peaked at {} concurrent flows on {} nodes (< 100k on 1024)",
        sync.peak_flows,
        sync.nodes
    );
    eprintln!(
        "[fig_scale] sync cell wall-s, partitioned / flat: {:.3} / {:.3} (host_cpus {host_cpus})",
        sync.wall_s, sync_flat.wall_s
    );
}

/// The scale figure: the curve, the equivalence pair and the sync pair as
/// one table. Panics if the cells fail the fabric gates (1024 nodes, 100k
/// flows, wall budget, solver equivalence).
pub fn fig_scale(sizes: &ScaleSizes) -> Table {
    let runs = scale_runs(sizes);
    check_fabric_scale(&runs);
    scale_table(&runs)
}

/// Renders the scale figure's rows. The gates only hold at the sizes
/// `repro` runs, so the determinism test renders tiny runs through here.
fn scale_table(r: &ScaleRuns) -> Table {
    let mut t = Table::new(
        "Fabric scale: 1 V100 + 30 Gbps TCP per node, 8 nodes/rack, 2:1 ToR/spine; \
         100 rack-local streams per node + 1 cross-rack stream per rack (curve), \
         uniform-byte rounds behind a barrier (sync)",
        &[
            "run",
            "solver",
            "nodes",
            "racks",
            "sim_s",
            "peak_flows",
            "events",
            "completions",
            "event_hash",
            "recomputes",
            "comps_solved",
            "comps_existing",
            "comp_solve_ratio",
            "comp_parts_max",
        ],
    );
    let mut row = |run: &str, mode: SolveMode, c: &CellResult| {
        let s = &c.stats;
        let ratio = if s.comps_existing == 0 {
            0.0
        } else {
            s.comps_solved as f64 / s.comps_existing as f64
        };
        t.push(vec![
            run.to_string(),
            if mode == SolveMode::Full { "full" } else { "partitioned" }.to_string(),
            c.nodes.to_string(),
            c.racks.to_string(),
            c.sim_s.to_string(),
            c.peak_flows.to_string(),
            c.events.to_string(),
            c.completions.to_string(),
            format!("{:016x}", c.hash),
            s.recomputes.to_string(),
            s.comps_solved.to_string(),
            s.comps_existing.to_string(),
            format!("{ratio:.4}"),
            s.comp_parts_max.to_string(),
        ]);
    };
    for c in &r.curve {
        row("curve", SolveMode::Partitioned, c);
    }
    for (mode, c) in [SolveMode::Partitioned, SolveMode::Full].into_iter().zip(&r.equivalence) {
        row("equivalence", mode, c);
    }
    for (mode, c) in SYNC_MODES.into_iter().zip(&r.sync) {
        row("sync", mode, c);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ScaleSizes =
        ScaleSizes { curve: &[(16, 0.25), (24, 0.25)], equivalence: (16, 0.25), sync: (16, 2) };

    #[test]
    fn figure_is_deterministic() {
        let (a, b) = (scale_table(&scale_runs(&TINY)), scale_table(&scale_runs(&TINY)));
        assert_eq!(a.rows.len(), TINY.curve.len() + 2 + SYNC_MODES.len());
        assert_eq!(a.rows, b.rows, "scale figure must be reproducible");
    }

    #[test]
    fn partitioned_cell_matches_flat_with_fewer_solves() {
        let horizon = SimDuration::from_secs_f64(0.25);
        let part = run_cell(16, horizon, SolveMode::Partitioned);
        let flat = run_cell(16, horizon, SolveMode::Full);
        assert!(part.events > 0);
        assert_eq!(part.deterministic(), flat.deterministic());
        assert!(part.stats.comps_solved < flat.stats.comps_solved);
        assert_eq!(flat.stats.comps_solved, flat.stats.comps_existing);
    }

    #[test]
    fn sync_cell_is_identical_across_solvers() {
        let [part, flat] = SYNC_MODES.map(|mode| run_sync_cell(16, 2, mode));
        assert_eq!(part.completions, 2 * 16 * SYNC_STREAMS_PER_NODE as u64);
        assert_eq!(part.deterministic(), flat.deterministic());
        assert!(part.stats.comps_solved < flat.stats.comps_solved);
    }
}
