//! `bench_scale` — the datacenter-scale gate for the hierarchical FlowNet
//! and its calendar-queue event core.
//!
//! ```text
//! bench_scale [--quick] [--jobs N] [--out FILE] [--wall-budget SECS]
//!
//! --quick            short horizons: 16/64-node cells + a 1024-node smoke
//! --jobs N           sweep worker count (default 4; output bit-identical to 1)
//! --out FILE         where to write the JSON report (default BENCH_scale.json)
//! --wall-budget S    max wall-clock seconds per simulated second for the
//!                    largest cell (CI gate; default: no gate)
//! ```
//!
//! Each cell builds an 8-nodes-per-rack cluster with a 2:1-oversubscribed
//! ToR/spine tier and drives a steady-state workload: every node runs
//! `STREAMS_PER_NODE` rack-local streams against its pair neighbour
//! (restarted the moment they complete), and each rack keeps one
//! intermittent cross-rack stream at ~10 % duty (restarted by timer), so
//! the solver sees mostly-independent per-pair components with occasional
//! ToR/spine merges. Every event is folded into an FNV-1a hash, so two runs
//! are byte-comparable. The report carries nodes × flows vs wall-clock-per-
//! simulated-second curves; trailing asserts gate (a) ≥100k concurrent
//! flows at the 1024-node cell, (b) hash equality across `--jobs 1/N`,
//! (c) hash equality between the partitioned solver and the flat
//! (`Full`-mode) solver on the 64-node cell, and (d) the optional wall
//! budget.
//!
//! A second, *bulk-synchronous* workload (uniform-byte rounds with a
//! driver-side barrier, see [`run_sync_cell`]) exercises single-run
//! multicore solving: it runs at solver worker counts 1/2/4 plus a flat
//! oracle, asserts hash equality across all four unconditionally, and —
//! on hosts with ≥4 CPUs — gates a ≥2× wall-clock speedup of 4 workers
//! over 1. All machine-dependent numbers live under `"timing"` keys, which
//! CI freshness comparison strips.

use aiacc_cluster::{ClusterNet, ClusterSpec, GpuSpec, NicSpec, NodeSpec, RackSpec};
use aiacc_simnet::{par, Event, FlowId, SimDuration, SimTime, Simulator, SolveMode, Token};
use std::collections::HashMap;
use std::fmt::Write as _;
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

#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    nodes: usize,
    racks: usize,
    sim_s: f64,
    peak_flows: usize,
    events: u64,
    completions: u64,
    hash: u64,
    recomputes: u64,
    comps_solved: u64,
    comps_existing: u64,
    /// Largest single component (participant flows) the solver ever saw.
    comp_parts_max: u64,
    /// Not compared: parallel fan-outs taken (differs across worker counts
    /// by design; every other solver counter is worker-independent).
    par_solves: u64,
    /// Not compared: wall time is machine- and load-dependent.
    wall_s: f64,
    /// Not compared: per-phase wall time (solve vs apply vs queue).
    breakdown: aiacc_simnet::SolveBreakdown,
}

impl CellResult {
    fn wall_per_sim_s(&self) -> f64 {
        self.wall_s / self.sim_s
    }

    /// Fraction of existing components the solver actually re-solved.
    fn solve_ratio(&self) -> f64 {
        if self.comps_existing == 0 {
            return 0.0;
        }
        self.comps_solved as f64 / self.comps_existing as f64
    }

    /// The mode-independent, machine-independent fields (what CI freshness
    /// and the jobs-sweep comparison look at).
    fn deterministic(&self) -> (usize, usize, u64, usize, u64, u64, u64) {
        (
            self.nodes,
            self.racks,
            self.sim_s.to_bits(),
            self.peak_flows,
            self.events,
            self.completions,
            self.hash,
        )
    }
}

fn local_bytes(stream: u64, launch: u64) -> f64 {
    // 50–200 ms of fair-share transfer, varied per stream and per launch so
    // completions de-synchronize.
    LOCAL_RATE * (0.05 + 0.15 * frac(stream * 31 + launch))
}

fn run_cell(nodes: usize, horizon: SimDuration, mode: SolveMode) -> CellResult {
    let started = Instant::now();
    let mut sim = Simulator::new();
    sim.net_mut().set_solve_mode(mode);
    let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
    let spec = ClusterSpec::new(nodes, node)
        .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
    let racks = spec.nracks();
    let cluster = ClusterNet::build(&spec, sim.net_mut());

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
        if events % 16384 == 0 && std::env::var_os("BENCH_SCALE_PROGRESS").is_some() {
            let s = sim.net_mut().solver_stats();
            eprintln!(
                "[bench_scale]   {nodes}n @ {:?}: {events} events, {:.1}s wall, \
                 {} solves, {} parts, {} rounds",
                t,
                started.elapsed().as_secs_f64(),
                s.comps_solved,
                s.parts_solved,
                s.fill_rounds
            );
        }
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

    let stats = sim.net_mut().solver_stats();
    CellResult {
        nodes,
        racks,
        sim_s: (horizon - SimTime::ZERO).as_secs_f64(),
        peak_flows,
        events,
        completions,
        hash,
        recomputes: stats.recomputes,
        comps_solved: stats.comps_solved,
        comps_existing: stats.comps_existing,
        comp_parts_max: stats.comp_parts_max,
        par_solves: stats.par_solves,
        wall_s: started.elapsed().as_secs_f64(),
        breakdown: sim.net_mut().solve_breakdown(),
    }
}

fn run_curve(cells: &[(usize, f64)]) -> Vec<CellResult> {
    par::map(cells, |&(nodes, sim_s)| {
        run_cell(nodes, SimDuration::from_secs_f64(sim_s), SolveMode::Partitioned)
    })
}

/// Streams per node in the bulk-synchronous cell — same 102 400 concurrent
/// flows at 1024 nodes as the steady-state workload.
const SYNC_STREAMS_PER_NODE: usize = 100;
/// Per-stream rate-cap tiers as fractions of the equal-split fair share
/// (`0.0` = uncapped). Capped tiers finish a round's uniform transfer at
/// staggered instants, so each round produces four *simultaneous* bursts of
/// ~a quarter of all flows — the bulk-synchronous shape a synchronized
/// all-reduce round imposes, and the shape that exercises both parallel
/// seams at once (batched settles + many-dirty-component solves).
const SYNC_TIERS: [f64; 4] = [0.4, 0.6, 0.8, 0.0];

/// One bulk-synchronous cell: every node keeps `SYNC_STREAMS_PER_NODE`
/// streams to its xor-pair neighbour; all streams of a round move the same
/// byte count and the next round launches only when every stream of the
/// current one has completed (a driver-side barrier, like sync-SGD). Runs
/// with a *fixed* solver worker count so the multicore section can compare
/// worker counts on identical work.
fn run_sync_cell(nodes: usize, rounds: u64, mode: SolveMode, solve_workers: usize) -> CellResult {
    let started = Instant::now();
    let mut sim = Simulator::new();
    sim.net_mut().set_solve_mode(mode);
    sim.net_mut().set_solve_workers(Some(solve_workers));
    let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
    let spec = ClusterSpec::new(nodes, node)
        .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
    let racks = spec.nracks();
    let cluster = ClusterNet::build(&spec, sim.net_mut());

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
    // during the event drain, before the driver sees the completions.
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

    let stats = sim.net_mut().solver_stats();
    CellResult {
        nodes,
        racks,
        sim_s: (end - SimTime::ZERO).as_secs_f64(),
        peak_flows,
        events,
        completions,
        hash,
        recomputes: stats.recomputes,
        comps_solved: stats.comps_solved,
        comps_existing: stats.comps_existing,
        comp_parts_max: stats.comp_parts_max,
        par_solves: stats.par_solves,
        wall_s: started.elapsed().as_secs_f64(),
        breakdown: sim.net_mut().solve_breakdown(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let jobs: usize =
        flag("--jobs").map(|v| v.parse().expect("--jobs needs a positive integer")).unwrap_or(4);
    assert!(jobs > 0, "--jobs needs a positive integer");
    let out = flag("--out").unwrap_or_else(|| "BENCH_scale.json".to_string());
    let wall_budget: Option<f64> =
        flag("--wall-budget").map(|v| v.parse().expect("--wall-budget needs seconds"));

    // (nodes, simulated seconds) per cell. Larger cells simulate less time:
    // the wall-per-simulated-second quotient is what the curve reports.
    // The smallest horizon must clear the longest rack-local transfer
    // (~0.2 s) or a cell would report zero events.
    let cells: Vec<(usize, f64)> = if let Some(spec) = flag("--cells") {
        spec.split(',')
            .map(|c| {
                let (n, s) = c.split_once(':').expect("--cells takes nodes:sim_s,...");
                (n.parse().expect("nodes"), s.parse().expect("sim_s"))
            })
            .collect()
    } else if quick {
        vec![(16, 0.25), (64, 0.25), (1024, 0.25)]
    } else {
        vec![(16, 2.0), (64, 1.0), (256, 0.5), (1024, 0.25)]
    };

    eprintln!("[bench_scale] curve ({} cells), serial...", cells.len());
    par::set_jobs(1);
    let serial = run_curve(&cells);
    eprintln!("[bench_scale] curve again, --jobs {jobs}...");
    par::set_jobs(jobs);
    let sweep = run_curve(&cells);
    par::set_jobs(1);
    let identical = serial.iter().zip(&sweep).all(|(a, b)| a.deterministic() == b.deterministic());

    // Solver-equivalence witness: the same 64-node cell under the
    // partitioned solver and under the flat (every-component) solver must
    // produce byte-identical event streams.
    eprintln!("[bench_scale] 64-node partitioned vs flat solver...");
    let eq_cell = (64usize, if quick { 0.2 } else { 0.5 });
    let eq_horizon = SimDuration::from_secs_f64(eq_cell.1);
    let part = run_cell(eq_cell.0, eq_horizon, SolveMode::Partitioned);
    let full = run_cell(eq_cell.0, eq_horizon, SolveMode::Full);
    let modes_identical = part.deterministic() == full.deterministic();

    let big = sweep.iter().max_by_key(|c| c.nodes).expect("at least one cell");

    // Multicore section: the bulk-synchronous 1024-node cell at solver
    // worker counts 1/2/4, plus a flat-solver oracle. Hash identity across
    // all four runs is asserted unconditionally (pool threads run even on a
    // 1-CPU host); the ≥2× speedup gate needs real cores.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sync_nodes = big.nodes;
    let sync_rounds: u64 = if quick { 3 } else { 12 };
    let worker_counts = [1usize, 2, 4];
    let mut sync_runs = Vec::with_capacity(worker_counts.len());
    for &w in &worker_counts {
        eprintln!("[bench_scale] sync-round cell ({sync_nodes}n, {sync_rounds} rounds), {w} solver worker(s)...");
        sync_runs.push(run_sync_cell(sync_nodes, sync_rounds, SolveMode::Partitioned, w));
    }
    eprintln!("[bench_scale] sync-round cell, flat solver oracle...");
    let sync_full = run_sync_cell(sync_nodes, sync_rounds, SolveMode::Full, 4);
    let sync_identical =
        sync_runs.iter().all(|r| r.deterministic() == sync_runs[0].deterministic())
            && sync_full.deterministic() == sync_runs[0].deterministic();
    let speedup = sync_runs[0].wall_s / sync_runs.last().expect("worker sweep").wall_s;
    let gate_enforced = host_cpus >= 4;

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scenario\": {{");
    let _ = writeln!(
        json,
        "    \"fabric\": \"1 V100 + 30 Gbps TCP NIC per node, {NODES_PER_RACK} nodes/rack, \
         2:1-oversubscribed ToR uplinks, shared spine\","
    );
    let _ = writeln!(
        json,
        "    \"workload\": \"{STREAMS_PER_NODE} restart-on-complete rack-local streams per \
         node (xor-pair neighbours) + 1 intermittent cross-rack stream per rack at ~10% \
         duty\","
    );
    let _ = writeln!(
        json,
        "    \"regenerate\": \"cargo run --release -p aiacc-bench --bin bench_scale\""
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"nodes\": {}, \"racks\": {}, \"sim_s\": {}, \"peak_flows\": {}, \
             \"events\": {}, \"completions\": {}, \"event_hash\": \"{:016x}\", \
             \"solver_recomputes\": {}, \"comps_solved\": {}, \"comps_existing\": {}, \
             \"comp_solve_ratio\": {:.4}, \"comp_parts_max\": {},\n      \
             \"timing\": {{ \"wall_s\": {:.3}, \"wall_per_sim_s\": {:.3}, \
             \"events_per_wall_s\": {:.0}, \"solve_s\": {:.3}, \"apply_s\": {:.3}, \
             \"queue_s\": {:.3} }} }}{comma}",
            c.nodes,
            c.racks,
            c.sim_s,
            c.peak_flows,
            c.events,
            c.completions,
            c.hash,
            c.recomputes,
            c.comps_solved,
            c.comps_existing,
            c.solve_ratio(),
            c.comp_parts_max,
            c.wall_s,
            c.wall_per_sim_s(),
            c.events as f64 / c.wall_s,
            c.breakdown.solve_s,
            c.breakdown.apply_s,
            c.breakdown.queue_s,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"solver_equivalence\": {{");
    let _ = writeln!(json, "    \"cell_nodes\": {},", eq_cell.0);
    let _ = writeln!(json, "    \"partitioned_hash\": \"{:016x}\",", part.hash);
    let _ = writeln!(json, "    \"flat_hash\": \"{:016x}\",", full.hash);
    let _ = writeln!(json, "    \"bit_identical\": {modes_identical},");
    let _ = writeln!(
        json,
        "    \"partitioned_comp_solve_ratio\": {:.4},\n    \"flat_comp_solve_ratio\": {:.4},",
        part.solve_ratio(),
        full.solve_ratio()
    );
    let _ = writeln!(json, "    \"gated_by\": [");
    let _ = writeln!(
        json,
        "      \"crates/cluster prop_hier (bitwise rate/byte equivalence proptests)\","
    );
    let _ = writeln!(json, "      \"ci smoke (hierarchical vs flat byte diff)\"");
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"multicore\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"bulk-synchronous rounds: {SYNC_STREAMS_PER_NODE} uniform-byte \
         streams per node in {} rate-cap tiers, driver-side barrier between rounds\",",
        SYNC_TIERS.len()
    );
    let _ = writeln!(json, "    \"nodes\": {sync_nodes},");
    let _ = writeln!(json, "    \"rounds\": {sync_rounds},");
    let s0 = &sync_runs[0];
    let _ = writeln!(json, "    \"peak_flows\": {},", s0.peak_flows);
    let _ = writeln!(json, "    \"events\": {},", s0.events);
    let _ = writeln!(json, "    \"completions\": {},", s0.completions);
    let _ = writeln!(json, "    \"event_hash\": \"{:016x}\",", s0.hash);
    let _ = writeln!(
        json,
        "    \"solver_workers_compared\": [{}],",
        worker_counts.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "    \"bit_identical_across_workers_and_flat\": {sync_identical},");
    let _ = writeln!(
        json,
        "    \"par_solves_by_workers\": [{}],",
        sync_runs.iter().map(|r| r.par_solves.to_string()).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "    \"timing\": {{");
    let _ = writeln!(json, "      \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "      \"wall_s_by_workers\": [{}],",
        sync_runs.iter().map(|r| format!("{:.3}", r.wall_s)).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(json, "      \"speedup_4_workers_vs_1\": {speedup:.3},");
    let _ = writeln!(
        json,
        "      \"speedup_gate\": \"{}\"",
        if gate_enforced { ">= 2.0 (enforced)" } else { "skipped: host_cpus < 4" }
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"determinism\": {{");
    let _ = writeln!(json, "    \"bit_identical_across_jobs_1_and_{jobs}\": {identical}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("write report");
    eprintln!("[bench_scale] wrote {out}");
    println!("{json}");

    assert!(identical, "parallel curve differed from serial — determinism broken");
    assert!(
        modes_identical,
        "partitioned solver diverged from flat: {:016x} vs {:016x}",
        part.hash, full.hash
    );
    assert!(
        part.comps_solved < full.comps_solved,
        "partitioned mode did not skip any component solves ({} vs {})",
        part.comps_solved,
        full.comps_solved
    );
    assert!(big.nodes >= 1024, "largest cell below 1024 nodes");
    assert!(
        big.peak_flows >= 100_000,
        "1024-node cell peaked at {} concurrent flows (< 100k)",
        big.peak_flows
    );
    assert!(
        sync_identical,
        "sync-round cell diverged across solver worker counts or vs the flat solver"
    );
    assert!(
        sync_runs.last().expect("worker sweep").par_solves > 0,
        "4-worker sync cell never took the parallel solve path"
    );
    if sync_nodes >= 1024 {
        assert!(
            s0.peak_flows >= 100_000,
            "sync cell peaked at {} concurrent flows (< 100k)",
            s0.peak_flows
        );
    }
    if gate_enforced {
        assert!(
            speedup >= 2.0,
            "4 solver workers gave only {speedup:.2}x over 1 on a {host_cpus}-CPU host \
             (gate: >= 2.0x)"
        );
    } else {
        eprintln!(
            "[bench_scale] speedup gate skipped: host has {host_cpus} CPU(s) < 4 \
             (measured {speedup:.2}x)"
        );
    }
    if let Some(budget) = wall_budget {
        assert!(
            big.wall_per_sim_s() <= budget,
            "1024-node cell took {:.1} wall-s per simulated second (budget {budget})",
            big.wall_per_sim_s()
        );
    }
}
