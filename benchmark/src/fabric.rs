//! `fabric_churn`: the 1024-node steady-state cell of `bench_scale`, copied
//! here and driven directly on the [`Simulator`].
//!
//! Every node keeps [`STREAMS_PER_NODE`] rack-local streams to its xor-pair
//! neighbour (restarted the moment they complete) and every rack keeps one
//! cross-rack stream at about 10 % duty, so 102 400 flows are in flight at
//! once. No engine, scheduler or compressor runs: the wall time is the
//! network core's (FlowNet solve, apply/settle, calendar queue).

use crate::report::{fnv1a, Digest, Metric, FNV_BASIS};
use crate::stats::median;
use crate::trace::{SpanName, Tracer};
use crate::{
    e2e_metrics, layer_shares, op_info, peak_rss_mib, solver_metrics, time_setup, NextEventSpans,
    Outcome, RunCfg,
};
use aiacc::cluster::{ClusterNet, ClusterSpec, GpuSpec, NicSpec, NodeSpec, RackSpec};
use aiacc::simnet::{Event, FlowId, SimDuration, SimTime, Simulator, SolverStats, Token};
use std::collections::HashMap;
use std::time::Instant;

const NODES: usize = 1024;
/// Rack-local streams per node (102 400 concurrent flows at 1024 nodes).
const STREAMS_PER_NODE: usize = 100;
const NODES_PER_RACK: usize = 8;
/// Fair-share rate of one rack-local stream: the 3.75 GB/s NIC split
/// `STREAMS_PER_NODE` ways.
const LOCAL_RATE: f64 = 3.75e9 / STREAMS_PER_NODE as f64;
/// One cross-rack burst, about 50 ms at its max-min share.
const CROSS_BYTES: f64 = 1.875e6;
/// Untimed warm-up horizon. The first completions land at 50 ms, so this
/// skips the start-up transient.
const WARMUP_NS: u64 = 100_000_000;
/// Simulated length of one timed slice.
const SLICE_NS: u64 = 5_000_000;
/// Slices in the digest-checked window, simulated 0.10 s to 0.20 s; a run
/// always times at least these.
const DIGEST_SLICES: u64 = 20;
/// Timer kinds: a cross-rack stream's restart, and a slice boundary.
const CROSS_RESTART: u32 = 1;
const SLICE_END: u32 = 9;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Deterministic pseudo-random fraction in `[0, 1)`.
fn frac(x: u64) -> f64 {
    (lcg(x) >> 40) as f64 / (1u64 << 24) as f64
}

fn fold(h: &mut u64, x: u64) {
    *h = fnv1a(*h, &x.to_le_bytes());
}

#[derive(Debug, Clone)]
struct Stream {
    src: usize,
    dst: usize,
    /// Rack-crossing, restarted by timer at about 10 % duty.
    cross: bool,
    launches: u64,
}

/// Span names of this workload.
struct Names {
    slice: SpanName,
    sim: NextEventSpans,
    start_flow: SpanName,
    node_path: SpanName,
}

impl Names {
    fn new(tr: &mut Tracer) -> Self {
        Names {
            slice: tr.name("bench.slice"),
            sim: NextEventSpans::new(tr),
            start_flow: tr.name("simnet.start_flow"),
            node_path: tr.name("cluster.node_path"),
        }
    }
}

/// The fabric and the benchmark's bookkeeping of its streams.
pub struct Cell {
    sim: Simulator,
    cluster: ClusterNet,
    streams: Vec<Stream>,
    by_flow: HashMap<FlowId, (usize, f64)>,
    seed_mix: u64,
    /// Cross-rack streams waiting for their restart timer.
    idle: usize,
    launched_bytes: f64,
    completed_bytes: f64,
}

/// What one slice did.
#[derive(Debug, Clone, Copy, Default)]
struct Slice {
    events: u64,
    wall_s: f64,
    failed: u64,
}

impl Cell {
    /// Builds the cluster and starts every stream's first flow.
    pub fn build(seed: u64) -> Self {
        let mut sim = Simulator::new();
        let node = NodeSpec { gpus_per_node: 1, gpu: GpuSpec::v100(), nic: NicSpec::tcp_30gbps() };
        let spec = ClusterSpec::new(NODES, node)
            .with_rack_layer(RackSpec::oversubscribed_2to1(NODES_PER_RACK, &NicSpec::tcp_30gbps()));
        let racks = spec.nracks();
        let cluster = ClusterNet::build(&spec, sim.net_mut());
        // Streams 0..NODES*K are rack-local (node n and its pair n^1 share a
        // rack); the last `racks` streams hop rack r -> rack r+1.
        let mut streams = Vec::with_capacity(NODES * STREAMS_PER_NODE + racks);
        for n in 0..NODES {
            for _ in 0..STREAMS_PER_NODE {
                streams.push(Stream { src: n, dst: n ^ 1, cross: false, launches: 0 });
            }
        }
        for r in 0..racks {
            let (src, dst) = (r * NODES_PER_RACK, ((r + 1) % racks) * NODES_PER_RACK);
            streams.push(Stream { src, dst, cross: true, launches: 0 });
        }
        let mut cell = Cell {
            sim,
            cluster,
            by_flow: HashMap::with_capacity(streams.len()),
            streams,
            seed_mix: lcg(seed ^ 0x5eed_fab1c),
            idle: 0,
            launched_bytes: 0.0,
            completed_bytes: 0.0,
        };
        let mut off = Tracer::new(false);
        let names = Names::new(&mut off);
        for s in 0..cell.streams.len() {
            cell.launch(s, &mut off, &names);
        }
        cell
    }

    /// Bytes of a rack-local stream's `launch`-th flow: 50-200 ms of
    /// fair-share transfer, varied per stream, launch and seed so that
    /// completions de-synchronize.
    fn local_bytes(&self, stream: usize, launch: u64) -> f64 {
        LOCAL_RATE * (0.05 + 0.15 * frac(self.seed_mix ^ (stream as u64 * 31 + launch)))
    }

    fn launch(&mut self, s: usize, tr: &mut Tracer, n: &Names) {
        let st = &self.streams[s];
        let bytes = if st.cross { CROSS_BYTES } else { self.local_bytes(s, st.launches) };
        let (src, dst) = (st.src, st.dst);
        self.streams[s].launches += 1;
        tr.open(n.node_path);
        let spec = self.cluster.node_path(src, dst).flow(bytes);
        tr.close();
        tr.open(n.start_flow);
        let id = self.sim.start_flow(spec);
        tr.close();
        self.launched_bytes += bytes;
        self.by_flow.insert(id, (s, bytes));
    }

    /// Runs every event before the slice boundary at `end_ns`, folding each
    /// into `hash` and timing each into `op_walls`.
    fn run_slice(
        &mut self,
        end_ns: u64,
        hash: &mut u64,
        op_walls: &mut Vec<f64>,
        tr: &mut Tracer,
        n: &Names,
    ) -> Slice {
        let started = Instant::now();
        tr.open(n.slice);
        self.sim.schedule_at(SimTime::from_nanos(end_ns), Token::new(SLICE_END, 0, 0));
        let mut out = Slice::default();
        loop {
            let t0 = Instant::now();
            let Some((t, ev)) = n.sim.next_event(&mut self.sim, tr) else {
                out.failed += 1;
                break;
            };
            let ok = match ev {
                Event::Timer(tok) if tok.kind == SLICE_END => break,
                Event::FlowCompleted(id) => match self.by_flow.remove(&id) {
                    Some((s, bytes)) => {
                        self.completed_bytes += bytes;
                        fold(hash, t.as_nanos());
                        fold(hash, 1);
                        fold(hash, s as u64);
                        if self.streams[s].cross {
                            // ~10 % duty: idle about 9x the 50 ms burst,
                            // jittered so cross flows de-synchronize.
                            let idle = 0.35 + 0.2 * frac(s as u64 * 977 + self.streams[s].launches);
                            let at = t + SimDuration::from_secs_f64(idle);
                            self.sim.schedule_at(at, Token::new(CROSS_RESTART, s as u32, 0));
                            self.idle += 1;
                        } else {
                            self.launch(s, tr, n);
                        }
                        true
                    }
                    None => false,
                },
                Event::Timer(tok) if tok.kind == CROSS_RESTART => {
                    let s = tok.a as usize;
                    fold(hash, t.as_nanos());
                    fold(hash, 2);
                    fold(hash, s as u64);
                    self.idle -= 1;
                    self.launch(s, tr, n);
                    true
                }
                _ => false,
            };
            out.events += 1;
            out.failed += u64::from(!ok);
            op_walls.push(t0.elapsed().as_secs_f64());
        }
        tr.close();
        // Every stream either has a flow in flight or waits on its timer.
        if self.by_flow.len() + self.idle != self.streams.len() {
            out.failed = out.events;
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    /// Byte conservation against the network's own per-tag counters: what
    /// it launched equals what the benchmark launched, and what it delivered
    /// lies between the bytes of completed flows and everything launched.
    fn bytes_conserved(&self) -> bool {
        let net = self.sim.net();
        let (launched, delivered) = (net.launched_bytes_by_tag(0), net.delivered_bytes_by_tag(0));
        let tol = 1e-9 * self.launched_bytes;
        (launched - self.launched_bytes).abs() <= tol
            && delivered >= self.completed_bytes - tol
            && delivered <= launched + tol
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let (setup_s, mut cell) = time_setup(|| Cell::build(cfg.seed));
    let mut tr = Tracer::new(false);
    let names = Names::new(&mut tr);
    let mut out = Outcome::default();

    let mut scratch = (FNV_BASIS, Vec::new());
    let warm = cell.run_slice(WARMUP_NS, &mut scratch.0, &mut scratch.1, &mut tr, &names);
    if warm.failed > 0 {
        out.problems.push(format!("warm-up: {} events failed their checks", warm.failed));
    }

    let mut hash = FNV_BASIS;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut window_events = 0;
    let mut window_stats = (cell.sim.net().solver_stats(), SolverStats::default());
    let mut rss = 0.0;
    let started = Instant::now();
    let mut k = 0;
    while k < DIGEST_SLICES || started.elapsed().as_secs_f64() < cfg.seconds {
        // Traced runs alternate traced and untraced slices, so the tracing
        // overhead is measured on the same simulated period.
        let on = cfg.trace && k % 2 == 0;
        tr.set_enabled(on);
        let walls = if on { &mut traced_walls } else { &mut plain_walls };
        let mut off_window = FNV_BASIS;
        let h = if k < DIGEST_SLICES { &mut hash } else { &mut off_window };
        let s = cell.run_slice(WARMUP_NS + (k + 1) * SLICE_NS, h, walls, &mut tr, &names);
        if s.failed > 0 {
            out.fail(s.failed, format!("slice {k}: {} events failed their checks", s.failed));
        }
        out.attempted += s.events;
        if k < DIGEST_SLICES {
            window_events += s.events;
        }
        if k + 1 == DIGEST_SLICES {
            window_stats.1 = cell.sim.net().solver_stats();
            rss = peak_rss_mib();
            if !cell.bytes_conserved() {
                out.fail(window_events, "byte conservation violated".to_string());
            }
        }
        if on { &mut traced } else { &mut plain }.push(s);
        k += 1;
    }
    tr.set_enabled(false);

    let rate =
        |ss: &[Slice]| median(&ss.iter().map(|s| s.events as f64 / s.wall_s).collect::<Vec<_>>());
    let per_sim_s = |ss: &[Slice]| {
        median(&ss.iter().map(|s| s.wall_s / (SLICE_NS as f64 * 1e-9)).collect::<Vec<_>>())
    };
    let (main, main_walls) =
        if cfg.trace { (&traced, &traced_walls) } else { (&plain, &plain_walls) };
    out.e2e = e2e_metrics(setup_s, rate(main), rss);
    out.info.extend(op_info(median(main_walls) * 1e3, main_walls));
    out.info.push(Metric::new("wall_per_sim_s", per_sim_s(main), "s/s"));
    out.info.push(Metric::new("slices", main.len() as f64, "count"));

    out.digests = vec![
        Digest { key: "events".into(), value: window_events.to_string(), covers: window_events },
        Digest { key: "event_hash".into(), value: format!("{hash:016x}"), covers: window_events },
    ];

    if cfg.trace {
        let wall: f64 = traced.iter().map(|s| s.wall_s).sum();
        layer_shares(&tr, wall, &mut out);
        out.layers.extend(solver_metrics(window_stats.0, window_stats.1, window_events));
        let overhead = median(&traced_walls) / median(&plain_walls);
        out.layers.push(Metric::new("trace.overhead_ratio", overhead, "ratio"));
    }
    out
}
