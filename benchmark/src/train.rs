//! `train_paper`: four paper-scale [`TrainingSim`] configurations, one
//! iteration of each per round.
//!
//! (a) exercises AIACC's sync rounds, packing and stream pool on the huge
//! gradient count of the production CTR model (§VIII-C); (b) exercises
//! Horovod's master negotiation on the same model; (c) and (d) put bursty
//! collective phases of 256 GPUs through a racked fabric.
//!
//! The engine handlers run inside `TrainingSim::run_iteration_detailed`,
//! out of reach of a timer outside the library. The traced run therefore
//! drives a [`Replica`] of that loop built from `pub` items only, with a
//! span around every call, and checks that it reproduces the library's
//! iteration times bit for bit.

use crate::report::{fnv1a, Digest, Metric, FNV_BASIS};
use crate::stats::median;
use crate::trace::{SpanName, Tracer};
use crate::{
    e2e_metrics, layer_shares, op_info, peak_rss_mib, solver_metrics, time_setup, NextEventSpans,
    Outcome, RunCfg,
};
use aiacc::baselines::{BytePsConfig, HorovodConfig};
use aiacc::cluster::{ClusterNet, ClusterSpec, ComputeModel, RackSpec};
use aiacc::collectives::CollectiveEngine;
use aiacc::core::ddl::{DdlCtx, DdlEngine, ENGINE_TIMER_KIND};
use aiacc::dnn::{zoo, DType, GradId};
use aiacc::simnet::{Event, SimTime, Simulator, SolverStats, Token};
use aiacc::trainer::{
    comm_stream_limits, schedule_worker_compute, ComputeAttempt, EngineKind, TrainingSim,
    TrainingSimConfig, BWD_KIND, GRAD_KIND,
};
use std::time::Instant;

/// Timed rounds covered by the digests; a run always times at least these.
const DIGEST_ROUNDS: usize = 25;

/// Names of the four configurations, in round order.
pub const CONFIGS: [&str; 4] = ["a", "b", "c", "d"];

fn racked(gpus: usize) -> ClusterSpec {
    let spec = ClusterSpec::tcp_v100(gpus);
    let nic = spec.node.nic;
    spec.with_rack_layer(RackSpec::oversubscribed_2to1(8, &nic))
}

/// The four configurations, jittered by `seed`.
pub fn configs(seed: u64) -> [TrainingSimConfig; 4] {
    let cfg =
        |cluster, model, engine| TrainingSimConfig::new(cluster, model, engine).with_seed(seed);
    [
        cfg(ClusterSpec::tcp_v100(64), zoo::ctr_production(), EngineKind::aiacc_default()),
        cfg(
            ClusterSpec::tcp_v100(64),
            zoo::ctr_production(),
            EngineKind::Horovod(HorovodConfig::default()),
        ),
        cfg(racked(256), zoo::gpt2_xl(), EngineKind::aiacc_default()),
        cfg(racked(256), zoo::resnet50(), EngineKind::BytePs(BytePsConfig::default())),
    ]
}

/// Span names of one engine's handlers.
struct Handlers {
    begin: SpanName,
    grad: SpanName,
    bwd: SpanName,
    coll: SpanName,
    timer: SpanName,
}

/// Span names of the replica.
pub struct Names {
    iteration: SpanName,
    timing: SpanName,
    compute: SpanName,
    sim: NextEventSpans,
    flow_done: SpanName,
    core: Handlers,
    baselines: Handlers,
}

impl Names {
    /// Registers the replica's span names.
    pub fn new(tr: &mut Tracer) -> Self {
        Names {
            iteration: tr.name("bench.iteration"),
            timing: tr.name("cluster.iteration_timing"),
            compute: tr.name("trainer.schedule_compute"),
            sim: NextEventSpans::new(tr),
            flow_done: tr.name("collectives.on_flow_completed"),
            core: Handlers {
                begin: tr.name("core.begin_iteration"),
                grad: tr.name("core.on_grad_ready"),
                bwd: tr.name("core.on_backward_done"),
                coll: tr.name("core.on_collective_done"),
                timer: tr.name("core.on_timer"),
            },
            baselines: Handlers {
                begin: tr.name("baselines.begin_iteration"),
                grad: tr.name("baselines.on_grad_ready"),
                bwd: tr.name("baselines.on_backward_done"),
                coll: tr.name("baselines.on_collective_done"),
                timer: tr.name("baselines.on_timer"),
            },
        }
    }
}

/// Per-run totals of the AIACC engines' own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    sync_rounds: u64,
    units_launched: u64,
    peak_streams: usize,
}

/// `TrainingSim::run_iteration_detailed` rebuilt from `pub` items, for a
/// configuration without faults or stragglers.
pub struct Replica {
    cfg: TrainingSimConfig,
    sim: Simulator,
    cluster: ClusterNet,
    coll: CollectiveEngine,
    engine: Box<dyn DdlEngine>,
    compute: ComputeModel,
    iter: u64,
    /// Simulator events handled.
    pub events: u64,
    /// AIACC counters summed over iterations.
    pub counts: EngineCounts,
}

/// Routes one engine callback with a fresh context.
macro_rules! call {
    ($self:ident, $streams:expr, |$e:ident, $cx:ident| $body:expr) => {{
        let mut $cx = DdlCtx {
            sim: &mut $self.sim,
            coll: &mut $self.coll,
            cluster: &$self.cluster,
            max_streams_now: $streams,
        };
        let $e = &mut $self.engine;
        $body
    }};
}

impl Replica {
    /// Builds the simulation exactly as `TrainingSim::new` does.
    pub fn new(cfg: TrainingSimConfig) -> Self {
        assert!(
            cfg.faults.events().is_empty() && cfg.stragglers.is_empty() && !cfg.trace,
            "the replica covers fault-free, untraced configurations only"
        );
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&cfg.cluster, sim.net_mut());
        let engine = cfg.engine.build(&cfg.model, cfg.cluster.world_size());
        let compute = ComputeModel::new(cfg.cluster.node.gpu.clone());
        Replica {
            cfg,
            sim,
            cluster,
            coll: CollectiveEngine::new(),
            engine,
            compute,
            iter: 0,
            events: 0,
            counts: EngineCounts::default(),
        }
    }

    /// Cumulative solver counters of the replica's network.
    pub fn solver_stats(&self) -> SolverStats {
        self.sim.net().solver_stats()
    }

    fn next_event(&mut self, tr: &mut Tracer, n: &Names) -> Option<(SimTime, Event)> {
        let next = n.sim.next_event(&mut self.sim, tr);
        self.events += u64::from(next.is_some());
        next
    }

    /// Runs one iteration and returns its simulated length, seconds.
    ///
    /// # Panics
    /// Panics if the simulation drains before the iteration finishes, as
    /// the library loop does.
    pub fn iteration(&mut self, tr: &mut Tracer, n: &Names) -> f64 {
        tr.open(n.iteration);
        let h = match self.cfg.engine {
            EngineKind::Aiacc(_) => &n.core,
            _ => &n.baselines,
        };
        let world = self.cfg.cluster.world_size();
        let batch =
            self.cfg.batch_per_gpu.unwrap_or_else(|| self.cfg.model.default_batch_per_gpu());
        let t0 = self.sim.now();
        tr.open(n.timing);
        let timing = self.compute.iteration_timing(&self.cfg.model, batch, DType::F32);
        tr.close();
        let (busy, idle) = comm_stream_limits(&self.compute, &self.cfg.cluster, &self.cfg.model);

        tr.open(h.begin);
        let iter = self.iter;
        call!(self, busy, |e, cx| e.begin_iteration(&mut cx, iter));
        tr.close();

        let attempt = ComputeAttempt {
            world,
            seed: self.cfg.seed,
            jitter_frac: self.cfg.jitter_frac,
            framework: self.cfg.framework,
            timing: &timing,
            iter: self.iter,
        };
        tr.open(n.compute);
        let last_bwd = schedule_worker_compute(&mut self.sim, &attempt, |_| 1.0);
        tr.close();

        let mut busy_workers = world;
        let comm_done_at = loop {
            let (t, ev) = self.next_event(tr, n).unwrap_or_else(|| {
                panic!("simulation drained without finishing iteration {}", self.iter)
            });
            let streams = if busy_workers > 0 { busy } else { idle };
            match ev {
                Event::Timer(tok) if tok.kind == GRAD_KIND => {
                    tr.open(h.grad);
                    call!(self, streams, |e, cx| e.on_grad_ready(
                        &mut cx,
                        tok.a as usize,
                        GradId(tok.b as u32)
                    ));
                    tr.close();
                }
                Event::Timer(tok) if tok.kind == BWD_KIND => {
                    busy_workers -= 1;
                    let streams = if busy_workers > 0 { busy } else { idle };
                    tr.open(h.bwd);
                    call!(self, streams, |e, cx| e.on_backward_done(&mut cx, tok.a as usize));
                    tr.close();
                }
                Event::Timer(tok) if tok.kind == ENGINE_TIMER_KIND => {
                    tr.open(h.timer);
                    call!(self, streams, |e, cx| e.on_timer(&mut cx, tok.a, tok.b));
                    tr.close();
                }
                Event::Timer(_) | Event::Fault(_) => {}
                Event::FlowCompleted(f) => {
                    tr.open(n.flow_done);
                    let op = self.coll.on_flow_completed(&mut self.sim, f);
                    tr.close();
                    if let Some(op) = op {
                        tr.open(h.coll);
                        call!(self, streams, |e, cx| e.on_collective_done(&mut cx, op));
                        tr.close();
                    }
                }
            }
            if busy_workers == 0 && self.engine.comm_done() {
                break t;
            }
        };

        // The synchronous boundary: drain to the optimizer update's end,
        // dropping stale engine work, as the library does.
        let end = comm_done_at.max(last_bwd) + timing.update;
        while self.sim.now() < end {
            self.sim.schedule_at(end, Token::new(u32::MAX, 0, 0));
            while let Some((t, ev)) = self.next_event(tr, n) {
                if matches!(ev, Event::Timer(tok) if tok.kind == u32::MAX && t >= end) {
                    break;
                }
            }
        }
        if let Some(s) = self.engine.aiacc_stats() {
            self.counts.sync_rounds += s.sync_rounds;
            self.counts.units_launched += s.units_launched;
            self.counts.peak_streams = self.counts.peak_streams.max(s.peak_streams);
        }
        self.iter += 1;
        tr.close();
        (end - t0).as_secs_f64()
    }
}

/// Folds one iteration's simulated length into a config's digest.
fn fold(h: &mut u64, iter_secs: f64) {
    *h = fnv1a(*h, &iter_secs.to_bits().to_le_bytes());
}

/// One side of the run (library or replica): per-config digests and op
/// walls.
struct Side {
    hashes: [u64; 4],
    /// Simulated iteration lengths, kept for the replica comparison.
    secs: [Vec<f64>; 4],
    walls: [Vec<f64>; 4],
    rounds: Vec<f64>,
}

impl Side {
    fn new() -> Self {
        Side {
            hashes: [FNV_BASIS; 4],
            secs: Default::default(),
            walls: Default::default(),
            rounds: Vec::new(),
        }
    }

    /// Records one iteration of config `c`; the first `DIGEST_ROUNDS + 1`
    /// (warm-up included) enter the digest.
    fn record(&mut self, c: usize, iter_secs: f64, wall: Option<f64>) {
        if self.secs[c].len() <= DIGEST_ROUNDS {
            fold(&mut self.hashes[c], iter_secs);
        }
        self.secs[c].push(iter_secs);
        if let Some(w) = wall {
            self.walls[c].push(w);
        }
    }

    fn ops(&self) -> u64 {
        self.walls.iter().map(|w| w.len() as u64).sum()
    }

    /// `ops_per_s` from the median round, `op_ms_p50` as the mean of the
    /// per-config median iteration walls.
    fn rates(&self) -> (f64, f64) {
        let per_config: f64 = self.walls.iter().map(|w| median(w)).sum::<f64>() / 4.0;
        (4.0 / median(&self.rounds), per_config * 1e3)
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let cfgs = configs(cfg.seed);
    let (setup_s, mut sims) = time_setup(|| cfgs.clone().map(TrainingSim::new));
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    let names = Names::new(&mut tr);
    let mut replicas: Vec<Replica> =
        if cfg.trace { cfgs.iter().cloned().map(Replica::new).collect() } else { Vec::new() };

    let mut lib = Side::new();
    let mut rep = Side::new();
    for (c, sim) in sims.iter_mut().enumerate() {
        lib.record(c, sim.run_iteration_detailed().iter_secs, None);
    }
    for (c, r) in replicas.iter_mut().enumerate() {
        rep.record(c, r.iteration(&mut tr, &names), None);
    }
    let before = totals(&replicas);
    let mut after = before;

    let started = Instant::now();
    let mut traced_wall = 0.0;
    let mut round = 0;
    let mut rss = 0.0;
    while round < DIGEST_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
        let t_round = Instant::now();
        for (c, sim) in sims.iter_mut().enumerate() {
            let t = Instant::now();
            let b = sim.run_iteration_detailed();
            lib.record(c, b.iter_secs, Some(t.elapsed().as_secs_f64()));
            // An iteration ends after both its compute and its
            // communication, and no fault is configured.
            let sane = b.iter_secs.is_finite()
                && b.iter_secs >= b.backward_end_secs
                && b.iter_secs >= b.comm_done_secs
                && b.backward_end_secs > 0.0
                && !b.fault_impacted();
            if !sane {
                out.fail(1, format!("config {}: implausible iteration {b:?}", CONFIGS[c]));
            }
        }
        lib.rounds.push(t_round.elapsed().as_secs_f64());
        if cfg.trace {
            tr.set_enabled(true);
            let t_round = Instant::now();
            for (c, r) in replicas.iter_mut().enumerate() {
                let t = Instant::now();
                let secs = r.iteration(&mut tr, &names);
                rep.record(c, secs, Some(t.elapsed().as_secs_f64()));
            }
            let wall = t_round.elapsed().as_secs_f64();
            rep.rounds.push(wall);
            traced_wall += wall;
            tr.set_enabled(false);
            if round + 1 == DIGEST_ROUNDS {
                after = totals(&replicas);
            }
        }
        if round + 1 == DIGEST_ROUNDS {
            rss = peak_rss_mib();
        }
        round += 1;
    }
    out.attempted = lib.ops() + rep.ops();

    let digests = |side: &Side| -> Vec<Digest> {
        CONFIGS
            .iter()
            .zip(side.hashes)
            .map(|(c, h)| Digest {
                key: format!("iter_bits.{c}"),
                value: format!("{h:016x}"),
                covers: DIGEST_ROUNDS as u64,
            })
            .collect()
    };
    let side = if cfg.trace { &rep } else { &lib };
    out.digests = digests(side);
    let (ops_per_s, op_ms) = side.rates();
    out.e2e = e2e_metrics(setup_s, ops_per_s, rss);
    let walls: Vec<f64> = side.walls.iter().flatten().copied().collect();
    out.info.extend(op_info(op_ms, &walls));
    for (c, w) in CONFIGS.iter().zip(&side.walls) {
        out.info.push(Metric::new(format!("op_ms_p50.{c}"), median(w) * 1e3, "ms"));
    }
    let sim_s: f64 = side.secs.iter().flat_map(|s| s.iter().skip(1)).sum();
    out.info.push(Metric::new("wall_per_sim_s", side.rounds.iter().sum::<f64>() / sim_s, "s/s"));
    out.info.push(Metric::new("rounds", side.rounds.len() as f64, "count"));

    if cfg.trace {
        // The replica stands in for the library only if every iteration it
        // ran took exactly as long in simulated time.
        for ((name, a), b) in CONFIGS.iter().zip(&lib.secs).zip(&rep.secs) {
            let diverged = a.iter().zip(b).filter(|(x, y)| x.to_bits() != y.to_bits()).count();
            if diverged > 0 || a.len() != b.len() {
                out.fail(diverged.max(1) as u64, format!("config {name}: replica diverged"));
            }
        }
        layer_shares(&tr, traced_wall, &mut out);
        let overhead = median(&rep.rounds) / median(&lib.rounds);
        out.layers.push(Metric::new("trace.overhead_ratio", overhead, "ratio"));
        // Counts over the digest-checked rounds, so they repeat for a seed.
        out.layers.extend(solver_metrics(before.0, after.0, after.1 - before.1));
        let (c0, c1) = (before.2, after.2);
        out.layers.extend([
            Metric::new("core.sync_rounds", (c1.sync_rounds - c0.sync_rounds) as f64, "count"),
            Metric::new(
                "core.units_launched",
                (c1.units_launched - c0.units_launched) as f64,
                "count",
            ),
            Metric::new("core.peak_streams", c1.peak_streams as f64, "count"),
        ]);
    }
    out
}

/// Solver counters, events and AIACC counters summed over the replicas
/// (peak streams: the maximum).
fn totals(replicas: &[Replica]) -> (SolverStats, u64, EngineCounts) {
    let mut t = (SolverStats::default(), 0, EngineCounts::default());
    for r in replicas {
        let s = r.solver_stats();
        t.0.recomputes += s.recomputes;
        t.0.comps_solved += s.comps_solved;
        t.0.comps_existing += s.comps_existing;
        t.0.parts_solved += s.parts_solved;
        t.0.fill_rounds += s.fill_rounds;
        t.0.par_solves += s.par_solves;
        t.1 += r.events;
        t.2.sync_rounds += r.counts.sync_rounds;
        t.2.units_launched += r.counts.units_launched;
        t.2.peak_streams = t.2.peak_streams.max(r.counts.peak_streams);
    }
    t
}
