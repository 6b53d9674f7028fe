//! The training-iteration simulation loop (timing plane).

use crate::engines::{EngineKind, Framework};
use crate::metrics::ThroughputReport;
use crate::recovery::{replay_failure_recovery, RecoveryConfig};
use aiacc_cluster::{jitter_factor, ClusterNet, ClusterSpec, ComputeModel, IterationTiming};
use aiacc_core::ddl::{DdlEngine, DdlRouter, BWD_KIND, GRAD_KIND};
use aiacc_dnn::{DType, ModelProfile};
use aiacc_simnet::trace::track;
use aiacc_simnet::{
    Event, FaultPlan, RunOffsets, SimDuration, SimTime, Simulator, SolveMode, Token, TraceSink,
};

/// Timer kind for a scheduled node crash from the fault plan.
const FAULT_CRASH_KIND: u32 = 3;
/// Timer kind marking the end of an iteration or of a crash's recovery
/// pause.
const BOUNDARY_KIND: u32 = 4;

/// Compute-side inputs of one iteration attempt, shared between
/// [`TrainingSim`] and the multi-job scheduler (`aiacc-sched`) so that an
/// N=1 scheduled job reproduces the single-job path bit-for-bit.
#[derive(Debug, Clone)]
pub struct ComputeAttempt<'a> {
    /// Number of workers.
    pub world: usize,
    /// Jitter seed.
    pub seed: u64,
    /// Jitter amplitude (fraction).
    pub jitter_frac: f64,
    /// Framework adapter (scales compute and adds per-iteration overhead).
    pub framework: Framework,
    /// Forward/backward/update durations and per-gradient ready offsets.
    pub timing: &'a IterationTiming,
    /// Iteration number (feeds the jitter hash).
    pub iter: u64,
}

/// Schedules one attempt's per-worker compute timers into `sim` — a
/// [`GRAD_KIND`] timer per gradient, as one lazily expanded run per worker
/// ([`Simulator::schedule_run`]), and a [`BWD_KIND`] timer per worker —
/// and returns the time the slowest worker finishes backward.
/// `compute_scale(w)` is worker `w`'s straggler × fault slow-down at the
/// attempt's start (`1.0` for a healthy worker).
pub fn schedule_worker_compute(
    sim: &mut Simulator,
    attempt: &ComputeAttempt<'_>,
    compute_scale: impl Fn(usize) -> f64,
) -> SimTime {
    let t_start = sim.now();
    let fw = attempt.framework;
    let timing = attempt.timing;
    let offs =
        RunOffsets::new(timing.grad_ready.iter().map(|&(g, off)| (g.0 as u64, off)).collect());
    let mut last_bwd = t_start;
    for w in 0..attempt.world {
        let jf = jitter_factor(attempt.seed, w, attempt.iter, attempt.jitter_frac)
            * fw.compute_factor()
            * compute_scale(w);
        let fwd = timing.forward.mul_f64(jf) + fw.per_iter_overhead();
        sim.schedule_run(fwd, &offs, jf, GRAD_KIND, w as u32);
        let bwd_at = fwd + timing.backward.mul_f64(jf);
        sim.schedule(bwd_at, Token::new(BWD_KIND, w as u32, 0));
        last_bwd = last_bwd.max(t_start + bwd_at);
    }
    last_bwd
}

/// The communication stream limits `(while_compute_busy, while_idle)` for a
/// cluster/model pair. On RDMA with GPU-direct the NIC DMAs straight out of
/// GPU memory (§V-A2), so streams barely contend with compute SMs; on TCP
/// every stream needs copy kernels and staging, so compute occupancy caps
/// concurrency (§VIII-A).
pub fn comm_stream_limits(
    compute: &ComputeModel,
    cluster: &ClusterSpec,
    model: &ModelProfile,
) -> (usize, usize) {
    let busy = match cluster.node.nic.kind {
        aiacc_cluster::NetKind::Rdma => compute.max_comm_streams_idle(),
        aiacc_cluster::NetKind::Tcp => compute.max_comm_streams_during_compute(model),
    };
    (busy, compute.max_comm_streams_idle())
}

/// Configuration of one simulated training run.
#[derive(Debug, Clone)]
pub struct TrainingSimConfig {
    /// The cluster to run on.
    pub cluster: ClusterSpec,
    /// The DNN workload.
    pub model: ModelProfile,
    /// Per-GPU batch size (`None` = the model's paper-matching default).
    pub batch_per_gpu: Option<usize>,
    /// Communication framework.
    pub engine: EngineKind,
    /// Deep-learning framework adapter.
    pub framework: Framework,
    /// Measured iterations (the paper measures 200 after 100 warm-up;
    /// simulated time is noise-free so a handful suffices — see `warmup`).
    pub iterations: usize,
    /// Unmeasured warm-up iterations.
    pub warmup: usize,
    /// Seed for the deterministic compute jitter.
    pub seed: u64,
    /// Compute jitter amplitude (fraction; real clusters show a few percent).
    pub jitter_frac: f64,
    /// Persistent stragglers: `(worker, slow_factor)` — that worker's compute
    /// runs `slow_factor`× slower every iteration (a degraded or
    /// noisy-neighbour GPU). Synchronous SGD makes everyone wait for it.
    pub stragglers: Vec<(usize, f64)>,
    /// Scheduled faults: link degradations/flaps are installed on the
    /// simulator (node targets resolved to that node's NIC tx/rx), straggler
    /// windows scale compute time, and crashes abort the running iteration
    /// and charge a replayed checkpoint restart. An empty plan (the default)
    /// changes nothing.
    pub faults: FaultPlan,
    /// Records a structured trace of the run (iteration spans, per-unit
    /// stream lanes, collective phases, fault/crash markers). Off by
    /// default: with tracing disabled no event is ever allocated and the
    /// simulation is bit-identical to a build without the trace layer.
    pub trace: bool,
    /// How the fluid solver re-solves a dirty network. Both modes produce
    /// bit-identical output; [`SolveMode::Full`] is the flat oracle.
    pub solve_mode: SolveMode,
}

impl TrainingSimConfig {
    /// A paper-style run: PyTorch, default batch, 2 warm-up + 3 measured
    /// iterations, 2 % jitter.
    pub fn new(cluster: ClusterSpec, model: ModelProfile, engine: EngineKind) -> Self {
        TrainingSimConfig {
            cluster,
            model,
            batch_per_gpu: None,
            engine,
            framework: Framework::PyTorch,
            iterations: 3,
            warmup: 2,
            seed: 42,
            jitter_frac: 0.02,
            stragglers: Vec::new(),
            faults: FaultPlan::new(),
            trace: false,
            solve_mode: SolveMode::Partitioned,
        }
    }

    /// Overrides the per-GPU batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch_per_gpu = Some(batch);
        self
    }

    /// Selects the framework adapter.
    pub fn with_framework(mut self, fw: Framework) -> Self {
        self.framework = fw;
        self
    }

    /// Sets measured/warm-up iteration counts.
    pub fn with_iterations(mut self, warmup: usize, measured: usize) -> Self {
        self.warmup = warmup;
        self.iterations = measured;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Marks `worker` as a persistent straggler running `factor`× slower.
    ///
    /// # Panics
    /// Panics if `factor < 1.0` or the worker is out of range.
    pub fn with_straggler(mut self, worker: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "slow factor below 1");
        assert!(worker < self.cluster.world_size(), "straggler rank out of range");
        self.stragglers.push((worker, factor));
        self
    }

    /// Installs a fault plan for the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables (or disables) structured tracing for the run.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Selects the fluid solver's [`SolveMode`].
    pub fn with_solve_mode(mut self, mode: SolveMode) -> Self {
        self.solve_mode = mode;
        self
    }
}

/// Phase timestamps of one simulated iteration, relative to its start.
///
/// The *communication tail* — how long the job waits for gradient
/// aggregation after every worker finished backward — is exactly the
/// quantity AIACC's overlap machinery minimizes (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationBreakdown {
    /// When the slowest worker finished backward, seconds.
    pub backward_end_secs: f64,
    /// When the last gradient finished aggregation, seconds.
    pub comm_done_secs: f64,
    /// Iteration end (after the optimizer update), seconds.
    pub iter_secs: f64,
    /// Link-fault actions (applications and restorations) observed while
    /// this iteration ran.
    pub fault_events: u32,
    /// Node crashes that aborted an attempt of this iteration.
    pub crashes: u32,
    /// Wall-clock spent in checkpoint restarts charged to this iteration.
    pub recovery_secs: f64,
}

impl IterationBreakdown {
    /// Communication time not hidden behind compute.
    pub fn comm_tail_secs(&self) -> f64 {
        (self.comm_done_secs - self.backward_end_secs).max(0.0)
    }

    /// Whether any fault activity touched this iteration.
    pub fn fault_impacted(&self) -> bool {
        self.fault_events > 0 || self.crashes > 0
    }
}

/// A reusable simulation instance (kept alive across iterations so engines
/// with cross-iteration state behave realistically).
pub struct TrainingSim {
    cfg: TrainingSimConfig,
    sim: Simulator,
    router: DdlRouter,
    engine: Box<dyn DdlEngine>,
    compute: ComputeModel,
    iter: u64,
    /// The fault plan with node-targeted link faults resolved to NIC
    /// resources (kept for straggler-window queries).
    faults: FaultPlan,
    /// Lazily computed cost of one replayed checkpoint restart, seconds.
    recovery_cost: Option<f64>,
}

impl std::fmt::Debug for TrainingSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingSim")
            .field("engine", &self.engine.name())
            .field("iter", &self.iter)
            .finish()
    }
}

impl TrainingSim {
    /// Builds the simulation (cluster resources, engine, compute model) and
    /// installs the configured fault plan: node-targeted link faults resolve
    /// to that node's NIC tx/rx ports, link faults are armed on the
    /// simulator, and each scheduled crash becomes a timer.
    ///
    /// # Panics
    /// Panics if the plan targets a node outside the cluster.
    pub fn new(cfg: TrainingSimConfig) -> Self {
        let mut sim = Simulator::new();
        if cfg.trace {
            sim.enable_tracing();
        }
        sim.net_mut().set_solve_mode(cfg.solve_mode);
        let cluster = ClusterNet::build(&cfg.cluster, sim.net_mut());
        let engine = cfg.engine.build(&cfg.model, cfg.cluster.world_size());
        let compute = ComputeModel::new(cfg.cluster.node.gpu.clone());
        let nodes = cfg.cluster.nodes;
        let faults = cfg.faults.resolve_links(|n| {
            assert!((n as usize) < nodes, "fault targets node {n}, cluster has {nodes}");
            vec![cluster.node_tx_resource(n as usize), cluster.node_rx_resource(n as usize)]
        });
        sim.install_faults(&faults);
        for (node, at) in faults.crash_times() {
            assert!((node as usize) < nodes, "crash targets node {node}, cluster has {nodes}");
            sim.schedule_at(at, Token::new(FAULT_CRASH_KIND, node, 0));
        }
        let streams = comm_stream_limits(&compute, &cfg.cluster, &cfg.model);
        TrainingSim {
            cfg,
            sim,
            router: DdlRouter::new(cluster, streams),
            engine,
            compute,
            iter: 0,
            faults,
            recovery_cost: None,
        }
    }

    /// Wall-clock cost of one crash: a replayed checkpoint restart (see
    /// [`crate::recovery::replay_failure_recovery`]). Computed once — the
    /// replay is deterministic, every crash costs the same.
    fn recovery_pause_secs(&mut self) -> f64 {
        if self.recovery_cost.is_none() {
            self.recovery_cost = Some(
                replay_failure_recovery(
                    &self.cfg.cluster,
                    &self.cfg.model,
                    RecoveryConfig::default(),
                )
                .total_secs,
            );
        }
        self.recovery_cost.expect("just set")
    }

    /// The effective per-GPU batch size.
    pub fn batch_per_gpu(&self) -> usize {
        self.cfg.batch_per_gpu.unwrap_or_else(|| self.cfg.model.default_batch_per_gpu())
    }

    /// The structured trace recorded so far (empty unless the config enabled
    /// tracing). Export it with [`TraceSink::to_chrome_json`] or summarize it
    /// with [`TraceSink::summary`].
    pub fn trace(&self) -> &TraceSink {
        self.sim.trace()
    }

    /// The engine's AIACC per-iteration counters, when the configured engine
    /// exposes them (baselines return `None`). Lets harnesses cross-check
    /// trace-derived lane counts against `AiaccStats::peak_streams`.
    pub fn engine_stats(&self) -> Option<aiacc_core::AiaccStats> {
        self.engine.aiacc_stats()
    }

    /// Cumulative fluid-solver work counters of the underlying network
    /// (recomputes, solved components and their sizes, fill rounds).
    /// Diagnostic only.
    pub fn solver_stats(&self) -> aiacc_simnet::SolverStats {
        self.sim.net().solver_stats()
    }

    /// Wall-clock split of solver time (solve vs apply vs queue phases).
    /// Machine-dependent; never feed it back into reported results.
    pub fn solve_breakdown(&self) -> aiacc_simnet::SolveBreakdown {
        self.sim.net().solve_breakdown()
    }

    /// Runs one training iteration, returning its wall-clock duration.
    pub fn run_iteration(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(self.run_iteration_detailed().iter_secs)
    }

    /// Starts an attempt of the current iteration: engine reset, then each
    /// worker's compute (forward, per-gradient readiness, backward
    /// completion) scaled by the framework factor, the worker/iteration
    /// jitter, and any straggler fault window active at the attempt's start.
    fn begin_attempt(&mut self, timing: &IterationTiming) {
        let t_start = self.sim.now();
        let attempt = ComputeAttempt {
            world: self.cfg.cluster.world_size(),
            seed: self.cfg.seed,
            jitter_frac: self.cfg.jitter_frac,
            framework: self.cfg.framework,
            timing,
            iter: self.iter,
        };
        let (cfg, faults) = (&self.cfg, &self.faults);
        self.router.begin_iteration(
            &mut self.sim,
            self.engine.as_mut(),
            self.iter,
            attempt.world,
            |sim| {
                schedule_worker_compute(sim, &attempt, |w| {
                    cfg.stragglers
                        .iter()
                        .filter(|&&(sw, _)| sw == w)
                        .map(|&(_, f)| f)
                        .product::<f64>()
                        * faults.compute_factor(cfg.cluster.node_of(w) as u32, t_start)
                })
            },
        );
    }

    /// Runs one iteration and reports its phase breakdown.
    ///
    /// A node crash from the fault plan aborts the running attempt: all
    /// in-flight collectives are torn down, the job pays a replayed
    /// checkpoint restart, and the iteration re-runs from scratch — so a
    /// crashed iteration's `iter_secs` includes the lost attempt, the
    /// recovery pause and the successful re-run. A crash after the
    /// communication finished, before the iteration boundary, moves the
    /// boundary to the end of the restart.
    pub fn run_iteration_detailed(&mut self) -> IterationBreakdown {
        let batch = self.batch_per_gpu();
        let t0 = self.sim.now();
        let timing = self.compute.iteration_timing(&self.cfg.model, batch, DType::F32);

        let mut fault_events = 0u32;
        let mut crashes = 0u32;
        let mut recovery_secs = 0.0f64;

        if self.sim.tracing_enabled() {
            let name = format!("iter {}", self.iter);
            self.sim.trace_span_begin(track::TRAINER, 0, &name, "iteration");
        }
        self.begin_attempt(&timing);

        // `(last backward, comm done)` of the attempt that completed.
        let mut done: Option<(SimTime, SimTime)> = None;
        // The pending boundary; a boundary timer at any other instant was
        // superseded by a crash and is stale.
        let mut boundary: Option<SimTime> = None;
        let end = loop {
            let Some((t, ev)) = self.sim.next_event() else {
                panic!(
                    "simulation drained without finishing iteration {} of {}",
                    self.iter,
                    self.engine.name()
                );
            };
            match ev {
                Event::Timer(tok) if tok.kind == BOUNDARY_KIND => {
                    if boundary != Some(t) {
                        continue;
                    }
                    if done.is_some() {
                        break t;
                    }
                    // The recovery pause is over: retry the iteration.
                    boundary = None;
                    self.begin_attempt(&timing);
                }
                Event::Timer(tok) if tok.kind == FAULT_CRASH_KIND => {
                    // Synchronous SGD: one crashed node kills the whole
                    // attempt. Tear down in-flight work and pay the restart;
                    // the attempt is retried unless its communication had
                    // already finished.
                    crashes += 1;
                    let pause = self.recovery_pause_secs();
                    recovery_secs += pause;
                    if self.sim.tracing_enabled() {
                        let name = format!("crash n{}", tok.a);
                        self.sim.trace_instant(track::TRAINER, 0, &name, "fault", Some(pause));
                    }
                    self.router.abort(&mut self.sim);
                    let resume = t + SimDuration::from_secs_f64(pause);
                    boundary = Some(resume);
                    self.sim.schedule_at(resume, Token::new(BOUNDARY_KIND, 0, 0));
                }
                ev => {
                    fault_events += u32::from(matches!(ev, Event::Fault(_)));
                    let last_bwd = matches!(ev, Event::Timer(tok) if tok.kind == BWD_KIND)
                        && self.router.busy_workers() == 1;
                    if last_bwd && self.sim.tracing_enabled() {
                        self.sim.trace_instant(track::TRAINER, 0, "backward done", "phase", None);
                    }
                    self.router.deliver(&mut self.sim, self.engine.as_mut(), ev);
                    // Synchronous SGD: the iteration ends after the slowest
                    // of compute and communication, plus the optimizer
                    // update; stale work until then is dropped.
                    if let Some(end) = self.router.boundary(self.engine.as_ref(), t, timing.update)
                    {
                        done = Some((self.router.last_backward(), t));
                        if self.sim.tracing_enabled() {
                            self.sim.trace_instant(track::TRAINER, 0, "comm done", "phase", None);
                        }
                        boundary = Some(end);
                        self.sim.schedule_at(end, Token::new(BOUNDARY_KIND, 0, 0));
                    }
                }
            }
        };
        let (last_bwd, comm_done_at) = done.expect("boundary reached after comm done");

        if self.sim.tracing_enabled() {
            let name = format!("iter {}", self.iter);
            self.sim.trace_span_end(track::TRAINER, 0, &name, "iteration");
        }
        self.iter += 1;
        IterationBreakdown {
            backward_end_secs: (last_bwd - t0).as_secs_f64(),
            comm_done_secs: (comm_done_at.max(t0) - t0).as_secs_f64(),
            iter_secs: (end - t0).as_secs_f64(),
            fault_events,
            crashes,
            recovery_secs,
        }
    }

    /// Runs the configured warm-up + measured iterations and reports
    /// throughput.
    pub fn run(&mut self) -> ThroughputReport {
        for _ in 0..self.cfg.warmup {
            let _ = self.run_iteration();
        }
        let mut iter_secs = Vec::with_capacity(self.cfg.iterations);
        for _ in 0..self.cfg.iterations {
            iter_secs.push(self.run_iteration().as_secs_f64());
        }
        let world = self.cfg.cluster.world_size();
        let batch = self.batch_per_gpu();
        ThroughputReport::new(
            self.engine.name(),
            self.cfg.model.name().to_string(),
            world,
            batch,
            self.cfg.model.sample_unit(),
            iter_secs,
        )
    }
}

/// One-shot convenience: build and run a full simulation.
///
/// # Example
/// ```
/// use aiacc_cluster::ClusterSpec;
/// use aiacc_dnn::zoo;
/// use aiacc_trainer::{run_training_sim, EngineKind, TrainingSimConfig};
///
/// let cfg = TrainingSimConfig::new(
///     ClusterSpec::tcp_v100(8),
///     zoo::tiny_cnn(),
///     EngineKind::aiacc_default(),
/// )
/// .with_iterations(1, 2);
/// let report = run_training_sim(cfg);
/// assert!(report.samples_per_sec > 0.0);
/// ```
pub fn run_training_sim(cfg: TrainingSimConfig) -> ThroughputReport {
    TrainingSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_baselines::{BytePsConfig, DdpConfig, HorovodConfig, KvStoreConfig};
    use aiacc_compress::Scheme;
    use aiacc_core::AiaccConfig;
    use aiacc_dnn::zoo;

    fn quick(model: ModelProfile, gpus: usize, engine: EngineKind) -> ThroughputReport {
        run_training_sim(
            TrainingSimConfig::new(ClusterSpec::tcp_v100(gpus), model, engine)
                .with_iterations(1, 2),
        )
    }

    #[test]
    fn every_engine_completes_resnet50_on_two_nodes() {
        for engine in [
            EngineKind::aiacc_default(),
            EngineKind::Horovod(HorovodConfig::default()),
            EngineKind::PyTorchDdp(DdpConfig::default()),
            EngineKind::BytePs(BytePsConfig::default()),
            EngineKind::MxnetKvStore(KvStoreConfig),
        ] {
            let r = quick(zoo::resnet50(), 16, engine);
            assert!(r.samples_per_sec > 100.0, "{}: {} img/s", engine.label(), r.samples_per_sec);
        }
    }

    #[test]
    fn aiacc_beats_horovod_on_vgg16_multinode() {
        // The headline claim at small scale (§III): 1.8× on VGG-16 @ 32 GPUs.
        let a = quick(zoo::vgg16(), 32, EngineKind::aiacc_default());
        let h = quick(zoo::vgg16(), 32, EngineKind::Horovod(HorovodConfig::default()));
        let speedup = a.samples_per_sec / h.samples_per_sec;
        assert!(
            speedup > 1.3,
            "aiacc {} vs horovod {} img/s (speedup {speedup:.2})",
            a.samples_per_sec,
            h.samples_per_sec
        );
    }

    #[test]
    fn aiacc_scaling_efficiency_high_on_resnet50() {
        let single = quick(zoo::resnet50(), 1, EngineKind::aiacc_default());
        let multi = quick(zoo::resnet50(), 32, EngineKind::aiacc_default());
        let eff = crate::scaling_efficiency(&single, &multi);
        assert!(eff > 0.85, "scaling efficiency {eff:.3}");
    }

    #[test]
    fn horovod_efficiency_matches_fig2_band() {
        // Fig. 2: Horovod at 32 GPUs on ResNet-50 reaches ~75 % efficiency.
        let single = quick(zoo::resnet50(), 1, EngineKind::Horovod(HorovodConfig::default()));
        let multi = quick(zoo::resnet50(), 32, EngineKind::Horovod(HorovodConfig::default()));
        let eff = crate::scaling_efficiency(&single, &multi);
        assert!((0.55..0.9).contains(&eff), "Horovod efficiency {eff:.3}");
    }

    #[test]
    fn single_gpu_all_engines_equal_compute_bound() {
        // With one GPU there is no communication: engines must agree.
        let a = quick(zoo::resnet50(), 1, EngineKind::aiacc_default());
        let h = quick(zoo::resnet50(), 1, EngineKind::Horovod(HorovodConfig::default()));
        let ratio = a.samples_per_sec / h.samples_per_sec;
        assert!((ratio - 1.0).abs() < 0.05, "single-GPU ratio {ratio}");
    }

    #[test]
    fn iterations_are_deterministic_given_seed() {
        let r1 = quick(zoo::tiny_cnn(), 8, EngineKind::aiacc_default());
        let r2 = quick(zoo::tiny_cnn(), 8, EngineKind::aiacc_default());
        assert_eq!(r1.iter_secs, r2.iter_secs);
    }

    #[test]
    fn framework_adapters_shift_throughput() {
        let base = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(8),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        )
        .with_iterations(1, 2);
        let pt = run_training_sim(base.clone().with_framework(Framework::PyTorch));
        let mx = run_training_sim(base.with_framework(Framework::Mxnet));
        assert!(pt.samples_per_sec > mx.samples_per_sec);
    }

    #[test]
    fn batch_override_reduces_iteration_time() {
        let big = quick(zoo::bert_large(), 8, EngineKind::aiacc_default());
        let small = run_training_sim(
            TrainingSimConfig::new(
                ClusterSpec::tcp_v100(8),
                zoo::bert_large(),
                EngineKind::aiacc_default(),
            )
            .with_batch(2)
            .with_iterations(1, 2),
        );
        assert!(small.mean_iter_secs() < big.mean_iter_secs());
    }

    #[test]
    fn breakdown_shows_aiacc_hiding_the_communication_tail() {
        // The mechanism behind every figure: on a comm-bound model, AIACC's
        // multi-streamed overlap shrinks the after-backward communication
        // tail that Horovod pays in full (Fig. 5).
        let mk = |engine| {
            let mut sim = TrainingSim::new(TrainingSimConfig::new(
                ClusterSpec::tcp_v100(16),
                zoo::vgg16(),
                engine,
            ));
            let _ = sim.run_iteration(); // warm-up
            sim.run_iteration_detailed()
        };
        let a = mk(EngineKind::aiacc_default());
        let h = mk(EngineKind::Horovod(HorovodConfig::default()));
        assert!(
            a.comm_tail_secs() < h.comm_tail_secs() * 0.4,
            "aiacc tail {:.3}s vs horovod tail {:.3}s",
            a.comm_tail_secs(),
            h.comm_tail_secs()
        );
        // Internal consistency.
        for b in [a, h] {
            assert!(b.iter_secs >= b.comm_done_secs.max(b.backward_end_secs));
        }
    }

    #[test]
    fn a_straggler_slows_the_whole_synchronous_job() {
        let base = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        )
        .with_iterations(1, 2);
        let clean = run_training_sim(base.clone());
        let straggled = run_training_sim(base.with_straggler(3, 1.5));
        // Synchronous SGD: one 1.5× slow worker gates every iteration.
        let ratio = clean.mean_iter_secs() / straggled.mean_iter_secs();
        assert!(
            (0.6..0.75).contains(&ratio),
            "straggler should slow the job ~1.5x, got ratio {ratio:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn straggler_rank_validated() {
        let _ = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(8),
            zoo::tiny_cnn(),
            EngineKind::aiacc_default(),
        )
        .with_straggler(8, 2.0);
    }

    #[test]
    fn compression_config_flows_through() {
        let plain =
            quick(zoo::vgg16(), 16, EngineKind::Aiacc(AiaccConfig::default().with_streams(1)));
        let fp16 = quick(
            zoo::vgg16(),
            16,
            EngineKind::Aiacc(AiaccConfig::default().with_streams(1).with_compress(Scheme::Fp16)),
        );
        assert!(fp16.samples_per_sec > plain.samples_per_sec * 1.2);
    }

    #[test]
    fn a_crash_in_the_drain_window_moves_only_the_boundary() {
        // The drain window runs from communication done to the iteration
        // boundary (the optimizer update). A crash there charges one
        // checkpoint restart from the crash instant; the finished attempt is
        // not re-run.
        let cfg = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        );
        let mut clean = TrainingSim::new(cfg.clone());
        let clean0 = clean.run_iteration_detailed();
        let clean1 = clean.run_iteration_detailed();

        let t0 = SimTime::ZERO;
        let window_start = clean0.comm_done_secs.max(clean0.backward_end_secs);
        let t_crash = SimTime::from_secs_f64((window_start + clean0.iter_secs) / 2.0);
        let crash_secs = (t_crash - t0).as_secs_f64();
        assert!(window_start < crash_secs && crash_secs < clean0.iter_secs, "{clean0:?}");

        let faults = FaultPlan::new().crash_node(1, t_crash);
        let mut crashed = TrainingSim::new(cfg.clone().with_faults(faults));
        let b0 = crashed.run_iteration_detailed();
        let pause =
            replay_failure_recovery(&cfg.cluster, &cfg.model, RecoveryConfig::default()).total_secs;
        let expected = (t_crash + SimDuration::from_secs_f64(pause) - t0).as_secs_f64();
        assert_eq!(b0.iter_secs, expected);
        assert_eq!(b0.crashes, 1);
        assert_eq!(b0.recovery_secs, pause);
        assert_eq!(
            (b0.backward_end_secs, b0.comm_done_secs),
            (clean0.backward_end_secs, clean0.comm_done_secs),
            "the finished attempt was re-run"
        );

        let b1 = crashed.run_iteration_detailed();
        assert_eq!(b1, clean1, "the iteration after the crash was affected");
    }

    #[test]
    fn a_crash_mid_backward_keeps_its_golden_bits_and_reuses_the_run_slab() {
        // The crash lands while every worker's gradient-ready run is half
        // expanded; the aborted runs keep popping into the draining router.
        let cfg = TrainingSimConfig::new(
            ClusterSpec::tcp_v100(16),
            zoo::resnet50(),
            EngineKind::aiacc_default(),
        );
        let mut clean = TrainingSim::new(cfg.clone());
        let clean0 = clean.run_iteration_detailed();
        let clean1 = clean.run_iteration_detailed();
        let timing = clean.compute.iteration_timing(&cfg.model, clean.batch_per_gpu(), DType::F32);
        let into_iter1 = timing.forward + timing.backward.mul_f64(0.5);
        let into_secs = into_iter1.as_secs_f64();
        assert!(
            timing.forward.as_secs_f64() < into_secs && into_secs < clean1.backward_end_secs,
            "crash not mid-backward: {into_secs} vs {clean1:?}"
        );
        let t_crash = SimTime::from_secs_f64(clean0.iter_secs) + into_iter1;
        let mut crashed =
            TrainingSim::new(cfg.with_faults(FaultPlan::new().crash_node(1, t_crash)));
        let mut bits = Vec::new();
        let mut slots = 0;
        for i in 0..100 {
            let b = crashed.run_iteration_detailed();
            assert_eq!(b.crashes, u32::from(i == 1), "iteration {i}: {b:?}");
            bits.push(b.iter_secs.to_bits());
            if i == 2 {
                slots = crashed.sim.timer_run_slots();
            }
        }
        // One run per worker (the aborted runs end within the recovery
        // pause), and no growth over 100 iterations.
        assert_eq!(slots, 16);
        assert_eq!(crashed.sim.timer_run_slots(), slots, "run slab grew");
        let fold = bits
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b).wrapping_mul(0x0100_0000_01b3));
        // Recorded before gradient timers became lazy runs.
        assert_eq!(
            bits[..4],
            [0x3fca43a0a92d6060, 0x40346c2fd71db39a, 0x3fca2eab61f69db4, 0x3fc7a6f3b29d5442]
        );
        assert_eq!(fold, 0xf5d15a091f9052d6);
    }
}
