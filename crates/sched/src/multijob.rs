//! The multi-job driver: every job's engine multiplexed over one shared
//! `Simulator`/`FlowNet`.
//!
//! Each running job owns one [`aiacc_core::ddl::DdlRouter`] — the same
//! event router [`aiacc_trainer::TrainingSim`] drives — so stream limits,
//! event delivery and the iteration-boundary drain rule exist once. The
//! scheduler adds what is per-tenant: the compute schedule (via
//! [`aiacc_trainer::schedule_worker_compute`]), scoped boundary timers, and
//! crash recovery. A job's collectives run on a
//! [`aiacc_cluster::ClusterNet::subnet`] view of the shared physical
//! fabric, so concurrent jobs' flows contend inside one max-min allocation.
//! With a single job the event sequence degenerates to exactly the
//! single-job path, which is what makes the N=1 bit-identity guarantee hold.
//! Batch and streaming scenarios share one event loop; streaming adds
//! arrival staging, slot recycling and snapshots (see [`crate::stream`]).
//!
//! # Failure model
//!
//! Node crashes from the fault plan are first-class events. When a node
//! crashes, its GPUs are quarantined in the [`GpuFreeList`] until the repair
//! event (if any) returns them, and every gang with a member on the node is
//! torn down: in-flight collectives cancelled, then the configured
//! [`RecoveryPolicy`] decides the job's fate — [`RecoveryPolicy::Restart`]
//! (checkpoint restart, re-place on healthy nodes),
//! [`RecoveryPolicy::Shrink`] (elastic continue on the surviving gang
//! members), or [`RecoveryPolicy::Fail`] (account the job as killed). Every
//! recovery pause is priced by the replayed timelines of
//! [`aiacc_trainer::recovery`], so multi-job crash accounting reconciles
//! with the single-job closed forms.
//!
//! Determinism argument for the shared event loop: the simulator delivers
//! events in `(time, schedule-order)` order; every event is routed to its
//! owning job by the scope stamped into its token's high bits
//! ([`aiacc_simnet::Simulator::set_token_scope`]) or, for a flow
//! completion, into the flow's tag
//! ([`aiacc_simnet::Simulator::completed_flow_tag`]). Scopes carry a
//! per-job *epoch* that is bumped on every crash recovery, so events from an
//! aborted attempt can never leak into the resumed one. No routing decision
//! depends on wall-clock, hashing, or thread interleaving, so a scenario is
//! a pure function of (cluster, workload, policy, faults).

use crate::error::SchedError;
use crate::placement::{try_place, PlacePolicy, Placement};
use crate::stream::StreamState;
use crate::workload::{JobSpec, Workload};
use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel, GpuFreeList, IterationTiming};
use aiacc_core::ddl::{DdlEngine, DdlRouter};
use aiacc_dnn::{zoo, DType, ModelProfile};
use aiacc_simnet::trace::track;
use aiacc_simnet::{
    Event, FaultPhase, FaultPlan, FaultRecord, FaultTarget, FlowId, SimDuration, SimTime,
    Simulator, SolveMode, SolverStats, Token,
};
use aiacc_trainer::recovery::{replay_elastic_join, replay_failure_recovery, RecoveryConfig};
use aiacc_trainer::{comm_stream_limits, schedule_worker_compute, ComputeAttempt, Framework};

/// Unscoped timer kind announcing a job arrival (`a` = job id).
pub(crate) const ARRIVAL_KIND: u32 = 10;
/// Scoped timer kind marking a job's iteration boundary (`b` = iteration).
const BOUNDARY_KIND: u32 = 11;
/// Unscoped timer kind for a node crash (`a` = node).
pub(crate) const CRASH_KIND: u32 = 12;
/// Unscoped timer kind for a node repair (`a` = node).
pub(crate) const REPAIR_KIND: u32 = 13;
/// Unscoped timer kind re-queueing a restarted job after its checkpoint
/// restore completes (`a` = job id).
pub(crate) const REQUEUE_KIND: u32 = 14;
/// Scoped timer kind resuming a shrunken gang after its elastic-join pause.
const RESUME_KIND: u32 = 15;

/// EWMA weight of the newest iteration sample in the straggler detector.
const EWMA_ALPHA: f64 = 0.5;
/// Floor on the synthetic NIC-health capacity ratio a mitigation reports —
/// the stream pool never collapses below a quarter of its configured size.
const MITIGATION_FLOOR: f64 = 0.25;

/// What to do with a job whose gang lost a node to a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPolicy {
    /// Checkpoint restart: pay a replayed
    /// [`aiacc_trainer::recovery::replay_failure_recovery`] pause, then
    /// re-place the full gang on healthy nodes and retry the interrupted
    /// iteration (completed iterations are checkpointed).
    Restart,
    /// Elastic continue: the surviving gang members keep their GPUs, pay a
    /// replayed [`aiacc_trainer::recovery::replay_elastic_join`]
    /// membership-change pause (the rebuild cost is symmetric in join and
    /// leave), and resume on a ring rebuilt over the shrunken subnet. A gang
    /// with no survivors falls back to [`RecoveryPolicy::Restart`].
    Shrink,
    /// Kill the job and account it as failed in the cluster metrics.
    Fail,
}

impl RecoveryPolicy {
    /// The policy's CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Restart => "restart",
            RecoveryPolicy::Shrink => "shrink",
            RecoveryPolicy::Fail => "fail",
        }
    }

    /// Looks a policy up by name.
    pub fn by_name(name: &str) -> Option<RecoveryPolicy> {
        match name {
            "restart" => Some(RecoveryPolicy::Restart),
            "shrink" => Some(RecoveryPolicy::Shrink),
            "fail" => Some(RecoveryPolicy::Fail),
            _ => None,
        }
    }
}

/// Configuration of one multi-job scenario.
#[derive(Debug, Clone)]
pub struct MultiJobCfg {
    /// The shared physical cluster.
    pub cluster: ClusterSpec,
    /// Gang placement policy.
    pub policy: PlacePolicy,
    /// The jobs to run.
    pub workload: Workload,
    /// Framework adapter applied to every job.
    pub framework: Framework,
    /// Compute jitter amplitude (fraction).
    pub jitter_frac: f64,
    /// Fault plan on the *physical* cluster: node-targeted link faults
    /// resolve to that node's NIC, straggler windows slow the node's
    /// compute, and crashes take the node (and every gang on it) down until
    /// the repair event.
    pub faults: FaultPlan,
    /// What happens to a gang that loses a node.
    pub recovery: RecoveryPolicy,
    /// When `Some(threshold)`, the straggler detector flags a running job
    /// whose iteration-time slowdown (EWMA over its own fastest iteration)
    /// exceeds `threshold ×` the cluster-median slowdown, and feeds a
    /// synthetic NIC-health record to that job's engine so AIACC's stream
    /// pool scales down on the degraded gang.
    pub straggler_threshold: Option<f64>,
    /// Records a structured trace (one lane per job).
    pub trace: bool,
    /// How the fluid solver re-solves a dirty network. Both modes produce
    /// bit-identical output; [`SolveMode::Full`] is the flat oracle.
    pub solve_mode: SolveMode,
}

impl MultiJobCfg {
    /// A scenario with TrainingSim-matching defaults (PyTorch, 2 % jitter,
    /// no faults, restart recovery, no straggler mitigation, no trace).
    pub fn new(cluster: ClusterSpec, policy: PlacePolicy, workload: Workload) -> Self {
        MultiJobCfg {
            cluster,
            policy,
            workload,
            framework: Framework::PyTorch,
            jitter_frac: 0.02,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::Restart,
            straggler_threshold: None,
            trace: false,
            solve_mode: SolveMode::Partitioned,
        }
    }

    /// Installs a fault plan (link faults, straggler windows, crashes).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the crash-recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables the straggler detector with the given relative threshold
    /// (e.g. `1.25` flags jobs running 25 % slower than the cluster median
    /// slowdown).
    ///
    /// # Panics
    /// Panics if `threshold < 1.0`.
    pub fn with_straggler_mitigation(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "straggler threshold must be >= 1: {threshold}");
        self.straggler_threshold = Some(threshold);
        self
    }

    /// Enables structured tracing.
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

/// What happened to one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job id.
    pub id: usize,
    /// Model name.
    pub model: String,
    /// Gang size in GPUs.
    pub gpus: usize,
    /// Engine label.
    pub engine: String,
    /// Arrival time, seconds.
    pub arrival_secs: f64,
    /// When the gang was placed and the first iteration began, seconds.
    pub start_secs: f64,
    /// When the last iteration's boundary passed (or the job was killed),
    /// seconds.
    pub finish_secs: f64,
    /// Physical nodes the gang occupied (its last placement).
    pub nodes_used: usize,
    /// Per-iteration durations, seconds. A crashed-and-retried iteration's
    /// duration includes the lost attempt and the recovery pause, exactly as
    /// in the single-job `TrainingSim`.
    pub iter_secs: Vec<f64>,
    /// Bytes this job's flows actually moved on the fabric (all epochs).
    pub comm_bytes_delivered: f64,
    /// Bytes this job's flows were launched to move (all epochs).
    pub comm_bytes_launched: f64,
    /// Node crashes that hit this job's gang.
    pub crashes: u32,
    /// Checkpoint restarts the job paid.
    pub restarts: u32,
    /// Elastic shrink operations the job paid.
    pub shrinks: u32,
    /// Total wall-clock spent in recovery pauses, seconds.
    pub recovery_secs: f64,
    /// Straggler mitigations applied to this job.
    pub mitigations: u32,
    /// Whether the job was killed (crash under [`RecoveryPolicy::Fail`], or
    /// no possible placement left after permanent capacity loss).
    pub failed: bool,
}

impl JobOutcome {
    /// Job completion time: finish − arrival.
    pub fn jct_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }

    /// Time spent waiting in the queue: start − arrival (clamped at zero —
    /// the simulator snaps arrival timestamps to its nanosecond grid, which
    /// can land a hair before the requested float instant).
    pub fn queue_delay_secs(&self) -> f64 {
        (self.start_secs - self.arrival_secs).max(0.0)
    }

    /// Mean iteration duration, seconds (0 for a job killed before its
    /// first iteration boundary).
    pub fn mean_iter_secs(&self) -> f64 {
        if self.iter_secs.is_empty() {
            return 0.0;
        }
        self.iter_secs.iter().sum::<f64>() / self.iter_secs.len() as f64
    }

    /// The TSV header matching [`JobOutcome::tsv_row`].
    pub fn tsv_header() -> &'static str {
        "id\tmodel\tgpus\tengine\tarrival_s\tstart_s\tfinish_s\tjct_s\tqueue_s\tnodes\tmean_iter_s\
         \tcrashes\trestarts\tshrinks\trecovery_s\tmitigations\tfailed"
    }

    /// One deterministic TSV row (fixed 9-digit float precision, no trailing
    /// newline) — shared by the batch `schedule` renderer and the streaming
    /// per-job output, so the two paths are directly diffable.
    pub fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{:.9}\t{}\t{:.9}\t{}\t{}\t{}\t{:.9}\t{}\t{}",
            self.id,
            self.model,
            self.gpus,
            self.engine,
            self.arrival_secs,
            self.start_secs,
            self.finish_secs,
            self.jct_secs(),
            self.queue_delay_secs(),
            self.nodes_used,
            self.mean_iter_secs(),
            self.crashes,
            self.restarts,
            self.shrinks,
            self.recovery_secs,
            self.mitigations,
            self.failed as u8,
        )
    }
}

/// Result of one multi-job scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJobReport {
    /// The placement policy that ran.
    pub policy: PlacePolicy,
    /// Per-job outcomes, by job id.
    pub jobs: Vec<JobOutcome>,
    /// Last finish minus first arrival, seconds.
    pub makespan_secs: f64,
    /// Mean NIC transmit utilization over the makespan across all nodes.
    pub fabric_utilization: f64,
    /// Cumulative fluid-solver counters for the whole scenario. Diagnostic
    /// only: not part of any TSV rendering.
    pub solver: SolverStats,
}

/// One running job's iteration state: its event router and engine, plus
/// the scheduler's per-job bookkeeping.
pub(crate) struct RunningJob {
    placement: Placement,
    router: DdlRouter,
    engine: Box<dyn DdlEngine>,
    timing: IterationTiming,
    iter: u64,
    iter_start: SimTime,
    started_at: SimTime,
    iter_secs: Vec<f64>,
}

/// Iteration progress preserved while a crashed job waits to be re-placed.
pub(crate) struct SavedProgress {
    iter: u64,
    iter_secs: Vec<f64>,
    started_at: SimTime,
    iter_start: SimTime,
}

pub(crate) enum JobState {
    /// Streaming only: the slot holds no job (its `spec`/`model` are
    /// placeholders). Batch scenarios never enter this state.
    Vacant,
    /// Not yet arrived, or arrived and waiting in the queue.
    Pending,
    Running(Box<RunningJob>),
    /// Crashed under [`RecoveryPolicy::Restart`]: gang released, restoring
    /// its checkpoint until the re-queue timer fires.
    Suspended(SavedProgress),
    Done,
}

pub(crate) struct JobRun {
    /// The job currently occupying this entry. In batch mode the entry index
    /// *is* the job id; in streaming mode entries are slots that successive
    /// jobs move through and `spec.id` carries the global id.
    pub(crate) spec: JobSpec,
    pub(crate) model: ModelProfile,
    pub(crate) state: JobState,
    pub(crate) outcome: Option<JobOutcome>,
    /// Bumped on every crash recovery (and, in streaming mode, on every slot
    /// reuse); events stamped with a stale epoch are dropped on delivery.
    pub(crate) epoch: u32,
    /// Every token scope this job has used (one per epoch), for byte
    /// accounting across restarts.
    pub(crate) scopes: Vec<u32>,
    pub(crate) crashes: u32,
    pub(crate) restarts: u32,
    pub(crate) shrinks: u32,
    pub(crate) recovery_secs: f64,
    pub(crate) mitigations: u32,
    /// EWMA of iteration seconds (straggler detector).
    pub(crate) ewma_iter: Option<f64>,
    /// Fastest iteration seen so far (the job's own healthy baseline).
    pub(crate) best_iter: Option<f64>,
    /// Whether a synthetic NIC-health mitigation is currently applied.
    pub(crate) mitigated: bool,
    /// Capacity the active mitigation advertised (for the restore record).
    pub(crate) mitigation_cap: f64,
}

impl JobRun {
    fn new(model: ModelProfile, spec: JobSpec) -> Self {
        JobRun {
            spec,
            model,
            state: JobState::Pending,
            outcome: None,
            epoch: 0,
            scopes: Vec::new(),
            crashes: 0,
            restarts: 0,
            shrinks: 0,
            recovery_secs: 0.0,
            mitigations: 0,
            ewma_iter: None,
            best_iter: None,
            mitigated: false,
            mitigation_cap: 0.0,
        }
    }

    /// An empty streaming slot (placeholder spec/model, never read while
    /// vacant).
    pub(crate) fn vacant() -> Self {
        let spec = JobSpec {
            id: 0,
            arrival_secs: 0.0,
            model: "tiny_cnn".to_string(),
            gpus: 1,
            engine: aiacc_trainer::EngineKind::aiacc_default(),
            iterations: 1,
            seed: 0,
        };
        let model = zoo::by_name("tiny_cnn").expect("tiny_cnn in zoo");
        let mut run = JobRun::new(model, spec);
        run.state = JobState::Vacant;
        run
    }

    /// Re-arms a vacant streaming slot for its next tenant: installs the
    /// spec/model, clears all per-job accounting, and keeps `epoch` (the
    /// slot's generation counter, bumped when the previous tenant left).
    pub(crate) fn install(&mut self, model: ModelProfile, spec: JobSpec) {
        debug_assert!(matches!(self.state, JobState::Vacant), "installing into occupied slot");
        self.spec = spec;
        self.model = model;
        self.state = JobState::Pending;
        self.outcome = None;
        self.scopes.clear();
        self.crashes = 0;
        self.restarts = 0;
        self.shrinks = 0;
        self.recovery_secs = 0.0;
        self.mitigations = 0;
        self.ewma_iter = None;
        self.best_iter = None;
        self.mitigated = false;
        self.mitigation_cap = 0.0;
    }
}

/// The multi-job scheduler/simulator.
pub struct MultiJobSim {
    pub(crate) cfg: MultiJobCfg,
    pub(crate) sim: Simulator,
    pub(crate) physical: ClusterNet,
    pub(crate) free: GpuFreeList,
    pub(crate) faults: FaultPlan,
    pub(crate) jobs: Vec<JobRun>,
    /// FIFO queue of arrived-but-unplaced job ids (batch mode; streaming
    /// keeps its own queue of slots and not-yet-admitted specs).
    pub(crate) queue: Vec<usize>,
    /// Repair events still scheduled to fire; while any remain, an
    /// unplaceable job keeps waiting instead of being declared impossible.
    pub(crate) pending_repairs: usize,
    /// `Some` puts the driver in streaming mode: `jobs` become recycled
    /// slots, arrivals come from an open-loop source, and finished jobs fold
    /// into windowed metrics instead of accumulating outcomes.
    pub(crate) stream: Option<Box<StreamState>>,
}

impl MultiJobSim {
    /// Builds the scenario — physical resources, fault plan (link faults,
    /// crash/repair timers), arrival timers — after validating the config.
    pub fn try_new(cfg: MultiJobCfg) -> Result<Self, SchedError> {
        if cfg.workload.jobs.is_empty() {
            return Err(SchedError::EmptyWorkload);
        }
        let total = cfg.cluster.world_size();
        let nodes = cfg.cluster.nodes;
        for (i, j) in cfg.workload.jobs.iter().enumerate() {
            if j.id != i {
                return Err(SchedError::NonDenseJobIds { index: i, id: j.id });
            }
            if j.gpus == 0 || j.gpus > total {
                return Err(SchedError::BadGangSize { job: i, gpus: j.gpus, capacity: total });
            }
            if j.iterations == 0 {
                return Err(SchedError::ZeroIterations { job: i });
            }
            if zoo::by_name(&j.model).is_none() {
                return Err(SchedError::UnknownModel { job: i, model: j.model.clone() });
            }
        }
        for ev in cfg.faults.events() {
            if let FaultTarget::Node(n) = ev.target {
                if n as usize >= nodes {
                    return Err(SchedError::FaultNodeOutOfRange { node: n, nodes });
                }
            }
        }

        let mut sim = Simulator::new();
        if cfg.trace {
            sim.enable_tracing();
        }
        sim.net_mut().set_solve_mode(cfg.solve_mode);
        let physical = ClusterNet::build(&cfg.cluster, sim.net_mut());
        let free = GpuFreeList::new(&cfg.cluster);
        let faults = cfg.faults.resolve_links(|n| {
            vec![physical.node_tx_resource(n as usize), physical.node_rx_resource(n as usize)]
        });
        sim.install_faults(&faults);
        let mut jobs = Vec::with_capacity(cfg.workload.jobs.len());
        for (i, j) in cfg.workload.jobs.iter().enumerate() {
            let model = zoo::by_name(&j.model).expect("validated above");
            sim.schedule_at(
                SimTime::from_secs_f64(j.arrival_secs),
                Token::new(ARRIVAL_KIND, i as u32, 0),
            );
            jobs.push(JobRun::new(model, j.clone()));
        }
        let mut pending_repairs = 0;
        for (node, at, repair) in faults.crash_spans() {
            sim.schedule_at(at, Token::new(CRASH_KIND, node, 0));
            if let Some(up_at) = repair {
                sim.schedule_at(up_at, Token::new(REPAIR_KIND, node, 0));
                pending_repairs += 1;
            }
        }
        Ok(MultiJobSim {
            cfg,
            sim,
            physical,
            free,
            faults,
            jobs,
            queue: Vec::new(),
            pending_repairs,
            stream: None,
        })
    }

    /// Builds the scenario, panicking on an invalid config (the fallible
    /// variant is [`MultiJobSim::try_new`]).
    ///
    /// # Panics
    /// Panics if [`MultiJobSim::try_new`] would return an error.
    pub fn new(cfg: MultiJobCfg) -> Self {
        MultiJobSim::try_new(cfg).unwrap_or_else(|e| panic!("invalid multi-job scenario: {e}"))
    }

    /// The scope stamped on job `id`'s tokens and flows in its current
    /// epoch: `1 + id + epoch·njobs`. Epoch 0 reduces to `id + 1` (scope 0
    /// stays reserved for scheduler-level events), so fault-free scenarios
    /// produce exactly the pre-crash-support event stream.
    ///
    /// Streaming mode reuses the 16-bit scope space forever by folding the
    /// slot's generation counter modulo [`StreamState::gen_mod`]:
    /// `1 + slot + (epoch mod gen_mod)·nslots`. Stale events from an old
    /// generation are dropped on delivery by the same epoch comparison, and
    /// per-tag byte accounting is re-zeroed on reuse (see
    /// [`MultiJobSim::record_scope`]).
    fn scope(&self, id: usize) -> u32 {
        let njobs = self.jobs.len();
        let epoch = self.jobs[id].epoch as usize;
        if let Some(st) = &self.stream {
            return (1 + id + (epoch % st.gen_mod as usize) * njobs) as u32;
        }
        let s = 1 + id + epoch * njobs;
        assert!(
            s <= 0xFFFF,
            "job {id} epoch {} overflows the token scope space",
            self.jobs[id].epoch
        );
        s as u32
    }

    /// Inverts [`MultiJobSim::scope`]: `(job id, epoch mod gen_mod)` — in
    /// batch mode `gen_mod` is effectively infinite and the second component
    /// is the epoch itself.
    fn decode_scope(&self, scope: u32) -> (usize, u32) {
        let v = scope as usize - 1;
        (v % self.jobs.len(), (v / self.jobs.len()) as u32)
    }

    /// Whether an event stamped with `scope_epoch` (the epoch component of a
    /// decoded scope) belongs to job `id`'s *current* epoch.
    fn epoch_live(&self, id: usize, scope_epoch: u32) -> bool {
        match &self.stream {
            Some(st) => scope_epoch == self.jobs[id].epoch % st.gen_mod,
            None => scope_epoch == self.jobs[id].epoch,
        }
    }

    /// Records the job's current scope for byte accounting. In streaming
    /// mode the tag's fabric accumulators are re-zeroed first, so a recycled
    /// tag starts counting from exactly `0.0` for its new owner (this also
    /// makes snapshot-resumed runs — whose fresh network starts all tags at
    /// zero — bit-identical to uninterrupted ones).
    fn record_scope(&mut self, id: usize) {
        let s = self.scope(id);
        if !self.jobs[id].scopes.contains(&s) {
            if self.stream.is_some() {
                self.sim.net_mut().reset_bytes_by_tag(s);
            }
            self.jobs[id].scopes.push(s);
        }
    }

    /// Whether the scenario is over: every batch job done, or the stream
    /// drained (or stopped at a snapshot).
    fn finished(&self) -> bool {
        match &self.stream {
            None => self.jobs.iter().all(|j| matches!(j.state, JobState::Done)),
            Some(_) => crate::stream::finished(self),
        }
    }

    /// Total GPUs on nodes that are currently up (free or occupied).
    pub(crate) fn up_capacity(&self) -> usize {
        (0..self.cfg.cluster.nodes)
            .filter(|&n| !self.free.node_is_down(n))
            .map(|n| self.cfg.cluster.gpus_on_node(n))
            .sum()
    }

    /// Tries to place job `id` right now; on success starts (or resumes) its
    /// first pending iteration.
    pub(crate) fn try_start(&mut self, id: usize) -> bool {
        let gpus = self.jobs[id].spec.gpus;
        let Some(placement) = try_place(self.cfg.policy, gpus, &self.free) else {
            return false;
        };
        placement.commit(&mut self.free);
        let model = self.jobs[id].model.clone();
        let engine = self.jobs[id].spec.engine.build(&model, placement.spec.world_size());
        let compute = ComputeModel::new(placement.spec.node.gpu.clone());
        let batch = model.default_batch_per_gpu();
        let timing = compute.iteration_timing(&model, batch, DType::F32);
        let streams = comm_stream_limits(&compute, &placement.spec, &model);
        let cluster = self.physical.subnet(placement.spec.clone(), &placement.ranks);
        let now = self.sim.now();
        let saved = match std::mem::replace(&mut self.jobs[id].state, JobState::Pending) {
            JobState::Suspended(s) => Some(s),
            JobState::Pending => None,
            _ => unreachable!("placing a job that is running or done"),
        };
        if self.sim.tracing_enabled() {
            let name =
                if saved.is_some() { format!("job{id} restart") } else { format!("job{id} start") };
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
        }
        let (iter, iter_secs, started_at, iter_start) = match saved {
            Some(s) => (s.iter, s.iter_secs, s.started_at, s.iter_start),
            None => (0, Vec::new(), now, now),
        };
        // A rebuilt engine starts with a clean NIC-health map.
        self.jobs[id].mitigated = false;
        self.jobs[id].state = JobState::Running(Box::new(RunningJob {
            placement,
            router: DdlRouter::new(cluster, streams),
            engine,
            timing,
            iter,
            iter_start,
            started_at,
            iter_secs,
        }));
        self.record_scope(id);
        self.begin_iteration(id);
        true
    }

    /// Starts job `id`'s current iteration through its router — engine
    /// reset, then the per-worker compute schedule — under the job's token
    /// scope so every timer and flow is stamped with its owner.
    fn begin_iteration(&mut self, id: usize) {
        let scope = self.scope(id);
        let seed = self.jobs[id].spec.seed;
        let JobState::Running(r) = &mut self.jobs[id].state else {
            unreachable!("job not running")
        };
        let now = self.sim.now();
        let attempt = ComputeAttempt {
            world: r.placement.spec.world_size(),
            seed,
            jitter_frac: self.cfg.jitter_frac,
            framework: self.cfg.framework,
            timing: &r.timing,
            iter: r.iter,
        };
        let (phys_spec, faults, ranks) = (&self.cfg.cluster, &self.faults, &r.placement.ranks);
        self.sim.set_token_scope(scope);
        r.router.begin_iteration(&mut self.sim, r.engine.as_mut(), r.iter, attempt.world, |sim| {
            schedule_worker_compute(sim, &attempt, |w| {
                faults.compute_factor(phys_spec.node_of(ranks[w]) as u32, now)
            })
        });
        self.sim.set_token_scope(0);
        if self.sim.tracing_enabled() {
            let name = format!("job{id} iter {}", r.iter);
            self.sim.trace_span_begin(track::TRAINER, id as u64, &name, "iteration");
        }
    }

    /// Once job `id`'s router reports its communication done at `t`,
    /// schedules the iteration boundary timer; the job drains until then.
    fn check_comm_done(&mut self, id: usize, t: SimTime) {
        let scope = self.scope(id);
        let JobState::Running(r) = &mut self.jobs[id].state else { return };
        let Some(end) = r.router.boundary(r.engine.as_ref(), t, r.timing.update) else { return };
        self.sim.set_token_scope(scope);
        self.sim.schedule_at(end, Token::new(BOUNDARY_KIND, id as u32, r.iter));
        self.sim.set_token_scope(0);
    }

    /// Hands `ev` to running job `id`'s router under the job's token scope.
    fn deliver(&mut self, id: usize, ev: Event) {
        let scope = self.scope(id);
        let JobState::Running(r) = &mut self.jobs[id].state else { return };
        self.sim.set_token_scope(scope);
        r.router.deliver(&mut self.sim, r.engine.as_mut(), ev);
        self.sim.set_token_scope(0);
    }

    /// Handles a job's iteration boundary: record the duration, then either
    /// start the next iteration or complete the job and re-dispatch the
    /// queue.
    fn on_boundary(&mut self, id: usize, t: SimTime) {
        let iterations = self.jobs[id].spec.iterations;
        let job = &mut self.jobs[id];
        let JobState::Running(r) = &mut job.state else { return };
        let last = (t - r.iter_start).as_secs_f64();
        r.iter_secs.push(last);
        job.best_iter = Some(job.best_iter.map_or(last, |b| b.min(last)));
        job.ewma_iter =
            Some(job.ewma_iter.map_or(last, |e| (1.0 - EWMA_ALPHA) * e + EWMA_ALPHA * last));
        if self.sim.tracing_enabled() {
            let name = format!("job{id} iter {}", r.iter);
            self.sim.trace_span_end(track::TRAINER, id as u64, &name, "iteration");
        }
        r.iter += 1;
        if (r.iter as usize) < iterations {
            r.iter_start = t;
            self.begin_iteration(id);
            self.run_straggler_detector();
            return;
        }
        // Job complete: tear down lingering flows so the fabric is clean for
        // the tenants that remain, free the gang, record the outcome.
        r.router.coll.cancel_all(&mut self.sim);
        r.placement.release(&mut self.free);
        let start = r.started_at.as_secs_f64();
        let nodes_used = r.placement.node_count();
        let iter_secs = std::mem::take(&mut r.iter_secs);
        job.state = JobState::Done;
        let out = self.make_outcome(id, start, t.as_secs_f64(), nodes_used, iter_secs, false);
        self.finish_job(id, out);
        if self.sim.tracing_enabled() {
            let name = format!("job{id} done");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
        }
        self.dispatch_queue();
    }

    /// Terminal accounting for a finished (completed or failed) job. Batch
    /// mode stores the outcome for the final report; streaming mode folds it
    /// into the windowed metrics and recycles the slot.
    fn finish_job(&mut self, id: usize, out: JobOutcome) {
        if self.stream.is_some() {
            crate::stream::fold_finished(self, id, out);
        } else {
            self.jobs[id].outcome = Some(out);
        }
    }

    /// Assembles a job's outcome, summing fabric bytes over every scope
    /// (epoch) the job ran under.
    fn make_outcome(
        &self,
        id: usize,
        start_secs: f64,
        finish_secs: f64,
        nodes_used: usize,
        iter_secs: Vec<f64>,
        failed: bool,
    ) -> JobOutcome {
        let j = &self.jobs[id];
        let spec = &j.spec;
        let (delivered, launched) = j.scopes.iter().fold((0.0, 0.0), |(d, l), &s| {
            (
                d + self.sim.net().delivered_bytes_by_tag(s),
                l + self.sim.net().launched_bytes_by_tag(s),
            )
        });
        JobOutcome {
            id: spec.id,
            model: spec.model.clone(),
            gpus: spec.gpus,
            engine: spec.engine.label().to_string(),
            arrival_secs: spec.arrival_secs,
            start_secs,
            finish_secs,
            nodes_used,
            iter_secs,
            comm_bytes_delivered: delivered,
            comm_bytes_launched: launched,
            crashes: j.crashes,
            restarts: j.restarts,
            shrinks: j.shrinks,
            recovery_secs: j.recovery_secs,
            mitigations: j.mitigations,
            failed,
        }
    }

    /// FIFO dispatch with backfill: jobs are tried in arrival order, and a
    /// blocked head does not starve smaller jobs behind it. A queued job
    /// that can never fit again — its gang exceeds the up-node capacity and
    /// no repairs are pending — is failed deterministically instead of
    /// stalling the scenario forever.
    fn dispatch_queue(&mut self) {
        if self.stream.is_some() {
            return crate::stream::dispatch(self);
        }
        let mut i = 0;
        while i < self.queue.len() {
            let id = self.queue[i];
            if self.try_start(id) {
                self.queue.remove(i);
            } else if self.pending_repairs == 0 && self.jobs[id].spec.gpus > self.up_capacity() {
                self.queue.remove(i);
                self.fail_unplaced(id);
            } else {
                i += 1;
            }
        }
    }

    /// Fails a job that is waiting in the queue with no possible placement
    /// left (permanent capacity loss).
    pub(crate) fn fail_unplaced(&mut self, id: usize) {
        let t = self.sim.now().as_secs_f64();
        let state = std::mem::replace(&mut self.jobs[id].state, JobState::Done);
        let (start, iter_secs) = match state {
            JobState::Suspended(s) => (s.started_at.as_secs_f64(), s.iter_secs),
            JobState::Pending => (t, Vec::new()),
            _ => unreachable!("queued job neither pending nor suspended"),
        };
        let out = self.make_outcome(id, start, t, 0, iter_secs, true);
        self.finish_job(id, out);
        if self.sim.tracing_enabled() {
            let name = format!("job{id} failed");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
        }
    }

    /// Handles a node crash: quarantine the node's GPUs, then tear down and
    /// recover (or fail) every gang with a member on it, in job-id order.
    fn on_crash(&mut self, node: usize, t: SimTime) {
        if let Some(st) = self.stream.as_mut() {
            st.pending_crashes = st.pending_crashes.saturating_sub(1);
        }
        self.free.set_node_down(node);
        if self.sim.tracing_enabled() {
            let name = format!("crash n{node}");
            self.sim.trace_instant(track::TRAINER, u64::MAX, &name, "fault", None);
        }
        for id in 0..self.jobs.len() {
            let hit = match &self.jobs[id].state {
                JobState::Running(r) => {
                    r.placement.ranks.iter().any(|&g| self.cfg.cluster.node_of(g) == node)
                }
                _ => false,
            };
            if !hit {
                continue;
            }
            self.jobs[id].crashes += 1;
            let JobState::Running(mut r) =
                std::mem::replace(&mut self.jobs[id].state, JobState::Pending)
            else {
                unreachable!()
            };
            r.router.abort(&mut self.sim);
            if self.sim.tracing_enabled() {
                // Close the open iteration span so traces stay balanced; the
                // retry re-opens it under the same name.
                let name = format!("job{id} iter {}", r.iter);
                self.sim.trace_span_end(track::TRAINER, id as u64, &name, "iteration");
            }
            match self.cfg.recovery {
                RecoveryPolicy::Fail => self.fail_running(id, r, t),
                RecoveryPolicy::Restart => self.restart_job(id, r, t),
                RecoveryPolicy::Shrink => self.shrink_job(id, r, node, t),
            }
        }
        // Capacity released by restarted/failed gangs can admit queued jobs.
        self.dispatch_queue();
    }

    /// Kills a running job at the crash instant ([`RecoveryPolicy::Fail`]).
    fn fail_running(&mut self, id: usize, r: Box<RunningJob>, t: SimTime) {
        r.placement.release(&mut self.free);
        self.jobs[id].state = JobState::Done;
        let out = self.make_outcome(
            id,
            r.started_at.as_secs_f64(),
            t.as_secs_f64(),
            r.placement.node_count(),
            r.iter_secs,
            true,
        );
        self.finish_job(id, out);
        if self.sim.tracing_enabled() {
            let name = format!("job{id} failed");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
        }
    }

    /// Checkpoint restart ([`RecoveryPolicy::Restart`]): release the whole
    /// gang, pay the replayed restore pause, re-queue at the interrupted
    /// iteration. The crashed iteration's eventual duration spans the lost
    /// attempt, the pause and the re-run — the same accounting as the
    /// single-job `TrainingSim`.
    fn restart_job(&mut self, id: usize, mut r: Box<RunningJob>, t: SimTime) {
        r.placement.release(&mut self.free);
        let pause = replay_failure_recovery(
            &r.placement.spec,
            &self.jobs[id].model,
            RecoveryConfig::default(),
        )
        .total_secs;
        self.jobs[id].recovery_secs += pause;
        self.jobs[id].restarts += 1;
        self.jobs[id].epoch += 1;
        self.jobs[id].state = JobState::Suspended(SavedProgress {
            iter: r.iter,
            iter_secs: std::mem::take(&mut r.iter_secs),
            started_at: r.started_at,
            iter_start: r.iter_start,
        });
        let gen = self.requeue_gen(id);
        self.sim.schedule_at(
            t + SimDuration::from_secs_f64(pause),
            Token::new(REQUEUE_KIND, id as u32, gen),
        );
        if self.sim.tracing_enabled() {
            let name = format!("job{id} checkpoint restore");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "recovery", Some(pause));
        }
    }

    /// Elastic shrink ([`RecoveryPolicy::Shrink`]): survivors keep their
    /// GPUs, the dead node's ranks are parked, the ring is rebuilt over the
    /// shrunken subnet after a replayed membership-change pause. Falls back
    /// to a full restart when the gang has no survivors.
    fn shrink_job(&mut self, id: usize, mut r: Box<RunningJob>, node: usize, t: SimTime) {
        let (dead, alive): (Vec<usize>, Vec<usize>) =
            r.placement.ranks.iter().partition(|&&g| self.cfg.cluster.node_of(g) == node);
        if alive.is_empty() {
            self.restart_job(id, r, t);
            return;
        }
        self.free.release(&dead);
        // Removing one physical node from a regular gang leaves a regular
        // gang: the per-logical-node counts stay `c, …, c, tail`.
        let old = &r.placement.spec;
        let counts: Vec<usize> = (0..old.nodes)
            .filter(|&ln| {
                self.cfg.cluster.node_of(r.placement.ranks[logical_base(old, ln)]) != node
            })
            .map(|ln| old.gpus_on_node(ln))
            .collect();
        let mut nodecfg = old.node.clone();
        let survivor_spec = if counts.len() == 1 {
            nodecfg.gpus_per_node = counts[0];
            ClusterSpec::new(1, nodecfg)
        } else {
            let c = counts[0];
            let tail = *counts.last().expect("non-empty");
            nodecfg.gpus_per_node = c;
            ClusterSpec::with_tail(counts.len(), nodecfg, if tail == c { 0 } else { tail })
        };
        debug_assert_eq!(survivor_spec.world_size(), alive.len());
        let pause =
            replay_elastic_join(&survivor_spec, &self.jobs[id].model, 1, RecoveryConfig::default())
                .total_secs;
        self.jobs[id].recovery_secs += pause;
        self.jobs[id].shrinks += 1;
        self.jobs[id].epoch += 1;
        self.jobs[id].mitigated = false;
        let model = self.jobs[id].model.clone();
        let engine = self.jobs[id].spec.engine.build(&model, survivor_spec.world_size());
        let compute = ComputeModel::new(survivor_spec.node.gpu.clone());
        let timing = compute.iteration_timing(&model, model.default_batch_per_gpu(), DType::F32);
        let streams = comm_stream_limits(&compute, &survivor_spec, &model);
        let cluster = self.physical.subnet(survivor_spec.clone(), &alive);
        // The new router drains until the resume timer begins the retry.
        self.jobs[id].state = JobState::Running(Box::new(RunningJob {
            placement: Placement { spec: survivor_spec, ranks: alive },
            router: DdlRouter::new(cluster, streams),
            engine,
            timing,
            iter: r.iter,
            iter_start: r.iter_start,
            started_at: r.started_at,
            iter_secs: std::mem::take(&mut r.iter_secs),
        }));
        self.record_scope(id);
        let scope = self.scope(id);
        self.sim.set_token_scope(scope);
        self.sim.schedule_at(
            t + SimDuration::from_secs_f64(pause),
            Token::new(RESUME_KIND, id as u32, 0),
        );
        self.sim.set_token_scope(0);
        if self.sim.tracing_enabled() {
            let name = format!("job{id} elastic shrink");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "recovery", Some(pause));
        }
    }

    /// Handles a node repair: the node's parked GPUs return to the pool and
    /// the queue gets another chance.
    fn on_repair(&mut self, node: usize, t: SimTime) {
        let _ = t;
        self.free.set_node_up(node);
        self.pending_repairs -= 1;
        if self.sim.tracing_enabled() {
            let name = format!("repair n{node}");
            self.sim.trace_instant(track::TRAINER, u64::MAX, &name, "fault", None);
        }
        self.dispatch_queue();
    }

    /// The straggler detector: compare each running job's iteration-time
    /// slowdown (EWMA over its own fastest iteration) to the cluster median
    /// slowdown; flagged jobs get a synthetic NIC-health record so AIACC's
    /// stream-pool scaling kicks in, lifted again once the job recovers.
    fn run_straggler_detector(&mut self) {
        let Some(threshold) = self.cfg.straggler_threshold else { return };
        let mut slowdowns: Vec<(usize, f64)> = Vec::new();
        for (id, j) in self.jobs.iter().enumerate() {
            if !matches!(j.state, JobState::Running(_)) {
                continue;
            }
            if let (Some(ewma), Some(best)) = (j.ewma_iter, j.best_iter) {
                if best > 0.0 {
                    slowdowns.push((id, ewma / best));
                }
            }
        }
        if slowdowns.len() < 2 {
            return; // a lone job has no cluster to be slower than
        }
        let mut vals: Vec<f64> = slowdowns.iter().map(|&(_, s)| s).collect();
        vals.sort_by(f64::total_cmp);
        let median = vals[vals.len() / 2];
        for (id, slowdown) in slowdowns {
            let flagged = slowdown > threshold * median;
            if flagged && !self.jobs[id].mitigated {
                self.apply_mitigation(id, slowdown / median);
            } else if !flagged && self.jobs[id].mitigated {
                self.lift_mitigation(id);
            }
        }
    }

    /// Feeds a synthetic NIC-degradation record to job `id`'s engine: the
    /// advertised capacity ratio is the inverse relative slowdown, floored
    /// at [`MITIGATION_FLOOR`]. Only the engine's *belief* changes — the
    /// physical fabric is untouched — which is exactly the NIC-health signal
    /// AIACC's stream-pool scaling consumes.
    fn apply_mitigation(&mut self, id: usize, rel_slowdown: f64) {
        let base = self.cfg.cluster.node.nic.bytes_per_sec();
        let scaled = base * (1.0 / rel_slowdown).clamp(MITIGATION_FLOOR, 1.0);
        self.jobs[id].mitigated = true;
        self.jobs[id].mitigations += 1;
        self.jobs[id].mitigation_cap = scaled;
        let JobState::Running(r) = &self.jobs[id].state else { return };
        let node = self.cfg.cluster.node_of(r.placement.ranks[0]);
        let rec = FaultRecord {
            resource: self.physical.node_tx_resource(node),
            phase: FaultPhase::Applied,
            capacity_before: base,
            capacity_after: scaled,
        };
        if self.sim.tracing_enabled() {
            let name = format!("job{id} straggler mitigation");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", Some(scaled / base));
        }
        self.deliver(id, Event::Fault(rec));
    }

    /// Restores the synthetic NIC health once the job's slowdown is back
    /// under the threshold.
    fn lift_mitigation(&mut self, id: usize) {
        let base = self.cfg.cluster.node.nic.bytes_per_sec();
        let scaled = self.jobs[id].mitigation_cap;
        self.jobs[id].mitigated = false;
        let JobState::Running(r) = &self.jobs[id].state else { return };
        let node = self.cfg.cluster.node_of(r.placement.ranks[0]);
        let rec = FaultRecord {
            resource: self.physical.node_tx_resource(node),
            phase: FaultPhase::Restored,
            capacity_before: scaled,
            capacity_after: base,
        };
        if self.sim.tracing_enabled() {
            let name = format!("job{id} mitigation lifted");
            self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
        }
        self.deliver(id, Event::Fault(rec));
    }

    /// Routes a scoped timer to its job: boundary and resume timers are the
    /// scheduler's, the rest go through the job's router (which drops them
    /// while the job drains).
    fn on_job_timer(&mut self, id: usize, tok: Token, t: SimTime) {
        match tok.base_kind() {
            BOUNDARY_KIND => self.on_boundary(id, t),
            RESUME_KIND => {
                // The elastic-join pause is over: restart the interrupted
                // iteration on the shrunken gang.
                if self.sim.tracing_enabled() {
                    let name = format!("job{id} resume");
                    self.sim.trace_instant(track::TRAINER, id as u64, &name, "sched", None);
                }
                self.begin_iteration(id);
            }
            _ => {
                self.deliver(id, Event::Timer(tok));
                self.check_comm_done(id, t);
            }
        }
    }

    /// Routes a flow completion to the (unique) job whose collective engine
    /// owns it: the flow's tag is the scope it was started under, which
    /// names the job and epoch.
    fn on_flow(&mut self, f: FlowId, t: SimTime) {
        let owner = self.flow_owner(f, self.sim.completed_flow_tag());
        debug_assert_eq!(owner, self.scan_flow_owner(f), "flow {f} routed by tag");
        let Some(id) = owner else { return };
        self.deliver(id, Event::FlowCompleted(f));
        self.check_comm_done(id, t);
    }

    /// The running job, in the epoch named by `tag`, whose collectives own
    /// flow `f`.
    fn flow_owner(&self, f: FlowId, tag: u32) -> Option<usize> {
        if tag == 0 {
            return None;
        }
        let (id, epoch) = self.decode_scope(tag);
        match &self.jobs[id].state {
            JobState::Running(r) if self.epoch_live(id, epoch) && r.router.coll.owns_flow(f) => {
                Some(id)
            }
            _ => None,
        }
    }

    /// [`Self::flow_owner`] by asking every running job, in ascending order
    /// (the debug-build cross-check of the tag routing).
    fn scan_flow_owner(&self, f: FlowId) -> Option<usize> {
        let mut owner = None;
        for (id, job) in self.jobs.iter().enumerate() {
            if let JobState::Running(r) = &job.state {
                if r.router.coll.owns_flow(f) {
                    assert!(owner.is_none(), "flow {f} owned by jobs {owner:?} and {id}");
                    owner = Some(id);
                }
            }
        }
        owner
    }

    /// Broadcasts a fault record to every running job (link capacities have
    /// already changed inside the shared net).
    fn on_fault(&mut self, rec: &FaultRecord, t: SimTime) {
        for id in 0..self.jobs.len() {
            self.deliver(id, Event::Fault(*rec));
            self.check_comm_done(id, t);
        }
    }

    /// The stamp a re-queue timer carries for job `id`. Streaming stamps the
    /// slot's (bumped) generation, so a re-queue meant for one tenant cannot
    /// resume a later tenant suspended in the same slot when it fires. Batch
    /// job ids are never reused, so the stamp stays 0 there.
    fn requeue_gen(&self, id: usize) -> u64 {
        match &self.stream {
            Some(st) => (self.jobs[id].epoch % st.gen_mod) as u64,
            None => 0,
        }
    }

    /// Drives the shared event loop, batch or streaming, until the scenario
    /// is finished.
    ///
    /// # Errors
    /// Streaming only: an invalid arrival, an unwritable snapshot, or an
    /// event queue drained with work left.
    ///
    /// # Panics
    /// Panics if a batch scenario's event queue drains while jobs are still
    /// pending — a scheduler bug, since a finished job always re-dispatches
    /// the queue and an impossible placement fails the job deterministically.
    pub(crate) fn run_loop(&mut self) -> Result<(), SchedError> {
        while !self.finished() {
            let Some((t, ev)) = self.sim.next_event() else {
                assert!(
                    self.stream.is_some(),
                    "event queue drained with jobs unfinished (queue: {:?})",
                    self.queue
                );
                return Err(crate::stream::drained(self));
            };
            match ev {
                Event::Timer(tok) if tok.scope() == 0 => match tok.kind {
                    ARRIVAL_KIND if self.stream.is_some() => crate::stream::on_arrival(self)?,
                    ARRIVAL_KIND => {
                        let id = tok.a as usize;
                        if !self.try_start(id) {
                            self.queue.push(id);
                            self.dispatch_queue();
                        }
                    }
                    CRASH_KIND => self.on_crash(tok.a as usize, t),
                    REPAIR_KIND => self.on_repair(tok.a as usize, t),
                    REQUEUE_KIND => {
                        let id = tok.a as usize;
                        if tok.b == self.requeue_gen(id)
                            && matches!(self.jobs[id].state, JobState::Suspended(_))
                        {
                            match self.stream {
                                Some(_) => crate::stream::requeue(self, id),
                                None => {
                                    self.queue.push(id);
                                    self.dispatch_queue();
                                }
                            }
                        }
                    }
                    _ => {}
                },
                Event::Timer(tok) => {
                    let (id, epoch) = self.decode_scope(tok.scope());
                    // Events from an aborted epoch (pre-crash timers) die here.
                    if self.epoch_live(id, epoch) {
                        self.on_job_timer(id, tok, t);
                    }
                }
                Event::FlowCompleted(f) => self.on_flow(f, t),
                Event::Fault(rec) => self.on_fault(&rec, t),
            }
            if self.stream.is_some() {
                crate::stream::maybe_snapshot(self)?;
            }
        }
        Ok(())
    }

    /// Runs the scenario to completion and reports per-job and cluster
    /// metrics.
    pub fn run(mut self) -> MultiJobReport {
        self.run_loop().expect("only streaming runs return errors");
        self.into_report()
    }

    /// Runs the scenario, returning the report together with the Chrome
    /// trace JSON (empty unless the config enabled tracing).
    pub fn run_with_trace(mut self) -> (MultiJobReport, String) {
        self.run_loop().expect("only streaming runs return errors");
        let json = self.sim.trace().to_chrome_json();
        (self.into_report(), json)
    }

    fn into_report(mut self) -> MultiJobReport {
        let jobs: Vec<JobOutcome> =
            self.jobs.iter_mut().map(|j| j.outcome.take().expect("job finished")).collect();
        let first_arrival = jobs.iter().map(|j| j.arrival_secs).fold(f64::INFINITY, f64::min);
        let last_finish = jobs.iter().map(|j| j.finish_secs).fold(0.0, f64::max);
        let makespan = last_finish - first_arrival;
        let nic_rate = self.cfg.cluster.node.nic.bytes_per_sec();
        let carried: f64 = (0..self.cfg.cluster.nodes)
            .map(|n| self.sim.net().carried_bytes(self.physical.node_tx_resource(n)))
            .sum();
        let fabric_utilization = if makespan > 0.0 {
            carried / (nic_rate * self.cfg.cluster.nodes as f64 * makespan)
        } else {
            0.0
        };
        MultiJobReport {
            policy: self.cfg.policy,
            jobs,
            makespan_secs: makespan,
            fabric_utilization,
            solver: self.sim.net().solver_stats(),
        }
    }
}

/// First logical rank hosted by logical node `ln` of `spec`.
fn logical_base(spec: &ClusterSpec, ln: usize) -> usize {
    (0..ln).map(|j| spec.gpus_on_node(j)).sum()
}

/// One-shot convenience: build and run a multi-job scenario.
pub fn run_multijob(cfg: MultiJobCfg) -> MultiJobReport {
    MultiJobSim::new(cfg).run()
}
