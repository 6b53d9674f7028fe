//! The engine interface shared by AIACC and every baseline framework, and
//! the per-job event router that drives it.
//!
//! A *DDL engine* models the communication side of one data-parallel
//! training job on the simulated cluster. A driver (the single-job
//! `TrainingSim`, the multi-job scheduler, or a test harness) owns the
//! simulator, schedules each worker's compute, and hands every event to
//! one [`DdlRouter`] per job, which calls the engine:
//!
//! * gradient-ready timers ([`GRAD_KIND`]) as each worker's backward pass
//!   produces tensors, and backward-done timers ([`BWD_KIND`]),
//! * collective completions from the router's [`CollectiveEngine`],
//! * engine-scheduled timers (tagged [`ENGINE_TIMER_KIND`]),
//! * link faults.
//!
//! An iteration's communication is finished when every worker finished
//! backward and [`DdlEngine::comm_done`] reports `true`; the router then
//! drains until the driver's iteration boundary.

use aiacc_cluster::ClusterNet;
use aiacc_collectives::{CollectiveEngine, OpId};
use aiacc_dnn::GradId;
use aiacc_simnet::{Event, FaultRecord, SimDuration, SimTime, Simulator};

/// Timer kind announcing one worker's gradient became ready (`a` = worker,
/// `b` = gradient id).
pub const GRAD_KIND: u32 = 1;
/// Timer kind announcing one worker finished backward (`a` = worker).
pub const BWD_KIND: u32 = 2;
/// Token `kind` reserved for engine timers; the router delivers these to
/// [`DdlEngine::on_timer`].
pub const ENGINE_TIMER_KIND: u32 = 1000;

/// Mutable context handed to every engine callback.
#[derive(Debug)]
pub struct DdlCtx<'a> {
    /// The event simulator (for timers and custom flows).
    pub sim: &'a mut Simulator,
    /// The collective multiplexer.
    pub coll: &'a mut CollectiveEngine,
    /// Cluster topology.
    pub cluster: &'a ClusterNet,
    /// How many concurrent communication streams the GPUs can sustain right
    /// now (depends on whether backward is still running — §II-D).
    pub max_streams_now: usize,
}

/// The communication engine of one DDL framework.
///
/// Implementations: [`crate::AiaccEngine`] here, plus Horovod, PyTorch-DDP,
/// BytePS and MXNet-KVStore in `aiacc-baselines`.
pub trait DdlEngine {
    /// Framework name for reports.
    fn name(&self) -> String;

    /// Resets per-iteration state. Called before any gradient of iteration
    /// `iter` is produced.
    fn begin_iteration(&mut self, cx: &mut DdlCtx<'_>, iter: u64);

    /// Worker `worker` finished computing gradient `grad` locally.
    fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, worker: usize, grad: GradId);

    /// Worker `worker` finished its entire backward pass.
    fn on_backward_done(&mut self, cx: &mut DdlCtx<'_>, worker: usize);

    /// A collective this engine launched has completed.
    fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, op: OpId);

    /// A timer this engine scheduled (token kind [`ENGINE_TIMER_KIND`]) has
    /// fired, with the token's `a`/`b` payload.
    fn on_timer(&mut self, cx: &mut DdlCtx<'_>, a: u32, b: u64);

    /// A link fault was applied or lifted on the simulated network. The
    /// capacity change itself has already happened; engines may react (e.g.
    /// shrink their stream pool while a NIC is degraded). The default
    /// ignores faults — baselines without degradation handling keep their
    /// behavior.
    fn on_fault(&mut self, cx: &mut DdlCtx<'_>, record: &FaultRecord) {
        let _ = (cx, record);
    }

    /// `true` once every registered gradient has been aggregated across all
    /// workers for the current iteration.
    fn comm_done(&self) -> bool;

    /// The AIACC per-iteration counters, when this engine exposes them.
    /// Baselines return `None` (the default); [`crate::AiaccEngine`] reports
    /// its [`crate::AiaccStats`] so harnesses can cross-check them against
    /// trace-derived metrics (e.g. lane count vs `peak_streams`).
    fn aiacc_stats(&self) -> Option<crate::AiaccStats> {
        None
    }
}

/// Routes one job's simulator events to its [`DdlEngine`].
///
/// The router owns the job's collective multiplexer and cluster view and
/// tracks where the running iteration stands: how many workers are still
/// in backward, when the slowest one finishes, and whether the job is
/// draining. It states the stream rule once: an engine callback may use
/// the busy-stream limit while any worker computes, and the idle limit
/// once all are done (§II-D). While draining — between communication done
/// and the iteration boundary, after an aborted attempt, and before the
/// first iteration — only faults reach the engine; stale timers and flow
/// completions are dropped.
///
/// Scheduling stays with the caller: it lays out the compute timers (see
/// [`DdlRouter::begin_iteration`]), owns the boundary and crash timers,
/// and decides when to stop.
#[derive(Debug)]
pub struct DdlRouter {
    /// The job's collective multiplexer.
    pub coll: CollectiveEngine,
    cluster: ClusterNet,
    /// Stream limits `(while any worker computes, once all are idle)`.
    streams: (usize, usize),
    busy_workers: usize,
    last_bwd: SimTime,
    draining: bool,
}

impl DdlRouter {
    /// A router for a job on `cluster` with stream limits
    /// `(while_compute_busy, while_idle)`, draining until its first
    /// iteration begins.
    pub fn new(cluster: ClusterNet, streams: (usize, usize)) -> Self {
        DdlRouter {
            coll: CollectiveEngine::new(),
            cluster,
            streams,
            busy_workers: 0,
            last_bwd: SimTime::ZERO,
            draining: true,
        }
    }

    fn cx<'a>(&'a mut self, sim: &'a mut Simulator) -> DdlCtx<'a> {
        let (busy, idle) = self.streams;
        DdlCtx {
            sim,
            coll: &mut self.coll,
            cluster: &self.cluster,
            max_streams_now: if self.busy_workers > 0 { busy } else { idle },
        }
    }

    /// Starts an iteration attempt with `world` busy workers: the engine
    /// resets under the busy-stream limit, then `schedule` lays out the
    /// workers' compute timers and returns when the slowest one finishes
    /// backward.
    pub fn begin_iteration(
        &mut self,
        sim: &mut Simulator,
        engine: &mut dyn DdlEngine,
        iter: u64,
        world: usize,
        schedule: impl FnOnce(&mut Simulator) -> SimTime,
    ) {
        self.busy_workers = world;
        self.draining = false;
        engine.begin_iteration(&mut self.cx(sim), iter);
        self.last_bwd = schedule(sim);
    }

    /// Delivers one event to `engine`: [`GRAD_KIND`], [`BWD_KIND`] and
    /// [`ENGINE_TIMER_KIND`] timers (matched on the scope-free kind), the
    /// completion of a flow this router's collectives own, and faults.
    /// Other timer kinds are the caller's and are ignored here. While
    /// draining, everything but faults is dropped.
    pub fn deliver(&mut self, sim: &mut Simulator, engine: &mut dyn DdlEngine, ev: Event) {
        match ev {
            Event::Fault(rec) => engine.on_fault(&mut self.cx(sim), &rec),
            _ if self.draining => {}
            Event::Timer(tok) => match tok.base_kind() {
                GRAD_KIND => {
                    engine.on_grad_ready(&mut self.cx(sim), tok.a as usize, GradId(tok.b as u32))
                }
                BWD_KIND => {
                    self.busy_workers -= 1;
                    engine.on_backward_done(&mut self.cx(sim), tok.a as usize);
                }
                ENGINE_TIMER_KIND => engine.on_timer(&mut self.cx(sim), tok.a, tok.b),
                _ => {}
            },
            Event::FlowCompleted(f) => {
                if let Some(op) = self.coll.on_flow_completed(sim, f) {
                    engine.on_collective_done(&mut self.cx(sim), op);
                }
            }
        }
    }

    /// Once every worker finished backward and the engine's communication
    /// is done (checked at event time `t`), starts draining and returns the
    /// iteration boundary: synchronous SGD ends after the slower of compute
    /// and communication, plus the optimizer `update`. `None` before then,
    /// and while already draining.
    pub fn boundary(
        &mut self,
        engine: &dyn DdlEngine,
        t: SimTime,
        update: SimDuration,
    ) -> Option<SimTime> {
        if self.draining || self.busy_workers > 0 || !engine.comm_done() {
            return None;
        }
        self.draining = true;
        Some(t.max(self.last_bwd) + update)
    }

    /// Aborts the running attempt (a crashed node): tears down in-flight
    /// collectives, leaves no worker busy, and drains until the next
    /// [`DdlRouter::begin_iteration`].
    pub fn abort(&mut self, sim: &mut Simulator) {
        self.coll.cancel_all(sim);
        self.busy_workers = 0;
        self.draining = true;
    }

    /// Workers still in backward in the running attempt.
    pub fn busy_workers(&self) -> usize {
        self.busy_workers
    }

    /// When the running attempt's slowest worker finishes backward.
    pub fn last_backward(&self) -> SimTime {
        self.last_bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_cluster::ClusterSpec;
    use aiacc_simnet::{FaultPhase, FlowSpec, Token};

    /// Records every callback with the stream limit it was handed.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<(&'static str, usize)>,
    }

    impl DdlEngine for Recorder {
        fn name(&self) -> String {
            "recorder".into()
        }
        fn begin_iteration(&mut self, cx: &mut DdlCtx<'_>, _iter: u64) {
            self.calls.push(("begin", cx.max_streams_now));
        }
        fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, _worker: usize, _grad: GradId) {
            self.calls.push(("grad", cx.max_streams_now));
        }
        fn on_backward_done(&mut self, cx: &mut DdlCtx<'_>, _worker: usize) {
            self.calls.push(("bwd", cx.max_streams_now));
        }
        fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, _op: OpId) {
            self.calls.push(("coll", cx.max_streams_now));
        }
        fn on_timer(&mut self, cx: &mut DdlCtx<'_>, _a: u32, _b: u64) {
            self.calls.push(("timer", cx.max_streams_now));
        }
        fn on_fault(&mut self, cx: &mut DdlCtx<'_>, _record: &FaultRecord) {
            self.calls.push(("fault", cx.max_streams_now));
        }
        fn comm_done(&self) -> bool {
            true
        }
    }

    const BUSY: usize = 3;
    const IDLE: usize = 7;

    /// A router on one 8-GPU node, the events the drain must drop, and a
    /// fault record.
    fn setup() -> (Simulator, DdlRouter, [Event; 4], Event) {
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&ClusterSpec::tcp_v100(8), sim.net_mut());
        let nic = cluster.node_tx_resource(0);
        let flow = sim.start_flow(FlowSpec::new(vec![nic], 1e6));
        let dropped = [
            Event::Timer(Token::new(GRAD_KIND, 0, 0)),
            Event::Timer(Token::new(BWD_KIND, 1, 0)),
            Event::Timer(Token::new(ENGINE_TIMER_KIND, 0, 0)),
            Event::FlowCompleted(flow),
        ];
        let fault = Event::Fault(FaultRecord {
            resource: nic,
            phase: FaultPhase::Applied,
            capacity_before: 1.0,
            capacity_after: 0.5,
        });
        (sim, DdlRouter::new(cluster, (BUSY, IDLE)), dropped, fault)
    }

    #[test]
    fn draining_drops_everything_but_faults() {
        let (mut sim, mut r, dropped, fault) = setup();
        let mut eng = Recorder::default();
        let bwd_end = SimTime::from_nanos(500);
        r.begin_iteration(&mut sim, &mut eng, 0, 2, |_| bwd_end);
        r.deliver(&mut sim, &mut eng, Event::Timer(Token::new(GRAD_KIND, 0, 0)));
        r.deliver(&mut sim, &mut eng, Event::Timer(Token::new(BWD_KIND, 0, 0)));
        r.deliver(&mut sim, &mut eng, Event::Timer(Token::new(BWD_KIND, 1, 0)));
        assert_eq!(eng.calls, [("begin", BUSY), ("grad", BUSY), ("bwd", BUSY), ("bwd", IDLE)]);

        let update = SimDuration::from_nanos(10);
        assert_eq!(r.boundary(&eng, SimTime::from_nanos(200), update), Some(bwd_end + update));
        assert_eq!(r.boundary(&eng, SimTime::from_nanos(200), update), None, "already draining");
        eng.calls.clear();
        for ev in dropped {
            r.deliver(&mut sim, &mut eng, ev);
        }
        assert!(eng.calls.is_empty(), "drain delivered {:?}", eng.calls);
        assert_eq!(r.busy_workers(), 0, "a dropped backward-done must not count");
        r.deliver(&mut sim, &mut eng, fault);
        assert_eq!(eng.calls, [("fault", IDLE)]);
    }

    #[test]
    fn an_aborted_attempt_hands_faults_the_idle_limit() {
        let (mut sim, mut r, dropped, fault) = setup();
        let mut eng = Recorder::default();
        r.begin_iteration(&mut sim, &mut eng, 0, 4, |sim| sim.now());
        r.deliver(&mut sim, &mut eng, fault);
        assert_eq!(eng.calls, [("begin", BUSY), ("fault", BUSY)]);

        r.abort(&mut sim);
        assert_eq!(r.busy_workers(), 0);
        assert_eq!(r.boundary(&eng, sim.now(), SimDuration::ZERO), None);
        eng.calls.clear();
        for ev in dropped {
            r.deliver(&mut sim, &mut eng, ev);
        }
        r.deliver(&mut sim, &mut eng, fault);
        assert_eq!(eng.calls, [("fault", IDLE)]);
    }
}
