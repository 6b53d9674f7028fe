//! Horovod-style master-coordinated communication.
//!
//! Horovod's background coordinator (rank 0) runs negotiation *cycles*: every
//! worker reports which tensors are locally ready; the master decides which
//! tensors everyone has, fuses them up to the fusion-buffer size and responds
//! with the all-reduce order. The paper identifies two costs this model pays
//! that AIACC-Training avoids (§III, §V-A2):
//!
//! 1. the master processes every report serially, so coordination cost grows
//!    with `workers × tensors` — the CTR collapse of §VIII-C;
//! 2. NCCL executes ONE all-reduce at a time on ONE stream, so a single
//!    capped TCP flow per NIC carries all gradient traffic.

use aiacc_collectives::{Algo, CollectiveSpec, OpId};
use aiacc_core::ddl::{DdlCtx, DdlEngine, ENGINE_TIMER_KIND};
use aiacc_core::packing::{pack_units, AllReduceUnit, ReduceTracker};
use aiacc_core::{GradientRegistry, SyncVector};
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::{SimDuration, Token};
use std::collections::VecDeque;

const TIMER_CYCLE: u32 = 0;
const TIMER_NEGOTIATED: u32 = 1;

/// Coordinator cycle period (`HOROVOD_CYCLE_TIME`). Horovod v0.23 ships
/// 1 ms with adaptive backoff; 2.5 ms models the steady-state cycle it
/// settles into.
const CYCLE_TIME: SimDuration = SimDuration::from_micros(2_500);
/// Fusion buffer size (`HOROVOD_FUSION_THRESHOLD`, 64 MB).
const FUSION_BUFFER_BYTES: f64 = 64.0 * 1024.0 * 1024.0;
/// Serial master cost per worker report / response message: MPI receive,
/// coordinator bookkeeping and response construction, all on rank 0.
const PER_MESSAGE_COST: SimDuration = SimDuration::from_nanos(2_000);

/// Horovod tunables: none. The cycle time, fusion buffer and per-message
/// cost are fixed at v0.23's behaviour, so the config exists only to keep
/// [`crate::HorovodEngine::new`] shaped like the other engines'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HorovodConfig;

/// The Horovod baseline engine.
#[derive(Debug)]
pub struct HorovodEngine {
    registry: GradientRegistry,
    world: usize,
    iter: u64,
    ready: Vec<SyncVector>,
    negotiated: SyncVector,
    tracker: ReduceTracker,
    queue: VecDeque<AllReduceUnit>,
    /// Units negotiated but still inside the master's serial-processing
    /// window; they become live on `TIMER_NEGOTIATED`.
    staged: VecDeque<AllReduceUnit>,
    inflight: Option<(OpId, AllReduceUnit)>,
    negotiation_busy: bool,
    /// Total serial master time spent this iteration (for reports).
    master_time: SimDuration,
}

impl HorovodEngine {
    /// Builds the engine for `model` on `world` workers.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(model: &ModelProfile, world: usize, _cfg: HorovodConfig) -> Self {
        assert!(world > 0, "world must be positive");
        let registry = GradientRegistry::from_profile(model, DType::F32);
        let n = registry.len();
        let tracker = ReduceTracker::new(&registry);
        HorovodEngine {
            registry,
            world,
            iter: 0,
            ready: vec![SyncVector::new(n); world],
            negotiated: SyncVector::new(n),
            tracker,
            queue: VecDeque::new(),
            staged: VecDeque::new(),
            inflight: None,
            negotiation_busy: false,
            master_time: SimDuration::ZERO,
        }
    }

    /// Serial coordinator time accumulated this iteration.
    pub fn master_time(&self) -> SimDuration {
        self.master_time
    }

    fn dispatch(&mut self, cx: &mut DdlCtx<'_>) {
        // NCCL executes one fused all-reduce at a time on one stream.
        if self.inflight.is_none() {
            if let Some(unit) = self.queue.pop_front() {
                let spec = CollectiveSpec::allreduce(unit.bytes).with_algo(Algo::Ring);
                let op = cx.coll.launch(cx.sim, cx.cluster, spec);
                self.inflight = Some((op, unit));
            }
        }
    }

    fn run_cycle(&mut self, cx: &mut DdlCtx<'_>) {
        self.negotiation_busy = true;
        let agreed = SyncVector::intersect_all(&self.ready);
        let mut new_ids: Vec<GradId> = Vec::new();
        for id in agreed.iter_ready() {
            if !self.negotiated.get(id) {
                new_ids.push(id);
            }
        }
        // Master cost: every worker reported each newly seen tensor, and the
        // master answers every worker — all serially on rank 0.
        let msgs = (self.world * new_ids.len() + self.world) as u64;
        let overhead = SimDuration::from_nanos(PER_MESSAGE_COST.as_nanos().saturating_mul(msgs));
        self.master_time += overhead;
        for &id in &new_ids {
            self.negotiated.set(id);
        }
        if new_ids.is_empty() {
            // Nothing to fuse; just schedule the next cycle.
            self.negotiation_busy = false;
            if !self.negotiated.all_ready() {
                cx.sim.schedule(CYCLE_TIME, Token::new(ENGINE_TIMER_KIND, TIMER_CYCLE, self.iter));
            }
            return;
        }
        // Decisions reach workers after the serial processing delay.
        // Stash the ids in the packing queue once negotiated.
        let (full, partial) = pack_units(&self.registry, new_ids, FUSION_BUFFER_BYTES);
        let mut staged: VecDeque<AllReduceUnit> = full.into();
        staged.extend(partial);
        // Record staging via timer payload: we keep them in a side queue that
        // becomes live on TIMER_NEGOTIATED.
        self.staged.extend(staged);
        cx.sim.schedule(overhead, Token::new(ENGINE_TIMER_KIND, TIMER_NEGOTIATED, self.iter));
    }
}

impl DdlEngine for HorovodEngine {
    fn name(&self) -> String {
        "horovod".to_string()
    }

    fn begin_iteration(&mut self, cx: &mut DdlCtx<'_>, iter: u64) {
        self.iter = iter;
        for v in &mut self.ready {
            v.clear();
        }
        self.negotiated.clear();
        self.tracker = ReduceTracker::new(&self.registry);
        self.queue.clear();
        self.staged.clear();
        self.inflight = None;
        self.negotiation_busy = false;
        self.master_time = SimDuration::ZERO;
        cx.sim.schedule(CYCLE_TIME, Token::new(ENGINE_TIMER_KIND, TIMER_CYCLE, iter));
    }

    fn on_grad_ready(&mut self, _cx: &mut DdlCtx<'_>, worker: usize, grad: GradId) {
        self.ready[worker].set(grad);
    }

    fn on_backward_done(&mut self, _cx: &mut DdlCtx<'_>, _worker: usize) {
        // Horovod has no flush path: the next cycle picks everything up.
    }

    fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, op: OpId) {
        let (inflight_op, unit) = self.inflight.take().expect("no all-reduce in flight");
        assert_eq!(inflight_op, op, "completion for unexpected op");
        self.tracker.complete_unit(&unit);
        self.dispatch(cx);
    }

    fn on_timer(&mut self, cx: &mut DdlCtx<'_>, a: u32, b: u64) {
        if b != self.iter {
            return;
        }
        match a {
            TIMER_CYCLE if !self.negotiation_busy => {
                self.run_cycle(cx);
            }
            TIMER_NEGOTIATED => {
                self.negotiation_busy = false;
                self.queue.append(&mut self.staged);
                self.dispatch(cx);
                if !self.negotiated.all_ready() {
                    let next = Token::new(ENGINE_TIMER_KIND, TIMER_CYCLE, self.iter);
                    cx.sim.schedule(CYCLE_TIME, next);
                }
            }
            _ => {}
        }
    }

    fn comm_done(&self) -> bool {
        self.tracker.all_done()
    }
}
