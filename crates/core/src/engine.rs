//! The AIACC multi-streamed concurrent gradient communication engine
//! (Algorithm 1, Fig. 5–8).
//!
//! Per iteration the engine:
//!
//! 1. collects local readiness bits as workers produce gradients;
//! 2. when any worker's un-synchronized ready volume reaches the
//!    communication granularity, runs a decentralized **sync round** (ring
//!    min-all-reduce of the bit vectors, costing only latency — §V-A2);
//! 3. packs the globally agreed gradients into all-reduce units of the tuned
//!    granularity (§V-B);
//! 4. dispatches units to a pool of communication streams — each stream an
//!    independent concurrent ring/tree all-reduce over the same physical
//!    links (Fig. 7b) — bounded by the GPU's current stream budget;
//! 5. unpacks completed units and reports the iteration done when every
//!    gradient has been aggregated.

use crate::ddl::{DdlCtx, DdlEngine, ENGINE_TIMER_KIND};
use crate::packing::{pack_units, AllReduceUnit, ReduceTracker};
use crate::registry::GradientRegistry;
use crate::syncvec::SyncVector;
use aiacc_collectives::timing::sync_round_latency;
use aiacc_collectives::{Algo, CollectiveSpec, OpId};
use aiacc_compress::Scheme;
use aiacc_dnn::{DType, GradId, ModelProfile};
use aiacc_simnet::trace::track;
use aiacc_simnet::{FaultRecord, SimDuration, SimTime, Token};
use std::collections::{HashMap, VecDeque};

/// Timer code: a sync round finished.
const TIMER_SYNC_DONE: u32 = 0;

/// Timer code: watchdog check on a dispatched all-reduce unit.
const TIMER_UNIT_STALL: u32 = 1;

/// Tunable communication hyper-parameters — exactly the knobs the
/// auto-tuner of §VI searches over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AiaccConfig {
    /// Communication thread-pool size (concurrent CUDA streams), N in
    /// Algorithm 1.
    pub streams: usize,
    /// All-reduce unit granularity in bytes.
    pub granularity: f64,
    /// All-reduce algorithm.
    pub algo: Algo,
    /// Gradient compression scheme (§X / RedSync): what actually travels
    /// on the wire. The engine charges the scheme's exact compressed wire
    /// size per unit and its compress/decompress kernels on compute.
    pub compress: Scheme,
    /// Stall watchdog: if a dispatched unit has not completed after this
    /// long, cancel it and resubmit on a fresh stream (doubling the timeout
    /// each retry). `None` disables the watchdog — the default, since on a
    /// healthy network a resubmission can only lose work.
    pub stall_timeout: Option<SimDuration>,
    /// Upper bound on watchdog resubmissions *per unit*. Once a unit has
    /// been resubmitted this many times, its final attempt runs unwatched
    /// to completion — under sustained chaos an unbounded watchdog can
    /// thrash forever cancelling work that would eventually finish.
    /// `None` (the default) keeps the pre-existing unbounded behaviour.
    pub max_resubmissions: Option<u32>,
}

impl Default for AiaccConfig {
    /// 8 streams, 16 MiB granularity, ring all-reduce, no compression —
    /// a robust static setting near the auto-tuner's typical choice; §VI
    /// tunes all three knobs per deployment.
    fn default() -> Self {
        AiaccConfig {
            streams: 8,
            granularity: 16.0 * 1024.0 * 1024.0,
            algo: Algo::Ring,
            compress: Scheme::None,
            stall_timeout: None,
            max_resubmissions: None,
        }
    }
}

impl AiaccConfig {
    /// Sets the stream count.
    ///
    /// # Panics
    /// Panics if `streams` is zero.
    pub fn with_streams(mut self, streams: usize) -> Self {
        assert!(streams > 0, "need at least one stream");
        self.streams = streams;
        self
    }

    /// Sets the unit granularity in bytes.
    ///
    /// # Panics
    /// Panics if `granularity` is not strictly positive.
    pub fn with_granularity(mut self, granularity: f64) -> Self {
        assert!(granularity > 0.0 && granularity.is_finite(), "invalid granularity");
        self.granularity = granularity;
        self
    }

    /// Sets the all-reduce algorithm.
    pub fn with_algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Selects the gradient compression scheme.
    pub fn with_compress(mut self, scheme: Scheme) -> Self {
        self.compress = scheme;
        self
    }

    /// Enables the unit stall watchdog with the given base timeout.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    pub fn with_stall_timeout(mut self, timeout: SimDuration) -> Self {
        assert!(timeout > SimDuration::ZERO, "stall timeout must be positive");
        self.stall_timeout = Some(timeout);
        self
    }

    /// Bounds watchdog resubmissions per unit; the attempt after the last
    /// allowed resubmission runs unwatched to completion.
    pub fn with_max_resubmissions(mut self, max: u32) -> Self {
        self.max_resubmissions = Some(max);
        self
    }
}

/// Counters exposed for tests, tuning diagnostics and the experiment
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AiaccStats {
    /// Decentralized sync rounds run this iteration.
    pub sync_rounds: u64,
    /// All-reduce units launched this iteration.
    pub units_launched: u64,
    /// Highest number of simultaneously active streams observed.
    pub peak_streams: usize,
    /// Units cancelled and resubmitted by the stall watchdog.
    pub resubmissions: u64,
}

/// A dispatched unit plus its watchdog state.
#[derive(Debug)]
struct InflightUnit {
    unit: AllReduceUnit,
    /// Times this unit has been (re)submitted; scales the watchdog timeout.
    attempts: u32,
    /// Stream slot occupied while in flight (trace lane; Fig. 7 lanes are
    /// reconstructed from this assignment).
    slot: usize,
    /// When this attempt was dispatched (for resubmission-latency tracing).
    submitted_at: SimTime,
}

/// Trace span name of one in-flight unit attempt.
fn unit_span_name(op: OpId, bytes: f64) -> String {
    format!("op#{} {:.1} MiB", op.0, bytes / (1024.0 * 1024.0))
}

/// The AIACC-Training communication engine (timing plane).
#[derive(Debug)]
pub struct AiaccEngine {
    cfg: AiaccConfig,
    registry: GradientRegistry,
    world: usize,
    /// Per-NIC health observed from fault records: resource → (baseline
    /// capacity, current capacity). Persists across iterations — a degraded
    /// link stays degraded until its restore record arrives.
    link_health: HashMap<u32, (f64, f64)>,
    /// Worst current/baseline capacity ratio across observed links; scales
    /// the stream pool (a degraded NIC supports fewer useful streams).
    nic_scale: f64,
    // Per-iteration state:
    iter: u64,
    ready: Vec<SyncVector>,
    synced: SyncVector,
    unsynced_bytes: Vec<f64>,
    tracker: ReduceTracker,
    queue: VecDeque<AllReduceUnit>,
    inflight: HashMap<OpId, InflightUnit>,
    sync_in_flight: bool,
    backward_done: Vec<bool>,
    stats: AiaccStats,
}

impl AiaccEngine {
    /// Builds an engine for `model` on a `world`-GPU job.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(model: &ModelProfile, world: usize, cfg: AiaccConfig) -> Self {
        assert!(world > 0, "world must be positive");
        // The registry always carries uncompressed f32 sizes — granularity
        // is an *uncompressed*-payload knob. Compression is applied at
        // submit time: each unit's wire bytes come from the scheme's exact
        // closed form over the unit's element count.
        let registry = GradientRegistry::from_profile(model, DType::F32);
        let n = registry.len();
        let tracker = ReduceTracker::new(&registry);
        AiaccEngine {
            cfg,
            registry,
            world,
            link_health: HashMap::new(),
            nic_scale: 1.0,
            iter: 0,
            ready: vec![SyncVector::new(n); world],
            synced: SyncVector::new(n),
            unsynced_bytes: vec![0.0; world],
            tracker,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            sync_in_flight: false,
            backward_done: vec![false; world],
            stats: AiaccStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> AiaccConfig {
        self.cfg
    }

    /// This iteration's counters.
    pub fn stats(&self) -> AiaccStats {
        self.stats
    }

    /// The gradient registry in use.
    pub fn registry(&self) -> &GradientRegistry {
        &self.registry
    }

    /// Number of workers this engine coordinates.
    pub fn world_size(&self) -> usize {
        self.world
    }

    fn all_backward_done(&self) -> bool {
        self.backward_done.iter().all(|&b| b)
    }

    /// Triggers a sync round when warranted: any worker's un-synchronized
    /// ready volume has reached the granularity, or backward has finished and
    /// gradients remain unagreed.
    fn maybe_trigger_sync(&mut self, cx: &mut DdlCtx<'_>) {
        if self.sync_in_flight || self.synced.all_ready() {
            return;
        }
        let bucket_full = self.unsynced_bytes.iter().any(|&b| b >= self.cfg.granularity);
        let flush = self.all_backward_done();
        if bucket_full || flush {
            self.sync_in_flight = true;
            self.stats.sync_rounds += 1;
            if cx.sim.tracing_enabled() {
                cx.sim.trace_span_begin(
                    track::ENGINE,
                    0,
                    &format!("sync#{}", self.stats.sync_rounds),
                    "sync",
                );
            }
            let latency = sync_round_latency(cx.cluster.spec());
            cx.sim.schedule(latency, Token::new(ENGINE_TIMER_KIND, TIMER_SYNC_DONE, self.iter));
        }
    }

    /// Completes a sync round: intersect all workers' bit vectors, pack the
    /// newly agreed gradients, dispatch.
    fn finish_sync(&mut self, cx: &mut DdlCtx<'_>) {
        self.sync_in_flight = false;
        if cx.sim.tracing_enabled() {
            cx.sim.trace_span_end(
                track::ENGINE,
                0,
                &format!("sync#{}", self.stats.sync_rounds),
                "sync",
            );
        }
        let agreed = SyncVector::intersect_all(&self.ready);
        let mut new_ids: Vec<GradId> = Vec::new();
        for id in agreed.iter_ready() {
            if !self.synced.get(id) {
                self.synced.set(id);
                new_ids.push(id);
                let bytes = self.registry.get(id).bytes;
                for b in self.unsynced_bytes.iter_mut() {
                    *b = (*b - bytes).max(0.0);
                }
            }
        }
        if !new_ids.is_empty() {
            let (full, partial) = pack_units(&self.registry, new_ids, self.cfg.granularity);
            self.queue.extend(full);
            // Units below the granularity are flushed with their sync round:
            // holding them back would delay the tail of every round, and the
            // batch already merged whatever arrived together.
            self.queue.extend(partial);
        }
        self.dispatch(cx);
        // More gradients may already be waiting (or the final flush may still
        // be incomplete): chain another round if needed.
        self.maybe_trigger_sync(cx);
    }

    /// The stream pool size under current link health: a NIC at half
    /// capacity sustains proportionally fewer useful concurrent streams, so
    /// the pool shrinks with it (and grows back on restore).
    fn scaled_pool(&self) -> usize {
        if self.nic_scale >= 1.0 {
            self.cfg.streams
        } else {
            ((self.cfg.streams as f64 * self.nic_scale).ceil() as usize).max(1)
        }
    }

    /// Fills the stream pool up to the current budget (Algorithm 1, l. 4–10).
    fn dispatch(&mut self, cx: &mut DdlCtx<'_>) {
        let limit = self.scaled_pool().min(cx.max_streams_now).max(1);
        while self.inflight.len() < limit {
            let Some(unit) = self.queue.pop_front() else { break };
            self.submit(cx, unit, 0);
        }
        self.stats.peak_streams = self.stats.peak_streams.max(self.inflight.len());
        if cx.sim.tracing_enabled() {
            cx.sim.trace_counter(track::ENGINE, "queue_depth", self.queue.len() as f64);
        }
    }

    /// The lowest stream slot not occupied by an in-flight unit. Re-using
    /// the smallest free index keeps trace lanes dense, so the number of
    /// distinct lanes equals the peak concurrent stream count.
    fn alloc_slot(&self) -> usize {
        let mut slot = 0;
        while self.inflight.values().any(|u| u.slot == slot) {
            slot += 1;
        }
        slot
    }

    /// Launches one unit as a collective and arms its stall watchdog.
    fn submit(&mut self, cx: &mut DdlCtx<'_>, unit: AllReduceUnit, attempts: u32) {
        // The wire carries the compressed payload; the compress/decompress
        // kernels are charged on the compute side as per-op overhead.
        let wire_bytes = self.cfg.compress.wire_bytes_for_f32_payload(unit.bytes);
        let overhead =
            SimDuration::from_nanos(self.cfg.compress.compute_cost_ns(unit.elems()).round() as u64);
        let spec =
            CollectiveSpec::allreduce(wire_bytes).with_algo(self.cfg.algo).with_overhead(overhead);
        let op = cx.coll.launch(cx.sim, cx.cluster, spec);
        let watched = self.cfg.max_resubmissions.is_none_or(|max| attempts < max);
        if let Some(base) = self.cfg.stall_timeout.filter(|_| watched) {
            // Exponential backoff: each retry waits twice as long before
            // declaring the unit stalled again. `mul_f64` saturates, so a
            // huge backoff schedules at the clamped far future, not in the
            // past. Once the resubmission budget is spent the attempt runs
            // unwatched — cancelling it again could starve the op forever.
            let timeout = base.mul_f64(f64::from(1u32 << attempts.min(16)));
            cx.sim.schedule(timeout, Token::new(ENGINE_TIMER_KIND, TIMER_UNIT_STALL, op.0));
        }
        let slot = self.alloc_slot();
        if cx.sim.tracing_enabled() {
            cx.sim.trace_span_begin(
                track::STREAMS,
                slot as u64,
                &unit_span_name(op, unit.bytes),
                "unit",
            );
        }
        let submitted_at = cx.sim.now();
        self.inflight.insert(op, InflightUnit { unit, attempts, slot, submitted_at });
        self.stats.units_launched += 1;
    }

    /// Watchdog expiry for `op`: if it is still in flight, cancel it and
    /// resubmit the unit (its flows may be starved on a downed link).
    fn on_unit_stall(&mut self, cx: &mut DdlCtx<'_>, op: OpId) {
        let Some(inflight) = self.inflight.remove(&op) else {
            return; // completed before the watchdog fired
        };
        cx.coll.cancel_op(cx.sim, op);
        if cx.sim.tracing_enabled() {
            cx.sim.trace_span_end(
                track::STREAMS,
                inflight.slot as u64,
                &unit_span_name(op, inflight.unit.bytes),
                "unit",
            );
            let waited = cx.sim.now().saturating_since(inflight.submitted_at).as_secs_f64();
            cx.sim.trace_instant(track::ENGINE, 0, "resubmit", "watchdog", Some(waited));
        }
        self.stats.resubmissions += 1;
        self.submit(cx, inflight.unit, inflight.attempts + 1);
    }
}

impl DdlEngine for AiaccEngine {
    fn name(&self) -> String {
        format!(
            "aiacc(streams={},gran={:.0}MiB,{:?})",
            self.cfg.streams,
            self.cfg.granularity / (1024.0 * 1024.0),
            self.cfg.algo
        )
    }

    fn begin_iteration(&mut self, cx: &mut DdlCtx<'_>, iter: u64) {
        if cx.sim.tracing_enabled() {
            // An aborted attempt (node crash) can leave spans open; close
            // them so traces stay balanced. Deterministic order: op id.
            if self.sync_in_flight {
                cx.sim.trace_span_end(
                    track::ENGINE,
                    0,
                    &format!("sync#{}", self.stats.sync_rounds),
                    "sync",
                );
            }
            let mut open: Vec<(OpId, usize, f64)> =
                self.inflight.iter().map(|(&op, u)| (op, u.slot, u.unit.bytes)).collect();
            open.sort_by_key(|&(op, _, _)| op);
            for (op, slot, bytes) in open {
                cx.sim.trace_span_end(
                    track::STREAMS,
                    slot as u64,
                    &unit_span_name(op, bytes),
                    "unit",
                );
            }
        }
        self.iter = iter;
        for v in &mut self.ready {
            v.clear();
        }
        self.synced.clear();
        self.unsynced_bytes.fill(0.0);
        self.tracker = ReduceTracker::new(&self.registry);
        self.queue.clear();
        self.inflight.clear();
        self.sync_in_flight = false;
        self.backward_done.fill(false);
        self.stats = AiaccStats::default();
    }

    fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, worker: usize, grad: GradId) {
        self.ready[worker].set(grad);
        self.unsynced_bytes[worker] += self.registry.get(grad).bytes;
        self.maybe_trigger_sync(cx);
    }

    fn on_backward_done(&mut self, cx: &mut DdlCtx<'_>, worker: usize) {
        self.backward_done[worker] = true;
        if self.all_backward_done() {
            // Final flush: agree on (and send) everything that remains.
            self.maybe_trigger_sync(cx);
            // The stream budget also rises once compute is off the GPU.
            self.dispatch(cx);
        }
    }

    fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, op: OpId) {
        let inflight = self.inflight.remove(&op).expect("collective completion for unknown unit");
        if cx.sim.tracing_enabled() {
            cx.sim.trace_span_end(
                track::STREAMS,
                inflight.slot as u64,
                &unit_span_name(op, inflight.unit.bytes),
                "unit",
            );
        }
        self.tracker.complete_unit(&inflight.unit);
        self.dispatch(cx);
    }

    fn on_timer(&mut self, cx: &mut DdlCtx<'_>, a: u32, b: u64) {
        match a {
            TIMER_SYNC_DONE if b == self.iter => self.finish_sync(cx),
            TIMER_UNIT_STALL => self.on_unit_stall(cx, OpId(b)),
            _ => {}
        }
    }

    fn on_fault(&mut self, cx: &mut DdlCtx<'_>, record: &FaultRecord) {
        let entry = self
            .link_health
            .entry(record.resource.as_u32())
            // The first record's pre-fault capacity is the healthy baseline.
            .or_insert((record.capacity_before, record.capacity_before));
        entry.1 = record.capacity_after;
        self.nic_scale = self
            .link_health
            .values()
            .map(|&(base, cur)| if base > 0.0 { cur / base } else { 1.0 })
            .fold(1.0, f64::min);
        // A restore may have grown the pool: top it up immediately.
        self.dispatch(cx);
    }

    fn comm_done(&self) -> bool {
        self.tracker.all_done()
    }

    fn aiacc_stats(&self) -> Option<AiaccStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{DdlRouter, BWD_KIND, GRAD_KIND};
    use aiacc_cluster::{ClusterNet, ClusterSpec, ComputeModel};
    use aiacc_dnn::zoo;
    use aiacc_simnet::Simulator;

    /// Minimal driver: all workers produce gradients on the model's backward
    /// schedule (no jitter) and the engine runs to completion. Returns the
    /// finish time in seconds.
    fn drive(model: &ModelProfile, gpus: usize, cfg: AiaccConfig) -> (f64, AiaccStats) {
        let spec = ClusterSpec::tcp_v100(gpus);
        let mut sim = Simulator::new();
        let cluster = ClusterNet::build(&spec, sim.net_mut());
        let cm = ComputeModel::v100();
        let timing = cm.iteration_timing(model, model.default_batch_per_gpu(), DType::F32);
        let mut eng = AiaccEngine::new(model, spec.world_size(), cfg);
        let streams = (cm.max_comm_streams_during_compute(model), cm.max_comm_streams_idle());
        let mut router = DdlRouter::new(cluster, streams);
        router.begin_iteration(&mut sim, &mut eng, 0, spec.world_size(), |sim| {
            for w in 0..spec.world_size() {
                for &(g, off) in &timing.grad_ready {
                    sim.schedule(timing.forward + off, Token::new(GRAD_KIND, w as u32, g.0 as u64));
                }
                sim.schedule(timing.forward + timing.backward, Token::new(BWD_KIND, w as u32, 0));
            }
            sim.now() + timing.forward + timing.backward
        });
        while let Some((t, ev)) = sim.next_event() {
            router.deliver(&mut sim, &mut eng, ev);
            if eng.comm_done() {
                return (t.as_secs_f64(), eng.stats());
            }
        }
        panic!("engine never finished");
    }

    #[test]
    fn completes_every_gradient_single_node() {
        let (t, stats) = drive(&zoo::tiny_cnn(), 8, AiaccConfig::default());
        assert!(t > 0.0);
        assert!(stats.units_launched >= 1);
        assert!(stats.sync_rounds >= 1);
    }

    #[test]
    fn completes_resnet50_two_nodes() {
        let cfg = AiaccConfig::default().with_streams(8);
        let (t, stats) = drive(&zoo::resnet50(), 16, cfg);
        // Compute-only backward is ~0.47 s; with overlap the comm should
        // finish within ~3x of that, not serialize behind it.
        assert!(t > 0.1 && t < 2.0, "finish at {t}");
        assert!(stats.peak_streams > 1, "never used concurrent streams");
    }

    #[test]
    fn more_streams_is_faster_on_comm_bound_model() {
        // VGG-16 on 2 nodes is communication-bound: 1 stream vs 8 streams
        // must show the paper's multi-stream speedup.
        let (t1, _) = drive(&zoo::vgg16(), 16, AiaccConfig::default().with_streams(1));
        let (t8, _) = drive(&zoo::vgg16(), 16, AiaccConfig::default().with_streams(8));
        assert!(t8 < t1 * 0.7, "8 streams ({t8}s) should be much faster than 1 ({t1}s)");
        // With 8 streams the communication is fully hidden behind compute:
        // the finish time sits at the compute floor (fwd + bwd ≈ 0.69 s).
        assert!(t8 < 0.78, "8-stream time {t8}s did not reach the compute floor");
    }

    #[test]
    fn compression_halves_wire_time_when_comm_bound() {
        // One stream keeps VGG-16 firmly communication-bound, so halving the
        // wire bytes must show through end-to-end.
        let base = AiaccConfig::default().with_streams(1);
        let (t_full, _) = drive(&zoo::vgg16(), 16, base);
        let (t_half, _) = drive(&zoo::vgg16(), 16, base.with_compress(Scheme::Fp16));
        assert!(t_half < t_full * 0.75, "fp16 {t_half} vs fp32 {t_full}");
    }

    #[test]
    fn granularity_extremes_still_complete() {
        // Absurdly fine and absurdly coarse granularity both finish.
        let fine = AiaccConfig::default().with_granularity(256.0 * 1024.0);
        let coarse = AiaccConfig::default().with_granularity(1e9);
        let (tf, sf) = drive(&zoo::tiny_cnn(), 8, fine);
        let (tc, sc) = drive(&zoo::tiny_cnn(), 8, coarse);
        assert!(tf > 0.0 && tc > 0.0);
        assert!(sf.units_launched >= sc.units_launched);
    }

    #[test]
    fn tree_algo_completes() {
        let cfg = AiaccConfig::default().with_algo(Algo::Tree);
        let (t, _) = drive(&zoo::resnet50(), 16, cfg);
        assert!(t > 0.0 && t < 3.0);
    }

    #[test]
    fn single_gpu_degenerates_gracefully() {
        let (t, _) = drive(&zoo::tiny_cnn(), 1, AiaccConfig::default());
        assert!(t >= 0.0);
    }

    #[test]
    fn sync_rounds_scale_with_gradient_volume() {
        let small_gran = AiaccConfig::default().with_granularity(8.0 * 1024.0 * 1024.0);
        let (_, stats) = drive(&zoo::resnet50(), 8, small_gran);
        // 102 MB of gradients at 8 MiB buckets: many rounds.
        assert!(stats.sync_rounds >= 5, "got {}", stats.sync_rounds);
    }

    #[test]
    fn resubmission_bound_caps_watchdog_thrash() {
        // An absurdly aggressive watchdog on a healthy network: every unit
        // stalls out repeatedly until backoff catches up with reality.
        let trigger = AiaccConfig::default()
            .with_streams(2)
            .with_stall_timeout(SimDuration::from_secs_f64(1e-3));
        let (t_unbounded, unbounded) = drive(&zoo::vgg16(), 16, trigger);
        assert!(unbounded.resubmissions > 0, "watchdog never fired — test is vacuous");

        let (t_bounded, bounded) = drive(&zoo::vgg16(), 16, trigger.with_max_resubmissions(1));
        let distinct = bounded.units_launched - bounded.resubmissions;
        assert!(
            bounded.resubmissions <= distinct,
            "{} resubmissions for {} units exceeds the per-unit bound of 1",
            bounded.resubmissions,
            distinct
        );
        assert!(bounded.resubmissions < unbounded.resubmissions);
        // Both runs complete; the bounded one never finishes later than the
        // thrashing one since it stops cancelling work that would land.
        assert!(t_bounded > 0.0 && t_bounded <= t_unbounded + 1e-9);
    }

    #[test]
    fn engine_reports_name_with_config() {
        let eng = AiaccEngine::new(&zoo::tiny_cnn(), 4, AiaccConfig::default());
        assert!(eng.name().contains("aiacc"));
        assert!(eng.name().contains("streams=8"));
    }
}
