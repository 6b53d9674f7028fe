//! PyTorch DistributedDataParallel (DDP) baseline.
//!
//! DDP pre-builds gradient *buckets* (default 25 MB) in reverse registration
//! order — the order backward produces gradients — and launches an
//! all-reduce for bucket `k` when every gradient in it is ready, strictly in
//! bucket order, on a single NCCL stream. There is no master negotiation
//! (the static bucket order replaces it), but also no communication
//! concurrency, so the single-flow cap limits bandwidth exactly as for
//! Horovod (§VIII-A: AIACC improves DDP by up to 2.68× at 256 GPUs).

use aiacc_collectives::{Algo, CollectiveSpec, OpId};
use aiacc_core::ddl::{DdlCtx, DdlEngine};
use aiacc_core::packing::{AllReduceUnit, ReduceTracker, Segment};
use aiacc_core::GradientRegistry;
use aiacc_dnn::{DType, GradId, ModelProfile};

/// Bucket capacity (`bucket_cap_mb`, default 25 MB). Tensors larger than
/// the cap get their own bucket — DDP never splits a tensor.
const BUCKET_BYTES: f64 = 25.0 * 1024.0 * 1024.0;

/// DDP tunables: none. The bucket capacity is fixed at PyTorch's default,
/// so the config exists only to keep [`crate::DdpEngine::new`] shaped like
/// the other engines'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdpConfig;

#[derive(Debug, Clone)]
struct Bucket {
    unit: AllReduceUnit,
    grads: Vec<GradId>,
    /// Ready votes still missing: one per (worker, gradient).
    missing: usize,
}

/// The PyTorch-DDP baseline engine.
#[derive(Debug)]
pub struct DdpEngine {
    registry: GradientRegistry,
    world: usize,
    buckets: Vec<Bucket>,
    grad_bucket: Vec<usize>,
    tracker: ReduceTracker,
    /// Next bucket allowed to launch (in-order constraint).
    next_to_launch: usize,
    inflight: Option<(OpId, usize)>,
}

impl DdpEngine {
    /// Builds the engine for `model` on `world` workers.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(model: &ModelProfile, world: usize, _cfg: DdpConfig) -> Self {
        assert!(world > 0, "world must be positive");
        let registry = GradientRegistry::from_profile(model, DType::F32);
        let (buckets, grad_bucket) = build_buckets(&registry, world, BUCKET_BYTES);
        let tracker = ReduceTracker::new(&registry);
        DdpEngine {
            registry,
            world,
            buckets,
            grad_bucket,
            tracker,
            next_to_launch: 0,
            inflight: None,
        }
    }

    fn dispatch(&mut self, cx: &mut DdlCtx<'_>) {
        if self.inflight.is_some() {
            return;
        }
        // In-order, single-stream launch.
        if self.next_to_launch < self.buckets.len()
            && self.buckets[self.next_to_launch].missing == 0
        {
            let idx = self.next_to_launch;
            self.next_to_launch += 1;
            let bytes = self.buckets[idx].unit.bytes;
            let spec = CollectiveSpec::allreduce(bytes).with_algo(Algo::Ring);
            let op = cx.coll.launch(cx.sim, cx.cluster, spec);
            self.inflight = Some((op, idx));
        }
    }
}

/// Buckets in reverse registration order (production order), 25 MB cap,
/// tensors never split.
fn build_buckets(registry: &GradientRegistry, world: usize, cap: f64) -> (Vec<Bucket>, Vec<usize>) {
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut grad_bucket = vec![0usize; registry.len()];
    let mut cur = Bucket {
        unit: AllReduceUnit { segments: Vec::new(), bytes: 0.0 },
        grads: Vec::new(),
        missing: 0,
    };
    let mut ids: Vec<GradId> = registry.iter().map(|g| g.id).collect();
    ids.reverse();
    for id in ids {
        let info = registry.get(id);
        if cur.unit.bytes > 0.0 && cur.unit.bytes + info.bytes > cap {
            buckets.push(std::mem::replace(
                &mut cur,
                Bucket {
                    unit: AllReduceUnit { segments: Vec::new(), bytes: 0.0 },
                    grads: Vec::new(),
                    missing: 0,
                },
            ));
        }
        cur.unit.segments.push(Segment { grad: id, offset: 0, elems: info.elems });
        cur.unit.bytes += info.bytes;
        cur.grads.push(id);
        cur.missing += world;
    }
    if !cur.grads.is_empty() {
        buckets.push(cur);
    }
    for (bi, b) in buckets.iter().enumerate() {
        for &g in &b.grads {
            grad_bucket[g.as_usize()] = bi;
        }
    }
    (buckets, grad_bucket)
}

impl DdlEngine for DdpEngine {
    fn name(&self) -> String {
        "pytorch-ddp".to_string()
    }

    fn begin_iteration(&mut self, _cx: &mut DdlCtx<'_>, _iter: u64) {
        let (buckets, grad_bucket) = build_buckets(&self.registry, self.world, BUCKET_BYTES);
        self.buckets = buckets;
        self.grad_bucket = grad_bucket;
        self.tracker = ReduceTracker::new(&self.registry);
        self.next_to_launch = 0;
        self.inflight = None;
    }

    fn on_grad_ready(&mut self, cx: &mut DdlCtx<'_>, _worker: usize, grad: GradId) {
        let b = self.grad_bucket[grad.as_usize()];
        self.buckets[b].missing -= 1;
        if self.buckets[b].missing == 0 {
            self.dispatch(cx);
        }
    }

    fn on_backward_done(&mut self, cx: &mut DdlCtx<'_>, _worker: usize) {
        self.dispatch(cx);
    }

    fn on_collective_done(&mut self, cx: &mut DdlCtx<'_>, op: OpId) {
        let (inflight_op, idx) = self.inflight.take().expect("no bucket in flight");
        assert_eq!(inflight_op, op, "completion for unexpected op");
        let unit = self.buckets[idx].unit.clone();
        self.tracker.complete_unit(&unit);
        self.dispatch(cx);
    }

    fn on_timer(&mut self, _cx: &mut DdlCtx<'_>, _a: u32, _b: u64) {}

    fn comm_done(&self) -> bool {
        self.tracker.all_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::zoo;

    #[test]
    fn buckets_are_reverse_order_and_capped() {
        let reg = GradientRegistry::from_profile(&zoo::resnet50(), DType::F32);
        let (buckets, map) = build_buckets(&reg, 4, BUCKET_BYTES);
        assert!(buckets.len() > 1);
        // First bucket starts from the LAST registered gradient.
        let last_id = GradId((reg.len() - 1) as u32);
        assert_eq!(map[last_id.as_usize()], 0);
        // Every gradient is assigned to exactly one bucket.
        let total: usize = buckets.iter().map(|b| b.grads.len()).sum();
        assert_eq!(total, reg.len());
        // No bucket with more than one tensor exceeds the cap.
        for b in &buckets {
            if b.grads.len() > 1 {
                assert!(b.unit.bytes <= BUCKET_BYTES + 1.0);
            }
        }
    }

    #[test]
    fn oversized_tensor_gets_own_bucket() {
        let reg = GradientRegistry::from_profile(&zoo::vgg16(), DType::F32);
        let (buckets, _) = build_buckets(&reg, 2, BUCKET_BYTES);
        // fc6 weight is ~411 MB: it must sit alone in a bucket.
        let big = buckets.iter().find(|b| b.unit.bytes > 100e6).expect("fc6 bucket");
        assert_eq!(big.grads.len(), 1);
    }

    #[test]
    fn bucket_count_follows_cap() {
        let reg = GradientRegistry::from_profile(&zoo::resnet50(), DType::F32);
        let count = |cap| build_buckets(&reg, 4, cap).0.len();
        assert!(count(5e6) > count(BUCKET_BYTES));
        assert!(count(BUCKET_BYTES) > count(100e6));
    }
}
