//! Perseus — the data-plane gradient aggregation API.
//!
//! Named after AIACC-Training's unified communication API (§IV). This is the
//! *numerical* counterpart of the timing engine: real `f32` gradients from
//! real training workers are packed into all-reduce units, optionally
//! compressed for the wire with error feedback, reduced in the exact ring
//! all-reduce order, and averaged — with the guarantee that every worker
//! receives **bit-identical** aggregated gradients.
//!
//! The API is lock-step: one call aggregates one iteration's gradients for
//! all workers, mirroring how the simulation's workers are modelled in a
//! single process. The core, [`Perseus::allreduce_flat`], takes one flat
//! gradient per worker (all tensors back to back in registration order).
//! Units are packed in gradient-id order, so every unit is a contiguous
//! slice of that flat buffer: a worker's codec runs in place on its unit
//! slices, and the ring path folds those slices straight into the output
//! ([`ring_fold`]) with the averaging multiply fused, with no per-worker
//! gather copy. [`Perseus::allreduce_step`] is the per-tensor wrapper.
//!
//! # Threading
//!
//! A call fans out through `aiacc_simnet::par` (`par::jobs()` threads):
//! one index per worker for the codecs, each touching only that worker's
//! buffer and residuals, then blocks of the output for the fold. Every
//! output element is computed by one thread in a fixed order, so results
//! are identical for any thread count, and when another fan-out is
//! running and this one runs inline. The session itself is `Send` but not
//! `Sync`.

use crate::packing::pack_units;
use crate::registry::GradientRegistry;
use aiacc_collectives::dataplane::ring_fold;
use aiacc_compress::{Compressor, ErrorFeedback, Scheme};
use aiacc_dnn::DType;
use aiacc_simnet::par;
use std::cell::{Cell, RefCell};
use std::ops::Range;

/// Configuration of a [`Perseus`] data-plane session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerseusConfig {
    /// Number of training workers.
    pub world: usize,
    /// Packing granularity in bytes (f32 elements on the data plane).
    pub granularity: f64,
    /// Gradient compression scheme: each worker's unit payload goes
    /// through compress → decompress before reduction, exactly as the wire
    /// would deliver it (§X / RedSync), with per-worker error-feedback
    /// residuals for the lossy schemes.
    pub compress: Scheme,
}

impl PerseusConfig {
    /// A flat-ring averaging session for `world` workers.
    ///
    /// # Panics
    /// Panics if `world` is zero.
    pub fn new(world: usize) -> Self {
        assert!(world > 0, "world must be positive");
        PerseusConfig { world, granularity: 4.0 * 1024.0 * 1024.0, compress: Scheme::None }
    }

    /// Sets the packing granularity in bytes.
    ///
    /// # Panics
    /// Panics if non-positive.
    pub fn with_granularity(mut self, bytes: f64) -> Self {
        assert!(bytes > 0.0 && bytes.is_finite(), "invalid granularity");
        self.granularity = bytes;
        self
    }

    /// Selects the gradient compression scheme.
    pub fn with_compress(mut self, scheme: Scheme) -> Self {
        self.compress = scheme;
        self
    }
}

/// A lock-step multi-worker gradient aggregation session.
///
/// # Example
/// ```
/// use aiacc_core::{Perseus, PerseusConfig};
/// let layout = vec![("fc.weight".to_string(), 2usize)];
/// let p = Perseus::new(&layout, PerseusConfig::new(2));
/// let out = p.allreduce_step(vec![
///     vec![vec![1.0, 2.0]],
///     vec![vec![3.0, 4.0]],
/// ]);
/// assert_eq!(out[0], vec![2.0, 3.0]); // averaged
/// ```
#[derive(Debug, Clone)]
pub struct Perseus {
    cfg: PerseusConfig,
    registry: GradientRegistry,
    /// Every registered gradient packed into units (§V-B), as element
    /// ranges of the flat gradient: a pure function of the registry and
    /// granularity, so all workers agree.
    units: Vec<Range<usize>>,
    /// Error-feedback state, `[worker][unit]`. Interior mutability keeps
    /// the lock-step `&self` API: one call aggregates everyone.
    ef: RefCell<Vec<Vec<ErrorFeedback>>>,
    /// Exact compressed bytes each worker put on the wire last step.
    last_wire_bytes: Cell<u64>,
}

impl Perseus {
    /// Opens a session for gradient tensors described by `layout`
    /// (`(name, element_count)` in registration order).
    pub fn new(layout: &[(String, usize)], cfg: PerseusConfig) -> Self {
        let registry = GradientRegistry::from_layout(layout, DType::F32);
        let (mut packed, partial) =
            pack_units(&registry, registry.iter().map(|g| g.id), cfg.granularity);
        packed.extend(partial);
        // Units take gradients in ascending id order and fill up before the
        // next one starts, so each is the next contiguous run of the flat
        // gradient.
        let starts: Vec<usize> = registry
            .iter()
            .scan(0, |at, g| {
                let start = *at;
                *at += g.elems;
                Some(start)
            })
            .collect();
        let mut at = 0;
        let units: Vec<Range<usize>> = packed
            .iter()
            .map(|unit| {
                let start = at;
                for seg in &unit.segments {
                    debug_assert_eq!(
                        starts[seg.grad.as_usize()] + seg.offset,
                        at,
                        "non-contiguous unit"
                    );
                    at += seg.elems;
                }
                start..at
            })
            .collect();
        debug_assert_eq!(
            at,
            registry.iter().map(|g| g.elems).sum::<usize>(),
            "units miss elements"
        );
        let ef = RefCell::new(vec![vec![ErrorFeedback::new(); units.len()]; cfg.world]);
        Perseus { cfg, registry, units, ef, last_wire_bytes: Cell::new(0) }
    }

    /// Exact bytes one worker's compressed payloads occupied on the wire in
    /// the most recent step (every worker sends the same amount — the wire
    /// size is a closed form over element counts).
    pub fn last_step_wire_bytes(&self) -> u64 {
        self.last_wire_bytes.get()
    }

    /// Number of workers in the session.
    pub fn world_size(&self) -> usize {
        self.cfg.world
    }

    /// The registered gradient set.
    pub fn registry(&self) -> &GradientRegistry {
        &self.registry
    }

    /// Total gradient elements: the length of one flat gradient.
    pub fn elems(&self) -> usize {
        self.units.last().map_or(0, |u| u.end)
    }

    /// Aggregates one iteration's gradients.
    ///
    /// `grads_per_worker[w][t]` is worker `w`'s gradient for registered
    /// tensor `t`. Returns the averaged gradients — identical for every
    /// worker, so a single copy is returned. A wrapper over
    /// [`Perseus::allreduce_flat`].
    ///
    /// # Panics
    /// Panics if the outer length differs from the world size or any tensor
    /// shape disagrees with the registry.
    pub fn allreduce_step(&self, grads_per_worker: Vec<Vec<Vec<f32>>>) -> Vec<Vec<f32>> {
        assert_eq!(grads_per_worker.len(), self.cfg.world, "expected one gradient set per worker");
        for (wi, set) in grads_per_worker.iter().enumerate() {
            assert_eq!(set.len(), self.registry.len(), "worker {wi}: wrong tensor count");
            for (t, (g, info)) in set.iter().zip(self.registry.iter()).enumerate() {
                assert_eq!(g.len(), info.elems, "worker {wi} tensor {t}: wrong length");
            }
        }
        let mut flat: Vec<Vec<f32>> =
            grads_per_worker.into_iter().map(|set| set.concat()).collect();
        let mut out = vec![0.0; self.elems()];
        self.allreduce_flat(&mut flat, &mut out);
        let mut rest = &out[..];
        self.registry
            .iter()
            .map(|info| {
                let (t, tail) = rest.split_at(info.elems);
                rest = tail;
                t.to_vec()
            })
            .collect()
    }

    /// Aggregates one iteration's flat gradients into `out`.
    ///
    /// `grads[w]` is worker `w`'s gradient with every registered tensor
    /// back to back in registration order (an `Mlp::params` layout). On
    /// return `out` holds the average and each `grads[w]` holds what the
    /// wire delivered for that worker: its values after compensated
    /// compression, which is what the reduction consumed.
    ///
    /// # Panics
    /// Panics if `grads.len()` differs from the world size, or any buffer's
    /// length from [`Perseus::elems`].
    pub fn allreduce_flat(&self, grads: &mut [Vec<f32>], out: &mut [f32]) {
        let w = self.cfg.world;
        assert_eq!(grads.len(), w, "expected one gradient buffer per worker");
        let n = self.elems();
        assert!(grads.iter().all(|g| g.len() == n), "gradient length mismatch");
        assert_eq!(out.len(), n, "output length mismatch");
        let scheme = self.cfg.compress;
        let units = &self.units;

        if scheme.is_lossy() {
            // Compensated compression, one worker per fan-out index: the
            // reduction consumes exactly what the wire would deliver; what
            // the codec drops lands in this worker's residual and rides
            // along next iteration.
            let mut ef = self.ef.borrow_mut();
            let mut lanes: Vec<(&mut Vec<f32>, &mut Vec<ErrorFeedback>)> =
                grads.iter_mut().zip(ef.iter_mut()).collect();
            par::map_mut(&mut lanes, par::jobs(), |_, (g, efs)| {
                for (u, e) in units.iter().zip(efs.iter_mut()) {
                    e.compress_step(scheme, &mut g[u.clone()]);
                }
            });
        }

        let scale = Some(1.0 / w as f32);
        for u in units {
            let slices: Vec<&[f32]> = grads.iter().map(|g| &g[u.clone()]).collect();
            ring_fold(&slices, scale, &mut out[u.clone()]);
        }
        self.last_wire_bytes.set(units.iter().map(|u| scheme.wire_bytes(u.len())).sum());
    }

    /// The error-feedback residuals, `[worker][unit]`: session state that a
    /// checkpoint must carry for a lossy scheme to resume the same run.
    pub fn error_feedback(&self) -> Vec<Vec<ErrorFeedback>> {
        self.ef.borrow().clone()
    }

    /// Restores residuals saved by [`Perseus::error_feedback`].
    ///
    /// # Panics
    /// Panics if the shape is not `[world][units]` of this session.
    pub fn restore_error_feedback(&mut self, ef: Vec<Vec<ErrorFeedback>>) {
        assert_eq!(ef.len(), self.cfg.world, "residuals for a different world size");
        assert!(ef.iter().all(|e| e.len() == self.units.len()), "residuals for different units");
        *self.ef.get_mut() = ef;
    }

    /// Broadcasts `params` from the root to all workers — used when an
    /// elastic deployment adds a node and must seed it with the current
    /// model state (§IV "elastic deployment").
    pub fn broadcast_parameters(&self, params: &[f32]) -> Vec<Vec<f32>> {
        (0..self.cfg.world).map(|_| params.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(sizes: &[usize]) -> Vec<(String, usize)> {
        sizes.iter().enumerate().map(|(i, &s)| (format!("t{i}"), s)).collect()
    }

    #[test]
    fn averages_across_workers() {
        let p = Perseus::new(&layout(&[3]), PerseusConfig::new(4));
        let grads = (0..4).map(|w| vec![vec![w as f32; 3]]).collect();
        let out = p.allreduce_step(grads);
        assert_eq!(out[0], vec![1.5; 3]); // (0+1+2+3)/4
    }

    #[test]
    fn packing_granularity_does_not_change_results() {
        let sizes = [100usize, 7, 64, 3];
        let mk = |gran: f64| {
            let p = Perseus::new(&layout(&sizes), PerseusConfig::new(3).with_granularity(gran));
            let grads: Vec<Vec<Vec<f32>>> = (0..3)
                .map(|w| {
                    sizes
                        .iter()
                        .map(|&s| (0..s).map(|i| (w * 31 + i) as f32 * 0.01).collect())
                        .collect()
                })
                .collect();
            p.allreduce_step(grads)
        };
        let fine = mk(16.0); // 4 elements per unit
        let coarse = mk(1e9);
        for (a, b) in fine.iter().zip(&coarse) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn compression_introduces_bounded_error() {
        let p = Perseus::new(&layout(&[100]), PerseusConfig::new(2));
        let pc = Perseus::new(&layout(&[100]), PerseusConfig::new(2).with_compress(Scheme::Fp16));
        let grads: Vec<Vec<Vec<f32>>> = (0..2)
            .map(|w| vec![(0..100).map(|i| (i as f32 - 50.0) * 1e-3 * (w + 1) as f32).collect()])
            .collect();
        let exact = p.allreduce_step(grads.clone());
        let lossy = pc.allreduce_step(grads);
        let mut max_rel: f32 = 0.0;
        for (a, b) in exact[0].iter().zip(&lossy[0]) {
            if a.abs() > 1e-6 {
                max_rel = max_rel.max((a - b).abs() / a.abs());
            }
        }
        assert!(max_rel > 0.0, "compression had no effect at all");
        assert!(max_rel < 1e-2, "compression error too large: {max_rel}");
    }

    #[test]
    fn broadcast_replicates_parameters() {
        let p = Perseus::new(&layout(&[4]), PerseusConfig::new(3));
        let replicas = p.broadcast_parameters(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(replicas.len(), 3);
        assert!(replicas.iter().all(|r| r == &vec![1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "wrong tensor count")]
    fn wrong_tensor_count_rejected() {
        let p = Perseus::new(&layout(&[2, 2]), PerseusConfig::new(2));
        let _ = p.allreduce_step(vec![vec![vec![0.0; 2]], vec![vec![0.0; 2]]]);
    }
}
