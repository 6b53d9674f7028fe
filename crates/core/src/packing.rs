//! Gradient packing: forming all-reduce units of the tuned granularity
//! (§V "Gradient packing", §V-B).
//!
//! Because gradient tensors vary wildly in size and the optimal communication
//! granularity depends on the network, AIACC-Training merges small tensors
//! and splits large ones into *all-reduce units*. Units are formed strictly
//! in gradient-id order, so all workers implicitly agree on the packing
//! without extra coordination.

use crate::registry::{GradientInfo, GradientRegistry};
use aiacc_dnn::GradId;

/// A contiguous slice of one gradient tensor inside an all-reduce unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The gradient this slice belongs to.
    pub grad: GradId,
    /// First element of the slice.
    pub offset: usize,
    /// Number of elements.
    pub elems: usize,
}

/// One unit of communication: what a single ring all-reduce carries.
#[derive(Debug, Clone, PartialEq)]
pub struct AllReduceUnit {
    /// The packed slices, in gradient-id order.
    pub segments: Vec<Segment>,
    /// Payload bytes per worker.
    pub bytes: f64,
}

impl AllReduceUnit {
    /// Total elements across segments.
    pub fn elems(&self) -> usize {
        self.segments.iter().map(|s| s.elems).sum()
    }
}

/// Packs the given gradients (by id, using sizes from `registry`) into units
/// of at most `granularity_bytes`. Returns `(full_units, partial)`: the
/// trailing unit smaller than the granularity is handed back separately so
/// the caller can hold it for more gradients or flush it at the end of
/// backward.
///
/// # Panics
/// Panics if `granularity_bytes` is not strictly positive.
pub fn pack_units(
    registry: &GradientRegistry,
    ready: impl IntoIterator<Item = GradId>,
    granularity_bytes: f64,
) -> (Vec<AllReduceUnit>, Option<AllReduceUnit>) {
    assert!(granularity_bytes > 0.0 && granularity_bytes.is_finite(), "invalid granularity");
    let bytes_per_elem = registry.dtype().bytes_per_elem() as f64;
    let gran_elems = (granularity_bytes / bytes_per_elem).floor().max(1.0) as usize;

    let mut full = Vec::new();
    let mut cur = AllReduceUnit { segments: Vec::new(), bytes: 0.0 };
    let mut cur_elems = 0usize;

    let mut ids: Vec<GradId> = ready.into_iter().collect();
    ids.sort();
    ids.dedup();

    for id in ids {
        let info: &GradientInfo = registry.get(id);
        let mut offset = 0usize;
        while offset < info.elems {
            let room = gran_elems - cur_elems;
            let take = room.min(info.elems - offset);
            cur.segments.push(Segment { grad: id, offset, elems: take });
            cur_elems += take;
            cur.bytes += take as f64 * bytes_per_elem;
            offset += take;
            if cur_elems == gran_elems {
                full.push(std::mem::replace(
                    &mut cur,
                    AllReduceUnit { segments: Vec::new(), bytes: 0.0 },
                ));
                cur_elems = 0;
            }
        }
        if info.elems == 0 {
            // Zero-length gradients still need a completion record.
            cur.segments.push(Segment { grad: id, offset: 0, elems: 0 });
        }
    }
    let partial = (!cur.segments.is_empty()).then_some(cur);
    (full, partial)
}

/// Tracks which gradients have been fully reduced as units complete
/// ("gradient unpack" + callback dispatch of Algorithm 1, lines 12–15).
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceTracker {
    remaining: Vec<usize>,
    zero_len_done: Vec<bool>,
    done_count: usize,
}

impl ReduceTracker {
    /// A tracker covering every gradient of `registry`.
    pub fn new(registry: &GradientRegistry) -> Self {
        ReduceTracker {
            remaining: registry.iter().map(|g| g.elems).collect(),
            zero_len_done: registry.iter().map(|g| g.elems > 0).collect(),
            done_count: 0,
        }
    }

    /// Records a completed unit; returns the gradients that became fully
    /// reduced by it, in id order.
    ///
    /// # Panics
    /// Panics if a segment over-completes its gradient (double counting).
    pub fn complete_unit(&mut self, unit: &AllReduceUnit) -> Vec<GradId> {
        let mut newly = Vec::new();
        for seg in &unit.segments {
            let i = seg.grad.as_usize();
            if seg.elems == 0 {
                if !self.zero_len_done[i] {
                    self.zero_len_done[i] = true;
                    if self.remaining[i] == 0 {
                        newly.push(seg.grad);
                        self.done_count += 1;
                    }
                }
                continue;
            }
            assert!(
                self.remaining[i] >= seg.elems,
                "segment over-completes {} (remaining {}, segment {})",
                seg.grad,
                self.remaining[i],
                seg.elems
            );
            self.remaining[i] -= seg.elems;
            if self.remaining[i] == 0 {
                newly.push(seg.grad);
                self.done_count += 1;
            }
        }
        newly.sort();
        newly
    }

    /// Gradients fully reduced so far.
    pub fn done_count(&self) -> usize {
        self.done_count
    }

    /// `true` once every registered gradient has been reduced.
    pub fn all_done(&self) -> bool {
        self.done_count == self.remaining.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiacc_dnn::DType;

    fn registry(sizes: &[usize]) -> GradientRegistry {
        let layout: Vec<(String, usize)> =
            sizes.iter().enumerate().map(|(i, &s)| (format!("g{i}"), s)).collect();
        GradientRegistry::from_layout(&layout, DType::F32)
    }

    #[test]
    fn small_tensors_merge_into_one_unit() {
        let reg = registry(&[10, 20, 30]);
        let (full, partial) = pack_units(&reg, (0..3).map(GradId), 4096.0);
        assert!(full.is_empty());
        let p = partial.unwrap();
        assert_eq!(p.segments.len(), 3);
        assert_eq!(p.elems(), 60);
        assert_eq!(p.bytes, 240.0);
    }

    #[test]
    fn large_tensor_splits_across_units() {
        let reg = registry(&[1000]);
        // Granularity of 300 elements = 1200 bytes.
        let (full, partial) = pack_units(&reg, [GradId(0)], 1200.0);
        assert_eq!(full.len(), 3);
        for u in &full {
            assert_eq!(u.elems(), 300);
        }
        assert_eq!(partial.unwrap().elems(), 100);
    }

    #[test]
    fn mixed_sizes_fill_units_exactly() {
        let reg = registry(&[100, 250, 70, 600]);
        let (full, partial) = pack_units(&reg, (0..4).map(GradId), 4.0 * 256.0);
        // 1020 elements total, units of 256: 3 full + 252 partial.
        assert_eq!(full.len(), 3);
        let total: usize = full.iter().map(AllReduceUnit::elems).sum::<usize>()
            + partial.as_ref().unwrap().elems();
        assert_eq!(total, 1020);
        // Units cover gradient ids in order: first unit starts with grad 0.
        assert_eq!(full[0].segments[0].grad, GradId(0));
    }

    #[test]
    fn duplicate_and_unordered_ids_are_normalized() {
        let reg = registry(&[5, 5]);
        let (_, partial) = pack_units(&reg, vec![GradId(1), GradId(0), GradId(1)], 1e6);
        let p = partial.unwrap();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[0].grad, GradId(0));
    }

    #[test]
    fn tracker_completes_gradients_once_all_segments_arrive() {
        let reg = registry(&[1000]);
        let (full, partial) = pack_units(&reg, [GradId(0)], 1200.0);
        let mut tracker = ReduceTracker::new(&reg);
        for u in &full {
            assert!(tracker.complete_unit(u).is_empty(), "completed too early");
        }
        let done = tracker.complete_unit(&partial.unwrap());
        assert_eq!(done, vec![GradId(0)]);
        assert!(tracker.all_done());
    }

    #[test]
    fn tracker_counts_multiple_gradients() {
        let reg = registry(&[10, 10, 10]);
        let (full, partial) = pack_units(&reg, (0..3).map(GradId), 40.0);
        let mut tracker = ReduceTracker::new(&reg);
        let mut done = Vec::new();
        for u in &full {
            done.extend(tracker.complete_unit(u));
        }
        if let Some(p) = partial {
            done.extend(tracker.complete_unit(&p));
        }
        done.sort();
        assert_eq!(done, vec![GradId(0), GradId(1), GradId(2)]);
        assert_eq!(tracker.done_count(), 3);
    }

    #[test]
    #[should_panic(expected = "over-completes")]
    fn double_completion_detected() {
        let reg = registry(&[10]);
        let (_, partial) = pack_units(&reg, [GradId(0)], 1e6);
        let p = partial.unwrap();
        let mut tracker = ReduceTracker::new(&reg);
        tracker.complete_unit(&p);
        tracker.complete_unit(&p);
    }

    #[test]
    fn granularity_smaller_than_element_still_packs() {
        let reg = registry(&[3]);
        let (full, partial) = pack_units(&reg, [GradId(0)], 1.0);
        // 1 element per unit.
        assert_eq!(full.len(), 3);
        assert!(partial.is_none());
    }
}
