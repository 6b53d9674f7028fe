//! The gradient synchronization bit vector (§V-A).
//!
//! Each worker keeps an *n*-element bit vector, one bit per registered
//! gradient: 1 = the local gradient value has been computed and is ready to
//! be reduced. Agreement across workers is a **min** reduction — on bits, a
//! bitwise AND — performed by a decentralized ring all-reduce among the MPI
//! processes (Fig. 8b), so a gradient counts as globally ready only when
//! *every* worker has produced it.

use aiacc_dnn::GradId;

/// A fixed-length readiness bit vector.
///
/// # Example
/// ```
/// use aiacc_core::SyncVector;
/// use aiacc_dnn::GradId;
/// let mut v = SyncVector::new(100);
/// v.set(GradId(3));
/// assert!(v.get(GradId(3)));
/// assert_eq!(v.count_ready(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncVector {
    words: Vec<u64>,
    len: usize,
}

impl SyncVector {
    /// A vector for `len` gradients, all bits cleared (the state at the start
    /// of every backward stage).
    pub fn new(len: usize) -> Self {
        SyncVector { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of gradient slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks gradient `id` locally ready.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: GradId) {
        let i = id.as_usize();
        assert!(i < self.len, "gradient {id} out of range (len {})", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads a bit.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: GradId) -> bool {
        let i = id.as_usize();
        assert!(i < self.len, "gradient {id} out of range (len {})", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clears every bit (run before each backward stage, §V-A1).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place minimum: `self &= other`. This is the reduction the paper's
    /// decentralized synchronization applies (§V-A2).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &SyncVector) {
        assert_eq!(self.len, other.len, "sync vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// The intersection of many workers' vectors — the globally ready set.
    ///
    /// # Panics
    /// Panics if `vectors` is empty or lengths differ.
    pub fn intersect_all<'a>(vectors: impl IntoIterator<Item = &'a SyncVector>) -> SyncVector {
        let mut it = vectors.into_iter();
        let first = it.next().expect("at least one worker");
        let mut acc = first.clone();
        for v in it {
            acc.and_assign(v);
        }
        acc
    }

    /// Number of set bits.
    pub fn count_ready(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when every gradient is ready.
    pub fn all_ready(&self) -> bool {
        self.count_ready() == self.len
    }

    /// Iterates set bits in id order.
    pub fn iter_ready(&self) -> impl Iterator<Item = GradId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let len = self.len;
            (0..64).filter_map(move |b| {
                let i = base + b;
                (w & (1 << b) != 0 && i < len).then_some(GradId(i as u32))
            })
        })
    }

    /// Bytes this vector occupies on the wire during a sync round.
    pub fn wire_bytes(&self) -> f64 {
        (self.words.len() * 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut v = SyncVector::new(130);
        v.set(GradId(0));
        v.set(GradId(64));
        v.set(GradId(129));
        assert!(v.get(GradId(0)) && v.get(GradId(64)) && v.get(GradId(129)));
        assert!(!v.get(GradId(1)));
        assert_eq!(v.count_ready(), 3);
        v.clear();
        assert_eq!(v.count_ready(), 0);
    }

    #[test]
    fn and_is_min_vote() {
        let mut a = SyncVector::new(10);
        let mut b = SyncVector::new(10);
        a.set(GradId(1));
        a.set(GradId(2));
        b.set(GradId(2));
        b.set(GradId(3));
        a.and_assign(&b);
        assert!(!a.get(GradId(1)));
        assert!(a.get(GradId(2)));
        assert!(!a.get(GradId(3)));
    }

    #[test]
    fn intersect_all_matches_pairwise() {
        let mut vs: Vec<SyncVector> = (0..4).map(|_| SyncVector::new(70)).collect();
        for (w, v) in vs.iter_mut().enumerate() {
            for i in 0..70 {
                if i % (w + 2) == 0 {
                    v.set(GradId(i as u32));
                }
            }
        }
        let inter = SyncVector::intersect_all(&vs);
        for i in 0..70u32 {
            let want = vs.iter().all(|v| v.get(GradId(i)));
            assert_eq!(inter.get(GradId(i)), want, "bit {i}");
        }
    }

    #[test]
    fn iter_ready_in_order() {
        let mut v = SyncVector::new(200);
        for i in [5u32, 63, 64, 65, 199] {
            v.set(GradId(i));
        }
        let got: Vec<u32> = v.iter_ready().map(|g| g.0).collect();
        assert_eq!(got, vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn all_ready_detects_completion() {
        let mut v = SyncVector::new(65);
        for i in 0..65 {
            assert!(!v.all_ready());
            v.set(GradId(i));
        }
        assert!(v.all_ready());
    }

    #[test]
    fn wire_bytes_small() {
        // 161 gradients (ResNet-50-scale) fit in 24 bytes — negligible
        // network cost for a sync round, as §V-A2 argues.
        assert_eq!(SyncVector::new(161).wire_bytes(), 24.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_panics() {
        SyncVector::new(3).set(GradId(3));
    }
}
