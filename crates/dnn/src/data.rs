//! Seeded synthetic datasets.
//!
//! Data parallelism partitions training samples across workers (§II-B); this
//! module provides the deterministic synthetic classification data used by
//! the real-MLP tests and examples.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// An in-memory labelled dataset (row-major features).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// `len × dim` features, row-major.
    pub features: Vec<f32>,
    /// One class label per sample.
    pub labels: Vec<usize>,
    /// Feature dimensionality.
    pub dim: usize,
}

impl Dataset {
    /// Generates `n_samples` points from `n_classes` Gaussian blobs in
    /// `dim`-dimensional space. Identical seeds give identical datasets.
    ///
    /// Class `c`'s centre is `2.5` along axis `c % dim` (alternating sign),
    /// with unit-variance noise — linearly separable enough for a small MLP
    /// to reach high accuracy quickly, which keeps convergence tests fast.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn gaussian_blobs(n_samples: usize, dim: usize, n_classes: usize, seed: u64) -> Self {
        assert!(n_samples > 0 && dim > 0 && n_classes > 0, "empty dataset requested");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::with_capacity(n_samples * dim);
        let mut labels = Vec::with_capacity(n_samples);
        for i in 0..n_samples {
            let class = i % n_classes;
            let axis = class % dim;
            let sign = if (class / dim).is_multiple_of(2) { 1.0 } else { -1.0 };
            for d in 0..dim {
                let centre = if d == axis { 2.5 * sign } else { 0.0 };
                features.push(centre + gaussian(&mut rng) as f32);
            }
            labels.push(class);
        }
        Dataset { features, labels, dim }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features of sample `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn sample(&self, i: usize) -> (&[f32], usize) {
        (&self.features[i * self.dim..(i + 1) * self.dim], self.labels[i])
    }

    /// Iterates over minibatches of up to `batch` samples, in order.
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    pub fn batches(&self, batch: usize) -> Batches<'_> {
        assert!(batch > 0, "batch must be positive");
        Batches { data: self, batch, pos: 0 }
    }
}

/// Iterator over `(features, labels)` minibatches; see [`Dataset::batches`].
#[derive(Debug, Clone)]
pub struct Batches<'a> {
    data: &'a Dataset,
    batch: usize,
    pos: usize,
}

impl<'a> Iterator for Batches<'a> {
    type Item = (&'a [f32], &'a [usize]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.data.len() {
            return None;
        }
        let end = (self.pos + self.batch).min(self.data.len());
        let f = &self.data.features[self.pos * self.data.dim..end * self.data.dim];
        let l = &self.data.labels[self.pos..end];
        self.pos = end;
        Some((f, l))
    }
}

/// One standard-normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Dataset::gaussian_blobs(64, 4, 3, 1);
        let b = Dataset::gaussian_blobs(64, 4, 3, 1);
        assert_eq!(a, b);
        let c = Dataset::gaussian_blobs(64, 4, 3, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = Dataset::gaussian_blobs(10, 3, 2, 5);
        let sizes: Vec<usize> = d.batches(4).map(|(_, l)| l.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = Dataset::gaussian_blobs(9, 2, 3, 7);
        assert_eq!(d.labels, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn blobs_are_roughly_centred() {
        let d = Dataset::gaussian_blobs(3000, 2, 2, 11);
        // Mean of class-0 samples along axis 0 should approach 2.5.
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..d.len() {
            let (f, l) = d.sample(i);
            if l == 0 {
                sum += f[0] as f64;
                n += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.2, "mean {mean}");
    }
}
