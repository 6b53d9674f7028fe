//! Bayesian optimization [26]: an exact Gaussian-process surrogate (RBF
//! kernel, Cholesky solve) with expected-improvement acquisition, maximized
//! exhaustively over the (small) lattice.

use crate::space::{TuningConfig, TuningSpace};
use crate::tuner::Searcher;
use aiacc_simnet::rng::SplitMix64;

/// The Bayesian-optimization searcher.
#[derive(Debug)]
pub struct BayesOpt {
    space: TuningSpace,
    rng: SplitMix64,
    xs: Vec<[f64; 4]>,
    ys: Vec<f64>,
    lengthscale: f64,
    noise: f64,
}

impl BayesOpt {
    /// Creates the searcher with lengthscale 0.3 on the normalized cube.
    ///
    /// # Panics
    /// Panics if the space is empty.
    pub fn new(space: TuningSpace, seed: u64) -> Self {
        assert!(!space.is_empty(), "empty tuning space");
        BayesOpt {
            space,
            rng: SplitMix64::seeded(seed),
            xs: Vec::new(),
            ys: Vec::new(),
            lengthscale: 0.3,
            noise: 1e-4,
        }
    }

    fn kernel(&self, a: &[f64; 4], b: &[f64; 4]) -> f64 {
        let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        (-d2 / (2.0 * self.lengthscale * self.lengthscale)).exp()
    }

    /// GP posterior `(mean, std)` at `x`, on standardized targets.
    fn posterior(&self, alpha: &[f64], chol: &Cholesky, x: &[f64; 4]) -> (f64, f64) {
        let k_star: Vec<f64> = self.xs.iter().map(|xi| self.kernel(xi, x)).collect();
        let mean: f64 = k_star.iter().zip(alpha).map(|(k, a)| k * a).sum();
        let v = chol.solve_lower(&k_star);
        let var = (1.0 + self.noise - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (mean, var.sqrt())
    }
}

/// Lower-triangular Cholesky factor of a positive-definite matrix.
#[derive(Debug, Clone)]
struct Cholesky {
    l: Vec<f64>,
    n: usize,
}

impl Cholesky {
    /// Factors `m` (row-major, n×n).
    ///
    /// # Panics
    /// Panics if the matrix is not positive definite.
    fn factor(m: &[f64], n: usize) -> Self {
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = m[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    assert!(s > 0.0, "matrix not positive definite");
                    l[i * n + j] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Cholesky { l, n }
    }

    /// Solves `L z = b`.
    #[allow(clippy::needless_range_loop)] // triangular index arithmetic
    fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[i * n + k] * z[k];
            }
            z[i] = s / self.l[i * n + i];
        }
        z
    }

    /// Solves `L Lᵀ x = b`.
    #[allow(clippy::needless_range_loop)] // triangular index arithmetic
    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        let mut z = self.solve_lower(b);
        for i in (0..n).rev() {
            let mut s = z[i];
            for k in i + 1..n {
                s -= self.l[k * n + i] * z[k];
            }
            z[i] = s / self.l[i * n + i];
        }
        z
    }
}

/// Standard normal PDF.
fn phi(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn big_phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

impl Searcher for BayesOpt {
    fn name(&self) -> &str {
        "bayes"
    }

    fn propose(&mut self) -> TuningConfig {
        let n = self.xs.len();
        if n < 4 {
            // Bootstrap with random samples.
            return self.space.index(self.rng.below(self.space.len()));
        }
        // Standardize targets.
        let mean = self.ys.iter().sum::<f64>() / n as f64;
        let var = self.ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
        let std = var.sqrt().max(1e-12);
        let ys_std: Vec<f64> = self.ys.iter().map(|y| (y - mean) / std).collect();

        // K + σ²I, Cholesky, α = K⁻¹ y.
        let mut k = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                k[i * n + j] = self.kernel(&self.xs[i], &self.xs[j]);
                if i == j {
                    k[i * n + j] += self.noise;
                }
            }
        }
        let chol = Cholesky::factor(&k, n);
        let alpha = chol.solve(&ys_std);

        let best = ys_std.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut best_cfg = self.space.index(0);
        let mut best_ei = f64::NEG_INFINITY;
        for cfg in self.space.enumerate() {
            let x = self.space.normalize(&cfg);
            let (mu, sigma) = self.posterior(&alpha, &chol, &x);
            // Expected improvement for minimization.
            let z = (best - mu) / sigma;
            let ei = (best - mu) * big_phi(z) + sigma * phi(z);
            if ei > best_ei {
                best_ei = ei;
                best_cfg = cfg;
            }
        }
        best_cfg
    }

    fn observe(&mut self, cfg: &TuningConfig, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.xs.push(self.space.normalize(cfg));
        self.ys.push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneAlgo;

    #[test]
    fn erf_matches_known_values() {
        // The Abramowitz–Stegun 7.1.26 approximation is accurate to ~1.5e-7.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((big_phi(0.0) - 0.5).abs() < 1e-7);
        assert!((big_phi(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn cholesky_solves_linear_system() {
        // A = [[4,2],[2,3]], b = [1, 2] → x = [−1/8, 3/4].
        let chol = Cholesky::factor(&[4.0, 2.0, 2.0, 3.0], 2);
        let x = chol.solve(&[1.0, 2.0]);
        assert!((x[0] + 0.125).abs() < 1e-12);
        assert!((x[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn converges_on_smooth_surface() {
        let mut bo = BayesOpt::new(TuningSpace::default(), 9);
        let cost = |c: &TuningConfig| {
            let s = (c.streams as f64).log2();
            (s - 3.0).powi(2) + if c.algo == TuneAlgo::Tree { 0.5 } else { 0.0 }
        };
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let cfg = bo.propose();
            let v = cost(&cfg);
            best = best.min(v);
            bo.observe(&cfg, v);
        }
        assert!(best < 0.1, "BO best {best}");
    }

    #[test]
    fn ignores_non_finite_observations() {
        let mut bo = BayesOpt::new(TuningSpace::default(), 1);
        bo.observe(&TuningSpace::default().index(0), f64::NAN);
        assert!(bo.xs.is_empty());
    }
}
