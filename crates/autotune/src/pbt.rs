//! Population-based training (PBT) [25] adapted to configuration search:
//! a population is evaluated round-robin; after each generation the worst
//! quartile is replaced by perturbed copies of the best quartile
//! (exploit + explore).

use crate::space::{TuningConfig, TuningSpace};
use crate::tuner::Searcher;
use aiacc_simnet::rng::SplitMix64;

/// The PBT searcher.
#[derive(Debug)]
pub struct PopulationTraining {
    space: TuningSpace,
    rng: SplitMix64,
    population: Vec<TuningConfig>,
    scores: Vec<Option<f64>>,
    cursor: usize,
}

impl PopulationTraining {
    /// A population of `size` random lattice points.
    ///
    /// # Panics
    /// Panics if `size` is zero or the space is empty.
    pub fn new(space: TuningSpace, size: usize, seed: u64) -> Self {
        assert!(size > 0, "population must be non-empty");
        assert!(!space.is_empty(), "empty tuning space");
        let mut rng = SplitMix64::seeded(seed);
        let population = (0..size).map(|_| space.index(rng.below(space.len()))).collect();
        PopulationTraining { space, rng, population, scores: vec![None; size], cursor: 0 }
    }

    /// Current population (exposed for diagnostics).
    pub fn population(&self) -> &[TuningConfig] {
        &self.population
    }

    fn evolve(&mut self) {
        let n = self.population.len();
        let quartile = (n / 4).max(1);
        // Rank by score (all are Some after a full generation).
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            self.scores[a]
                .unwrap_or(f64::INFINITY)
                .total_cmp(&self.scores[b].unwrap_or(f64::INFINITY))
        });
        for k in 0..quartile {
            let winner = self.population[idx[k]];
            let loser = idx[n - 1 - k];
            // Exploit: copy the winner; explore: perturb one lattice step.
            let neigh = self.space.neighbours(&winner);
            let replacement =
                if neigh.is_empty() { winner } else { neigh[self.rng.below(neigh.len())] };
            self.population[loser] = replacement;
            self.scores[loser] = None;
        }
    }
}

impl Searcher for PopulationTraining {
    fn name(&self) -> &str {
        "pbt"
    }

    fn propose(&mut self) -> TuningConfig {
        let cfg = self.population[self.cursor];
        self.cursor = (self.cursor + 1) % self.population.len();
        if self.cursor == 0 && self.scores.iter().all(Option::is_some) {
            self.evolve();
        }
        cfg
    }

    fn observe(&mut self, cfg: &TuningConfig, value: f64) {
        // Credit any population member matching this configuration (results
        // are shared across the ensemble).
        for (member, score) in self.population.iter().zip(&mut self.scores) {
            if member == cfg {
                *score = Some(match score {
                    Some(old) => old.min(value),
                    None => value,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneAlgo;

    fn cost(c: &TuningConfig) -> f64 {
        (c.streams as f64 - 8.0).abs() + if c.algo == TuneAlgo::Tree { 1.0 } else { 0.0 }
    }

    #[test]
    fn population_improves_over_generations() {
        let mut pbt = PopulationTraining::new(TuningSpace::default(), 8, 11);
        let initial_best = pbt.population().iter().map(cost).fold(f64::INFINITY, f64::min);
        let mut best_seen = f64::INFINITY;
        for _ in 0..200 {
            let cfg = pbt.propose();
            let v = cost(&cfg);
            best_seen = best_seen.min(v);
            pbt.observe(&cfg, v);
        }
        assert!(best_seen <= initial_best);
        // The evolved population should concentrate near the optimum.
        let mean: f64 =
            pbt.population().iter().map(cost).sum::<f64>() / pbt.population().len() as f64;
        assert!(mean < 6.0, "population mean cost {mean} did not improve");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = PopulationTraining::new(TuningSpace::default(), 6, 3);
        let b = PopulationTraining::new(TuningSpace::default(), 6, 3);
        assert_eq!(a.population(), b.population());
    }
}
