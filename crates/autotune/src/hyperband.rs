//! Hyperband [27]: successive halving over random configurations, where the
//! "resource" is repeated warm-up evaluations (more repeats = less noisy
//! estimate of a configuration's iteration time).

use crate::space::{TuningConfig, TuningSpace};
use crate::tuner::Searcher;
use aiacc_simnet::rng::SplitMix64;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Candidate {
    cfg: TuningConfig,
    total: f64,
    evals: usize,
}

impl Candidate {
    fn mean(&self) -> f64 {
        if self.evals == 0 {
            f64::INFINITY
        } else {
            self.total / self.evals as f64
        }
    }
}

/// The Hyperband searcher (η = 3, initial bracket of 9 random configs; each
/// halving round triples the per-survivor evaluation budget).
#[derive(Debug)]
pub struct Hyperband {
    space: TuningSpace,
    rng: SplitMix64,
    candidates: Vec<Candidate>,
    /// Planned evaluations for the current rung: indices into `candidates`.
    plan: VecDeque<usize>,
    /// Evaluations each survivor receives in the current rung.
    rung_budget: usize,
}

const ETA: usize = 3;
const BRACKET: usize = 9;

impl Hyperband {
    /// Creates the searcher.
    ///
    /// # Panics
    /// Panics if the space is empty.
    pub fn new(space: TuningSpace, seed: u64) -> Self {
        assert!(!space.is_empty(), "empty tuning space");
        let mut hb = Hyperband {
            space,
            rng: SplitMix64::seeded(seed),
            candidates: Vec::new(),
            plan: VecDeque::new(),
            rung_budget: 1,
        };
        hb.new_bracket();
        hb
    }

    fn new_bracket(&mut self) {
        self.candidates = (0..BRACKET)
            .map(|_| Candidate {
                cfg: self.space.index(self.rng.below(self.space.len())),
                total: 0.0,
                evals: 0,
            })
            .collect();
        self.rung_budget = 1;
        self.fill_plan();
    }

    fn fill_plan(&mut self) {
        self.plan = (0..self.candidates.len())
            .flat_map(|i| std::iter::repeat_n(i, self.rung_budget))
            .collect();
    }

    fn advance_rung(&mut self) {
        // Keep the best 1/η of candidates; stop halving at one survivor.
        if self.candidates.len() <= 1 {
            self.new_bracket();
            return;
        }
        let keep = (self.candidates.len() / ETA).max(1);
        self.candidates.sort_by(|a, b| a.mean().total_cmp(&b.mean()));
        self.candidates.truncate(keep);
        self.rung_budget *= ETA;
        self.fill_plan();
    }
}

impl Searcher for Hyperband {
    fn name(&self) -> &str {
        "hyperband"
    }

    fn propose(&mut self) -> TuningConfig {
        if self.plan.is_empty() {
            self.advance_rung();
        }
        let idx = self.plan.pop_front().expect("plan refilled");
        self.candidates[idx].cfg
    }

    fn observe(&mut self, cfg: &TuningConfig, value: f64) {
        if !value.is_finite() {
            return;
        }
        for c in &mut self.candidates {
            if &c.cfg == cfg {
                c.total += value;
                c.evals += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halving_concentrates_on_winners() {
        let mut hb = Hyperband::new(TuningSpace::default(), 17);
        let cost = |c: &TuningConfig| (c.streams as f64 - 12.0).abs();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..60 {
            let cfg = hb.propose();
            *counts.entry(cfg.streams).or_insert(0) += 1;
            let v = cost(&cfg);
            hb.observe(&cfg, v);
        }
        // The most-evaluated stream count should be among the better ones
        // sampled in the bracket.
        let (&most, _) = counts.iter().max_by_key(|&(_, c)| *c).unwrap();
        let best_sampled =
            counts.keys().map(|&s| (s as f64 - 12.0).abs()).fold(f64::INFINITY, f64::min);
        assert!(
            ((most as f64 - 12.0).abs() - best_sampled) <= 4.0,
            "hyperband concentrated on {most} (best sampled distance {best_sampled})"
        );
    }

    #[test]
    fn brackets_restart_after_exhaustion() {
        let mut hb = Hyperband::new(TuningSpace::default(), 2);
        // Run far beyond one bracket; must never panic and keep proposing.
        for i in 0..500 {
            let cfg = hb.propose();
            hb.observe(&cfg, (i % 7) as f64);
        }
    }
}
