//! The ensemble tuner: a bandit over search techniques (§VI).

use crate::mab::MetaSolver;
use crate::space::{TuningConfig, TuningSpace};
use crate::{BayesOpt, GridSearch, Hyperband, PopulationTraining};

/// Something that can score a configuration. Lower is better (e.g. measured
/// iteration seconds on the simulated cluster).
pub trait Objective {
    /// Runs one warm-up training iteration (or equivalent) under `cfg` and
    /// returns its cost.
    fn evaluate(&mut self, cfg: &TuningConfig) -> f64;
}

impl<F: FnMut(&TuningConfig) -> f64> Objective for F {
    fn evaluate(&mut self, cfg: &TuningConfig) -> f64 {
        self(cfg)
    }
}

/// An [`Objective`] that can score several configurations at once.
///
/// [`Tuner::run_batched`] hands the whole round's proposals to
/// [`evaluate_batch`](Self::evaluate_batch) so implementations backed by
/// independent seeded simulations can fan them out across worker threads
/// (`aiacc-simnet`'s `par` module). The default implementation simply
/// evaluates serially, so any `Objective` can opt in without changes —
/// results must not depend on evaluation order.
pub trait BatchObjective: Objective {
    /// Scores every configuration in `cfgs`, returning values in the same
    /// order. Implementations may evaluate concurrently; each value must be
    /// identical to what a standalone [`Objective::evaluate`] call would
    /// return.
    fn evaluate_batch(&mut self, cfgs: &[TuningConfig]) -> Vec<f64> {
        cfgs.iter().map(|c| self.evaluate(c)).collect()
    }
}

impl<F: FnMut(&TuningConfig) -> f64> BatchObjective for F {}

/// A search technique pluggable into the ensemble.
///
/// Observations are shared: every searcher sees every result (the ensemble
/// keeps one global results database, as in OpenTuner \[28\]).
pub trait Searcher {
    /// Technique name for credit-assignment reports.
    fn name(&self) -> &str;
    /// The next configuration to try.
    fn propose(&mut self) -> TuningConfig;
    /// A result became available (possibly from another technique).
    fn observe(&mut self, cfg: &TuningConfig, value: f64);
}

/// One warm-up evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The configuration tried.
    pub config: TuningConfig,
    /// Its measured cost.
    pub value: f64,
    /// Which technique proposed it.
    pub searcher: String,
}

/// The outcome of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Best configuration found.
    pub best: TuningConfig,
    /// Its cost.
    pub best_value: f64,
    /// Every warm-up evaluation in order (these iterations still trained the
    /// model — no cycles wasted, §VI).
    pub evaluations: Vec<Evaluation>,
    /// How often the bandit chose each technique.
    pub usage: Vec<(String, usize)>,
}

/// The §VI auto-tuner: a multi-armed bandit allocating warm-up iterations
/// among an ensemble of search techniques.
///
/// # Example
/// ```
/// use aiacc_autotune::{Tuner, TuningSpace};
/// let mut tuner = Tuner::new(TuningSpace::default(), 1);
/// let report = tuner.run(
///     &mut |cfg: &aiacc_autotune::TuningConfig| 1.0 / cfg.streams as f64,
///     40,
/// );
/// assert_eq!(report.best.streams, 32); // more streams = lower cost here
/// ```
pub struct Tuner {
    space: TuningSpace,
    searchers: Vec<Box<dyn Searcher>>,
    meta: MetaSolver,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("space", &self.space)
            .field(
                "searchers",
                &self.searchers.iter().map(|s| s.name().to_string()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Tuner {
    /// The paper's default ensemble: grid search, population-based training,
    /// Bayesian optimization and Hyperband (k = 4).
    pub fn new(space: TuningSpace, seed: u64) -> Self {
        let searchers: Vec<Box<dyn Searcher>> = vec![
            Box::new(GridSearch::new(space.clone())),
            Box::new(PopulationTraining::new(space.clone(), 8, seed ^ 0x9E37)),
            Box::new(BayesOpt::new(space.clone(), seed ^ 0xB5C4)),
            Box::new(Hyperband::new(space.clone(), seed ^ 0x1F12)),
        ];
        Tuner::with_searchers(space, searchers)
    }

    /// Custom ensemble (used by the meta-solver ablation bench).
    ///
    /// # Panics
    /// Panics if `searchers` is empty.
    pub fn with_searchers(space: TuningSpace, searchers: Vec<Box<dyn Searcher>>) -> Self {
        assert!(!searchers.is_empty(), "need at least one searcher");
        Tuner { space, searchers, meta: MetaSolver::default() }
    }

    /// The space being searched.
    pub fn space(&self) -> &TuningSpace {
        &self.space
    }

    /// Runs `budget` warm-up evaluations and returns the best configuration
    /// (the paper's n = 100 by default).
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn run(&mut self, objective: &mut dyn Objective, budget: usize) -> TuneReport {
        self.run_with_prior(objective, budget, None)
    }

    /// Like [`run`](Self::run), but evaluates a warm-start `prior` first
    /// (the previously-found best setting of a similar deployment, §VI);
    /// the prior counts against the budget and its result is shared with
    /// every searcher.
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn run_with_prior(
        &mut self,
        objective: &mut dyn Objective,
        budget: usize,
        prior: Option<TuningConfig>,
    ) -> TuneReport {
        assert!(budget > 0, "budget must be positive");
        let mut evaluations = Vec::with_capacity(budget);
        let mut usage = vec![0usize; self.searchers.len()];
        let mut best: Option<(TuningConfig, f64)> = None;

        if let Some(cfg) = prior {
            let value = objective.evaluate(&cfg);
            best = Some((cfg, value));
            for s in &mut self.searchers {
                s.observe(&cfg, value);
            }
            evaluations.push(Evaluation { config: cfg, value, searcher: "warm-start".to_string() });
        }

        while evaluations.len() < budget {
            let t = self.meta.select(self.searchers.len());
            usage[t] += 1;
            let cfg = self.searchers[t].propose();
            let value = objective.evaluate(&cfg);
            let improved = best.as_ref().is_none_or(|&(_, b)| value < b);
            if improved {
                best = Some((cfg, value));
            }
            self.meta.record(t, improved);
            for s in &mut self.searchers {
                s.observe(&cfg, value);
            }
            evaluations.push(Evaluation {
                config: cfg,
                value,
                searcher: self.searchers[t].name().to_string(),
            });
        }

        let (best, best_value) = best.expect("budget > 0");
        TuneReport {
            best,
            best_value,
            evaluations,
            usage: self
                .searchers
                .iter()
                .zip(usage)
                .map(|(s, u)| (s.name().to_string(), u))
                .collect(),
        }
    }

    /// Batched tuning: each round collects **one proposal per searcher**
    /// (plus the warm-start `prior`, first, in round one), evaluates the
    /// whole batch with a single [`BatchObjective::evaluate_batch`] call —
    /// which may run the trial simulations concurrently — then observes the
    /// results **in deterministic searcher order**, so bandit credit
    /// assignment and the shared results database evolve identically no
    /// matter how many workers evaluated the batch.
    ///
    /// Identical configurations proposed within one batch are deduplicated:
    /// the objective scores each distinct configuration once and every
    /// proposing searcher shares the value. This keeps batched and serial
    /// credit assignment in agreement even for noisy objectives (serially,
    /// the second proposer of a duplicate would otherwise observe a fresh —
    /// possibly different — measurement).
    ///
    /// Every proposal still counts against `budget` and appears in
    /// [`TuneReport::evaluations`]: warm-up iterations train the model
    /// regardless of whether the tuner needed a new measurement (§VI).
    ///
    /// # Panics
    /// Panics if `budget` is zero.
    pub fn run_batched(
        &mut self,
        objective: &mut dyn BatchObjective,
        budget: usize,
        prior: Option<TuningConfig>,
    ) -> TuneReport {
        assert!(budget > 0, "budget must be positive");
        let mut evaluations = Vec::with_capacity(budget);
        let mut usage = vec![0usize; self.searchers.len()];
        let mut best: Option<(TuningConfig, f64)> = None;
        let mut first_round = true;

        while evaluations.len() < budget {
            // Collect this round's proposals: (proposing searcher, config).
            // `None` marks the warm-start prior.
            let mut proposals: Vec<(Option<usize>, TuningConfig)> = Vec::new();
            if first_round {
                if let Some(cfg) = prior {
                    proposals.push((None, cfg));
                }
                first_round = false;
            }
            let remaining = budget - evaluations.len();
            for t in 0..self.searchers.len() {
                if proposals.len() >= remaining {
                    break;
                }
                proposals.push((Some(t), self.searchers[t].propose()));
            }
            proposals.truncate(remaining);

            // Deduplicate identical configs: evaluate once, share the value.
            let key = |c: &TuningConfig| (c.streams, c.granularity.to_bits(), c.algo);
            let mut unique: Vec<TuningConfig> = Vec::with_capacity(proposals.len());
            let mut slot: Vec<usize> = Vec::with_capacity(proposals.len());
            for (_, cfg) in &proposals {
                match unique.iter().position(|u| key(u) == key(cfg)) {
                    Some(i) => slot.push(i),
                    None => {
                        slot.push(unique.len());
                        unique.push(*cfg);
                    }
                }
            }
            let values = objective.evaluate_batch(&unique);
            assert_eq!(values.len(), unique.len(), "objective returned wrong batch size");

            // Observe in proposal (= searcher) order: the bandit and the
            // shared results database see exactly this sequence every run.
            for (p, (proposer, cfg)) in proposals.iter().enumerate() {
                let value = values[slot[p]];
                let improved = best.as_ref().is_none_or(|&(_, b)| value < b);
                if improved {
                    best = Some((*cfg, value));
                }
                let searcher = match proposer {
                    Some(t) => {
                        usage[*t] += 1;
                        self.meta.record(*t, improved);
                        self.searchers[*t].name().to_string()
                    }
                    None => "warm-start".to_string(),
                };
                for s in &mut self.searchers {
                    s.observe(cfg, value);
                }
                evaluations.push(Evaluation { config: *cfg, value, searcher });
            }
        }

        let (best, best_value) = best.expect("budget > 0");
        TuneReport {
            best,
            best_value,
            evaluations,
            usage: self
                .searchers
                .iter()
                .zip(usage)
                .map(|(s, u)| (s.name().to_string(), u))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneAlgo;

    /// A synthetic response surface with a known optimum and mild curvature:
    /// best at 16 streams, 32 MiB, ring.
    fn surface(cfg: &TuningConfig) -> f64 {
        let s = (cfg.streams as f64).log2();
        let g = (cfg.granularity / (1024.0 * 1024.0)).log2();
        let algo_penalty = if cfg.algo == TuneAlgo::Tree { 0.3 } else { 0.0 };
        (s - 4.0).powi(2) * 0.1 + (g - 5.0).powi(2) * 0.05 + algo_penalty
    }

    #[test]
    fn finds_the_optimum_with_default_budget() {
        let mut tuner = Tuner::new(TuningSpace::default(), 42);
        let report = tuner.run(&mut surface, 100);
        assert_eq!(report.best.streams, 16, "best={}", report.best);
        assert_eq!(report.best.granularity, 32.0 * 1024.0 * 1024.0);
        assert_eq!(report.best.algo, TuneAlgo::Ring);
    }

    #[test]
    fn every_technique_gets_used() {
        let mut tuner = Tuner::new(TuningSpace::default(), 7);
        let report = tuner.run(&mut surface, 100);
        for (name, count) in &report.usage {
            assert!(*count > 0, "technique {name} never used");
        }
        assert_eq!(report.evaluations.len(), 100);
    }

    #[test]
    fn best_value_is_minimum_of_evaluations() {
        let mut tuner = Tuner::new(TuningSpace::default(), 3);
        let report = tuner.run(&mut surface, 50);
        let min = report.evaluations.iter().map(|e| e.value).fold(f64::INFINITY, f64::min);
        assert_eq!(report.best_value, min);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut tuner = Tuner::new(TuningSpace::default(), seed);
            tuner.run(&mut surface, 60).best
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn single_searcher_ensemble_works() {
        let space = TuningSpace::default();
        let searchers: Vec<Box<dyn Searcher>> = vec![Box::new(GridSearch::new(space.clone()))];
        let mut tuner = Tuner::with_searchers(space, searchers);
        let report = tuner.run(&mut surface, 144);
        // Full grid enumeration must find the exact optimum.
        assert_eq!(report.best.streams, 16);
    }

    #[test]
    fn batched_respects_budget_exactly_and_finds_optimum() {
        let mut tuner = Tuner::new(TuningSpace::default(), 42);
        let report = tuner.run_batched(&mut surface, 101, None);
        assert_eq!(report.evaluations.len(), 101);
        assert_eq!(report.best.streams, 16, "best={}", report.best);
        assert_eq!(report.best.algo, TuneAlgo::Ring);
        let min = report.evaluations.iter().map(|e| e.value).fold(f64::INFINITY, f64::min);
        assert_eq!(report.best_value, min);
    }

    #[test]
    fn batched_is_deterministic_given_seed() {
        let run = || {
            let mut tuner = Tuner::new(TuningSpace::default(), 5);
            tuner.run_batched(&mut surface, 60, None)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.usage, b.usage);
    }

    #[test]
    fn batched_prior_is_evaluated_first() {
        let prior = TuningConfig { streams: 16, ..TuningSpace::default().index(0) };
        let mut tuner = Tuner::new(TuningSpace::default(), 9);
        let report = tuner.run_batched(&mut surface, 20, Some(prior));
        assert_eq!(report.evaluations[0].searcher, "warm-start");
        assert_eq!(report.evaluations[0].config, prior);
    }

    #[test]
    fn batched_prior_alone_fits_budget_of_one() {
        let prior = TuningSpace::default().index(0);
        let mut tuner = Tuner::new(TuningSpace::default(), 9);
        let report = tuner.run_batched(&mut surface, 1, Some(prior));
        assert_eq!(report.evaluations.len(), 1);
        assert_eq!(report.best, prior);
    }

    #[test]
    fn batched_dedups_identical_configs_within_a_round() {
        // A noisy objective: returns a fresh (decreasing) value per *call*.
        // If duplicates within a batch were evaluated separately, the two
        // proposers would record different values; with dedup they share one.
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        let mut noisy = |_: &TuningConfig| {
            calls.set(calls.get() + 1);
            100.0 - calls.get() as f64
        };
        let space = TuningSpace::default();
        // Two grid searchers walk the space in lockstep: every round proposes
        // the same config twice.
        let searchers: Vec<Box<dyn Searcher>> = vec![
            Box::new(GridSearch::new(space.clone())),
            Box::new(GridSearch::new(space.clone())),
        ];
        let mut tuner = Tuner::with_searchers(space, searchers);
        let report = tuner.run_batched(&mut noisy, 20, None);
        assert_eq!(report.evaluations.len(), 20);
        // 10 rounds of 2 identical proposals -> 10 objective calls.
        assert_eq!(calls.get(), 10);
        for round in report.evaluations.chunks(2) {
            assert_eq!(round[0].config, round[1].config);
            assert_eq!(round[0].value, round[1].value, "duplicates must share the measurement");
        }
    }
}
