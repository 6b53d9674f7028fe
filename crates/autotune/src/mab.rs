//! The multi-armed-bandit meta solver with sliding-window AUC credit
//! assignment (§VI, following the adaptive operator selection of [13] and
//! OpenTuner \[28\]).

use std::collections::VecDeque;

/// Bandit over search techniques.
///
/// Each use of a technique is recorded together with whether it produced a
/// new global best. The solver maximizes
/// `AUC_t + C·√(2·ln|H| / H_t)` where `|H|` is the sliding-window length,
/// `H_t` how often technique `t` appears in it, and `AUC_t` the normalized
/// area under the technique's improvement curve (an upward step for a new
/// global best, flat otherwise).
///
/// # Example
/// ```
/// use aiacc_autotune::MetaSolver;
/// let mut m = MetaSolver::default();
/// // Unused techniques are explored first.
/// assert_eq!(m.select(3), 0);
/// m.record(0, false);
/// assert_eq!(m.select(3), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSolver {
    window: usize,
    c: f64,
    events: VecDeque<(usize, bool)>,
}

impl Default for MetaSolver {
    /// Window of 50 events, C = 0.2 (the paper's default exploration
    /// constant).
    fn default() -> Self {
        MetaSolver::new(50, 0.2)
    }
}

impl MetaSolver {
    /// Creates a solver with the given sliding-window length and
    /// exploration constant.
    ///
    /// # Panics
    /// Panics if `window` is zero or `c` is negative.
    pub fn new(window: usize, c: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(c >= 0.0, "negative exploration constant");
        MetaSolver { window, c, events: VecDeque::new() }
    }

    /// Chooses which of `k` techniques to run next.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn select(&self, k: usize) -> usize {
        assert!(k > 0, "no techniques");
        // Explore any technique unused in the window first (its exploration
        // term is effectively infinite).
        for t in 0..k {
            if self.uses(t) == 0 {
                return t;
            }
        }
        let h = self.events.len() as f64;
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for t in 0..k {
            let ht = self.uses(t) as f64;
            let score = self.auc(t) + self.c * (2.0 * h.ln() / ht).sqrt();
            if score > best_score {
                best_score = score;
                best = t;
            }
        }
        best
    }

    /// Records a technique use and whether it yielded a new global best.
    pub fn record(&mut self, technique: usize, improved: bool) {
        self.events.push_back((technique, improved));
        while self.events.len() > self.window {
            self.events.pop_front();
        }
    }

    /// How often `technique` was used within the window.
    pub fn uses(&self, technique: usize) -> usize {
        self.events.iter().filter(|&&(t, _)| t == technique).count()
    }

    /// Normalized area under the improvement curve of `technique` within
    /// the window: 1.0 = every use was a new global best, 0.0 = none was.
    pub fn auc(&self, technique: usize) -> f64 {
        let mut y = 0u64;
        let mut area = 0u64;
        let mut m = 0u64;
        for &(t, improved) in &self.events {
            if t != technique {
                continue;
            }
            m += 1;
            if improved {
                y += 1;
            }
            area += y;
        }
        if m == 0 {
            0.0
        } else {
            2.0 * area as f64 / (m * (m + 1)) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_unused_techniques_first() {
        let mut m = MetaSolver::default();
        for expect in 0..4 {
            assert_eq!(m.select(4), expect);
            m.record(expect, false);
        }
    }

    #[test]
    fn auc_rewards_improvers() {
        let mut m = MetaSolver::default();
        for _ in 0..5 {
            m.record(0, true); // always improves
            m.record(1, false); // never improves
        }
        assert_eq!(m.auc(0), 1.0);
        assert_eq!(m.auc(1), 0.0);
        assert_eq!(m.select(2), 0);
    }

    #[test]
    fn auc_reflects_recency_through_window() {
        let mut m = MetaSolver::new(4, 0.2);
        // Old successes slide out of the window.
        m.record(0, true);
        m.record(0, true);
        for _ in 0..4 {
            m.record(0, false);
        }
        assert_eq!(m.auc(0), 0.0);
    }

    #[test]
    fn exploration_term_revisits_rarely_used_arms() {
        let mut m = MetaSolver::new(50, 0.5);
        // Technique 0 wins once, then technique 1 is used a lot without
        // improving; the exploration bonus must eventually re-select 1... and
        // vice versa: a rarely-used mediocre arm gets another chance.
        m.record(0, true);
        m.record(1, false);
        for _ in 0..20 {
            m.record(0, false);
        }
        // uses: t0=21, t1=1; AUC0 small but positive, AUC1=0; the bonus for
        // t1 (√(2 ln 22 / 1) ≈ 2.5 × 0.5) dominates.
        assert_eq!(m.select(2), 1);
    }

    #[test]
    fn partial_improvement_auc_between_bounds() {
        let mut m = MetaSolver::default();
        m.record(0, true);
        m.record(0, false);
        m.record(0, false);
        // y = 1 after first; area = 1+1+1 = 3; m=3 → AUC = 2·3/12 = 0.5.
        assert_eq!(m.auc(0), 0.5);
    }
}
