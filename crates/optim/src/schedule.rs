//! Learning-rate schedules.
//!
//! AIACC-Training "uses linear decay to adjust the learning rate rather than
//! the commonly used step decay because … linear decay works better with the
//! communication optimization and gradient compression" (§IV). Linear decay
//! is the one schedule provided; the data-parallel trainer sets its
//! optimizer's rate from it every step.

/// Linear decay from `base` to `floor` over `total_steps` (AIACC's choice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearDecay {
    /// Initial rate.
    pub base: f64,
    /// Final rate reached at `total_steps`.
    pub floor: f64,
    /// Steps over which to decay.
    pub total_steps: u64,
}

impl LinearDecay {
    /// Creates a linear decay.
    ///
    /// # Panics
    /// Panics if `total_steps` is zero or `floor > base`.
    pub fn new(base: f64, floor: f64, total_steps: u64) -> Self {
        assert!(total_steps > 0, "total_steps must be positive");
        assert!(floor <= base, "floor above base");
        LinearDecay { base, floor, total_steps }
    }

    /// Learning rate at (0-based) step `step`: `floor` from `total_steps` on.
    pub fn lr_at(&self, step: u64) -> f64 {
        let frac = (step as f64 / self.total_steps as f64).min(1.0);
        self.base + (self.floor - self.base) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_decay_endpoints() {
        let s = LinearDecay::new(1.0, 0.1, 100);
        assert_eq!(s.lr_at(0), 1.0);
        assert!((s.lr_at(50) - 0.55).abs() < 1e-12);
        assert!((s.lr_at(100) - 0.1).abs() < 1e-12);
        // Clamps past the end.
        assert!((s.lr_at(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn linear_decay_is_monotone() {
        let s = LinearDecay::new(0.4, 0.0, 1000);
        let mut prev = f64::INFINITY;
        for step in (0..1200).step_by(37) {
            let lr = s.lr_at(step);
            assert!(lr <= prev);
            prev = lr;
        }
    }
}
