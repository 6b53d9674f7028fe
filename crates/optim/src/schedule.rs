//! Learning-rate schedules.
//!
//! AIACC-Training "uses linear decay to adjust the learning rate rather than
//! the commonly used step decay because … linear decay works better with the
//! communication optimization and gradient compression" (§IV). Both are
//! provided, plus the warmup wrapper used by large-batch training.

/// A learning-rate schedule: maps a global step to a rate.
pub trait LrSchedule {
    /// Learning rate at (0-based) step `step`.
    fn lr_at(&self, step: u64) -> f64;
}

/// Constant rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl LrSchedule for Constant {
    fn lr_at(&self, _step: u64) -> f64 {
        self.0
    }
}

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
}

impl LrSchedule for LinearDecay {
    fn lr_at(&self, step: u64) -> f64 {
        let frac = (step as f64 / self.total_steps as f64).min(1.0);
        self.base + (self.floor - self.base) * frac
    }
}

/// Classic step decay: multiply by `gamma` every `step_size` steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    /// Initial rate.
    pub base: f64,
    /// Multiplicative factor per milestone, in `(0, 1]`.
    pub gamma: f64,
    /// Steps between milestones.
    pub step_size: u64,
}

impl StepDecay {
    /// Creates a step decay.
    ///
    /// # Panics
    /// Panics if `step_size` is zero or `gamma` is outside `(0, 1]`.
    pub fn new(base: f64, gamma: f64, step_size: u64) -> Self {
        assert!(step_size > 0, "step_size must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma out of range");
        StepDecay { base, gamma, step_size }
    }
}

impl LrSchedule for StepDecay {
    fn lr_at(&self, step: u64) -> f64 {
        self.base * self.gamma.powi((step / self.step_size) as i32)
    }
}

/// Linear warmup from zero over `warmup_steps`, then the inner schedule
/// (shifted so its step 0 is the end of warmup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Warmup<S> {
    /// Warmup length.
    pub warmup_steps: u64,
    /// Schedule applied after warmup.
    pub inner: S,
}

impl<S: LrSchedule> LrSchedule for Warmup<S> {
    fn lr_at(&self, step: u64) -> f64 {
        if step < self.warmup_steps {
            self.inner.lr_at(0) * (step + 1) as f64 / self.warmup_steps as f64
        } else {
            self.inner.lr_at(step - self.warmup_steps)
        }
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

    #[test]
    fn step_decay_multiplies_at_milestones() {
        let s = StepDecay::new(1.0, 0.1, 30);
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(29), 1.0);
        assert!((s.lr_at(30) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(60) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn warmup_ramps_then_delegates() {
        let s = Warmup { warmup_steps: 10, inner: LinearDecay::new(1.0, 0.0, 100) };
        assert!((s.lr_at(0) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(9) - 1.0).abs() < 1e-12);
        assert!((s.lr_at(10) - 1.0).abs() < 1e-12);
        assert!((s.lr_at(60) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_is_constant() {
        assert_eq!(Constant(0.3).lr_at(0), 0.3);
        assert_eq!(Constant(0.3).lr_at(1 << 40), 0.3);
    }
}
