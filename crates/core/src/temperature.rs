//! Contrastive temperature decay (paper Eq. 7).
//!
//! `tau' = max(tau_min, tau * (1 - (gamma + (t - 1) * beta)))`
//!
//! Early tasks use a soft temperature (flexible positive/negative
//! separation); as learning progresses and global domain diversity grows,
//! the temperature shrinks, making the DPCL loss increasingly stringent.

use serde::{Deserialize, Serialize};

/// Parameters of the temperature-decay schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureSchedule {
    /// Base temperature `tau` (paper: 0.9).
    pub tau: f32,
    /// Floor `tau_min` (paper: 0.3).
    pub tau_min: f32,
    /// Base decay rate `gamma` in `[0, 1]` (paper: 0.1).
    pub gamma: f32,
    /// Per-task increment `beta` in `[0, 1]` (paper: 0.05).
    pub beta: f32,
}

impl Default for TemperatureSchedule {
    /// The paper's hyperparameters (§4.1).
    fn default() -> Self {
        Self {
            tau: 0.9,
            tau_min: 0.3,
            gamma: 0.1,
            beta: 0.05,
        }
    }
}

impl TemperatureSchedule {
    /// The decayed temperature `tau'` at 1-based task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` or `beta` leave `[0, 1]`, or `t == 0` (tasks are
    /// 1-based in Eq. 7).
    pub(crate) fn at_task(&self, t: usize) -> f32 {
        assert!((0.0..=1.0).contains(&self.gamma), "gamma must be in [0,1]");
        assert!((0.0..=1.0).contains(&self.beta), "beta must be in [0,1]");
        assert!(t >= 1, "tasks are 1-based in Eq. 7");
        let decay = self.gamma + (t as f32 - 1.0) * self.beta;
        (self.tau * (1.0 - decay)).max(self.tau_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_at_each_task() {
        let s = TemperatureSchedule::default();
        // t=1: 0.9 * (1 - 0.1) = 0.81
        assert!((s.at_task(1) - 0.81).abs() < 1e-6);
        // t=2: 0.9 * (1 - 0.15) = 0.765
        assert!((s.at_task(2) - 0.765).abs() < 1e-6);
        // t=5: 0.9 * (1 - 0.3) = 0.63
        assert!((s.at_task(5) - 0.63).abs() < 1e-6);
    }

    #[test]
    fn floor_is_respected() {
        let s = TemperatureSchedule {
            tau: 0.9,
            tau_min: 0.3,
            gamma: 0.5,
            beta: 0.3,
        };
        // t=3: 0.9 * (1 - 1.1) < 0 -> clamped to 0.3.
        assert_eq!(s.at_task(3), 0.3);
    }

    #[test]
    fn monotonically_nonincreasing() {
        let s = TemperatureSchedule::default();
        let mut prev = f32::INFINITY;
        for t in 1..=20 {
            let cur = s.at_task(t);
            assert!(cur <= prev);
            assert!(cur >= s.tau_min);
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn task_zero_rejected() {
        TemperatureSchedule::default().at_task(0);
    }
}
