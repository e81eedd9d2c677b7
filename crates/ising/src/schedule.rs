//! Annealing schedules.
//!
//! The paper's schedule (Section III-C6) ramps the SOT write current linearly from
//! 420 µA (P_sw ≈ 20 %) down by 50 nA per iteration until 353 µA (P_sw ≈ 1 %), at which
//! point the solver stops and the spin storage is read out. Because the device's
//! switching probability is sigmoidal in current, a linear current ramp produces a
//! *non-linear* decay of stochasticity: fast early, slow late — which the paper argues
//! gives short overall latency without sacrificing late-stage refinement.

use taxi_device::{SwitchingCurve, WriteCurrent};

/// The paper's linear write-current ramp.
///
/// # Example
///
/// ```
/// use taxi_ising::CurrentSchedule;
///
/// let schedule = CurrentSchedule::paper();
/// assert_eq!(schedule.len(), 1340);
/// let fast = CurrentSchedule::fast();
/// assert!(fast.len() < schedule.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentSchedule {
    start: WriteCurrent,
    stop: WriteCurrent,
    step: WriteCurrent,
}

impl CurrentSchedule {
    /// Creates a schedule ramping from `start` down to `stop` in decrements of `step`.
    ///
    /// # Panics
    ///
    /// Panics if `start <= stop` or `step` is not strictly positive.
    pub fn new(start: WriteCurrent, stop: WriteCurrent, step: WriteCurrent) -> Self {
        assert!(
            start > stop,
            "schedule must ramp downwards (start {start} must exceed stop {stop})"
        );
        assert!(
            step.as_amps() > 0.0,
            "schedule step must be strictly positive"
        );
        Self { start, stop, step }
    }

    /// The paper's schedule: 420 µA → 353 µA in 50 nA steps (1340 iterations).
    pub fn paper() -> Self {
        Self::new(
            WriteCurrent::from_micro_amps(420.0),
            WriteCurrent::from_micro_amps(353.0),
            WriteCurrent::from_nano_amps(50.0),
        )
    }

    /// A coarser schedule covering the same current range in 1 µA steps (67 iterations).
    ///
    /// Useful for quick functional tests; too short for good solution quality on
    /// non-trivial sub-problems.
    pub fn fast() -> Self {
        Self::new(
            WriteCurrent::from_micro_amps(420.0),
            WriteCurrent::from_micro_amps(353.0),
            WriteCurrent::from_micro_amps(1.0),
        )
    }

    /// The default software-simulation schedule: the same current range in 100 nA steps
    /// (670 iterations, half the paper's hardware iteration count).
    ///
    /// Software simulations of many thousands of sub-problems use this schedule by
    /// default; hardware latency/energy accounting can still be performed for the full
    /// paper schedule because the per-iteration cost is schedule-independent.
    pub fn software() -> Self {
        Self::new(
            WriteCurrent::from_micro_amps(420.0),
            WriteCurrent::from_micro_amps(353.0),
            WriteCurrent::from_nano_amps(100.0),
        )
    }

    /// Starting (highest) current.
    pub fn start(&self) -> WriteCurrent {
        self.start
    }

    /// Stopping (lowest) current.
    pub fn stop(&self) -> WriteCurrent {
        self.stop
    }

    /// Per-iteration decrement.
    pub fn step(&self) -> WriteCurrent {
        self.step
    }

    /// Total number of iterations in the schedule.
    pub fn len(&self) -> usize {
        let span = self.start.as_amps() - self.stop.as_amps();
        (span / self.step.as_amps()).floor() as usize
    }

    /// Returns `true` if the schedule has no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write current applied at iteration `iteration` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `iteration >= self.len()`.
    pub fn current_at(&self, iteration: usize) -> WriteCurrent {
        assert!(iteration < self.len(), "iteration out of schedule range");
        let i = self.start.as_amps() - iteration as f64 * self.step.as_amps();
        WriteCurrent::from_amps(i.max(self.stop.as_amps()))
    }

    /// Stochasticity (expected mask-pass probability) at iteration `iteration`, given a
    /// switching curve.
    pub fn stochasticity_at(&self, iteration: usize, curve: &SwitchingCurve) -> f64 {
        curve.probability(self.current_at(iteration))
    }
}

impl Default for CurrentSchedule {
    fn default() -> Self {
        Self::software()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_has_1340_iterations() {
        assert_eq!(CurrentSchedule::paper().len(), 1340);
    }

    #[test]
    fn fast_schedule_covers_same_range_with_fewer_steps() {
        let fast = CurrentSchedule::fast();
        let paper = CurrentSchedule::paper();
        assert_eq!(fast.start(), paper.start());
        assert_eq!(fast.stop(), paper.stop());
        assert!(fast.len() < paper.len());
        assert_eq!(fast.len(), 67);
    }

    #[test]
    fn current_decreases_monotonically() {
        let s = CurrentSchedule::fast();
        let mut prev = f64::INFINITY;
        for i in 0..s.len() {
            let c = s.current_at(i).as_micro_amps();
            assert!(c < prev);
            assert!(c >= s.stop().as_micro_amps() - 1e-9);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "iteration out of schedule range")]
    fn out_of_range_iteration_panics() {
        let s = CurrentSchedule::fast();
        let _ = s.current_at(s.len());
    }

    #[test]
    #[should_panic(expected = "ramp downwards")]
    fn inverted_schedule_is_rejected() {
        CurrentSchedule::new(
            WriteCurrent::from_micro_amps(300.0),
            WriteCurrent::from_micro_amps(400.0),
            WriteCurrent::from_nano_amps(50.0),
        );
    }

    #[test]
    fn stochasticity_decays_nonlinearly() {
        // The drop in stochasticity during the first half of the linear current ramp must
        // exceed the drop during the second half (the sigmoid argument of the paper).
        let s = CurrentSchedule::paper();
        let curve = SwitchingCurve::paper_fit();
        let p_start = s.stochasticity_at(0, &curve);
        let p_mid = s.stochasticity_at(s.len() / 2, &curve);
        let p_end = s.stochasticity_at(s.len() - 1, &curve);
        assert!(p_start - p_mid > p_mid - p_end);
        assert!((p_start - 0.20).abs() < 0.01);
        assert!(p_end < 0.015);
    }
}
