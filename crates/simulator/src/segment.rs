//! Execution segments: the unit the simulator executes.

use crate::error::{ensure_non_negative, ensure_positive, SimulationError};

/// One execution segment: `work` seconds of computation followed by a
/// checkpoint of `checkpoint` seconds, protected by a recovery of `recovery`
/// seconds (the cost of restoring the state *from which the segment starts*
/// after a failure — `R_{i-1}` in the paper's chain notation, or `R₀` for the
/// first segment).
///
/// A schedule for the paper's model is simply a `Vec<Segment>`: the scheduler
/// in `ckpt-core` groups tasks between checkpoints and emits one segment per
/// group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    work: f64,
    checkpoint: f64,
    recovery: f64,
}

impl Segment {
    /// Creates a segment.
    ///
    /// * `work` — total work in the segment (must be > 0);
    /// * `checkpoint` — checkpoint cost at the end of the segment (≥ 0; use 0
    ///   when the schedule does not checkpoint after this segment's last task
    ///   *and* the segment is final);
    /// * `recovery` — cost of restoring the state the segment starts from
    ///   (≥ 0).
    ///
    /// # Errors
    ///
    /// Returns a [`SimulationError`] if any argument is invalid.
    pub fn new(work: f64, checkpoint: f64, recovery: f64) -> Result<Self, SimulationError> {
        Ok(Segment {
            work: ensure_positive("work", work)?,
            checkpoint: ensure_non_negative("checkpoint", checkpoint)?,
            recovery: ensure_non_negative("recovery", recovery)?,
        })
    }

    /// The work duration of the segment.
    pub fn work(&self) -> f64 {
        self.work
    }

    /// The checkpoint cost at the end of the segment.
    pub fn checkpoint(&self) -> f64 {
        self.checkpoint
    }

    /// The recovery cost protecting this segment.
    pub fn recovery(&self) -> f64 {
        self.recovery
    }

    /// The failure-free duration of the segment (`work + checkpoint`).
    pub fn attempt_duration(&self) -> f64 {
        self.work + self.checkpoint
    }
}

/// The failure-free makespan of a sequence of segments.
pub fn failure_free_makespan(segments: &[Segment]) -> f64 {
    segments.iter().map(Segment::attempt_duration).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Segment::new(1.0, 0.0, 0.0).is_ok());
        assert!(Segment::new(0.0, 1.0, 0.0).is_err());
        assert!(Segment::new(1.0, -1.0, 0.0).is_err());
        assert!(Segment::new(1.0, 0.0, -1.0).is_err());
        assert!(Segment::new(f64::INFINITY, 0.0, 0.0).is_err());
    }

    #[test]
    fn accessors() {
        let s = Segment::new(100.0, 10.0, 20.0).unwrap();
        assert_eq!(s.work(), 100.0);
        assert_eq!(s.checkpoint(), 10.0);
        assert_eq!(s.recovery(), 20.0);
        assert_eq!(s.attempt_duration(), 110.0);
    }

    #[test]
    fn failure_free_makespan_sums_segments() {
        let segs =
            vec![Segment::new(100.0, 10.0, 0.0).unwrap(), Segment::new(200.0, 20.0, 10.0).unwrap()];
        assert_eq!(failure_free_makespan(&segs), 330.0);
        assert_eq!(failure_free_makespan(&[]), 0.0);
    }
}
