//! Synthetic failure traces: recording, replay and generation.
//!
//! The paper's §6 extension (and its companion papers) evaluate checkpointing
//! heuristics against *failure logs of production clusters* from the Failure
//! Trace Archive. Those logs are not redistributable, so this module provides
//! a substitute: a [`TraceGenerator`] that produces synthetic logs from any
//! [`FailureDistribution`] (including the Weibull and log-normal laws), and a
//! [`FailureTrace`] container that can be replayed deterministically by the
//! simulator exactly as a real log would be.

use crate::distribution::FailureDistribution;
use crate::error::FailureModelError;
use crate::platform::{PlatformFailureProcess, ProcessorId};

/// One failure event in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Absolute time of the failure, in seconds from the trace origin.
    pub time: f64,
    /// The processor that failed.
    pub processor: ProcessorId,
}

/// An ordered collection of failure events on a platform of `p` processors.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureTrace {
    processors: usize,
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// Builds a trace from raw events.
    ///
    /// # Errors
    ///
    /// * [`FailureModelError::EmptyPlatform`] if `processors == 0`;
    /// * [`FailureModelError::NonMonotoneTrace`] if timestamps decrease;
    /// * [`FailureModelError::UnknownProcessor`] if an event references a
    ///   processor `≥ processors`.
    pub fn new(processors: usize, events: Vec<FailureEvent>) -> Result<Self, FailureModelError> {
        if processors == 0 {
            return Err(FailureModelError::EmptyPlatform);
        }
        for (i, w) in events.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(FailureModelError::NonMonotoneTrace { index: i + 1 });
            }
        }
        if let Some(ev) = events.iter().find(|e| e.processor.0 >= processors) {
            return Err(FailureModelError::UnknownProcessor {
                processor: ev.processor.0,
                platform_size: processors,
            });
        }
        Ok(FailureTrace { processors, events })
    }

    /// The number of processors in the traced platform.
    pub fn processor_count(&self) -> usize {
        self.processors
    }

    /// The number of failure events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in chronological order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// The time horizon covered by the trace (time of the last event, or 0).
    pub fn horizon(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.time)
    }

    /// Iterates over the events strictly after `time`.
    fn events_after(&self, time: f64) -> impl Iterator<Item = &FailureEvent> {
        let start = self.events.partition_point(|e| e.time <= time);
        self.events[start..].iter()
    }

    /// The first failure strictly after `time`, if any.
    pub fn next_failure_after(&self, time: f64) -> Option<FailureEvent> {
        self.events_after(time).next().copied()
    }

    /// Mean platform-level inter-arrival time of the trace.
    ///
    /// Returns `None` for traces with fewer than two events.
    pub fn mean_interarrival(&self) -> Option<f64> {
        if self.events.len() < 2 {
            return None;
        }
        let span = self.events.last().unwrap().time - self.events.first().unwrap().time;
        Some(span / (self.events.len() - 1) as f64)
    }
}

/// Generates synthetic failure traces from per-processor failure laws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGenerator {
    processors: usize,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for a platform of `processors` processors, with all
    /// randomness derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::EmptyPlatform`] if `processors == 0`.
    pub fn new(processors: usize, seed: u64) -> Result<Self, FailureModelError> {
        if processors == 0 {
            return Err(FailureModelError::EmptyPlatform);
        }
        Ok(TraceGenerator { processors, seed })
    }

    /// Generates a trace up to `horizon` seconds where every processor follows
    /// (an independent copy of) `law`.
    pub fn generate<D>(&self, law: D, horizon: f64) -> FailureTrace
    where
        D: FailureDistribution + Clone + 'static,
    {
        let mut platform = PlatformFailureProcess::homogeneous(self.processors, law, self.seed)
            .expect("processors > 0 was validated at construction");
        let mut events = Vec::new();
        loop {
            let f = platform.peek_failure();
            if f.time > horizon {
                break;
            }
            let f = platform.next_failure();
            events.push(FailureEvent { time: f.time, processor: f.processor });
        }
        FailureTrace { processors: self.processors, events }
    }
}

/// A [`RandomSource`](crate::rng::RandomSource)-free failure stream backed
/// by a recorded trace.
///
/// Wraps a [`FailureTrace`] with a cursor so a simulator can consume the
/// platform-level failure sequence exactly once, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReplay {
    trace: FailureTrace,
    cursor: usize,
}

impl TraceReplay {
    /// Starts replaying `trace` from its beginning.
    pub fn new(trace: FailureTrace) -> Self {
        TraceReplay { trace, cursor: 0 }
    }

    /// The next failure strictly after `time`, advancing the cursor.
    ///
    /// Returns `None` when the trace is exhausted.
    pub fn next_after(&mut self, time: f64) -> Option<FailureEvent> {
        while self.cursor < self.trace.len() {
            let ev = self.trace.events()[self.cursor];
            self.cursor += 1;
            if ev.time > time {
                return Some(ev);
            }
        }
        None
    }

    /// The underlying trace.
    pub fn trace(&self) -> &FailureTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::Exponential;

    fn ev(time: f64, p: usize) -> FailureEvent {
        FailureEvent { time, processor: ProcessorId(p) }
    }

    #[test]
    fn trace_validates_inputs() {
        assert!(FailureTrace::new(0, vec![]).is_err());
        assert!(FailureTrace::new(2, vec![ev(1.0, 0), ev(0.5, 1)]).is_err());
        assert!(FailureTrace::new(2, vec![ev(1.0, 5)]).is_err());
        assert!(FailureTrace::new(2, vec![ev(1.0, 0), ev(2.0, 1)]).is_ok());
    }

    #[test]
    fn empty_trace_properties() {
        let t = FailureTrace::new(4, vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.horizon(), 0.0);
        assert!(t.mean_interarrival().is_none());
        assert!(t.next_failure_after(0.0).is_none());
    }

    #[test]
    fn events_after_is_strict() {
        let t = FailureTrace::new(2, vec![ev(1.0, 0), ev(2.0, 1), ev(3.0, 0)]).unwrap();
        let after: Vec<f64> = t.events_after(2.0).map(|e| e.time).collect();
        assert_eq!(after, vec![3.0]);
        assert_eq!(t.next_failure_after(0.0).unwrap().time, 1.0);
        assert_eq!(t.next_failure_after(1.0).unwrap().time, 2.0);
    }

    #[test]
    fn mean_interarrival_and_counts() {
        let t = FailureTrace::new(2, vec![ev(0.0, 0), ev(10.0, 1), ev(30.0, 1)]).unwrap();
        assert!((t.mean_interarrival().unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn generator_produces_monotone_trace_with_expected_density() {
        let gen = TraceGenerator::new(16, 2024).unwrap();
        let law = Exponential::from_mtbf(1000.0).unwrap();
        let horizon = 500_000.0;
        let trace = gen.generate(law, horizon);
        assert!(!trace.is_empty());
        assert!(trace.events().windows(2).all(|w| w[1].time >= w[0].time));
        assert!(trace.horizon() <= horizon);
        // Expected count ≈ horizon * p / mtbf = 500000*16/1000 = 8000.
        let expected = 8000.0;
        let got = trace.len() as f64;
        assert!((got - expected).abs() / expected < 0.1, "got {got} events");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let gen = TraceGenerator::new(4, 7).unwrap();
        let a = gen.generate(Exponential::from_mtbf(100.0).unwrap(), 10_000.0);
        let b = gen.generate(Exponential::from_mtbf(100.0).unwrap(), 10_000.0);
        assert_eq!(a, b);
        let gen2 = TraceGenerator::new(4, 8).unwrap();
        let c = gen2.generate(Exponential::from_mtbf(100.0).unwrap(), 10_000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn generator_rejects_empty_platform() {
        assert!(TraceGenerator::new(0, 1).is_err());
    }

    #[test]
    fn replay_consumes_in_order() {
        let t = FailureTrace::new(1, vec![ev(1.0, 0), ev(2.0, 0), ev(5.0, 0)]).unwrap();
        let mut replay = TraceReplay::new(t);
        assert_eq!(replay.next_after(0.0).unwrap().time, 1.0);
        assert_eq!(replay.next_after(1.5).unwrap().time, 2.0);
        assert_eq!(replay.next_after(2.0).unwrap().time, 5.0);
        assert!(replay.next_after(5.0).is_none());
        assert_eq!(replay.trace().len(), 3);
    }
}
