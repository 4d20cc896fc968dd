//! Platform-level failure processes: the superposition of `p` independent
//! per-processor failure streams (paper §2).
//!
//! For Exponential per-processor laws the superposition is again Exponential
//! with rate `λ = p·λ_proc`, which is the fact the paper's analysis relies on.
//! For Weibull or log-normal laws the superposition has no closed form; the
//! [`PlatformFailureProcess`] here realises it event by event, which is what
//! the §6 extension needs (and what experiment E7 quantifies).

use crate::distribution::FailureDistribution;
use crate::error::FailureModelError;
use crate::rng::Pcg64;

/// Index of a processor inside a platform (`0..p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessorId(pub usize);

impl std::fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A next platform-level failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformFailure {
    /// Absolute time of the failure (seconds since the start of the process).
    pub time: f64,
    /// The processor that failed.
    pub processor: ProcessorId,
}

/// The superposition of `p` i.i.d. per-processor failure processes.
///
/// The process tracks one "next failure" candidate per processor and exposes
/// the minimum. The caller advances logical time by consuming failures with
/// [`PlatformFailureProcess::next_failure`] and, when a failure has been
/// repaired, calls [`PlatformFailureProcess::record_repair`] so the failed
/// processor's clock restarts at the repair time.
///
/// # Example
///
/// ```rust
/// use ckpt_failure::{Exponential, PlatformFailureProcess};
///
/// let proc_law = Exponential::from_mtbf(86_400.0)?; // 1-day per-processor MTBF
/// let mut platform = PlatformFailureProcess::homogeneous(64, proc_law, 42)?;
/// let first = platform.next_failure();
/// assert!(first.time > 0.0);
/// # Ok::<(), ckpt_failure::FailureModelError>(())
/// ```
pub struct PlatformFailureProcess {
    laws: Vec<Box<dyn FailureDistribution>>,
    rngs: Vec<Pcg64>,
    /// Absolute time of each processor's next failure.
    next: Vec<f64>,
}

impl std::fmt::Debug for PlatformFailureProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlatformFailureProcess")
            .field("processors", &self.laws.len())
            .field("next", &self.next)
            .finish()
    }
}

impl PlatformFailureProcess {
    /// Builds a platform of `p` processors all following copies of `law`,
    /// with per-processor random sub-streams derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::EmptyPlatform`] if `p == 0`.
    pub fn homogeneous<D>(p: usize, law: D, seed: u64) -> Result<Self, FailureModelError>
    where
        D: FailureDistribution + Clone + 'static,
    {
        if p == 0 {
            return Err(FailureModelError::EmptyPlatform);
        }
        let laws: Vec<Box<dyn FailureDistribution>> =
            (0..p).map(|_| Box::new(law.clone()) as Box<dyn FailureDistribution>).collect();
        Self::heterogeneous(laws, seed)
    }

    /// Builds a platform from one (possibly different) law per processor.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::EmptyPlatform`] if `laws` is empty.
    pub fn heterogeneous(
        laws: Vec<Box<dyn FailureDistribution>>,
        seed: u64,
    ) -> Result<Self, FailureModelError> {
        if laws.is_empty() {
            return Err(FailureModelError::EmptyPlatform);
        }
        let root = Pcg64::seed_from_u64(seed);
        let mut rngs: Vec<Pcg64> = (0..laws.len()).map(|i| root.derive(i as u64)).collect();
        let next: Vec<f64> =
            laws.iter().zip(rngs.iter_mut()).map(|(law, rng)| law.sample(rng)).collect();
        Ok(PlatformFailureProcess { laws, rngs, next })
    }

    /// The number of processors in the platform.
    pub fn processor_count(&self) -> usize {
        self.laws.len()
    }

    /// Returns (without consuming it) the next platform-level failure.
    pub fn peek_failure(&self) -> PlatformFailure {
        let (idx, &time) = self
            .next
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("failure times are never NaN"))
            .expect("platform is never empty");
        PlatformFailure { time, processor: ProcessorId(idx) }
    }

    /// Consumes and returns the next platform-level failure, restarting the
    /// failed processor's clock at the failure instant (repairs can be
    /// registered later with [`record_repair`](Self::record_repair)).
    pub fn next_failure(&mut self) -> PlatformFailure {
        let failure = self.peek_failure();
        self.restart_processor(failure.processor.0, failure.time);
        failure
    }

    /// Registers that the platform finished repairing (downtime + recovery) at
    /// absolute time `repair_time`; the failed processor's lifetime restarts
    /// from that instant rather than from the failure instant.
    ///
    /// Failures whose candidate time falls before `repair_time` on *other*
    /// processors are left untouched: the paper's model allows failures during
    /// recovery (they will simply be observed by the caller).
    pub fn record_repair(&mut self, processor: ProcessorId, repair_time: f64) {
        let idx = processor.0;
        assert!(idx < self.laws.len(), "unknown processor {processor}");
        if self.next[idx] < repair_time {
            self.restart_processor(idx, repair_time);
        }
    }

    /// Draws the time of the next failure strictly after `after`, consuming
    /// failures as needed. Convenience wrapper used by segment-based
    /// simulators that only care about the platform-level stream.
    pub fn next_failure_after(&mut self, after: f64) -> PlatformFailure {
        loop {
            let f = self.next_failure();
            if f.time > after {
                return f;
            }
        }
    }

    /// The total hazard rate at time 0; for an all-Exponential platform this
    /// is the platform rate `λ = Σ λ_i = p·λ_proc`.
    pub fn aggregate_rate(&self) -> f64 {
        self.laws.iter().map(|l| l.hazard(0.0)).sum()
    }

    fn restart_processor(&mut self, idx: usize, now: f64) {
        let lifetime = self.laws[idx].sample(&mut self.rngs[idx]);
        self.next[idx] = now + lifetime;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exponential::Exponential;
    use crate::weibull::Weibull;

    #[test]
    fn homogeneous_requires_processors() {
        let law = Exponential::new(0.001).unwrap();
        assert!(matches!(
            PlatformFailureProcess::homogeneous(0, law, 1),
            Err(FailureModelError::EmptyPlatform)
        ));
    }

    #[test]
    fn failures_are_strictly_increasing_in_time() {
        let law = Exponential::from_mtbf(100.0).unwrap();
        let mut plat = PlatformFailureProcess::homogeneous(8, law, 7).unwrap();
        let mut last = 0.0;
        for _ in 0..1000 {
            let f = plat.next_failure();
            assert!(f.time >= last, "time went backwards");
            assert!(f.processor.0 < 8);
            last = f.time;
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let law = Exponential::from_mtbf(100.0).unwrap();
        let mut plat = PlatformFailureProcess::homogeneous(4, law, 3).unwrap();
        let a = plat.peek_failure();
        let b = plat.peek_failure();
        assert_eq!(a, b);
        let c = plat.next_failure();
        assert_eq!(a, c);
        let d = plat.peek_failure();
        assert!(d.time >= c.time);
    }

    #[test]
    fn exponential_platform_is_memoryless_with_summed_rate() {
        let law = Exponential::new(0.002).unwrap();
        let plat = PlatformFailureProcess::homogeneous(10, law, 11).unwrap();
        assert!((plat.aggregate_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn superposed_exponential_interarrival_matches_platform_rate() {
        // Empirically check that the superposition of p Exp(λ_proc) streams has
        // mean inter-arrival 1/(p·λ_proc) — the §2 identity.
        let p = 16;
        let mtbf_proc = 1000.0;
        let law = Exponential::from_mtbf(mtbf_proc).unwrap();
        let mut plat = PlatformFailureProcess::homogeneous(p, law, 1234).unwrap();
        let n = 40_000;
        let mut last = 0.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let f = plat.next_failure();
            sum += f.time - last;
            last = f.time;
        }
        let mean = sum / n as f64;
        let expected = mtbf_proc / p as f64;
        assert!(
            (mean - expected).abs() / expected < 0.03,
            "mean inter-arrival {mean}, expected {expected}"
        );
    }

    #[test]
    fn record_repair_pushes_failure_past_repair_time() {
        let law = Exponential::from_mtbf(10.0).unwrap();
        let mut plat = PlatformFailureProcess::homogeneous(1, law, 5).unwrap();
        let f = plat.next_failure();
        // Repair completes 100 s after the failure; the next failure of that
        // processor must be after the repair completes.
        let repair_time = f.time + 100.0;
        plat.record_repair(f.processor, repair_time);
        let next = plat.peek_failure();
        assert!(next.time >= repair_time);
    }

    #[test]
    fn next_failure_after_skips_earlier_failures() {
        let law = Exponential::from_mtbf(50.0).unwrap();
        let mut plat = PlatformFailureProcess::homogeneous(4, law, 9).unwrap();
        let f = plat.next_failure_after(1000.0);
        assert!(f.time > 1000.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let law = Exponential::from_mtbf(123.0).unwrap();
        let mut a = PlatformFailureProcess::homogeneous(8, law, 99).unwrap();
        let law = Exponential::from_mtbf(123.0).unwrap();
        let mut b = PlatformFailureProcess::homogeneous(8, law, 99).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_failure(), b.next_failure());
        }
    }

    #[test]
    fn debug_output_is_nonempty() {
        let law = Exponential::new(1.0).unwrap();
        let plat = PlatformFailureProcess::homogeneous(2, law, 1).unwrap();
        assert!(!format!("{plat:?}").is_empty());
    }

    mod properties {
        use super::*;
        use crate::lognormal::LogNormal;
        use proptest::prelude::*;

        /// A platform mixing the three law families, sized and seeded by the
        /// strategy inputs.
        fn mixed_platform(p: usize, mtbf: f64, seed: u64) -> PlatformFailureProcess {
            let laws: Vec<Box<dyn crate::FailureDistribution>> = (0..p)
                .map(|i| match i % 3 {
                    0 => Box::new(Exponential::from_mtbf(mtbf).unwrap())
                        as Box<dyn crate::FailureDistribution>,
                    1 => Box::new(Weibull::new(0.8, mtbf).unwrap()),
                    _ => Box::new(LogNormal::with_mean(mtbf, 1.0).unwrap()),
                })
                .collect();
            PlatformFailureProcess::heterogeneous(laws, seed).unwrap()
        }

        proptest! {
            #[test]
            fn prop_failure_times_are_non_decreasing(
                p in 1usize..9,
                mtbf in 1.0f64..1e4,
                seed in any::<u64>(),
            ) {
                let mut plat = mixed_platform(p, mtbf, seed);
                let mut last = 0.0;
                for _ in 0..64 {
                    let f = plat.next_failure();
                    prop_assert!(f.time >= last, "time went backwards: {} < {last}", f.time);
                    prop_assert!(f.processor.0 < p);
                    last = f.time;
                }
            }

            #[test]
            fn prop_next_failure_after_is_strictly_later(
                p in 1usize..9,
                mtbf in 1.0f64..1e4,
                seed in any::<u64>(),
                after in 0.0f64..1e5,
            ) {
                let mut plat = mixed_platform(p, mtbf, seed);
                let f = plat.next_failure_after(after);
                prop_assert!(f.time > after);
            }

            #[test]
            fn prop_record_repair_shifts_only_the_repaired_processor(
                p in 2usize..9,
                mtbf in 1.0f64..1e4,
                seed in any::<u64>(),
                delay in 0.0f64..1e4,
            ) {
                let mut plat = mixed_platform(p, mtbf, seed);
                let failure = plat.next_failure();
                let before = plat.next.clone();
                let repair_time = failure.time + delay;
                plat.record_repair(failure.processor, repair_time);
                for (i, (&now, &was)) in plat.next.iter().zip(before.iter()).enumerate() {
                    if i == failure.processor.0 {
                        prop_assert!(
                            now >= repair_time,
                            "repaired processor {i} still fails at {now} < {repair_time}"
                        );
                    } else {
                        prop_assert!(now == was, "repair perturbed processor {i}");
                    }
                }
            }

            #[test]
            fn prop_record_repair_in_the_past_is_a_no_op(
                p in 1usize..9,
                mtbf in 1.0f64..1e4,
                seed in any::<u64>(),
            ) {
                let mut plat = mixed_platform(p, mtbf, seed);
                // Candidates are all in the future of t = 0, so a repair
                // completing at 0 must leave every clock untouched.
                let before = plat.next.clone();
                plat.record_repair(ProcessorId(0), 0.0);
                prop_assert_eq!(&plat.next, &before);
            }

            #[test]
            fn prop_aggregate_rate_sums_exponential_rates(
                r1 in 1e-6f64..1e2,
                r2 in 1e-6f64..1e2,
                r3 in 1e-6f64..1e2,
                n in 1usize..4,
            ) {
                let rates = &[r1, r2, r3][..n];
                let laws: Vec<Box<dyn crate::FailureDistribution>> = rates
                    .iter()
                    .map(|&r| Box::new(Exponential::new(r).unwrap())
                        as Box<dyn crate::FailureDistribution>)
                    .collect();
                let plat = PlatformFailureProcess::heterogeneous(laws, 1).unwrap();
                let total: f64 = rates.iter().sum();
                let aggregate = plat.aggregate_rate();
                prop_assert!((aggregate - total).abs() <= 1e-9 * total.max(1.0));
            }
        }
    }
}
