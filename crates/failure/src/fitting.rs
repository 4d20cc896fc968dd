//! Online estimation of a failure rate from observed inter-arrival times.
//!
//! An executing policy that learns the platform's rate (the §6 setting where
//! the failure law is known only through the failures it produces) updates
//! an Exponential maximum-likelihood estimate at every failure it sees.

/// Incremental maximum-likelihood Exponential rate estimation from observed
/// inter-failure times, maintained in `O(1)` per observation so an executing
/// policy can update its estimate at every failure.
///
/// The MLE of an Exponential rate after `k` observed inter-arrival times
/// summing to `t` is `λ̂ = k / t`, the reciprocal of the sample mean.
///
/// # Example
///
/// ```
/// use ckpt_failure::fitting::OnlineExponentialMle;
///
/// let samples = [120.0, 340.0, 80.0, 200.0];
/// let mut online = OnlineExponentialMle::new();
/// for &s in &samples {
///     online.observe(s);
/// }
/// let rate = online.rate().expect("four observations");
/// assert!((rate - 4.0 / 740.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineExponentialMle {
    count: u64,
    total: f64,
}

impl OnlineExponentialMle {
    /// An estimator with no observations yet.
    pub fn new() -> Self {
        OnlineExponentialMle::default()
    }

    /// Records one inter-failure time. Non-finite or negative samples are
    /// ignored (a defensive guard: simulated failure streams only produce
    /// non-negative gaps).
    pub fn observe(&mut self, interarrival: f64) {
        if interarrival.is_finite() && interarrival >= 0.0 {
            self.count += 1;
            self.total += interarrival;
        }
    }

    /// The number of recorded inter-failure times.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The maximum-likelihood rate `k / t`, or `None` before the first
    /// observation (or while the accumulated time is still zero).
    pub fn rate(&self) -> Option<f64> {
        (self.count > 0 && self.total > 0.0).then(|| self.count as f64 / self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::FailureDistribution;
    use crate::exponential::Exponential;
    use crate::rng::Pcg64;

    #[test]
    fn online_mle_matches_batch_fit() {
        let law = Exponential::from_mtbf(640.0).unwrap();
        let mut rng = Pcg64::seed_from_u64(21);
        let samples: Vec<f64> = (0..5_000).map(|_| law.sample(&mut rng)).collect();
        let mut online = OnlineExponentialMle::new();
        for &s in &samples {
            online.observe(s);
        }
        // The batch MLE is the reciprocal of the sample mean.
        let batch = samples.len() as f64 / samples.iter().sum::<f64>();
        let rate = online.rate().unwrap();
        assert!((rate - batch).abs() / batch < 1e-12);
        assert_eq!(online.count(), samples.len() as u64);
    }

    #[test]
    fn online_mle_guards_degenerate_inputs() {
        let mut online = OnlineExponentialMle::new();
        assert_eq!(online.rate(), None);
        online.observe(f64::NAN);
        online.observe(-5.0);
        online.observe(f64::INFINITY);
        assert_eq!(online.count(), 0);
        // A single zero gap keeps the rate undefined rather than infinite.
        online.observe(0.0);
        assert_eq!(online.count(), 1);
        assert_eq!(online.rate(), None);
        online.observe(100.0);
        assert!((online.rate().unwrap() - 2.0 / 100.0).abs() < 1e-15);
    }
}
