//! Fault injection for multi-machine clusters: correlated failure bursts and
//! explicit repair intervals on top of per-machine failure processes.
//!
//! The paper plans checkpoints for one workflow on one failure-prone machine;
//! the cluster tier (`ckpt-cluster`) runs many jobs on a *pool* of machines
//! whose failures are **correlated** (a rack-level power event or network
//! partition fells several machines within a short window) and whose repairs
//! **take time** (a machine is unavailable while repairing rather than
//! instantly rejuvenated). [`ClusterFailureInjector`] supplies both:
//!
//! * each machine owns a [`PlatformFailureProcess`] — so all the per-processor
//!   heterogeneity and the [`Shifted`](crate::Shifted) law composition of
//!   this crate carry over unchanged;
//! * an optional shared **shock process** ([`ShockConfig`]) injects correlated
//!   bursts: shocks arrive as a Poisson process, each shock independently
//!   strikes each machine with probability `fan_out`, and a struck machine
//!   fails at the shock instant plus a uniform offset in `[0, burst_width]`.
//!   The per-shock randomness always draws the *same number* of variates per
//!   machine, so the set of struck machines is identical across burst widths
//!   for a fixed seed — experiments can vary the burst width alone;
//! * a [`RepairModel`] turns a machine failure into a repair interval:
//!   [`begin_repair`](ClusterFailureInjector::begin_repair) samples the repair
//!   duration, silences every failure candidate of the machine that falls
//!   inside the downtime (a machine that is already down cannot fail again)
//!   and restarts its processor clocks at the repair-completion instant.
//!
//! All randomness is derived from a single seed with the same split-stream
//! discipline as `montecarlo.rs`: machine `m` uses sub-streams `2m` (failure
//! process) and `2m + 1` (repair durations), the shock process uses sub-stream
//! `u64::MAX`. Queries for different machines therefore never contend for the
//! same variates and the whole injector is bit-for-bit reproducible.

use crate::distribution::FailureDistribution;
use crate::error::{ensure_non_negative, FailureModelError};
use crate::exponential::Exponential;
use crate::platform::{PlatformFailureProcess, ProcessorId};
use crate::rng::{Pcg64, RandomSource};

/// Configuration of the shared shock process that produces correlated
/// failure bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShockConfig {
    rate: f64,
    fan_out: f64,
    burst_width: f64,
}

impl ShockConfig {
    /// Builds a shock configuration.
    ///
    /// * `rate` — Poisson arrival rate of shocks (per second);
    /// * `fan_out` — probability that a given shock strikes a given machine
    ///   (1.0 = every shock fells every machine);
    /// * `burst_width` — struck machines fail at the shock instant plus an
    ///   independent uniform offset in `[0, burst_width]` (0.0 = simultaneous).
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError`] when `rate` is not strictly positive,
    /// `fan_out` is outside `[0, 1]` or `burst_width` is negative.
    pub fn new(rate: f64, fan_out: f64, burst_width: f64) -> Result<Self, FailureModelError> {
        Exponential::new(rate)?;
        if !(0.0..=1.0).contains(&fan_out) || !fan_out.is_finite() {
            return Err(FailureModelError::InvalidProbability { name: "fan_out", value: fan_out });
        }
        ensure_non_negative("burst_width", burst_width)?;
        Ok(ShockConfig { rate, fan_out, burst_width })
    }

    /// Poisson arrival rate of shocks.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Width of the burst window over which struck machines fail.
    pub fn burst_width(&self) -> f64 {
        self.burst_width
    }
}

/// How long a failed machine stays unavailable before it can run jobs again.
#[derive(Debug, Default)]
pub enum RepairModel {
    /// The machine is available again at the failure instant (the paper's §2
    /// model, where only the job-level downtime `D` is paid).
    #[default]
    Immediate,
    /// Every repair takes the same fixed number of seconds.
    Fixed(f64),
    /// Repair durations are drawn from a distribution (per-machine derived
    /// sub-streams keep the draws reproducible).
    Random(Box<dyn FailureDistribution>),
}

struct MachineFaults {
    platform: PlatformFailureProcess,
    repair_rng: Pcg64,
    /// Cached natural-failure candidate (already consumed from the platform),
    /// re-returnable while queries stay below it.
    pending: Option<f64>,
    /// Materialised shock-induced failure times for this machine, sorted.
    shock_hits: Vec<f64>,
}

struct ShockState {
    config: ShockConfig,
    law: Exponential,
    rng: Pcg64,
    /// Absolute time of the next not-yet-materialised shock.
    next_shock: f64,
}

/// Per-machine failure streams with correlated bursts and repair intervals.
///
/// The injector answers the same query as a
/// `FailureStream` — *"first failure of machine `m` strictly after time
/// `t`"* — but for a whole pool of machines at once, merging each machine's
/// own [`PlatformFailureProcess`] with the shared shock process. The cluster
/// engine tells the injector when a machine enters repair via
/// [`begin_repair`](Self::begin_repair).
///
/// Queries per machine must use non-decreasing `after` values (the usual
/// stream discipline); candidates beyond `after` are cached and re-returned,
/// candidates at or before `after` are skipped — a machine that was idle while
/// a shock passed does not fail retroactively.
///
/// # Example
///
/// ```rust
/// use ckpt_failure::{ClusterFailureInjector, Exponential, RepairModel, ShockConfig};
///
/// let law = Exponential::from_mtbf(50_000.0)?;
/// let mut injector = ClusterFailureInjector::homogeneous(4, law, 42)?
///     .with_shocks(ShockConfig::new(1.0 / 5_000.0, 1.0, 60.0)?)
///     .with_repair(RepairModel::Fixed(600.0))?;
/// let first = injector.next_failure_after(0, 0.0);
/// assert!(first > 0.0);
/// let back_up = injector.begin_repair(0, first);
/// assert_eq!(back_up, first + 600.0);
/// # Ok::<(), ckpt_failure::FailureModelError>(())
/// ```
pub struct ClusterFailureInjector {
    machines: Vec<MachineFaults>,
    shocks: Option<ShockState>,
    repair: RepairModel,
    /// Dedicated sub-stream for the shock process (root stream `u64::MAX`,
    /// disjoint from every machine's `2m` / `2m + 1` sub-streams), kept here
    /// so enabling shocks never perturbs the per-machine draws.
    shock_rng: Pcg64,
}

impl std::fmt::Debug for ClusterFailureInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterFailureInjector")
            .field("machines", &self.machines.len())
            .field("shocks", &self.shocks.as_ref().map(|s| s.config))
            .field("repair", &self.repair)
            .finish()
    }
}

impl ClusterFailureInjector {
    /// Builds a pool of `machines` single-processor machines all following
    /// copies of `law`, with derived per-machine sub-streams.
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::EmptyPlatform`] if `machines == 0`.
    pub fn homogeneous<D>(machines: usize, law: D, seed: u64) -> Result<Self, FailureModelError>
    where
        D: FailureDistribution + Clone + 'static,
    {
        let laws = (0..machines)
            .map(|_| vec![Box::new(law.clone()) as Box<dyn FailureDistribution>])
            .collect();
        Self::heterogeneous(laws, seed)
    }

    /// Builds a pool from one list of per-processor laws per machine (machine
    /// `m` becomes a [`PlatformFailureProcess`] over `machine_laws[m]`).
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError::EmptyPlatform`] if `machine_laws` is empty
    /// or any machine has no processors.
    pub fn heterogeneous(
        machine_laws: Vec<Vec<Box<dyn FailureDistribution>>>,
        seed: u64,
    ) -> Result<Self, FailureModelError> {
        if machine_laws.is_empty() {
            return Err(FailureModelError::EmptyPlatform);
        }
        let root = Pcg64::seed_from_u64(seed);
        let machines = machine_laws
            .into_iter()
            .enumerate()
            .map(|(m, laws)| {
                let mut stream_rng = root.derive(2 * m as u64);
                let platform = PlatformFailureProcess::heterogeneous(laws, stream_rng.next_u64())?;
                Ok(MachineFaults {
                    platform,
                    repair_rng: root.derive(2 * m as u64 + 1),
                    pending: None,
                    shock_hits: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, FailureModelError>>()?;
        Ok(ClusterFailureInjector {
            machines,
            shocks: None,
            repair: RepairModel::Immediate,
            shock_rng: root.derive(u64::MAX),
        })
    }

    /// Enables the correlated shock process (builder style).
    pub fn with_shocks(mut self, config: ShockConfig) -> Self {
        let law = Exponential::new(config.rate).expect("ShockConfig validated the rate");
        let mut rng = self.shock_rng.clone();
        let next_shock = law.sample(&mut rng);
        self.shocks = Some(ShockState { config, law, rng, next_shock });
        self
    }

    /// Sets the repair model (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`FailureModelError`] if a [`RepairModel::Fixed`] duration is
    /// negative or non-finite.
    pub fn with_repair(mut self, repair: RepairModel) -> Result<Self, FailureModelError> {
        if let RepairModel::Fixed(d) = repair {
            ensure_non_negative("repair_duration", d)?;
        }
        self.repair = repair;
        Ok(self)
    }

    /// The number of machines in the pool.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// First failure of `machine` strictly after `after`, merging the
    /// machine's own process with materialised shock hits.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn next_failure_after(&mut self, machine: usize, after: f64) -> f64 {
        let natural = {
            let faults = &mut self.machines[machine];
            match faults.pending {
                Some(t) if t > after => t,
                _ => {
                    let t = faults.platform.next_failure_after(after).time;
                    faults.pending = Some(t);
                    t
                }
            }
        };
        // Lazily materialise shocks until the next one can no longer beat the
        // best candidate seen so far: a shock at time `s` only produces hits
        // at ≥ `s`, so once `next_shock > best` the answer is settled. The
        // candidate shrinks as hits land, so this touches only the shocks the
        // query can actually observe (a machine with a year-long MTBF does not
        // force a year of shocks to be drawn).
        let mut best = natural;
        if self.shocks.as_ref().is_some_and(|s| s.config.fan_out > 0.0) {
            loop {
                let faults = &mut self.machines[machine];
                let stale = faults.shock_hits.partition_point(|&h| h <= after);
                faults.shock_hits.drain(..stale);
                if let Some(&hit) = faults.shock_hits.first() {
                    best = best.min(hit);
                }
                if self.shocks.as_ref().expect("checked above").next_shock > best {
                    break;
                }
                self.materialise_one_shock();
            }
        }
        best
    }

    /// Starts repairing `machine` after it failed at time `at` and returns the
    /// absolute time at which the machine is available again.
    ///
    /// Every failure candidate of the machine inside the repair interval is
    /// silenced (a machine that is down cannot fail again) and its processor
    /// clocks restart at the repair-completion instant.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn begin_repair(&mut self, machine: usize, at: f64) -> f64 {
        let duration = match &self.repair {
            RepairModel::Immediate => 0.0,
            RepairModel::Fixed(d) => *d,
            RepairModel::Random(law) => law.sample(&mut self.machines[machine].repair_rng),
        };
        let done = at + duration;
        crate::stats::REPAIRS_TOTAL.add(1);
        let faults = &mut self.machines[machine];
        for p in 0..faults.platform.processor_count() {
            faults.platform.record_repair(ProcessorId(p), done);
        }
        // Only candidates *inside* the repair interval are silenced: a cached
        // natural-failure candidate beyond the repair completion was observed
        // while the machine was (or will be) up and must survive — dropping
        // it here would silently thin the machine's own failure process
        // whenever a shock-triggered repair resolves before it.
        faults.pending = faults.pending.filter(|&t| t > done);
        let absorbed = faults.shock_hits.partition_point(|&h| h <= done);
        faults.shock_hits.drain(..absorbed);
        done
    }

    fn materialise_one_shock(&mut self) {
        let Some(state) = self.shocks.as_mut() else { return };
        let shock_time = state.next_shock;
        crate::stats::SHOCKS_TOTAL.add(1);
        let mut hits = 0u64;
        for faults in self.machines.iter_mut() {
            // Always draw both variates so the struck-machine pattern is
            // invariant across burst widths (and the offset draw across
            // fan-outs) for a fixed seed.
            let u_hit = state.rng.next_f64();
            let u_offset = state.rng.next_f64();
            if u_hit < state.config.fan_out {
                let hit = shock_time + u_offset * state.config.burst_width;
                let pos = faults.shock_hits.partition_point(|&h| h <= hit);
                faults.shock_hits.insert(pos, hit);
                hits += 1;
            }
        }
        crate::stats::SHOCK_HITS_TOTAL.add(hits);
        state.next_shock = shock_time + state.law.sample(&mut state.rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weibull::Weibull;
    use crate::Shifted;

    fn law(mtbf: f64) -> Exponential {
        Exponential::from_mtbf(mtbf).unwrap()
    }

    #[test]
    fn construction_rejects_empty_pools() {
        assert!(matches!(
            ClusterFailureInjector::homogeneous(0, law(100.0), 1),
            Err(FailureModelError::EmptyPlatform)
        ));
        assert!(matches!(
            ClusterFailureInjector::heterogeneous(vec![vec![]], 1),
            Err(FailureModelError::EmptyPlatform)
        ));
    }

    #[test]
    fn shock_config_validates_parameters() {
        assert!(ShockConfig::new(0.0, 0.5, 1.0).is_err());
        assert!(ShockConfig::new(1.0, -0.1, 1.0).is_err());
        assert!(ShockConfig::new(1.0, 1.1, 1.0).is_err());
        assert!(ShockConfig::new(1.0, 0.5, -1.0).is_err());
        let cfg = ShockConfig::new(0.25, 0.5, 2.0).unwrap();
        assert_eq!((cfg.rate(), cfg.fan_out, cfg.burst_width()), (0.25, 0.5, 2.0));
    }

    #[test]
    fn repair_model_validates_fixed_duration() {
        let inj = ClusterFailureInjector::homogeneous(1, law(100.0), 1).unwrap();
        assert!(inj.with_repair(RepairModel::Fixed(-5.0)).is_err());
    }

    #[test]
    fn deterministic_given_seed_and_query_order() {
        let build = || {
            ClusterFailureInjector::homogeneous(3, law(500.0), 77)
                .unwrap()
                .with_shocks(ShockConfig::new(1.0 / 300.0, 0.7, 20.0).unwrap())
                .with_repair(RepairModel::Random(Box::new(law(60.0))))
                .unwrap()
        };
        let mut a = build();
        let mut b = build();
        let mut clocks = [0.0f64; 3];
        for step in 0..200 {
            let m = step % 3;
            let fa = a.next_failure_after(m, clocks[m]);
            let fb = b.next_failure_after(m, clocks[m]);
            assert_eq!(fa, fb, "diverged at step {step}");
            let ra = a.begin_repair(m, fa);
            let rb = b.begin_repair(m, fb);
            assert_eq!(ra, rb);
            clocks[m] = ra;
        }
    }

    #[test]
    fn zero_fan_out_matches_shockless_pool() {
        // fan_out = 0 draws shock variates from an independent sub-stream but
        // never fells anything, so the merged stream equals the natural one.
        let mut plain = ClusterFailureInjector::homogeneous(2, law(400.0), 5).unwrap();
        let mut shocked = ClusterFailureInjector::homogeneous(2, law(400.0), 5)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 50.0, 0.0, 10.0).unwrap());
        for m in 0..2 {
            let mut after = 0.0;
            for _ in 0..100 {
                let f = plain.next_failure_after(m, after);
                assert_eq!(f, shocked.next_failure_after(m, after));
                after = f;
            }
        }
    }

    #[test]
    fn full_fan_out_zero_width_fells_all_machines_at_the_shock_instant() {
        // Machines whose own MTBF is astronomically long: the first failure of
        // every machine is the first shock, at the exact same instant.
        let mut inj = ClusterFailureInjector::homogeneous(4, law(1e12), 9)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 100.0, 1.0, 0.0).unwrap());
        let first = inj.next_failure_after(0, 0.0);
        for m in 1..4 {
            assert_eq!(inj.next_failure_after(m, 0.0), first);
        }
    }

    #[test]
    fn burst_width_staggers_but_preserves_the_struck_pattern() {
        // Same seed, different widths: the k-th shock hit of each machine
        // moves by at most the width, never by a different shock's slot.
        let width = 5.0;
        let mut narrow = ClusterFailureInjector::homogeneous(3, law(1e12), 13)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 1_000.0, 0.6, 0.0).unwrap());
        let mut wide = ClusterFailureInjector::homogeneous(3, law(1e12), 13)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 1_000.0, 0.6, width).unwrap());
        for m in 0..3 {
            let mut after_n = 0.0;
            let mut after_w = 0.0;
            for _ in 0..50 {
                let n = narrow.next_failure_after(m, after_n);
                let w = wide.next_failure_after(m, after_w);
                assert!(w >= n && w <= n + width, "hit {w} strayed from shock {n}");
                after_n = n;
                after_w = w;
            }
        }
    }

    #[test]
    fn repair_silences_failures_inside_the_downtime() {
        let mut inj = ClusterFailureInjector::homogeneous(1, law(10.0), 3)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 5.0, 1.0, 0.0).unwrap())
            .with_repair(RepairModel::Fixed(10_000.0))
            .unwrap();
        let f = inj.next_failure_after(0, 0.0);
        let done = inj.begin_repair(0, f);
        assert_eq!(done, f + 10_000.0);
        // Dozens of natural failures and shocks fall inside the repair window;
        // all must be silenced.
        assert!(inj.next_failure_after(0, done) > done);
    }

    #[test]
    fn idle_machines_skip_stale_shock_hits() {
        let mut inj = ClusterFailureInjector::homogeneous(2, law(1e12), 21)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0 / 10.0, 1.0, 0.0).unwrap());
        // Machine 0 observes (and thereby materialises) many early shocks.
        let mut after = 0.0;
        for _ in 0..20 {
            after = inj.next_failure_after(0, after);
        }
        // Machine 1 was idle the whole time: its first query far in the future
        // must skip everything at or before `after`.
        let f = inj.next_failure_after(1, after);
        assert!(f > after);
    }

    #[test]
    fn queries_are_stable_below_the_candidate() {
        let mut inj = ClusterFailureInjector::homogeneous(1, law(200.0), 31).unwrap();
        let f = inj.next_failure_after(0, 0.0);
        assert_eq!(inj.next_failure_after(0, 0.0), f);
        assert_eq!(inj.next_failure_after(0, f / 2.0), f);
    }

    #[test]
    fn heterogeneous_machines_compose_platform_laws() {
        let machine_laws: Vec<Vec<Box<dyn FailureDistribution>>> = vec![
            vec![Box::new(law(100.0)), Box::new(law(200.0))],
            vec![Box::new(Weibull::new(0.7, 300.0).unwrap())],
            vec![Box::new(Shifted::new(law(150.0), 5.0).unwrap())],
        ];
        let mut inj = ClusterFailureInjector::heterogeneous(machine_laws, 17).unwrap();
        assert_eq!(inj.machine_count(), 3);
        let rate = inj.machines[0].platform.aggregate_rate();
        assert!((rate - (1.0 / 100.0 + 1.0 / 200.0)).abs() < 1e-12);
        for m in 0..3 {
            let f = inj.next_failure_after(m, 0.0);
            assert!(f > 0.0);
        }
    }

    #[test]
    fn debug_output_is_nonempty() {
        let inj = ClusterFailureInjector::homogeneous(2, law(100.0), 1).unwrap();
        assert!(!format!("{inj:?}").is_empty());
    }

    #[test]
    fn natural_candidate_beyond_the_repair_completion_survives() {
        // Deterministic core of the `repro_pending` regression: a dense shock
        // process fails (and immediately repairs) the machine many times
        // before its own first natural failure; the natural candidate lies
        // outside every repair interval and must still be observed.
        let mut plain = ClusterFailureInjector::homogeneous(1, law(100.0), 42).unwrap();
        let natural = plain.next_failure_after(0, 0.0);
        let mut shocked = ClusterFailureInjector::homogeneous(1, law(100.0), 42)
            .unwrap()
            .with_shocks(ShockConfig::new(1.0, 1.0, 0.0).unwrap());
        let mut t = 0.0;
        let mut observed = false;
        for _ in 0..10_000 {
            t = shocked.next_failure_after(0, t);
            if t == natural {
                observed = true;
                break;
            }
            if t > natural {
                break;
            }
            shocked.begin_repair(0, t);
        }
        assert!(observed, "natural failure at {natural} was dropped");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The `begin_repair` contract: a failure candidate is silenced only
        /// when it falls **inside** a repair interval. For every machine of a
        /// random pool under a random shock process and repair duration, the
        /// machine's first natural candidate (known from a shock-free
        /// injector on the same seed, which shares the per-machine
        /// sub-streams) must either be returned by the merged stream or lie
        /// inside one of the repair intervals the walk opened — never vanish.
        #[test]
        fn prop_no_candidate_outside_a_repair_interval_is_lost(
            seed in any::<u64>(),
            machines in 1usize..4,
            mtbf in 50.0f64..5_000.0,
            shock_gap in 1.0f64..500.0,
            fan_out in 0.1f64..1.0,
            burst_width in 0.0f64..50.0,
            repair in 0.0f64..200.0,
        ) {
            let mut plain =
                ClusterFailureInjector::homogeneous(machines, law(mtbf), seed).unwrap();
            let build = || {
                ClusterFailureInjector::homogeneous(machines, law(mtbf), seed)
                    .unwrap()
                    .with_shocks(ShockConfig::new(1.0 / shock_gap, fan_out, burst_width).unwrap())
                    .with_repair(RepairModel::Fixed(repair))
                    .unwrap()
            };
            let mut shocked = build();
            for m in 0..machines {
                let natural = plain.next_failure_after(m, 0.0);
                let mut t = 0.0;
                let mut observed = false;
                let mut absorbed = false;
                for _ in 0..2_000 {
                    let f = shocked.next_failure_after(m, t);
                    if f == natural {
                        observed = true;
                        break;
                    }
                    if f > natural {
                        break;
                    }
                    let done = shocked.begin_repair(m, f);
                    if natural <= done {
                        // The candidate fell inside this repair interval:
                        // silencing it is exactly the documented contract.
                        absorbed = true;
                        break;
                    }
                    t = done;
                }
                prop_assert!(
                    observed || absorbed,
                    "machine {m}: natural candidate {natural} was neither observed nor \
                     inside any repair interval"
                );
            }
        }
    }
}
