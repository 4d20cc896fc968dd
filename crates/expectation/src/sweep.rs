//! Batched λ-parameterised evaluation over one fixed execution order.
//!
//! Fault-tolerance studies rarely evaluate a workflow at a single failure
//! rate: sensitivity analyses sweep `λ` across decades to see how the optimal
//! policy degrades with the platform (paper §5 experiments), and the §6
//! exponential-equivalent planner re-solves the same chain under a surrogate
//! rate per candidate platform. Rebuilding a [`SegmentCostTable`] from scratch
//! for every rate repeats work that does not depend on `λ` at all: parameter
//! validation, the work prefix sums, and the per-order cost vectors.
//!
//! [`LambdaSweep`] performs that λ-independent work **once** per execution
//! order and then stamps out one table per requested rate; only the genuinely
//! λ-dependent precomputation (the `O(n)` exponentials) is redone per rate.
//! On top of [`LambdaSweep::table_for`] it offers batch helpers that evaluate
//! a fixed checkpoint placement across a whole vector of rates
//! ([`LambdaSweep::total_costs`]) or lay out a logarithmic rate grid
//! ([`log_lambda_grid`]).
//!
//! Solvers that *optimise* per rate (the Algorithm 1 chain DP) live in
//! `ckpt-core` and consume the per-rate tables directly; see
//! `ckpt_core::analysis::lambda_sweep_with_threads`.

use std::sync::Arc;

use crate::error::{ensure_positive, ExpectationError};
use crate::segment_cost::{validate_order, OrderBounds, SegmentCostTable};

/// The λ-independent part of a [`SegmentCostTable`]: one fixed execution
/// order (weights, checkpoint costs, protecting recoveries, downtime) with
/// its work prefix sums, ready to be instantiated at any failure rate.
///
/// # Example
///
/// Evaluate one checkpoint placement across three platform failure rates,
/// sharing the order validation and prefix sums between the rates:
///
/// ```
/// use ckpt_expectation::sweep::LambdaSweep;
///
/// let sweep = LambdaSweep::new(
///     30.0,                       // downtime D
///     &[400.0, 100.0, 900.0],     // task weights along the order
///     &[60.0, 60.0, 60.0],        // checkpoint costs C_j
///     &[15.0, 60.0, 20.0],        // protecting recoveries R_x
/// )?;
/// let placement = [true, false, true];
/// let costs = sweep.total_costs(&placement, &[1e-6, 1e-4, 1e-3])?;
/// // Expected makespan grows with the failure rate.
/// assert!(costs[0] < costs[1] && costs[1] < costs[2]);
/// // Each batched value matches the one-off table's evaluation (up to the
/// // table's documented ~1e-13 product-path rounding).
/// let one_off = sweep.table_for(1e-4)?.total_cost(&placement);
/// assert!((costs[1] - one_off).abs() / one_off < 1e-12);
/// # Ok::<(), ckpt_expectation::ExpectationError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaSweep {
    /// `prefix[k] = w_0 + … + w_{k−1}`, shared (by `Arc`, not copied) with
    /// every per-rate table.
    prefix: Arc<Vec<f64>>,
    /// Checkpoint cost per position, shared like `prefix`.
    checkpoints: Arc<Vec<f64>>,
    /// Protecting recovery per position, shared like `prefix`.
    recoveries: Arc<Vec<f64>>,
    bounds: OrderBounds,
}

impl LambdaSweep {
    /// Validates one execution order (positionally, exactly as
    /// [`SegmentCostTable::new`]) and precomputes its λ-independent data.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if `downtime` is negative, any weight
    /// is not strictly positive, or any checkpoint/recovery cost is negative.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or are empty (a
    /// programming error, not a data error).
    pub fn new(
        downtime: f64,
        weights: &[f64],
        checkpoints: &[f64],
        recoveries: &[f64],
    ) -> Result<Self, ExpectationError> {
        let (prefix, bounds) = validate_order(downtime, weights, checkpoints, recoveries)?;
        Ok(LambdaSweep {
            prefix: Arc::new(prefix),
            checkpoints: Arc::new(checkpoints.to_vec()),
            recoveries: Arc::new(recoveries.to_vec()),
            bounds,
        })
    }

    /// The number of positions of the underlying execution order.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the sweep covers no positions (never true: construction
    /// requires at least one position).
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The downtime `D` shared by every per-rate table.
    pub fn downtime(&self) -> f64 {
        self.bounds.downtime
    }

    /// The total work `w_0 + … + w_{n−1}` of the order.
    pub fn total_work(&self) -> f64 {
        self.bounds.total_work
    }

    /// A 64-bit fingerprint of the validated order's defining data: the
    /// downtime, the work prefix sums, and the per-position checkpoint and
    /// recovery costs, hashed over their exact `f64` bit patterns (FNV-1a).
    ///
    /// Two sweeps with bitwise-equal defining vectors always fingerprint
    /// identically, so the fingerprint can key a plan cache across rates —
    /// `ckpt-service` keys its cache by *fingerprint × rate bucket*. It is a
    /// hash, not an identity: colliding orders must still be told apart by
    /// comparing their defining vectors (which the service's cache does).
    pub fn fingerprint(&self) -> u64 {
        order_fingerprint(self.bounds.downtime, &self.prefix, &self.checkpoints, &self.recoveries)
    }

    /// Checks `lambda` against the order in `O(1)`, on its stored extremes —
    /// exactly the check [`table_for`](LambdaSweep::table_for) and
    /// [`total_costs`](LambdaSweep::total_costs) run, so a rate that passes
    /// here always yields a table. It passes iff it passes
    /// [`check_rate`](crate::exact::check_rate) (`1/λ` and the total work
    /// are finite) and the largest Proposition 1 coefficient
    /// `e^{λR}(1/λ + D)` is finite or `λ` times the smallest prefix step
    /// does not underflow to 0: an overflowing coefficient must never meet
    /// a vanishing exponent (∞·0 = NaN). Returns the rate.
    ///
    /// # Errors
    ///
    /// [`ExpectationError::NonPositiveParameter`] or
    /// [`ExpectationError::NonFiniteParameter`] naming the violated bound.
    pub fn check_rate(&self, lambda: f64) -> Result<f64, ExpectationError> {
        self.bounds.check_rate(lambda)
    }

    /// Instantiates the order's [`SegmentCostTable`] at failure rate
    /// `lambda`, redoing only the λ-dependent precomputation (the `O(n)`
    /// exponentials); validation, prefix sums, checkpoint costs and
    /// recoveries are shared with the table by reference (`Arc`), not
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if `lambda` fails
    /// [`check_rate`](LambdaSweep::check_rate).
    pub fn table_for(&self, lambda: f64) -> Result<SegmentCostTable, ExpectationError> {
        Ok(SegmentCostTable::from_validated_parts(
            self.check_rate(lambda)?,
            self.bounds.downtime,
            Arc::clone(&self.prefix),
            Arc::clone(&self.checkpoints),
            Arc::clone(&self.recoveries),
            self.bounds.max_ckpt,
        ))
    }

    /// [`table_for`](LambdaSweep::table_for), built into `table` (a table of
    /// any order and size): its buffers are reused, so a caller that
    /// instantiates table after table, such as a λ-sweep worker, stops
    /// allocating once they have grown. The result is bitwise equal to
    /// `table_for(lambda)`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if `lambda` fails
    /// [`check_rate`](LambdaSweep::check_rate); `table` is then unchanged.
    pub fn table_into(
        &self,
        lambda: f64,
        table: &mut SegmentCostTable,
    ) -> Result<(), ExpectationError> {
        table.rebuild_from_validated_parts(
            self.check_rate(lambda)?,
            self.bounds.downtime,
            &self.prefix,
            &self.checkpoints,
            &self.recoveries,
            self.bounds.max_ckpt,
        );
        Ok(())
    }

    /// Evaluates the fixed checkpoint placement `checkpoint_after` (one
    /// decision per position, final entry `true`) at every rate of `lambdas`,
    /// returning one expected makespan per rate — the batched form of
    /// [`SegmentCostTable::total_cost`].
    ///
    /// The segment boundaries are λ-independent, so they are extracted once
    /// and each rate then costs `O(segments)` Proposition-1 closed-form
    /// evaluations (identically [`expected_time`](crate::exact::expected_time)
    /// per segment, on the shared prefix sums) — no per-rate table is built.
    /// Agrees with the corresponding table's
    /// [`total_cost`](SegmentCostTable::total_cost) to the table's documented
    /// `~10⁻¹³` relative error (the table may take its exp-free product path
    /// where this takes the `exp_m1` form).
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if any rate fails
    /// [`check_rate`](LambdaSweep::check_rate).
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_after` does not have one entry per position or
    /// its final entry is `false` (the model's mandatory final checkpoint).
    pub fn total_costs(
        &self,
        checkpoint_after: &[bool],
        lambdas: &[f64],
    ) -> Result<Vec<f64>, ExpectationError> {
        assert_eq!(checkpoint_after.len(), self.len(), "one decision per position");
        assert_eq!(checkpoint_after.last(), Some(&true), "final checkpoint is mandatory");
        let mut segments = Vec::new();
        let mut start = 0usize;
        for (j, &ckpt) in checkpoint_after.iter().enumerate() {
            if ckpt {
                segments.push((start, j));
                start = j + 1;
            }
        }
        lambdas
            .iter()
            .map(|&lambda| {
                let lambda = self.check_rate(lambda)?;
                let base = 1.0 / lambda + self.bounds.downtime;
                Ok(segments
                    .iter()
                    .map(|&(x, j)| {
                        let attempt = self.prefix[j + 1] - self.prefix[x] + self.checkpoints[j];
                        (lambda * self.recoveries[x]).exp() * base * (lambda * attempt).exp_m1()
                    })
                    .sum())
            })
            .collect()
    }
}

/// FNV-1a over the bit patterns of an execution order's defining vectors
/// (shared by [`LambdaSweep::fingerprint`] and
/// [`SegmentCostTable::fingerprint`], so the two can never diverge): the
/// downtime, the work prefix sums (`n + 1` values, which pin both the
/// weights and their summation), and the per-position checkpoint and
/// recovery costs.
pub(crate) fn order_fingerprint(
    downtime: f64,
    prefix: &[f64],
    checkpoints: &[f64],
    recoveries: &[f64],
) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv_mix(&mut hash, downtime);
    for &p in prefix {
        fnv_mix(&mut hash, p);
    }
    for &c in checkpoints {
        fnv_mix(&mut hash, c);
    }
    for &r in recoveries {
        fnv_mix(&mut hash, r);
    }
    hash
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one `f64`'s exact bit pattern into a running FNV-1a hash.
pub(crate) fn fnv_mix(hash: &mut u64, value: f64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in value.to_bits().to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The index of the grid rate nearest to `lambda` in **log space** — the
/// rate-bucketing primitive of the planner-as-a-service tier: quantising a
/// client's rate estimate onto a [`log_lambda_grid`] turns a continuum of
/// λ values into a small set of cache buckets, and on a logarithmic grid the
/// nearest bucket in log space bounds the relative rate error by half the
/// grid ratio.
///
/// `grid` must be sorted ascending with strictly positive entries (what
/// [`log_lambda_grid`] produces); `lambda` must be strictly positive and
/// finite. Rates below the first or above the last grid point clamp to the
/// end buckets.
///
/// # Panics
///
/// Panics if `grid` is empty (a programming error, not a data error).
///
/// # Example
///
/// ```
/// use ckpt_expectation::sweep::{log_lambda_grid, nearest_rate_bucket};
///
/// let grid = log_lambda_grid(1e-6, 1e-2, 5)?; // one decade per step
/// assert_eq!(nearest_rate_bucket(&grid, 1e-4), 2);
/// // 3.3e-4 is nearer 1e-4 than 1e-3 in log space (ratio 3.3 < 3.03⁻¹·10).
/// assert_eq!(nearest_rate_bucket(&grid, 3.1e-4), 2);
/// assert_eq!(nearest_rate_bucket(&grid, 3.3e-4), 3);
/// // Out-of-range rates clamp to the end buckets.
/// assert_eq!(nearest_rate_bucket(&grid, 1e-9), 0);
/// assert_eq!(nearest_rate_bucket(&grid, 1.0), 4);
/// # Ok::<(), ckpt_expectation::ExpectationError>(())
/// ```
pub fn nearest_rate_bucket(grid: &[f64], lambda: f64) -> usize {
    assert!(!grid.is_empty(), "rate grid needs at least one bucket");
    let upper = grid.partition_point(|&g| g < lambda);
    if upper == 0 {
        return 0;
    }
    if upper == grid.len() {
        return grid.len() - 1;
    }
    // Nearest in log space: compare against the geometric mean of the two
    // neighbouring grid points (λ² vs product avoids any `ln` calls).
    //
    // Both products can leave the normal `f64` range for extreme-but-valid
    // rates: `λ²` underflows to 0 below ~1.5e-162 and `grid[i−1]·grid[i]`
    // overflows to ∞ above ~1.3e154 (and symmetrically). A degenerate
    // product would silently bias the comparison towards one neighbour, so
    // those cases fall back to the mathematically identical — just slower —
    // log-space comparison.
    let squared = lambda * lambda;
    let neighbours = grid[upper - 1] * grid[upper];
    let below_midpoint =
        if squared > 0.0 && squared.is_finite() && neighbours > 0.0 && neighbours.is_finite() {
            squared < neighbours
        } else {
            2.0 * lambda.ln() < grid[upper - 1].ln() + grid[upper].ln()
        };
    if below_midpoint {
        upper - 1
    } else {
        upper
    }
}

/// A logarithmic grid of `points ≥ 2` failure rates from `lambda_min` to
/// `lambda_max` (inclusive at both ends) — the grid shape every λ-sweep
/// experiment of the paper's §5 uses.
///
/// # Errors
///
/// Returns an [`ExpectationError`] if the bounds are not strictly positive
/// and increasing or `points < 2`.
///
/// # Example
///
/// ```
/// let grid = ckpt_expectation::sweep::log_lambda_grid(1e-6, 1e-2, 5)?;
/// assert_eq!(grid.len(), 5);
/// assert!((grid[0] - 1e-6).abs() < 1e-18 && (grid[4] - 1e-2).abs() < 1e-9);
/// // Consecutive points share one ratio (here one decade).
/// assert!((grid[2] / grid[1] - 10.0).abs() < 1e-9);
/// # Ok::<(), ckpt_expectation::ExpectationError>(())
/// ```
pub fn log_lambda_grid(
    lambda_min: f64,
    lambda_max: f64,
    points: usize,
) -> Result<Vec<f64>, ExpectationError> {
    let lambda_min = ensure_positive("lambda_min", lambda_min)?;
    let lambda_max = ensure_positive("lambda_max", lambda_max)?;
    if lambda_max <= lambda_min {
        return Err(ExpectationError::NonPositiveParameter {
            name: "lambda range",
            value: lambda_max - lambda_min,
        });
    }
    if points < 2 {
        return Err(ExpectationError::NonPositiveParameter {
            name: "points",
            value: points as f64,
        });
    }
    let ratio = (lambda_max / lambda_min).powf(1.0 / (points - 1) as f64);
    let mut grid = Vec::with_capacity(points);
    let mut lambda = lambda_min;
    for _ in 0..points {
        grid.push(lambda);
        lambda *= ratio;
    }
    // Land exactly on the upper bound despite the repeated multiplication.
    *grid.last_mut().expect("points >= 2") = lambda_max;
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{expected_time, ExecutionParams};

    fn reference_cost(work: f64, c: f64, d: f64, r: f64, lambda: f64) -> f64 {
        expected_time(&ExecutionParams::new(work, c, d, r, lambda).unwrap())
    }

    fn sample_sweep() -> LambdaSweep {
        LambdaSweep::new(
            30.0,
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 10.0],
        )
        .unwrap()
    }

    #[test]
    fn validates_parameters() {
        assert!(LambdaSweep::new(-1.0, &[1.0], &[0.0], &[0.0]).is_err());
        assert!(LambdaSweep::new(0.0, &[0.0], &[0.0], &[0.0]).is_err());
        assert!(LambdaSweep::new(0.0, &[1.0], &[-1.0], &[0.0]).is_err());
        assert!(LambdaSweep::new(0.0, &[1.0], &[0.0], &[-1.0]).is_err());
        assert!(LambdaSweep::new(0.0, &[1.0], &[0.0], &[0.0]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn rejects_empty_orders() {
        let _ = LambdaSweep::new(0.0, &[], &[], &[]);
    }

    #[test]
    fn tables_match_from_scratch_construction() {
        let sweep = sample_sweep();
        for lambda in [1e-7, 1e-4, 1e-2, 1.0] {
            let batched = sweep.table_for(lambda).unwrap();
            let scratch = SegmentCostTable::new(
                lambda,
                30.0,
                &[400.0, 100.0, 900.0, 250.0],
                &[60.0, 10.0, 45.0, 30.0],
                &[15.0, 60.0, 20.0, 10.0],
            )
            .unwrap();
            assert_eq!(batched, scratch, "λ = {lambda}");
        }
    }

    #[test]
    fn table_for_rejects_bad_lambdas() {
        let sweep = sample_sweep();
        assert!(sweep.table_for(0.0).is_err());
        assert!(sweep.table_for(-1.0).is_err());
        assert!(sweep.table_for(f64::NAN).is_err());
        assert!(sweep.table_for(5e-324).is_err());
        assert!(sweep.total_costs(&[false, false, false, true], &[1e-4, 5e-324]).is_err());
        // `check_rate` is the check `table_for` runs, rate for rate.
        let absorbed = LambdaSweep::new(0.0, &[1e300, 1.0], &[0.0; 2], &[0.0, 1e300]).unwrap();
        for lambda in [0.0, 5e-324, 1e-300, 1e-3, f64::INFINITY] {
            for sweep in [&sweep, &absorbed] {
                assert_eq!(sweep.check_rate(lambda).is_ok(), sweep.table_for(lambda).is_ok());
            }
        }
        assert_eq!(absorbed.check_rate(1e-300), Ok(1e-300));
        assert!(absorbed.check_rate(1e-3).is_err());
    }

    #[test]
    fn tables_built_into_reused_buffers_equal_fresh_tables() {
        // Orders of different lengths, and rates on both sides of the
        // saturation cut, so every buffer shrinks, grows and empties.
        let long = LambdaSweep::new(10.0, &[400.0; 9], &[15.0; 9], &[25.0; 9]).unwrap();
        let mut table = sample_sweep().table_for(1e-4).unwrap();
        for (sweep, lambda) in [(&long, 1e-3), (&sample_sweep(), 0.9), (&long, 2e-5)] {
            sweep.table_into(lambda, &mut table).unwrap();
            assert_eq!(table, sweep.table_for(lambda).unwrap());
            assert_eq!(table.is_saturated(), lambda == 0.9);
        }
        let before = table.clone();
        assert!(long.table_into(-1.0, &mut table).is_err());
        assert_eq!(table, before);
    }

    #[test]
    fn accessors_report_the_order() {
        let sweep = sample_sweep();
        assert_eq!(sweep.len(), 4);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.downtime(), 30.0);
        assert!((sweep.total_work() - 1_650.0).abs() < 1e-9);
    }

    #[test]
    fn batch_costs_match_single_tables_and_grow_with_lambda() {
        let sweep = sample_sweep();
        let placement = [false, true, false, true];
        let lambdas = [1e-6, 1e-5, 1e-4, 1e-3];
        let batch = sweep.total_costs(&placement, &lambdas).unwrap();
        for (i, &lambda) in lambdas.iter().enumerate() {
            let single = sweep.table_for(lambda).unwrap().total_cost(&placement);
            // exp_m1 closed form vs the table's product path: ~1e-13 apart.
            let gap = (batch[i] - single).abs() / single;
            assert!(gap < 1e-12, "λ {lambda}: gap {gap}");
        }
        assert!(batch.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn batch_costs_match_expected_time_per_segment() {
        let sweep = sample_sweep();
        // Segments 0..=1 and 2..=3 of the sample order.
        let placement = [false, true, false, true];
        for &lambda in &[1e-6, 1e-4, 1e-2] {
            let batch = sweep.total_costs(&placement, &[lambda]).unwrap()[0];
            let manual = reference_cost(500.0, 10.0, 30.0, 15.0, lambda)
                + reference_cost(1_150.0, 30.0, 30.0, 20.0, lambda);
            assert_eq!(batch, manual, "λ {lambda}");
        }
    }

    #[test]
    #[should_panic(expected = "final checkpoint is mandatory")]
    fn batch_costs_require_final_checkpoint() {
        let _ = sample_sweep().total_costs(&[true, false, false, false], &[1e-4]);
    }

    #[test]
    fn saturation_is_per_rate() {
        let sweep = LambdaSweep::new(1.0, &[100.0; 100], &[5.0; 100], &[5.0; 100]).unwrap();
        assert!(!sweep.table_for(1e-4).unwrap().is_saturated());
        assert!(sweep.table_for(0.1).unwrap().is_saturated());
    }

    #[test]
    fn log_grid_hits_both_ends() {
        let grid = log_lambda_grid(1e-8, 1e-2, 13).unwrap();
        assert_eq!(grid.len(), 13);
        assert_eq!(grid[0], 1e-8);
        assert_eq!(grid[12], 1e-2);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn log_grid_validates_inputs() {
        assert!(log_lambda_grid(0.0, 1.0, 5).is_err());
        assert!(log_lambda_grid(1e-3, 1e-4, 5).is_err());
        assert!(log_lambda_grid(1e-5, 1e-3, 1).is_err());
    }

    #[test]
    fn fingerprint_separates_orders_and_matches_equal_ones() {
        let sweep = sample_sweep();
        assert_eq!(sweep.fingerprint(), sample_sweep().fingerprint());
        // Any single defining vector changing changes the fingerprint.
        let other_weights = LambdaSweep::new(
            30.0,
            &[400.0, 100.0, 900.0, 251.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 10.0],
        )
        .unwrap();
        let other_ckpt = LambdaSweep::new(
            30.0,
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 31.0],
            &[15.0, 60.0, 20.0, 10.0],
        )
        .unwrap();
        let other_rec = LambdaSweep::new(
            30.0,
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 11.0],
        )
        .unwrap();
        let other_downtime = LambdaSweep::new(
            31.0,
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 10.0],
        )
        .unwrap();
        for other in [other_weights, other_ckpt, other_rec, other_downtime] {
            assert_ne!(sweep.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    fn table_fingerprint_separates_rates_of_one_order() {
        let sweep = sample_sweep();
        let a = sweep.table_for(1e-4).unwrap();
        let b = sweep.table_for(1e-3).unwrap();
        assert_eq!(a.fingerprint(), sweep.table_for(1e-4).unwrap().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // The sweep fingerprint is rate-free: one key spans every rate.
        assert_eq!(sweep.fingerprint(), sweep.fingerprint());
    }

    #[test]
    fn nearest_bucket_is_nearest_in_log_space() {
        let grid = log_lambda_grid(1e-6, 1e-2, 9).unwrap();
        for (index, &rate) in grid.iter().enumerate() {
            assert_eq!(nearest_rate_bucket(&grid, rate), index, "grid point {index}");
        }
        // Every λ maps to the log-nearest grid point (brute-force check).
        let mut probe = 5e-7;
        while probe < 5e-2 {
            let bucket = nearest_rate_bucket(&grid, probe);
            let best = grid
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (probe.ln() - a.ln()).abs();
                    let db = (probe.ln() - b.ln()).abs();
                    da.total_cmp(&db)
                })
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(bucket, best, "λ = {probe}");
            probe *= 1.37;
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn nearest_bucket_rejects_empty_grids() {
        let _ = nearest_rate_bucket(&[], 1e-4);
    }

    #[test]
    fn nearest_bucket_handles_underflowing_and_overflowing_products() {
        // λ² underflows to 0 here, as does the neighbour product: the fast
        // comparison `0 < 0` is false and would clamp every interior probe
        // to the upper bucket regardless of its actual position.
        let tiny = [1e-200, 1e-190];
        assert_eq!(nearest_rate_bucket(&tiny, 1e-199), 0);
        assert_eq!(nearest_rate_bucket(&tiny, 1e-191), 1);
        // λ² and the neighbour product both overflow to ∞ (`∞ < ∞` is
        // false): probes just above the lower grid point would misbucket.
        let huge = [1e180, 1e190];
        assert_eq!(nearest_rate_bucket(&huge, 1e181), 0);
        assert_eq!(nearest_rate_bucket(&huge, 1e189), 1);
        // Subnormal grid entries: the products are flushed to zero.
        let subnormal = [1e-310, 1e-305];
        assert_eq!(nearest_rate_bucket(&subnormal, 2e-310), 0);
        assert_eq!(nearest_rate_bucket(&subnormal, 2e-306), 1);
    }

    mod bucket_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_nearest_bucket_is_log_nearest_at_any_scale(
                exponent in -305.0f64..160.0,
                ratio in 1.2f64..10.0,
                points in 2usize..9,
                probe in 0.0f64..1.0,
            ) {
                // Grids anchored anywhere from subnormal-scale (1e-305, where
                // λ² and the neighbour products flush to zero) up to 1e160
                // (where they overflow to ∞): the regimes where the log-space
                // fallback must take over. The ranges keep every grid entry
                // itself finite, positive and strictly increasing.
                let scale = 10.0f64.powf(exponent);
                let grid: Vec<f64> =
                    (0..points).map(|i| scale * ratio.powi(i as i32)).collect();
                let lambda = scale * ratio.powf(probe * points as f64);

                let bucket = nearest_rate_bucket(&grid, lambda);
                let chosen = (lambda.ln() - grid[bucket].ln()).abs();
                let best = grid
                    .iter()
                    .map(|g| (lambda.ln() - g.ln()).abs())
                    .fold(f64::INFINITY, f64::min);
                // Nearest in log space up to rounding of the `ln` calls
                // (exact geometric-mean ties may resolve either way).
                prop_assert!(
                    chosen <= best * (1.0 + 1e-12) + 1e-12,
                    "bucket {} at log-distance {} but best is {}",
                    bucket,
                    chosen,
                    best
                );
            }
        }
    }
}
