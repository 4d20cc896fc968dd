//! Precomputed Proposition-1 segment costs over a fixed execution order.
//!
//! Every hot path of the workspace — the Algorithm 1 chain DP, exhaustive
//! search, the heuristics' local search — evaluates the Proposition 1 closed
//! form
//!
//! ```text
//! T(x, j) = e^{λR_x} (1/λ + D) (e^{λ(w_x + … + w_j + C_j)} − 1)
//! ```
//!
//! for *many* `(x, j)` position pairs of one fixed execution order. Evaluating
//! it naively costs two `exp` calls per pair. The exponent, however, is a sum
//! that factors over prefix sums:
//!
//! ```text
//! e^{λ(prefix[j+1] − prefix[x] + C_j)} = e^{λ·prefix[j+1]} · e^{−λ·prefix[x]} · e^{λ·C_j}
//! ```
//!
//! so after precomputing the `O(n)` exponentials `e^{λ·prefix[k]}`,
//! `e^{λ·C_j}` and the coefficients `e^{λR_x}(1/λ + D)`, each cost is a
//! handful of multiplies — no `exp` at all. [`SegmentCostTable`] packages this
//! precomputation with two guarded fallbacks that keep it numerically exact:
//!
//! * **tiny exponents** (`λ(W+C) < 10⁻²`): the product `e^a·e^b·e^c − 1`
//!   cancels catastrophically, so the table falls back to `exp_m1` exactly as
//!   [`expected_time`](crate::exact::expected_time) does;
//! * **saturated instances** (`λ·total work` beyond ~650): `e^{λ·prefix[k]}`
//!   would overflow `f64`, so the table skips the precomputation entirely and
//!   answers every query through `exp_m1` (these instances have astronomically
//!   large expected times anyway).
//!
//! The table additionally precomputes the suffix minima of the segment-term
//! "slopes" `e^{λ(prefix[j+1]+C_j)}`, which give the chain DP a monotone lower
//! bound for pruning its inner loop, and exposes the slope/query-point
//! decomposition `T(x, j) = slope(j)·query_point(x) − coefficient(x)` used by
//! the `O(n log n)` divide-and-conquer solver.

use std::sync::Arc;

use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::exact::check_rate;

/// Below this exponent `λ(W+C)`, `e^a·e^b·e^c − 1` loses too many bits to
/// cancellation and the table falls back to `exp_m1`. At the threshold the
/// product path is still accurate to ~`3ε/z ≈ 7·10⁻¹⁴` relative error.
const SMALL_EXPONENT: f64 = 1e-2;

/// Largest `λ·(total work + max checkpoint)` for which `e^{λ·prefix[k]}`
/// comfortably stays inside the `f64` range (`e^{709}` overflows). Beyond it
/// the table runs in the saturated (per-call `exp_m1`) mode.
const MAX_SAFE_EXPONENT: f64 = 650.0;

/// Precomputed Proposition-1 costs for all contiguous segments of one
/// execution order.
///
/// Built once per order in `O(n)` time and `O(n)` space; [`cost`] then
/// evaluates any `T(x, j)` without calling `exp` (outside the documented
/// fallback regimes).
///
/// # Example
///
/// Every `(x, j)` query agrees with the Proposition 1 closed form
/// ([`expected_time`](crate::exact::expected_time)) applied to that segment:
///
/// ```
/// use ckpt_expectation::exact::{expected_time, ExecutionParams};
/// use ckpt_expectation::segment_cost::SegmentCostTable;
///
/// let (lambda, downtime) = (1e-4, 30.0);
/// let table = SegmentCostTable::new(
///     lambda,
///     downtime,
///     &[400.0, 100.0, 900.0],  // weights along the execution order
///     &[60.0, 60.0, 60.0],     // checkpoint costs C_j
///     &[15.0, 60.0, 20.0],     // protecting recoveries R_x
/// )?;
/// // Segment covering positions 0..=1: 500 s of work, checkpoint C_1 = 60,
/// // protected by the initial recovery R_0 = 15.
/// let exact = expected_time(&ExecutionParams::new(500.0, 60.0, downtime, 15.0, lambda)?);
/// assert!((table.cost(0, 1) - exact).abs() / exact < 1e-12);
/// // A placement's expected makespan is the sum over its segments.
/// assert_eq!(table.total_cost(&[false, true, true]), table.cost(0, 1) + table.cost(2, 2));
/// # Ok::<(), ckpt_expectation::ExpectationError>(())
/// ```
///
/// [`cost`]: SegmentCostTable::cost
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCostTable {
    lambda: f64,
    /// `prefix[k] = w_0 + … + w_{k−1}` (raw work prefix sums, `n + 1`
    /// values). Shared, not copied, between the per-rate tables of one
    /// [`LambdaSweep`](crate::sweep::LambdaSweep).
    prefix: Arc<Vec<f64>>,
    /// Checkpoint cost `C_j` per position (shared like `prefix`).
    ckpt: Arc<Vec<f64>>,
    /// `e^{λ·prefix[k]}` (empty in saturated mode).
    exp_prefix: Vec<f64>,
    /// `e^{−λ·prefix[k]}` (empty in saturated mode).
    inv_exp_prefix: Vec<f64>,
    /// `e^{λ·C_j}` (empty in saturated mode).
    exp_ckpt: Vec<f64>,
    /// `e^{λ·R_x}·(1/λ + D)` where `R_x` protects the segment starting at `x`.
    coeff: Vec<f64>,
    /// `min_{k ≥ j} e^{λ(prefix[k+1] + C_k)}` (empty in saturated mode).
    min_slope_suffix: Vec<f64>,
    /// `min_{k ≥ j} λ(prefix[k+1] + C_k)` (always present; used by the
    /// saturated pruning bound).
    min_log_slope_suffix: Vec<f64>,
    saturated: bool,
}

impl SegmentCostTable {
    /// Builds the table for an execution order described positionally:
    /// `weights[i]` is the work of the task at position `i`, `checkpoints[i]`
    /// the cost of checkpointing right after it, and `recoveries[i]` the
    /// recovery cost protecting a segment that **starts** at position `i`
    /// (the initial recovery `R₀` for `i = 0`, the recovery of position
    /// `i − 1`'s checkpoint otherwise).
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] if `downtime` is negative, any weight
    /// is not strictly positive, any checkpoint/recovery cost is negative,
    /// or `lambda` fails the order's rate check
    /// ([`LambdaSweep::check_rate`](crate::sweep::LambdaSweep::check_rate)).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or are empty (a
    /// programming error, not a data error).
    pub fn new(
        lambda: f64,
        downtime: f64,
        weights: &[f64],
        checkpoints: &[f64],
        recoveries: &[f64],
    ) -> Result<Self, ExpectationError> {
        let (prefix, bounds) = validate_order(downtime, weights, checkpoints, recoveries)?;
        Ok(Self::from_validated_parts(
            bounds.check_rate(lambda)?,
            bounds.downtime,
            Arc::new(prefix),
            Arc::new(checkpoints.to_vec()),
            recoveries,
            bounds.max_ckpt,
        ))
    }

    /// Builds the table from already-validated data: `prefix` are the work
    /// prefix sums (`n + 1` values, `prefix[0] = 0`), `checkpoints` and
    /// `recoveries` the per-position costs, `max_ckpt` the largest checkpoint
    /// cost. Used by [`crate::sweep::LambdaSweep`] to rebuild the table for a
    /// new `λ` without re-validating, re-summing or copying the
    /// λ-independent vectors (they are shared by `Arc`).
    pub(crate) fn from_validated_parts(
        lambda: f64,
        downtime: f64,
        prefix: Arc<Vec<f64>>,
        checkpoints: Arc<Vec<f64>>,
        recoveries: &[f64],
        max_ckpt: f64,
    ) -> Self {
        let mut table = SegmentCostTable {
            lambda,
            prefix,
            ckpt: checkpoints,
            exp_prefix: Vec::new(),
            inv_exp_prefix: Vec::new(),
            exp_ckpt: Vec::new(),
            coeff: Vec::new(),
            min_slope_suffix: Vec::new(),
            min_log_slope_suffix: Vec::new(),
            saturated: false,
        };
        table.refill(lambda, downtime, recoveries, max_ckpt);
        table
    }

    /// [`from_validated_parts`](SegmentCostTable::from_validated_parts)
    /// into this table: the order's vectors are replaced, and every
    /// λ-dependent vector is recomputed in its existing buffer.
    pub(crate) fn rebuild_from_validated_parts(
        &mut self,
        lambda: f64,
        downtime: f64,
        prefix: Arc<Vec<f64>>,
        checkpoints: Arc<Vec<f64>>,
        recoveries: &[f64],
        max_ckpt: f64,
    ) {
        self.prefix = prefix;
        self.ckpt = checkpoints;
        self.refill(lambda, downtime, recoveries, max_ckpt);
    }

    /// Recomputes the λ-dependent vectors from `prefix` and `ckpt`.
    fn refill(&mut self, lambda: f64, downtime: f64, recoveries: &[f64], max_ckpt: f64) {
        fn refill(buffer: &mut Vec<f64>, values: impl Iterator<Item = f64>) {
            buffer.clear();
            buffer.extend(values);
        }
        /// Fills `buffer` with the suffix minima of `values`: entry `j` is
        /// the smallest of `values[j..]`.
        fn suffix_minima(
            buffer: &mut Vec<f64>,
            values: impl DoubleEndedIterator<Item = f64> + ExactSizeIterator,
        ) {
            buffer.clear();
            buffer.resize(values.len(), 0.0);
            let mut running = f64::INFINITY;
            for (slot, value) in buffer.iter_mut().zip(values).rev() {
                running = running.min(value);
                *slot = running;
            }
        }
        let (prefix, checkpoints) = (&self.prefix, &self.ckpt);
        let n = checkpoints.len();
        let base = 1.0 / lambda + downtime;
        self.lambda = lambda;
        refill(&mut self.coeff, recoveries.iter().map(|&r| (lambda * r).exp() * base));

        self.saturated = lambda * (prefix[n] + max_ckpt) > MAX_SAFE_EXPONENT;
        if self.saturated {
            self.exp_prefix.clear();
            self.inv_exp_prefix.clear();
            self.exp_ckpt.clear();
            self.min_slope_suffix.clear();
        } else {
            refill(&mut self.exp_prefix, prefix.iter().map(|&p| (lambda * p).exp()));
            refill(&mut self.inv_exp_prefix, self.exp_prefix.iter().map(|&e| 1.0 / e));
            refill(&mut self.exp_ckpt, checkpoints.iter().map(|&c| (lambda * c).exp()));
            let slopes = self.exp_prefix[1..].iter().zip(&self.exp_ckpt).map(|(&e, &c)| e * c);
            suffix_minima(&mut self.min_slope_suffix, slopes);
        }
        let log_slopes =
            prefix[1..].iter().zip(checkpoints.iter()).map(|(&p, &c)| lambda * (p + c));
        suffix_minima(&mut self.min_log_slope_suffix, log_slopes);
    }

    /// The number of positions covered by the table.
    pub fn len(&self) -> usize {
        self.ckpt.len()
    }

    /// Whether the table covers no positions (never true: construction
    /// requires at least one position).
    pub fn is_empty(&self) -> bool {
        self.ckpt.is_empty()
    }

    /// The platform failure rate `λ` the table was built for.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Whether the table runs in the saturated (per-call `exp_m1`) mode
    /// because `λ·total work` would overflow the precomputed exponentials.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// A 64-bit fingerprint of the table's defining data — the rate `λ`, the
    /// work prefix sums, the checkpoint costs and the segment coefficients
    /// `e^{λR_x}(1/λ + D)` (which pin the downtime and recoveries at this
    /// rate) — hashed over their exact `f64` bit patterns (FNV-1a).
    ///
    /// Two tables with bitwise-equal defining data always fingerprint
    /// identically; the per-rate analogue of
    /// [`LambdaSweep::fingerprint`](crate::sweep::LambdaSweep::fingerprint)
    /// (which hashes the λ-independent order so one key can span many
    /// rates). A hash, not an identity: collisions must be resolved by
    /// comparing the data itself.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = crate::sweep::FNV_OFFSET;
        crate::sweep::fnv_mix(&mut hash, self.lambda);
        for &p in self.prefix.iter() {
            crate::sweep::fnv_mix(&mut hash, p);
        }
        for &c in self.ckpt.iter() {
            crate::sweep::fnv_mix(&mut hash, c);
        }
        for &coefficient in &self.coeff {
            crate::sweep::fnv_mix(&mut hash, coefficient);
        }
        hash
    }

    /// The work `w_x + … + w_j` of the segment covering positions `x..=j`.
    pub fn work(&self, x: usize, j: usize) -> f64 {
        debug_assert!(x <= j && j < self.len());
        self.prefix[j + 1] - self.prefix[x]
    }

    /// Proposition 1 applied to the segment covering positions `x..=j`,
    /// checkpointing after `j` and recovering with the checkpoint protecting
    /// position `x`: `e^{λR_x}(1/λ + D)(e^{λ(prefix[j+1]−prefix[x]+C_j)} − 1)`.
    ///
    /// Exp-free outside the tiny-exponent and saturated regimes; agrees with
    /// [`expected_time`](crate::exact::expected_time) to ~`10⁻¹³` relative
    /// error everywhere.
    pub fn cost(&self, x: usize, j: usize) -> f64 {
        debug_assert!(x <= j && j < self.len());
        let z = self.lambda * (self.work(x, j) + self.ckpt[j]);
        if self.saturated || z < SMALL_EXPONENT {
            self.coeff[x] * z.exp_m1()
        } else {
            self.coeff[x]
                * (self.exp_prefix[j + 1] * self.inv_exp_prefix[x] * self.exp_ckpt[j] - 1.0)
        }
    }

    /// The coefficient `e^{λR_x}(1/λ + D)` of segments starting at `x`.
    pub fn coefficient(&self, x: usize) -> f64 {
        self.coeff[x]
    }

    /// [`cost`]`(x, j)` with the protecting coefficient `e^{λR_x}(1/λ + D)`
    /// supplied by the caller instead of read from this table — the
    /// cross-level query of hierarchical storage planning: the Proposition-1
    /// segment cost factors into a coefficient that depends only on the
    /// **protecting** checkpoint (whose recovery cost is set by the level it
    /// was written to) and an exponent term that depends only on the segment
    /// span and the **written** checkpoint, so a levelled cost is this
    /// table's exponent term (write level) times another table's coefficient
    /// (protecting level).
    ///
    /// With `coefficient == self.coefficient(x)` this is bitwise identical
    /// to [`cost`]`(x, j)` — the property the levelled DP's single-level
    /// collapse rests on.
    ///
    /// [`cost`]: SegmentCostTable::cost
    pub fn cost_with_coefficient(&self, x: usize, j: usize, coefficient: f64) -> f64 {
        debug_assert!(x <= j && j < self.len());
        let z = self.lambda * (self.work(x, j) + self.ckpt[j]);
        if self.saturated || z < SMALL_EXPONENT {
            coefficient * z.exp_m1()
        } else {
            coefficient * (self.exp_prefix[j + 1] * self.inv_exp_prefix[x] * self.exp_ckpt[j] - 1.0)
        }
    }

    /// [`segment_lower_bound`]`(x, j)` with a caller-supplied protecting
    /// coefficient (see
    /// [`cost_with_coefficient`](SegmentCostTable::cost_with_coefficient)):
    /// a lower bound on `cost_with_coefficient(x, j′, coefficient)` for
    /// every `j′ ≥ j`, non-decreasing in `j`. Bitwise identical to
    /// [`segment_lower_bound`] when `coefficient == self.coefficient(x)`.
    ///
    /// [`segment_lower_bound`]: SegmentCostTable::segment_lower_bound
    pub fn segment_lower_bound_with_coefficient(
        &self,
        x: usize,
        j: usize,
        coefficient: f64,
    ) -> f64 {
        debug_assert!(x <= j && j < self.len());
        if self.saturated {
            coefficient * (self.min_log_slope_suffix[j] - self.lambda * self.prefix[x]).exp_m1()
        } else {
            coefficient * (self.min_slope_suffix[j] * self.inv_exp_prefix[x] - 1.0)
        }
    }

    /// The "query point" `t_x = e^{λR_x}(1/λ + D)·e^{−λ·prefix[x]}` of
    /// position `x`: [`cost`]`(x, j) = `[`slope`]`(j)·t_x − `
    /// [`coefficient`]`(x) + `[`slope`]-independent terms — i.e. for fixed
    /// `x` the segment cost is **linear** in the slope, which is what the
    /// divide-and-conquer solver exploits.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the table [`is_saturated`]; callers must
    /// fall back to direct [`cost`] evaluation there.
    ///
    /// [`cost`]: SegmentCostTable::cost
    /// [`slope`]: SegmentCostTable::slope
    /// [`coefficient`]: SegmentCostTable::coefficient
    /// [`is_saturated`]: SegmentCostTable::is_saturated
    pub fn query_point(&self, x: usize) -> f64 {
        debug_assert!(!self.saturated, "query points overflow on saturated tables");
        self.coeff[x] * self.inv_exp_prefix[x]
    }

    /// The "slope" `e^{λ(prefix[j+1]+C_j)}` of a segment ending at `j` (see
    /// [`query_point`](SegmentCostTable::query_point)).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the table
    /// [`is_saturated`](SegmentCostTable::is_saturated).
    pub fn slope(&self, j: usize) -> f64 {
        debug_assert!(!self.saturated, "slopes overflow on saturated tables");
        self.exp_prefix[j + 1] * self.exp_ckpt[j]
    }

    /// A lower bound on [`cost`]`(x, j′)` valid for **every** `j′ ≥ j`, and
    /// non-decreasing in `j`: once it exceeds a DP's incumbent best, no later
    /// checkpoint position can improve on the incumbent and the inner loop
    /// may stop.
    ///
    /// The bound replaces the segment slope by its suffix minimum
    /// `min_{k ≥ j} e^{λ(prefix[k+1]+C_k)}`; for uniform checkpoint costs it
    /// is exactly the segment cost at `j`, i.e. the pruning is tight.
    ///
    /// The bound is computed in floating point and may exceed the true
    /// infimum by a few ulps — callers should treat it as a pruning
    /// heuristic with strict comparison, which can only affect optima by a
    /// comparable relative error.
    ///
    /// [`cost`]: SegmentCostTable::cost
    pub fn segment_lower_bound(&self, x: usize, j: usize) -> f64 {
        debug_assert!(x <= j && j < self.len());
        if self.saturated {
            self.coeff[x] * (self.min_log_slope_suffix[j] - self.lambda * self.prefix[x]).exp_m1()
        } else {
            self.coeff[x] * (self.min_slope_suffix[j] * self.inv_exp_prefix[x] - 1.0)
        }
    }

    /// The total-cost change from **adding** a checkpoint at `pos` inside a
    /// segment currently spanning `start..=next` (whose end checkpoint sits
    /// at `next`): the segment splits into `start..=pos` and `pos+1..=next`.
    ///
    /// The change from **removing** the checkpoint at `pos` (merging the two
    /// segments back) is the negation. Shared by the Gray-code exhaustive
    /// walk and the local-search toggle move so the two solvers can never
    /// diverge on the formula.
    pub fn split_delta(&self, start: usize, pos: usize, next: usize) -> f64 {
        debug_assert!(start <= pos && pos < next && next < self.len());
        self.cost(start, pos) + self.cost(pos + 1, next) - self.cost(start, next)
    }

    /// The expected makespan of the checkpoint placement `checkpoint_after`
    /// over the table's order: the sum of [`cost`](SegmentCostTable::cost)
    /// over its checkpoint-delimited segments.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_after` does not have one entry per position or
    /// its final entry is `false` (the model's mandatory final checkpoint).
    pub fn total_cost(&self, checkpoint_after: &[bool]) -> f64 {
        assert_eq!(checkpoint_after.len(), self.len(), "one decision per position");
        assert_eq!(checkpoint_after.last(), Some(&true), "final checkpoint is mandatory");
        let mut total = 0.0;
        let mut start = 0usize;
        for (j, &ckpt) in checkpoint_after.iter().enumerate() {
            if ckpt {
                total += self.cost(start, j);
                start = j + 1;
            }
        }
        total
    }
}

/// The λ-independent scalars of one validated execution order: what the
/// tables need besides the per-position vectors, and the extremes the
/// `O(1)` per-rate check reads. Built by [`validate_order`] for an order
/// and by [`crate::exact::ExecutionParams::new`] for one segment, so every
/// constructor that takes a rate makes the same decision on the same kind
/// of input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrderBounds {
    pub(crate) downtime: f64,
    pub(crate) total_work: f64,
    pub(crate) max_ckpt: f64,
    pub(crate) max_recovery: f64,
    /// The smallest prefix step `prefix[k+1] − prefix[k]`: no attempt's
    /// work falls below it (checkpoint costs only add to it), even where a
    /// tiny weight is absorbed by a huge prefix sum.
    pub(crate) min_step: f64,
}

impl OrderBounds {
    /// [`check_rate`] of `lambda`, plus the order-dependent condition: the
    /// largest coefficient `e^{λR}(1/λ + D)` is finite, or `λ` times the
    /// smallest prefix step does not underflow to 0 (an overflowing
    /// coefficient must never meet a vanishing exponent: ∞·0).
    pub(crate) fn check_rate(&self, lambda: f64) -> Result<f64, ExpectationError> {
        let lambda = check_rate(lambda, self.total_work)?;
        if lambda * self.min_step == 0.0 {
            let coefficient = (lambda * self.max_recovery).exp() * (1.0 / lambda + self.downtime);
            if !coefficient.is_finite() {
                return Err(ExpectationError::NonFiniteParameter {
                    name: "segment coefficient",
                    value: coefficient,
                });
            }
        }
        Ok(lambda)
    }
}

/// Validates the λ-independent data of one execution order (shared by
/// [`SegmentCostTable::new`], [`crate::sweep::LambdaSweep::new`] and
/// [`crate::storage::LevelledCostTable::new`], so the constructors can never
/// diverge on what they accept) and returns the work prefix sums and the
/// order's [`OrderBounds`].
///
/// # Panics
///
/// Panics if the three slices differ in length or are empty (a programming
/// error, not a data error).
pub(crate) fn validate_order(
    downtime: f64,
    weights: &[f64],
    checkpoints: &[f64],
    recoveries: &[f64],
) -> Result<(Vec<f64>, OrderBounds), ExpectationError> {
    let n = weights.len();
    assert!(n > 0, "the execution order needs at least one position");
    assert_eq!(checkpoints.len(), n, "one checkpoint cost per position");
    assert_eq!(recoveries.len(), n, "one protecting recovery per position");
    let downtime = ensure_non_negative("downtime", downtime)?;
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    let mut min_step = f64::INFINITY;
    for &w in weights {
        ensure_positive("work", w)?;
        let last = prefix[prefix.len() - 1];
        prefix.push(last + w);
        min_step = min_step.min(prefix[prefix.len() - 1] - last);
    }
    let mut max_ckpt = 0.0f64;
    for &c in checkpoints {
        ensure_non_negative("checkpoint", c)?;
        max_ckpt = max_ckpt.max(c);
    }
    let mut max_recovery = 0.0f64;
    for &r in recoveries {
        ensure_non_negative("recovery", r)?;
        max_recovery = max_recovery.max(r);
    }
    let total_work = prefix[n];
    Ok((prefix, OrderBounds { downtime, total_work, max_ckpt, max_recovery, min_step }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{expected_time, ExecutionParams};
    use proptest::prelude::*;

    fn reference_cost(work: f64, c: f64, d: f64, r: f64, lambda: f64) -> f64 {
        expected_time(&ExecutionParams::new(work, c, d, r, lambda).unwrap())
    }

    fn relative_gap(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn validates_parameters() {
        assert!(SegmentCostTable::new(0.0, 0.0, &[1.0], &[0.0], &[0.0]).is_err());
        assert!(SegmentCostTable::new(1e-3, -1.0, &[1.0], &[0.0], &[0.0]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[0.0], &[0.0], &[0.0]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1.0], &[-1.0], &[0.0]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1.0], &[0.0], &[-1.0]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1.0], &[0.0], &[0.0]).is_ok());
        // The shared rate check: 1/λ overflows, the total work overflows, or
        // an absorbed weight (zero prefix step) meets an infinite coefficient.
        assert!(SegmentCostTable::new(5e-324, 0.0, &[0.1, 0.1], &[0.0; 2], &[0.0; 2]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1e308; 2], &[0.0; 2], &[0.0; 2]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1e300, 1.0], &[0.0; 2], &[0.0, 1e300]).is_err());
        assert!(SegmentCostTable::new(1e-3, 0.0, &[1e300, 1.0], &[0.0; 2], &[0.0; 2]).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one position")]
    fn rejects_empty_tables() {
        let _ = SegmentCostTable::new(1e-3, 0.0, &[], &[], &[]);
    }

    #[test]
    fn single_segment_matches_proposition_1() {
        let (w, c, d, r, lambda) = (3_600.0, 120.0, 60.0, 90.0, 1.0 / 5_000.0);
        let table = SegmentCostTable::new(lambda, d, &[w], &[c], &[r]).unwrap();
        let exact = reference_cost(w, c, d, r, lambda);
        assert!(relative_gap(table.cost(0, 0), exact) < 1e-13);
        assert!(relative_gap(table.total_cost(&[true]), exact) < 1e-13);
    }

    #[test]
    fn all_pairs_match_per_segment_evaluation() {
        let weights = [400.0, 100.0, 900.0, 250.0, 650.0, 300.0];
        let ckpt = [60.0, 10.0, 45.0, 0.0, 80.0, 30.0];
        let rec = [15.0, 60.0, 20.0, 100.0, 40.0, 10.0];
        let (lambda, d) = (1e-4, 30.0);
        let table = SegmentCostTable::new(lambda, d, &weights, &ckpt, &rec).unwrap();
        for x in 0..weights.len() {
            for j in x..weights.len() {
                let work: f64 = weights[x..=j].iter().sum();
                let exact = reference_cost(work, ckpt[j], d, rec[x], lambda);
                assert!(
                    relative_gap(table.cost(x, j), exact) < 1e-12,
                    "cost({x}, {j}) = {} vs {exact}",
                    table.cost(x, j)
                );
            }
        }
    }

    #[test]
    fn total_cost_splits_at_checkpoints() {
        let weights = [100.0, 200.0, 300.0];
        let table =
            SegmentCostTable::new(1e-4, 2.0, &weights, &[10.0; 3], &[5.0, 20.0, 20.0]).unwrap();
        let total = table.total_cost(&[true, false, true]);
        let manual = table.cost(0, 0) + table.cost(1, 2);
        assert_eq!(total, manual);
    }

    #[test]
    fn tiny_exponent_regime_stays_exact() {
        // A one-minute task on a ten-year-MTBF platform: λ(W+C) ≈ 2·10⁻⁷.
        let lambda = 1.0 / (10.0 * 365.0 * 86_400.0);
        let table = SegmentCostTable::new(lambda, 60.0, &[60.0], &[5.0], &[30.0]).unwrap();
        let exact = reference_cost(60.0, 5.0, 60.0, 30.0, lambda);
        assert!(relative_gap(table.cost(0, 0), exact) < 1e-13);
    }

    #[test]
    fn saturated_tables_fall_back_without_overflow() {
        // λ·total work ≈ 1000 ≫ 650: the precomputed exponentials would
        // overflow, the fallback must still return finite (astronomical)
        // costs that match the closed form computed segment-wise.
        let weights = vec![100.0; 100];
        let table =
            SegmentCostTable::new(0.1, 1.0, &weights, &vec![5.0; 100], &vec![5.0; 100]).unwrap();
        assert!(table.is_saturated());
        let cost = table.cost(0, 20);
        let exact = reference_cost(2_100.0, 5.0, 1.0, 5.0, 0.1);
        assert!(cost.is_finite());
        assert!(relative_gap(cost, exact) < 1e-12);
        // Short segments still work too.
        assert!(relative_gap(table.cost(3, 3), reference_cost(100.0, 5.0, 1.0, 5.0, 0.1)) < 1e-12);
    }

    #[test]
    fn lower_bound_is_a_bound_and_monotone() {
        let weights = [400.0, 100.0, 900.0, 250.0, 650.0, 300.0];
        let ckpt = [60.0, 10.0, 45.0, 0.0, 80.0, 30.0];
        let rec = [15.0, 60.0, 20.0, 100.0, 40.0, 10.0];
        let table = SegmentCostTable::new(2e-4, 30.0, &weights, &ckpt, &rec).unwrap();
        for x in 0..weights.len() {
            let mut previous = f64::NEG_INFINITY;
            for j in x..weights.len() {
                let bound = table.segment_lower_bound(x, j);
                assert!(bound >= previous, "bound not monotone at ({x}, {j})");
                previous = bound;
                for j2 in j..weights.len() {
                    assert!(
                        bound <= table.cost(x, j2) * (1.0 + 1e-12),
                        "bound {bound} exceeds cost({x}, {j2}) = {}",
                        table.cost(x, j2)
                    );
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_tight_for_uniform_checkpoints() {
        let weights = [300.0, 800.0, 150.0, 950.0];
        let table = SegmentCostTable::new(1e-3, 10.0, &weights, &[45.0; 4], &[60.0; 4]).unwrap();
        for x in 0..4 {
            for j in x..4 {
                let gap = relative_gap(table.segment_lower_bound(x, j), table.cost(x, j));
                assert!(gap < 1e-12, "uniform-cost bound not tight at ({x}, {j})");
            }
        }
    }

    #[test]
    fn slope_query_point_decomposition_matches_cost() {
        let weights = [400.0, 100.0, 900.0, 250.0];
        let ckpt = [60.0, 10.0, 45.0, 30.0];
        let rec = [15.0, 60.0, 20.0, 10.0];
        let table = SegmentCostTable::new(5e-4, 12.0, &weights, &ckpt, &rec).unwrap();
        for x in 0..4 {
            for j in x..4 {
                let via_line = table.slope(j) * table.query_point(x) - table.coefficient(x);
                assert!(
                    relative_gap(via_line, table.cost(x, j)) < 1e-9,
                    "decomposition mismatch at ({x}, {j})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_single_segment_matches_expected_time(
            w in 1e-3f64..1e5,
            c in 0.0f64..1e4,
            d in 0.0f64..1e3,
            r in 0.0f64..1e4,
            lambda_exp in -12.0f64..-1.0,
        ) {
            let lambda = 10f64.powf(lambda_exp);
            let table = SegmentCostTable::new(lambda, d, &[w], &[c], &[r]).unwrap();
            let exact = reference_cost(w, c, d, r, lambda);
            if exact.is_finite() {
                let gap = relative_gap(table.cost(0, 0), exact);
                prop_assert!(gap < 1e-12, "gap {gap} for W={w} C={c} D={d} R={r} λ={lambda}");
            } else {
                // λ(W+C) beyond ~709: the closed form itself overflows f64;
                // the table must agree that the expectation is astronomical.
                prop_assert!(table.cost(0, 0) == exact);
            }
        }

        #[test]
        fn prop_tiny_lambda_attempt_product_regime(
            w in 1e-3f64..60.0,
            c in 0.0f64..1.0,
            lambda_exp in -14.0f64..-8.0,
        ) {
            // The exp_m1 regime the exact.rs comment calls out: λ(W+C) down
            // to ~1e-16, where a naive `exp(z) - 1` would return garbage.
            let lambda = 10f64.powf(lambda_exp);
            let table = SegmentCostTable::new(lambda, 0.0, &[w], &[c], &[0.0]).unwrap();
            let exact = reference_cost(w, c, 0.0, 0.0, lambda);
            let gap = relative_gap(table.cost(0, 0), exact);
            prop_assert!(gap < 1e-12, "gap {gap} for W={w} C={c} λ={lambda}");
        }

        #[test]
        fn prop_multi_position_costs_match_segment_formula(
            seed in any::<u64>(),
            n in 1usize..12,
            lambda_exp in -7.0f64..-2.0,
            d in 0.0f64..100.0,
        ) {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + next() * 2_000.0).collect();
            let ckpt: Vec<f64> = (0..n).map(|_| next() * 200.0).collect();
            let rec: Vec<f64> = (0..n).map(|_| next() * 200.0).collect();
            let lambda = 10f64.powf(lambda_exp);
            let table = SegmentCostTable::new(lambda, d, &weights, &ckpt, &rec).unwrap();
            for x in 0..n {
                for j in x..n {
                    let work: f64 = weights[x..=j].iter().sum();
                    let exact = reference_cost(work, ckpt[j], d, rec[x], lambda);
                    let gap = relative_gap(table.cost(x, j), exact);
                    // 1e-9 rather than 1e-12: the reference computes the
                    // segment work as a fresh slice sum while the table uses
                    // prefix differences, so the two works themselves differ
                    // by up to ~n·ε·total/work before any exponential is
                    // taken.
                    prop_assert!(gap < 1e-9, "gap {gap} at ({x}, {j}), λ={lambda}");
                }
            }
        }
    }
}
