//! Precomputed Proposition-1 segment costs over a fixed execution order.
//!
//! The Algorithm 1 solvers, exhaustive search and the heuristics' local
//! search all evaluate the Proposition 1 closed form
//!
//! ```text
//! T(x, j) = e^{λR_x} (1/λ + D) (e^{λ(w_x + … + w_j + C_j)} − 1)
//! ```
//!
//! for *many* `(x, j)` position pairs of one fixed execution order: pair by
//! pair through [`SegmentCostTable::cost`], or, for the pruned Algorithm 1
//! recurrence, one whole row `x` at a time through
//! [`SegmentCostTable::pruned_row`]. Evaluating it naively costs two `exp`
//! calls per pair. The exponent, however, is a sum that factors over prefix
//! sums:
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
//! Every λ-dependent entry of a table is computed by one full build, which
//! [`SegmentCostTable::new`], a [`LambdaSweep`](crate::sweep::LambdaSweep)'s
//! per-rate tables and a [`LevelledCostTable`](crate::storage::LevelledCostTable)'s
//! per-level tables all go through. [`SegmentCostTable::refill`] (`new`
//! refills an empty table) takes that build only when the rate, the
//! downtime, the length or the saturation mode changes; otherwise it diffs
//! its arguments against the inputs the table holds and recomputes only the
//! entries whose inputs changed bits, so a caller that re-costs one order
//! after small changes, like the order search after each window move, keeps
//! one table and pays for what changed.
//!
//! The pruned Algorithm 1 recurrence stops a row at two lower bounds, each
//! valid for every later checkpoint position:
//!
//! * [`SegmentCostTable::segment_lower_bound`], the first segment alone: the
//!   table precomputes the suffix minima of the segment-term "slopes"
//!   `e^{λ(prefix[j+1]+C_j)}`, so the bound clears a row's incumbent once
//!   the first segment costs more than the row's whole optimum;
//! * [`SegmentCostTable::suffix_lower_bound_with_coefficient`], the first
//!   segment plus the rest of the chain: every segment costs at least its
//!   work (work conservation), so the bound clears the incumbent once the
//!   first segment's overhead alone exceeds the overhead of the whole
//!   suffix. Its doc comment proves it, rounding included.
//!
//! The table also exposes the slope/query-point decomposition
//! `T(x, j) = slope(j)·query_point(x) − coefficient(x)` used by the
//! `O(n log n)` divide-and-conquer solver.
//!
//! A row of the pruned recurrence meets the tiny-exponent fallback only in
//! its head. Prefix sums never decrease (weights are positive and rounding
//! is monotone), so the computed `λ·(prefix[j+1] − prefix[x])` never
//! decreases in `j`, and once it reaches `10⁻²`, the computed
//! `z = λ·(work + C_j)` does too (`C_j ≥ 0`, and each rounding is again
//! monotone). [`SegmentCostTable::pruned_row`] therefore finds the first
//! such `j` once per row, by an exponential search from `x` (the head is
//! short next to the row, and often empty) closed by a binary search. It
//! evaluates the positions before it exactly as [`SegmentCostTable::cost`]
//! does, and scans the rest over slices, in the product form alone, with
//! no per-candidate regime test. Both parts use `cost`'s and
//! `segment_lower_bound`'s expressions in the same association, so the
//! row's value and choice equal a per-candidate scan's bit for bit. A row
//! whose product-form tail outlasts its first [`STREAMED_BEFORE_CUTOFF`]
//! candidates then finds, once, the first `j` at which the suffix bound
//! clears its incumbent, by a binary search, and streams the tail only up
//! to there: every candidate it skips costs strictly more than the
//! incumbent, so the value and choice stay those of the full scan, and only
//! the candidate count falls.

use std::sync::Arc;

use crate::error::{ensure_non_negative, ensure_positive, ExpectationError};
use crate::exact::check_rate;

/// Below this exponent `z = λ(W+C)`, `e^a·e^b·e^c − 1` loses too many bits
/// to cancellation and the table falls back to `exp_m1`. Above it the
/// product path's relative error is about `(3 + 2λ·prefix[n])·ε/z`: three
/// roundings of the product, plus the rounding of the two anchored
/// exponents `λ·prefix[k]`, each carried into its `e^{…}` as a relative
/// error of up to `ε·λ·prefix[n]`, all amplified by `e^z/(e^z − 1) ≈ 1/z`
/// in the final `− 1`. At the switch that is `3·10⁻¹¹·(λ·prefix[n]/640)`
/// once `λ·prefix[n]` dominates the 3, and `7·10⁻¹⁴` on short tables.
const SMALL_EXPONENT: f64 = 1e-2;

/// Largest `λ·(total work + max checkpoint)` for which `e^{λ·prefix[k]}`
/// comfortably stays inside the `f64` range (`e^{709}` overflows). Beyond it
/// the table runs in the saturated (per-call `exp_m1`) mode.
const MAX_SAFE_EXPONENT: f64 = 650.0;

/// The product-form tail candidates a [`SegmentCostTable::pruned_row`] scan
/// streams before it looks for its suffix-bound cut-off. The cut-off search
/// costs about `log₂(n)` bound evaluations, each a few flops on loads from
/// scattered positions, or some 15–40 streamed candidates at the row
/// lengths the pruned DP meets (up to a few thousand positions). Searching
/// only after a row has streamed about that many candidates is the
/// rent-or-buy rule: a row that ends within them pays nothing, and one
/// that outlasts them pays at most as much again for the search as it
/// already spent, while long rows save most of their tail.
pub const STREAMED_BEFORE_CUTOFF: usize = 32;

/// The rounding margin `δ` of
/// [`SegmentCostTable::suffix_lower_bound_with_coefficient`] on a table of
/// `n` positions: `(2¹⁹ + 8n)·ε`. Its doc comment derives it: `2¹⁹·ε`
/// covers three times the relative error of one computed segment cost
/// (below `2¹⁷·ε`), and `8n·ε` the rounding of sums of up to `n` terms,
/// which a fixed margin stops covering on long enough chains (about 10⁶
/// positions for `10⁻⁹`).
fn work_margin(n: usize) -> f64 {
    (524_288.0 + 8.0 * n as f64) * f64::EPSILON
}

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
    /// The downtime `D` of the coefficients `e^{λR_x}(1/λ + D)`.
    downtime: f64,
    /// `prefix[k] = w_0 + … + w_{k−1}` (raw work prefix sums, `n + 1`
    /// values). Shared, not copied, between the per-rate tables of one
    /// [`LambdaSweep`](crate::sweep::LambdaSweep).
    prefix: Arc<Vec<f64>>,
    /// Checkpoint cost `C_j` per position (shared like `prefix`).
    ckpt: Arc<Vec<f64>>,
    /// Protecting recovery `R_x` per position (shared like `prefix`), kept
    /// so that [`refill`](SegmentCostTable::refill) can tell which
    /// coefficients changed.
    recoveries: Arc<Vec<f64>>,
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
    /// This is [`refill`](SegmentCostTable::refill) applied to a table of
    /// no positions.
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
        let mut table = SegmentCostTable::over(Arc::default(), Arc::default(), Arc::default());
        table.refill(lambda, downtime, weights, checkpoints, recoveries)?;
        Ok(table)
    }

    /// The table of an already-validated order at rate `lambda`: `prefix`
    /// (the work prefix sums, `n + 1` values, `prefix[0] = 0`),
    /// `checkpoints` and `recoveries` are shared by `Arc`, not copied, and
    /// `max_ckpt` is the largest checkpoint cost. Used by
    /// [`crate::sweep::LambdaSweep`] and
    /// [`crate::storage::LevelledCostTable`] to build a table without
    /// re-validating, re-summing or copying the λ-independent vectors.
    pub(crate) fn from_validated_parts(
        lambda: f64,
        downtime: f64,
        prefix: Arc<Vec<f64>>,
        checkpoints: Arc<Vec<f64>>,
        recoveries: Arc<Vec<f64>>,
        max_ckpt: f64,
    ) -> Self {
        let mut table = SegmentCostTable::over(prefix, checkpoints, recoveries);
        table.rebuild(lambda, downtime, max_ckpt);
        table
    }

    /// A table over these inputs with no λ-dependent entries and no rate
    /// yet: the next refill or full build of it computes every entry.
    fn over(prefix: Arc<Vec<f64>>, ckpt: Arc<Vec<f64>>, recoveries: Arc<Vec<f64>>) -> Self {
        SegmentCostTable {
            lambda: f64::NAN,
            downtime: f64::NAN,
            prefix,
            ckpt,
            recoveries,
            exp_prefix: Vec::new(),
            inv_exp_prefix: Vec::new(),
            exp_ckpt: Vec::new(),
            coeff: Vec::new(),
            min_slope_suffix: Vec::new(),
            min_log_slope_suffix: Vec::new(),
            saturated: false,
        }
    }

    /// Rebuilds the table in place for new arguments: afterwards it is bit
    /// for bit the table [`new`](SegmentCostTable::new) builds from them.
    ///
    /// The table diffs the arguments against the inputs it holds, bit for
    /// bit, and redoes only what changed:
    ///
    /// * it re-sums the prefix left to right, as `new` does, and calls
    ///   `exp` only at the prefix sums, checkpoint costs and recoveries
    ///   whose bits changed;
    /// * it recomputes the two suffix-minimum vectors from the highest
    ///   changed slope down, and stops at or below the lowest one as soon
    ///   as an entry equals its old value again (every entry below it then
    ///   does too);
    /// * a change of `λ`, `D`, the length or the saturation mode stores the
    ///   arguments and rebuilds every λ-dependent entry, through the one
    ///   full build that also makes the tables of a
    ///   [`LambdaSweep`](crate::sweep::LambdaSweep) and a
    ///   [`LevelledCostTable`](crate::storage::LevelledCostTable).
    ///
    /// Vectors the table shares with another (the per-rate tables of a
    /// [`LambdaSweep`](crate::sweep::LambdaSweep) share theirs) are copied
    /// before they are written. An order search that re-costs the order
    /// after every window move refills one table: a move changes the bits
    /// of a few dozen entries, so most of a fresh build's `exp` calls are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Exactly [`new`](SegmentCostTable::new)'s (the same variant and
    /// value), decided before anything is written: a failed refill leaves
    /// the table as it was.
    ///
    /// # Panics
    ///
    /// As [`new`](SegmentCostTable::new).
    pub fn refill(
        &mut self,
        lambda: f64,
        downtime: f64,
        weights: &[f64],
        checkpoints: &[f64],
        recoveries: &[f64],
    ) -> Result<(), ExpectationError> {
        let n = weights.len();
        let downtime = validate_positions(downtime, weights, checkpoints, recoveries)?;
        // The new prefix sums' total and the stretch `first..=last` of them
        // whose bits change, read off the stored prefix.
        let (total_work, changed) = if n == self.len() {
            self.resum(weights)
        } else {
            (sum_weights(weights, |_| {}).0, None)
        };
        let max_ckpt = largest(checkpoints);
        let lambda = check_order_rate(lambda, downtime, total_work, largest(recoveries), || {
            sum_weights(weights, |_| {}).1
        })?;
        if n != self.len()
            || lambda.to_bits() != self.lambda.to_bits()
            || downtime.to_bits() != self.downtime.to_bits()
            || is_saturated(lambda, total_work, max_ckpt) != self.saturated
        {
            let prefix = emptied(&mut self.prefix, n + 1);
            prefix.push(0.0);
            sum_weights(weights, |sum| prefix.push(sum));
            emptied(&mut self.ckpt, n).extend_from_slice(checkpoints);
            emptied(&mut self.recoveries, n).extend_from_slice(recoveries);
            self.rebuild(lambda, downtime, max_ckpt);
            return Ok(());
        }
        // Slopes `lo..=hi` (`e^{λ(prefix[j+1] + C_j)}`) changed.
        let (mut lo, mut hi) = (n, 0);
        if let Some((first, last)) = changed {
            let prefix = Arc::make_mut(&mut self.prefix);
            for k in first..=last {
                // `prefix[k − 1]` holds the new sum already, written or kept.
                let sum = prefix[k - 1] + weights[k - 1];
                if sum.to_bits() != prefix[k].to_bits() {
                    prefix[k] = sum;
                    if !self.saturated {
                        (self.exp_prefix[k], self.inv_exp_prefix[k]) =
                            prefix_exponentials(lambda, sum);
                    }
                    (lo, hi) = (lo.min(k - 1), hi.max(k - 1));
                }
            }
        }
        let ckpt = Arc::make_mut(&mut self.ckpt);
        for (j, &cost) in checkpoints.iter().enumerate() {
            if cost.to_bits() != ckpt[j].to_bits() {
                ckpt[j] = cost;
                if !self.saturated {
                    self.exp_ckpt[j] = checkpoint_exponential(lambda, cost);
                }
                (lo, hi) = (lo.min(j), hi.max(j));
            }
        }
        let base = 1.0 / lambda + downtime;
        let stored = Arc::make_mut(&mut self.recoveries);
        for (x, &recovery) in recoveries.iter().enumerate() {
            if recovery.to_bits() != stored[x].to_bits() {
                stored[x] = recovery;
                self.coeff[x] = coefficient(lambda, base, recovery);
            }
        }
        if lo <= hi {
            self.refresh_suffix_minima(lo, hi);
        }
        Ok(())
    }

    /// The work prefix sums of `weights` (as many as the table's positions)
    /// against the stored ones: their total, and the first and last index
    /// `k` whose sum `prefix[k]` changes bits (`None` if none does). Each
    /// sum is the previous one plus the next weight, left to right, as
    /// `new` sums them; while the previous sum is the stored one, the next
    /// is the stored sum plus the weight, so the stretches that do not
    /// change never wait on an addition.
    fn resum(&self, weights: &[f64]) -> (f64, Option<(usize, usize)>) {
        let (stored, n) = (&self.prefix, weights.len());
        let mut changed: Option<(usize, usize)> = None;
        let mut k = 0;
        while k < n {
            let mut sum = stored[k] + weights[k];
            k += 1;
            if sum.to_bits() == stored[k].to_bits() {
                continue;
            }
            // `sum` is the new `prefix[k]`, off the stored one: add on
            // until the two meet again, or the order ends.
            let first = changed.map_or(k, |(first, _)| first);
            while k < n {
                let next = sum + weights[k];
                if next.to_bits() == stored[k + 1].to_bits() {
                    break;
                }
                (sum, k) = (next, k + 1);
            }
            changed = Some((first, k));
            if k == n {
                return (sum, changed);
            }
            k += 1;
        }
        (stored[n], changed)
    }

    /// Makes this table [`from_validated_parts`]'s table of the same
    /// arguments, in its own buffers: it keeps the vectors it already
    /// shares (rebuilding a table at a new rate then touches no reference
    /// count, which every worker's tables of one sweep share). Used by
    /// [`crate::sweep::LambdaSweep::table_into`].
    ///
    /// [`from_validated_parts`]: SegmentCostTable::from_validated_parts
    pub(crate) fn rebuild_from_validated_parts(
        &mut self,
        lambda: f64,
        downtime: f64,
        prefix: &Arc<Vec<f64>>,
        checkpoints: &Arc<Vec<f64>>,
        recoveries: &Arc<Vec<f64>>,
        max_ckpt: f64,
    ) {
        for (stored, shared) in [
            (&mut self.prefix, prefix),
            (&mut self.ckpt, checkpoints),
            (&mut self.recoveries, recoveries),
        ] {
            if !Arc::ptr_eq(stored, shared) {
                *stored = Arc::clone(shared);
            }
        }
        self.rebuild(lambda, downtime, max_ckpt);
    }

    /// The one full build: recomputes every λ-dependent entry of the
    /// stored order at rate `lambda` and downtime `downtime` (the
    /// coefficients, the precomputed exponentials, none when saturated, and
    /// the two suffix-minimum vectors), each in its existing buffer.
    /// `max_ckpt` is the largest stored checkpoint cost.
    fn rebuild(&mut self, lambda: f64, downtime: f64, max_ckpt: f64) {
        let n = self.len();
        self.lambda = lambda;
        self.downtime = downtime;
        self.saturated = is_saturated(lambda, self.prefix[n], max_ckpt);
        let exponentials = if self.saturated { 0 } else { n };
        zeroed(&mut self.coeff, n);
        zeroed(&mut self.min_log_slope_suffix, n);
        zeroed(&mut self.exp_ckpt, exponentials);
        zeroed(&mut self.min_slope_suffix, exponentials);
        zeroed(&mut self.exp_prefix, exponentials + usize::from(!self.saturated));
        zeroed(&mut self.inv_exp_prefix, exponentials + usize::from(!self.saturated));
        let base = 1.0 / lambda + downtime;
        for (slot, &recovery) in self.coeff.iter_mut().zip(self.recoveries.iter()) {
            *slot = coefficient(lambda, base, recovery);
        }
        if !self.saturated {
            for (k, &sum) in self.prefix.iter().enumerate() {
                (self.exp_prefix[k], self.inv_exp_prefix[k]) = prefix_exponentials(lambda, sum);
            }
            for (slot, &cost) in self.exp_ckpt.iter_mut().zip(self.ckpt.iter()) {
                *slot = checkpoint_exponential(lambda, cost);
            }
        }
        self.refresh_suffix_minima(0, n - 1);
    }

    /// Restores the two suffix-minimum vectors after the slopes `lo..=hi`
    /// changed (see [`refresh_suffix_minima`]).
    fn refresh_suffix_minima(&mut self, lo: usize, hi: usize) {
        let (lambda, prefix, ckpt) = (self.lambda, &self.prefix, &self.ckpt);
        if !self.saturated {
            let (exp_prefix, exp_ckpt) = (&self.exp_prefix, &self.exp_ckpt);
            refresh_suffix_minima(&mut self.min_slope_suffix, lo, hi, |j| {
                exp_prefix[j + 1] * exp_ckpt[j]
            });
        }
        refresh_suffix_minima(&mut self.min_log_slope_suffix, lo, hi, |j| {
            lambda * (prefix[j + 1] + ckpt[j])
        });
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
    /// [`expected_time`](crate::exact::expected_time) to about
    /// `(3 + 2λ·prefix[n])·ε/z` relative error, `z = λ(W + C)` the
    /// segment's exponent (see `SMALL_EXPONENT`): `10⁻¹³` on short tables,
    /// but up to `3·10⁻¹¹` for segments near `z = 10⁻²` on a table whose
    /// `λ·prefix[n]` nears the saturation edge of 650.
    #[inline]
    pub fn cost(&self, x: usize, j: usize) -> f64 {
        self.cost_with_coefficient(x, j, self.coeff[x])
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
    #[inline]
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
    #[inline]
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
    /// may stop. It sees the first segment only: a row's scan runs on until
    /// that segment alone costs more than the row's whole optimum.
    /// [`suffix_lower_bound_with_coefficient`] adds the rest of the chain.
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
    /// [`suffix_lower_bound_with_coefficient`]: SegmentCostTable::suffix_lower_bound_with_coefficient
    #[inline]
    pub fn segment_lower_bound(&self, x: usize, j: usize) -> f64 {
        self.segment_lower_bound_with_coefficient(x, j, self.coeff[x])
    }

    /// A lower bound on `cost_with_coefficient(x, j′, coefficient) + E(j′+1)`
    /// for **every** `j′ ≥ j`, where `E(k)` is any value the pruned
    /// recurrence computes for the suffix from position `k` (`E(n) = 0`): a
    /// flat row value (fresh, or reused by a prefix re-solve), or a
    /// levelled state value `E(k, ℓ, s)`. With `c = coefficient`,
    /// `w = work(x, j)` and `W_k = prefix[n] − prefix[k]`, the work left from
    /// position `k`, it is
    ///
    /// ```text
    /// B(x, j) = (1 − δ)·c·(e^{λw} − 1) + W_{j+1} − δ·prefix[n],   δ = (2¹⁹ + 8n)·ε
    /// ```
    ///
    /// evaluated in that association, with `e^{λw} − 1` as in [`cost`]
    /// (`exp_m1` where `λw < 10⁻²` or the table is saturated, the product of
    /// the precomputed exponentials otherwise). Once it clears a row's
    /// incumbent, every later candidate costs strictly more than the
    /// incumbent, so a scan may stop without changing its value or choice.
    /// `c` must be a coefficient `e^{λR}(1/λ + D)` of this table's `λ` (any
    /// `R, D ≥ 0`, so every storage level's qualifies).
    ///
    /// **Why it holds (exact arithmetic).** Let `A(u) = c·(e^{λu} − 1)`.
    /// 1. Every segment costs at least its work: `c ≥ 1/λ`, `e^z − 1 ≥ z`
    ///    and `C ≥ 0` give `c·(e^{λ(u + C)} − 1) ≥ λc·(u + C) ≥ u`. The
    ///    works of a plan's segments telescope over the prefix sums, so
    ///    `E(k) ≥ W_k` for every plan of the suffix from `k`, +∞ states
    ///    included (at any level: each level's coefficient is also at least
    ///    `1/λ`, and each written level's `C` is at least 0).
    /// 2. Dropping `C_{j′} ≥ 0` gives `cost(x, j′) ≥ A(w′)`, `w′ = work(x, j′)`.
    /// 3. `u ↦ A(u) − u` never decreases (its slope `λc·e^{λu} − 1 ≥ 0`),
    ///    and `w′ ≥ w`, so
    ///    `cost(x, j′) + E(j′+1) ≥ A(w′) − w′ + W_x ≥ A(w) − w + W_x = A(w) + W_{j+1}`.
    ///
    /// **Rounding.** Let `u₀ = ε/2` be the unit roundoff, `P = prefix[n]`,
    /// and let `A` use the table's computed coefficient.
    /// * (a) A computed coefficient is at least `fl(1/λ) ≥ (1 − u₀)/λ`:
    ///   `e^{λR}` rounds to at least 1 and `D ≥ 0`.
    /// * (b) A computed segment cost is at least `(1 − η)·A(w′)`, with
    ///   `η = 2¹⁷·ε`: its exact value `c·(e^z − 1)`, `z = λ(w′ + C)`, is at
    ///   least `A(w′)`. In the product form (`z ≥ 10⁻²`) each of the three
    ///   exponents `λ·prefix[j′+1]`, `λ·prefix[x]`, `λ·C ≤ 650` rounds by at
    ///   most `650·u₀`, so `e^z` (three `exp`s, a reciprocal, two products)
    ///   carries a relative error below `1 960·u₀`, which subtracting 1
    ///   amplifies at most `1/(1 − e^{−0.01}) < 101` times: below
    ///   `99 000·ε` in all. The `exp_m1` form loses at most `3u₀·(2 + z)`
    ///   with `z < 710` (beyond it the cost is +∞, which only helps).
    /// * (c) A computed `E(k)` is a sum of at most `n` rounded costs, each at
    ///   least `(1 − η)(1 − u₀)` times its work, so `E(k) ≥ W_k − (η + n·ε)·P`.
    ///   A prefix re-solve reuses values from a table whose prefix sums
    ///   past its window hold the same weights summed in another order;
    ///   each sum lies within `(n/2)·ε·P` of the exact one, so the reused
    ///   `W′_k ≥ W_k − 2n·ε·P`, and `E(k) ≥ W_k − (2η + 5n·ε)·P` for every
    ///   value a scan reads.
    /// * (d) With `(1 − η − u₀)·A` in place of `A`, the slope in step 3 is
    ///   at least `−(η + ε)`, which costs at most `(η + ε)·P` over the row.
    ///   A candidate, its sum rounded once more, is therefore at least
    ///   `(1 − η − u₀)·A(w) + W_{j+1} − (3η + (5n + 2)·ε)·P`.
    /// * (e) Evaluating `B` errs by at most `η` relative on its first term
    ///   (the product form at `λw ≥ 10⁻²` as in (b), or `exp_m1`; then two
    ///   products) and by `4u₀·P` on the rest. So `B` stays at or below the
    ///   candidate bound of (d) whenever `δ ≥ 3η + (5n + 4)·ε`, which
    ///   `δ = (2¹⁹ + 8n)·ε` satisfies (`3·2¹⁷ < 2¹⁹`). The factor `1 − δ`
    ///   is applied to `c` before the product, so a first term that
    ///   overflows to +∞ forces every later cost to +∞ as well.
    ///
    /// **Non-finite values.** A +∞ cost or state value only raises a
    /// candidate, and a +∞ incumbent is never cleared. A +∞ coefficient
    /// makes `B` +∞ where `λw > 0` (every later cost is then +∞ too) and
    /// NaN where `λw = 0`, which clears nothing.
    ///
    /// `B` is non-decreasing in `j` in exact arithmetic. The computed value
    /// can only break that by rounding noise between positions whose work
    /// differs by a few ulps; a scan that relies on monotonicity to find
    /// its cut-off by bisection then stops at some `j` where `B` clears the
    /// incumbent, never early, so its value and choice are unaffected.
    ///
    /// [`cost`]: SegmentCostTable::cost
    #[inline]
    pub fn suffix_lower_bound_with_coefficient(&self, x: usize, j: usize, coefficient: f64) -> f64 {
        debug_assert!(x <= j && j < self.len());
        let z = self.lambda * self.work(x, j);
        let growth = if self.saturated || z < SMALL_EXPONENT {
            z.exp_m1()
        } else {
            self.exp_prefix[j + 1] * self.inv_exp_prefix[x] - 1.0
        };
        let (n, delta) = (self.len(), work_margin(self.len()));
        (1.0 - delta) * coefficient * growth
            + ((self.prefix[n] - self.prefix[j + 1]) - delta * self.prefix[n])
    }

    /// Row `x` of the pruned Algorithm 1 recurrence: the minimum of
    /// [`cost`]`(x, j) + next[j − x]` over `j = x, x+1, …`, where `next`
    /// holds the next row values `E(x+1), …, E(n)` (`n − x` entries, the
    /// last one 0 for the empty suffix).
    ///
    /// The scan stops before the first `j` whose
    /// [`segment_lower_bound`]`(x, j)` exceeds the incumbent (a strict
    /// comparison): the bound holds for every later `j` and never
    /// decreases, so no later `j` can win. A row whose product-form tail
    /// outlasts its first [`STREAMED_BEFORE_CUTOFF`] candidates also stops
    /// at the first later `j` whose
    /// [`suffix_lower_bound_with_coefficient`]`(x, j, coefficient(x))`
    /// exceeds the incumbent those candidates left, found once by a binary
    /// search. Every `j` before the stop is a candidate. The value and
    /// choice are those of evaluating `segment_lower_bound` and then `cost`
    /// over every candidate up to the first bound's stop, bit for bit: a
    /// candidate the suffix bound skips costs strictly more than the
    /// incumbent. See the [module docs](self) for how the row splits into
    /// an `exp_m1` head and a product-form tail. The head, and every row of
    /// a saturated table, runs the per-candidate scan with the first bound
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a position of the table or `next` does not hold
    /// `n − x` values.
    ///
    /// [`cost`]: SegmentCostTable::cost
    /// [`segment_lower_bound`]: SegmentCostTable::segment_lower_bound
    /// [`suffix_lower_bound_with_coefficient`]: SegmentCostTable::suffix_lower_bound_with_coefficient
    pub fn pruned_row(&self, x: usize, next: &[f64]) -> PrunedRow {
        let n = self.len();
        assert!(x < n, "row {x} out of range (len {n})");
        assert_eq!(next.len(), n - x, "row {x} needs one next value per later position");
        let mut row =
            PrunedRow { value: f64::INFINITY, choice: n - 1, candidates: 0, prune_breaks: 0 };
        // The first `j` with λ·work(x, j) ≥ 10⁻²: from it on, `cost` takes
        // the product form. Heads are short next to their rows, and often
        // empty, so an exponential search from `x` brackets the split and
        // a binary search finds it inside the bracket.
        let head_end = if self.saturated {
            n
        } else {
            let start = self.prefix[x];
            let in_head = |end: &f64| self.lambda * (end - start) < SMALL_EXPONENT;
            let ends = &self.prefix[x + 1..];
            let mut bound = 1;
            while bound <= ends.len() && in_head(&ends[bound - 1]) {
                bound *= 2;
            }
            // `ends[..bound / 2]` lie in the head; `ends[bound - 1]`, if
            // there is one, does not.
            let low = bound / 2;
            x + low + ends[low..(bound - 1).min(ends.len())].partition_point(in_head)
        };
        for j in x..head_end {
            if self.segment_lower_bound(x, j) > row.value {
                row.prune_breaks = 1;
                return row;
            }
            row.candidates += 1;
            let cost = self.cost(x, j) + next[j - x];
            if cost < row.value {
                row.value = cost;
                row.choice = j;
            }
        }
        if head_end == n {
            return row;
        }
        let streamed = (head_end + STREAMED_BEFORE_CUTOFF).min(n);
        if self.stream_tail(x, next, head_end, streamed, &mut row) || streamed == n {
            return row;
        }
        // The first `j ≥ streamed` whose suffix bound clears the incumbent.
        let (mut cutoff, mut end) = (streamed, n);
        while cutoff < end {
            let mid = cutoff + (end - cutoff) / 2;
            if self.suffix_lower_bound_with_coefficient(x, mid, self.coeff[x]) > row.value {
                end = mid;
            } else {
                cutoff = mid + 1;
            }
        }
        if !self.stream_tail(x, next, streamed, cutoff, &mut row) && cutoff < n {
            row.prune_breaks = 1;
        }
        row
    }

    /// Scans candidates `from..to` of product-form row `x` into `row`, the
    /// way [`pruned_row`](SegmentCostTable::pruned_row) scans the tail.
    /// Returns whether [`segment_lower_bound`](SegmentCostTable::segment_lower_bound)
    /// stopped the scan.
    #[inline]
    fn stream_tail(
        &self,
        x: usize,
        next: &[f64],
        from: usize,
        to: usize,
        row: &mut PrunedRow,
    ) -> bool {
        // `segment_lower_bound` and `cost` of the product regime, each in
        // its association: a reordered product rounds differently.
        let (coefficient, inv_start) = (self.coeff[x], self.inv_exp_prefix[x]);
        let tail = self.min_slope_suffix[from..to]
            .iter()
            .zip(&self.exp_prefix[from + 1..])
            .zip(&self.exp_ckpt[from..])
            .zip(&next[from - x..]);
        for (j, (((&min_slope, &exp_end), &exp_ckpt), &next_value)) in (from..).zip(tail) {
            if coefficient * (min_slope * inv_start - 1.0) > row.value {
                row.prune_breaks = 1;
                return true;
            }
            row.candidates += 1;
            let cost = coefficient * (exp_end * inv_start * exp_ckpt - 1.0) + next_value;
            if cost < row.value {
                row.value = cost;
                row.choice = j;
            }
        }
        false
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

/// One row of the pruned Algorithm 1 recurrence
/// ([`SegmentCostTable::pruned_row`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedRow {
    /// The row's optimum `E(x)`: the smallest candidate `cost(x, j) + E(j+1)`
    /// (+∞ if no candidate is finite).
    pub value: f64,
    /// The first candidate `j` that attains [`value`](PrunedRow::value), or
    /// the last position if none beats +∞.
    pub choice: usize,
    /// The candidates evaluated.
    pub candidates: u64,
    /// 1 if the scan stopped at a lower bound, 0 if it ran to the end.
    pub prune_breaks: u64,
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
        check_order_rate(lambda, self.downtime, self.total_work, self.max_recovery, || {
            self.min_step
        })
    }
}

/// [`OrderBounds::check_rate`] on an order's scalars, asking for the
/// smallest prefix step only when the largest coefficient overflows, the
/// one case in which the check reads it.
fn check_order_rate(
    lambda: f64,
    downtime: f64,
    total_work: f64,
    max_recovery: f64,
    min_step: impl FnOnce() -> f64,
) -> Result<f64, ExpectationError> {
    let lambda = check_rate(lambda, total_work)?;
    let coefficient = (lambda * max_recovery).exp() * (1.0 / lambda + downtime);
    if !coefficient.is_finite() && lambda * min_step() == 0.0 {
        return Err(ExpectationError::NonFiniteParameter {
            name: "segment coefficient",
            value: coefficient,
        });
    }
    Ok(lambda)
}

/// Validates the λ-independent data of one execution order for
/// [`crate::sweep::LambdaSweep::new`] and
/// [`crate::storage::LevelledCostTable::new`], through the
/// [`validate_positions`] that [`SegmentCostTable::refill`] runs too, so the
/// constructors can never diverge on what they accept, and returns the work
/// prefix sums and the order's [`OrderBounds`].
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
    let downtime = validate_positions(downtime, weights, checkpoints, recoveries)?;
    let mut prefix = Vec::with_capacity(weights.len() + 1);
    prefix.push(0.0);
    let (total_work, min_step) = sum_weights(weights, |sum| prefix.push(sum));
    let bounds = OrderBounds {
        downtime,
        total_work,
        max_ckpt: largest(checkpoints),
        max_recovery: largest(recoveries),
        min_step,
    };
    Ok((prefix, bounds))
}

/// Checks the downtime, then every weight, checkpoint cost and recovery in
/// order, and returns the first violation, or the downtime.
///
/// # Panics
///
/// Panics if the three slices differ in length or are empty.
fn validate_positions(
    downtime: f64,
    weights: &[f64],
    checkpoints: &[f64],
    recoveries: &[f64],
) -> Result<f64, ExpectationError> {
    let n = weights.len();
    assert!(n > 0, "the execution order needs at least one position");
    assert_eq!(checkpoints.len(), n, "one checkpoint cost per position");
    assert_eq!(recoveries.len(), n, "one protecting recovery per position");
    let downtime = ensure_non_negative("downtime", downtime)?;
    // Branch-free checks first; the ordered scan only names the violation.
    let all = |values: &[f64], valid: fn(f64) -> bool| {
        values.iter().fold(true, |all, &value| all & valid(value))
    };
    if all(weights, is_positive_finite)
        && all(checkpoints, is_non_negative_finite)
        && all(recoveries, is_non_negative_finite)
    {
        return Ok(downtime);
    }
    let violation = weights.iter().find_map(|&w| ensure_positive("work", w).err());
    let violation = violation
        .or_else(|| checkpoints.iter().find_map(|&c| ensure_non_negative("checkpoint", c).err()))
        .or_else(|| recoveries.iter().find_map(|&r| ensure_non_negative("recovery", r).err()));
    Err(violation.expect("a failed check names its value"))
}

/// The bits of `+∞`: the finite non-negative `f64`s other than `−0` are
/// exactly those whose bits, read as an integer, lie below it.
const INFINITY_BITS: u64 = 0x7FF0_0000_0000_0000;

/// What [`ensure_positive`] accepts (finite and above 0), on the bits, so
/// that a check of a whole vector compiles to integer compares.
fn is_positive_finite(value: f64) -> bool {
    value.to_bits().wrapping_sub(1) < INFINITY_BITS - 1
}

/// What [`ensure_non_negative`] accepts (finite and not below 0, `−0`
/// included), on the bits.
fn is_non_negative_finite(value: f64) -> bool {
    let bits = value.to_bits();
    (bits < INFINITY_BITS) | (bits == (-0.0f64).to_bits())
}

/// Sums `weights` left to right, handing each prefix sum to `on_sum`;
/// returns the total and the smallest step `prefix[k+1] − prefix[k]` (no
/// attempt's work falls below it, even where a tiny weight is absorbed).
fn sum_weights(weights: &[f64], mut on_sum: impl FnMut(f64)) -> (f64, f64) {
    let (mut sum, mut min_step) = (0.0f64, f64::INFINITY);
    for &w in weights {
        let next = sum + w;
        // `f64::min` but for NaN, which a step is only once the sum has
        // overflowed, and the rate check then fails on the total first.
        let step = next - sum;
        min_step = if step < min_step { step } else { min_step };
        sum = next;
        on_sum(sum);
    }
    (sum, min_step)
}

/// The largest of `values` (none NaN), or 0 if larger: four running maxima,
/// so the comparisons do not wait on each other.
fn largest(values: &[f64]) -> f64 {
    let larger = |max: f64, value: f64| if value > max { value } else { max };
    let mut lanes = [0.0f64; 4];
    let mut chunks = values.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &value) in lanes.iter_mut().zip(chunk) {
            *lane = larger(*lane, value);
        }
    }
    for &value in chunks.remainder() {
        lanes[0] = larger(lanes[0], value);
    }
    lanes.into_iter().fold(0.0, larger)
}

/// Whether a table of total work `total_work` and largest checkpoint cost
/// `max_ckpt` runs in the saturated mode at rate `lambda`.
fn is_saturated(lambda: f64, total_work: f64, max_ckpt: f64) -> bool {
    lambda * (total_work + max_ckpt) > MAX_SAFE_EXPONENT
}

/// `e^{λ·sum}` of a prefix sum, and its reciprocal.
fn prefix_exponentials(lambda: f64, sum: f64) -> (f64, f64) {
    let exp = (lambda * sum).exp();
    (exp, 1.0 / exp)
}

/// `e^{λ·C}` of a checkpoint cost.
fn checkpoint_exponential(lambda: f64, cost: f64) -> f64 {
    (lambda * cost).exp()
}

/// The coefficient `e^{λR}(1/λ + D)` of a recovery, `base = 1/λ + D`.
fn coefficient(lambda: f64, base: f64, recovery: f64) -> f64 {
    (lambda * recovery).exp() * base
}

/// `buffer` cleared and refilled with `len` zeros, in its own allocation.
fn zeroed(buffer: &mut Vec<f64>, len: usize) {
    buffer.clear();
    buffer.resize(len, 0.0);
}

/// The table's own vector behind `stored`, emptied, with room for
/// `capacity` values: a vector shared with another table is left to it.
fn emptied(stored: &mut Arc<Vec<f64>>, capacity: usize) -> &mut Vec<f64> {
    if Arc::get_mut(stored).is_none() {
        *stored = Arc::new(Vec::new());
    }
    let buffer = Arc::get_mut(stored).expect("the table owns the vector");
    buffer.clear();
    buffer.reserve(capacity);
    buffer
}

/// Restores `minima[j] = min(slope(j), slope(j + 1), …)` after the slopes
/// `lo..=hi` changed, given that it held before. Entries above `hi` keep
/// their values. From `hi` down the running minimum is recomputed, as a
/// full right-to-left pass computes it, until an entry at or below `lo`
/// equals its old value bit for bit: every slope below it is unchanged, so
/// every entry below it equals its old value too.
fn refresh_suffix_minima(minima: &mut [f64], lo: usize, hi: usize, slope: impl Fn(usize) -> f64) {
    let mut running = minima.get(hi + 1).copied().unwrap_or(f64::INFINITY);
    for j in (0..=hi).rev() {
        // `running.min(slope)` on slopes, which are never NaN.
        let slope = slope(j);
        running = if slope < running { slope } else { running };
        if j <= lo && running.to_bits() == minima[j].to_bits() {
            return;
        }
        minima[j] = running;
    }
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

    /// The documented accuracy of `cost` at the saturation edge: 64 000
    /// positions of 1 000 s at `λ·W = 640`, free checkpoints, one- to
    /// five-task segments, so every segment sits at or just above the
    /// `z = 10⁻²` switch, where the anchored exponents' rounding is
    /// amplified most.
    #[test]
    fn cost_meets_its_documented_bound_at_the_saturation_edge() {
        let n = 64_000;
        let lambda = 640.0 / (1_000.0 * n as f64);
        let table =
            SegmentCostTable::new(lambda, 0.0, &vec![1_000.0; n], &vec![0.0; n], &vec![0.0; n])
                .unwrap();
        assert!(!table.is_saturated());
        let lambda_prefix = lambda * table.work(0, n - 1);
        let mut worst = 0.0f64;
        for x in 0..n {
            for j in x..(x + 5).min(n) {
                let z = lambda * table.work(x, j);
                let gap = relative_gap(
                    table.cost(x, j),
                    reference_cost(table.work(x, j), 0.0, 0.0, 0.0, lambda),
                );
                let bound = (3.0 + 2.0 * lambda_prefix) * f64::EPSILON / z;
                assert!(gap <= bound, "x = {x}, j = {j}: gap {gap:e} above {bound:e}");
                worst = worst.max(gap);
            }
        }
        // The exponent term is real: the old `10⁻¹³` claim fails here.
        assert!(worst > 1e-12, "worst gap {worst:e}");
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
    fn bitwise_checks_accept_what_the_validators_accept() {
        let values = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0001),
        ];
        for value in values {
            assert_eq!(is_positive_finite(value), ensure_positive("x", value).is_ok(), "{value:e}");
            assert_eq!(
                is_non_negative_finite(value),
                ensure_non_negative("x", value).is_ok(),
                "{value:e}"
            );
        }
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
    #[should_panic(expected = "one next value per later position")]
    fn pruned_row_rejects_a_next_row_of_the_wrong_length() {
        let table = SegmentCostTable::new(1e-4, 2.0, &[100.0; 3], &[10.0; 3], &[5.0; 3]).unwrap();
        let _ = table.pruned_row(1, &[0.0]);
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

    /// Bit-for-bit equality of two tables: `Debug` prints every `f64` with
    /// the shortest digits that round-trip it, so two tables print alike
    /// only if every value has the same bits (NaN payloads aside).
    fn same_bits(a: &SegmentCostTable, b: &SegmentCostTable) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// A 64-bit LCG for the refill walks.
    struct Lcg(u64);

    impl Lcg {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.unit() * bound as f64) as usize % bound
        }
    }

    /// The arguments of one table.
    #[derive(Clone)]
    struct Inputs {
        lambda: f64,
        downtime: f64,
        weights: Vec<f64>,
        checkpoints: Vec<f64>,
        recoveries: Vec<f64>,
    }

    impl Inputs {
        fn random(rng: &mut Lcg, n: usize) -> Self {
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rng.unit() * 2_000.0).collect();
            let mut inputs = Inputs {
                lambda: 0.0,
                downtime: rng.unit() * 60.0,
                checkpoints: (0..n).map(|_| rng.unit() * 200.0).collect(),
                recoveries: (0..n).map(|_| rng.unit() * 200.0).collect(),
                weights,
            };
            inputs.random_rate(rng);
            inputs
        }

        /// `λ·W` log-uniform in 10⁻⁴…10³, across the saturation edge.
        fn random_rate(&mut self, rng: &mut Lcg) {
            let total: f64 = self.weights.iter().sum();
            self.lambda = 10f64.powf(-4.0 + 7.0 * rng.unit()) / total;
        }

        fn new_table(&self) -> Result<SegmentCostTable, ExpectationError> {
            SegmentCostTable::new(
                self.lambda,
                self.downtime,
                &self.weights,
                &self.checkpoints,
                &self.recoveries,
            )
        }

        fn refill(&self, table: &mut SegmentCostTable) -> Result<(), ExpectationError> {
            table.refill(
                self.lambda,
                self.downtime,
                &self.weights,
                &self.checkpoints,
                &self.recoveries,
            )
        }
    }

    #[test]
    fn refill_never_writes_through_a_shared_vector() {
        let sweep = crate::sweep::LambdaSweep::new(
            30.0,
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 10.0],
        )
        .unwrap();
        let shared = sweep.table_for(1e-4).unwrap();
        // The same rate and downtime (a diffing refill), then another length
        // (a full one): each writes vectors the sweep's tables share.
        for (weights, checkpoints, recoveries) in [
            (vec![100.0, 400.0, 900.0, 250.0], vec![10.0, 60.0, 45.0, 30.0], vec![15.0; 4]),
            (vec![300.0; 3], vec![5.0; 3], vec![7.0; 3]),
        ] {
            let mut refilled = shared.clone();
            refilled.refill(1e-4, 30.0, &weights, &checkpoints, &recoveries).unwrap();
            let fresh =
                SegmentCostTable::new(1e-4, 30.0, &weights, &checkpoints, &recoveries).unwrap();
            assert!(same_bits(&refilled, &fresh));
            assert!(same_bits(&shared, &sweep.table_for(1e-4).unwrap()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One table refilled along a random walk of inputs equals, after
        /// every step, the table `new` builds from the same inputs, bit for
        /// bit, and fails with `new`'s error where `new` does. The steps
        /// are the order search's (a window of up to 12 positions permuted,
        /// so prefix sums drift past it), rescaled entries, new rates
        /// across the saturation edge, weights that move the order across
        /// it at an unchanged rate, new downtimes and new lengths.
        #[test]
        fn prop_refill_equals_new(seed in any::<u64>()) {
            let mut rng = Lcg(seed);
            let n = 1 + rng.below(80);
            let mut inputs = Inputs::random(&mut rng, n);
            let mut table = inputs.new_table().unwrap();
            for step in 0..48 {
                let n = inputs.weights.len();
                match rng.below(11) {
                    0..=3 if n > 1 => {
                        let lo = rng.below(n - 1);
                        let hi = (lo + 1 + rng.below(11)).min(n - 1);
                        let shift = 1 + rng.below(hi - lo);
                        inputs.weights[lo..=hi].rotate_left(shift);
                        inputs.checkpoints[lo..=hi].rotate_right(shift);
                        inputs.recoveries[lo..=(hi + 1).min(n - 1)].rotate_left(1);
                    }
                    4 => {
                        for _ in 0..1 + rng.below(3) {
                            let at = rng.below(n);
                            inputs.weights[at] *= 0.5 + rng.unit();
                            inputs.checkpoints[rng.below(n)] *= 0.5 + rng.unit();
                            inputs.recoveries[rng.below(n)] *= 0.5 + rng.unit();
                        }
                    }
                    5 => inputs.random_rate(&mut rng),
                    6 => inputs.downtime = rng.unit() * 60.0,
                    7 => inputs.recoveries[rng.below(n)] = -1.0,
                    // Half a unit below the saturation edge, then a weight
                    // moved by one unit of `λ·W` either way: the mode flips
                    // at an unchanged rate.
                    8 => {
                        let max_ckpt = inputs.checkpoints.iter().fold(0.0f64, |m, &c| m.max(c));
                        let total: f64 = inputs.weights.iter().sum();
                        inputs.lambda = (MAX_SAFE_EXPONENT - 0.5) / (total + max_ckpt);
                    }
                    9 => {
                        let at = rng.below(n);
                        let shift = if rng.below(2) == 0 { 1.0 } else { -1.0 } / inputs.lambda;
                        inputs.weights[at] = (inputs.weights[at] + shift).max(1.0);
                    }
                    _ => {
                        let lambda_w = inputs.lambda * inputs.weights.iter().sum::<f64>();
                        let n = 1 + rng.below(80);
                        inputs = Inputs::random(&mut rng, n);
                        let total: f64 = inputs.weights.iter().sum();
                        inputs.lambda = lambda_w / total;
                    }
                }
                let before = table.clone();
                match (inputs.new_table(), inputs.refill(&mut table)) {
                    (Ok(fresh), Ok(())) => {
                        prop_assert!(same_bits(&table, &fresh), "step {}", step);
                        prop_assert!(table == fresh);
                    }
                    (Err(expected), Err(got)) => {
                        prop_assert_eq!(got, expected);
                        prop_assert!(same_bits(&table, &before), "step {}", step);
                        // Undo the hostile value so the walk goes on.
                        inputs.recoveries.iter_mut().for_each(|r| *r = r.abs());
                    }
                    (fresh, refilled) => {
                        prop_assert!(false, "step {}: new {:?}, refill {:?}", step, fresh, refilled);
                    }
                }
            }
        }
    }
}
