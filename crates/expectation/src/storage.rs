//! Hierarchical checkpoint storage: per-level costs and the levelled
//! segment-cost table.
//!
//! The paper prices every checkpoint with a single write cost `C_j` and a
//! single read (recovery) cost `R_j`, but real platforms write to a storage
//! **hierarchy** — node memory, local disk, a remote store — whose tiers
//! differ in write bandwidth, read bandwidth and capacity. This module
//! models that hierarchy:
//!
//! * a [`StorageLevel`] scales the instance's per-position checkpoint and
//!   recovery costs by a write factor and a read factor (checkpoint time =
//!   per-position data volume ÷ per-level bandwidth, so the medium enters as
//!   a multiplicative factor), and may carry a **slot bound** — the fast
//!   tier holds only so many checkpoints for the lifetime of a run;
//! * a [`StorageLevels`] spec collects the levels (at most one of them
//!   bounded, which is what keeps the planning DP's state space linear in
//!   the slot budget);
//! * a [`LevelledCostTable`] materialises one
//!   [`SegmentCostTable`] **per
//!   level** over one execution order, sharing the λ-independent validation
//!   and work prefix sums between the levels by `Arc` exactly like
//!   [`LambdaSweep`](crate::sweep::LambdaSweep) shares them between rates.
//!
//! The key structural fact the table exploits: the Proposition-1 segment
//! cost
//!
//! ```text
//! T(x, j) = e^{λR_x} (1/λ + D) · (e^{λ(w_x + … + w_j + C_j)} − 1)
//! ```
//!
//! factors into a *coefficient* `e^{λR_x}(1/λ + D)` that depends only on
//! the **protecting** checkpoint (whose read cost is set by the level it
//! was written to) and an *exponent term* that depends only on the segment
//! span and the **written** checkpoint. A levelled segment cost — "segment
//! `x..=j`, protected by a level-`p` checkpoint, writing to level `ℓ`" — is
//! therefore level `p`'s coefficient times level `ℓ`'s exponent term, which
//! [`SegmentCostTable::cost_with_coefficient`] answers exp-free. With a
//! single level of unit factors every per-level vector is bitwise equal to
//! the base table's, so the levelled planner collapses **bitwise** to the
//! single-level one (`ckpt_core::chain_dp::optimal_levelled_schedule`'s
//! differential wall).
//!
//! [`SegmentCostTable::cost_with_coefficient`]:
//! crate::segment_cost::SegmentCostTable::cost_with_coefficient

use std::sync::Arc;

use crate::error::{ensure_positive, ExpectationError};
use crate::segment_cost::{validate_order, OrderBounds, SegmentCostTable};

/// One storage level: multiplicative write/read cost factors over the
/// instance's per-position checkpoint/recovery costs, plus an optional slot
/// capacity.
///
/// Factor `1.0`/`1.0` is the paper's single medium. A memory tier might be
/// `StorageLevel::new(0.2, 0.1)?.with_slots(4)` — 5× faster writes, 10×
/// faster recovery, but only four checkpoints may ever be kept there — and
/// a remote store `StorageLevel::new(3.0, 5.0)?` (slower both ways,
/// unbounded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageLevel {
    checkpoint_factor: f64,
    recovery_factor: f64,
    slots: Option<usize>,
}

impl StorageLevel {
    /// An unbounded level scaling checkpoint writes by `checkpoint_factor`
    /// and recoveries by `recovery_factor`.
    ///
    /// # Errors
    ///
    /// Returns an [`ExpectationError`] unless both factors are strictly
    /// positive and finite.
    pub fn new(checkpoint_factor: f64, recovery_factor: f64) -> Result<Self, ExpectationError> {
        let checkpoint_factor = ensure_positive("checkpoint factor", checkpoint_factor)?;
        let recovery_factor = ensure_positive("recovery factor", recovery_factor)?;
        Ok(StorageLevel { checkpoint_factor, recovery_factor, slots: None })
    }

    /// Bounds the level to `slots` checkpoints for the lifetime of a run
    /// (builder style). Zero slots is allowed: the level exists but can
    /// never be written.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = Some(slots);
        self
    }

    /// The write-cost factor applied to every per-position checkpoint cost.
    pub fn checkpoint_factor(&self) -> f64 {
        self.checkpoint_factor
    }

    /// The read-cost factor applied to every per-position recovery cost.
    pub fn recovery_factor(&self) -> f64 {
        self.recovery_factor
    }

    /// The slot capacity, or `None` for an unbounded level.
    pub fn slots(&self) -> Option<usize> {
        self.slots
    }
}

/// The storage hierarchy a plan may write checkpoints to: one or more
/// [`StorageLevel`]s, at most one of them slot-bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageLevels {
    levels: Vec<StorageLevel>,
}

impl StorageLevels {
    /// A hierarchy from an explicit level list.
    ///
    /// # Errors
    ///
    /// Returns [`ExpectationError::MultipleBoundedLevels`] if more than one
    /// level carries a slot bound.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty (a programming error, not a data error).
    pub fn new(levels: Vec<StorageLevel>) -> Result<Self, ExpectationError> {
        assert!(!levels.is_empty(), "the storage hierarchy needs at least one level");
        if levels.iter().filter(|level| level.slots.is_some()).count() > 1 {
            return Err(ExpectationError::MultipleBoundedLevels);
        }
        Ok(StorageLevels { levels })
    }

    /// The paper's flat model: a single unbounded level of unit factors.
    /// Planning on it is bitwise identical to ignoring storage levels
    /// entirely.
    pub fn single() -> Self {
        StorageLevels {
            levels: vec![StorageLevel {
                checkpoint_factor: 1.0,
                recovery_factor: 1.0,
                slots: None,
            }],
        }
    }

    /// The canonical two-tier hierarchy: a `fast` tier (typically cheaper
    /// factors, slot-bounded) as level 0 and a `slow` tier as level 1.
    ///
    /// # Errors
    ///
    /// Same as [`StorageLevels::new`].
    pub fn two_level(fast: StorageLevel, slow: StorageLevel) -> Result<Self, ExpectationError> {
        StorageLevels::new(vec![fast, slow])
    }

    /// The levels, in index order (a plan's level ids index this slice).
    pub fn levels(&self) -> &[StorageLevel] {
        &self.levels
    }

    /// The number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the hierarchy has no levels (never true: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The slot-bounded level, if any, as `(level index, slot capacity)`.
    pub fn bounded(&self) -> Option<(usize, usize)> {
        self.levels.iter().enumerate().find_map(|(i, level)| level.slots.map(|s| (i, s)))
    }
}

/// Per-level [`SegmentCostTable`]s over one execution order, sharing the
/// λ-independent validation and work prefix sums (the
/// [`LambdaSweep`](crate::sweep::LambdaSweep) pattern, with levels in place
/// of rates).
///
/// Level `ℓ`'s table holds the order's checkpoint costs scaled by the
/// level's write factor and its protecting recoveries scaled by the level's
/// read factor — **except** position 0, whose protecting recovery is the
/// instance's initial recovery `R₀` and is independent of any level (no
/// checkpoint was written yet). Every coefficient query at position 0
/// therefore agrees bitwise across levels.
///
/// # Example
///
/// ```
/// use ckpt_expectation::storage::{LevelledCostTable, StorageLevel, StorageLevels};
///
/// let levels = StorageLevels::two_level(
///     StorageLevel::new(0.25, 0.2)?.with_slots(2), // fast, 2 slots
///     StorageLevel::new(1.0, 1.0)?,                // the paper's medium
/// )?;
/// let table = LevelledCostTable::new(
///     1e-4,
///     30.0,
///     &[400.0, 100.0, 900.0],
///     &[60.0, 60.0, 60.0],
///     &[15.0, 60.0, 20.0],
///     levels,
/// )?;
/// // Writing position 1's checkpoint to the fast tier costs a quarter:
/// let slow = table.table(1);
/// let fast = table.table(0);
/// assert!(fast.cost(0, 1) < slow.cost(0, 1));
/// # Ok::<(), ckpt_expectation::ExpectationError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LevelledCostTable {
    levels: StorageLevels,
    tables: Vec<SegmentCostTable>,
}

impl LevelledCostTable {
    /// Builds the per-level tables for an execution order described
    /// positionally exactly as in [`SegmentCostTable::new`]: `weights[i]`
    /// is the work at position `i`, `checkpoints[i]` the **base** (level
    /// factor 1) cost of checkpointing right after it, `recoveries[i]` the
    /// base recovery cost protecting a segment starting at `i` (the initial
    /// recovery `R₀` for `i = 0`).
    ///
    /// Validation runs once; the per-level tables share the prefix sums by
    /// `Arc`.
    ///
    /// # Errors
    ///
    /// Same as [`SegmentCostTable::new`].
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
        levels: StorageLevels,
    ) -> Result<Self, ExpectationError> {
        let (prefix, bounds) = validate_order(downtime, weights, checkpoints, recoveries)?;
        let prefix = Arc::new(prefix);
        let tables = levels
            .levels()
            .iter()
            .map(|level| {
                let scaled_ckpt: Vec<f64> =
                    checkpoints.iter().map(|&c| c * level.checkpoint_factor()).collect();
                let mut scaled_rec: Vec<f64> =
                    recoveries.iter().map(|&r| r * level.recovery_factor()).collect();
                // The initial recovery protects position 0 before any
                // checkpoint exists; it belongs to no level.
                scaled_rec[0] = recoveries[0];
                let level_bounds = OrderBounds {
                    max_ckpt: scaled_ckpt.iter().fold(0.0, |m: f64, &c| m.max(c)),
                    max_recovery: scaled_rec.iter().fold(0.0, |m: f64, &r| m.max(r)),
                    ..bounds
                };
                Ok(SegmentCostTable::from_validated_parts(
                    level_bounds.check_rate(lambda)?,
                    bounds.downtime,
                    Arc::clone(&prefix),
                    Arc::new(scaled_ckpt),
                    Arc::new(scaled_rec),
                    level_bounds.max_ckpt,
                ))
            })
            .collect::<Result<_, ExpectationError>>()?;
        Ok(LevelledCostTable { levels, tables })
    }

    /// The storage hierarchy the table was built for.
    pub fn levels(&self) -> &StorageLevels {
        &self.levels
    }

    /// The number of storage levels.
    pub fn level_count(&self) -> usize {
        self.tables.len()
    }

    /// The number of positions covered by each per-level table.
    pub fn len(&self) -> usize {
        self.tables[0].len()
    }

    /// Whether the table covers no positions (never true: construction
    /// requires at least one position).
    pub fn is_empty(&self) -> bool {
        self.tables[0].is_empty()
    }

    /// The platform failure rate `λ` the tables were built for.
    pub fn lambda(&self) -> f64 {
        self.tables[0].lambda()
    }

    /// Level `ℓ`'s [`SegmentCostTable`]: checkpoint costs scaled by the
    /// level's write factor, protecting recoveries by its read factor.
    pub fn table(&self, level: usize) -> &SegmentCostTable {
        &self.tables[level]
    }

    /// The expected makespan of a full levelled placement: `plan` lists the
    /// checkpoints as `(position, level)` pairs in increasing position
    /// order, the last position being `n − 1` (the mandatory final
    /// checkpoint). Each segment is charged the written level's exponent
    /// term under the protecting level's coefficient — the levelled
    /// analogue of
    /// [`SegmentCostTable::total_cost`](crate::segment_cost::SegmentCostTable::total_cost).
    ///
    /// # Panics
    ///
    /// Panics if `plan` is empty, a position/level is out of range, the
    /// positions are not strictly increasing, the final position is not
    /// `n − 1`, or the plan overruns a bounded level's slots.
    pub fn total_cost(&self, plan: &[(usize, usize)]) -> f64 {
        let n = self.len();
        assert!(!plan.is_empty(), "a plan needs at least the final checkpoint");
        assert_eq!(plan.last().unwrap().0, n - 1, "final checkpoint is mandatory");
        if let Some((bounded, slots)) = self.levels.bounded() {
            let used = plan.iter().filter(|(_, level)| *level == bounded).count();
            assert!(used <= slots, "plan uses {used} slots of {slots} on level {bounded}");
        }
        let mut total = 0.0;
        let mut start = 0usize;
        // Position 0's coefficient is the level-independent initial
        // recovery; any level's table answers it with the same bits.
        let mut coefficient = self.tables[0].coefficient(0);
        for &(j, level) in plan {
            assert!(start <= j && j < n, "plan positions must be strictly increasing");
            assert!(level < self.level_count(), "level {level} out of range");
            total += self.tables[level].cost_with_coefficient(start, j, coefficient);
            if j + 1 < n {
                coefficient = self.tables[level].coefficient(j + 1);
            }
            start = j + 1;
        }
        assert_eq!(start, n, "the final checkpoint must close the last segment");
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{expected_time, ExecutionParams};

    const WEIGHTS: [f64; 4] = [400.0, 100.0, 900.0, 250.0];
    const CKPTS: [f64; 4] = [60.0, 10.0, 45.0, 30.0];
    const RECS: [f64; 4] = [15.0, 60.0, 20.0, 10.0];

    fn two_level() -> StorageLevels {
        StorageLevels::two_level(
            StorageLevel::new(0.25, 0.2).unwrap().with_slots(2),
            StorageLevel::new(1.0, 1.0).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn level_validation() {
        assert!(StorageLevel::new(0.0, 1.0).is_err());
        assert!(StorageLevel::new(1.0, -1.0).is_err());
        assert!(StorageLevel::new(1.0, f64::NAN).is_err());
        assert!(StorageLevel::new(f64::INFINITY, 1.0).is_err());
        let level = StorageLevel::new(0.5, 0.25).unwrap().with_slots(3);
        assert_eq!(level.checkpoint_factor(), 0.5);
        assert_eq!(level.recovery_factor(), 0.25);
        assert_eq!(level.slots(), Some(3));
    }

    #[test]
    fn at_most_one_bounded_level() {
        let bounded = StorageLevel::new(0.5, 0.5).unwrap().with_slots(2);
        let free = StorageLevel::new(1.0, 1.0).unwrap();
        assert!(StorageLevels::new(vec![bounded, free]).is_ok());
        assert_eq!(
            StorageLevels::new(vec![bounded, bounded]),
            Err(ExpectationError::MultipleBoundedLevels)
        );
        let spec = StorageLevels::two_level(bounded, free).unwrap();
        assert_eq!(spec.bounded(), Some((0, 2)));
        assert_eq!(spec.len(), 2);
        assert!(StorageLevels::single().bounded().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn rejects_empty_hierarchies() {
        let _ = StorageLevels::new(Vec::new());
    }

    #[test]
    fn single_unit_level_is_bitwise_the_base_table() {
        let levelled =
            LevelledCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS, StorageLevels::single())
                .unwrap();
        let base = SegmentCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS).unwrap();
        assert_eq!(levelled.table(0), &base);
        for x in 0..WEIGHTS.len() {
            for j in x..WEIGHTS.len() {
                assert_eq!(levelled.table(0).cost(x, j).to_bits(), base.cost(x, j).to_bits());
            }
        }
    }

    #[test]
    fn cross_level_costs_match_the_closed_form() {
        let (lambda, d) = (1e-4, 30.0);
        let table =
            LevelledCostTable::new(lambda, d, &WEIGHTS, &CKPTS, &RECS, two_level()).unwrap();
        let spec = two_level();
        for p in 0..2 {
            for l in 0..2 {
                for x in 1..WEIGHTS.len() {
                    for j in x..WEIGHTS.len() {
                        let work: f64 = WEIGHTS[x..=j].iter().sum();
                        let exact = expected_time(
                            &ExecutionParams::new(
                                work,
                                CKPTS[j] * spec.levels()[l].checkpoint_factor(),
                                d,
                                RECS[x] * spec.levels()[p].recovery_factor(),
                                lambda,
                            )
                            .unwrap(),
                        );
                        let got = table.table(l).cost_with_coefficient(
                            x,
                            j,
                            table.table(p).coefficient(x),
                        );
                        let gap = (got - exact).abs() / exact;
                        assert!(gap < 1e-12, "p={p} l={l} ({x},{j}): {got} vs {exact}");
                    }
                }
            }
        }
    }

    #[test]
    fn initial_recovery_is_level_independent() {
        let table =
            LevelledCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS, two_level()).unwrap();
        assert_eq!(
            table.table(0).coefficient(0).to_bits(),
            table.table(1).coefficient(0).to_bits()
        );
        // But interior coefficients differ: the fast tier recovers 5× faster.
        assert!(table.table(0).coefficient(1) < table.table(1).coefficient(1));
    }

    #[test]
    fn total_cost_sums_cross_level_segments() {
        let table =
            LevelledCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS, two_level()).unwrap();
        // Checkpoints after 1 (fast) and 3 (slow).
        let plan = [(1, 0), (3, 1)];
        let manual = table.table(0).cost_with_coefficient(0, 1, table.table(0).coefficient(0))
            + table.table(1).cost_with_coefficient(2, 3, table.table(0).coefficient(2));
        assert_eq!(table.total_cost(&plan), manual);
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn total_cost_enforces_slot_bounds() {
        let levels = StorageLevels::two_level(
            StorageLevel::new(0.25, 0.2).unwrap().with_slots(1),
            StorageLevel::new(1.0, 1.0).unwrap(),
        )
        .unwrap();
        let table = LevelledCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS, levels).unwrap();
        let _ = table.total_cost(&[(0, 0), (1, 0), (3, 1)]);
    }

    #[test]
    fn levels_share_the_prefix_by_arc() {
        // The LambdaSweep pattern: validation and prefix sums are computed
        // once; only the per-level exponentials differ.
        let table =
            LevelledCostTable::new(1e-4, 30.0, &WEIGHTS, &CKPTS, &RECS, two_level()).unwrap();
        assert_eq!(table.level_count(), 2);
        assert_eq!(table.len(), 4);
        assert_eq!(table.lambda(), 1e-4);
        // Same work on both levels: the prefix sums are shared data.
        assert_eq!(table.table(0).work(0, 3).to_bits(), table.table(1).work(0, 3).to_bits());
    }
}
