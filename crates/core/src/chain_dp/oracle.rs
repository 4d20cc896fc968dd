//! Yardsticks for Algorithm 1: three independent formulations that the tests
//! and perfbench compare the production entries against. No production
//! path calls them.
//!
//! * [`optimal_chain_schedule_reference`] — the naive transcription, calling
//!   the Proposition 1 closed form (two `exp`s) in every DP cell;
//! * [`optimal_chain_value_memoized`] — the paper's recursive `DPMAKESPAN`
//!   pseudo-code, memoised;
//! * [`optimal_chain_schedule_divide_conquer`] — an `O(n log n)` solver. For
//!   a fixed `x` the candidate costs decompose as
//!   `slope(j)·t_x + E(j+1) − coeff(x)`: each candidate `j` is a **line** in
//!   the query point `t_x = e^{λR_{x−1}}(1/λ+D)e^{−λ·prefix[x]}`, and
//!   minimising over candidates is a lower-envelope query answered by one Li
//!   Chao tree over all `n` query points. The blocked kernel behind
//!   [`scalable_placement_on_table_with_scratch`](super::scalable_placement_on_table_with_scratch)
//!   runs the same decomposition over cache-sized ranges.
//!
//! Every yardstick returns a typed error where the production entries do:
//! they never panic on an instance the builder accepted.

use ckpt_dag::properties;
use ckpt_expectation::exact::{expected_time, ExecutionParams};

use super::{
    chain_table, positions_from_choice, pruned_placement, resummed_value, solution_from_positions,
    ChainDpScratch, ChainSolution, LiChaoLine, LiChaoTree,
};
use crate::error::ScheduleError;
use crate::instance::ProblemInstance;

/// Computes the optimal checkpoint placement in `O(n log n)` by treating each
/// candidate "first checkpoint at `j`" as a line `slope(j)·t + E(j+1)` in the
/// query point `t_x` and sweeping a Li Chao tree (divide and conquer over the
/// query domain) from the end of the chain to its start.
///
/// Returns the same optimum as [`optimal_chain_schedule`](super::optimal_chain_schedule)
/// (cross-checked to `10⁻¹⁰` relative error in the tests); the checkpoint
/// positions may differ only between exactly cost-equivalent solutions.
///
/// On *saturated* instances (`λ·total work` ≳ 650, where the slope/query
/// decomposition overflows `f64`) this falls back to the pruned `O(n²)` DP,
/// which remains exact there.
///
/// # Errors
///
/// Same as [`optimal_chain_schedule`](super::optimal_chain_schedule).
pub fn optimal_chain_schedule_divide_conquer(
    instance: &ProblemInstance,
) -> Result<ChainSolution, ScheduleError> {
    let (order, table) = chain_table(instance)?;
    if table.is_saturated() {
        let placement = pruned_placement(&table, &mut ChainDpScratch::new());
        return solution_from_positions(
            instance,
            order,
            placement.checkpoint_positions,
            placement.expected_makespan,
        );
    }
    let n = order.len();

    let points: Vec<f64> = (0..n).map(|x| table.query_point(x)).collect();
    let mut domain = points.clone();
    domain.sort_by(f64::total_cmp);
    domain.dedup();
    let mut envelope = LiChaoTree::default();
    envelope.reset(&domain);

    let mut value = vec![0.0f64; n + 1];
    let mut choice = vec![0usize; n];
    for x in (0..n).rev() {
        // Candidate "first checkpoint at j = x" becomes available exactly
        // now: its intercept E(x+1) was computed in the previous step.
        envelope.insert(LiChaoLine { slope: table.slope(x), intercept: value[x + 1], id: x });
        let index = domain
            .binary_search_by(|t| t.total_cmp(&points[x]))
            .expect("query points are part of the tree domain");
        let (best, id) = envelope.query(index);
        value[x] = best - table.coefficient(x);
        choice[x] = id;
    }
    envelope.flush_counts();

    // Re-sum the reconstructed segments through the table so the reported
    // value carries the summation order of the other solvers rather than the
    // envelope's line arithmetic.
    let positions = positions_from_choice(&choice);
    let expected_makespan = resummed_value(&table, &positions);
    solution_from_positions(instance, order, positions, expected_makespan)
}

/// The Proposition 1 closed form for the segment of `work` seconds ending at
/// a checkpoint of `checkpoint` seconds, protected by `recovery`.
fn closed_form(
    instance: &ProblemInstance,
    work: f64,
    checkpoint: f64,
    recovery: f64,
) -> Result<f64, ScheduleError> {
    let params =
        ExecutionParams::new(work, checkpoint, instance.downtime(), recovery, instance.lambda())
            .map_err(ScheduleError::from_expectation)?;
    Ok(expected_time(&params))
}

/// The naive `O(n²)` bottom-up DP calling the Proposition 1 closed form (two
/// `exp` evaluations) in every cell — the formulation a direct transcription
/// of the paper produces, and the baseline of the `b1_chain_dp` bench.
///
/// # Errors
///
/// Same as [`optimal_chain_schedule`](super::optimal_chain_schedule), plus
/// the closed form's parameter errors for segments whose work rounds to zero
/// (a weight absorbed by a much larger prefix sum).
pub fn optimal_chain_schedule_reference(
    instance: &ProblemInstance,
) -> Result<ChainSolution, ScheduleError> {
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let n = order.len();

    // Prefix sums of the chain weights: prefix[k] = w_0 + … + w_{k-1}.
    let mut prefix = vec![0.0f64; n + 1];
    for (k, &task) in order.iter().enumerate() {
        prefix[k + 1] = prefix[k] + instance.weight(task);
    }
    let mut value = vec![0.0f64; n + 1];
    let mut choice = vec![0usize; n];
    for x in (0..n).rev() {
        // Recovery protecting a segment that starts at position x.
        let recovery =
            if x == 0 { instance.initial_recovery() } else { instance.recovery_cost(order[x - 1]) };
        let mut best = f64::INFINITY;
        let mut best_j = n - 1;
        for j in x..n {
            let work = prefix[j + 1] - prefix[x];
            let cost = closed_form(instance, work, instance.checkpoint_cost(order[j]), recovery)?
                + value[j + 1];
            if cost < best {
                best = cost;
                best_j = j;
            }
        }
        value[x] = best;
        choice[x] = best_j;
    }

    solution_from_positions(instance, order, positions_from_choice(&choice), value[0])
}

/// Faithful transcription of the paper's recursive `DPMAKESPAN(x, n)`
/// (Algorithm 1), with memoisation. Returns the same optimum as
/// [`optimal_chain_schedule`](super::optimal_chain_schedule).
///
/// # Errors
///
/// Same as [`optimal_chain_schedule_reference`].
pub fn optimal_chain_value_memoized(instance: &ProblemInstance) -> Result<f64, ScheduleError> {
    let order = properties::as_chain(instance.graph()).ok_or(ScheduleError::NotAChain)?;
    let n = order.len();
    let mut prefix = vec![0.0f64; n + 1];
    for (k, &task) in order.iter().enumerate() {
        prefix[k + 1] = prefix[k] + instance.weight(task);
    }
    let mut memo: Vec<Option<f64>> = vec![None; n + 1];

    // Proposition 1 applied to positions x..=j (0-based), recovering with the
    // checkpoint of position x-1 (or the initial state).
    struct Ctx<'a> {
        instance: &'a ProblemInstance,
        order: &'a [ckpt_dag::TaskId],
        prefix: &'a [f64],
    }
    impl Ctx<'_> {
        fn segment(&self, x: usize, j: usize) -> Result<f64, ScheduleError> {
            let recovery = if x == 0 {
                self.instance.initial_recovery()
            } else {
                self.instance.recovery_cost(self.order[x - 1])
            };
            let work = self.prefix[j + 1] - self.prefix[x];
            closed_form(self.instance, work, self.instance.checkpoint_cost(self.order[j]), recovery)
        }
    }
    fn dp(
        x: usize,
        n: usize,
        ctx: &Ctx<'_>,
        memo: &mut Vec<Option<f64>>,
    ) -> Result<f64, ScheduleError> {
        if x == n {
            return Ok(0.0);
        }
        if let Some(v) = memo[x] {
            return Ok(v);
        }
        // The paper's `best` initialisation: execute everything remaining and
        // checkpoint only after the last task.
        let mut best = ctx.segment(x, n - 1)?;
        // Try checkpointing first after position j, for j < n - 1.
        for j in x..n - 1 {
            let cur = ctx.segment(x, j)? + dp(j + 1, n, ctx, memo)?;
            if cur < best {
                best = cur;
            }
        }
        memo[x] = Some(best);
        Ok(best)
    }

    let ctx = Ctx { instance, order: &order, prefix: &prefix };
    dp(0, n, &ctx, &mut memo)
}
