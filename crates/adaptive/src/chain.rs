//! The positional chain data every online policy plans against.

use std::sync::Arc;

use ckpt_expectation::sweep::LambdaSweep;
use ckpt_simulator::ChainTask;

use crate::error::AdaptiveError;

/// One linear chain in both representations the online subsystem needs:
///
/// * **simulator form** — a [`ChainTask`] per position (work, the cost of
///   checkpointing after it, the cost of recovering *from* that checkpoint)
///   plus the initial recovery `R₀` and the downtime `D`, consumed by
///   [`ckpt_simulator::simulate_policy`];
/// * **planner form** — a [`LambdaSweep`] over the same positions in the
///   protecting-recovery convention of
///   [`SegmentCostTable`](ckpt_expectation::segment_cost::SegmentCostTable)
///   (position `x` protected by the recovery of position `x − 1`, `R₀` at
///   `x = 0`), so a policy can instantiate the chain's cost table **at any
///   failure-rate estimate** without re-validating or re-copying the
///   λ-independent data — that is what makes mid-execution re-plans cheap.
///
/// Built once per chain ([`ChainSpec::new`]) and shared by every policy and
/// every Monte-Carlo trial (cloning shares the heavy vectors by `Arc`).
#[derive(Debug, Clone)]
pub struct ChainSpec {
    tasks: Arc<Vec<ChainTask>>,
    /// `prefix[k] = w_0 + … + w_{k−1}` (`n + 1` values).
    prefix: Arc<Vec<f64>>,
    mean_checkpoint_cost: f64,
    initial_recovery: f64,
    downtime: f64,
    sweep: LambdaSweep,
}

impl ChainSpec {
    /// Builds the spec from per-position data: `weights[i]` is the work of
    /// the task at position `i`, `checkpoints[i]` the cost of checkpointing
    /// right after it, and `recoveries[i]` the cost of recovering **from
    /// that task's checkpoint**.
    ///
    /// # Errors
    ///
    /// Returns an [`AdaptiveError`] if any weight is not strictly positive,
    /// any cost is negative, or `downtime`/`initial_recovery` is negative.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or are empty (a
    /// programming error, not a data error).
    pub fn new(
        weights: &[f64],
        checkpoints: &[f64],
        recoveries: &[f64],
        initial_recovery: f64,
        downtime: f64,
    ) -> Result<Self, AdaptiveError> {
        let n = weights.len();
        assert!(n > 0, "the chain needs at least one task");
        assert_eq!(checkpoints.len(), n, "one checkpoint cost per task");
        assert_eq!(recoveries.len(), n, "one recovery cost per task");
        if !initial_recovery.is_finite() || initial_recovery < 0.0 {
            return Err(AdaptiveError::NonPositiveParameter {
                name: "initial_recovery",
                value: initial_recovery,
            });
        }

        let tasks: Vec<ChainTask> = (0..n)
            .map(|i| ChainTask::new(weights[i], checkpoints[i], recoveries[i]))
            .collect::<Result<_, _>>()?;

        // Protecting-recovery convention for the planner: position 0 is
        // protected by R₀, position x > 0 by the recovery of position x − 1.
        let mut protecting = Vec::with_capacity(n);
        protecting.push(initial_recovery);
        protecting.extend(recoveries.iter().take(n - 1).copied());
        let sweep = LambdaSweep::new(downtime, weights, checkpoints, &protecting)?;

        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        for &w in weights {
            prefix.push(prefix[prefix.len() - 1] + w);
        }
        let mean_checkpoint_cost = checkpoints.iter().sum::<f64>() / n as f64;

        Ok(ChainSpec {
            tasks: Arc::new(tasks),
            prefix: Arc::new(prefix),
            mean_checkpoint_cost,
            initial_recovery,
            downtime,
            sweep,
        })
    }

    /// The number of tasks in the chain.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the chain is empty (never true: construction requires at
    /// least one task).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The simulator view of the chain.
    pub fn tasks(&self) -> &[ChainTask] {
        &self.tasks
    }

    /// The initial recovery `R₀`.
    pub fn initial_recovery(&self) -> f64 {
        self.initial_recovery
    }

    /// The downtime `D`.
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// The total work of the chain.
    pub fn total_work(&self) -> f64 {
        *self.prefix.last().expect("prefix always has n + 1 entries")
    }

    /// The work of positions `start..=end` (prefix-sum difference).
    pub fn work_between(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end && end < self.len());
        self.prefix[end + 1] - self.prefix[start]
    }

    /// The mean per-task checkpoint cost (what the Young baseline's period
    /// is computed from).
    pub fn mean_checkpoint_cost(&self) -> f64 {
        self.mean_checkpoint_cost
    }

    /// The planner view: the chain's λ-batched cost tables.
    pub fn sweep(&self) -> &LambdaSweep {
        &self.sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::ProblemInstance;
    use ckpt_dag::{generators, properties};

    fn instance() -> ProblemInstance {
        let graph = generators::chain(&[400.0, 100.0, 900.0, 250.0]).unwrap();
        ProblemInstance::builder(graph)
            .checkpoint_costs(vec![60.0, 10.0, 45.0, 30.0])
            .recovery_costs(vec![15.0, 60.0, 20.0, 10.0])
            .initial_recovery(25.0)
            .downtime(30.0)
            .platform_lambda(1e-4)
            .build()
            .unwrap()
    }

    #[test]
    fn spec_carries_both_views() {
        let spec = ChainSpec::new(
            &[400.0, 100.0, 900.0, 250.0],
            &[60.0, 10.0, 45.0, 30.0],
            &[15.0, 60.0, 20.0, 10.0],
            25.0,
            30.0,
        )
        .unwrap();
        assert_eq!(spec.len(), 4);
        assert!(!spec.is_empty());
        assert_eq!(spec.tasks()[2].work(), 900.0);
        assert_eq!(spec.tasks()[2].checkpoint(), 45.0);
        assert_eq!(spec.tasks()[2].recovery(), 20.0);
        assert_eq!(spec.initial_recovery(), 25.0);
        assert_eq!(spec.downtime(), 30.0);
        assert_eq!(spec.total_work(), 1650.0);
        assert_eq!(spec.work_between(1, 2), 1000.0);
        assert!((spec.mean_checkpoint_cost() - 36.25).abs() < 1e-12);
        // The planner view agrees with the core evaluator's table.
        let table = spec.sweep().table_for(1e-4).unwrap();
        let inst = instance();
        let order = properties::as_chain(inst.graph()).unwrap();
        let core_table = ckpt_core::evaluate::segment_cost_table(&inst, &order).unwrap();
        for x in 0..4 {
            for j in x..4 {
                assert_eq!(table.cost(x, j), core_table.cost(x, j), "cost({x}, {j})");
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ChainSpec::new(&[1.0], &[0.0], &[0.0], -1.0, 0.0).is_err());
        assert!(ChainSpec::new(&[0.0], &[0.0], &[0.0], 0.0, 0.0).is_err());
        assert!(ChainSpec::new(&[1.0], &[0.0], &[0.0], 0.0, -1.0).is_err());
    }
}
