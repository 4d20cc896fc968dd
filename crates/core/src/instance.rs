//! The scheduling problem instance (paper §2).

use ckpt_dag::{TaskGraph, TaskId};
use ckpt_expectation::exact::check_rate;

use crate::error::{ensure_non_negative, ScheduleError};

/// A complete instance of the checkpoint-scheduling problem:
///
/// * a task graph `G = (V, E)` with computational weights `w_i`,
/// * per-task checkpoint costs `C_i` (cost of checkpointing right after `T_i`),
/// * per-task recovery costs `R_i` (cost of recovering from the checkpoint
///   taken after `T_i`),
/// * an initial recovery cost `R₀` (restoring the initial state when no
///   checkpoint has been taken yet),
/// * a downtime `D`, and
/// * the platform failure rate `λ = p·λ_proc` of the Exponential failure law.
///
/// Instances are immutable once built; construct them through
/// [`ProblemInstance::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemInstance {
    graph: TaskGraph,
    checkpoint_costs: Vec<f64>,
    recovery_costs: Vec<f64>,
    initial_recovery: f64,
    downtime: f64,
    lambda: f64,
}

impl ProblemInstance {
    /// Starts building an instance over `graph`.
    pub fn builder(graph: TaskGraph) -> ProblemInstanceBuilder {
        ProblemInstanceBuilder::new(graph)
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The number of tasks.
    pub fn task_count(&self) -> usize {
        self.graph.task_count()
    }

    /// The weight `w_i` of task `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the instance.
    pub fn weight(&self, task: TaskId) -> f64 {
        self.graph.weight(task)
    }

    /// The checkpoint cost `C_i` of task `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the instance.
    pub fn checkpoint_cost(&self, task: TaskId) -> f64 {
        self.checkpoint_costs[task.0]
    }

    /// The recovery cost `R_i` of task `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the instance.
    pub fn recovery_cost(&self, task: TaskId) -> f64 {
        self.recovery_costs[task.0]
    }

    /// The initial recovery cost `R₀`.
    pub fn initial_recovery(&self) -> f64 {
        self.initial_recovery
    }

    /// The downtime `D`.
    pub fn downtime(&self) -> f64 {
        self.downtime
    }

    /// The platform failure rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The total computational weight of the instance.
    pub fn total_weight(&self) -> f64 {
        self.graph.total_weight()
    }

    /// All checkpoint costs, indexed by task id.
    pub fn checkpoint_costs(&self) -> &[f64] {
        &self.checkpoint_costs
    }

    /// All recovery costs, indexed by task id.
    pub fn recovery_costs(&self) -> &[f64] {
        &self.recovery_costs
    }

    /// Returns a copy of the instance with a different platform failure rate —
    /// convenient for λ sweeps in experiments.
    ///
    /// # Errors
    ///
    /// Returns an error if `lambda` fails the shared rate check
    /// ([`check_rate`]): it must be strictly positive with a finite `1/λ`.
    pub fn with_lambda(&self, lambda: f64) -> Result<ProblemInstance, ScheduleError> {
        let lambda =
            check_rate(lambda, self.total_weight()).map_err(ScheduleError::from_expectation)?;
        Ok(ProblemInstance { lambda, ..self.clone() })
    }
}

/// Builder for [`ProblemInstance`] (non-consuming terminal method `build`).
#[derive(Debug, Clone)]
pub struct ProblemInstanceBuilder {
    graph: TaskGraph,
    checkpoint_costs: Option<Vec<f64>>,
    recovery_costs: Option<Vec<f64>>,
    uniform_checkpoint: Option<f64>,
    uniform_recovery: Option<f64>,
    initial_recovery: f64,
    downtime: f64,
    lambda: f64,
}

impl ProblemInstanceBuilder {
    /// Creates a builder with the paper's defaults: `D = 0`, `R₀ = 0`, and a
    /// platform MTBF of one day (`λ = 1/86 400 s⁻¹`). Checkpoint and recovery
    /// costs must be supplied explicitly.
    pub fn new(graph: TaskGraph) -> Self {
        ProblemInstanceBuilder {
            graph,
            checkpoint_costs: None,
            recovery_costs: None,
            uniform_checkpoint: None,
            uniform_recovery: None,
            initial_recovery: 0.0,
            downtime: 0.0,
            lambda: 1.0 / 86_400.0,
        }
    }

    /// Uses the same checkpoint cost `c` for every task.
    pub fn uniform_checkpoint_cost(&mut self, c: f64) -> &mut Self {
        self.uniform_checkpoint = Some(c);
        self.checkpoint_costs = None;
        self
    }

    /// Uses the same recovery cost `r` for every task.
    pub fn uniform_recovery_cost(&mut self, r: f64) -> &mut Self {
        self.uniform_recovery = Some(r);
        self.recovery_costs = None;
        self
    }

    /// Uses per-task checkpoint costs, indexed by task id.
    pub fn checkpoint_costs(&mut self, costs: Vec<f64>) -> &mut Self {
        self.checkpoint_costs = Some(costs);
        self.uniform_checkpoint = None;
        self
    }

    /// Uses per-task recovery costs, indexed by task id.
    pub fn recovery_costs(&mut self, costs: Vec<f64>) -> &mut Self {
        self.recovery_costs = Some(costs);
        self.uniform_recovery = None;
        self
    }

    /// Sets the initial recovery cost `R₀` (default 0).
    pub fn initial_recovery(&mut self, r0: f64) -> &mut Self {
        self.initial_recovery = r0;
        self
    }

    /// Sets the downtime `D` (default 0).
    pub fn downtime(&mut self, d: f64) -> &mut Self {
        self.downtime = d;
        self
    }

    /// Sets the platform failure rate `λ`.
    pub fn platform_lambda(&mut self, lambda: f64) -> &mut Self {
        self.lambda = lambda;
        self
    }

    /// Sets the platform failure rate from a per-processor rate and a
    /// processor count (`λ = p·λ_proc`, paper §2).
    pub fn per_processor_lambda(&mut self, lambda_proc: f64, processors: u32) -> &mut Self {
        self.lambda = lambda_proc * f64::from(processors);
        self
    }

    /// Builds the instance, validating every parameter.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::EmptyInstance`] if the graph has no tasks;
    /// * [`ScheduleError::CostVectorLength`] if a per-task cost vector has the
    ///   wrong length;
    /// * [`ScheduleError::NegativeParameter`] /
    ///   [`ScheduleError::NonPositiveParameter`] for invalid numeric values;
    ///   checkpoint and recovery costs must be supplied (uniform or per-task);
    /// * [`ScheduleError::NonPositiveParameter`] when the rate or the total
    ///   work fails the shared rate check ([`check_rate`]): `1/λ` or the
    ///   total work is not finite.
    ///
    /// The check is order-independent. The one condition that depends on an
    /// execution order — an overflowing coefficient `e^{λR}(1/λ + D)`
    /// meeting a prefix step whose `λ·w` underflows to 0, as where a tiny
    /// weight is absorbed by a huge prefix sum — is checked where an order's
    /// segment-cost tables are built
    /// ([`segment_cost_table`](crate::evaluate::segment_cost_table)), which
    /// return the same typed error.
    pub fn build(&self) -> Result<ProblemInstance, ScheduleError> {
        let n = self.graph.task_count();
        if n == 0 {
            return Err(ScheduleError::EmptyInstance);
        }
        let checkpoint_costs = match (&self.checkpoint_costs, self.uniform_checkpoint) {
            (Some(costs), _) => {
                if costs.len() != n {
                    return Err(ScheduleError::CostVectorLength {
                        what: "checkpoint costs",
                        expected: n,
                        actual: costs.len(),
                    });
                }
                costs.clone()
            }
            (None, Some(c)) => vec![c; n],
            (None, None) => {
                return Err(ScheduleError::CostVectorLength {
                    what: "checkpoint costs",
                    expected: n,
                    actual: 0,
                })
            }
        };
        let recovery_costs = match (&self.recovery_costs, self.uniform_recovery) {
            (Some(costs), _) => {
                if costs.len() != n {
                    return Err(ScheduleError::CostVectorLength {
                        what: "recovery costs",
                        expected: n,
                        actual: costs.len(),
                    });
                }
                costs.clone()
            }
            (None, Some(r)) => vec![r; n],
            // Default: recover costs equal checkpoint costs (C = R), the most
            // common assumption in the paper's examples.
            (None, None) => checkpoint_costs.clone(),
        };
        for (i, &c) in checkpoint_costs.iter().enumerate() {
            ensure_non_negative("checkpoint cost", c)
                .map_err(|_| ScheduleError::NegativeParameter { name: "checkpoint cost", value: c })
                .map(|_| i)?;
        }
        for &r in &recovery_costs {
            ensure_non_negative("recovery cost", r)?;
        }
        Ok(ProblemInstance {
            graph: self.graph.clone(),
            checkpoint_costs,
            recovery_costs,
            initial_recovery: ensure_non_negative("initial recovery", self.initial_recovery)?,
            downtime: ensure_non_negative("downtime", self.downtime)?,
            lambda: check_rate(self.lambda, self.graph.total_weight())
                .map_err(ScheduleError::from_expectation)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dag::generators;

    fn chain3() -> TaskGraph {
        generators::chain(&[10.0, 20.0, 30.0]).unwrap()
    }

    #[test]
    fn builder_with_uniform_costs() {
        let inst = ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(5.0)
            .uniform_recovery_cost(7.0)
            .downtime(1.0)
            .initial_recovery(2.0)
            .platform_lambda(0.001)
            .build()
            .unwrap();
        assert_eq!(inst.task_count(), 3);
        assert_eq!(inst.checkpoint_cost(TaskId(1)), 5.0);
        assert_eq!(inst.recovery_cost(TaskId(2)), 7.0);
        assert_eq!(inst.downtime(), 1.0);
        assert_eq!(inst.initial_recovery(), 2.0);
        assert_eq!(inst.lambda(), 0.001);
        assert_eq!(inst.total_weight(), 60.0);
        assert_eq!(inst.weight(TaskId(2)), 30.0);
    }

    #[test]
    fn builder_with_per_task_costs() {
        let inst = ProblemInstance::builder(chain3())
            .checkpoint_costs(vec![1.0, 2.0, 3.0])
            .recovery_costs(vec![4.0, 5.0, 6.0])
            .platform_lambda(0.01)
            .build()
            .unwrap();
        assert_eq!(inst.checkpoint_costs(), &[1.0, 2.0, 3.0]);
        assert_eq!(inst.recovery_costs(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn recovery_defaults_to_checkpoint_costs() {
        let inst = ProblemInstance::builder(chain3())
            .checkpoint_costs(vec![1.0, 2.0, 3.0])
            .platform_lambda(0.01)
            .build()
            .unwrap();
        assert_eq!(inst.recovery_costs(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn builder_validates_lengths_and_values() {
        assert!(matches!(
            ProblemInstance::builder(chain3()).checkpoint_costs(vec![1.0, 2.0]).build(),
            Err(ScheduleError::CostVectorLength { .. })
        ));
        assert!(matches!(
            ProblemInstance::builder(chain3())
                .uniform_checkpoint_cost(1.0)
                .recovery_costs(vec![1.0])
                .build(),
            Err(ScheduleError::CostVectorLength { .. })
        ));
        assert!(ProblemInstance::builder(chain3()).build().is_err()); // no costs given
        assert!(ProblemInstance::builder(chain3()).uniform_checkpoint_cost(-1.0).build().is_err());
        assert!(ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(1.0)
            .downtime(-1.0)
            .build()
            .is_err());
        assert!(ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn empty_graph_is_rejected() {
        let graph = TaskGraph::default();
        assert!(matches!(
            ProblemInstance::builder(graph).uniform_checkpoint_cost(1.0).build(),
            Err(ScheduleError::EmptyInstance)
        ));
    }

    #[test]
    fn zero_checkpoint_costs_are_allowed() {
        let inst = ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(0.0)
            .platform_lambda(1e-4)
            .build()
            .unwrap();
        assert_eq!(inst.checkpoint_cost(TaskId(0)), 0.0);
    }

    #[test]
    fn per_processor_lambda_multiplies() {
        let inst = ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(1.0)
            .per_processor_lambda(1e-5, 128)
            .build()
            .unwrap();
        assert!((inst.lambda() - 128.0e-5).abs() < 1e-12);
    }

    #[test]
    fn with_lambda_replaces_rate() {
        let inst = ProblemInstance::builder(chain3())
            .uniform_checkpoint_cost(1.0)
            .platform_lambda(1e-3)
            .build()
            .unwrap();
        let swept = inst.with_lambda(1e-2).unwrap();
        assert_eq!(swept.lambda(), 1e-2);
        assert_eq!(swept.task_count(), 3);
        assert!(inst.with_lambda(-1.0).is_err());
        assert!(inst.with_lambda(5e-324).is_err());
    }

    #[test]
    fn rates_whose_closed_form_is_not_a_number_are_rejected() {
        let build = |weights: &[f64], recovery: f64, lambda: f64| {
            ProblemInstance::builder(generators::chain(weights).unwrap())
                .uniform_checkpoint_cost(0.0)
                .uniform_recovery_cost(recovery)
                .platform_lambda(lambda)
                .build()
        };
        // 1/λ overflows while λ·W underflows.
        assert!(build(&[0.1, 0.1], 0.0, 5e-324).is_err());
        // The total work overflows.
        assert!(build(&[1e308, 1e308], 0.0, 1e-3).is_err());
        // An infinite coefficient alone is a +∞ cost, not an error.
        assert!(build(&[1.0, 1.0], 1e300, 1e-3).is_ok());
        // An infinite coefficient meeting a prefix step whose λ·w underflows
        // (a subnormal weight, or 1.0 absorbed by the prefix sum 1e300)
        // depends on the order: the builder accepts the instance and the
        // chain's segment-cost table rejects it, typed.
        for weights in [[5e-324, 1.0], [1e300, 1.0]] {
            let inst = build(&weights, 1e300, 1e-3).unwrap();
            let order = ckpt_dag::properties::as_chain(inst.graph()).unwrap();
            assert!(crate::evaluate::segment_cost_table(&inst, &order).is_err());
        }
    }
}
