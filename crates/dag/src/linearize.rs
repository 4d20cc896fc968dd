//! Linearisation strategies.
//!
//! The paper's full-parallelism assumption (§2) reduces scheduling to choosing
//! an order in which to execute the tasks sequentially (each task using the
//! whole platform), "always enforcing all dependences". For a linear chain
//! there is a single valid order; for general DAGs the choice of order matters
//! and Proposition 2 shows that making it optimally (together with the
//! checkpoint decisions) is strongly NP-complete. The strategies below are the
//! deterministic orderings the heuristics in `ckpt-core` start from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{TaskGraph, TaskId};
use crate::topo::{is_topological_order, random_topological_order};

/// How to turn a DAG into a sequential execution order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LinearizationStrategy {
    /// Kahn's algorithm with smallest-id tie-breaking (deterministic,
    /// insertion order for independent tasks).
    #[default]
    IdOrder,
    /// Among ready tasks, execute the heaviest first (Longest Processing
    /// Time first restricted to ready tasks).
    HeaviestFirst,
    /// Among ready tasks, execute the lightest first.
    LightestFirst,
    /// Among ready tasks, execute the one with the largest remaining
    /// descendant weight first (critical-path-style priority).
    CriticalPathFirst,
    /// Random topological order driven by the given seed (reproducible).
    Random(u64),
}

impl std::fmt::Display for LinearizationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearizationStrategy::IdOrder => write!(f, "id-order"),
            LinearizationStrategy::HeaviestFirst => write!(f, "heaviest-first"),
            LinearizationStrategy::LightestFirst => write!(f, "lightest-first"),
            LinearizationStrategy::CriticalPathFirst => write!(f, "critical-path-first"),
            LinearizationStrategy::Random(seed) => write!(f, "random(seed={seed})"),
        }
    }
}

/// Produces a linearisation of `graph` following `strategy`.
///
/// The result is always a valid topological order (verified in debug builds).
pub fn linearize(graph: &TaskGraph, strategy: LinearizationStrategy) -> Vec<TaskId> {
    let order = match strategy {
        LinearizationStrategy::IdOrder => priority_order(graph, |_, id| usize::MAX - id.0),
        LinearizationStrategy::HeaviestFirst => {
            priority_order(graph, |g, id| float_priority(g.weight(id)))
        }
        LinearizationStrategy::LightestFirst => {
            priority_order(graph, |g, id| usize::MAX - float_priority(g.weight(id)))
        }
        LinearizationStrategy::CriticalPathFirst => {
            let downstream = downstream_weight(graph);
            priority_order(graph, move |g, id| float_priority(downstream[id.0] + g.weight(id)))
        }
        LinearizationStrategy::Random(seed) => {
            // A tiny SplitMix64 step, local to this module, keeps the crate
            // free of RNG dependencies while giving reproducible orders.
            let mut state = seed;
            random_topological_order(graph, move |len| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % len
            })
        }
    };
    debug_assert!(is_topological_order(graph, &order));
    order
}

/// Total weight of the proper descendants of each task.
fn downstream_weight(graph: &TaskGraph) -> Vec<f64> {
    let order = crate::topo::topological_sort(graph);
    let mut downstream = vec![0.0f64; graph.task_count()];
    for &task in order.iter().rev() {
        // Sum over direct successors of (their weight + their downstream).
        // This over-counts shared descendants, which is fine for a priority.
        downstream[task.0] =
            graph.successors(task).iter().map(|&s| graph.weight(s) + downstream[s.0]).sum();
    }
    downstream
}

/// Maps a non-negative float to an ordered integer priority (larger is higher).
fn float_priority(w: f64) -> usize {
    // Weights are validated positive and finite; scale preserves ordering for
    // the ranges used in experiments.
    (w * 1e6) as usize
}

/// Kahn's algorithm where, among ready tasks, the one with the highest
/// priority is executed first (ties broken by smallest id). Each task's
/// priority is computed once, when it becomes ready; the ready set is a
/// binary heap, so the order costs `O((n + E) log n)`.
fn priority_order<P>(graph: &TaskGraph, priority: P) -> Vec<TaskId>
where
    P: Fn(&TaskGraph, TaskId) -> usize,
{
    let n = graph.task_count();
    let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
    let key = |t: TaskId| (priority(graph, t), Reverse(t.0));
    let mut ready: BinaryHeap<(usize, Reverse<usize>)> =
        (0..n).map(TaskId).filter(|&t| in_degree[t.0] == 0).map(key).collect();
    let mut order = Vec::with_capacity(n);
    while let Some((_, Reverse(index))) = ready.pop() {
        let task = TaskId(index);
        order.push(task);
        for &succ in graph.successors(task) {
            in_degree[succ.0] -= 1;
            if in_degree[succ.0] == 0 {
                ready.push(key(succ));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn id_order_on_independent_tasks_is_insertion_order() {
        let g = generators::independent(&[3.0, 1.0, 2.0]).unwrap();
        let order = linearize(&g, LinearizationStrategy::IdOrder);
        assert_eq!(order, vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn heaviest_first_on_independent_tasks_sorts_by_weight() {
        let g = generators::independent(&[3.0, 1.0, 2.0]).unwrap();
        let order = linearize(&g, LinearizationStrategy::HeaviestFirst);
        assert_eq!(order, vec![TaskId(0), TaskId(2), TaskId(1)]);
    }

    #[test]
    fn lightest_first_on_independent_tasks_sorts_by_weight() {
        let g = generators::independent(&[3.0, 1.0, 2.0]).unwrap();
        let order = linearize(&g, LinearizationStrategy::LightestFirst);
        assert_eq!(order, vec![TaskId(1), TaskId(2), TaskId(0)]);
    }

    #[test]
    fn every_strategy_yields_valid_topological_order() {
        let g = generators::fork_join(4, &[4.0, 1.0, 3.0, 2.0], 1.0, 1.0).unwrap();
        for strategy in [
            LinearizationStrategy::IdOrder,
            LinearizationStrategy::HeaviestFirst,
            LinearizationStrategy::LightestFirst,
            LinearizationStrategy::CriticalPathFirst,
            LinearizationStrategy::Random(7),
            LinearizationStrategy::Random(8),
        ] {
            let order = linearize(&g, strategy);
            assert!(
                is_topological_order(&g, &order),
                "strategy {strategy} produced an invalid order"
            );
        }
    }

    #[test]
    fn chain_has_a_unique_linearization() {
        let g = generators::chain(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let expected: Vec<TaskId> = (0..4).map(TaskId).collect();
        for strategy in [
            LinearizationStrategy::IdOrder,
            LinearizationStrategy::HeaviestFirst,
            LinearizationStrategy::LightestFirst,
            LinearizationStrategy::CriticalPathFirst,
            LinearizationStrategy::Random(99),
        ] {
            assert_eq!(linearize(&g, strategy), expected);
        }
    }

    #[test]
    fn critical_path_first_prefers_branch_with_heavy_descendants() {
        // fork -> light(1) -> heavy_tail(100) ; fork -> heavy(10) -> light_tail(1)
        let mut g = crate::TaskGraphBuilder::new();
        let fork = g.add_named_task("fork", 1.0).unwrap();
        let light = g.add_named_task("light", 1.0).unwrap();
        let heavy_tail = g.add_named_task("heavy_tail", 100.0).unwrap();
        let heavy = g.add_named_task("heavy", 10.0).unwrap();
        let light_tail = g.add_named_task("light_tail", 1.0).unwrap();
        g.add_dependency(fork, light).unwrap();
        g.add_dependency(light, heavy_tail).unwrap();
        g.add_dependency(fork, heavy).unwrap();
        g.add_dependency(heavy, light_tail).unwrap();
        let g = g.build().unwrap();
        let order = linearize(&g, LinearizationStrategy::CriticalPathFirst);
        // The branch leading to the 100-weight task should start first even
        // though its first task is lighter.
        let pos_light = order.iter().position(|&t| t == light).unwrap();
        let pos_heavy = order.iter().position(|&t| t == heavy).unwrap();
        assert!(pos_light < pos_heavy);
    }

    #[test]
    fn random_orders_differ_across_seeds_but_not_within() {
        let g = generators::independent(&[1.0; 8]).unwrap();
        let a = linearize(&g, LinearizationStrategy::Random(1));
        let b = linearize(&g, LinearizationStrategy::Random(1));
        let c = linearize(&g, LinearizationStrategy::Random(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_names() {
        assert_eq!(LinearizationStrategy::IdOrder.to_string(), "id-order");
        assert_eq!(LinearizationStrategy::Random(3).to_string(), "random(seed=3)");
        assert_eq!(LinearizationStrategy::default(), LinearizationStrategy::IdOrder);
    }

    /// The ready-list scans the heaps replaced, kept as the oracle: every
    /// pick scans the whole ready list (re-evaluating each priority).
    mod scan {
        use super::super::{downstream_weight, float_priority, LinearizationStrategy};
        use crate::graph::{TaskGraph, TaskId};

        pub fn topological_sort(graph: &TaskGraph) -> Vec<TaskId> {
            let n = graph.task_count();
            let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
            let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
            let mut order = Vec::with_capacity(n);
            while !ready.is_empty() {
                let pos = ready
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &id)| id)
                    .map(|(pos, _)| pos)
                    .expect("ready is non-empty");
                let node = ready.swap_remove(pos);
                order.push(TaskId(node));
                for &succ in graph.successors(TaskId(node)) {
                    in_degree[succ.0] -= 1;
                    if in_degree[succ.0] == 0 {
                        ready.push(succ.0);
                    }
                }
            }
            order
        }

        fn priority_order<P>(graph: &TaskGraph, priority: P) -> Vec<TaskId>
        where
            P: Fn(&TaskGraph, TaskId) -> usize,
        {
            let n = graph.task_count();
            let mut in_degree: Vec<usize> = (0..n).map(|i| graph.in_degree(TaskId(i))).collect();
            let mut ready: Vec<TaskId> =
                (0..n).map(TaskId).filter(|&t| in_degree[t.0] == 0).collect();
            let mut order = Vec::with_capacity(n);
            while !ready.is_empty() {
                let (pos, _) = ready
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &t)| (priority(graph, t), usize::MAX - t.0))
                    .expect("ready is non-empty");
                let task = ready.swap_remove(pos);
                order.push(task);
                for &succ in graph.successors(task) {
                    in_degree[succ.0] -= 1;
                    if in_degree[succ.0] == 0 {
                        ready.push(succ);
                    }
                }
            }
            order
        }

        pub fn linearize(graph: &TaskGraph, strategy: LinearizationStrategy) -> Vec<TaskId> {
            match strategy {
                LinearizationStrategy::IdOrder => priority_order(graph, |_, id| usize::MAX - id.0),
                LinearizationStrategy::HeaviestFirst => {
                    priority_order(graph, |g, id| float_priority(g.weight(id)))
                }
                LinearizationStrategy::LightestFirst => {
                    priority_order(graph, |g, id| usize::MAX - float_priority(g.weight(id)))
                }
                LinearizationStrategy::CriticalPathFirst => {
                    let downstream = downstream_weight(graph);
                    priority_order(graph, move |g, id| {
                        float_priority(downstream[id.0] + g.weight(id))
                    })
                }
                LinearizationStrategy::Random(_) => unreachable!("not a priority strategy"),
            }
        }
    }

    const PRIORITY_STRATEGIES: [LinearizationStrategy; 4] = [
        LinearizationStrategy::IdOrder,
        LinearizationStrategy::HeaviestFirst,
        LinearizationStrategy::LightestFirst,
        LinearizationStrategy::CriticalPathFirst,
    ];

    /// A SplitMix64 stream of uniform variates in `[0, 1)`.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Every generator, plus random layered DAGs; weights come from a small
    /// set (and differ below `float_priority`'s resolution) so priorities tie.
    fn sample_graphs() -> Vec<TaskGraph> {
        let mut unit = unit_stream(7);
        let mut weights = |n: usize| -> Vec<f64> {
            (0..n).map(|_| [1.0, 2.0, 2.0 + 1e-9, 5.0][(unit() * 4.0) as usize]).collect()
        };
        let mut graphs = vec![
            generators::chain(&weights(40)).unwrap(),
            generators::independent(&weights(60)).unwrap(),
            generators::fork_join(25, &weights(25), 3.0, 1.0).unwrap(),
            generators::diamond([2.0, 1.0, 1.0, 4.0]).unwrap(),
            generators::out_tree(4, 3, 1.5).unwrap(),
            generators::uniform_chain(9, 2.0).unwrap(),
            generators::uniform_independent(11, 2.0).unwrap(),
        ];
        for seed in 0..12u64 {
            let mut coin = unit_stream(100 + seed);
            let layers: Vec<usize> =
                (0..2 + seed as usize % 5).map(|_| 1 + (coin() * 9.0) as usize).collect();
            let mut weight = unit_stream(200 + seed);
            let g = generators::layered_random(
                &layers,
                |_, _| [1.0, 3.0, 3.0 + 1e-9][(weight() * 3.0) as usize],
                0.1 + 0.08 * seed as f64,
                coin,
            )
            .unwrap();
            graphs.push(g);
        }
        graphs
    }

    #[test]
    fn heaps_reproduce_the_ready_list_scans() {
        for (k, g) in sample_graphs().iter().enumerate() {
            assert_eq!(crate::topo::topological_sort(g), scan::topological_sort(g), "graph {k}");
            for strategy in PRIORITY_STRATEGIES {
                assert_eq!(
                    linearize(g, strategy),
                    scan::linearize(g, strategy),
                    "graph {k}, {strategy}"
                );
            }
        }
    }

    #[test]
    fn heaps_order_a_large_independent_set_by_priority_then_id() {
        let mut unit = unit_stream(13);
        let weights: Vec<f64> = (0..100_000).map(|_| 1.0 + (unit() * 50.0).floor()).collect();
        let g = generators::independent(&weights).unwrap();
        let ids: Vec<TaskId> = g.task_ids().collect();
        assert_eq!(crate::topo::topological_sort(&g), ids);
        let mut heaviest = ids;
        heaviest.sort_by_key(|&t| (Reverse(float_priority(g.weight(t))), t));
        assert_eq!(linearize(&g, LinearizationStrategy::HeaviestFirst), heaviest);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "the quadratic oracle is slow unoptimised")]
    fn heaps_reproduce_the_scans_on_a_large_independent_set() {
        let mut unit = unit_stream(11);
        let weights: Vec<f64> = (0..100_000).map(|_| 1.0 + (unit() * 50.0).floor()).collect();
        let g = generators::independent(&weights).unwrap();
        assert_eq!(crate::topo::topological_sort(&g), scan::topological_sort(&g));
        let strategy = LinearizationStrategy::HeaviestFirst;
        assert_eq!(linearize(&g, strategy), scan::linearize(&g, strategy));
    }
}
