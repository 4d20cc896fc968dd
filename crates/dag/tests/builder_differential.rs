//! The one-pass [`TaskGraphBuilder`] against the eager graph it replaced.
//!
//! The reference below is that graph: `Vec<Vec>` adjacency, every edge
//! checked on insertion, a cycle found by a reachability search from the
//! new edge's head. Random operation sequences carry injected offences
//! (hostile weights, unknown ids, self-loops, duplicates, back edges). With
//! at most one offence the builder must give the reference's graph (weights,
//! names, ordered successor and predecessor lists) or an error of the same
//! variant; with more it may return any typed error but must never panic.
//! Every generator, and the edge-list parser, must give the reference's
//! graph too.

use ckpt_dag::{edge_list, generators, topo, GraphError, TaskGraph, TaskGraphBuilder, TaskId};
use proptest::prelude::*;

/// The eager graph the builder replaced.
#[derive(Debug, Default)]
struct Reference {
    names: Vec<String>,
    weights: Vec<f64>,
    successors: Vec<Vec<TaskId>>,
    predecessors: Vec<Vec<TaskId>>,
}

impl Reference {
    fn add_task(&mut self, name: Option<&str>, weight: f64) -> Result<TaskId, GraphError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        let id = TaskId(self.weights.len());
        self.names.push(name.map_or_else(|| format!("T{}", id.0 + 1), str::to_owned));
        self.weights.push(weight);
        self.successors.push(Vec::new());
        self.predecessors.push(Vec::new());
        Ok(id)
    }

    fn add_dependency(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        for task in [from, to] {
            if task.0 >= self.weights.len() {
                return Err(GraphError::UnknownTask { task });
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop { task: from });
        }
        if self.successors[from.0].contains(&to) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
        if self.reaches(to, from) {
            return Err(GraphError::CycleDetected { from, to });
        }
        self.successors[from.0].push(to);
        self.predecessors[to.0].push(from);
        Ok(())
    }

    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        let mut visited = vec![false; self.weights.len()];
        let mut stack = vec![from];
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            for &succ in &self.successors[node.0] {
                if !std::mem::replace(&mut visited[succ.0], true) {
                    stack.push(succ);
                }
            }
        }
        false
    }
}

/// Whether `graph` holds exactly the reference's tasks and ordered lists.
fn same_graph(graph: &TaskGraph, reference: &Reference) -> Result<(), String> {
    let n = reference.weights.len();
    let names: Vec<String> = graph.task_ids().map(|t| graph.name(t).into_owned()).collect();
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let lists = |f: &dyn Fn(TaskId) -> Vec<TaskId>| (0..n).map(|i| f(TaskId(i))).collect();
    let successors: Vec<Vec<TaskId>> = lists(&|t| graph.successors(t).to_vec());
    let predecessors: Vec<Vec<TaskId>> = lists(&|t| graph.predecessors(t).to_vec());
    let edges: usize = reference.successors.iter().map(Vec::len).sum();
    if graph.task_count() != n
        || bits(graph.weights()) != bits(&reference.weights)
        || names != reference.names
        || successors != reference.successors
        || predecessors != reference.predecessors
        || graph.edge_count() != edges
    {
        return Err(format!("builder graph {graph:?} differs from reference {reference:?}"));
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Op {
    Task(Option<String>, f64),
    Edge(TaskId, TaskId),
}

/// A SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

const VALID_WEIGHTS: [f64; 6] = [5e-324, 1e-3, 1.0, 2.5, 7_200.0, 1e300];
const HOSTILE_WEIGHTS: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0];

/// A valid DAG's operation sequence with `offences` injected offences.
fn operations(rng: &mut Rng, offences: usize) -> Vec<Op> {
    let tasks = rng.below(10);
    let mut ops = Vec::new();
    let mut edges = Vec::new();
    for v in 0..tasks {
        let name = match rng.below(4) {
            0 => None,
            1 => Some(format!("T{}", v + 1)),
            2 => Some(rng.pick(&["T0", "T01", "t1", "T+1", "task"]).to_string()),
            _ => Some(format!("n{}", rng.below(100))),
        };
        ops.push(Op::Task(name, rng.pick(&VALID_WEIGHTS)));
        for u in 0..v {
            if rng.below(3) == 0 {
                ops.push(Op::Edge(TaskId(u), TaskId(v)));
                edges.push((TaskId(u), TaskId(v)));
            }
        }
    }
    for _ in 0..offences {
        let at = rng.below(ops.len() + 1);
        let known = ops[..at].iter().filter(|op| matches!(op, Op::Task(..))).count();
        let offence = match rng.below(6) {
            0 => Op::Task(None, rng.pick(&HOSTILE_WEIGHTS)),
            1 => {
                let ghost = rng.pick(&[TaskId(usize::MAX), TaskId(known), TaskId(known + 3)]);
                let other = TaskId(rng.below(known.max(1)));
                if rng.below(2) == 0 {
                    Op::Edge(ghost, other)
                } else {
                    Op::Edge(other, ghost)
                }
            }
            2 if known > 0 => {
                let t = TaskId(rng.below(known));
                Op::Edge(t, t)
            }
            3 if !edges.is_empty() => {
                // A copy of an edge, placed after the original.
                let (from, to) = rng.pick(&edges);
                let original = ops
                    .iter()
                    .position(|op| matches!(op, Op::Edge(f, t) if (*f, *t) == (from, to)))
                    .expect("the edge is in the sequence");
                let at = original + 1 + rng.below(ops.len() - original);
                ops.insert(at, Op::Edge(from, to));
                continue;
            }
            _ if known > 1 => {
                // A back edge: closes a cycle only if a path runs forward.
                let u = rng.below(known - 1);
                let v = u + 1 + rng.below(known - 1 - u);
                Op::Edge(TaskId(v), TaskId(u))
            }
            _ => Op::Task(None, f64::NAN),
        };
        ops.insert(at, offence);
    }
    ops
}

/// Replays `ops` into the reference without stopping: the first error, and
/// how many operations it rejected in all.
fn replay_reference(ops: &[Op]) -> (Reference, Option<GraphError>, usize) {
    let mut reference = Reference::default();
    let mut first = None;
    let mut rejected = 0;
    for op in ops {
        let outcome = match op {
            Op::Task(name, weight) => reference.add_task(name.as_deref(), *weight).map(drop),
            Op::Edge(from, to) => reference.add_dependency(*from, *to),
        };
        if let Err(err) = outcome {
            rejected += 1;
            first.get_or_insert(err);
        }
    }
    (reference, first, rejected)
}

/// Replays `ops` into a builder, stopping at the first error.
fn replay_builder(ops: &[Op]) -> Result<TaskGraph, GraphError> {
    let mut builder = TaskGraphBuilder::new();
    for op in ops {
        match op {
            Op::Task(None, weight) => builder.add_task(*weight).map(drop)?,
            Op::Task(Some(name), weight) => builder.add_named_task(name, *weight).map(drop)?,
            Op::Edge(from, to) => builder.add_dependency(*from, *to)?,
        }
    }
    builder.build()
}

fn same_variant(a: &GraphError, b: &GraphError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_500))]

    #[test]
    fn builder_matches_the_eager_reference(seed in any::<u64>(), offences in 0usize..4) {
        let ops = operations(&mut Rng(seed), offences);
        let (reference, first_error, rejected) = replay_reference(&ops);
        let built = replay_builder(&ops);
        if let Ok(graph) = &built {
            // Whatever else happens, a built graph is a DAG.
            prop_assert!(topo::is_topological_order(graph, &topo::topological_sort(graph)));
        }
        if rejected <= 1 {
            match (&built, &first_error) {
                (Ok(graph), None) => {
                    if let Err(diff) = same_graph(graph, &reference) {
                        prop_assert!(false, "{diff}; ops {ops:?}");
                    }
                }
                (Err(got), Some(want)) => {
                    prop_assert!(same_variant(got, want), "{got:?} vs {want:?}; ops {ops:?}");
                }
                _ => prop_assert!(false, "{built:?} vs {first_error:?}; ops {ops:?}"),
            }
        }
    }
}

#[test]
fn offence_classes_are_all_exercised() {
    // The property above is only as strong as its inputs: every offence
    // kind must reach it alone, and multi-offence sequences must occur.
    let mut seen = [0usize; 5];
    let mut single = 0;
    let mut multiple = 0;
    for seed in 0..3_000u64 {
        let ops = operations(&mut Rng(seed), (seed % 4) as usize);
        let (_, first, rejected) = replay_reference(&ops);
        match rejected {
            0 => {}
            1 => single += 1,
            _ => multiple += 1,
        }
        if rejected == 1 {
            seen[match first.expect("one rejection") {
                GraphError::InvalidWeight { .. } => 0,
                GraphError::UnknownTask { .. } => 1,
                GraphError::SelfLoop { .. } => 2,
                GraphError::DuplicateEdge { .. } => 3,
                GraphError::CycleDetected { .. } => 4,
                GraphError::EmptyGraph => unreachable!("no operation reports it"),
            }] += 1;
        }
    }
    assert!(seen.iter().all(|&count| count >= 50), "single offences by kind: {seen:?}");
    assert!(single >= 500 && multiple >= 200, "single {single}, multiple {multiple}");
}

/// Replays a generator's construction into the reference.
fn reference_of(
    names: Vec<Option<String>>,
    weights: &[f64],
    edges: &[(usize, usize)],
) -> Reference {
    let mut reference = Reference::default();
    for (name, &w) in names.iter().zip(weights) {
        reference.add_task(name.as_deref(), w).unwrap();
    }
    for &(from, to) in edges {
        reference.add_dependency(TaskId(from), TaskId(to)).unwrap();
    }
    reference
}

fn check(graph: &TaskGraph, reference: &Reference) {
    same_graph(graph, reference).unwrap();
    // The edge-list format round-trips through the parser as through the
    // reference fed the same lines.
    let text = edge_list::to_edge_list(graph);
    let mut parsed = Reference::default();
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts[0] {
            "task" => drop(parsed.add_task(Some(parts[1]), parts[2].parse().unwrap()).unwrap()),
            _ => parsed
                .add_dependency(
                    TaskId(parts[1].parse().unwrap()),
                    TaskId(parts[2].parse().unwrap()),
                )
                .unwrap(),
        }
    }
    same_graph(&edge_list::from_edge_list(&text).unwrap(), &parsed).unwrap();
}

#[test]
fn generators_match_the_reference() {
    let w: Vec<f64> = (0..9).map(|i| 1.0 + i as f64 * 0.5).collect();
    let unnamed = |n: usize| vec![None; n];
    let named = |names: Vec<String>| names.into_iter().map(Some).collect::<Vec<_>>();
    let path: Vec<(usize, usize)> = (1..9).map(|i| (i - 1, i)).collect();

    check(&generators::chain(&w).unwrap(), &reference_of(unnamed(9), &w, &path));
    check(&generators::uniform_chain(9, 2.0).unwrap(), &reference_of(unnamed(9), &[2.0; 9], &path));
    check(&generators::independent(&w).unwrap(), &reference_of(unnamed(9), &w, &[]));
    check(
        &generators::uniform_independent(4, 3.0).unwrap(),
        &reference_of(unnamed(4), &[3.0; 4], &[]),
    );

    let mut fork_names = vec!["fork".to_string()];
    fork_names.extend((1..=7).map(|i| format!("branch{i}")));
    fork_names.push("join".to_string());
    let fork_weights = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 0.25];
    let mut fork_edges: Vec<(usize, usize)> = (1..=7).map(|b| (0, b)).collect();
    fork_edges.extend((1..=7).map(|b| (b, 8)));
    check(
        &generators::fork_join(7, &fork_weights[1..8], 0.5, 0.25).unwrap(),
        &reference_of(named(fork_names), &fork_weights, &fork_edges),
    );

    let diamond_names = named(["a", "b", "c", "d"].map(String::from).to_vec());
    check(
        &generators::diamond([1.0, 2.0, 3.0, 4.0]).unwrap(),
        &reference_of(diamond_names, &[1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]),
    );

    // A complete out-tree numbers its tasks breadth first.
    let (depth, fanout) = (4usize, 3usize);
    let size = (0..depth).map(|d| fanout.pow(d as u32)).sum::<usize>();
    let tree_edges: Vec<(usize, usize)> = (1..size).map(|k| ((k - 1) / fanout, k)).collect();
    check(
        &generators::out_tree(depth, fanout, 1.5).unwrap(),
        &reference_of(
            named((0..size).map(|k| format!("n{k}")).collect()),
            &vec![1.5; size],
            &tree_edges,
        ),
    );

    // Layered DAGs: the same coin stream drives the generator and a
    // transcription of its edge rule.
    for seed in 0..20u64 {
        let layers: Vec<usize> = {
            let mut rng = Rng(seed);
            (0..2 + rng.below(4)).map(|_| 1 + rng.below(6)).collect()
        };
        let weight = |level: usize, idx: usize| 1.0 + level as f64 + idx as f64 * 0.25;
        let coin = |state: &mut Rng| (state.next() >> 11) as f64 / (1u64 << 53) as f64;
        let mut stream = Rng(1_000 + seed);
        let graph =
            generators::layered_random(&layers, weight, 0.35, || coin(&mut stream)).unwrap();

        let mut stream = Rng(1_000 + seed);
        let (mut names, mut weights, mut edges) = (Vec::new(), Vec::new(), Vec::new());
        let mut previous: Vec<usize> = Vec::new();
        for (level, &count) in layers.iter().enumerate() {
            let current: Vec<usize> = (weights.len()..weights.len() + count).collect();
            for idx in 0..count {
                names.push(Some(format!("L{level}N{idx}")));
                weights.push(weight(level, idx));
            }
            if level > 0 {
                for &to in &current {
                    let before = edges.len();
                    edges.extend(
                        previous
                            .iter()
                            .filter(|_| coin(&mut stream) < 0.35)
                            .map(|&from| (from, to)),
                    );
                    if edges.len() == before {
                        edges.push((previous[to % previous.len()], to));
                    }
                }
            }
            previous = current;
        }
        check(&graph, &reference_of(names, &weights, &edges));
    }
}
