//! Task-graph (DAG) substrate for checkpoint scheduling of computational
//! workflows.
//!
//! The paper's framework (§2) takes as input an application task graph
//! `G = (V, E)` whose nodes are tasks weighted by their computational weight
//! `w_i` and whose edges are dependence constraints. This crate provides that
//! substrate, built from scratch:
//!
//! * [`TaskGraph`] — an immutable, compact DAG (task weights, optional names,
//!   successor and predecessor lists in compressed sparse row form), built by
//!   a [`TaskGraphBuilder`] whose `build` checks duplicates and acyclicity in
//!   one `O(n + E)` pass;
//! * [`topo`] — topological orders (single, random, exhaustive enumeration for
//!   small graphs), needed because the paper's "full parallelism" assumption
//!   turns scheduling into the choice of a linearisation (§2);
//! * [`traversal`] — the transitive closure and the incremental
//!   [`traversal::LiveSetSweep`] used by the general checkpoint-cost extension
//!   of §6 (the "live" task set);
//! * [`neighborhood`] — precedence-preserving moves between topological
//!   orders (adjacent swaps, window rotations), the building blocks of
//!   `ckpt-core`'s order search;
//! * [`properties`] — chain/independence detection, critical path, depth,
//!   width: the structural special cases the paper's results attach to;
//! * [`subgraph`] — remaining-graph extraction
//!   ([`subgraph::suffix_subgraph`]): the induced graph over the unexecuted
//!   suffix of a linearisation plus the frontier's live-set seed, what the
//!   online DAG policies re-linearise after a failure;
//! * [`generators`] — workload generators (linear chains, independent sets,
//!   fork-join, layered random DAGs, trees, diamonds) used by the test suite
//!   and the experiment harness;
//! * [`linearize`] — linearisation strategies that turn an arbitrary DAG into
//!   an execution order compatible with its dependences.
//!
//! # Example
//!
//! ```rust
//! use ckpt_dag::{TaskGraph, TaskGraphBuilder, generators, properties};
//!
//! // A 4-task linear chain T1 -> T2 -> T3 -> T4 with unit weights.
//! let chain = generators::chain(&[1.0, 1.0, 1.0, 1.0])?;
//! assert_eq!(chain.task_count(), 4);
//! assert!(properties::as_chain(&chain).is_some());
//!
//! // A custom graph.
//! let mut builder = TaskGraphBuilder::new();
//! let a = builder.add_named_task("prepare", 10.0)?;
//! let b = builder.add_named_task("solve", 100.0)?;
//! builder.add_dependency(a, b)?;
//! let g: TaskGraph = builder.build()?;
//! assert_eq!(g.total_weight(), 110.0);
//! assert_eq!(g.name(b), "solve");
//! # Ok::<(), ckpt_dag::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod linearize;
pub mod neighborhood;
pub mod properties;
pub mod subgraph;
pub mod topo;
pub mod traversal;

pub use error::GraphError;
pub use graph::{TaskGraph, TaskGraphBuilder, TaskId};
pub use linearize::LinearizationStrategy;
