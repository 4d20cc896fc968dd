//! A simple text round-trip format for task graphs.
//!
//! The edge-list format of [`to_edge_list`] / [`from_edge_list`] gives a
//! dependency-free way to persist graphs in tests and experiment configs.

use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskGraphBuilder, TaskId};

/// Serialises the graph in a line-oriented edge-list format:
///
/// ```text
/// task <name> <weight>
/// edge <from-index> <to-index>
/// ```
///
/// Tasks appear in id order, so indices are stable across a round-trip.
pub fn to_edge_list(graph: &TaskGraph) -> String {
    let mut out = String::new();
    for id in graph.task_ids() {
        out.push_str(&format!("task {} {}\n", graph.name(id), graph.weight(id)));
    }
    for (from, to) in graph.edges() {
        out.push_str(&format!("edge {} {}\n", from.index(), to.index()));
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// # Errors
///
/// Returns [`GraphError`] variants for malformed lines, invalid weights,
/// unknown task indices, duplicate edges or cycles.
pub fn from_edge_list(text: &str) -> Result<TaskGraph, GraphError> {
    let mut graph = TaskGraphBuilder::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("task") => {
                let name = parts.next().unwrap_or("task");
                let weight: f64 = parts
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or(GraphError::InvalidWeight { weight: f64::NAN })?;
                graph.add_named_task(name, weight)?;
            }
            Some("edge") => {
                let from: usize = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(GraphError::UnknownTask { task: TaskId(usize::MAX) })?;
                let to: usize = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or(GraphError::UnknownTask { task: TaskId(usize::MAX) })?;
                graph.add_dependency(TaskId(from), TaskId(to))?;
            }
            _ => {
                return Err(GraphError::UnknownTask { task: TaskId(usize::MAX) });
            }
        }
    }
    graph.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_round_trip_preserves_structure() {
        let g = generators::fork_join(3, &[5.0, 6.0, 7.0], 1.0, 2.0).unwrap();
        let text = to_edge_list(&g);
        let parsed = from_edge_list(&text).unwrap();
        assert_eq!(parsed.task_count(), g.task_count());
        assert_eq!(parsed.edge_count(), g.edge_count());
        assert_eq!(parsed.total_weight(), g.total_weight());
        assert_eq!(parsed, g);
    }

    #[test]
    fn edge_list_round_trip_of_default_names_stores_none() {
        let g = generators::chain(&[1.0, 2.5, 3.0]).unwrap();
        assert_eq!(from_edge_list(&to_edge_list(&g)).unwrap(), g);
    }

    #[test]
    fn edge_list_parser_skips_comments_and_blank_lines() {
        let text = "# a comment\n\ntask a 1.5\ntask b 2.5\nedge 0 1\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.name(TaskId(0)), "a");
    }

    #[test]
    fn edge_list_parser_rejects_malformed_input() {
        assert!(from_edge_list("task a nope").is_err());
        assert!(from_edge_list("task a 1.0\nedge 0 x").is_err());
        assert!(from_edge_list("banana 1 2").is_err());
        assert!(from_edge_list("task a 1.0\ntask b 1.0\nedge 0 1\nedge 1 0").is_err());
        assert!(from_edge_list("task a 1.0\nedge 0 7").is_err());
    }
}
