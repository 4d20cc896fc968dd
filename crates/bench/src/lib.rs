//! Shared helpers for the experiment harness binaries (`src/bin/e*.rs`) and
//! the Criterion benches (`benches/b*.rs`).
//!
//! Every experiment listed in `EXPERIMENTS.md` is regenerated by one binary in
//! this crate; the helpers here keep the binaries small and their output
//! uniform (fixed-width ASCII tables that can be diffed across runs). The
//! seeded random-instance generators every test suite of the workspace
//! shares live in [`testgen`]; [`summary`] provides the `--json`
//! machine-readable output surface.

pub mod summary;
pub mod testgen;

pub use summary::JsonSummary;
pub use testgen::{
    random_chain_instance, random_independent_instance, random_layered_instance,
    wide_fork_join_instance,
};

/// Prints a table header followed by an underline row.
pub fn print_header(columns: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, width) in columns {
        line.push_str(&format!("{name:>width$} "));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Formats seconds with a thousands-friendly precision for tables.
pub fn secs(x: f64) -> String {
    if x >= 100_000.0 {
        format!("{:.3e}", x)
    } else {
        format!("{x:.1}")
    }
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(12.34), "12.3");
        assert!(secs(1.0e7).contains('e'));
        assert_eq!(pct(0.1234), "12.34%");
    }
}
