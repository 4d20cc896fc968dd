//! Deterministic observability for the checkpoint-scheduling workspace.
//!
//! The workspace's engines promise bit-identical results at any thread count;
//! an observability layer bolted on afterwards must not be the thing that
//! breaks the promise. `ckpt-telemetry` is therefore built determinism-first:
//!
//! * **Metrics** ([`MetricsRegistry`], [`LogHistogram`]): counters, gauges
//!   and log-bucketed histograms whose shard merges are *exact* — fixed
//!   bucket boundaries, `u64` bucket counts, no floating-point running sums.
//!   Give each worker its own registry and fold the shards back in chunk
//!   order (the `chunked_map_with` pattern); the merged state is bitwise
//!   identical at 1, 2, 3 or 8 threads.
//! * **Static counters** ([`StaticCounter`]): `const`-constructible relaxed
//!   atomics for hot solver paths (DP candidate pruning, Li Chao tree
//!   activity, suffix reuse) where threading a registry through the call
//!   graph would contaminate signatures. Observation-only, commutative adds.
//! * **Tracing** ([`TraceEvent`], [`TelemetrySink`]): structured
//!   events with an explicit [`TimeDomain`] — engine events stamp
//!   *simulated* time and are part of the deterministic output surface
//!   (digestable via [`DigestSink`]); service-tier events stamp wall time in
//!   a clearly separated non-deterministic domain. Sinks are pluggable
//!   ([`NoopSink`], [`RingBufferSink`], [`JsonlSink`], [`TeeSink`]) and the
//!   no-op default costs a single branch.
//! * **Exposition** ([`prometheus_text`],
//!   [`MetricsRegistry::to_json`]): Prometheus-style text and flat JSON,
//!   byte-deterministic for deterministic registry state.
//!
//! This crate has **zero dependencies** so every other workspace crate can
//! record into it without cycles.
//!
//! # Example
//!
//! ```rust
//! use ckpt_telemetry::{DigestSink, MetricsRegistry, TelemetrySink, TraceEvent};
//!
//! let mut shard_a = MetricsRegistry::new();
//! let mut shard_b = MetricsRegistry::new();
//! shard_a.counter_add("trials_total", 2);
//! shard_b.counter_add("trials_total", 3);
//! shard_a.observe("makespan", 1250.0);
//! shard_b.observe("makespan", 980.0);
//!
//! let mut merged = MetricsRegistry::new();
//! merged.merge_from(&shard_a)?;
//! merged.merge_from(&shard_b)?;
//! assert_eq!(merged.counter("trials_total"), 5);
//! assert_eq!(merged.histogram("makespan").unwrap().count(), 2);
//!
//! let mut digest = DigestSink::new();
//! digest.record(&TraceEvent::sim("repair", 321.5).with("machine", 2usize));
//! assert_eq!(digest.hex().len(), 16);
//! # Ok::<(), ckpt_telemetry::TelemetryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod counters;
mod export;
pub mod json;
pub mod metrics;
pub mod trace;

pub use counters::StaticCounter;
pub use export::prometheus_text;
pub use metrics::{HistogramSpec, LogHistogram, MetricView, MetricsRegistry, TelemetryError};
pub use trace::{
    wall_seconds, DigestSink, FieldValue, JsonlSink, NoopSink, RingBufferSink, TeeSink,
    TelemetrySink, TimeDomain, TraceEvent,
};
