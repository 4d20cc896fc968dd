//! Metrics: counters, gauges and log-bucketed histograms in a named registry.
//!
//! Everything here is built around one invariant: **recording metrics never
//! perturbs results and never depends on thread interleaving**. Counters and
//! histogram buckets are plain `u64` adds (associative and commutative, so
//! per-worker shards merge to the same totals in any order); histograms have
//! *fixed* bucket boundaries derived from their [`HistogramSpec`] (never
//! rebalanced from data), so merging two shards is exact bucket-wise addition;
//! and no `f64` running sum is kept anywhere, because floating-point addition
//! is not associative and a chunk-order-dependent sum would break the
//! workspace's bit-identity-at-any-thread-count contract.
//!
//! The intended sharding pattern mirrors `ckpt_core::parallel::chunked_map_with`:
//! give each worker its own [`MetricsRegistry`], then fold the shards into the
//! main registry **in chunk order** with [`MetricsRegistry::merge_from`]. The
//! result is bitwise identical at 1, 2, 3 or 8 threads (asserted by proptests
//! in `ckpt-core`).

use std::collections::HashMap;

use crate::json::{json_number, json_string};

/// Errors from histogram construction and registry/histogram merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// A [`HistogramSpec`] parameter was out of range.
    InvalidSpec(&'static str),
    /// Two histograms (or registries holding them) could not be merged
    /// because their specs or metric kinds differ.
    MergeMismatch {
        /// The metric name (or `"<histogram>"` for a bare histogram merge).
        name: String,
    },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::InvalidSpec(what) => {
                write!(f, "invalid histogram spec: {what}")
            }
            TelemetryError::MergeMismatch { name } => {
                write!(f, "cannot merge metric {name:?}: kind or spec mismatch")
            }
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Fixed bucket layout of a [`LogHistogram`]: geometric buckets
/// `[scale·growth^i, scale·growth^(i+1))` for `i` in `0..buckets`, plus an
/// underflow bucket for values below `scale` and an overflow bucket above
/// the last boundary.
///
/// Two histograms merge exactly iff their specs are identical, so specs are
/// part of every merge check. The default spec covers `1e-3 .. 1e13` with a
/// relative bucket width of `10^(1/40) ≈ 5.9 %` — wide enough for microsecond
/// latencies and simulated-time durations alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    scale: f64,
    growth: f64,
    buckets: usize,
}

impl Default for HistogramSpec {
    fn default() -> Self {
        HistogramSpec { scale: 1e-3, growth: 10f64.powf(1.0 / 40.0), buckets: 640 }
    }
}

impl HistogramSpec {
    /// A spec with the first finite bucket starting at `scale`, geometric
    /// bucket growth factor `growth`, and `buckets` finite buckets.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidSpec`] unless `scale` is finite and positive,
    /// `growth` is finite and greater than 1, and `buckets` is nonzero.
    pub fn new(scale: f64, growth: f64, buckets: usize) -> Result<Self, TelemetryError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TelemetryError::InvalidSpec("scale must be finite and > 0"));
        }
        if !(growth.is_finite() && growth > 1.0) {
            return Err(TelemetryError::InvalidSpec("growth must be finite and > 1"));
        }
        if buckets == 0 {
            return Err(TelemetryError::InvalidSpec("need at least one bucket"));
        }
        Ok(HistogramSpec { scale, growth, buckets })
    }

    /// Start of the first finite bucket.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Geometric growth factor between consecutive bucket boundaries; also
    /// the histogram's relative quantile error bound (see
    /// [`LogHistogram::quantile`]).
    pub fn growth(&self) -> f64 {
        self.growth
    }

    /// `[lower, upper)` boundaries of finite bucket `index`.
    pub fn bucket_bounds(&self, index: usize) -> (f64, f64) {
        let lo = self.scale * self.growth.powi(index as i32);
        let hi = self.scale * self.growth.powi(index as i32 + 1);
        (lo, hi)
    }
}

/// A histogram over fixed log-spaced buckets whose shard merges are exact.
///
/// Stores only `u64` bucket counts plus the exact observed `min`/`max` —
/// deliberately **no running `f64` sum** (non-associative adds would make the
/// sum depend on chunk order and break bit-identity across thread counts).
///
/// Quantiles are answered from bucket counts: the reported value is the
/// geometric midpoint of the bucket holding the requested order statistic,
/// clamped to the observed `[min, max]`, so for any sample inside the finite
/// bucket range the reported quantile is within one bucket's relative width
/// (a multiplicative factor of [`HistogramSpec::growth`]) of the exact
/// `select_nth_unstable_by` quantile.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    spec: HistogramSpec,
    inv_ln_growth: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    invalid: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl PartialEq for LogHistogram {
    /// Bitwise state equality: bucket counts and the `min`/`max` bit patterns
    /// must match exactly. This is what the determinism walls assert.
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.buckets == other.buckets
            && self.underflow == other.underflow
            && self.overflow == other.overflow
            && self.invalid == other.invalid
            && self.count == other.count
            && self.min.to_bits() == other.min.to_bits()
            && self.max.to_bits() == other.max.to_bits()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(HistogramSpec::default())
    }
}

impl LogHistogram {
    /// An empty histogram with the given bucket layout.
    pub fn new(spec: HistogramSpec) -> Self {
        LogHistogram {
            spec,
            inv_ln_growth: 1.0 / spec.growth.ln(),
            buckets: vec![0; spec.buckets],
            underflow: 0,
            overflow: 0,
            invalid: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The fixed bucket layout.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Records one observation.
    ///
    /// Finite, non-negative values land in their log bucket (or the
    /// underflow/overflow bucket) and update the exact `min`/`max`; negative
    /// or non-finite values are counted in [`LogHistogram::invalid_count`]
    /// and otherwise ignored, so one bad sample cannot poison quantiles.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            self.invalid += 1;
            return;
        }
        let slot = self.bucket_index(value);
        match slot {
            BucketSlot::Underflow => self.underflow += 1,
            BucketSlot::Finite(i) => self.buckets[i] += 1,
            BucketSlot::Overflow => self.overflow += 1,
        }
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    fn bucket_index(&self, value: f64) -> BucketSlot {
        if value < self.spec.scale {
            return BucketSlot::Underflow;
        }
        let raw = ((value / self.spec.scale).ln() * self.inv_ln_growth).floor();
        if raw < 0.0 {
            // Rounding near the first boundary can land just below zero.
            return BucketSlot::Finite(0);
        }
        let index = raw as usize;
        if index >= self.spec.buckets {
            BucketSlot::Overflow
        } else {
            BucketSlot::Finite(index)
        }
    }

    /// Folds another histogram into this one. Exact: bucket-wise `u64`
    /// addition plus min/max of the extremes, so `merge(a, b)` equals a
    /// histogram that observed both sample streams in any order.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MergeMismatch`] when the specs differ.
    pub fn merge_from(&mut self, other: &LogHistogram) -> Result<(), TelemetryError> {
        if self.spec != other.spec {
            return Err(TelemetryError::MergeMismatch { name: "<histogram>".to_string() });
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.invalid += other.invalid;
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        Ok(())
    }

    /// Number of valid observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest valid observation, `None` while empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest valid observation, `None` while empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Per-bucket counts for the finite buckets.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the first finite bucket.
    pub fn underflow_count(&self) -> u64 {
        self.underflow
    }

    /// Observations above the last finite bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Rejected observations (negative or non-finite).
    pub fn invalid_count(&self) -> u64 {
        self.invalid
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), or `None` for an empty
    /// histogram — the edge case ad-hoc percentile helpers tend to miss.
    ///
    /// Uses the same order-statistic convention as a sorted-array lookup at
    /// `round((count − 1) · q)`. For samples inside the finite bucket range
    /// the result is within a multiplicative factor of
    /// [`HistogramSpec::growth`] of the exact quantile; ranks landing in the
    /// underflow (overflow) bucket report the exact observed min (max).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut cumulative = self.underflow;
        if rank < cumulative {
            return Some(self.min);
        }
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if rank < cumulative {
                let representative =
                    self.spec.scale * (self.spec.growth.ln() * (index as f64 + 0.5)).exp();
                return Some(representative.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

enum BucketSlot {
    Underflow,
    Finite(usize),
    Overflow,
}

/// One metric slot in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
enum MetricSlot {
    Counter(u64),
    Gauge(u64), // f64 bit pattern, so slot equality is bitwise
    Histogram(LogHistogram),
}

/// A read-only view of one registered metric, yielded by
/// [`MetricsRegistry::iter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricView<'a> {
    /// A monotonically increasing `u64` counter.
    Counter(u64),
    /// A last-write-wins `f64` gauge.
    Gauge(f64),
    /// A log-bucketed histogram.
    Histogram(&'a LogHistogram),
}

/// A named, insertion-ordered collection of counters, gauges and histograms.
///
/// Metrics are created lazily on first touch and keep their insertion order,
/// so two registries fed the same event stream are identical — including
/// their iteration (and therefore exposition) order. Registries are plain
/// values: shard one per worker, then fold the shards back
/// **in chunk order** with [`MetricsRegistry::merge_from`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    names: Vec<String>,
    index: HashMap<String, usize>,
    slots: Vec<MetricSlot>,
}

impl PartialEq for MetricsRegistry {
    /// Bitwise equality: same names in the same order with identical slot
    /// state (gauges compared by `f64` bit pattern).
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && self.slots == other.slots
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no metric has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn slot_index(&mut self, name: &str, default: MetricSlot) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.slots.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.slots.push(default);
        i
    }

    /// Adds `delta` to the named counter, creating it at zero on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a gauge or histogram.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let i = self.slot_index(name, MetricSlot::Counter(0));
        match &mut self.slots[i] {
            MetricSlot::Counter(v) => *v += delta,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Current value of the named counter (0 when absent).
    ///
    /// # Panics
    ///
    /// If `name` is registered as a gauge or histogram.
    pub fn counter(&self, name: &str) -> u64 {
        match self.index.get(name).map(|&i| &self.slots[i]) {
            None => 0,
            Some(MetricSlot::Counter(v)) => *v,
            Some(_) => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Sets the named gauge (last write wins).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a counter or histogram.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let i = self.slot_index(name, MetricSlot::Gauge(value.to_bits()));
        match &mut self.slots[i] {
            MetricSlot::Gauge(v) => *v = value.to_bits(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Records into the named histogram, creating it with the default
    /// [`HistogramSpec`] on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a counter or gauge.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_with(name, HistogramSpec::default(), value);
    }

    /// Records into the named histogram, creating it with `spec` on first
    /// use (an existing histogram keeps its original spec).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a counter or gauge.
    pub fn observe_with(&mut self, name: &str, spec: HistogramSpec, value: f64) {
        let i = self.slot_index(name, MetricSlot::Histogram(LogHistogram::new(spec)));
        match &mut self.slots[i] {
            MetricSlot::Histogram(h) => h.record(value),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// The named histogram, `None` when absent.
    ///
    /// # Panics
    ///
    /// If `name` is registered as a counter or gauge.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.index.get(name).map(|&i| &self.slots[i]) {
            None => None,
            Some(MetricSlot::Histogram(h)) => Some(h),
            Some(_) => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Folds another registry (a worker shard) into this one: counters and
    /// histogram buckets add exactly, gauges take the incoming value, and
    /// metrics new to `self` are appended in `other`'s insertion order. Call
    /// this once per shard **in chunk order** for deterministic registry
    /// state at any thread count.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MergeMismatch`] when a name is registered with
    /// different metric kinds (or histogram specs) on the two sides; `self`
    /// may be partially merged when an error is returned.
    pub fn merge_from(&mut self, other: &MetricsRegistry) -> Result<(), TelemetryError> {
        for (name, slot) in other.names.iter().zip(&other.slots) {
            let mismatch = || TelemetryError::MergeMismatch { name: name.clone() };
            match self.index.get(name) {
                None => {
                    let i = self.slots.len();
                    self.names.push(name.clone());
                    self.index.insert(name.clone(), i);
                    self.slots.push(slot.clone());
                }
                Some(&i) => match (&mut self.slots[i], slot) {
                    (MetricSlot::Counter(mine), MetricSlot::Counter(theirs)) => {
                        *mine += theirs;
                    }
                    (MetricSlot::Gauge(mine), MetricSlot::Gauge(theirs)) => *mine = *theirs,
                    (MetricSlot::Histogram(mine), MetricSlot::Histogram(theirs)) => {
                        mine.merge_from(theirs).map_err(|_| mismatch())?;
                    }
                    _ => return Err(mismatch()),
                },
            }
        }
        Ok(())
    }

    /// Iterates metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricView<'_>)> {
        self.names.iter().zip(&self.slots).map(|(name, slot)| match slot {
            MetricSlot::Counter(v) => (name.as_str(), MetricView::Counter(*v)),
            MetricSlot::Gauge(v) => (name.as_str(), MetricView::Gauge(f64::from_bits(*v))),
            MetricSlot::Histogram(h) => (name.as_str(), MetricView::Histogram(h)),
        })
    }

    /// The registry as one flat JSON object: counters and gauges as numbers,
    /// histograms expanded to `_count` / `_p50` / `_p99` / `_min` / `_max`
    /// keys. Insertion-ordered and byte-deterministic for deterministic
    /// inputs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut push = |out: &mut String, key: &str, value: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&json_string(key));
            out.push(':');
            out.push_str(&value);
        };
        for (name, view) in self.iter() {
            match view {
                MetricView::Counter(v) => push(&mut out, name, v.to_string()),
                MetricView::Gauge(v) => push(&mut out, name, json_number(v)),
                MetricView::Histogram(h) => {
                    push(&mut out, &format!("{name}_count"), h.count().to_string());
                    for (suffix, value) in [
                        ("p50", h.quantile(0.50)),
                        ("p99", h.quantile(0.99)),
                        ("min", h.min()),
                        ("max", h.max()),
                    ] {
                        push(
                            &mut out,
                            &format!("{name}_{suffix}"),
                            json_number(value.unwrap_or(f64::NAN)),
                        );
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_quantile_is_none() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = LogHistogram::default();
        h.record(42.0);
        // min == max == 42 clamps every representative to the exact value.
        assert_eq!(h.quantile(0.0), Some(42.0));
        assert_eq!(h.quantile(0.5), Some(42.0));
        assert_eq!(h.quantile(1.0), Some(42.0));
    }

    #[test]
    fn invalid_values_are_quarantined() {
        let mut h = LogHistogram::default();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.invalid_count(), 3);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn merge_equals_single_stream() {
        let spec = HistogramSpec::new(1e-3, 1.1, 300).unwrap();
        let values: Vec<f64> = (0..500).map(|i| 0.01 * (i as f64 + 1.0) * 1.7).collect();
        let mut whole = LogHistogram::new(spec);
        for &v in &values {
            whole.record(v);
        }
        let mut merged = LogHistogram::new(spec);
        for chunk in values.chunks(77) {
            let mut shard = LogHistogram::new(spec);
            for &v in chunk {
                shard.record(v);
            }
            merged.merge_from(&shard).unwrap();
        }
        assert_eq!(whole, merged);
    }

    #[test]
    fn merge_rejects_spec_mismatch() {
        let mut a = LogHistogram::new(HistogramSpec::new(1.0, 2.0, 8).unwrap());
        let b = LogHistogram::new(HistogramSpec::new(1.0, 2.0, 9).unwrap());
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn quantile_matches_rank_convention_on_exact_buckets() {
        // Powers of two with growth 2: every value sits alone in its bucket,
        // min/max clamping leaves interior representatives at sqrt(2)·value.
        let spec = HistogramSpec::new(1.0, 2.0, 12).unwrap();
        let mut h = LogHistogram::new(spec);
        for e in 0..8 {
            h.record(f64::powi(2.0, e));
        }
        // Rank round((8-1)*0.5) = 4 -> sample 16 in bucket 4; representative
        // 2^4.5 is within a factor of 2.
        let q = h.quantile(0.5).unwrap();
        assert!((q / 16.0) < 2.0 && (16.0 / q) < 2.0, "q = {q}");
    }

    #[test]
    fn registry_round_trip_and_merge() {
        let mut a = MetricsRegistry::new();
        a.counter_add("requests_total", 3);
        a.gauge_set("depth", 2.5);
        a.observe("latency_us", 120.0);

        let mut b = MetricsRegistry::new();
        b.counter_add("requests_total", 4);
        b.gauge_set("depth", 7.0);
        b.observe("latency_us", 240.0);
        b.counter_add("only_in_b", 1);

        a.merge_from(&b).unwrap();
        assert_eq!(a.counter("requests_total"), 7);
        assert!(a.to_json().contains("\"depth\":7"), "{}", a.to_json());
        assert_eq!(a.histogram("latency_us").unwrap().count(), 2);
        assert_eq!(a.counter("only_in_b"), 1);
        assert_eq!(a.counter("never_touched"), 0);
    }

    #[test]
    fn registry_equality_is_order_sensitive() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.counter_add("y", 1);
        let mut b = MetricsRegistry::new();
        b.counter_add("y", 1);
        b.counter_add("x", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn registry_json_is_flat_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.counter_add("hits", 2);
        r.gauge_set("load", 0.5);
        let json = r.to_json();
        assert_eq!(json, "{\"hits\":2,\"load\":0.5}");
    }
}
