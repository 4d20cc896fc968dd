//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each public library call it makes:
//! name, start, end, parent span and call id. Spans stay in memory until
//! the traced pass ends; then they are written as JSONL and folded into a
//! per-layer self-time table. A span's self time is its duration minus the
//! part of it that its child spans cover (children may run in parallel on
//! several workers, so the covered part is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub call: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, call: u64) -> SpanGuard<'_> {
        // Relaxed: the id only has to be unique, it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        SpanGuard { tracer: self, id, parent, call, name, start_ns }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every closed span, in closing order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span recorder panicked")
    }
}

#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    call: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            call: self.call,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        // A poisoned lock means another recording thread panicked; the
        // benchmark fails through that panic, so this span may be dropped.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per span name: how many spans, their total duration and their total self
/// time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |intervals| covered_ns(intervals, span.start_ns, span.end_ns));
        let row = table.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += span.duration_ns().saturating_sub(covered);
    }
    table
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Prints the self-time table, largest self time first, with each row's
/// share of `wall_ns` (the traced pass's wall time).
pub fn print_table(workload: &str, table: &BTreeMap<&'static str, LayerTime>, wall_ns: u64) {
    println!(
        "{workload}: per-layer self time over the traced pass \
         (self % is of the pass's wall time; parallel workers can add past 100 %)"
    );
    println!(
        "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "mean us", "self %"
    );
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    for (name, row) in rows {
        println!(
            "  {:<40} {:>8} {:>12.3} {:>12.3} {:>12.1} {:>6.1}%",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.mean_us(),
            100.0 * row.self_ns as f64 / wall_ns.max(1) as f64,
        );
    }
}

/// Writes the spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
