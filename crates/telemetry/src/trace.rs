//! Structured event tracing: events, time domains and pluggable sinks.
//!
//! Every [`TraceEvent`] carries an explicit [`TimeDomain`]:
//!
//! * [`TimeDomain::Sim`] — **simulated** time, stamped by the engines
//!   (simulator, cluster, adaptive tiers). Sim-domain traces are part of the
//!   deterministic output surface: the same scenario at any thread count must
//!   produce byte-identical sim-domain trace lines, and [`DigestSink`] turns
//!   that into a checkable fingerprint.
//! * [`TimeDomain::Wall`] — wall-clock time, stamped by the service tier
//!   (batch phase timings). Wall-domain events are explicitly outside the
//!   determinism contract; deterministic sinks ([`DigestSink`]) skip them.
//!
//! Sinks implement [`TelemetrySink`]. Instrumented engines accept
//! `&mut dyn TelemetrySink` and guard event construction behind
//! [`TelemetrySink::enabled`], so the default [`NoopSink`] path does no
//! allocation and no formatting — the "~0 % overhead when off" half of the
//! e15 target.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io;
use std::time::Instant;

use crate::json::{write_json_number, write_json_string};

/// Which clock stamped an event's `time` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeDomain {
    /// Simulated time — deterministic, part of the reproducibility contract.
    Sim,
    /// Wall-clock time — non-deterministic by nature, excluded from digests.
    Wall,
}

impl TimeDomain {
    /// The lowercase label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            TimeDomain::Sim => "sim",
            TimeDomain::Wall => "wall",
        }
    }
}

/// A typed field value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (indices, counts, depths).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point (times, durations).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String label.
    Str(Cow<'static, str>),
}

impl FieldValue {
    fn write_into<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(out, "{v}"),
            FieldValue::I64(v) => write!(out, "{v}"),
            FieldValue::F64(v) => write_json_number(out, *v),
            FieldValue::Bool(v) => write!(out, "{v}"),
            FieldValue::Str(v) => write_json_string(out, v),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// One structured event: a name, a time stamp in an explicit domain, and
/// ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    domain: TimeDomain,
    time: f64,
    name: Cow<'static, str>,
    fields: Vec<(Cow<'static, str>, FieldValue)>,
}

impl TraceEvent {
    /// An event stamped with simulated time.
    pub fn sim(name: impl Into<Cow<'static, str>>, time: f64) -> Self {
        TraceEvent { domain: TimeDomain::Sim, time, name: name.into(), fields: Vec::new() }
    }

    /// An event stamped with wall-clock time (seconds, see [`wall_seconds`]).
    pub fn wall(name: impl Into<Cow<'static, str>>, time: f64) -> Self {
        TraceEvent { domain: TimeDomain::Wall, time, name: name.into(), fields: Vec::new() }
    }

    /// Appends a field (builder style; field order is preserved in output).
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// The stamping clock domain.
    pub fn domain(&self) -> TimeDomain {
        self.domain
    }

    /// The time stamp (simulated seconds or wall seconds, per domain).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The event name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[(Cow<'static, str>, FieldValue)] {
        &self.fields
    }

    /// The event as one JSON object line (no trailing newline):
    /// `{"domain":"sim","time":T,"event":NAME, ...fields}`. Byte-deterministic
    /// for identical events.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = self.write_json(&mut out);
        out
    }

    /// Streams [`TraceEvent::to_json`]'s byte-identical output into `out`
    /// without intermediate allocations — the form the live sinks use so a
    /// recording sink costs formatting, not heap churn.
    fn write_json<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"domain\":")?;
        write_json_string(out, self.domain.label())?;
        out.write_str(",\"time\":")?;
        write_json_number(out, self.time)?;
        out.write_str(",\"event\":")?;
        write_json_string(out, &self.name)?;
        for (key, value) in &self.fields {
            out.write_char(',')?;
            write_json_string(out, key)?;
            out.write_char(':')?;
            value.write_into(out)?;
        }
        out.write_char('}')
    }
}

/// Seconds elapsed since the first call in this process — the wall-clock
/// stamp used by [`TimeDomain::Wall`] events. Monotonic and cheap; anchored
/// per process, so wall stamps are only comparable within one run (which is
/// all the non-deterministic domain promises).
pub fn wall_seconds() -> f64 {
    use std::sync::OnceLock;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// A destination for trace events.
///
/// Instrumented code must guard event construction with [`TelemetrySink::enabled`]
/// so disabled sinks cost one branch, not an allocation.
pub trait TelemetrySink {
    /// Whether this sink wants events at all. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);
}

/// The default sink: disabled, records nothing, costs one branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory sink keeping the most recent events (older events are
/// dropped and counted once capacity is reached).
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (capacity 0 drops everything).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or rejected at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TelemetrySink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// A sink writing one JSON line per event to an [`io::Write`] destination
/// (reusing the workspace-wide JSON escaping, so trace lines and `--json`
/// summaries render values identically).
pub struct JsonlSink<W: io::Write> {
    writer: W,
    buffer: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: io::Write> JsonlSink<W> {
    /// A sink appending JSONL to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, buffer: String::new(), lines: 0, error: None }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, surfacing the first write error (a
    /// failed write disables further output rather than panicking mid-trace).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: io::Write> TelemetrySink for JsonlSink<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.buffer.clear();
        let _ = event.write_json(&mut self.buffer);
        self.buffer.push('\n');
        if let Err(error) = self.writer.write_all(self.buffer.as_bytes()) {
            self.error = Some(error);
        } else {
            self.lines += 1;
        }
    }
}

/// A sink reducing the **sim-domain** trace to a 64-bit FNV-1a digest of its
/// JSONL byte stream. Wall-domain events are skipped (their stamps are
/// non-deterministic), so two runs of the same deterministic scenario must
/// produce equal digests — the byte-determinism wall e15 asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestSink {
    hash: u64,
    sim_events: u64,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl DigestSink {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty digest.
    pub fn new() -> Self {
        DigestSink { hash: Self::FNV_OFFSET, sim_events: 0 }
    }

    /// The FNV-1a digest over all sim-domain event lines so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// The digest as a fixed-width lowercase hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Sim-domain events folded into the digest.
    pub fn sim_events(&self) -> u64 {
        self.sim_events
    }
}

/// A `fmt::Write` adapter folding every formatted byte into an FNV-1a state,
/// so [`DigestSink`] digests the JSONL stream without building the line.
struct FnvWriter<'a> {
    hash: &'a mut u64,
}

impl fmt::Write for FnvWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            *self.hash ^= u64::from(byte);
            *self.hash = self.hash.wrapping_mul(DigestSink::FNV_PRIME);
        }
        Ok(())
    }
}

impl TelemetrySink for DigestSink {
    fn record(&mut self, event: &TraceEvent) {
        if event.domain() == TimeDomain::Wall {
            return;
        }
        let mut writer = FnvWriter { hash: &mut self.hash };
        let _ = event.write_json(&mut writer);
        let _ = writer.write_char('\n');
        self.sim_events += 1;
    }
}

/// A sink forwarding every event to two child sinks (e.g. a digest plus a
/// JSONL file). Enabled iff either child is.
pub struct TeeSink<'a> {
    first: &'a mut dyn TelemetrySink,
    second: &'a mut dyn TelemetrySink,
}

impl std::fmt::Debug for TeeSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink")
            .field("first_enabled", &self.first.enabled())
            .field("second_enabled", &self.second.enabled())
            .finish_non_exhaustive()
    }
}

impl<'a> TeeSink<'a> {
    /// Tees events into `first` and `second`, in that order.
    pub fn new(first: &'a mut dyn TelemetrySink, second: &'a mut dyn TelemetrySink) -> Self {
        TeeSink { first, second }
    }
}

impl TelemetrySink for TeeSink<'_> {
    fn enabled(&self) -> bool {
        self.first.enabled() || self.second.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.first.enabled() {
            self.first.record(event);
        }
        if self.second.enabled() {
            self.second.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shape() {
        let event = TraceEvent::sim("failure", 120.5)
            .with("machine", 3usize)
            .with("job", 7u64)
            .with("action", "migrate")
            .with("recovered", true);
        assert_eq!(
            event.to_json(),
            "{\"domain\":\"sim\",\"time\":120.5,\"event\":\"failure\",\
             \"machine\":3,\"job\":7,\"action\":\"migrate\",\"recovered\":true}"
        );
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut sink = RingBufferSink::new(2);
        for i in 0..5u64 {
            sink.record(&TraceEvent::sim("tick", i as f64));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let times: Vec<f64> = sink.events().map(|e| e.time()).collect();
        assert_eq!(times, vec![3.0, 4.0]);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::sim("a", 1.0));
        sink.record(&TraceEvent::wall("b", 2.0).with("k", 1u64));
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"domain\":\"sim\",\"time\":1,\"event\":\"a\"}\n\
             {\"domain\":\"wall\",\"time\":2,\"event\":\"b\",\"k\":1}\n"
        );
    }

    #[test]
    fn digest_ignores_wall_events_and_is_reproducible() {
        let mut a = DigestSink::new();
        let mut b = DigestSink::new();
        a.record(&TraceEvent::sim("x", 1.0));
        a.record(&TraceEvent::wall("noise", 123.456));
        b.record(&TraceEvent::sim("x", 1.0));
        b.record(&TraceEvent::wall("noise", 789.0));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.sim_events(), 1);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut ring = RingBufferSink::new(4);
        let mut digest = DigestSink::new();
        {
            let mut tee = TeeSink::new(&mut ring, &mut digest);
            assert!(tee.enabled());
            tee.record(&TraceEvent::sim("x", 1.0));
        }
        assert_eq!(ring.len(), 1);
        assert_eq!(digest.sim_events(), 1);
    }
}
