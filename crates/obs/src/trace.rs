//! Causal span records, the bounded tracer, and the JSONL trace file.
//!
//! One workload operation = one *trace*, a small tree of spans:
//!
//! ```text
//! post trace                     locate trace
//!   span 0  kind=post  (root)      span 0        kind=locate (root)
//!   span 1  kind=store             span 1..=|Q|  kind=contact
//!   ...     (one per P target)     span |Q|+1    kind=request (optional)
//! ```
//!
//! Ticks are *virtual*: they follow the uniform-cost timing law (fan-out
//! delivered at `issue+1`, replies complete at `issue+2`, pure self-ops
//! at `issue`) rather than any engine clock, which is what makes traces
//! comparable byte-for-byte between the simulator and the live runtime.
//! Costs count message passes under the same law: a contact costs 2
//! passes (query + answer) unless the target is the client itself, a
//! store costs 1 unless the target is the posting server's own node, a
//! request costs 2 unless the located address is the client.

use serde::{Deserialize, Serialize};

/// Trace format version, bumped on any schema change.
pub const TRACE_VERSION: u32 = 1;

/// One node of an operation's causal tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace (operation) id — allocated in shared dispatch order.
    pub trace: u64,
    /// Span index within the trace (0 = root).
    pub span: u32,
    /// Parent span index; absent for roots.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub parent: Option<u32>,
    /// Span kind: `post`, `store`, `locate`, `contact`, or `request`.
    pub kind: String,
    /// The node this span executes at.
    pub node: u64,
    /// Index into the workload's port space (`0..spec.ports`), not the
    /// raw 128-bit port value — the index is what the spec layer speaks.
    pub port: u64,
    /// Hops from the root (0 for roots, 1 for fan-out spans).
    pub hop: u32,
    /// Virtual tick (uniform-cost law, spec time).
    pub tick: u64,
    /// Message passes attributed to this span.
    pub cost: u64,
    /// For `contact` spans: did the query meet a matching post here?
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub met: Option<bool>,
    /// For `locate` roots: `hit`, `miss`, or `unresolved`.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub verdict: Option<String>,
    /// For `locate` roots: virtual ticks from issue to verdict.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub elapsed: Option<u64>,
}

/// First line of a trace file. Deliberately excludes the runtime, queue
/// implementation, topology and cost model: the file must be
/// byte-identical across those axes on churn-free specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Scenario (workload spec) name.
    pub scenario: String,
    /// Strategy label (`checkerboard`, ...).
    pub strategy: String,
    /// Network size.
    pub n: u64,
    /// Workload seed.
    pub seed: u64,
    /// Number of service ports (traces `0..ports` are the setup posts).
    pub ports: u64,
    /// Head-sampling rate in `[0, 1]`.
    pub sample_rate: f64,
}

/// Last line of a trace file: totals for the conservation check.
/// `sends`/`passes` are the run's cumulative `Metrics` counters
/// (identical between the runtimes on churn-free specs); span totals
/// reproduce them exactly when `sample_rate` is 1 and nothing dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFooter {
    /// Spans written to the file.
    pub spans: u64,
    /// Traces allocated (sampled or not).
    pub traces: u64,
    /// Traces excluded by head-sampling.
    pub sampled_out: u64,
    /// Spans dropped because the ring was full.
    pub dropped: u64,
    /// The run's total `Metrics::sends`.
    pub sends: u64,
    /// The run's total `Metrics::message_passes`.
    pub passes: u64,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of traces to keep, decided per trace id (deterministic).
    pub sample_rate: f64,
    /// Span-ring capacity; spans past it are counted as dropped. A
    /// capacity-bound run loses cross-runtime byte-identity (the two
    /// runtimes emit in different orders), so the default is generous.
    pub capacity: usize,
    /// Sampling seed (normally the workload seed).
    pub seed: u64,
}

impl TraceConfig {
    /// Full-rate tracing with a ~1M-span ring.
    pub fn full(seed: u64) -> Self {
        TraceConfig {
            sample_rate: 1.0,
            capacity: 1 << 20,
            seed,
        }
    }

    /// Same ring, different rate.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        TraceConfig {
            sample_rate: rate,
            ..Self::full(seed)
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Bounded span buffer with deterministic per-trace head-sampling.
///
/// Trace ids must be allocated through [`Tracer::next_trace_id`] in the
/// runners' shared dispatch order; spans may then arrive in any order
/// (the simulator emits at classification time, the live runtime at
/// issue time) — [`Tracer::finish`] canonicalizes with a
/// `(trace, span)` sort.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    /// `sample_rate` mapped onto the u64 hash space.
    threshold: u64,
    next_trace: u64,
    sampled_out: u64,
    dropped: u64,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        let rate = cfg.sample_rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            // rate * 2^64, saturating; < comparison below makes rate 0
            // keep nothing
            (rate * (u64::MAX as f64)) as u64
        };
        Tracer {
            cfg,
            threshold,
            next_trace: 0,
            sampled_out: 0,
            dropped: 0,
            spans: Vec::new(),
        }
    }

    /// Allocates the next trace id (call in shared dispatch order).
    pub fn next_trace_id(&mut self) -> u64 {
        let id = self.next_trace;
        self.next_trace += 1;
        if !self.sampled(id) {
            self.sampled_out += 1;
        }
        id
    }

    /// Does head-sampling keep this trace? Order-independent (pure hash
    /// of `seed ^ trace`), so a sampled file is a subset of the full one.
    pub fn sampled(&self, trace: u64) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        splitmix64(self.cfg.seed ^ trace) < self.threshold
    }

    /// Records one span (no-op for unsampled traces; counted as dropped
    /// when the ring is full).
    pub fn record(&mut self, span: SpanRecord) {
        if !self.sampled(span.trace) {
            return;
        }
        if self.spans.len() >= self.cfg.capacity {
            self.dropped += 1;
            return;
        }
        self.spans.push(span);
    }

    /// Spans recorded so far (pre-sort emission order).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sorts spans into canonical `(trace, span)` order and seals the
    /// file. `sends`/`passes` are the run's cumulative metrics totals.
    pub fn finish(mut self, header: TraceHeader, sends: u64, passes: u64) -> TraceFile {
        self.spans.sort_by_key(|s| (s.trace, s.span));
        let footer = TraceFooter {
            spans: self.spans.len() as u64,
            traces: self.next_trace,
            sampled_out: self.sampled_out,
            dropped: self.dropped,
            sends,
            passes,
        };
        TraceFile {
            header,
            spans: self.spans,
            footer,
        }
    }
}

/// A complete trace: header line, span lines, footer line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Run identification (runtime-agnostic fields only).
    pub header: TraceHeader,
    /// Canonically ordered spans.
    pub spans: Vec<SpanRecord>,
    /// Totals for the conservation check.
    pub footer: TraceFooter,
}

impl TraceFile {
    /// Renders the trace as JSONL: `{"header":{...}}`, one span object
    /// per line, `{"footer":{...}}`. Fully deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = serde::Value::Map(vec![("header".to_string(), self.header.to_value())]);
        out.push_str(&serde_json::to_string(&header));
        out.push('\n');
        for s in &self.spans {
            out.push_str(&serde_json::to_string(s));
            out.push('\n');
        }
        let footer = serde::Value::Map(vec![("footer".to_string(), self.footer.to_value())]);
        out.push_str(&serde_json::to_string(&footer));
        out.push('\n');
        out
    }

    /// Parses a JSONL trace produced by [`TraceFile::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`serde::Error`] on malformed lines, a missing header or
    /// a missing footer.
    pub fn from_jsonl(text: &str) -> Result<Self, serde::Error> {
        let mut header = None;
        let mut footer = None;
        let mut spans = Vec::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let v = serde_json::from_str(line)?;
            if let Some(h) = v.get("header") {
                header = Some(TraceHeader::from_value(h)?);
            } else if let Some(f) = v.get("footer") {
                footer = Some(TraceFooter::from_value(f)?);
            } else {
                spans.push(SpanRecord::from_value(&v)?);
            }
        }
        Ok(TraceFile {
            header: header.ok_or_else(|| serde::Error::missing("header"))?,
            spans,
            footer: footer.ok_or_else(|| serde::Error::missing("footer"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            scenario: "steady-state".into(),
            strategy: "checkerboard".into(),
            n: 16,
            seed: 7,
            ports: 2,
            sample_rate: 1.0,
        }
    }

    fn span(trace: u64, span: u32, kind: &str) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent: (span > 0).then_some(0),
            kind: kind.into(),
            node: 3,
            port: 1,
            hop: u32::from(span > 0),
            tick: 10,
            cost: 2,
            met: None,
            verdict: None,
            elapsed: None,
        }
    }

    #[test]
    fn finish_sorts_spans_canonically() {
        let mut t = Tracer::new(TraceConfig::full(7));
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        // live-runtime-style emission order: trace b first
        t.record(span(b, 0, "locate"));
        t.record(span(b, 1, "contact"));
        t.record(span(a, 1, "contact"));
        t.record(span(a, 0, "locate"));
        let file = t.finish(header(), 8, 6);
        let order: Vec<(u64, u32)> = file.spans.iter().map(|s| (s.trace, s.span)).collect();
        assert_eq!(order, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(file.footer.spans, 4);
        assert_eq!(file.footer.traces, 2);
        assert_eq!(file.footer.sends, 8);
        assert_eq!(file.footer.passes, 6);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = Tracer::new(TraceConfig::full(7));
        let id = t.next_trace_id();
        let mut root = span(id, 0, "locate");
        root.verdict = Some("hit".into());
        root.elapsed = Some(2);
        root.cost = 0;
        let mut contact = span(id, 1, "contact");
        contact.met = Some(true);
        t.record(root);
        t.record(contact);
        let file = t.finish(header(), 2, 2);
        let text = file.to_jsonl();
        assert_eq!(TraceFile::from_jsonl(&text).unwrap(), file);
        // optional fields stay off the wire when absent
        let span_line = text.lines().nth(2).unwrap();
        assert!(span_line.contains("\"met\":true"));
        assert!(!span_line.contains("verdict"));
    }

    #[test]
    fn sampling_is_deterministic_and_a_subset() {
        let mut full = Tracer::new(TraceConfig::full(42));
        let mut half = Tracer::new(TraceConfig::with_rate(42, 0.5));
        let mut kept = 0u64;
        for _ in 0..256 {
            let a = full.next_trace_id();
            let b = half.next_trace_id();
            assert_eq!(a, b);
            full.record(span(a, 0, "locate"));
            half.record(span(b, 0, "locate"));
            if half.sampled(b) {
                kept += 1;
                assert!(full.sampled(a), "sampled file must be a subset");
            }
        }
        assert!(kept > 0 && kept < 256, "rate 0.5 keeps some, not all");
        let f = full.finish(header(), 0, 0);
        let h = half.finish(header(), 0, 0);
        assert_eq!(h.footer.sampled_out, 256 - kept);
        let full_ids: Vec<u64> = f.spans.iter().map(|s| s.trace).collect();
        for s in &h.spans {
            assert!(full_ids.contains(&s.trace));
        }
        assert_eq!(h.spans.len() as u64, kept);
    }

    #[test]
    fn rate_zero_keeps_nothing_and_capacity_drops() {
        let mut none = Tracer::new(TraceConfig::with_rate(1, 0.0));
        let id = none.next_trace_id();
        none.record(span(id, 0, "post"));
        assert!(none.is_empty());
        assert_eq!(none.sampled_out, 1);

        let mut tiny = Tracer::new(TraceConfig {
            sample_rate: 1.0,
            capacity: 1,
            seed: 1,
        });
        let id = tiny.next_trace_id();
        tiny.record(span(id, 0, "post"));
        tiny.record(span(id, 1, "store"));
        let file = tiny.finish(header(), 0, 0);
        assert_eq!(file.footer.spans, 1);
        assert_eq!(file.footer.dropped, 1);
    }
}
