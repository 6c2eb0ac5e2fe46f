//! Spans recorded by the benchmark's own code around the calls it makes.
//!
//! Spans stay in memory while the benchmark runs and are written as JSONL
//! when it ends, one `{name, run, parent, start_ns, end_ns}` object a
//! line. `parent` is the line number (from 0) of the span that caused this
//! one; spans of one rep share `run`.

use crate::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub run: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::from(self.name.as_str())),
            ("run", Value::from(self.run.as_str())),
            (
                "parent",
                self.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
            ),
            ("start_ns", Value::Int(self.start_ns)),
            ("end_ns", Value::Int(self.end_ns)),
        ])
    }
}

/// Collects spans on one clock. A recorder that is switched off hands out
/// ids and keeps nothing, so the untraced run pays for no allocation.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that starts now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &str, run: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, run, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Records a span whose interval is already known.
    pub fn add(
        &mut self,
        name: &str,
        run: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            run: run.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span and returns its result with the seconds it took
    /// (measured whether or not spans are kept).
    pub fn time<T>(
        &mut self,
        name: &str,
        run: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, run, parent);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json().to_compact());
            out.push('\n');
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children that overlap each other, or reach past
/// the parent, are counted once and only inside the parent.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            run: "r".into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(None, 100, 1100),    // 0: the parent, 1000 long
            span(Some(0), 100, 300),  // 200
            span(Some(0), 250, 400),  // overlaps the first: 100 more
            span(Some(0), 900, 1500), // reaches past the parent: 200 inside
            span(Some(1), 100, 300),  // a grandchild is not the parent's child
            span(Some(0), 50, 90),    // wholly outside: nothing
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 200 - 100 - 200);
        assert_eq!(self_time_ns(&spans, 1), 0, "fully covered by its child");
        assert_eq!(self_time_ns(&spans, 2), 150, "a leaf keeps its duration");
    }

    #[test]
    fn recorder_links_children_and_writes_jsonl() {
        let mut rec = Recorder::new(true);
        let rep = rec.open("rep", "w/rep0", None);
        let ((), secs) = rec.time("child", "w/rep0", Some(rep), || {});
        rec.add("phase.light", "w/rep0", Some(1), 5, 9);
        rec.close(rep);
        assert!(secs >= 0.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(rep));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[2],
            r#"{"name":"phase.light","run":"w/rep0","parent":1,"start_ns":5,"end_ns":9}"#
        );
        assert!(lines[0].contains(r#""parent":null"#));
    }

    #[test]
    fn a_recorder_switched_off_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("rep", "r", None);
        let (x, _) = rec.time("child", "r", Some(id), || 3);
        rec.close(id);
        assert_eq!(x, 3);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.to_jsonl(), "");
    }
}
