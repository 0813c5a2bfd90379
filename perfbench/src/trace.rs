//! Spans recorded by the benchmark around its calls into the program.
//!
//! Spans are kept in memory and written out after the run. With recording
//! off — every untraced repetition — `begin`/`end` read no clock and store
//! nothing, so the end-to-end numbers carry no tracing cost.

use kobs::json::{num, obj, str as jstr, Value};
use std::time::Instant;

/// At most this many spans go into a trace file; the paced loop records
/// three per iteration and would otherwise write tens of MB.
const MAX_SPANS_WRITTEN: usize = 100_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<u32>,
    /// Input records the call handled (0 where that has no meaning).
    pub records: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span that has begun; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    /// Innermost span still open: the parent of the next one.
    current: Option<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Self { origin: Instant::now(), spans: None, current: None }
    }

    pub fn on() -> Self {
        Self { origin: Instant::now(), spans: Some(Vec::new()), current: None }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if self.spans.is_none() {
            return Open(None);
        }
        let now = self.now_ns();
        let spans = self.spans.as_mut().expect("checked above");
        let id = spans.len() as u32;
        spans.push(Span { name, start_ns: now, end_ns: now, parent: self.current, records: 0 });
        self.current = Some(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open, records: u64) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        let spans = self.spans.as_mut().expect("an open span implies recording");
        let span = &mut spans[id as usize];
        span.end_ns = now;
        span.records = records;
        debug_assert_eq!(self.current, Some(id), "spans must close innermost-first");
        self.current = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    pub fn named(&self, name: &'static str) -> impl Iterator<Item = &Span> {
        self.spans().iter().filter(move |s| s.name == name)
    }

    pub fn to_json(&self) -> Value {
        let spans = self.spans();
        let rows = spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("id", num(id as f64)),
                    ("name", jstr(s.name)),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| num(f64::from(p)))),
                    ("records", num(s.records as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("spans_recorded", num(spans.len() as f64)),
            ("spans_written", num(spans.len().min(MAX_SPANS_WRITTEN) as f64)),
            ("spans", Value::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::on();
        let run = t.begin("run");
        let step = t.begin("step");
        t.end(step, 7);
        let commit = t.begin("commit");
        t.end(commit, 0);
        t.end(run, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[1].records), (Some(0), 7));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(t.named("step").count(), 1);
    }

    #[test]
    fn recording_off_stores_nothing() {
        let mut t = Tracer::off();
        let open = t.begin("step");
        t.end(open, 3);
        assert!(!t.enabled() && t.spans().is_empty());
    }
}
