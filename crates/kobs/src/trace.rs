//! Structured trace events, cheap enough to stay on by default: lifecycle
//! transitions and anomalies (`segment_roll`, `isr_shrink`,
//! `txn_complete`), never per-record work, from coarse components (`klog`,
//! `kbroker.txn`, `kstreams`, ...), with small typed key/value fields — no
//! format strings.
//!
//! An event is a zero-duration record in the one [`ktrace`](crate::ktrace)
//! ring, under the calling thread's entered span if there is one — then it
//! reaches the ring with that span's tree, and keeps an idle tree. `simtest`
//! dumps the [`tail`] next to the `--seed` repro line when an oracle fails,
//! which is usually enough to see the path into the failure. Under the
//! `off` feature [`emit`] compiles to nothing.

use crate::json::{self, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// One typed field value on a span or event. None but a string made from a
/// borrowed `&str` allocates.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A string, shared: cloning an `Arc<str>` into a field copies nothing.
    Str(Arc<str>),
    /// Two numbers shown as `<a>_<b>`, such as a task id.
    Pair(u32, u32),
}

impl FieldValue {
    /// The value as JSON (report and chrome exports).
    pub fn to_json(&self) -> Value {
        match self {
            FieldValue::I64(n) => json::num(*n as f64),
            FieldValue::U64(n) => json::num(*n as f64),
            FieldValue::Str(s) => json::str(&**s),
            FieldValue::Pair(..) => json::str(self.to_string()),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::Pair(a, b) => write!(f, "{a}_{b}"),
        }
    }
}

/// Fields held inline; every hot-path span carries at most this many.
const INLINE_FIELDS: usize = 2;

const NO_FIELD: (&str, FieldValue) = ("", FieldValue::U64(0));

/// A record's `(name, value)` fields, read as a slice: up to two inline,
/// so a span with few fields allocates nothing, and more in one `Vec`.
#[derive(Clone)]
pub struct Fields(FieldsRepr);

#[derive(Clone)]
enum FieldsRepr {
    Inline(u8, [(&'static str, FieldValue); INLINE_FIELDS]),
    Heap(Vec<(&'static str, FieldValue)>),
}

impl Fields {
    /// No fields.
    pub const fn new() -> Self {
        Self(FieldsRepr::Inline(0, [NO_FIELD; INLINE_FIELDS]))
    }

    /// Append one field.
    pub fn push(&mut self, name: &'static str, value: FieldValue) {
        match &mut self.0 {
            FieldsRepr::Inline(len, items) if usize::from(*len) < INLINE_FIELDS => {
                items[usize::from(*len)] = (name, value);
                *len += 1;
            }
            FieldsRepr::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(2 * INLINE_FIELDS);
                spilled.extend(std::mem::replace(items, [NO_FIELD; INLINE_FIELDS]));
                spilled.push((name, value));
                self.0 = FieldsRepr::Heap(spilled);
            }
            FieldsRepr::Heap(items) => items.push((name, value)),
        }
    }
}

impl Default for Fields {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Fields {
    type Target = [(&'static str, FieldValue)];

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            FieldsRepr::Inline(len, items) => &items[..usize::from(*len)],
            FieldsRepr::Heap(items) => items,
        }
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Build [`Fields`] from `name = value` pairs (the span and event macros'
/// field lists).
#[macro_export]
macro_rules! fields {
    ($($key:ident = $val:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut fields = $crate::trace::Fields::new();
        $(fields.push(stringify!($key), $crate::trace::FieldValue::from($val));)*
        fields
    }};
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(v as i64)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.into())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v.into())
    }
}

impl From<Arc<str>> for FieldValue {
    fn from(v: Arc<str>) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured trace event: a [`Span`](crate::Span) record with
/// `event` set, `start_us == end_us`, `track` the component and `name` the
/// kind.
pub type Event = crate::ktrace::Span;

impl Event {
    /// The event as a JSON object (profiled report export); `seq` is its
    /// record id.
    pub fn to_json(&self) -> Value {
        let fields = self.fields.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect();
        json::obj(vec![
            ("seq", json::num(self.id as f64)),
            ("ts", json::num((self.start_us / 1000) as f64)),
            ("component", json::str(self.track)),
            ("kind", json::str(self.name)),
            ("fields", Value::Obj(fields)),
        ])
    }
}

/// The one-line form the trace tail prints: virtual ms, component, kind,
/// fields.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {:<14} {:<18}", self.start_us / 1000, self.track, self.name)?;
        for (k, v) in self.fields.iter() {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// Emit one event at `ts` (virtual ms). The `fields` closure only runs
/// when tracing is compiled in.
#[allow(unused_variables)]
pub fn emit<F>(ts: i64, component: &'static str, kind: &'static str, fields: F)
where
    F: FnOnce() -> Fields,
{
    #[cfg(not(feature = "off"))]
    crate::ktrace::push_event(ts.saturating_mul(1000), component, kind, fields());
}

pub use crate::ktrace::tail;

/// Emit an event into the trace ring.
///
/// ```
/// kobs::event!(17, "kbroker.txn", "txn_complete", pid = 4u64, partitions = 2usize);
/// assert_eq!(kobs::trace::tail(1).len(), kobs::ENABLED as usize);
/// # kobs::ktrace::clear();
/// ```
#[macro_export]
macro_rules! event {
    ($ts:expr, $component:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::emit($ts, $component, $kind, || $crate::fields!($($key = $val),*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktrace::tests::isolated;

    #[test]
    fn emit_and_tail_round_trip() {
        let _g = isolated();
        crate::event!(5, "kbroker.txn", "txn_init", pid = 7u64);
        crate::event!(9, "kbroker.txn", "txn_complete", pid = 7u64, partitions = 3usize);
        let tail = tail(10);
        if !crate::ENABLED {
            assert!(tail.is_empty());
            return;
        }
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].name, "txn_init");
        assert_eq!(tail[1].start_us, 9_000);
        assert_eq!(tail[1].fields[1], ("partitions", FieldValue::U64(3)));
        assert_eq!(tail[0].id + 1, tail[1].id);
    }

    #[test]
    fn events_nest_under_the_entered_span_without_moving_it() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        let root = crate::span!(5, "kstreams", "cycle");
        let entered = crate::ktrace::enter(root);
        // Stamped after the span's finish time, and before its start: an
        // event neither stretches nor is moved by the span it sits in.
        crate::event!(9, "klog", "segment_roll");
        crate::event!(4, "klog", "segment_roll");
        drop(entered);
        crate::ktrace::finish_span(root, 6_000);
        crate::event!(7, "kstreams", "outside");
        let spans = crate::ktrace::finished_spans();
        assert_eq!((spans.len(), spans[0].start_us, spans[0].end_us), (1, 5_000, 6_000));
        let tail = tail(10);
        assert_eq!(tail.iter().map(|e| e.start_us).collect::<Vec<_>>(), vec![9_000, 4_000, 7_000]);
        assert_eq!(
            (tail[0].parent, tail[0].root),
            (Some(root.id().unwrap()), tail[0].parent.unwrap())
        );
        assert_eq!(tail[2].parent, None);
        let trees = crate::ktrace::recent_trees(usize::MAX);
        assert_eq!(trees.len(), 1, "an event is never a tree root");
        assert_eq!(trees[0].len(), 3, "the tree carries its events inline");
        assert!(crate::ktrace::critical_path_summary().is_none());
    }

    #[test]
    fn fields_past_the_inline_two_spill_in_order() {
        let two = crate::fields!(a = 1u64, b = "x");
        let four = crate::fields!(a = 1u64, b = "x", c = -3i64, d = 4usize);
        assert_eq!(two.len(), 2);
        assert_eq!(&four[..2], &two[..]);
        let names: Vec<_> = four.iter().map(|(k, _)| *k).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        assert_eq!(four[2].1, FieldValue::I64(-3));
        assert_eq!(format!("{two:?}"), r#"[("a", U64(1)), ("b", Str("x"))]"#);
    }

    #[test]
    fn event_json_and_display() {
        let e = Event {
            id: 3,
            parent: None,
            root: 3,
            name: "isr_shrink",
            track: "kbroker.isr",
            start_us: 42_000,
            end_us: 42_000,
            fields: crate::fields!(tp = "orders-0", isr = 2u64),
            event: true,
        };
        let j = e.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("isr_shrink"));
        assert_eq!(j.get("ts").unwrap().as_f64(), Some(42.0));
        assert_eq!(j.get("fields").unwrap().get("isr").unwrap().as_f64(), Some(2.0));
        let text = e.to_string();
        assert!(text.contains("isr_shrink") && text.contains("tp=orders-0"), "{text}");
        let parsed = json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_f64(), Some(3.0));
    }
}
