//! Structured trace events: a bounded ring of `Event { ts, component,
//! kind, fields }` records cheap enough to stay on by default.
//!
//! Components are coarse subsystem names (`klog`, `kbroker.txn`,
//! `kbroker.isr`, `kstreams`, ...); `kind` is a short verb-ish tag
//! (`segment_roll`, `isr_shrink`, `txn_complete`). Events mark lifecycle
//! transitions and anomalies, never per-record work. Fields are small typed
//! key/values — no format strings.
//!
//! The ring keeps the last [`RING_CAPACITY`] events; `simtest` dumps the
//! tail next to the `--seed` repro line when an oracle fails, which is
//! usually enough to see the path into the failure. Under the `off`
//! feature [`emit`] compiles to nothing.

use crate::json::{self, Value};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Maximum events retained; older events are evicted FIFO.
pub const RING_CAPACITY: usize = 4096;

/// One typed field value on an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A string.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
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
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number within the process (survives ring eviction,
    /// so gaps reveal how much was dropped).
    pub seq: u64,
    /// Virtual-clock timestamp (ms) at emission.
    pub ts: i64,
    /// Subsystem that emitted the event, e.g. `kbroker.txn`.
    pub component: &'static str,
    /// Short event tag, e.g. `txn_complete`.
    pub kind: &'static str,
    /// Structured fields attached at emit time.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Field lookup by key (first match).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The event as a JSON object (profiled report export).
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("seq", json::num(self.seq as f64)),
            ("ts", json::num(self.ts as f64)),
            ("component", json::str(self.component)),
            ("kind", json::str(self.kind)),
        ];
        let fields: Vec<(String, Value)> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let jv = match v {
                    FieldValue::I64(n) => json::num(*n as f64),
                    FieldValue::U64(n) => json::num(*n as f64),
                    FieldValue::Str(s) => json::str(s.clone()),
                };
                (k.to_string(), jv)
            })
            .collect();
        pairs.push(("fields", Value::Obj(fields)));
        json::obj(pairs)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] {:<14} {:<18}", self.ts, self.component, self.kind)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: Mutex<Ring> = Mutex::new(Ring { events: VecDeque::new(), next_seq: 0 });
    &RING
}

fn lock() -> std::sync::MutexGuard<'static, Ring> {
    ring().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Emit one event. The `fields` closure only runs when tracing is compiled
/// in.
#[allow(unused_variables)]
pub fn emit<F>(ts: i64, component: &'static str, kind: &'static str, fields: F)
where
    F: FnOnce() -> Vec<(&'static str, FieldValue)>,
{
    #[cfg(not(feature = "off"))]
    {
        let mut ring = lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == RING_CAPACITY {
            ring.events.pop_front();
            // The registry mutex is independent of the ring's, so counting
            // the eviction here cannot deadlock. Drops used to be silent;
            // snapshots now carry `kobs.trace.dropped` so a trace tail
            // with missing history says how much is missing.
            crate::count("kobs.trace.dropped", 1);
        }
        ring.events.push_back(Event { seq, ts, component, kind, fields: fields() });
    }
}

/// The last `n` events, oldest first.
pub fn tail(n: usize) -> Vec<Event> {
    let ring = lock();
    let skip = ring.events.len().saturating_sub(n);
    ring.events.iter().skip(skip).cloned().collect()
}

/// Total events emitted so far, including evicted ones.
pub fn emitted() -> u64 {
    lock().next_seq
}

/// Clear the ring (run isolation in simtest).
pub fn clear() {
    let mut ring = lock();
    ring.events.clear();
    ring.next_seq = 0;
}

/// Emit an event on the global ring.
///
/// ```
/// kobs::event!(17, "kbroker.txn", "txn_complete", pid = 4u64, partitions = 2usize);
/// assert_eq!(kobs::trace::tail(1).len(), kobs::ENABLED as usize);
/// # kobs::trace::clear();
/// ```
#[macro_export]
macro_rules! event {
    ($ts:expr, $component:expr, $kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::trace::emit($ts, $component, $kind, || {
            vec![$((stringify!($key), $crate::trace::FieldValue::from($val))),*]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as TestMutex, MutexGuard};

    // The ring is process-global; serialize tests that touch it.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn isolated() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        clear();
        guard
    }

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
        assert_eq!(tail[0].kind, "txn_init");
        assert_eq!(tail[1].ts, 9);
        assert_eq!(tail[1].field("partitions"), Some(&FieldValue::U64(3)));
        assert_eq!(tail[0].seq + 1, tail[1].seq);
    }

    #[test]
    fn ring_evicts_oldest_but_seq_keeps_counting() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        for i in 0..(RING_CAPACITY + 5) {
            crate::event!(i as i64, "kstreams", "tick");
        }
        let t = tail(RING_CAPACITY + 10);
        assert_eq!(t.len(), RING_CAPACITY);
        assert_eq!(t.last().unwrap().seq, (RING_CAPACITY + 4) as u64);
        assert_eq!(emitted(), (RING_CAPACITY + 5) as u64);
    }

    #[test]
    fn ring_overflow_is_counted_in_the_registry() {
        let _g = isolated();
        if !crate::ENABLED {
            return;
        }
        // The registry is process-global and other tests write to it, so
        // assert on the delta rather than the absolute count.
        let before = crate::snapshot().counter("kobs.trace.dropped").unwrap_or(0);
        for i in 0..(RING_CAPACITY + 7) {
            crate::event!(i as i64, "kstreams", "tick");
        }
        let after = crate::snapshot().counter("kobs.trace.dropped").unwrap_or(0);
        assert_eq!(after - before, 7, "each eviction must count one drop");
    }

    #[test]
    fn event_json_and_display() {
        let e = Event {
            seq: 3,
            ts: 42,
            component: "kbroker.isr",
            kind: "isr_shrink",
            fields: vec![("tp", FieldValue::Str("orders-0".into())), ("isr", FieldValue::U64(2))],
        };
        let j = e.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("isr_shrink"));
        assert_eq!(j.get("fields").unwrap().get("isr").unwrap().as_f64(), Some(2.0));
        let text = e.to_string();
        assert!(text.contains("isr_shrink") && text.contains("tp=orders-0"), "{text}");
        let parsed = json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("seq").unwrap().as_f64(), Some(3.0));
    }
}
