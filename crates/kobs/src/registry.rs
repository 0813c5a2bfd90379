//! The metrics registry: named counters and high-water-mark gauges behind
//! one process-global handle.
//!
//! A name in the global registry has many writers: every instance,
//! incarnation, task and partition in the process. So the registry keeps
//! only the kinds that combine across writers — counters add, gauges only
//! rise ([`Registry::gauge_max`]). There is no gauge *set*: one owner's
//! level written to a process-wide name would hold whichever writer came
//! last. Nor is there a duration: how long something took is a span
//! ([`crate::ktrace`]), never a registry entry.
//!
//! Naming scheme: `<crate>.<subsystem>.<metric>` — e.g.
//! `kbroker.txn.commits`, `kbroker.txn.log_bytes`, `klog.dedup_hits`.
//!
//! All maps are `BTreeMap`s: snapshots render in stable name order, which
//! keeps `simtest` reports byte-identical across replays of one seed.
//!
//! With the `off` feature every mutation below compiles to a no-op and
//! snapshots are empty; callers need no `cfg` of their own.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
}

/// A metrics registry. Most code uses the process-global [`global()`]
/// registry; isolated instances exist for tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// Whether instrumentation is compiled in (false under the `off` feature).
/// Tests that assert on registry contents guard on this.
pub const ENABLED: bool = cfg!(not(feature = "off"));

/// The process-global registry.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

impl Registry {
    /// Create an empty registry.
    pub const fn new() -> Self {
        Self { inner: Mutex::new(Inner { counters: BTreeMap::new(), gauges: BTreeMap::new() }) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Add `n` to the named counter.
    #[allow(unused_variables)]
    pub fn count(&self, name: &str, n: u64) {
        #[cfg(not(feature = "off"))]
        {
            let mut inner = self.lock();
            match inner.counters.get_mut(name) {
                Some(c) => *c += n,
                None => {
                    inner.counters.insert(name.to_string(), n);
                }
            }
        }
    }

    /// Raise the named gauge to `v` if larger (high-water-mark gauges).
    #[allow(unused_variables)]
    pub fn gauge_max(&self, name: &str, v: i64) {
        #[cfg(not(feature = "off"))]
        {
            let mut inner = self.lock();
            match inner.gauges.get_mut(name) {
                Some(g) => *g = (*g).max(v),
                None => {
                    inner.gauges.insert(name.to_string(), v);
                }
            }
        }
    }

    /// Drop every metric (run isolation in the simulation harness).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
    }

    /// A point-in-time copy of every metric, in stable name order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

/// A point-in-time export of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-ordered.
    pub gauges: Vec<(String, i64)>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Value of a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// All metric names present, across both kinds.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.counters.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(self.gauges.iter().map(|(n, _)| n.as_str()));
        names
    }

    /// JSON export: `{"counters":{..},"gauges":{..}}`.
    pub fn to_json(&self) -> Value {
        json::obj(vec![
            (
                "counters",
                Value::Obj(
                    self.counters.iter().map(|(k, v)| (k.clone(), json::num(*v as f64))).collect(),
                ),
            ),
            (
                "gauges",
                Value::Obj(
                    self.gauges.iter().map(|(k, v)| (k.clone(), json::num(*v as f64))).collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<44} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<44} {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_gauges_keep_their_peak() {
        let r = Registry::new();
        r.count("a.hits", 2);
        r.count("a.hits", 3);
        r.gauge_max("a.peak", 5);
        r.gauge_max("a.peak", 3);
        let s = r.snapshot();
        if !ENABLED {
            assert!(s.is_empty());
            return;
        }
        assert_eq!(s.counter("a.hits"), Some(5));
        assert_eq!(s.gauge("a.peak"), Some(5));
        assert_eq!(s.names(), ["a.hits", "a.peak"]);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.count("x", 1);
        r.gauge_max("y", 1);
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_name_ordered_and_json_parses() {
        let r = Registry::new();
        r.count("z.last", 1);
        r.count("a.first", 1);
        r.gauge_max("m.mid", 4);
        let s = r.snapshot();
        if ENABLED {
            assert_eq!(s.counters[0].0, "a.first");
            assert_eq!(s.counters[1].0, "z.last");
        }
        let parsed = json::parse(&s.to_json().to_string()).unwrap();
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("gauges").is_some());
    }

    #[test]
    fn missing_names_are_none() {
        let s = Registry::new().snapshot();
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.gauge("nope"), None);
    }
}
