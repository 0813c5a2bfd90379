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
//! A hot call site resolves its metric once, as a [`Counter`] or [`Gauge`]
//! handle in a `static` ([`crate::counter!`], [`crate::gauge!`]), and bumps
//! it with one relaxed atomic. A handle joins the global registry at its
//! first bump; a snapshot reads it under the name it carries, summed with
//! (or, for a gauge, maxed against) any by-name writes of that name, so a
//! handle and [`Registry::count`] are two ways to write one metric.
//!
//! With the `off` feature every mutation below compiles to a no-op and
//! snapshots are empty; callers need no `cfg` of their own.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    /// Every handle bumped since the process started, in first-bump order.
    counter_handles: Vec<&'static Counter>,
    gauge_handles: Vec<&'static Gauge>,
}

/// The bit of [`Counter::value`] that says the counter was bumped since the
/// last reset: a counter bumped by 0 is in the snapshot, as a by-name
/// `count(name, 0)` is.
const TOUCHED: u64 = 1 << 63;

/// A counter resolved once: a `static` per call site, bumped with one
/// relaxed atomic. Declare it with [`crate::counter!`].
pub struct Counter {
    name: &'static str,
    /// The count, with [`TOUCHED`] set once bumped since the last reset.
    value: AtomicU64,
}

impl Counter {
    /// A counter named `name`, not yet in any snapshot.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Add `n`. The first bump after a reset joins the snapshot.
    #[inline]
    #[allow(unused_variables)]
    pub fn add(&'static self, n: u64) {
        #[cfg(not(feature = "off"))]
        if self.value.fetch_add(n, Ordering::Relaxed) & TOUCHED == 0 {
            self.touch();
        }
    }

    #[cold]
    #[cfg_attr(feature = "off", allow(dead_code))]
    fn touch(&'static self) {
        let mut inner = global().lock();
        self.value.fetch_or(TOUCHED, Ordering::Relaxed);
        if !inner.counter_handles.iter().any(|c| std::ptr::eq(*c, self)) {
            inner.counter_handles.push(self);
        }
    }

    /// What this handle counted since the last reset (by-name writes of the
    /// same name not included).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed) & !TOUCHED
    }

    /// The count, if bumped since the last reset.
    fn touched(&self) -> Option<u64> {
        let v = self.value.load(Ordering::Relaxed);
        (v & TOUCHED != 0).then_some(v & !TOUCHED)
    }
}

/// A high-water-mark gauge resolved once: a `static` per call site, raised
/// with one relaxed atomic. Declare it with [`crate::gauge!`].
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    /// Raised since the last reset: a snapshot lists it.
    touched: AtomicBool,
}

impl Gauge {
    /// A gauge named `name`, not yet in any snapshot.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicI64::new(i64::MIN), touched: AtomicBool::new(false) }
    }

    /// Raise the gauge to `v` if larger. The first raise after a reset
    /// joins the snapshot.
    #[inline]
    #[allow(unused_variables)]
    pub fn max(&'static self, v: i64) {
        #[cfg(not(feature = "off"))]
        {
            self.value.fetch_max(v, Ordering::Relaxed);
            if !self.touched.load(Ordering::Relaxed) {
                self.touch();
            }
        }
    }

    #[cold]
    #[cfg_attr(feature = "off", allow(dead_code))]
    fn touch(&'static self) {
        let mut inner = global().lock();
        self.touched.store(true, Ordering::Relaxed);
        if !inner.gauge_handles.iter().any(|g| std::ptr::eq(*g, self)) {
            inner.gauge_handles.push(self);
        }
    }

    /// The peak, if raised since the last reset.
    fn touched(&self) -> Option<i64> {
        self.touched.load(Ordering::Relaxed).then(|| self.value.load(Ordering::Relaxed))
    }
}

/// A [`Counter`] for this call site, resolved once:
/// `kobs::counter!("kbroker.fetch.requests").add(1)`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static COUNTER: $crate::Counter = $crate::Counter::new($name);
        &COUNTER
    }};
}

/// A [`Gauge`] for this call site, resolved once:
/// `kobs::gauge!("kbroker.lso_lag_peak").max(lag)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        &GAUGE
    }};
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
        Self {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                counter_handles: Vec::new(),
                gauge_handles: Vec::new(),
            }),
        }
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

    /// Drop every metric (run isolation in the simulation harness): the
    /// handles read 0 and leave the snapshot until bumped again.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        for counter in &inner.counter_handles {
            counter.value.store(0, Ordering::Relaxed);
        }
        for gauge in &inner.gauge_handles {
            gauge.value.store(i64::MIN, Ordering::Relaxed);
            gauge.touched.store(false, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every metric, in stable name order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut counters: BTreeMap<&str, u64> =
            inner.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for counter in &inner.counter_handles {
            if let Some(v) = counter.touched() {
                *counters.entry(counter.name).or_default() += v;
            }
        }
        let mut gauges: BTreeMap<&str, i64> =
            inner.gauges.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for gauge in &inner.gauge_handles {
            if let Some(v) = gauge.touched() {
                gauges.entry(gauge.name).and_modify(|g| *g = (*g).max(v)).or_insert(v);
            }
        }
        Snapshot {
            counters: counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: gauges.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
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
