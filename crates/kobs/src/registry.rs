//! The metrics registry: named counters, gauges, and log-bucketed
//! histograms behind one process-global handle.
//!
//! Naming scheme: `<crate>.<subsystem>.<metric>[_ms]` — e.g.
//! `kbroker.txn.phase.markers_ms`, `kstreams.commit_cycle_ms`,
//! `klog.dedup_hits`. The `_ms` suffix marks histogram observations in
//! milliseconds of *virtual* time (the simulation clock), so percentile
//! breakdowns are deterministic for a fixed seed.
//!
//! All maps are `BTreeMap`s: snapshots render in stable name order, which
//! keeps `simtest` reports byte-identical across replays of one seed.
//!
//! With the `off` feature every mutation below compiles to a no-op and
//! snapshots are empty; callers need no `cfg` of their own.

use crate::hist::LatencyHistogram;
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, LatencyHistogram>,
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
                hists: BTreeMap::new(),
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

    /// Set the named gauge to `v`.
    #[allow(unused_variables)]
    pub fn gauge_set(&self, name: &str, v: i64) {
        #[cfg(not(feature = "off"))]
        {
            let mut inner = self.lock();
            match inner.gauges.get_mut(name) {
                Some(g) => *g = v,
                None => {
                    inner.gauges.insert(name.to_string(), v);
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

    /// Record one observation (milliseconds) in the named histogram.
    #[allow(unused_variables)]
    pub fn observe(&self, name: &str, ms: i64) {
        #[cfg(not(feature = "off"))]
        {
            let mut inner = self.lock();
            match inner.hists.get_mut(name) {
                Some(h) => h.record(ms),
                None => {
                    let mut h = LatencyHistogram::new();
                    h.record(ms);
                    inner.hists.insert(name.to_string(), h);
                }
            }
        }
    }

    /// Drop every metric (run isolation in the simulation harness).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        inner.hists.clear();
    }

    /// A point-in-time copy of every metric, in stable name order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, h)| HistSnapshot {
                    name: k.clone(),
                    count: h.count(),
                    mean_ms: h.mean_ms(),
                    min_ms: h.min_ms(),
                    p50_ms: h.percentile_ms(0.5),
                    p90_ms: h.percentile_ms(0.9),
                    p99_ms: h.percentile_ms(0.99),
                    max_ms: h.max_ms(),
                })
                .collect(),
        }
    }
}

/// Percentile summary of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Minimum observed value.
    pub min_ms: i64,
    /// 50th-percentile bucket lower bound.
    pub p50_ms: i64,
    /// 90th-percentile bucket lower bound.
    pub p90_ms: i64,
    /// 99th-percentile bucket lower bound.
    pub p99_ms: i64,
    /// Maximum observed value.
    pub max_ms: i64,
}

/// A point-in-time export of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, name-ordered.
    pub hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Value of a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram summary by exact name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// All metric names present, across the three kinds.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.counters.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(self.gauges.iter().map(|(n, _)| n.as_str()));
        names.extend(self.hists.iter().map(|h| h.name.as_str()));
        names
    }

    /// JSON export: `{"counters":{..},"gauges":{..},"histograms":[..]}`.
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
            (
                "histograms",
                Value::Arr(
                    self.hists
                        .iter()
                        .map(|h| {
                            json::obj(vec![
                                ("name", json::str(h.name.clone())),
                                ("count", json::num(h.count as f64)),
                                ("mean_ms", json::num(h.mean_ms)),
                                ("min_ms", json::num(h.min_ms as f64)),
                                ("p50_ms", json::num(h.p50_ms as f64)),
                                ("p90_ms", json::num(h.p90_ms as f64)),
                                ("p99_ms", json::num(h.p99_ms as f64)),
                                ("max_ms", json::num(h.max_ms as f64)),
                            ])
                        })
                        .collect(),
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
        if !self.hists.is_empty() {
            writeln!(
                f,
                "histograms: {:<32} {:>8} {:>8} {:>6} {:>6} {:>6} {:>6}",
                "", "count", "mean", "p50", "p90", "p99", "max"
            )?;
            for h in &self.hists {
                writeln!(
                    f,
                    "  {:<42} {:>8} {:>8.1} {:>6} {:>6} {:>6} {:>6}",
                    h.name, h.count, h.mean_ms, h.p50_ms, h.p90_ms, h.p99_ms, h.max_ms
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_round_trip() {
        let r = Registry::new();
        r.count("a.hits", 2);
        r.count("a.hits", 3);
        r.gauge_set("a.depth", 7);
        r.gauge_max("a.peak", 5);
        r.gauge_max("a.peak", 3);
        r.observe("a.lat_ms", 10);
        r.observe("a.lat_ms", 30);
        let s = r.snapshot();
        if !ENABLED {
            assert!(s.is_empty());
            return;
        }
        assert_eq!(s.counter("a.hits"), Some(5));
        assert_eq!(s.gauge("a.depth"), Some(7));
        assert_eq!(s.gauge("a.peak"), Some(5));
        let h = s.hist("a.lat_ms").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min_ms, 10);
        assert_eq!(h.max_ms, 30);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.count("x", 1);
        r.observe("y", 1);
        r.reset();
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_name_ordered_and_json_parses() {
        let r = Registry::new();
        r.count("z.last", 1);
        r.count("a.first", 1);
        r.observe("m.mid_ms", 4);
        let s = r.snapshot();
        if ENABLED {
            assert_eq!(s.counters[0].0, "a.first");
            assert_eq!(s.counters[1].0, "z.last");
        }
        let parsed = json::parse(&s.to_json().to_string()).unwrap();
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("histograms").is_some());
    }

    #[test]
    fn missing_names_are_none() {
        let s = Registry::new().snapshot();
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.gauge("nope"), None);
        assert!(s.hist("nope").is_none());
    }
}
