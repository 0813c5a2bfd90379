//! kobs — a zero-dependency observability substrate for the kstream-repro
//! workspace.
//!
//! Three pieces:
//!
//! - [`registry`]: named counters and high-water-mark gauges behind a
//!   process-global [`Registry`], exported as ordered text or JSON
//!   [`Snapshot`]s. Metric names follow `<crate>.<subsystem>.<metric>`.
//!   Hot call sites hold a [`Counter`] or [`Gauge`] handle ([`counter!`],
//!   [`gauge!`]) instead of naming the metric on every bump.
//! - [`ktrace`] / [`trace`] / [`trace_export`]: one bounded ring of trace
//!   records — deterministic hierarchical spans ([`span!`] /
//!   [`child_span!`]) over the virtual clock and zero-duration structured
//!   [`Event`]s ([`event!`]) — with a critical-path analyzer
//!   ([`CriticalPathSummary`]), the flight recorder and the `simtest` trace
//!   tail as views of the ring, and a `chrome://tracing` / Perfetto JSON
//!   exporter. Ring overflow is counted in `kobs.trace.dropped`.
//! - [`json`]: a minimal JSON writer/parser used by the exporters and the
//!   CI schema gate.
//!
//! A duration is a span and nothing else: the registry counts and keeps
//! peaks, and how long something took is read from the span tree. Spans
//! run on *virtual* time — callers pass the simulation clock's `now_ms` —
//! so trees and timestamps are deterministic for a fixed seed.
//!
//! Building with the `off` feature compiles every instrumentation entry
//! point (`count`, `gauge_max`, `emit`, ...) to a no-op; the data types stay
//! functional so downstream code needs no `cfg`. The two entry points, the
//! root package and `simkit`, expose it as `kobs-off`; Cargo unifies
//! features, so every crate in that build links the one `kobs` with `off`
//! set. [`ENABLED`] reports which way this build went.

#![deny(missing_docs)]

pub mod json;
pub mod ktrace;
pub mod registry;
pub mod trace;
pub mod trace_export;

pub use ktrace::{CriticalPathSummary, Span, SpanHandle, SpanTree};
pub use registry::{global, Counter, Gauge, Registry, Snapshot, ENABLED};
pub use trace::{Event, FieldValue, Fields};

/// Reset the global registry and the trace store (run isolation in
/// harnesses; record ids restart so replays are byte-identical).
pub fn reset() {
    global().reset();
    ktrace::clear();
}

/// Convenience: add `n` to a global counter.
pub fn count(name: &str, n: u64) {
    global().count(name, n);
}

/// Convenience: raise a global high-water-mark gauge.
pub fn gauge_max(name: &str, v: i64) {
    global().gauge_max(name, v);
}

/// Convenience: snapshot the global registry, plus the trace store's
/// eviction count as `kobs.trace.dropped` once it is non-zero.
pub fn snapshot() -> Snapshot {
    let mut snap = global().snapshot();
    let dropped = ktrace::dropped();
    if dropped > 0 {
        let name = "kobs.trace.dropped";
        let at = snap.counters.partition_point(|(n, _)| n.as_str() < name);
        snap.counters.insert(at, (name.to_string(), dropped));
    }
    snap
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_convenience_wrappers() {
        // Other tests in this binary also touch the global registry; use
        // names no other test writes and avoid reset() here.
        super::count("libtest.hits", 2);
        super::gauge_max("libtest.peak", 9);
        let s = super::snapshot();
        if super::ENABLED {
            assert_eq!(s.counter("libtest.hits"), Some(2));
            assert_eq!(s.gauge("libtest.peak"), Some(9));
        } else {
            assert!(s.is_empty());
        }
    }
}
