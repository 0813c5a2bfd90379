//! kobs — a zero-dependency observability substrate for the kstream-repro
//! workspace.
//!
//! Three pieces:
//!
//! - [`registry`]: named counters, gauges, and log-bucketed histograms
//!   behind a process-global [`Registry`], exported as ordered text or
//!   JSON [`Snapshot`]s. Metric names follow `<crate>.<subsystem>.<metric>`
//!   with an `_ms` suffix for virtual-time histograms.
//! - [`trace`]: a bounded ring of structured [`Event`]s, emitted via the
//!   [`event!`] macro. `simtest` dumps the ring tail next to the repro
//!   command when an oracle fails. Ring overflow is surfaced as the
//!   `kobs.trace.dropped` counter.
//! - [`ktrace`] / [`trace_export`]: deterministic hierarchical spans
//!   ([`span!`] / [`child_span!`]) over the virtual clock, with a
//!   critical-path analyzer (`kobs.critical_path.*`), a flight recorder of
//!   the last completed span trees, and a `chrome://tracing` / Perfetto
//!   JSON exporter.
//! - [`hist`] / [`json`]: the shared [`LatencyHistogram`] (promoted from
//!   `simprims::hist`) and a minimal JSON writer/parser used by the
//!   exporters and the CI schema gate.
//!
//! Everything runs on *virtual* time: callers pass the simulation clock's
//! `now_ms`, so latency percentiles and event timestamps are deterministic
//! for a fixed seed.
//!
//! Building with the `off` feature compiles every instrumentation entry
//! point (`count`, `observe`, `emit`, ...) to a no-op; the data types stay
//! functional so downstream code needs no `cfg`. Downstream crates forward
//! it as `kobs-off`. [`ENABLED`] reports which way this build went.

#![deny(missing_docs)]

pub mod hist;
pub mod json;
pub mod ktrace;
pub mod registry;
pub mod trace;
pub mod trace_export;

pub use hist::LatencyHistogram;
pub use ktrace::{CriticalPathSummary, Span, SpanHandle, SpanTree};
pub use registry::{global, HistSnapshot, Registry, Snapshot, ENABLED};
pub use trace::{Event, FieldValue};

/// Reset the global registry, trace ring, and span store (run isolation
/// in harnesses; span ids restart so replays are byte-identical).
pub fn reset() {
    global().reset();
    trace::clear();
    ktrace::clear();
}

/// Convenience: add `n` to a global counter.
pub fn count(name: &str, n: u64) {
    global().count(name, n);
}

/// Convenience: set a global gauge.
pub fn gauge_set(name: &str, v: i64) {
    global().gauge_set(name, v);
}

/// Convenience: raise a global high-water-mark gauge.
pub fn gauge_max(name: &str, v: i64) {
    global().gauge_max(name, v);
}

/// Convenience: record into a global histogram (milliseconds).
pub fn observe(name: &str, ms: i64) {
    global().observe(name, ms);
}

/// Convenience: snapshot the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_convenience_wrappers() {
        // Other tests in this binary also touch the global registry; use
        // names no other test writes and avoid reset() here.
        super::count("libtest.hits", 2);
        super::gauge_set("libtest.depth", 3);
        super::gauge_max("libtest.peak", 9);
        super::observe("libtest.lat_ms", 12);
        let s = super::snapshot();
        if super::ENABLED {
            assert_eq!(s.counter("libtest.hits"), Some(2));
            assert_eq!(s.gauge("libtest.peak"), Some(9));
            assert_eq!(s.hist("libtest.lat_ms").map(|h| h.count), Some(1));
        } else {
            assert!(s.is_empty());
        }
    }
}
