//! Counter and gauge handles against the by-name registry calls: a handle
//! is a second way to write one named metric, so a snapshot cannot tell
//! which way a value was written. Its own test binary with one test: it
//! resets the process-global registry.

#[test]
fn handles_read_as_their_names_and_reset_with_the_registry() {
    let counter = kobs::counter!("handles.requests");
    let gauge = kobs::gauge!("handles.peak");
    kobs::reset();
    let absent = kobs::snapshot();
    assert_eq!(absent.counter("handles.requests"), None, "an untouched handle is not listed");
    assert_eq!(absent.gauge("handles.peak"), None);

    counter.add(2);
    counter.add(0);
    kobs::count("handles.by_name", 2);
    kobs::count("handles.by_name", 0);
    gauge.max(-3);
    gauge.max(-7);
    kobs::gauge_max("handles.peak_by_name", -3);
    kobs::gauge_max("handles.peak_by_name", -7);
    let snap = kobs::snapshot();
    if !kobs::ENABLED {
        assert!(snap.is_empty());
        assert_eq!(counter.get(), 0);
        return;
    }
    assert_eq!(counter.get(), 2);
    assert_eq!(snap.counter("handles.requests"), snap.counter("handles.by_name"));
    assert_eq!(snap.counter("handles.requests"), Some(2));
    assert_eq!(snap.gauge("handles.peak"), snap.gauge("handles.peak_by_name"));
    assert_eq!(snap.gauge("handles.peak"), Some(-3), "a gauge keeps its peak, negative too");

    // A handle and a by-name write of one name are one metric.
    kobs::count("handles.requests", 5);
    kobs::gauge_max("handles.peak", 4);
    let merged = kobs::snapshot();
    assert_eq!(merged.counter("handles.requests"), Some(7));
    assert_eq!(merged.gauge("handles.peak"), Some(4));
    assert_eq!(merged.names().iter().filter(|n| **n == "handles.requests").count(), 1);

    // A bump by 0 lists a counter, as a by-name count of 0 does.
    kobs::reset();
    assert_eq!(counter.get(), 0, "a handle reads 0 after a reset");
    assert!(kobs::snapshot().is_empty(), "and leaves the snapshot until touched");
    counter.add(0);
    assert_eq!(kobs::snapshot().counter("handles.requests"), Some(0));
    gauge.max(1);
    assert_eq!(kobs::snapshot().gauge("handles.peak"), Some(1), "the peak restarts at a reset");
}
