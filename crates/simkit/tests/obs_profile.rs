//! Integration tests for the `--profile` observability surface of simtest:
//! the attached metrics snapshot, the trailing trace window, and the JSON
//! export the CI schema gate consumes.

use kobs::json::Value;
use simkit::simtest::{run, SimConfig};

#[test]
fn profiled_report_carries_metrics_and_trace() {
    let report = run(&SimConfig::new(7).with_steps(100).with_obs_profile());
    report.assert_passed();
    let obs = report.obs.as_ref().expect("profiled run attaches a snapshot");
    if kobs::ENABLED {
        // The acceptance surface: the commit cycle's phases as spans on its
        // critical path, the commit and txn-log counts, and the worst LSO
        // lag.
        let cp = report.critical_path.as_ref().expect("profiled run attaches the critical path");
        assert!(cp.phases.iter().any(|(name, _)| *name == "markers"), "markers:\n{report}");
        assert!(obs.counter("kstreams.commit_cycles").is_some(), "commit cycles:\n{report}");
        assert!(obs.counter("kbroker.txn.log_bytes").is_some(), "txn log:\n{report}");
        assert!(obs.gauge("kbroker.lso_lag_peak").is_some(), "LSO lag peak:\n{report}");
        assert!(obs.counter("kstreams.restore_records").is_some());

        assert!(!report.trace.is_empty(), "profiled run attaches a trace tail");
        assert!(report.trace.len() <= 32, "trace tail is bounded");
        assert!(
            report.trace.windows(2).all(|w| w[0].id < w[1].id),
            "trace tail is in emission order"
        );

        let text = report.to_string();
        assert!(text.contains("  metrics:"), "report renders the snapshot:\n{text}");
        assert!(text.contains("  trace (last "), "report renders the trace tail:\n{text}");
    } else {
        assert!(obs.is_empty(), "kobs-off builds attach an empty snapshot");
        assert!(report.trace.is_empty());
    }
}

#[test]
fn report_json_round_trips_through_the_kobs_parser() {
    let report = run(&SimConfig::new(7).with_steps(100).with_obs_profile());
    report.assert_passed();
    let doc = kobs::json::parse(&report.to_json().to_string()).expect("report JSON parses");
    assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(doc.get("passed"), Some(&Value::Bool(true)));
    let metrics = doc.get("metrics").expect("profiled JSON embeds the snapshot");
    assert!(metrics.get("counters").is_some());
    assert!(metrics.get("gauges").is_some());
    if kobs::ENABLED {
        let phases = doc.get("critical_path").and_then(|cp| cp.get("phases"));
        assert!(phases.and_then(|p| p.get("commit")).is_some(), "critical path phases");
    }
}

#[test]
fn unprofiled_passing_run_has_no_obs_sections() {
    let report = run(&SimConfig::new(7).with_steps(50));
    report.assert_passed();
    assert!(report.obs.is_none(), "snapshot only rides along when requested");
    assert!(report.trace.is_empty(), "trace tail only rides along on request or failure");
    let text = report.to_string();
    assert!(!text.contains("  metrics:"));
    assert!(!text.contains("  trace (last "));
}

#[test]
fn profiled_replay_is_byte_identical() {
    let cfg = SimConfig::new(11).with_steps(120).with_obs_profile();
    let first = format!("{}", run(&cfg));
    let second = format!("{}", run(&cfg));
    assert_eq!(first, second, "metrics and trace must replay byte-identically per seed");
}
